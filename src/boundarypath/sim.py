"""Desk-scale XPBD collision-resolution simulator.

Mass-spring material plus plane collision constraints whose anchor points
come from the shortest-internal-path boundary query, so penetrating
features of self-intersecting or overlapping meshes are pushed out along
the true nearest exit. Discrete collision detection only (vertex-element
and edge-element); continuous detection and friction are out of scope.

Collision detection is array code: each mesh's probes (vertices and
element centroids, or boundary edges) go to each element tree in one
batched box-overlap call, and the candidate pairs are tested with one
batched barycentric solve. The contacts, and their order, are those of
testing one probe at a time.
"""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry
from .bvh import BoundaryBvh, ElementBvh
from .errors import NumericalBlowup, ParseError
from .meshio import load_mesh
from .query import QueryConfig, shortest_path_to_boundary
from .traversal import TraversalConfig


@dataclass
class SimConfig:
    dt: float = 1e-2
    substeps: int = 10
    iterations: int = 3  # material + collision projection sweeps per substep
    gravity: tuple = (0.0, 0.0, 0.0)
    collision_compliance: float = 0.0
    material_compliance: float = 0.0
    damping: float = 0.0  # scales velocities by (1 - damping); 1 = quasi-static
    # projection targets c >= margin; exactly-on-face points otherwise
    # flicker in and out of the strict containment test
    contact_margin: float = 1e-7
    query: QueryConfig = field(default_factory=QueryConfig)

    def __post_init__(self):
        numbers = (
            self.dt, *self.gravity, self.collision_compliance, self.material_compliance,
            self.damping, self.contact_margin,
        )
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError(
                "dt, gravity, the compliances, damping and contact_margin must be finite"
            )
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class CollisionConstraint:
    """One-sided plane constraint c(x) = (x - s) . n >= 0.

    `subject` is (mesh index, vertex ids, weights): a single vertex with
    weight 1, an edge pair with the barycentric weights of its clipped-chord
    center, or a whole element with uniform weights for centroid contacts.
    The constrained point is x = sum(w_i * x_i).
    """

    subject: tuple
    target_point: np.ndarray
    normal: np.ndarray
    compliance: float = 0.0
    penetration: float = 0.0  # -c at build time, for logging

    def value(self, x):
        return float(np.dot(np.asarray(x, float) - self.target_point, self.normal))


@dataclass
class SimState:
    """Scene state: one or more meshes sharing a flat vertex arena."""

    meshes: list
    positions: np.ndarray  # (n, dim) current
    prev_positions: np.ndarray
    velocities: np.ndarray
    inv_mass: np.ndarray  # (n,), >= 0; 0 pins a vertex
    offsets: np.ndarray  # mesh m owns rows [offsets[m], offsets[m+1])
    springs: np.ndarray  # (k, 2) global vertex ids
    rest_lengths: np.ndarray  # (k,)
    substeps_done: int = 0

    @property
    def dim(self):
        return self.positions.shape[1]

    def mesh_slice(self, m):
        return slice(int(self.offsets[m]), int(self.offsets[m + 1]))

    def sync_meshes(self):
        for m, mesh in enumerate(self.meshes):
            mesh.set_vertices(self.positions[self.mesh_slice(m)])

    def dump(self):
        """Diagnostic snapshot used by NumericalBlowup."""
        return {
            "substeps_done": int(self.substeps_done),
            "n_nonfinite": int(np.count_nonzero(~np.isfinite(self.positions))),
            "max_speed": float(
                np.linalg.norm(self.velocities, axis=1).max(initial=0.0)
            ),
        }


def _unique_edges(elements):
    """Every element edge once, as (lo, hi) vertex pairs in sorted order."""
    pairs = np.column_stack(np.triu_indices(elements.shape[1], 1))
    return np.unique(np.sort(elements[:, pairs].reshape(-1, 2), axis=1), axis=0)


def make_state(meshes, masses=None):
    """Build a SimState over copies of the given meshes' positions. Springs
    are every unique element edge at its current length. `masses` is an
    optional per-mesh list of per-vertex masses; default is unit mass."""
    offsets = np.zeros(len(meshes) + 1, dtype=np.int64)
    for m, mesh in enumerate(meshes):
        offsets[m + 1] = offsets[m] + mesh.n_vertices
    n = int(offsets[-1])
    dim = meshes[0].dim
    positions = np.empty((n, dim))
    inv_mass = np.ones(n)
    springs = []
    for m, mesh in enumerate(meshes):
        if mesh.dim != dim:
            raise ValueError("all meshes in a scene must share a dimension")
        sl = slice(int(offsets[m]), int(offsets[m + 1]))
        positions[sl] = mesh.vertices
        if masses is not None and masses[m] is not None:
            mass = np.asarray(masses[m], dtype=float)
            inv_mass[sl] = np.where(mass > 0, 1.0 / np.where(mass > 0, mass, 1), 0.0)
        springs.append(_unique_edges(mesh.elements) + offsets[m])
    springs = np.concatenate(springs, axis=0)
    rest = np.linalg.norm(positions[springs[:, 0]] - positions[springs[:, 1]], axis=1)
    return SimState(
        meshes=list(meshes),
        positions=positions,
        prev_positions=positions.copy(),
        velocities=np.zeros_like(positions),
        inv_mass=inv_mass,
        offsets=offsets,
        springs=springs,
        rest_lengths=rest,
    )


def _overlaps(state, elem_bvhs, ma, lo, hi, probe_ids):
    """Candidate (probe, element) pairs of mesh a's probes, one batched
    box-overlap call per target mesh b. Probe k has the box [lo[k], hi[k]]
    and owns the mesh-a vertex ids in row k of probe_ids. Skipped elements
    and, for a self-pair, elements sharing a vertex with the probe are
    dropped. Yields (mb, probe, element, element vertices) per mesh b, in
    mesh order; within a mesh the pairs are sorted by probe, then by
    element id."""
    for mb, mesh_b in enumerate(state.meshes):
        probe, e = elem_bvhs[mb].tree.box_overlap(lo, hi)
        keep = ~mesh_b.skipped_flags[e]
        if ma == mb:
            shared = mesh_b.elements[e][:, :, None] == probe_ids[probe][:, None, :]
            keep &= ~shared.any(axis=(1, 2))
        probe, e = probe[keep], e[keep]
        yield mb, probe, e, mesh_b.vertices[mesh_b.elements[e]]


def dcd_vertex_tet(state, elem_bvhs, include_centroids=False):
    """Vertex-vs-element discrete collision detection across all mesh
    pairs, self-pairs included. Returns a list of contact records
    (subject mesh, vertex ids tuple, weights, point, target mesh, element).

    A vertex counts only when strictly inside (all barycentric coordinates
    positive) a non-skipped element it is not incident to. With
    include_centroids, element centroids join the probe set; their
    correction spreads uniformly over the element's vertices.

    Each mesh's probes (its vertices, then its element centroids) are
    tested as one batch: one box-overlap call per target mesh, then one
    batched barycentric solve over every candidate pair. Contacts come
    in probe order, then target mesh, then element id.
    """
    contacts = []
    for ma, mesh_a in enumerate(state.meshes):
        nv = mesh_a.n_vertices
        points = state.positions[state.mesh_slice(ma)]
        probe_ids = np.repeat(np.arange(nv)[:, None], mesh_a.dim + 1, axis=1)
        if include_centroids:
            points = np.concatenate([points, mesh_a.vertices[mesh_a.elements].mean(axis=1)])
            probe_ids = np.concatenate([probe_ids, mesh_a.elements])
        hits = []
        for mb, probe, e, verts in _overlaps(state, elem_bvhs, ma, points, points, probe_ids):
            b = geometry.barycentric_coords(points[probe], verts)
            inside = np.all(np.isfinite(b) & (b > 0.0), axis=1)
            hits.append((probe[inside], np.full(np.count_nonzero(inside), mb), e[inside]))
        probe, mb, e = (np.concatenate(col) for col in zip(*hits))
        # the stable sort keeps (target mesh, element id) within a probe
        order = np.argsort(probe, kind="stable")
        for k, m, el in zip(probe[order].tolist(), mb[order].tolist(), e[order].tolist()):
            if k < nv:
                ids, w = (k,), (1.0,)
            else:
                ids = tuple(mesh_a.elements[k - nv].tolist())
                w = (1.0 / len(ids),) * len(ids)
            contacts.append((ma, ids, w, points[k], m, el))
    return contacts


def _chord_spans(ba, bb):
    """Parameter interval [t0, t1] of each segment a->b inside its element,
    from the barycentric coordinates of its ends, and whether the segment
    crosses the element at all. Each coordinate c(t) = ba + t (bb - ba)
    must stay >= 0: a rising one raises t0, a falling one lowers t1, and
    a flat one (|bb - ba| < 1e-300) must be nonnegative already."""
    dc = bb - ba
    flat = np.abs(dc) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cross = -ba / dc
    t0 = np.max(np.where(~flat & (dc > 0), t_cross, 0.0), axis=1)
    t1 = np.min(np.where(~flat & (dc < 0), t_cross, 1.0), axis=1)
    finite = np.all(np.isfinite(ba) & np.isfinite(bb), axis=1)
    crosses = finite & ~np.any(flat & (ba < 0), axis=1) & (t0 < t1)
    return t0, t1, crosses


def dcd_edge_tet(state, elem_bvhs):
    """Boundary-edge-vs-element discrete collision detection. For each
    boundary edge clipped by a non-incident element, records the midpoint
    of the clipped chord; if several elements intersect one edge, only the
    chord center nearest the edge midpoint is kept, the first in (target
    mesh, element id) on a tie. Chords of 1e-12 or less in parameter
    length are ignored. Returns contact records shaped like
    dcd_vertex_tet's, with the chord center's barycentric weights on the
    edge endpoints, in boundary-edge order.

    Each mesh's boundary edges are tested as one batch: one box-overlap
    call per target mesh, then every (edge, element) pair is clipped at
    once.
    """
    contacts = []
    for ma, mesh_a in enumerate(state.meshes):
        edges = mesh_a.boundary_edges
        pos = state.positions[state.mesh_slice(ma)]
        a, b = pos[edges[:, 0]], pos[edges[:, 1]]
        hits = []
        for mb, edge, e, verts in _overlaps(
            state, elem_bvhs, ma, np.minimum(a, b), np.maximum(a, b), edges
        ):
            ba = geometry.barycentric_coords(a[edge], verts)
            bb = geometry.barycentric_coords(b[edge], verts)
            t0, t1, crosses = _chord_spans(ba, bb)
            keep = crosses & (t1 - t0 > 1e-12)
            t_mid = 0.5 * (t0[keep] + t1[keep])
            hits.append((edge[keep], np.full(len(t_mid), mb), e[keep], t_mid))
        edge, mb, e, t_mid = (np.concatenate(col) for col in zip(*hits))
        # per edge, the chord center nearest the edge midpoint; the stable
        # sort leaves ties in (target mesh, element id)
        order = np.lexsort((np.abs(t_mid - 0.5), edge))
        best = order[np.unique(edge[order], return_index=True)[1]]
        edge, mb, e, t_mid = edge[best], mb[best], e[best], t_mid[best]
        points = a[edge] + t_mid[:, None] * (b[edge] - a[edge])
        for k, m, el, t, point in zip(
            edge.tolist(), mb.tolist(), e.tolist(), t_mid.tolist(), points
        ):
            va, vb = edges[k].tolist()
            contacts.append((ma, (va, vb), (1.0 - t, t), point, m, el))
    return contacts


def build_collision_constraint(x, query_result, mesh, compliance, subject):
    """Plane constraint anchored at the query's boundary point, with the
    pseudo-normal of its boundary feature. c(x) = (x - s) . n; projection
    enforces c >= 0."""
    n = mesh.pseudo_normal(query_result.feature)
    s = np.asarray(query_result.point, dtype=float)
    c = float(np.dot(np.asarray(x, float) - s, n))
    return CollisionConstraint(
        subject=subject,
        target_point=s,
        normal=n,
        compliance=compliance,
        penetration=max(-c, 0.0),
    )


@dataclass
class ContactLogEntry:
    substep: int
    n_constraints: int
    max_penetration: float
    n_vertex_contacts: int
    n_edge_contacts: int
    query_elements_visited: int
    query_candidates: int

    def as_dict(self):
        return {
            "substep": self.substep,
            "constraint_count": self.n_constraints,
            "max_penetration_depth": self.max_penetration,
            "vertex_contacts": self.n_vertex_contacts,
            "edge_contacts": self.n_edge_contacts,
            "query_stats": {
                "elements_visited": self.query_elements_visited,
                "candidates_tested": self.query_candidates,
            },
        }


class SimRuntime:
    """Owns the per-mesh BVHs across substeps; refits (never rebuilds) on
    vertex motion."""

    def __init__(self, state, config):
        self.config = config
        state.sync_meshes()
        self.elem_bvhs = [ElementBvh(mesh) for mesh in state.meshes]
        self.boundary_bvhs = [BoundaryBvh(mesh) for mesh in state.meshes]

    def refit(self, state):
        state.sync_meshes()
        for m, mesh in enumerate(state.meshes):
            self.elem_bvhs[m].refit(mesh)
            self.boundary_bvhs[m].refit(mesh)


def _build_constraints(state, runtime, config):
    """DCD + shortest-path queries -> collision constraints, once per
    substep. Element centroids join the vertex probes. Contacts whose
    query comes back empty (no valid path, query point in a skipped
    element) produce no constraint."""
    vertex_contacts = dcd_vertex_tet(state, runtime.elem_bvhs, include_centroids=True)
    edge_contacts = dcd_edge_tet(state, runtime.elem_bvhs)
    constraints = []
    steps_total = 0
    cands_total = 0
    for ma, ids, w, point, mb, e in vertex_contacts + edge_contacts:
        # a self-collision vertex probe sits on its own boundary: exclude
        # the vertex's zero-distance faces from candidacy
        res = shortest_path_to_boundary(
            state.meshes[mb],
            runtime.boundary_bvhs[mb],
            point,
            p_element=e,
            config=config.query,
            exclude_vertex=int(ids[0]) if ma == mb and len(ids) == 1 else None,
        )
        if res is None:
            continue
        steps_total += res.elements_visited
        cands_total += res.bvh_candidates_tested
        constraints.append(
            build_collision_constraint(
                point,
                res,
                state.meshes[mb],
                compliance=config.collision_compliance,
                subject=(ma, ids, w),
            )
        )
    return constraints, len(vertex_contacts), len(edge_contacts), steps_total, cands_total


def _project_springs(state, config, dt):
    alpha = config.material_compliance / (dt * dt)
    x = state.positions
    w = state.inv_mass
    for k in range(len(state.springs)):
        i, j = int(state.springs[k, 0]), int(state.springs[k, 1])
        wi, wj = w[i], w[j]
        denom0 = wi + wj
        if denom0 == 0.0:
            continue
        d = x[i] - x[j]
        dist = float(np.linalg.norm(d))
        if dist < 1e-14:
            continue
        c = dist - float(state.rest_lengths[k])
        dlam = -c / (denom0 + alpha)
        grad = d / dist
        x[i] += wi * dlam * grad
        x[j] -= wj * dlam * grad


def _project_collisions(state, constraints, dt, margin=0.0):
    x = state.positions
    w = state.inv_mass
    for con in constraints:
        ma, ids, wts = con.subject
        base = int(state.offsets[ma])
        rows = [base + v for v in ids]
        pt = sum(wt * x[r] for wt, r in zip(wts, rows))
        c = float(np.dot(pt - con.target_point, con.normal))
        if c >= margin:
            continue  # one-sided: only penetration is corrected
        denom = sum(wt * wt * w[r] for wt, r in zip(wts, rows))
        if denom == 0.0:
            continue
        alpha = con.compliance / (dt * dt)
        dlam = (margin - c) / (denom + alpha)
        for wt, r in zip(wts, rows):
            x[r] += w[r] * wt * dlam * con.normal


def xpbd_substep(state, config, runtime=None):
    """One substep: predict, refit BVHs, detect/build constraints once,
    then `iterations` sweeps of springs followed by collision projections,
    then velocity update. Returns (state, ContactLogEntry). Raises
    NumericalBlowup with a diagnostic dump if positions go non-finite."""
    if runtime is None:
        runtime = SimRuntime(state, config)
    dt = config.dt
    g = np.asarray(config.gravity, dtype=float)[: state.dim]

    state.prev_positions[:] = state.positions
    movable = state.inv_mass > 0
    state.velocities[movable] += dt * g
    state.positions[movable] += dt * state.velocities[movable]
    # the meshes reject non-finite positions, so check before they take them
    if not np.all(np.isfinite(state.positions)):
        raise NumericalBlowup(
            f"non-finite predicted positions in substep {state.substeps_done + 1}",
            state_dump=state.dump(),
        )

    runtime.refit(state)
    constraints, n_vc, n_ec, steps, cands = _build_constraints(state, runtime, config)

    for _ in range(config.iterations):
        _project_springs(state, config, dt)
        _project_collisions(state, constraints, dt, config.contact_margin)

    state.velocities[:] = (state.positions - state.prev_positions) / dt
    if config.damping:
        state.velocities *= 1.0 - config.damping
    state.substeps_done += 1
    if not np.all(np.isfinite(state.positions)):
        raise NumericalBlowup(
            f"non-finite positions after substep {state.substeps_done}",
            state_dump=state.dump(),
        )
    state.sync_meshes()

    max_pen = max((con.penetration for con in constraints), default=0.0)
    entry = ContactLogEntry(
        substep=state.substeps_done,
        n_constraints=len(constraints),
        max_penetration=max_pen,
        n_vertex_contacts=n_vc,
        n_edge_contacts=n_ec,
        query_elements_visited=steps,
        query_candidates=cands,
    )
    return state, entry


def run_sim(state, config, n_substeps, runtime=None, log=None):
    """Advance n_substeps; appends ContactLogEntry records to `log` (a list)
    when given. Returns the runtime so callers can continue stepping."""
    if runtime is None:
        runtime = SimRuntime(state, config)
    for _ in range(n_substeps):
        state, entry = xpbd_substep(state, config, runtime)
        if log is not None:
            log.append(entry)
    return runtime


def count_penetrations(state, runtime):
    """Current number of vertex-inside-foreign-element incidences; the
    recovery criterion drives this to zero."""
    runtime.refit(state)
    return len(dcd_vertex_tet(state, runtime.elem_bvhs))


def _config(cls, doc, path, where, convert=()):
    """cls(**doc) for a JSON object of cls's fields. `convert` pairs a key
    with a function applied to its value first, such as the builder of a
    nested config. Raises ParseError for a non-object, an unknown key or a
    value that the conversion or cls rejects."""
    if not isinstance(doc, dict):
        raise ParseError(path, 0, f'"{where}" must be an object')
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ParseError(path, 0, f"unknown {where} keys: {', '.join(unknown)}")
    kwargs = dict(doc)
    try:
        for key, fn in convert:
            if key in kwargs:
                kwargs[key] = fn(kwargs[key])
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, 0, f"bad {where}: {exc}") from exc


def _finite(value, what):
    """A JSON number as a float. Raises ValueError for any other value,
    nan and infinities included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _place(mesh, spec):
    """Scale, then translate, a scene entry's mesh in place; returns its
    per-vertex masses, or None for unit mass. Raises ValueError for an
    unknown key or a bad value."""
    unknown = sorted(set(spec) - {"path", "translate", "scale", "mass"})
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(unknown)}")
    scale = _finite(spec.get("scale", 1.0), "scale")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    translate = spec.get("translate", [0.0] * mesh.dim)
    if not isinstance(translate, list) or len(translate) != mesh.dim:
        raise ValueError(f"translate must be a list of {mesh.dim} numbers for a {mesh.dim}D mesh")
    verts = mesh.vertices * scale + [_finite(x, "translate") for x in translate]
    if not np.all(np.isfinite(verts)):
        raise ValueError("scaled vertex coordinates overflow")
    mesh.set_vertices(verts)
    mass = spec.get("mass")
    if mass is None:
        return None
    if _finite(mass, "mass") < 0.0:
        raise ValueError(f"mass must be >= 0, got {mass}")
    return np.full(mesh.n_vertices, float(mass))


def load_scene(path):
    """JSON scene: {"meshes": [{"path", "translate"?, "scale"?,
    "mass"?}], "config": {SimConfig fields}}. The config's "query" object
    holds QueryConfig fields, and its "traversal" object TraversalConfig
    fields. Returns (state, config). Raises ParseError for a document of
    another shape, an unknown key in a mesh entry or in the config at any
    level, a value that a mesh entry or the config classes reject, or
    meshes of different dimensions."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, exc.msg) from exc
    specs = doc.get("meshes") if isinstance(doc, dict) else None
    if (
        not isinstance(specs, list)
        or not specs
        or not all(isinstance(m, dict) and isinstance(m.get("path"), str) for m in specs)
    ):
        raise ParseError(
            path, 0, 'a scene needs a non-empty "meshes" list of {"path": ...} objects'
        )

    def traversal(d):
        return _config(TraversalConfig, d, path, "config.query.traversal")

    def query(d):
        return _config(QueryConfig, d, path, "config.query", [("traversal", traversal)])

    config = _config(
        SimConfig,
        doc.get("config", {}),
        path,
        "config",
        [("query", query), ("gravity", lambda g: tuple(float(x) for x in g))],
    )
    meshes = []
    masses = []
    base = path.rsplit("/", 1)[0] if "/" in path else "."
    for i, spec in enumerate(specs):
        mpath = spec["path"]
        if not mpath.startswith("/"):
            mpath = f"{base}/{mpath}"
        mesh = load_mesh(mpath)
        try:
            masses.append(_place(mesh, spec))
        except ValueError as exc:
            raise ParseError(path, 0, f"bad meshes[{i}]: {exc}") from exc
        meshes.append(mesh)
    if len({mesh.dim for mesh in meshes}) > 1:
        raise ParseError(path, 0, "all meshes in a scene must share a dimension")
    return make_state(meshes, masses), config
