"""Desk-scale XPBD collision-resolution simulator.

Mass-spring material plus plane collision constraints whose anchor points
come from the shortest-internal-path boundary query, so penetrating
features of self-intersecting or overlapping meshes are pushed out along
the true nearest exit. Discrete collision detection only (vertex-element
and edge-element); continuous detection and friction are out of scope.
"""

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import geometry
from .bvh import BoundaryBvh, ElementBvh
from .errors import NumericalBlowup, ParseError
from .meshio import load_mesh
from .query import QueryConfig, shortest_path_to_boundary
from .traversal import TraversalScratch


@dataclass
class SimConfig:
    dt: float = 1e-2
    substeps: int = 10
    iterations: int = 3  # material + collision projection sweeps per substep
    gravity: tuple = (0.0, 0.0, 0.0)
    collision_compliance: float = 0.0
    material_compliance: float = 0.0
    stiffness_k: float = 1e4  # penalty-energy reporting only
    damping: float = 0.0  # scales velocities by (1 - damping); 1 = quasi-static
    # projection targets c >= margin; exactly-on-face points otherwise
    # flicker in and out of the strict containment test
    contact_margin: float = 1e-7
    include_centroids: bool = True  # element centroids join the contact set
    query: QueryConfig = field(default_factory=QueryConfig)

    def __post_init__(self):
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
    dim1 = elements.shape[1]
    pairs = []
    for i in range(dim1):
        for j in range(i + 1, dim1):
            pairs.append(elements[:, (i, j)])
    edges = np.concatenate(pairs, axis=0)
    edges = np.sort(edges, axis=1)
    return np.unique(edges, axis=0)


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


def _strictly_inside(mesh, e, p):
    b = geometry.barycentric_coords(p, mesh.vertices[mesh.elements[e]])
    return bool(np.all(np.isfinite(b)) and np.all(b > 0.0))


def dcd_vertex_tet(state, elem_bvhs, include_centroids=False):
    """Vertex-vs-element discrete collision detection across all mesh
    pairs, self-pairs included. Returns a list of contact records
    (subject mesh, vertex ids tuple, weights, point, target mesh, element).

    A vertex counts only when strictly inside (all barycentric coordinates
    positive) a non-skipped element it is not incident to. With
    include_centroids, element centroids join the probe set; their
    correction spreads uniformly over the element's vertices.
    """
    contacts = []
    probes = []
    for ma, mesh_a in enumerate(state.meshes):
        base = int(state.offsets[ma])
        for v in range(mesh_a.n_vertices):
            probes.append((ma, (v,), (1.0,), state.positions[base + v]))
        if include_centroids:
            for e in range(mesh_a.n_elements):
                ids = tuple(int(i) for i in mesh_a.elements[e])
                w = (1.0 / len(ids),) * len(ids)
                c = mesh_a.vertices[mesh_a.elements[e]].mean(axis=0)
                probes.append((ma, ids, w, c))
    for ma, ids, w, point in probes:
        for mb, mesh_b in enumerate(state.meshes):
            for e in elem_bvhs[mb].elements_containing(point):
                if mesh_b.element_skipped(e):
                    continue
                if ma == mb and any(v in mesh_b.elements[e] for v in ids):
                    continue
                if _strictly_inside(mesh_b, e, point):
                    contacts.append((ma, ids, w, np.asarray(point, float), mb, int(e)))
    return contacts


def _clip_segment_to_element(mesh, e, a, b):
    """Parameter interval [t0, t1] of segment a->b inside element e, or
    None. Clips against the element's face half-spaces."""
    verts = mesh.vertices[mesh.elements[e]]
    ba = geometry.barycentric_coords(a, verts)
    bb = geometry.barycentric_coords(b, verts)
    if not (np.all(np.isfinite(ba)) and np.all(np.isfinite(bb))):
        return None
    t0, t1 = 0.0, 1.0
    for i in range(len(ba)):
        # barycentric coordinate i along the segment: ba[i] + t (bb[i]-ba[i]) >= 0
        lo, hi = ba[i], bb[i]
        dc = hi - lo
        if abs(dc) < 1e-300:
            if lo < 0:
                return None
            continue
        t_cross = -lo / dc
        if dc > 0:
            t0 = max(t0, t_cross)
        else:
            t1 = min(t1, t_cross)
        if t0 >= t1:
            return None
    return t0, t1


def dcd_edge_tet(state, elem_bvhs):
    """Boundary-edge-vs-element discrete collision detection. For each
    boundary edge clipped by a non-incident element, records the midpoint
    of the clipped chord; if several elements intersect one edge, only the
    chord center nearest the edge midpoint is kept. Returns contact records
    shaped like dcd_vertex_tet's, with the chord center's barycentric
    weights on the edge endpoints."""
    contacts = []
    for ma, mesh_a in enumerate(state.meshes):
        base = int(state.offsets[ma])
        edges = _boundary_edges(mesh_a)
        for va, vb in edges:
            a = state.positions[base + va]
            b = state.positions[base + vb]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            best = None
            for mb, mesh_b in enumerate(state.meshes):
                for e in elem_bvhs[mb].elements_overlapping(lo, hi):
                    if mesh_b.element_skipped(e):
                        continue
                    if ma == mb and (
                        va in mesh_b.elements[e] or vb in mesh_b.elements[e]
                    ):
                        continue
                    span = _clip_segment_to_element(mesh_b, e, a, b)
                    if span is None or span[1] - span[0] <= 1e-12:
                        continue
                    t_mid = 0.5 * (span[0] + span[1])
                    # rank by chord-center proximity to the edge midpoint
                    rank = abs(t_mid - 0.5)
                    if best is None or rank < best[0]:
                        best = (rank, t_mid, mb, int(e))
            if best is not None:
                _, t_mid, mb, e = best
                point = a + t_mid * (b - a)
                contacts.append(
                    (ma, (int(va), int(vb)), (1.0 - t_mid, t_mid), point, mb, e)
                )
    return contacts


def _boundary_edges(mesh):
    if mesh.dim == 2:
        return [tuple(int(v) for v in f) for f in mesh.boundary_faces]
    return [tuple(int(v) for v in e) for e in _unique_edges(mesh.boundary_faces)]


def build_collision_constraint(x, query_result, mesh, compliance=0.0, subject=None):
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


def penalty_energy(x, s, n, k):
    """0.5 * k * ((x - s) . n)^2; gradient w.r.t. x is k * c * n."""
    c = float(np.dot(np.asarray(x, float) - np.asarray(s, float), n))
    return 0.5 * k * c * c


def penalty_gradient(x, s, n, k):
    c = float(np.dot(np.asarray(x, float) - np.asarray(s, float), n))
    return k * c * np.asarray(n, dtype=float)


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
    """Owns the per-mesh BVHs and scratch buffers across substeps; refits
    (never rebuilds) on vertex motion."""

    def __init__(self, state, config):
        self.config = config
        state.sync_meshes()
        self.elem_bvhs = [ElementBvh(mesh) for mesh in state.meshes]
        self.boundary_bvhs = [BoundaryBvh(mesh) for mesh in state.meshes]
        self.scratch = TraversalScratch(config.query.traversal)

    def refit(self, state):
        state.sync_meshes()
        for m, mesh in enumerate(state.meshes):
            self.elem_bvhs[m].refit(mesh)
            self.boundary_bvhs[m].refit(mesh)


def _build_constraints(state, runtime, config):
    """DCD + shortest-path queries -> collision constraints, once per
    substep. Contacts whose query comes back empty (no valid path, query
    point in a skipped element) produce no constraint."""
    vertex_contacts = dcd_vertex_tet(
        state, runtime.elem_bvhs, include_centroids=config.include_centroids
    )
    edge_contacts = dcd_edge_tet(state, runtime.elem_bvhs)
    constraints = []
    steps_total = 0
    cands_total = 0
    for ma, ids, w, point, mb, e in vertex_contacts + edge_contacts:
        qcfg = config.query
        if ma == mb and len(ids) == 1:
            # self-collision probe sits on its own boundary: exclude the
            # vertex's zero-distance faces from candidacy
            qcfg = replace(qcfg, exclude_vertex=int(ids[0]))
        res = shortest_path_to_boundary(
            state.meshes[mb],
            runtime.boundary_bvhs[mb],
            point,
            p_element=e,
            config=qcfg,
            scratch=runtime.scratch,
        )
        if res is None:
            continue
        steps_total += res.stats.elements_visited
        cands_total += res.stats.bvh_candidates_tested
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


def count_penetrations(state, runtime, include_centroids=False):
    """Current number of vertex-inside-foreign-element incidences; the
    recovery criterion drives this to zero."""
    runtime.refit(state)
    return len(
        dcd_vertex_tet(state, runtime.elem_bvhs, include_centroids=include_centroids)
    )


def load_scene(path):
    """JSON scene: {"meshes": [{"path", "translate"?, "scale"?,
    "mass"?}], "config": {SimConfig fields}}. Returns (state, config).
    Raises ParseError for a document of another shape or an unknown
    config key."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, exc.msg) from exc
    specs = doc.get("meshes") if isinstance(doc, dict) else None
    if not isinstance(specs, list) or not all(isinstance(m, dict) and "path" in m for m in specs):
        raise ParseError(path, 0, 'a scene needs a "meshes" list of {"path": ...} objects')
    cfg_doc = dict(doc.get("config", {}))
    unknown = sorted(set(cfg_doc) - {f.name for f in fields(SimConfig)})
    if unknown:
        raise ParseError(path, 0, f"unknown config keys: {', '.join(unknown)}")
    if "gravity" in cfg_doc:
        cfg_doc["gravity"] = tuple(cfg_doc["gravity"])
    config = SimConfig(**cfg_doc)
    meshes = []
    masses = []
    base = path.rsplit("/", 1)[0] if "/" in path else "."
    for spec_m in specs:
        mpath = spec_m["path"]
        if not mpath.startswith("/"):
            mpath = f"{base}/{mpath}"
        mesh = load_mesh(mpath)
        verts = mesh.vertices * float(spec_m.get("scale", 1.0))
        verts = verts + np.asarray(spec_m.get("translate", [0.0] * mesh.dim), float)
        mesh.set_vertices(verts)
        meshes.append(mesh)
        mass = spec_m.get("mass")
        masses.append(None if mass is None else np.full(mesh.n_vertices, float(mass)))
    return make_state(meshes, masses), config
