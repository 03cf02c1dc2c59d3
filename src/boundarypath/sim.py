"""Desk-scale XPBD collision-resolution simulator.

Mass-spring material plus plane collision constraints whose anchor points
come from the shortest-internal-path boundary query, so penetrating
features of self-intersecting or overlapping meshes are pushed out along
the true nearest exit. Discrete collision detection only (vertex-element
and edge-element); continuous detection and friction are out of scope.

Collision detection is array code over one element tree that holds every
element of every mesh. Its candidate pairs are kept across detections, as
in Verlet's neighbour lists with a skin: `SimRuntime` keeps one list per
probe kind (points, i.e. vertices then element centroids, and boundary
edges), taken by one batched box-overlap call with every probe box grown
by the skin on each side. Each detection runs only the exact box test on
the kept pairs, with the current boxes, and tests what passes with one
batched barycentric solve. A list is taken again once some vertex may
have moved far enough that a pair outside it could overlap
(`KeptPairs`), so the contacts, and their order, stay those of a fresh
walk, and so of testing one probe at a time.

The spring sweep is array code too, one update per dependency level. A
spring's level is one above the highest level among the earlier springs
(in (i, j) order) that share a vertex with it, so the springs of a level
share no vertex, and every spring that shares a vertex with a given one
and comes before it in (i, j) order sits in a lower level. Sweeping level
by level therefore reads and writes each vertex in the order of the
one-spring-at-a-time sweep in (i, j) order, with the same floating-point
operations, and moves every position bit for bit as that sweep does.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import geometry
from .bvh import BoundaryBvh, ElementBvh
from .errors import NumericalBlowup, ParseError
from .meshio import load_mesh
from .query import QueryConfig, shortest_path_to_boundary

ITERATIONS = 3  # material + collision projection sweeps per substep
# CONTACT_MARGIN and SKIN are relative to the scene's length scale, the
# median largest side of its element boxes (SimRuntime.length), so a scene
# scaled by a power of two moves as the unscaled one does, times the scale.
# projection targets c >= CONTACT_MARGIN * length; exactly-on-face points
# otherwise flicker in and out of the strict containment test
CONTACT_MARGIN = 2e-7
# kept candidate pairs are taken with every probe box grown by SKIN times
# the length scale (KeptPairs); a larger skin retakes less often but
# makes each retake walk costlier
SKIN = 0.05
EPS = np.finfo(float).eps
# every contact query runs with the default query settings
QUERY_CONFIG = QueryConfig()


@dataclass
class SimConfig:
    dt: float = 1e-2
    gravity: tuple = (0.0, 0.0, 0.0)
    collision_compliance: float = 0.0
    material_compliance: float = 0.0
    damping: float = 0.0  # scales velocities by (1 - damping); 1 = quasi-static

    def __post_init__(self):
        numbers = (
            self.dt, *self.gravity, self.collision_compliance, self.material_compliance,
            self.damping,
        )
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError("dt, gravity, the compliances and damping must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if min(self.collision_compliance, self.material_compliance) < 0:
            raise ValueError("the compliances must be >= 0")
        if not 0 <= self.damping <= 1:
            raise ValueError("damping must be in [0, 1]")


@dataclass
class CollisionConstraint:
    """One-sided plane constraint c(x) = (x - s) . n >= 0 on the point
    x = sum(w_i * x_i) over the scene's vertex rows: a single vertex with
    weight 1, an edge pair with the barycentric weights of its clipped-chord
    center, or a whole element with uniform weights for centroid contacts.
    """

    rows: tuple
    weights: tuple
    target_point: np.ndarray
    normal: np.ndarray

    def value(self, x):
        return float(np.dot(np.asarray(x, float) - self.target_point, self.normal))


@dataclass
class SimState:
    """Scene state: one or more meshes sharing a flat vertex arena, with
    their elements and boundary edges on global vertex ids. A mesh's vertices
    are its rows of `positions`; its derived geometry is from the last refit."""

    meshes: list
    positions: np.ndarray  # (n, dim) current
    velocities: np.ndarray
    inv_mass: np.ndarray  # (n,), >= 0; 0 pins a vertex
    offsets: np.ndarray  # mesh m owns rows [offsets[m], offsets[m+1])
    elements: np.ndarray  # (e, dim + 1) global vertex ids
    element_offsets: np.ndarray  # mesh m owns elements [element_offsets[m], element_offsets[m+1])
    boundary_edges: np.ndarray  # (b, 2) global vertex ids
    springs: np.ndarray  # (k, 2) global vertex ids, sorted by level
    rest_lengths: np.ndarray  # (k,)
    spring_levels: np.ndarray  # level l is springs[spring_levels[l]:spring_levels[l + 1]]
    substeps_done: int = 0

    @property
    def dim(self):
        return self.positions.shape[1]

    def mesh_slice(self, m):
        return slice(int(self.offsets[m]), int(self.offsets[m + 1]))

    def dump(self):
        """Diagnostic snapshot used by NumericalBlowup. A speed above the
        largest float reads inf, without a warning."""
        with np.errstate(over="ignore"):
            speeds = np.hypot.reduce(self.velocities, axis=1)
        return {
            "substeps_done": int(self.substeps_done),
            "n_nonfinite": int(np.count_nonzero(~np.isfinite(self.positions))),
            "max_speed": float(speeds.max(initial=0.0)),
        }


def _unique_edges(elements):
    """Every element edge once, as (lo, hi) vertex pairs in sorted order."""
    pairs = np.column_stack(np.triu_indices(elements.shape[1], 1))
    return np.unique(np.sort(elements[:, pairs].reshape(-1, 2), axis=1), axis=0)


def _spring_levels(springs, n_vertices):
    """Each spring's level in a sweep of the springs in row order: one
    above the highest level of the earlier springs sharing a vertex with
    it, starting from 0. The last spring to touch a vertex holds that
    vertex's highest level so far."""
    last = [-1] * n_vertices
    levels = []
    for i, j in springs.tolist():
        level = max(last[i], last[j]) + 1
        last[i] = last[j] = level
        levels.append(level)
    return np.array(levels, dtype=np.intp)


def make_state(meshes, masses=None):
    """Build a SimState whose positions each given mesh's vertices view
    from then on. Springs are every unique element edge at its current
    length, stably sorted by their level in a sweep in (i, j) order
    (`_spring_levels`). `masses` is an optional per-mesh list of
    per-vertex masses; default is unit mass. Raises ValueError for meshes
    of different dimensions or a mesh object listed twice."""
    dim = meshes[0].dim
    if any(mesh.dim != dim for mesh in meshes):
        raise ValueError("all meshes in a scene must share a dimension")
    if len({id(mesh) for mesh in meshes}) < len(meshes):
        raise ValueError("a mesh object can appear only once in a scene")
    offsets = np.cumsum([0] + [mesh.n_vertices for mesh in meshes])
    positions = np.concatenate([mesh.vertices for mesh in meshes])
    mass = np.concatenate([
        np.broadcast_to(np.asarray(1.0 if m is None else m, dtype=float), mesh.n_vertices)
        for mesh, m in zip(meshes, [None] * len(meshes) if masses is None else masses)
    ])
    inv_mass = np.where(mass > 0, 1.0 / np.where(mass > 0, mass, 1), 0.0)

    def arena(rows):  # per-mesh rows of vertex ids, on global vertex ids
        return np.concatenate([r + base for r, base in zip(rows, offsets)])

    elements = arena([mesh.elements for mesh in meshes])
    springs = arena([_unique_edges(mesh.elements) for mesh in meshes])
    rest = np.linalg.norm(positions[springs[:, 0]] - positions[springs[:, 1]], axis=1)
    levels = _spring_levels(springs, len(positions))
    order = np.argsort(levels, kind="stable")
    for mesh, lo, hi in zip(meshes, offsets, offsets[1:]):
        mesh.set_vertices(positions[lo:hi])  # contiguous rows: a view, not a copy
    return SimState(
        meshes=list(meshes),
        positions=positions,
        velocities=np.zeros_like(positions),
        inv_mass=inv_mass,
        offsets=offsets,
        elements=elements,
        element_offsets=np.cumsum([0] + [mesh.n_elements for mesh in meshes]),
        boundary_edges=arena([mesh.boundary_edges for mesh in meshes]),
        springs=springs[order],
        rest_lengths=rest[order],
        spring_levels=np.concatenate([[0], np.cumsum(np.bincount(levels))]),
    )


def _owner(offsets, ids):
    """The mesh that owns each global id, and the id within that mesh,
    from the per-mesh id offsets."""
    m = np.searchsorted(offsets, ids, side="right") - 1
    return m, ids - offsets[m]


class KeptPairs:
    """The candidate (probe, element) pairs of one probe kind, kept across
    detections: a neighbour list with a skin (Verlet 1967).

    A take is one box-overlap walk of the element tree with every probe
    box grown by `skin` on each side. It drops the pairs whose probe
    shares a vertex with the element, which is topology and so done once
    per take, keeps the rest in the walk's (probe, element) order, and
    records the positions it was taken at. Skip flags change with the
    positions, so the list ignores them.

    The list is taken again when 2 m + 64 eps (max|x| + skin) > skin,
    where m = max |x - x_taken| over all coordinates and x is the current
    positions. While it is not, the list holds every pair whose current
    boxes overlap: a min, a max and an average of vertex coordinates each
    move by at most m when every vertex does, so every probe box and
    element box has moved by at most m per side since the take, and a
    pair that overlaps now was within 2 m <= skin of overlapping then.
    The allowance covers the rounding of the grown corners, of the
    centroid means at both times and of m itself, each a few eps
    (max|x| + skin). Far from the origin the allowance exceeds the skin
    and every detection takes the list again, so the pairs stay exact at
    any offset."""

    def __init__(self, skin):
        self.skin = skin
        self.taken_at = None  # positions at the last take
        self.probe = self.element = None
        self.retaken = False  # whether the last detection took the list
        self.tested = 0  # kept pairs the last detection's exact box test ran on

    def _stale(self, x):
        if self.taken_at is None:
            return True
        moved = np.abs(x - self.taken_at).max(initial=0.0)
        allowance = 64.0 * EPS * (np.abs(x).max(initial=0.0) + self.skin)
        return bool(2.0 * moved + allowance > self.skin)

    def candidates(self, state, elem_bvh, lo, hi, probe_ids, n_probes):
        """Candidate pairs among the first n_probes probes, exactly those of
        a fresh box-overlap walk. Probe k has the box [lo[k], hi[k]] and
        owns the global vertex ids in row k of probe_ids; elem_bvh must be
        refit to the current positions. Elements that are skipped or share
        a vertex with the probe are dropped. Returns the pairs sorted by
        probe, then by global element id, i.e. (target mesh, element id),
        and each element's vertex positions."""
        self.retaken = self._stale(state.positions)
        if self.retaken:
            probe, e = elem_bvh.tree.box_overlap(lo - self.skin, hi + self.skin)
            shared = state.elements[e][:, :, None] == probe_ids[probe][:, None, :]
            keep = ~shared.any(axis=(1, 2))
            self.probe, self.element = probe[keep], e[keep]
            self.taken_at = state.positions.copy()
        stop = np.searchsorted(self.probe, n_probes)
        probe, e = self.probe[:stop], self.element[:stop]
        self.tested = int(stop)
        # the exact test of box_overlap on each pair; touching overlaps
        boxes = elem_bvh.boxes[e]
        miss = np.any(boxes[:, 0] > hi[probe], axis=1) | np.any(boxes[:, 1] < lo[probe], axis=1)
        skipped = np.concatenate([mesh.skipped_flags for mesh in state.meshes])[e]
        keep = ~miss & ~skipped
        probe, e = probe[keep], e[keep]
        return probe, e, state.positions[state.elements[e]]


def dcd_vertex_tet(state, runtime, include_centroids=False):
    """Vertex-vs-element discrete collision detection across all mesh
    pairs, self-pairs included. Returns a list of contact records
    (subject mesh, vertex ids tuple, weights, point, target mesh, element),
    with mesh-local vertex and element ids.

    A vertex counts only when strictly inside (all barycentric coordinates
    positive) a non-skipped element it is not incident to. With
    include_centroids, element centroids join the probe set; their
    correction spreads uniformly over the element's vertices.

    All probes are tested as one batch: the runtime's kept point pairs
    (vertices, then centroids, whichever are asked for), then one batched
    barycentric solve over every candidate pair. Contacts come in subject
    mesh order, then probe order (the mesh's vertices, then its
    centroids), then target mesh, then element id. The runtime must be
    refit to the current positions.
    """
    n = len(state.positions)
    points = np.concatenate([state.positions, state.positions[state.elements].mean(axis=1)])
    probe_ids = np.concatenate(
        [np.repeat(np.arange(n)[:, None], state.dim + 1, axis=1), state.elements]
    )
    probe, e, verts = runtime.point_pairs.candidates(
        state, runtime.elem_bvh, points, points, probe_ids,
        len(points) if include_centroids else n,
    )
    b = geometry.barycentric_coords(points[probe], verts)
    inside = np.all(np.isfinite(b) & (b > 0.0), axis=1)
    probe, e = probe[inside], e[inside]
    # a probe's first vertex names its mesh; the stable sort keeps (probe,
    # target mesh, element id) order within a subject mesh
    ma = _owner(state.offsets, probe_ids[probe, 0])[0]
    order = np.argsort(ma, kind="stable")
    probe, ma, e = probe[order], ma[order], e[order]
    mb, e = _owner(state.element_offsets, e)
    local = (probe_ids[probe] - state.offsets[ma][:, None]).tolist()
    contacts = []
    for k, a, v, m, el in zip(probe.tolist(), ma.tolist(), local, mb.tolist(), e.tolist()):
        ids = tuple(v[:1] if k < n else v)
        contacts.append((a, ids, (1.0 / len(ids),) * len(ids), points[k], m, el))
    return contacts


def _chord_spans(ba, bb):
    """Parameter interval [t0, t1] of each segment a->b inside its element,
    from the barycentric coordinates of its ends, and whether the segment
    crosses the element at all. Each coordinate c(t) = ba + t (bb - ba)
    must stay >= 0: a rising one raises t0, a falling one lowers t1, and
    a flat one (|bb - ba| < 1e-300) must be nonnegative already."""
    dc = bb - ba
    flat = np.abs(dc) < 1e-300
    # a crossing parameter that overflows lies outside [0, 1], as its
    # true value does, so it reads as the infinity it rounds to
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_cross = -ba / dc
    t0 = np.max(np.where(~flat & (dc > 0), t_cross, 0.0), axis=1)
    t1 = np.min(np.where(~flat & (dc < 0), t_cross, 1.0), axis=1)
    finite = np.all(np.isfinite(ba) & np.isfinite(bb), axis=1)
    crosses = finite & ~np.any(flat & (ba < 0), axis=1) & (t0 < t1)
    return t0, t1, crosses


def dcd_edge_tet(state, runtime):
    """Boundary-edge-vs-element discrete collision detection. For each
    boundary edge clipped by a non-incident element, records the midpoint
    of the clipped chord; if several elements intersect one edge, only the
    chord center nearest the edge midpoint is kept, the first in (target
    mesh, element id) on a tie. Chords of 1e-12 or less in parameter
    length are ignored. Returns contact records shaped like
    dcd_vertex_tet's, with the chord center's barycentric weights on the
    edge endpoints, in subject mesh order, then boundary-edge order.

    All meshes' boundary edges are tested as one batch: the runtime's kept
    edge pairs, then every (edge, element) pair is clipped at once. The
    runtime must be refit to the current positions.
    """
    edges = state.boundary_edges
    a, b = state.positions[edges[:, 0]], state.positions[edges[:, 1]]
    edge, e, verts = runtime.edge_pairs.candidates(
        state, runtime.elem_bvh, np.minimum(a, b), np.maximum(a, b), edges, len(edges)
    )
    ba = geometry.barycentric_coords(a[edge], verts)
    bb = geometry.barycentric_coords(b[edge], verts)
    t0, t1, crosses = _chord_spans(ba, bb)
    keep = crosses & (t1 - t0 > 1e-12)
    edge, e, t_mid = edge[keep], e[keep], 0.5 * (t0[keep] + t1[keep])
    # per edge, the chord center nearest the edge midpoint; the stable
    # sort leaves ties in (target mesh, element id)
    order = np.lexsort((np.abs(t_mid - 0.5), edge))
    best = order[np.unique(edge[order], return_index=True)[1]]
    edge, e, t_mid = edge[best], e[best], t_mid[best]
    points = a[edge] + t_mid[:, None] * (b[edge] - a[edge])
    ma = _owner(state.offsets, edges[edge, 0])[0]
    mb, e = _owner(state.element_offsets, e)
    local = (edges[edge] - state.offsets[ma][:, None]).tolist()
    return [
        (m_a, tuple(v), (1.0 - t, t), point, m_b, el)
        for m_a, v, m_b, el, t, point in zip(
            ma.tolist(), local, mb.tolist(), e.tolist(), t_mid.tolist(), points
        )
    ]


@dataclass
class ContactLogEntry:
    """What one substep's detection found: its contacts, the constraints
    built from them, the inverted elements of the scene at detection, the
    contacts whose query returned None and so built no constraint, whether
    either kept candidate list was taken again, and how many kept pairs
    the exact box test ran on."""

    substep: int
    n_constraints: int
    max_penetration: float
    n_vertex_contacts: int
    n_edge_contacts: int
    n_inverted_elements: int
    n_queries_none: int
    query_elements_visited: int
    query_candidates: int
    pairs_retaken: bool
    pairs_tested: int

    def as_dict(self):
        return {
            "substep": self.substep,
            "constraint_count": self.n_constraints,
            "max_penetration_depth": self.max_penetration,
            "vertex_contacts": self.n_vertex_contacts,
            "edge_contacts": self.n_edge_contacts,
            "inverted_elements": self.n_inverted_elements,
            "query_stats": {
                "elements_visited": self.query_elements_visited,
                "candidates_tested": self.query_candidates,
                "no_path": self.n_queries_none,
            },
            "candidate_pairs": {"retaken": self.pairs_retaken, "tested": self.pairs_tested},
        }


class SimRuntime:
    """Owns the trees across substeps: one element tree over every element
    of the scene, for collision detection, and one boundary tree per mesh,
    for the queries. Refits (never rebuilds) on vertex motion. The
    config argument is not read. Each detection runs `refit` first, the
    one place that refreshes the meshes' derived geometry.

    It also keeps the collision candidate pairs between detections, one
    `KeptPairs` list for the point probes (vertices, then element
    centroids) and one for the boundary edges. Their skin is SKIN times
    the scene's length scale, `length`: the median largest side of the
    element boxes at construction. The contact margin, `margin`, is
    CONTACT_MARGIN times the same length. A
    detection walks the element tree only when its list is taken again:
    at the first detection, and once some vertex has moved far enough
    that a pair outside the list could overlap; otherwise it runs the
    exact box test on the kept pairs. Either way the candidates, and so
    the contacts and their order, are those of a fresh walk."""

    def __init__(self, state, config):
        self.elem_bvh = ElementBvh(state.positions, state.elements)
        self.boundary_bvhs = [BoundaryBvh(mesh) for mesh in state.meshes]
        sides = (self.elem_bvh.boxes[:, 1] - self.elem_bvh.boxes[:, 0]).max(axis=1)
        self.length = float(np.median(sides))
        self.margin = CONTACT_MARGIN * self.length
        self.point_pairs = KeptPairs(SKIN * self.length)
        self.edge_pairs = KeptPairs(SKIN * self.length)

    def refit(self, state):
        self.elem_bvh.refit(state.positions)
        for m, (mesh, bvh) in enumerate(zip(state.meshes, self.boundary_bvhs)):
            mesh.set_vertices(state.positions[state.mesh_slice(m)])
            bvh.refit(mesh)


def _build_constraints(state, runtime):
    """DCD + shortest-path queries -> collision constraints, once per
    substep, with the substep's ContactLogEntry. Element centroids join
    the vertex probes. Each constraint is anchored at the query's boundary
    point, with the pseudo-normal of its boundary feature. Contacts whose
    query comes back empty (no valid path, query point in a skipped
    element) produce no constraint."""
    vertex_contacts = dcd_vertex_tet(state, runtime, include_centroids=True)
    edge_contacts = dcd_edge_tet(state, runtime)
    constraints = []
    entry = ContactLogEntry(
        substep=state.substeps_done + 1,
        n_constraints=0,
        max_penetration=0.0,
        n_vertex_contacts=len(vertex_contacts),
        n_edge_contacts=len(edge_contacts),
        n_inverted_elements=sum(int(np.count_nonzero(m.inverted_flags)) for m in state.meshes),
        n_queries_none=0,
        query_elements_visited=0,
        query_candidates=0,
        pairs_retaken=runtime.point_pairs.retaken or runtime.edge_pairs.retaken,
        pairs_tested=runtime.point_pairs.tested + runtime.edge_pairs.tested,
    )
    for ma, ids, w, point, mb, e in vertex_contacts + edge_contacts:
        # a self-collision vertex probe sits on its own boundary: exclude
        # the vertex's zero-distance faces from candidacy
        res = shortest_path_to_boundary(
            state.meshes[mb],
            runtime.boundary_bvhs[mb],
            point,
            p_element=e,
            config=QUERY_CONFIG,
            exclude_vertex=int(ids[0]) if ma == mb and len(ids) == 1 else None,
        )
        if res is None:
            entry.n_queries_none += 1
            continue
        entry.query_elements_visited += res.elements_visited
        entry.query_candidates += res.bvh_candidates_tested
        base = int(state.offsets[ma])
        con = CollisionConstraint(
            rows=tuple(base + v for v in ids),
            weights=w,
            target_point=np.asarray(res.point, dtype=float),
            normal=state.meshes[mb].pseudo_normal(res.feature),
        )
        entry.max_penetration = max(entry.max_penetration, -con.value(point))
        constraints.append(con)
    entry.n_constraints = len(constraints)
    return constraints, entry


def _project_springs(state, config, dt):
    """One sweep of the distance constraints, one array update per level
    of state.spring_levels (see the module docstring). A spring of zero
    total inverse mass or of length below 1e-14 moves nothing."""
    alpha = config.material_compliance / (dt * dt)
    x = state.positions
    w = state.inv_mass[state.springs]
    denom = w[:, 0] + w[:, 1]
    moves = denom != 0.0
    denom += alpha
    # x[i] += (w_i dlam) grad and x[j] -= (w_j dlam) grad, the latter as the
    # exactly equal x[j] += (-w_j dlam) grad
    w *= [1.0, -1.0]
    bounds = state.spring_levels.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        ij, rows = state.springs[lo:hi], slice(lo, hi)
        xij = x[ij]
        d = xij[:, 0] - xij[:, 1]
        # a stacked matmul takes each row's dot as `d @ d` does, where
        # einsum or a sum of products can round differently
        dist = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
        keep = moves[rows] & ~(dist < 1e-14)
        if not keep.all():
            rows = np.flatnonzero(keep) + lo
            ij, xij, d, dist = ij[keep], xij[keep], d[keep], dist[keep]
        dlam = -(dist - state.rest_lengths[rows]) / denom[rows]
        x[ij] = xij + (w[rows] * dlam[:, None])[:, :, None] * (d / dist[:, None])[:, None, :]


def _project_collisions(state, constraints, alpha, margin):
    """One sweep pushing each constrained point to c >= margin, with
    alpha = compliance / dt^2."""
    x = state.positions
    w = state.inv_mass
    for con in constraints:
        pairs = list(zip(con.weights, con.rows))
        pt = sum(wt * x[r] for wt, r in pairs)
        c = float(np.dot(pt - con.target_point, con.normal))
        if c >= margin:
            continue  # one-sided: only penetration is corrected
        denom = sum(wt * wt * w[r] for wt, r in pairs)
        if denom == 0.0:
            continue
        dlam = (margin - c) / (denom + alpha)
        for wt, r in pairs:
            x[r] += w[r] * wt * dlam * con.normal


def xpbd_substep(state, config, runtime):
    """One substep: predict, refit the runtime's trees, detect/build
    constraints once, then ITERATIONS sweeps of springs followed by
    collision projections, then velocity update. Returns (state,
    ContactLogEntry). Raises NumericalBlowup with a diagnostic dump if
    positions go non-finite or any arithmetic of the substep overflows;
    an overflow ends the substep where it happens, without a warning."""
    dt = config.dt
    g = np.asarray(config.gravity, dtype=float)[: state.dim]
    substep = state.substeps_done + 1
    try:
        with np.errstate(over="raise"):
            prev = state.positions.copy()
            movable = state.inv_mass > 0
            state.velocities[movable] += dt * g
            state.positions[movable] += dt * state.velocities[movable]
            # the meshes reject non-finite positions, so check before they
            # take them
            if not np.all(np.isfinite(state.positions)):
                raise NumericalBlowup(
                    f"non-finite predicted positions in substep {substep}",
                    state_dump=state.dump(),
                )

            runtime.refit(state)
            constraints, entry = _build_constraints(state, runtime)

            alpha = config.collision_compliance / (dt * dt)
            for _ in range(ITERATIONS):
                _project_springs(state, config, dt)
                _project_collisions(state, constraints, alpha, runtime.margin)

            state.velocities[:] = (state.positions - prev) / dt
            if config.damping:
                state.velocities *= 1.0 - config.damping
    except FloatingPointError as exc:
        raise NumericalBlowup(
            f"non-finite values in substep {substep} ({exc})", state_dump=state.dump()
        ) from exc
    state.substeps_done = substep
    if not np.all(np.isfinite(state.positions)):
        raise NumericalBlowup(
            f"non-finite positions after substep {substep}", state_dump=state.dump()
        )
    return state, entry


def run_sim(state, config, n_substeps, runtime, log=None):
    """Advance n_substeps in place; appends ContactLogEntry records to
    `log` (a list) when given."""
    for _ in range(n_substeps):
        state, entry = xpbd_substep(state, config, runtime)
        if log is not None:
            log.append(entry)


def count_penetrations(state, runtime):
    """Current number of vertex-inside-foreign-element incidences; the
    recovery criterion drives this to zero. It reads the runtime's kept
    point pairs, those of the first n (vertex) probes."""
    runtime.refit(state)
    return len(dcd_vertex_tet(state, runtime))


def _config(doc, path, dim):
    """SimConfig(**doc) for a JSON object of SimConfig's fields, in a scene
    of dim-dimensional meshes. Raises ParseError for a non-object, an
    unknown key, a gravity that is not a list of dim finite numbers, or a
    value that SimConfig rejects."""
    if not isinstance(doc, dict):
        raise ParseError(path, 0, '"config" must be an object')
    unknown = sorted(set(doc) - {f.name for f in fields(SimConfig)})
    if unknown:
        raise ParseError(path, 0, f"unknown config keys: {', '.join(unknown)}")
    kwargs = dict(doc)
    try:
        if "gravity" in kwargs:
            g = kwargs["gravity"]
            if not isinstance(g, list) or len(g) != dim:
                raise ValueError(f"gravity must be a list of {dim} numbers for a {dim}D scene")
            kwargs["gravity"] = tuple(_finite(x, "a gravity entry") for x in g)
        return SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, 0, f"bad config: {exc}") from exc


def _finite(value, what):
    """A JSON number as a float. Raises ValueError for any other value,
    nan and infinities included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _place(mesh, spec):
    """Scale, then translate, a scene entry's mesh in place; returns its
    per-vertex masses, or None for unit mass. Raises ValueError for an
    unknown key, a bad value, or placed coordinates whose element or face
    geometry overflows."""
    unknown = sorted(set(spec) - {"path", "translate", "scale", "mass"})
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(unknown)}")
    scale = _finite(spec.get("scale", 1.0), "scale")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    translate = spec.get("translate", [0.0] * mesh.dim)
    if not isinstance(translate, list) or len(translate) != mesh.dim:
        raise ValueError(f"translate must be a list of {mesh.dim} numbers for a {mesh.dim}D mesh")
    # coordinates whose volumes, normals or their lengths overflow would
    # make every substep warn and work on infinite volumes or zero normals
    try:
        with np.errstate(over="raise"):
            mesh.set_vertices(mesh.vertices * scale + [_finite(x, "translate") for x in translate])
    except FloatingPointError:
        raise ValueError(f"scale {scale:g} overflows the placed mesh's geometry") from None
    mass = spec.get("mass")
    if mass is None:
        return None
    if _finite(mass, "mass") < 0.0:
        raise ValueError(f"mass must be >= 0, got {mass}")
    return np.full(mesh.n_vertices, float(mass))


def load_scene(path):
    """JSON scene: {"meshes": [{"path", "translate"?, "scale"?,
    "mass"?}], "config": {SimConfig fields}}, with one gravity entry per
    coordinate of the meshes. Returns (state, config). Raises ParseError
    for a document of another shape, an unknown key in a mesh entry or in
    the config, a value that a mesh entry or SimConfig rejects, or meshes
    of different dimensions."""
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
    config = _config(doc.get("config", {}), path, meshes[0].dim)
    return make_state(meshes, masses), config
