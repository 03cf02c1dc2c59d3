"""Robust topological ray traversal.

Decides whether the straight segment from a boundary point to an interior
point is covered by a chain of face-adjacent elements. The search runs over
(element, entry face) states, the same state the brute-force oracle keeps:
from the boundary face's owner it steps through every face the ray may exit
by into the neighbour's state, and the segment is valid when some reachable
state's element contains the interior point. Numerical ties near
vertices/edges branch into several exit faces instead of failing; each state
is entered at most once, which cuts loops; an optional backward mode handles
inverted interior elements.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import ZeroLengthSegment
from .mesh import BOUNDARY, local_faces

# A backward traversal drops branches whose face crossing lies farther from
# the boundary point than this many segment lengths.
CUTOFF_FACTOR = 2.0


@dataclass(frozen=True)
class RayFrame:
    """Ray origin plus an orthonormal frame, all as tuples of Python
    floats: uv holds the dim - 1 unit vectors that span the plane
    perpendicular to the ray direction."""

    origin: tuple
    direction: tuple
    length: float  # |target - origin|
    uv: tuple


def make_ray_frame(origin, target):
    origin = tuple(np.asarray(origin, dtype=float).tolist())
    delta = geometry.sub(np.asarray(target, dtype=float).tolist(), origin)
    length = math.hypot(*delta)
    if length <= 1e-14:
        raise ZeroLengthSegment("origin and target coincide")
    d = tuple(x / length for x in delta)
    if len(d) == 3:
        uv = geometry.orthonormal_basis(d)
    else:
        uv = (geometry.perpendicular_2d(d),)
    return RayFrame(origin=origin, direction=d, length=length, uv=uv)


@dataclass
class TraversalConfig:
    epsilon_i: float = 1e-10
    allow_backward: bool = False
    intersection_free_early_out: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.epsilon_i) and self.epsilon_i >= 0.0):
            raise ValueError("epsilon_i must be finite and >= 0")


@dataclass
class TraversalScratch:
    """Caller-owned holder of the last traversal's trace. With a trace
    list, each traversal clears it and records every state it takes; with
    the default None, nothing is recorded. The traversal reads the config
    passed with each call, not this one."""

    config: TraversalConfig = field(default_factory=TraversalConfig)
    trace: list | None = None


@dataclass
class TraversalResult:
    valid: bool
    reason: str  # 'reached' | 'hit_boundary' | 'exhausted'
    end_element: int = -1
    elements_visited: int = 0
    steps: int = 0
    loop_events: int = 0
    budget_breached: bool = False


def exit_face_selection(mesh, element, in_local, frame, epsilon_i):
    """Local indices of the faces the ray may exit through, given that it
    entered `element` through local face `in_local`.

    The element's vertices, read with one tolist, are projected to the
    plane perpendicular to the ray, and the sign tests run on the
    projections, all on Python floats. They use the orientation sign of
    the projected incoming face, so they stay correct for inverted
    elements and backward rays. With the tolerance, several faces can
    pass near vertices/edges; an empty set signals numerical starvation.
    """
    order = local_faces(mesh.dim)[in_local]
    verts = mesh.vertices.take(mesh.elements[element], axis=0).tolist()
    eps = epsilon_i
    if mesh.dim == 3:
        o0, o1, o2 = frame.origin
        (u0, u1, u2), (v0, v1, v2) = frame.uv
        proj = [
            (
                (x0 - o0) * u0 + (x1 - o1) * u1 + (x2 - o2) * u2,
                (x0 - o0) * v0 + (x1 - o1) * v1 + (x2 - o2) * v2,
            )
            for x0, x1, x2 in verts
        ]
        i, j, k = order
        a0, a1 = proj[i]
        b0, b1 = proj[j]
        c0, c1 = proj[k]
        x, y = proj[in_local]  # the vertex opposite the entry face
        det = (b0 - a0) * (c1 - a1) - (b1 - a1) * (c0 - a0)
        if abs(det) <= eps:
            # the entry face projects to a (near-)degenerate triangle: the
            # ray grazes along its plane (e.g. a path hugging a flat
            # boundary patch). The side tests below would inherit an
            # arbitrary roundoff sign, so branch into every face instead.
            return list(order)
        sgn = 1.0 if det > 0.0 else -1.0
        d0 = sgn * (x * a1 - y * a0)
        d1 = sgn * (x * b1 - y * b0)
        d2 = sgn * (x * c1 - y * c0)
        out = []
        if d1 >= -eps and d2 <= eps:
            out.append(order[0])  # face opposite incoming vertex 0
        if d2 >= -eps and d0 <= eps:
            out.append(order[1])
        if d0 >= -eps and d1 <= eps:
            out.append(order[2])
        return out
    (o0, o1), ((u0, u1),) = frame.origin, frame.uv
    proj = [(x0 - o0) * u0 + (x1 - o1) * u1 for x0, x1 in verts]
    p0, p1, p2 = proj[order[0]], proj[order[1]], proj[in_local]
    # the ray projects to the origin; an edge is a possible exit when its
    # projected interval contains it. Interval containment (rather than a
    # side test against p2 alone) keeps the vertex-tie branches when the
    # ray passes through an endpoint of the incoming edge.
    out = []
    if min(p1, p2) <= eps and max(p1, p2) >= -eps:
        out.append(order[0])  # edge opposite incoming vertex 0
    if min(p0, p2) <= eps and max(p0, p2) >= -eps:
        out.append(order[1])
    return out


def _crossing_parameter(mesh, element, lf, frame):
    """Ray parameter where the ray line crosses the plane of a face, on
    Python floats.

    Falls back to the projection of the face centroid for near-parallel
    faces; only used for cutoffs and trace output, never for validity."""
    face = mesh.elements[element][list(local_faces(mesh.dim)[lf])]
    pts = mesh.vertices[face].tolist()
    if mesh.dim == 3:
        n = geometry.triangle_area_normal(*pts)
    else:
        n = geometry.edge_outward_normal_2d(*pts)
    dot, d = geometry.dot, frame.direction
    denom = dot(n, d)
    if abs(denom) <= 1e-14 * max(math.sqrt(dot(n, n)), 1.0):
        centroid = [sum(c) / len(pts) for c in zip(*pts)]
        return dot(geometry.sub(centroid, frame.origin), d)
    return dot(n, geometry.sub(pts[0], frame.origin)) / denom


def is_valid_path(mesh, s, start_face, p, config=None, scratch=None):
    """Whether the segment from boundary point s (on boundary face
    `start_face`) to p is a valid path. Traversal always launches from the
    boundary end. Raises ZeroLengthSegment when s and p coincide."""
    if config is None:
        config = TraversalConfig()
    return _traverse(mesh, s, start_face, p, config, scratch, config.allow_backward)


def is_valid_path_inverted(mesh, s, start_face, p, config=None, scratch=None):
    """Backward-enabled variant for meshes with inverted interior elements.

    It traverses backward whatever config.allow_backward says. Callers
    never start from an inverted boundary element (those are skipped as
    candidates)."""
    if config is None:
        config = TraversalConfig()
    return _traverse(mesh, s, start_face, p, config, scratch, True)


def _traverse(mesh, s, start_face, p, config, scratch, backward):
    frame = make_ray_frame(s, p)
    p = np.asarray(p, dtype=float).tolist()
    eps = config.epsilon_i
    adjacency = mesh.adjacency
    adj_local = mesh.adj_local
    trace = None if scratch is None else scratch.trace
    if trace is not None:
        trace.clear()
    # A branch dies when its face crossing lies farther from s than `reach`.
    # Under the no-intersection assumption a branch running behind the
    # origin is just as dead, so the test is on |t|, not on signed t.
    if backward:
        reach = CUTOFF_FACTOR * frame.length
    elif config.intersection_free_early_out:
        reach = frame.length
    else:
        reach = math.inf
    measure = trace is not None or reach < math.inf

    # Each (element, entry face) state is pushed at most once, with the ray
    # parameter of its entry face; the start state enters through the
    # boundary face at t = 0.
    start = (int(mesh.boundary_owner[start_face]), int(mesh.boundary_owner_local[start_face]))
    stack = [(start, 0.0)]
    visited = {start}
    # Faces per element bounds legitimate work; the extra factor absorbs
    # branching near ties before the breach flag trips.
    budget = max(8 * mesh.n_elements * (mesh.dim + 1), 256)
    steps = 0
    loops = 0
    hit_boundary = False

    while stack:
        (e, k), t = stack.pop()
        if trace is not None:
            trace.append((e, k, t, len(stack)))
        if mesh.element_contains(e, p, eps):
            return TraversalResult(True, "reached", e, len(visited), steps, loops)
        exits = exit_face_selection(mesh, e, k, frame, eps)
        steps += len(exits)
        if steps > budget:
            return TraversalResult(
                False, "exhausted", -1, len(visited), steps, loops, budget_breached=True
            )
        for lf in exits:
            nb = int(adjacency[e, lf])
            if nb == BOUNDARY:
                # the branch exits the mesh; tie branches may still reach p
                hit_boundary = True
                continue
            state = (nb, int(adj_local[e, lf]))
            if state in visited:
                loops += 1
                continue
            t = _crossing_parameter(mesh, e, lf, frame) if measure else 0.0
            if abs(t) > reach:
                continue
            visited.add(state)
            stack.append((state, t))

    reason = "hit_boundary" if hit_boundary else "exhausted"
    return TraversalResult(False, reason, -1, len(visited), steps, loops)


def format_trace(trace):
    """The trace as text lines, one per state in the order the search took
    them: element, entry face, ray parameter of the entry face (0 for the
    start state) and depth, the number of states still pending."""
    return [f"element={e} entry_face={f} t={t:.17g} depth={d}" for e, f, t, d in trace]
