"""Robust topological ray traversal.

Decides whether the straight segment from a boundary point to an interior
point is covered by a chain of face-adjacent elements. The search runs over
(element, entry face) states, the same state the brute-force oracle keeps:
from the boundary face's owner it steps through every face the ray may exit
by into the neighbour's state, and the segment is valid when some reachable
state's element contains the interior point. Numerical ties near
vertices/edges branch into several exit faces instead of failing; each state
is entered at most once, which cuts loops and bounds the work: a mesh has
(dim + 1) * n_elements states, each with at most dim exit faces, so a
traversal examines at most dim * (dim + 1) * n_elements exit faces and
stops when its states run out.

One rule bounds the reach: a branch dies when its entry face crosses the
ray line farther than CUTOFF_FACTOR segment lengths from the boundary
point, on either side (one length with `intersection_free_early_out`).
The exit test follows the ray *line*, so a branch may run backward through
inverted elements, as the paper's robust traversal does. Where no element
is skipped (inverted or degenerate) the verdict is that of the unbounded
walk: an element of positive volume is left by a face farther along the
line than its entry face, so a branch's entry parameters only grow from 0,
and a branch entered beyond the interior point never contains it.

A visited element is read once: its vertex coordinates, taken with one
numpy take, feed the containment test (`mesh.bary_inside`), the exit test
(`exit_faces`) and the crossing parameters of the faces it pushes.
Barycentric rows and adjacency are read through flat memoryviews, made per
traversal, and the query point is turned into floats once. The crossing
parameters' dot products are written out and summed left to right, so they
round alike on every Python version (sum() of floats is compensated from
Python 3.12 on).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import ZeroLengthSegment
from .mesh import BOUNDARY, LOCAL_FACES_2D, LOCAL_FACES_3D, bary_inside, local_faces

# A traversal drops branches whose face crossing lies farther from the
# boundary point than this many segment lengths.
CUTOFF_FACTOR = 2.0


class RayFrame(NamedTuple):
    """Ray origin plus an orthonormal frame, all as tuples of Python
    floats: uv holds the dim - 1 unit vectors that span the plane
    perpendicular to the ray direction. A named tuple, which one
    traversal makes in a fraction of a frozen dataclass's time."""

    origin: tuple
    direction: tuple
    length: float  # |target - origin|
    uv: tuple


def make_ray_frame(origin, target):
    origin = tuple(np.asarray(origin, dtype=float).tolist())
    delta = [t - o for t, o in zip(np.asarray(target, dtype=float).tolist(), origin)]
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


def exit_face_selection(mesh, element, in_local, frame, epsilon_i):
    """Local indices of the faces the ray may exit through, given that it
    entered `element` through local face `in_local` (exit_faces on the
    element's vertices, read with one tolist)."""
    verts = mesh.vertices.take(mesh.elements[element], axis=0).tolist()
    return exit_faces(verts, in_local, frame, epsilon_i)


def exit_faces(verts, in_local, frame, epsilon_i):
    """The exit test of the traversal: local indices of the faces the ray
    may exit through, for an element with vertex coordinates `verts` (float
    sequences, in element order) entered through local face `in_local`.

    The vertices are projected to the plane perpendicular to the ray, and
    the sign tests run on the projections, all on Python floats. They use
    the orientation sign of the projected incoming face, so they stay
    correct for inverted elements and backward rays. With the tolerance,
    several faces can pass near vertices/edges; an empty set signals
    numerical starvation.
    """
    eps = epsilon_i
    if len(verts) == 4:
        order = LOCAL_FACES_3D[in_local]
        o0, o1, o2 = frame.origin
        (u0, u1, u2), (v0, v1, v2) = frame.uv
        i, j, k = order
        # the entry face's vertices a, b, c and the opposite one, x,
        # projected
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (x0, x1, x2) = (
            verts[i], verts[j], verts[k], verts[in_local]
        )
        a0, a1, a2 = a0 - o0, a1 - o1, a2 - o2
        a0, a1 = a0 * u0 + a1 * u1 + a2 * u2, a0 * v0 + a1 * v1 + a2 * v2
        b0, b1, b2 = b0 - o0, b1 - o1, b2 - o2
        b0, b1 = b0 * u0 + b1 * u1 + b2 * u2, b0 * v0 + b1 * v1 + b2 * v2
        c0, c1, c2 = c0 - o0, c1 - o1, c2 - o2
        c0, c1 = c0 * u0 + c1 * u1 + c2 * u2, c0 * v0 + c1 * v1 + c2 * v2
        x0, x1, x2 = x0 - o0, x1 - o1, x2 - o2
        x, y = x0 * u0 + x1 * u1 + x2 * u2, x0 * v0 + x1 * v1 + x2 * v2
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
    order = LOCAL_FACES_2D[in_local]
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


def _crossing_parameter(pts, frame):
    """Ray parameter where the ray line crosses the plane of a face with
    vertex coordinates `pts` (float sequences), on Python floats, each dot
    product written out and summed left to right.

    Falls back to the projection of the face centroid for faces whose
    plane the ray's direction meets at a cosine of at most 1e-14, a test
    that reads the same at any mesh scale. Feeds the reach cut and the
    trace only; the exit and containment tests decide validity."""
    if len(pts) == 3:
        n0, n1, n2 = geometry.triangle_area_normal(*pts)
        (d0, d1, d2), (o0, o1, o2) = frame.direction, frame.origin
        denom = n0 * d0 + n1 * d1 + n2 * d2
        if abs(denom) > 1e-14 * math.sqrt(n0 * n0 + n1 * n1 + n2 * n2):
            a0, a1, a2 = pts[0]
            return (n0 * (a0 - o0) + n1 * (a1 - o1) + n2 * (a2 - o2)) / denom
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = pts
        m0, m1, m2 = (a0 + b0 + c0) / 3, (a1 + b1 + c1) / 3, (a2 + b2 + c2) / 3
        return (m0 - o0) * d0 + (m1 - o1) * d1 + (m2 - o2) * d2
    n0, n1 = geometry.edge_outward_normal_2d(*pts)
    (d0, d1), (o0, o1) = frame.direction, frame.origin
    denom = n0 * d0 + n1 * d1
    if abs(denom) > 1e-14 * math.sqrt(n0 * n0 + n1 * n1):
        a0, a1 = pts[0]
        return (n0 * (a0 - o0) + n1 * (a1 - o1)) / denom
    (a0, a1), (b0, b1) = pts
    m0, m1 = (a0 + b0) / 2, (a1 + b1) / 2
    return (m0 - o0) * d0 + (m1 - o1) * d1


def is_valid_path(mesh, s, start_face, p, config=None, scratch=None):
    """Whether the segment from boundary point s (on boundary face
    `start_face`) to p is a valid path. Branches run either way along the
    ray line, up to CUTOFF_FACTOR segment lengths from s, or one length
    with config.intersection_free_early_out. Traversal always launches
    from the boundary end; callers never start from a skipped boundary
    element (those are skipped as candidates). Raises ZeroLengthSegment
    when s and p coincide."""
    if config is None:
        config = TraversalConfig()
    frame = make_ray_frame(s, p)
    p = np.asarray(p, dtype=float).tolist()
    eps = config.epsilon_i
    dim = mesh.dim
    nv, nr = dim + 1, dim * dim
    faces = local_faces(dim)
    vertices, elements = mesh.vertices, mesh.elements
    # flat views of the per-element rows, read without a copy
    rows = memoryview(mesh.bary_rows.reshape(-1))
    adjacency = memoryview(mesh.adjacency.reshape(-1))
    adj_local = memoryview(mesh.adj_local.reshape(-1))
    trace = None if scratch is None else scratch.trace
    if trace is not None:
        trace.clear()
    # A branch dies when its face crossing lies farther from s than `reach`,
    # behind s as well as beyond it, so the test is on |t|, not on signed t.
    reach = (1.0 if config.intersection_free_early_out else CUTOFF_FACTOR) * frame.length

    # Each (element, entry face) state is pushed at most once, with the ray
    # parameter of its entry face; the start state enters through the
    # boundary face at t = 0.
    start = (int(mesh.boundary_owner[start_face]), int(mesh.boundary_owner_local[start_face]))
    stack = [(start, 0.0)]
    visited = {start}
    steps = 0
    loops = 0
    hit_boundary = False

    while stack:
        (e, k), t = stack.pop()
        if trace is not None:
            trace.append((e, k, t, len(stack)))
        # the element's vertex coordinates, read once for the containment
        # test, the exit test and the crossing parameters
        verts = vertices.take(elements[e], axis=0).tolist()
        if bary_inside(rows[nr * e:nr * e + nr], verts[0], p, eps):
            return TraversalResult(True, "reached", e, len(visited), steps, loops)
        exits = exit_faces(verts, k, frame, eps)
        steps += len(exits)
        for lf in exits:
            nb = adjacency[nv * e + lf]
            if nb == BOUNDARY:
                # the branch exits the mesh; tie branches may still reach p
                hit_boundary = True
                continue
            state = (nb, adj_local[nv * e + lf])
            if state in visited:
                loops += 1
                continue
            t = _crossing_parameter([verts[j] for j in faces[lf]], frame)
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
