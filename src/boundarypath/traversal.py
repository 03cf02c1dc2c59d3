"""Robust topological ray traversal.

Decides whether the straight segment from a boundary point to an interior
point is covered by a chain of face-adjacent elements. Numerical ties near
vertices/edges branch the traversal instead of failing; loops are cut with
a per-traversal set of visited (element, entry face) states, the same state
the brute-force oracle keeps; an optional backward mode handles inverted
interior elements.
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
    """Ray origin plus an orthonormal frame; u (and v in 3D) span the plane
    perpendicular to the ray direction, and uv holds them as the columns
    of one (dim, dim - 1) matrix, so one product projects a whole element."""

    origin: np.ndarray
    direction: np.ndarray
    u: np.ndarray
    v: np.ndarray | None  # None in 2D
    length: float  # |target - origin|
    uv: np.ndarray


def make_ray_frame(origin, target):
    origin = np.asarray(origin, dtype=float)
    target = np.asarray(target, dtype=float)
    delta = target - origin
    length = float(np.linalg.norm(delta))
    if length <= 1e-14:
        raise ZeroLengthSegment("origin and target coincide")
    d = delta / length
    if len(d) == 3:
        u, v = geometry.orthonormal_basis(d)
        uv = np.column_stack([u, v])
    else:
        u, v = geometry.perpendicular_2d(d), None
        uv = u[:, None]
    return RayFrame(origin=origin, direction=d, u=u, v=v, length=length, uv=uv)


@dataclass
class TraversalConfig:
    epsilon_i: float = 1e-10
    allow_backward: bool = False
    intersection_free_early_out: bool = False
    trace: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.epsilon_i) and self.epsilon_i >= 0.0):
            raise ValueError("epsilon_i must be finite and >= 0")


@dataclass
class TraversalScratch:
    """Caller-owned reusable buffers; one per in-flight traversal. The
    traversal reads the config passed with each call, not this one."""

    config: TraversalConfig = field(default_factory=TraversalConfig)
    face_stack: list = field(default_factory=list)
    elem_stack: list = field(default_factory=list)
    visited: set = field(default_factory=set)
    trace: list = field(default_factory=list)

    def reset(self):
        self.face_stack.clear()
        self.elem_stack.clear()
        self.visited.clear()
        self.trace.clear()


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

    The element's vertices are projected to the plane perpendicular to the
    ray with one product against `frame.uv`; the sign tests then run on
    Python floats, using the orientation sign of the projected incoming
    face, so they stay correct for inverted elements and backward rays.
    With the tolerance, several faces can pass near vertices/edges; an
    empty set signals numerical starvation.
    """
    order = local_faces(mesh.dim)[in_local]
    rel = mesh.vertices[mesh.elements[element]] - frame.origin
    # one row-vector product per vertex: rounds like np.dot(rel_i, u), where
    # a plain rel @ uv in 2D takes a matrix-vector path that rounds otherwise
    proj = (rel[:, None, :] @ frame.uv)[:, 0].tolist()
    eps = epsilon_i
    if mesh.dim == 3:
        (a0, a1), (b0, b1), (c0, c1) = (proj[i] for i in order)
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
    (p0,), (p1,) = (proj[i] for i in order)
    (p2,) = proj[in_local]
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
    """Ray parameter where the ray line crosses the plane of a face.

    Falls back to the projection of the face centroid for near-parallel
    faces; only used for cutoffs and trace output, never for validity."""
    face = mesh.elements[element][list(local_faces(mesh.dim)[lf])]
    pts = mesh.vertices[face]
    d = frame.direction
    if mesh.dim == 3:
        n = geometry.triangle_area_normal(pts[0], pts[1], pts[2])
    else:
        n = geometry.edge_outward_normal_2d(pts[0], pts[1])
    denom = float(np.dot(n, d))
    scale = float(np.linalg.norm(n))
    if abs(denom) <= 1e-14 * max(scale, 1.0):
        return float(np.dot(pts.mean(axis=0) - frame.origin, d))
    return float(np.dot(n, pts[0] - frame.origin)) / denom


def is_valid_path(
    mesh, s, start_face, p, p_element_hint=None, config=None, scratch=None
):
    """Whether the segment from boundary point s (on boundary face
    `start_face`) to p is a valid path. Traversal always launches from the
    boundary end. Raises ZeroLengthSegment when s and p coincide."""
    if config is None:
        config = TraversalConfig()
    return _traverse(mesh, s, start_face, p, config, scratch, config.allow_backward)


def is_valid_path_inverted(
    mesh, s, start_face, p, p_element_hint=None, config=None, scratch=None
):
    """Backward-enabled variant for meshes with inverted interior elements.

    It traverses backward whatever config.allow_backward says. Callers
    never start from an inverted boundary element (those are skipped as
    candidates)."""
    if config is None:
        config = TraversalConfig()
    return _traverse(mesh, s, start_face, p, config, scratch, True)


def _traverse(mesh, s, start_face, p, config, scratch, backward):
    frame = make_ray_frame(s, p)
    if scratch is None:
        scratch = TraversalScratch(config)
    eps = config.epsilon_i
    adjacency = mesh.adjacency
    adj_local = mesh.adj_local
    scratch.reset()
    visited = scratch.visited
    faces = scratch.face_stack
    elems = scratch.elem_stack

    e0 = int(mesh.boundary_owner[start_face])
    k0 = int(mesh.boundary_owner_local[start_face])
    visited.add((e0, k0))
    n_visited = 1
    steps = 0
    loops = 0
    if config.trace:
        scratch.trace.append((e0, k0, 0.0, 0))
    if mesh.element_contains(e0, p, eps):
        return TraversalResult(True, "reached", e0, n_visited, steps, loops)

    for lf in exit_face_selection(mesh, e0, k0, frame, eps):
        faces.append(lf)
        elems.append(e0)

    # Faces per element bounds legitimate work; the extra factor absorbs
    # branching near ties before the breach flag trips.
    budget = max(8 * mesh.n_elements * (mesh.dim + 1), 256)
    cutoff = CUTOFF_FACTOR * frame.length
    hit_boundary = False

    while faces:
        steps += 1
        if steps > budget:
            return TraversalResult(
                False, "exhausted", -1, n_visited, steps, loops, budget_breached=True
            )
        lf = faces.pop()
        e = elems.pop()
        nb = int(adjacency[e, lf])
        if nb == BOUNDARY:
            # the branch exits the mesh; tie branches may still reach p
            hit_boundary = True
            continue
        in_local = int(adj_local[e, lf])
        if (nb, in_local) in visited:
            loops += 1
            continue
        if backward:
            if abs(_crossing_parameter(mesh, e, lf, frame)) > cutoff:
                continue
        elif config.intersection_free_early_out:
            # distance from s, not signed parameter: a branch running behind
            # the origin is just as dead under the no-intersection assumption
            if abs(_crossing_parameter(mesh, e, lf, frame)) > frame.length:
                continue
        visited.add((nb, in_local))
        n_visited += 1
        if config.trace:
            scratch.trace.append(
                (nb, in_local, _crossing_parameter(mesh, e, lf, frame), len(faces))
            )
        if mesh.element_contains(nb, p, eps):
            return TraversalResult(True, "reached", nb, n_visited, steps, loops)
        for lf2 in exit_face_selection(mesh, nb, in_local, frame, eps):
            faces.append(lf2)
            elems.append(nb)

    reason = "hit_boundary" if hit_boundary else "exhausted"
    return TraversalResult(False, reason, -1, n_visited, steps, loops)


def format_trace(trace):
    """Line-delimited trace records: element, entry face, ray parameter,
    branch depth."""
    return "\n".join(
        f"element={e} entry_face={f} t={t:.17g} depth={d}" for e, f, t, d in trace
    )
