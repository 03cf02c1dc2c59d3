"""Brute-force reference for validity and closest-boundary queries.

Ground truth for differential tests on desk-scale meshes. The validity
check is a breadth-first search over (element, entry face) states whose
faces are geometrically crossed by the segment, using direct line/face
distance computations: no ray frame, no stacks, no early outs, and no code
shared with the traversal module. Complexity is accepted as
O(faces x elements) per query; this module is test-only.
"""

from collections import deque

import numpy as np

from .mesh import BOUNDARY, local_faces

# the tolerance of every crossing and containment test
TOL = 1e-10


def _contains(mesh, e, p):
    verts = mesh.vertices[mesh.elements[e]]
    A = (verts[1:] - verts[0]).T
    try:
        x = np.linalg.solve(A, np.asarray(p, float) - verts[0])
    except np.linalg.LinAlgError:
        return False
    return bool(x.min() >= -TOL and x.sum() <= 1.0 + TOL)


def _line_segment_min(s, d, e0, e1):
    """Min distance between the full line s + t*d and segment [e0, e1];
    returns (dist, t)."""
    w = e1 - e0
    dd = float(np.dot(d, d))
    dw = float(np.dot(d, w))
    ww = float(np.dot(w, w))
    rhs = e0 - s
    det = dw * dw - dd * ww
    if abs(det) > 1e-16 * max(dd * ww, 1e-300):
        # stationary point of |s + t d - e0 - u w|^2
        u = (dd * float(np.dot(w, rhs)) - dw * float(np.dot(d, rhs))) / det
        u = min(1.0, max(0.0, u))
    else:
        # parallel: either endpoint gives the same line distance; compare both
        best = None
        for cand in (0.0, 1.0):
            q = e0 + cand * w
            t = float(np.dot(d, q - s)) / dd
            dist = float(np.linalg.norm(s + t * d - q))
            if best is None or dist < best[0]:
                best = (dist, t)
        return best
    q = e0 + u * w
    t = float(np.dot(d, q - s)) / dd
    return float(np.linalg.norm(s + t * d - q)), t


def _line_face_min(mesh, s, d, element, lf):
    """Min distance between the ray line and a face of an element, with the
    ray parameter where it is attained."""
    idx = mesh.elements[element][list(local_faces(mesh.dim)[lf])]
    pts = mesh.vertices[idx]
    if mesh.dim == 2:
        return _line_segment_min(s, d, pts[0], pts[1])
    a, b, c = pts
    n = np.cross(b - a, c - a)
    nn = float(np.linalg.norm(n))
    denom = float(np.dot(n, d))
    if abs(denom) > 1e-14 * max(nn, 1e-300):
        t = float(np.dot(n, a - s)) / denom
        q = s + t * d
        # barycentric via normal equations
        A = np.column_stack([b - a, c - a])
        try:
            uv = np.linalg.solve(A.T @ A, A.T @ (q - a))
            if uv[0] >= -1e-12 and uv[1] >= -1e-12 and uv.sum() <= 1.0 + 1e-12:
                return 0.0, t
        except np.linalg.LinAlgError:
            pass
    best = None
    for i in range(3):
        cand = _line_segment_min(s, d, pts[i], pts[(i + 1) % 3])
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def oracle_valid_path(mesh, s, start_face, p, allow_backward=False, cutoff_factor=2.0):
    """BFS over the element graph restricted to faces crossed by the
    segment s -> p. Forward mode requires the crossing parameter to advance
    monotonically (within TOL); backward mode drops monotonicity and
    stops branches past cutoff_factor times the segment length."""
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    delta = p - s
    L = float(np.linalg.norm(delta))
    if L <= 1e-14:
        return False
    d = delta / L
    e0 = int(mesh.boundary_owner[start_face])
    if _contains(mesh, e0, p):
        return True
    # states: (element, entry local face, entry parameter)
    seen = set()
    queue = deque()
    k0 = int(mesh.boundary_owner_local[start_face])
    queue.append((e0, k0, 0.0))
    seen.add((e0, k0))
    while queue:
        e, in_lf, t_e = queue.popleft()
        for lf in range(mesh.dim + 1):
            if lf == in_lf:
                continue
            nb = int(mesh.adjacency[e, lf])
            if nb == BOUNDARY:
                continue
            dist, t_f = _line_face_min(mesh, s, d, e, lf)
            if dist > TOL:
                continue
            if allow_backward:
                if abs(t_f) > cutoff_factor * L + TOL:
                    continue
            else:
                if t_f < t_e - TOL or t_f > L + TOL:
                    continue
            in_nb = int(mesh.adj_local[e, lf])
            state = (nb, in_nb)
            if state in seen:
                continue
            seen.add(state)
            if _contains(mesh, nb, p):
                return True
            queue.append((nb, in_nb, t_f))
    return False


def closest_boundary_candidates(mesh, p):
    """Euclidean closest point to p on every boundary face, vectorized.
    Returns (points (m, dim), distances (m,))."""
    p = np.asarray(p, dtype=float)
    pts = mesh.vertices[mesh.boundary_faces]
    if mesh.dim == 2:
        a = pts[:, 0]
        b = pts[:, 1]
        ab = b - a
        denom = np.einsum("ij,ij->i", ab, ab)
        t = np.einsum("ij,ij->i", p - a, ab) / np.where(denom == 0, 1.0, denom)
        t = np.clip(np.where(denom == 0, 0.0, t), 0.0, 1.0)
        q = a + t[:, None] * ab
        return q, np.linalg.norm(q - p, axis=1)
    a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    denom = va + vb + vc
    safe = np.where(denom == 0, 1.0, denom)
    v_in = vb / safe
    w_in = vc / safe
    q = a + ab * v_in[:, None] + ac * w_in[:, None]

    # edge BC region
    denom_bc = (d4 - d3) + (d5 - d6)
    w_bc = np.where(denom_bc == 0, 0.0, (d4 - d3) / np.where(denom_bc == 0, 1, denom_bc))
    mask = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    q = np.where(mask[:, None], b + np.clip(w_bc, 0, 1)[:, None] * (c - b), q)
    # edge AC region
    denom_ac = d2 - d6
    w_ac = np.where(denom_ac == 0, 0.0, d2 / np.where(denom_ac == 0, 1, denom_ac))
    mask = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    q = np.where(mask[:, None], a + np.clip(w_ac, 0, 1)[:, None] * ac, q)
    # edge AB region
    denom_ab = d1 - d3
    v_ab = np.where(denom_ab == 0, 0.0, d1 / np.where(denom_ab == 0, 1, denom_ab))
    mask = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    q = np.where(mask[:, None], a + np.clip(v_ab, 0, 1)[:, None] * ab, q)
    # vertex regions
    mask = (d6 >= 0) & (d5 <= d6)
    q = np.where(mask[:, None], c, q)
    mask = (d3 >= 0) & (d4 <= d3)
    q = np.where(mask[:, None], b, q)
    mask = (d1 <= 0) & (d2 <= 0)
    q = np.where(mask[:, None], a, q)
    return q, np.linalg.norm(q - p, axis=1)


def oracle_closest_boundary(mesh, p, p_element=None, exclude_vertex=None):
    """Exhaustive scan: closest point on every boundary face, sorted by
    distance, first candidate with a valid path wins. Returns
    (point, face, distance) or None. Paths are searched backward on a mesh
    with any skipped element, as the engine does. p_element is not read
    yet (ROADMAP item 1): a valid path may end in any copy of p, not only
    the one in p_element."""
    p = np.asarray(p, dtype=float)
    backward = mesh.has_skipped_elements
    points, dists = closest_boundary_candidates(mesh, p)
    skip = np.asarray(mesh.boundary_face_skipped)
    if exclude_vertex is not None:
        # the excluded vertex's faces, read from the face list itself
        skip = skip | np.any(mesh.boundary_faces == exclude_vertex, axis=1)
    for face in np.argsort(dists, kind="stable"):
        face = int(face)
        if skip[face]:
            continue
        if dists[face] <= 1e-14:
            continue  # zero-length segment can never be a valid path
        if oracle_valid_path(mesh, points[face], face, p, allow_backward=backward):
            return points[face].copy(), face, float(dists[face])
    return None


def co_minimal_faces(mesh, p, distance, tol=1e-9, exclude_vertex=None):
    """Boundary faces whose closest-point distance ties the given distance
    within tol (candidate identity check for differential tests). Skipped
    faces and the excluded vertex's faces are left out."""
    _, dists = closest_boundary_candidates(mesh, p)
    keep = ~np.asarray(mesh.boundary_face_skipped) & (np.abs(dists - distance) <= tol)
    if exclude_vertex is not None:
        keep &= ~np.any(mesh.boundary_faces == exclude_vertex, axis=1)
    return set(np.flatnonzero(keep).tolist())
