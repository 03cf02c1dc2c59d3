"""Low-level geometric predicates for simplicial meshes in 2D and 3D."""

import numpy as np

from .errors import DegenerateFace


def signed_volume_of(verts):
    """Signed volume of a tetrahedron (4x3 array) or signed area of a
    triangle (3x2 array)."""
    verts = np.asarray(verts, dtype=float)
    if verts.shape == (4, 3):
        a = verts[1] - verts[0]
        b = verts[2] - verts[0]
        c = verts[3] - verts[0]
        return float(np.dot(a, np.cross(b, c))) / 6.0
    if verts.shape == (3, 2):
        a = verts[1] - verts[0]
        b = verts[2] - verts[0]
        return float(a[0] * b[1] - a[1] * b[0]) / 2.0
    raise ValueError(f"bad simplex shape {verts.shape}")


def barycentric_coords(p, verts):
    """Barycentric coordinates of p w.r.t. a simplex (tet in 3D, tri in 2D).

    Broadcasts over leading axes: p is (..., d) and verts is (..., d+1, d);
    the result is (..., d+1). All systems are solved in one batched call.
    A singular simplex gives inf coordinates, and a near-singular one
    large ones; callers treat both as 'outside'.
    """
    verts = np.asarray(verts, dtype=float)
    p = np.asarray(p, dtype=float)
    v0 = verts[..., 0, :]
    A = (verts[..., 1:, :] - v0[..., None, :]).swapaxes(-1, -2)
    try:
        x = np.linalg.solve(A, (p - v0)[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if p.ndim == 1 and A.ndim == 2:
            return np.full(A.shape[-1] + 1, np.inf)
        # solve row by row so one singular simplex spoils only its own row
        p, verts = np.broadcast_arrays(p[..., None, :], verts)
        return np.array([barycentric_coords(pi, vi) for pi, vi in zip(p[..., 0, :], verts)])
    out = np.empty(x.shape[:-1] + (A.shape[-1] + 1,))
    out[..., 1:] = x
    out[..., 0] = 1.0 - x.sum(axis=-1)
    return out


def row_dots(x, y):
    """Dot products of matching rows of x and y (y may be one row). Done
    through matmul, each equals np.dot of the two rows bit for bit, as the
    scalar code computes it; einsum and (x * y).sum(-1) round some rows
    differently."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def cross_rows(a, b):
    """Cross products of matching rows of (..., 3) arrays: np.cross bit for
    bit, without its per-call axis handling, which costs more than the
    arithmetic on meshes of a few dozen elements."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def row_norms(x):
    """Euclidean norms of the rows of x, equal to np.linalg.norm per row."""
    return np.sqrt(row_dots(x, x))


def closest_point_on_segment(p, a, b):
    """Closest point to p on segment ab; returns (point, t) with t in [0,1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return a.copy(), 0.0
    t = float(np.dot(np.asarray(p, dtype=float) - a, ab)) / denom
    t = min(1.0, max(0.0, t))
    return a + t * ab, t


def closest_point_on_triangle(p, a, b, c):
    """Closest point to p on triangle abc (3D). Returns (point, bary).

    Region classification after Ericson's real-time collision detection
    formulation; bary is (u, v, w) w.r.t. (a, b, c), as Python floats, with
    exact zeros for the vertices the point's region does not involve.
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = float(np.dot(ab, ap))
    d2 = float(np.dot(ac, ap))
    if d1 <= 0.0 and d2 <= 0.0:
        return a.copy(), (1.0, 0.0, 0.0)

    bp = p - b
    d3 = float(np.dot(ab, bp))
    d4 = float(np.dot(ac, bp))
    if d3 >= 0.0 and d4 <= d3:
        return b.copy(), (0.0, 1.0, 0.0)

    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        denom = d1 - d3
        v = d1 / denom if denom != 0.0 else 0.0
        return a + v * ab, (1.0 - v, v, 0.0)

    cp = p - c
    d5 = float(np.dot(ab, cp))
    d6 = float(np.dot(ac, cp))
    if d6 >= 0.0 and d5 <= d6:
        return c.copy(), (0.0, 0.0, 1.0)

    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        denom = d2 - d6
        w = d2 / denom if denom != 0.0 else 0.0
        return a + w * ac, (1.0 - w, 0.0, w)

    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        denom = (d4 - d3) + (d5 - d6)
        w = (d4 - d3) / denom if denom != 0.0 else 0.0
        return b + w * (c - b), (0.0, 1.0 - w, w)

    denom = va + vb + vc
    if denom == 0.0:
        raise DegenerateFace("triangle has (near-)zero area")
    v = vb / denom
    w = vc / denom
    return a + ab * v + ac * w, (1.0 - v - w, v, w)


def triangle_area_normal(a, b, c):
    """Cross-product normal; its magnitude is twice the triangle area.

    Worked on Python floats, which round each difference and product as
    numpy does, so it equals np.cross(b - a, c - a) bit for bit without
    np.cross's per-call axis handling."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (np.asarray(x, float).tolist() for x in (a, b, c))
    u0, u1, u2 = b0 - a0, b1 - a1, b2 - a2
    v0, v1, v2 = c0 - a0, c1 - a1, c2 - a2
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def edge_outward_normal_2d(a, b):
    """Outward normal of a boundary edge a->b of a CCW-oriented triangle,
    worked on Python floats like triangle_area_normal."""
    (a0, a1), (b0, b1) = np.asarray(a, float).tolist(), np.asarray(b, float).tolist()
    return np.array([b1 - a1, -(b0 - a0)])


def orthonormal_basis(direction):
    """Two unit vectors orthogonal to each other and to a unit direction.

    Branchless construction following Duff et al.'s frame-building trick.
    """
    d = np.asarray(direction, dtype=float)
    sign = 1.0 if d[2] >= 0.0 else -1.0
    a = -1.0 / (sign + d[2])
    b = d[0] * d[1] * a
    u = np.array([1.0 + sign * d[0] * d[0] * a, sign * b, -sign * d[0]])
    v = np.array([b, sign + d[1] * d[1] * a, -d[1]])
    return u, v


def perpendicular_2d(direction):
    d = np.asarray(direction, dtype=float)
    return np.array([-d[1], d[0]])

