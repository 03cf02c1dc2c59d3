"""Low-level geometric predicates for simplicial meshes in 2D and 3D."""

import numpy as np


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


def triangle_area_normal(a, b, c):
    """Cross-product normal of a triangle given as three float triples, as
    a tuple; its magnitude is twice the triangle area.

    Python floats round each difference and product as numpy does, so it
    equals np.cross(b - a, c - a) bit for bit."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a, b, c
    u0, u1, u2 = b0 - a0, b1 - a1, b2 - a2
    v0, v1, v2 = c0 - a0, c1 - a1, c2 - a2
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def edge_outward_normal_2d(a, b):
    """Outward normal of a boundary edge a->b of a CCW-oriented triangle,
    given as float pairs, as a tuple like triangle_area_normal."""
    (a0, a1), (b0, b1) = a, b
    return (b1 - a1, -(b0 - a0))


def orthonormal_basis(direction):
    """Two unit vectors, as float triples, orthogonal to each other and to
    a unit direction given as a float triple.

    Branchless construction following Duff et al.'s frame-building trick.
    """
    d0, d1, d2 = direction
    sign = 1.0 if d2 >= 0.0 else -1.0
    a = -1.0 / (sign + d2)
    b = d0 * d1 * a
    return (1.0 + sign * d0 * d0 * a, sign * b, -sign * d0), (b, sign + d1 * d1 * a, -d1)


def perpendicular_2d(direction):
    d0, d1 = direction
    return (-d1, d0)
