"""Correctness checks run outside the timed phase.

Query results are compared with the brute-force oracle and with
properties of the method; simulator states are checked with numpy
barycentrics over every vertex/element pair, with no BVH and no code from
the simulator. Every check returns a list of problems, empty when the
output is correct.
"""

import numpy as np

from boundarypath import oracle

TOL = 1e-9


def signed_volumes(vertices, elements):
    t = vertices[elements]
    return np.einsum("ij,ij->i", t[:, 1] - t[:, 0], np.cross(t[:, 2] - t[:, 0], t[:, 3] - t[:, 0])) / 6.0


def _on_triangle(s, tri, tol):
    a, b, c = tri
    n = np.cross(b - a, c - a)
    n /= np.linalg.norm(n)
    if abs(np.dot(s - a, n)) > tol:
        return False
    m = np.column_stack([b - a, c - a])
    uv = np.linalg.lstsq(m, s - a, rcond=None)[0]
    scale = max(np.linalg.norm(b - a), np.linalg.norm(c - a))
    slack = tol / scale
    return bool(uv.min() >= -slack and uv.sum() <= 1.0 + slack)


def check_query(mesh, p, p_element, res):
    """Problems with one query result: it must exist, match the oracle,
    lie on its named face, report |s - p| as its distance, and be no
    closer than the Euclidean nearest boundary point. Returns (problems,
    whether the Euclidean nearest boundary point was not the answer)."""
    if res is None:
        return ["no result for a point in a non-skipped element"], False
    problems = []
    want = oracle.oracle_closest_boundary(mesh, p, p_element=p_element)
    if want is None:
        problems.append("the oracle finds no valid path")
    else:
        if abs(res.distance - want[2]) > TOL:
            problems.append(f"distance {res.distance!r} != oracle {want[2]!r}")
        if np.linalg.norm(res.point - want[0]) > TOL:
            problems.append("point differs from the oracle's")
    if not _on_triangle(res.point, mesh.vertices[mesh.boundary_faces[res.face]], TOL):
        problems.append(f"point does not lie on face {res.face}")
    if abs(res.distance - np.linalg.norm(res.point - p)) > TOL:
        problems.append("distance != |s - p|")
    _, dists = oracle.closest_boundary_candidates(mesh, p)
    nearest = float(dists.min())
    if res.distance < nearest - TOL:
        problems.append("closer than the Euclidean nearest boundary point")
    return problems, res.distance > nearest + TOL


def _inside_counts(points, vertices, elements, exclude_incident):
    """Number of points strictly inside each element (all barycentric
    coordinates positive), optionally not counting an element's own
    vertices."""
    t = vertices[elements]
    inv = np.linalg.inv(np.transpose(t[:, 1:] - t[:, :1], (0, 2, 1)))
    rel = points[:, None, :] - t[None, :, 0, :]
    lam = np.einsum("mij,nmj->nmi", inv, rel)
    inside = (lam > 0.0).all(axis=2) & (lam.sum(axis=2) < 1.0)
    if exclude_incident:
        incident = (elements[None, :, :] == np.arange(len(points))[:, None, None]).any(axis=2)
        inside &= ~incident
    return int(inside.sum())


def check_scene(positions, offsets, elements):
    """Problems with one simulator state: non-finite positions, inverted
    or flat elements, and vertices strictly inside a foreign element.
    Returns (problems, penetration count)."""
    if not np.all(np.isfinite(positions)):
        return ["non-finite positions"], -1
    problems = []
    meshes = [positions[offsets[m]:offsets[m + 1]] for m in range(len(elements))]
    for verts, elems in zip(meshes, elements):
        n_bad = int((signed_volumes(verts, elems) <= 0.0).sum())
        if n_bad:
            problems.append(f"{n_bad} inverted or flat elements")
    if problems:
        return problems, -1
    pen = 0
    for a, pts in enumerate(meshes):
        for b, (verts, elems) in enumerate(zip(meshes, elements)):
            pen += _inside_counts(pts, verts, elems, exclude_incident=a == b)
    return problems, pen
