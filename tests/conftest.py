from itertools import combinations

import numpy as np
import pytest

from boundarypath import geometry, shapes
from boundarypath.bvh import build_boundary_bvh
from boundarypath.errors import DegenerateFace, ZeroNormal
from boundarypath.mesh import FEATURE_TOL, BoundaryFeature

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []

# the folded self-intersecting bars of acceptance criteria 1-3, which the
# query-order reference test also runs
FOLD_PARAMS = [
    # (nx, ny, nz, thickness, inner_radius, total_angle); all wrap > 2 pi,
    # so the two bar ends overlap in space; 200-2000 tets each
    (10, 2, 2, 0.30, 1.0, 2.5 * np.pi),
    (12, 2, 2, 0.25, 0.8, 2.2 * np.pi),
    (14, 2, 2, 0.30, 1.2, 2.8 * np.pi),
    (16, 2, 2, 0.35, 1.0, 2.4 * np.pi),
    (18, 2, 2, 0.30, 0.9, 2.6 * np.pi),
    (20, 2, 2, 0.25, 1.1, 2.3 * np.pi),
    (22, 2, 2, 0.30, 1.0, 2.7 * np.pi),
    (24, 2, 2, 0.30, 1.0, 2.5 * np.pi),
    (26, 2, 2, 0.25, 0.8, 2.2 * np.pi),
    (28, 2, 2, 0.30, 1.2, 2.8 * np.pi),
    (8, 3, 3, 0.30, 1.0, 2.5 * np.pi),
    (10, 3, 3, 0.25, 0.9, 2.3 * np.pi),
    (12, 3, 3, 0.30, 1.1, 2.6 * np.pi),
    (14, 3, 3, 0.35, 1.0, 2.4 * np.pi),
    (16, 3, 3, 0.30, 1.0, 2.5 * np.pi),
    (18, 3, 3, 0.25, 0.8, 2.2 * np.pi),
    (20, 3, 3, 0.30, 1.2, 2.8 * np.pi),
    (22, 3, 3, 0.30, 1.0, 2.4 * np.pi),
    (24, 3, 3, 0.25, 1.0, 2.6 * np.pi),
    (26, 3, 3, 0.30, 0.9, 2.3 * np.pi),
]
POINTS_PER_MESH = 50


@pytest.fixture(scope="session")
def folded_corpus():
    rng = np.random.default_rng(20240817)
    corpus = []
    for params in FOLD_PARAMS:
        nx, ny, nz, th, r0, ang = params
        mesh = shapes.folded_bar(nx, ny, nz, thickness=th, inner_radius=r0, total_angle=ang)
        assert 200 <= mesh.n_elements <= 2000, params
        assert not any(mesh.element_skipped(e) for e in range(mesh.n_elements)), params
        assert ang > 2 * np.pi  # ends overlap: the mesh self-intersects
        points, elems = shapes.random_interior_points(mesh, rng, POINTS_PER_MESH)
        corpus.append(
            {
                "params": params,
                "mesh": mesh,
                "bvh": build_boundary_bvh(mesh),
                "points": points,
                "elems": elems,
            }
        )
    return corpus


def containing_elements(mesh, p, tol=1e-12):
    """Brute-force point location: every non-inverted, non-degenerate
    element whose barycentric coordinates of p are all >= -tol, from one
    batched solve over the whole mesh."""
    b = geometry.barycentric_coords(p, mesh.vertices[mesh.elements])
    inside = np.all(np.isfinite(b) & (b >= -tol), axis=1)
    return np.flatnonzero(inside & ~mesh.skipped_flags)


def signed_volume_of(verts):
    """Signed volume of a tetrahedron (4x3 array) or signed area of a
    triangle (3x2 array), one simplex at a time: the reference that the
    batched volumes of SimplicialMesh must equal bit for bit."""
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


def closest_point_on_triangle(p, a, b, c):
    """Closest point to p on triangle abc (3D). Returns (point, bary).

    Region classification after Ericson's real-time collision detection
    formulation; bary is (u, v, w) w.r.t. (a, b, c), as Python floats, with
    exact zeros for the vertices the point's region does not involve.
    One np.dot per dot product: the reference that the one-call walk in
    SimplicialMesh.closest_point_on_face must equal bit for bit.
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


# the threaded rays of acceptance criterion 4, which the traversal
# step-bound test also runs
def interior_targets(mesh):
    """Positions of strictly interior vertices and midpoints of strictly
    interior element edges."""
    bverts = set(np.unique(mesh.boundary_faces).tolist())
    bedges = set()
    for f in mesh.boundary_faces:
        for a, b in combinations(map(int, f), 2):
            bedges.add((min(a, b), max(a, b)))
    iverts = [v for v in range(mesh.n_vertices) if v not in bverts]
    iedges = set()
    for el in mesh.elements:
        for a, b in combinations(map(int, el), 2):
            key = (min(a, b), max(a, b))
            if key not in bedges:
                iedges.add(key)
    vpts = mesh.vertices[iverts]
    epts = np.array(
        [0.5 * (mesh.vertices[a] + mesh.vertices[b]) for a, b in sorted(iedges)]
    )
    return np.concatenate([vpts, epts], axis=0)


def threaded_ray_corpus():
    """(mesh, s, face, p) tuples whose segments pass exactly through
    interior vertices or interior edge midpoints of structured grids."""
    specs = [
        (shapes.box_grid(2, 2, 2), 5000),
        (shapes.box_grid(3, 3, 3), 2500),
        (shapes.rect_grid(6, 6), 2500),
    ]
    rng = np.random.default_rng(991)
    rays = []
    for mesh, count in specs:
        targets = interior_targets(mesh)
        assert len(targets) > 0
        for _ in range(count):
            face = int(rng.integers(0, mesh.n_boundary_faces))
            w = rng.dirichlet(np.ones(mesh.dim))
            s = w @ mesh.vertices[mesh.boundary_faces[face]]
            t = targets[int(rng.integers(0, len(targets)))]
            if np.linalg.norm(t - s) < 1e-9:
                continue
            # half the rays stop at the feature, half pass through it
            p = t if rng.random() < 0.5 else s + 2.0 * (t - s)
            rays.append((mesh, s, face, p))
    return rays


def ref_closest_point_on_face(mesh, p, face_id):
    """closest_point_on_face with the diameter, the degeneracy test and the
    feature tests computed per call, one vertex or edge at a time: the
    tolerance-only classifier that the barycentric one must equal."""
    gids = mesh.boundary_faces[face_id]
    verts = mesh.vertices[gids]
    if mesh.dim == 3:
        diam = max(
            np.linalg.norm(verts[1] - verts[0]),
            np.linalg.norm(verts[2] - verts[1]),
            np.linalg.norm(verts[0] - verts[2]),
        )
        if diam == 0.0 or np.linalg.norm(
            geometry.triangle_area_normal(*verts)
        ) <= 1e-30 * max(diam, 1.0):
            raise DegenerateFace(f"boundary face {face_id} is degenerate")
        q, _ = closest_point_on_triangle(p, *verts)
        tol = FEATURE_TOL * diam
        for i in range(3):
            if np.linalg.norm(q - verts[i]) <= tol:
                return q, BoundaryFeature("vertex", face_id, (int(gids[i]),))
        for i in range(3):
            a, b = verts[i], verts[(i + 1) % 3]
            eq, _ = geometry.closest_point_on_segment(q, a, b)
            if np.linalg.norm(q - eq) <= tol:
                pair = (int(gids[i]), int(gids[(i + 1) % 3]))
                return q, BoundaryFeature("edge", face_id, pair)
        return q, BoundaryFeature("face", face_id)
    diam = float(np.linalg.norm(verts[1] - verts[0]))
    if diam == 0.0:
        raise DegenerateFace(f"boundary face {face_id} is degenerate")
    q, t = geometry.closest_point_on_segment(p, verts[0], verts[1])
    tol = FEATURE_TOL * diam
    for i in range(2):
        if np.linalg.norm(q - verts[i]) <= tol:
            return q, BoundaryFeature("vertex", face_id, (int(gids[i]),))
    return q, BoundaryFeature("face", face_id)


def ref_pseudo_normal(mesh, feature):
    """pseudo_normal with each face's area normal computed per call, by
    geometry.triangle_area_normal in 3D, and summed in face order."""

    def area_normal(f):
        v = mesh.vertices[mesh.boundary_faces[f]]
        if mesh.dim == 3:
            return np.array(geometry.triangle_area_normal(*v))
        return np.array(geometry.edge_outward_normal_2d(*v))

    if feature.kind == "face":
        n = area_normal(feature.face_id)
    elif feature.kind == "edge":
        n = sum(area_normal(f) for f in mesh.boundary_faces_of_edge(*feature.verts))
    else:
        n = sum(area_normal(f) for f in mesh.boundary_faces_of_vertex(feature.verts[0]))
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise ZeroNormal(f"pseudo-normal vanishes at {feature}")
    return n / norm


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def cube():
    return shapes.cube_five_tets()


@pytest.fixture(scope="session")
def tet():
    return shapes.single_tet()


@pytest.fixture(scope="session")
def tri():
    return shapes.single_triangle()


@pytest.fixture(scope="session")
def grid2d():
    return shapes.rect_grid(4, 4)


@pytest.fixture(scope="session")
def grid3d():
    return shapes.box_grid(3, 3, 3)


@pytest.fixture(scope="session")
def folded2d():
    return shapes.folded_strip(40, 3)


@pytest.fixture(scope="session")
def folded3d():
    return shapes.folded_bar(30, 3, 3)
