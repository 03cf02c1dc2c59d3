import numpy as np
import pytest

from boundarypath import oracle, shapes
from boundarypath.mesh import SimplicialMesh


def test_single_tet_valid(tet):
    p = np.array([0.2, 0.2, 0.2])
    s, _ = tet.closest_point_on_face(p, 0)
    assert oracle.oracle_valid_path(tet, s, 0, p)


def test_stacked_bar_axis_valid():
    bar = shapes.box_grid(1, 1, 5, size=(1.0, 1.0, 5.0))
    p = np.array([0.4, 0.35, 4.6])
    face = min(
        range(bar.n_boundary_faces),
        key=lambda f: np.linalg.norm(
            bar.vertices[bar.boundary_faces[f]].mean(axis=0) - np.array([0.4, 0.35, 0])
        ),
    )
    s, _ = bar.closest_point_on_face(p, face)
    assert oracle.oracle_valid_path(bar, s, face, p)


def test_folded_strip_blocked(folded2d):
    # a candidate on the covering flap dies at the boundary gap
    rng = np.random.default_rng(11)
    pts, _ = shapes.random_interior_points(folded2d, rng, 100)
    blocked = 0
    for p in pts:
        _, dists = oracle.closest_boundary_candidates(folded2d, p)
        f = int(np.argmin(dists))
        s = oracle.closest_boundary_candidates(folded2d, p)[0][f]
        if np.linalg.norm(s - p) <= 1e-12:
            continue
        if not oracle.oracle_valid_path(folded2d, s, f, p):
            blocked += 1
    assert blocked > 0


def test_candidates_match_per_face_scan(folded3d, rng):
    pts, _ = shapes.random_interior_points(folded3d, rng, 10)
    for p in pts:
        q, d = oracle.closest_boundary_candidates(folded3d, p)
        for f in range(0, folded3d.n_boundary_faces, 17):
            ref_q, _ = folded3d.closest_point_on_face(p, f)
            assert np.linalg.norm(ref_q - p) == pytest.approx(d[f], abs=1e-12)
            assert np.allclose(q[f], ref_q, atol=1e-12)


def test_cube_center_distance(cube):
    ref = oracle.oracle_closest_boundary(cube, np.full(3, 0.5))
    assert ref is not None and ref[2] == pytest.approx(0.5, abs=1e-12)


def test_element_order_insensitive(grid2d, rng):
    from boundarypath.mesh import SimplicialMesh

    perm = rng.permutation(grid2d.n_elements)
    shuffled = SimplicialMesh(grid2d.vertices, grid2d.elements[perm])
    pts, _ = shapes.random_interior_points(grid2d, rng, 20)
    for p in pts:
        a = oracle.oracle_closest_boundary(grid2d, p)
        b = oracle.oracle_closest_boundary(shuffled, p)
        assert a[2] == pytest.approx(b[2], abs=1e-12)


def test_self_exclusion(folded2d):
    v = int(folded2d.boundary_faces[0][0])
    p = folded2d.vertices[v]
    ref = oracle.oracle_closest_boundary(folded2d, p, exclude_vertex=v)
    assert ref is not None
    assert ref[2] > 1e-12
    assert v not in folded2d.boundary_faces[ref[1]]


def test_self_query_reads_no_feature_map(monkeypatch):
    # the oracle judges the engine's self-queries, so it must not take the
    # excluded vertex's faces from the engine's boundary feature maps
    bar = shapes.folded_bar(12, 2, 2)
    vertices = np.unique(bar.boundary_faces)[::10].tolist()
    want = [
        oracle.oracle_closest_boundary(bar, bar.vertices[v], exclude_vertex=v) for v in vertices
    ]

    def engine_only(*args):
        raise AssertionError("the oracle read a boundary feature map")

    for name in ("boundary_vertex_neighbors", "boundary_faces_of_vertex", "boundary_faces_of_edge"):
        monkeypatch.setattr(SimplicialMesh, name, engine_only)
    for v, ref in zip(vertices, want):
        got = oracle.oracle_closest_boundary(bar, bar.vertices[v], exclude_vertex=v)
        assert ref is not None and v not in bar.boundary_faces[ref[1]]
        assert got[1:] == ref[1:] and np.array_equal(got[0], ref[0])


def test_backward_cutoff_respected(monkeypatch):
    mesh, s, start_face, p = shapes.inverted_path_strip()
    # designed detour fits within 2x; a tighter cutoff must reject it
    assert oracle.oracle_valid_path(mesh, s, start_face, p)
    monkeypatch.setattr(oracle, "CUTOFF_FACTOR", 1.0)
    assert not oracle.oracle_valid_path(mesh, s, start_face, p)


def ref_co_minimal_faces(mesh, p, distance, tol=1e-9, exclude_vertex=None):
    """co_minimal_faces one face at a time, with the excluded vertex's
    faces from the mesh's feature map."""
    _, dists = oracle.closest_boundary_candidates(mesh, p)
    excl = () if exclude_vertex is None else mesh.boundary_faces_of_vertex(exclude_vertex)
    return {
        face
        for face in range(mesh.n_boundary_faces)
        if not mesh.boundary_face_skipped[face]
        and face not in excl
        and abs(dists[face] - distance) <= tol
    }


def test_co_minimal_faces(cube):
    # cube center ties all six sides: 12 co-minimal boundary triangles
    faces = oracle.co_minimal_faces(cube, np.full(3, 0.5), 0.5)
    assert len(faces) == 12
    # the jittered grid has inverted elements, so some boundary faces are
    # skipped; a loose tolerance makes ties of faces at several distances
    rng = np.random.default_rng(0)
    grid = shapes.box_grid(3, 3, 2)
    jittered = SimplicialMesh(
        grid.vertices + rng.normal(scale=0.22, size=grid.vertices.shape), grid.elements
    )
    assert jittered.boundary_face_skipped.any()
    for mesh in (cube, jittered):
        vertices = [None, *np.unique(mesh.boundary_faces)[::5].tolist()]
        for p in rng.uniform(0.1, 0.9, size=(4, 3)):
            _, dists = oracle.closest_boundary_candidates(mesh, p)
            for distance, tol in ((dists.min(), 1e-9), (np.median(dists), 0.05)):
                for v in vertices:
                    want = ref_co_minimal_faces(mesh, p, distance, tol, v)
                    assert oracle.co_minimal_faces(mesh, p, distance, tol, v) == want
