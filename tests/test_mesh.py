import numpy as np
import pytest
from conftest import ref_closest_point_on_face, ref_pseudo_normal

from boundarypath import geometry, shapes
from boundarypath.errors import DegenerateFace, NonManifold, ZeroNormal
from boundarypath.mesh import (
    BOUNDARY,
    FEATURE_TOL,
    BoundaryFeature,
    SimplicialMesh,
    build_adjacency,
    local_faces,
)
from boundarypath.traversal import exit_face_selection, make_ray_frame


def two_glued_tets():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    elems = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    return SimplicialMesh(verts, elems)


def test_single_tet_all_boundary(tet):
    assert np.all(tet.adjacency == BOUNDARY)
    assert tet.n_boundary_faces == 4


def test_glued_tets_adjacency():
    mesh = two_glued_tets()
    # exactly one interior face each, pointing at the other element
    assert (mesh.adjacency[0] != BOUNDARY).sum() == 1
    assert (mesh.adjacency[1] != BOUNDARY).sum() == 1
    assert 1 in mesh.adjacency[0] and 0 in mesh.adjacency[1]
    assert mesh.n_boundary_faces == 6


def test_adjacency_symmetric(grid3d):
    mesh = grid3d
    for e in range(mesh.n_elements):
        for k in range(4):
            nb = mesh.adjacency[e, k]
            if nb == BOUNDARY:
                continue
            back = mesh.adj_local[e, k]
            assert mesh.adjacency[nb, back] == e


def test_nonmanifold_rejected():
    elems = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(NonManifold):
        build_adjacency(elems)


def ref_build_adjacency(elements):
    """build_adjacency with a lexsort over every vertex of the face key:
    the reference for the packed two-key sort."""
    elements = np.asarray(elements, dtype=np.int64)
    n_elem, nv = elements.shape
    keys = np.sort(elements[:, np.asarray(local_faces(nv - 1))], axis=2)
    keys = keys.reshape(n_elem * nv, nv - 1)
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    same = np.all(sorted_keys[1:] == sorted_keys[:-1], axis=1)
    third = np.flatnonzero(same[1:] & same[:-1])
    if len(third):
        row = int(order[third + 2].min())
        raise NonManifold([int(g) for g in keys[row]], [row // nv])
    a, b = order[:-1][same], order[1:][same]
    adjacency = np.full(n_elem * nv, BOUNDARY, dtype=np.int32)
    adj_local = np.full(n_elem * nv, -1, dtype=np.int8)
    adjacency[a], adj_local[a] = b // nv, b % nv
    adjacency[b], adj_local[b] = a // nv, a % nv
    return adjacency.reshape(n_elem, nv), adj_local.reshape(n_elem, nv)


def adjacency_outcome(build, elements):
    try:
        return build(elements)
    except NonManifold as exc:
        return exc.face, exc.owners


def test_build_adjacency_matches_full_key_sort(rng):
    spiral = shapes.spiral_bar(90, 6, 6, thickness=0.25, pitch=0.15, total_angle=3.6 * np.pi)
    inputs = [spiral.elements, shapes.box_grid(3, 3, 3).elements]
    inputs += [shapes.folded_strip(30, 3).elements, np.empty((0, 4), dtype=np.int64)]
    # random elements over a few vertices: many shared and non-manifold
    # faces, and keys offset from vertex 0
    for nv in (3, 4):
        for _ in range(200):
            elems = rng.integers(0, 9, size=(int(rng.integers(1, 12)), nv)) + rng.integers(0, 50)
            inputs.append(elems[np.all(np.diff(np.sort(elems), axis=1) > 0, axis=1)])
    n_bad = 0
    for elems in inputs:
        got = adjacency_outcome(build_adjacency, elems)
        ref = adjacency_outcome(ref_build_adjacency, elems)
        n_bad += isinstance(ref[0], tuple)
        assert len(got) == len(ref) and all(np.array_equal(g, r) for g, r in zip(got, ref))
    assert n_bad > 20  # the NonManifold report was exercised


def test_adjacency_order_independent(grid2d, rng):
    perm = rng.permutation(grid2d.n_elements)
    shuffled = SimplicialMesh(grid2d.vertices, grid2d.elements[perm])
    # same multiset of boundary faces regardless of element order
    orig = {tuple(sorted(f)) for f in grid2d.boundary_faces}
    new = {tuple(sorted(f)) for f in shuffled.boundary_faces}
    assert orig == new


def test_cube_boundary_count(cube):
    assert cube.n_boundary_faces == 12


def test_boundary_closure(grid3d, folded3d):
    # closed surface: outward area vectors sum to zero
    for mesh in (grid3d, folded3d):
        total = np.zeros(mesh.dim)
        area = 0.0
        for f in range(mesh.n_boundary_faces):
            n = mesh.face_area_normals[f]
            total += n
            area += np.linalg.norm(n)
        assert np.linalg.norm(total) <= 1e-9 * area


def test_boundary_normals_outward(tet):
    centroid = tet.vertices.mean(axis=0)
    for f in range(tet.n_boundary_faces):
        face_center = tet.vertices[tet.boundary_faces[f]].mean(axis=0)
        assert np.dot(tet.face_area_normals[f], face_center - centroid) > 0


def test_inverted_flags():
    verts = np.array([[0, 0], [1, 0], [0, 1]], float)
    mesh = SimplicialMesh(verts, np.array([[0, 2, 1]]))
    assert mesh.inverted_flags[0]
    assert mesh.element_skipped(0)


def test_degenerate_flags():
    verts = np.array([[0, 0], [1, 0], [2, 0]], float)
    mesh = SimplicialMesh(verts, np.array([[0, 1, 2]]))
    assert mesh.degenerate_flags[0] and not mesh.inverted_flags[0]
    assert mesh.element_skipped(0)


def test_element_contains(cube):
    center = np.full(3, 0.5)
    assert any(cube.element_contains(e, center, 1e-10) for e in range(5))
    assert not any(cube.element_contains(e, [2.0, 0.5, 0.5], 0.0) for e in range(5))


def test_closest_point_on_face_features(tet):
    # face containing (1,0,0),(0,1,0),(0,0,1): query far past a vertex
    for f in range(tet.n_boundary_faces):
        gids = tet.boundary_faces[f]
        if 0 not in gids:
            q, feat = tet.closest_point_on_face(np.array([3.0, 0.0, 0.0]), f)
            assert feat.kind == "vertex"
            assert np.allclose(q, [1, 0, 0])
            break


def ericson_region(bary):
    """The region of Ericson's walk that a reference barycentric triple
    names: 'a', 'b' or 'c' for a vertex, 'ab', 'ac' or 'bc' for an edge,
    'abc' for the face; coordinates outside the region are exact zeros."""
    return "".join(name for name, b in zip("abc", bary) if b != 0.0)


def test_closest_point_on_face_equals_ericson_reference():
    # points around each face of a jittered grid: past each vertex, beyond
    # each edge, over the interior, and at random, at many scales; the
    # point must equal geometry.closest_point_on_triangle's bit for bit
    rng = np.random.default_rng(3)
    base = shapes.box_grid(2, 2, 2)
    mesh = SimplicialMesh(base.vertices + rng.normal(scale=0.05, size=base.vertices.shape), base.elements)
    regions = set()
    for f in range(mesh.n_boundary_faces):
        a, b, c = tri = mesh.vertices[mesh.boundary_faces[f]]
        n = np.cross(b - a, c - a)
        centroid = tri.mean(axis=0)
        targets = [*tri, 0.5 * (a + b), 0.5 * (a + c), 0.5 * (b + c), centroid]
        for target in targets:
            for scale in (1e-9, 1e-3, 1.0, 10.0):
                away = target - centroid
                for p in (
                    target + scale * away + scale * rng.normal() * n,
                    target + scale * rng.normal(size=3),
                ):
                    q, _ = mesh.closest_point_on_face(p, f)
                    ref, bary = geometry.closest_point_on_triangle(p, a, b, c)
                    assert np.array_equal(q, ref) and q.dtype == ref.dtype, (f, p)
                    regions.add(ericson_region(bary))
    assert regions == {"a", "b", "c", "ab", "ac", "bc", "abc"}


def test_face_features_made_once_per_face(cube):
    mesh = SimplicialMesh(cube.vertices, cube.elements)
    for f in range(mesh.n_boundary_faces):
        centroid = mesh.vertices[mesh.boundary_faces[f]].mean(axis=0)
        (_, first), (_, again) = (
            mesh.closest_point_on_face(centroid + 1e-3 * k * mesh.face_unit_normals[f], f)
            for k in (1, 2)
        )
        assert first.kind == "face" and first.face_id == f and type(first.face_id) is int
        assert again is first


def test_closest_point_face_interior(cube):
    faces = [
        f
        for f in range(cube.n_boundary_faces)
        if np.allclose(cube.vertices[cube.boundary_faces[f]][:, 2], 0.0)
    ]
    p = np.array([0.4, 0.45, 0.5])
    hits = [cube.closest_point_on_face(p, f) for f in faces]
    best = min(hits, key=lambda h: np.linalg.norm(p - h[0]))
    assert np.allclose(best[0], [0.4, 0.45, 0.0])


def test_degenerate_face_raises():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0]], dtype=float
    )
    elems = np.array([[0, 1, 2, 3], [1, 4, 2, 3]])
    mesh = SimplicialMesh(verts, elems)
    # squash one boundary face to zero area
    v = mesh.vertices.copy()
    v[4] = v[1]
    mesh.set_vertices(v)
    bad = next(
        f
        for f in range(mesh.n_boundary_faces)
        if np.linalg.norm(mesh.face_area_normals[f]) == 0.0
    )
    with pytest.raises(DegenerateFace):
        mesh.closest_point_on_face(np.array([5.0, 5.0, 5.0]), bad)


def test_pseudo_normal_face(cube):
    for f in range(cube.n_boundary_faces):
        verts = cube.vertices[cube.boundary_faces[f]]
        if np.allclose(verts[:, 0], 1.0):
            from boundarypath.mesh import BoundaryFeature

            n = cube.pseudo_normal(BoundaryFeature("face", f))
            assert np.allclose(n, [1, 0, 0])
            return
    pytest.fail("no +x face found")


def test_pseudo_normal_cube_edge(cube):
    # edge shared by the +x and +y sides averages to (1,1,0)/sqrt(2)
    from boundarypath.mesh import BoundaryFeature

    vids = [
        i
        for i, v in enumerate(cube.vertices)
        if v[0] == 1.0 and v[1] == 1.0
    ]
    assert len(vids) == 2
    f = cube.boundary_faces_of_edge(vids[0], vids[1])
    assert len(f) == 2
    n = cube.pseudo_normal(BoundaryFeature("edge", f[0], (vids[0], vids[1])))
    assert np.allclose(n, np.array([1, 1, 0]) / np.sqrt(2), atol=1e-12)


def test_pseudo_normal_regular_tet_vertex():
    from boundarypath.mesh import BoundaryFeature

    mesh = shapes.single_tet()
    fids = mesh.boundary_faces_of_vertex(1)
    expected = sum(mesh.face_area_normals[f] for f in fids)
    expected = expected / np.linalg.norm(expected)
    n = mesh.pseudo_normal(BoundaryFeature("vertex", fids[0], (1,)))
    assert np.allclose(n, expected)


def test_pseudo_normal_zero_raises():
    # two back-to-back triangles: boundary edges with exactly opposite normals
    verts = np.array([[0, 0], [1, 0], [0, 1]], float)
    elems = np.array([[0, 1, 2]])
    mesh = SimplicialMesh(verts, elems)
    from boundarypath.mesh import BoundaryFeature

    class Fake:
        kind = "edge"
        verts = (0, 1)

    # fabricate a degenerate sum by summing a normal with its negation
    n0 = mesh.face_area_normals[0]
    assert np.linalg.norm(n0) > 0  # sanity; the ZeroNormal path needs real fixtures
    with pytest.raises(ValueError):
        mesh.pseudo_normal(BoundaryFeature("nope", 0))


def test_has_inverted_interior():
    pleated = shapes.pleated_strip()
    assert pleated.has_inverted_interior
    flipped = shapes.flipped_corner_grid()
    # its single inverted element owns boundary faces, so no interior inversion
    assert flipped.inverted_flags.any() and not flipped.has_inverted_interior


def test_set_vertices_refreshes_geometry(tri):
    mesh = SimplicialMesh(tri.vertices, tri.elements)
    assert not mesh.inverted_flags[0]
    v = mesh.vertices.copy()
    v[[1, 2]] = v[[2, 1]]
    mesh.set_vertices(v)
    assert mesh.inverted_flags[0]


@pytest.mark.parametrize("how", ["constructor", "set_vertices"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_vertices_rejected(tri, how, bad):
    mesh = SimplicialMesh(tri.vertices, tri.elements)
    v = tri.vertices.copy()
    v[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        if how == "constructor":
            SimplicialMesh(v, tri.elements)
        else:
            mesh.set_vertices(v)
    assert np.array_equal(mesh.vertices, tri.vertices)


# -- array-built topology and volumes against per-element references --------


def reference_topology(elements, dim):
    """Adjacency and boundary faces found one element at a time, with a
    dict of face keys; boundary faces in (element, local face) order."""
    adjacency = np.full(elements.shape, BOUNDARY)
    adj_local = np.full(elements.shape, -1)
    open_faces = {}
    for e, elem in enumerate(elements.tolist()):
        for k, idx in enumerate(local_faces(dim)):
            key = tuple(sorted(elem[i] for i in idx))
            if key in open_faces:
                o, ok = open_faces.pop(key)
                adjacency[e, k], adj_local[e, k] = o, ok
                adjacency[o, ok], adj_local[o, ok] = e, k
            else:
                open_faces[key] = (e, k)
    faces, owners, owner_local = [], [], []
    for e, elem in enumerate(elements.tolist()):
        for k, idx in enumerate(local_faces(dim)):
            if adjacency[e, k] == BOUNDARY:
                faces.append([elem[i] for i in idx])
                owners.append(e)
                owner_local.append(k)
    return adjacency, adj_local, faces, owners, owner_local


def reference_feature_maps(boundary_faces, dim):
    """Boundary faces of each vertex and edge, and the sorted boundary
    neighbors of each vertex, as dicts filled one face at a time."""
    vertex_faces, edge_faces, neighbors = {}, {}, {}
    for fid, face in enumerate(boundary_faces.tolist()):
        for g in face:
            vertex_faces.setdefault(g, []).append(fid)
        for i in range(dim if dim == 3 else 1):
            a, b = face[i], face[(i + 1) % dim]
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(fid)
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)
    return vertex_faces, edge_faces, {g: sorted(n) for g, n in neighbors.items()}


def scrambled(mesh, seed, scale):
    """Positions of mesh jittered until elements invert, with element 0
    made exactly flat (all its vertices share the last coordinate)."""
    rng = np.random.default_rng(seed)
    v = mesh.vertices + rng.normal(scale=scale, size=mesh.vertices.shape)
    v[mesh.elements[0], -1] = 0.0
    return v


MESHES = {
    "folded_bar": lambda: shapes.folded_bar(8, 2, 2),
    "deformed_blob": lambda: shapes.deformed_blob(np.random.default_rng(5)),
    "flipped_corner_grid": shapes.flipped_corner_grid,
}


@pytest.fixture(params=sorted(MESHES))
def base_and_scrambled(request):
    base = MESHES[request.param]()
    return base, scrambled(base, 7, 0.2 * np.ptp(base.vertices, axis=0).min())


def test_signed_volumes_match_reference(base_and_scrambled):
    base, v = base_and_scrambled
    for verts in (base.vertices, v):
        mesh = SimplicialMesh(verts, base.elements)
        ref = np.array([geometry.signed_volume_of(verts[el]) for el in base.elements])
        assert np.array_equal(mesh.signed_volumes, ref)
        assert np.array_equal(mesh.inverted_flags, ref < 0.0)
        assert np.array_equal(mesh.degenerate_flags, ref == 0.0)
        assert np.array_equal(mesh.skipped_flags, ref <= 0.0)
    assert mesh.inverted_flags.any() and mesh.degenerate_flags[0]


def test_topology_matches_reference(base_and_scrambled):
    base, _ = base_and_scrambled
    adjacency, adj_local, faces, owners, local = reference_topology(base.elements, base.dim)
    assert np.array_equal(base.adjacency, adjacency)
    assert np.array_equal(base.adj_local, adj_local)
    assert base.boundary_faces.tolist() == faces
    assert base.boundary_owner.tolist() == owners
    assert base.boundary_owner_local.tolist() == local


def test_feature_maps_match_reference(base_and_scrambled):
    base, _ = base_and_scrambled
    vertex_faces, edge_faces, neighbors = reference_feature_maps(base.boundary_faces, base.dim)
    for g in range(-1, base.n_vertices + 1):
        assert base.boundary_faces_of_vertex(g) == vertex_faces.get(g, [])
        assert base.boundary_vertex_neighbors(g) == neighbors.get(g, [])
    for (a, b), fids in edge_faces.items():
        assert base.boundary_faces_of_edge(a, b) == base.boundary_faces_of_edge(b, a) == fids
    interior = {tuple(sorted(map(int, e[:2]))) for e in base.elements} - set(edge_faces)
    for a, b in interior:
        assert base.boundary_faces_of_edge(a, b) == []


def test_boundary_edges_match_reference(base_and_scrambled):
    base, _ = base_and_scrambled
    faces = base.boundary_faces
    if base.dim == 2:
        ref = faces
    else:
        # the unique sorted vertex pairs of all face edges
        ref = np.unique(np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1), axis=0)
    assert base.boundary_edges.dtype == ref.dtype
    assert np.array_equal(base.boundary_edges, ref)


def test_set_vertices_matches_fresh_mesh(base_and_scrambled):
    base, v = base_and_scrambled
    mesh = SimplicialMesh(base.vertices, base.elements)
    mesh.set_vertices(v)
    fresh = SimplicialMesh(v, base.elements)
    for name in (
        "adjacency", "adj_local", "boundary_faces", "boundary_owner", "boundary_owner_local",
        "signed_volumes", "inverted_flags", "degenerate_flags", "skipped_flags", "bary_rows",
        "boundary_face_skipped", "has_inverted_interior",
        "face_diameters", "face_degenerate", "face_area_normals", "face_unit_normals",
        "face_bary_floors",
    ):
        assert np.array_equal(getattr(mesh, name), getattr(fresh, name), equal_nan=True), name
    if mesh.dim == 3:
        assert np.array_equal(mesh.face_edge_normals, fresh.face_edge_normals, equal_nan=True)
    else:
        assert mesh.face_edge_normals is None and fresh.face_edge_normals is None
    for g in range(mesh.n_vertices):
        assert mesh.boundary_faces_of_vertex(g) == fresh.boundary_faces_of_vertex(g)
        assert mesh.boundary_vertex_neighbors(g) == fresh.boundary_vertex_neighbors(g)
    dim = mesh.dim
    edges = {tuple(f[[i, (i + 1) % dim]]) for f in mesh.boundary_faces for i in range(dim)}
    assert edges
    for a, b in edges:
        assert mesh.boundary_faces_of_edge(a, b) == fresh.boundary_faces_of_edge(a, b) != []


# -- cached per-element and per-face geometry against the scalar kernels ------


def ref_element_contains(mesh, e, p, tol):
    """element_contains as one barycentric solve per call."""
    b = geometry.barycentric_coords(p, mesh.vertices[mesh.elements[e]])
    return bool(np.all(np.isfinite(b)) and np.all(b >= -tol))


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def float_dot(x, y):
    """The kernel's dot product: Python floats, summed left to right."""
    return sum(a * b for a, b in zip(x, y))


def ref_exit_face_selection(mesh, element, in_local, frame, epsilon_i):
    """exit_face_selection with one dot product per projected coordinate,
    in the kernel's float arithmetic, and the sign tests on numpy
    scalars."""
    elem = mesh.elements[element]
    order = local_faces(mesh.dim)[in_local]
    verts = mesh.vertices
    o = np.array(frame.origin)
    eps = epsilon_i
    if mesh.dim == 3:
        u, v = frame.uv
        proj = []
        for i in order:
            x = (verts[elem[i]] - o).tolist()
            proj.append((float_dot(x, u), float_dot(x, v)))
        x3 = (verts[elem[in_local]] - o).tolist()
        p3 = (float_dot(x3, u), float_dot(x3, v))
        e01 = (proj[1][0] - proj[0][0], proj[1][1] - proj[0][1])
        e02 = (proj[2][0] - proj[0][0], proj[2][1] - proj[0][1])
        det = det2(e01, e02)
        if abs(det) <= eps:
            return [int(k) for k in order]
        sgn = np.sign(det)
        d = [sgn * det2(p3, q) for q in proj]
        out = []
        if d[1] >= -eps and d[2] <= eps:
            out.append(int(order[0]))
        if d[2] >= -eps and d[0] <= eps:
            out.append(int(order[1]))
        if d[0] >= -eps and d[1] <= eps:
            out.append(int(order[2]))
        return out
    (u,) = frame.uv
    p0 = float_dot((verts[elem[order[0]]] - o).tolist(), u)
    p1 = float_dot((verts[elem[order[1]]] - o).tolist(), u)
    p2 = float_dot((verts[elem[in_local]] - o).tolist(), u)
    out = []
    if min(p1, p2) <= eps and max(p1, p2) >= -eps:
        out.append(int(order[0]))
    if min(p0, p2) <= eps and max(p0, p2) >= -eps:
        out.append(int(order[1]))
    return out


def both_meshes(base, v):
    return SimplicialMesh(base.vertices, base.elements), SimplicialMesh(v, base.elements)


def test_bary_rows_invert_the_edge_matrix(base_and_scrambled):
    for mesh in both_meshes(*base_and_scrambled):
        x = mesh.vertices[mesh.elements]
        edges = (x[:, 1:] - x[:, :1]).swapaxes(1, 2)
        ok = ~mesh.degenerate_flags
        eye = np.broadcast_to(np.eye(mesh.dim), edges[ok].shape)
        assert np.allclose(mesh.bary_rows[ok] @ edges[ok], eye, atol=1e-8)
        assert np.isnan(mesh.bary_rows[~ok]).all()


def test_face_cache_matches_per_face_formulas(base_and_scrambled):
    """Bit for bit: the feature tolerance and the culling thresholds sit on
    these values."""
    for mesh in both_meshes(*base_and_scrambled):
        for f in range(mesh.n_boundary_faces):
            verts = mesh.vertices[mesh.boundary_faces[f]]
            edges = [verts[(i + 1) % len(verts)] - verts[i] for i in range(mesh.dim if mesh.dim == 3 else 1)]
            assert mesh.face_diameters[f] == max(np.linalg.norm(e) for e in edges)
            n = mesh.face_area_normals[f]
            if mesh.dim == 3:
                assert np.array_equal(n, geometry.triangle_area_normal(*verts))
            else:
                assert np.array_equal(n, geometry.edge_outward_normal_2d(*verts))
            assert np.array_equal(mesh.face_unit_normals[f], n / np.linalg.norm(n))
            if mesh.dim == 3:
                for k, e in enumerate(edges):
                    assert np.array_equal(mesh.face_edge_normals[f, k], np.cross(-n / np.linalg.norm(n), e))
        assert not mesh.face_degenerate.any()


def test_element_contains_matches_solve(base_and_scrambled):
    rng = np.random.default_rng(11)
    checked = inside = 0
    for mesh in both_meshes(*base_and_scrambled):
        for e in range(mesh.n_elements):
            x = mesh.vertices[mesh.elements[e]]
            w = rng.dirichlet(np.ones(mesh.dim + 1), size=6)
            random = np.concatenate([w @ x, x.mean(axis=0) + rng.normal(scale=0.3, size=(6, mesh.dim))])
            for p in random:
                for tol in (0.0, 1e-10):
                    got = mesh.element_contains(e, p, tol)
                    assert got == ref_element_contains(mesh, e, p, tol), (e, p, tol)
                    checked += 1
                    inside += got
            # on vertices and edge midpoints the coordinates are zero up to
            # roundoff, which only the tie tolerance makes a verdict of
            mids = [0.5 * (x[i] + x[j]) for i in range(len(x)) for j in range(i)]
            for p in [*x, *mids]:
                got = mesh.element_contains(e, p, 1e-10)
                assert got == ref_element_contains(mesh, e, p, 1e-10), (e, p)
                assert got != mesh.degenerate_flags[e]
    assert inside > 0 and inside < checked


def test_flat_element_contains_nothing(base_and_scrambled):
    base, v = base_and_scrambled
    mesh = SimplicialMesh(v, base.elements)
    assert mesh.degenerate_flags[0]
    x = mesh.vertices[mesh.elements[0]]
    for p in [*x, x.mean(axis=0)]:
        for tol in (0.0, 1e-10, 1.0):
            assert not mesh.element_contains(0, p, tol)
            assert not ref_element_contains(mesh, 0, p, tol)


def feature_probes(mesh, f, rng):
    """Query points for face f: random ones around it, and points whose
    closest point sits on a vertex or an edge, or just inside or outside
    the FEATURE_TOL band around one, both off the face and in its plane,
    where the closest point is the query point itself."""
    verts = mesh.vertices[mesh.boundary_faces[f]]
    center = verts.mean(axis=0)
    n = mesh.face_unit_normals[f]
    diam = mesh.face_diameters[f]
    points = list(center + rng.normal(scale=diam, size=(8, mesh.dim)))
    # in 2D a face is one edge, whose midpoint is its center
    on_edges = []
    if mesh.dim == 3:
        t = [0.5, rng.random()]
        on_edges = [verts[i - 1] + t[j] * (verts[i] - verts[i - 1]) for j in range(2) for i in range(3)]
    for a, heights in [*((v, (0.0, 0.1 * diam)) for v in verts), *((e, (0.0,)) for e in on_edges)]:
        inward = (center - a) / np.linalg.norm(center - a)
        for k in (0.0, 0.5, 1.0, 2.0, 3.0, 1e3):
            for height in heights:
                points.append(a + k * FEATURE_TOL * diam * inward + height * n)
    return points


def test_closest_point_on_face_matches_reference(base_and_scrambled):
    rng = np.random.default_rng(12)
    kinds = set()
    for mesh in both_meshes(*base_and_scrambled):
        for f in range(mesh.n_boundary_faces):
            for p in feature_probes(mesh, f, rng):
                q, feature = mesh.closest_point_on_face(p, f)
                q_ref, feature_ref = ref_closest_point_on_face(mesh, p, f)
                assert np.array_equal(q, q_ref) and feature == feature_ref, (f, p)
                kinds.add(feature.kind)
    assert kinds == ({"vertex", "edge", "face"} if mesh.dim == 3 else {"vertex", "face"})


def test_pseudo_normal_matches_per_face_cross(base_and_scrambled):
    for mesh in both_meshes(*base_and_scrambled):
        features = [BoundaryFeature("face", f) for f in range(mesh.n_boundary_faces)]
        features += [BoundaryFeature("vertex", 0, (int(g),)) for g in np.unique(mesh.boundary_faces)]
        if mesh.dim == 3:
            features += [BoundaryFeature("edge", 0, (int(a), int(b))) for a, b in mesh.boundary_edges]
        for feature in features:
            try:
                ref = ref_pseudo_normal(mesh, feature)
            except ZeroNormal:
                with pytest.raises(ZeroNormal):
                    mesh.pseudo_normal(feature)
                continue
            assert np.array_equal(mesh.pseudo_normal(feature), ref), feature


def test_degenerate_face_flag_matches_reference():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0]], float)
    mesh = SimplicialMesh(verts, np.array([[0, 1, 2, 3], [1, 4, 2, 3]]))
    v = mesh.vertices.copy()
    v[4] = v[1]
    mesh.set_vertices(v)
    assert mesh.face_degenerate.any() and not mesh.face_degenerate.all()
    for f in range(mesh.n_boundary_faces):
        p = np.array([5.0, 5.0, 5.0])
        if mesh.face_degenerate[f]:
            for fn in (mesh.closest_point_on_face, lambda p, f: ref_closest_point_on_face(mesh, p, f)):
                with pytest.raises(DegenerateFace):
                    fn(p, f)
        else:
            assert ref_closest_point_on_face(mesh, p, f)[1] == mesh.closest_point_on_face(p, f)[1]


def test_exit_face_selection_matches_reference(base_and_scrambled):
    rng = np.random.default_rng(13)
    grazing = 0
    for mesh in both_meshes(*base_and_scrambled):
        for e in range(mesh.n_elements):
            x = mesh.vertices[mesh.elements[e]]
            mids = [0.5 * (x[i] + x[j]) for i in range(len(x)) for j in range(i)]
            for k in range(mesh.dim + 1):
                face = x[list(local_faces(mesh.dim)[k])]
                s = rng.dirichlet(np.ones(mesh.dim)) @ face
                rays = [(s, t) for t in [*x, *mids, x.mean(axis=0) + rng.normal(size=mesh.dim)]]
                if mesh.dim == 3:
                    # along the entry face's plane: its projection is flat
                    rays.append((s, s + face[1] - face[0]))
                for origin, target in rays:
                    if np.linalg.norm(target - origin) <= 1e-9:
                        continue
                    frame = make_ray_frame(origin, target)
                    for eps in (0.0, 1e-10):
                        got = exit_face_selection(mesh, e, k, frame, eps)
                        assert got == ref_exit_face_selection(mesh, e, k, frame, eps), (e, k)
                    if mesh.dim == 3:
                        proj = (face - origin) @ np.transpose(frame.uv)
                        grazing += abs(det2(proj[1] - proj[0], proj[2] - proj[0])) <= 1e-10
    assert mesh.dim == 2 or grazing > 0
