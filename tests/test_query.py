from dataclasses import replace

import numpy as np
import pytest
from test_query_order import STRIPS_AND_INVERTED, jittered_bar

from boundarypath import oracle, shapes
from boundarypath.bvh import build_boundary_bvh
from boundarypath.mesh import BoundaryFeature, SimplicialMesh
from boundarypath.query import (
    QueryConfig,
    feasible_region_check,
    shortest_path_to_boundary,
)


def test_cube_center(cube):
    bvh = build_boundary_bvh(cube)
    res = shortest_path_to_boundary(cube, bvh, np.full(3, 0.5))
    assert res is not None
    assert res.distance == pytest.approx(0.5, abs=1e-12)
    # each cube side is two triangles; the center's projection can land on
    # a side's interior or exactly on its split diagonal
    assert res.feature.kind in ("face", "edge")


def test_result_soundness(folded2d, rng):
    from boundarypath.traversal import is_valid_path

    bvh = build_boundary_bvh(folded2d)
    pts, els = shapes.random_interior_points(folded2d, rng, 30)
    for p, e in zip(pts, els):
        res = shortest_path_to_boundary(folded2d, bvh, p, p_element=int(e))
        assert res is not None
        # re-check independently: the returned segment is a valid path
        assert is_valid_path(folded2d, res.point, res.face, p).valid
        assert res.distance == pytest.approx(np.linalg.norm(res.point - p))
        # a result's point is a read-only view of its stored coordinates
        assert res.point.shape == (2,) and not res.point.flags.writeable


def test_fold_rejects_nearest_flap(folded2d, rng):
    # somewhere in the overlap region the Euclidean-nearest boundary point
    # is on the covering flap and must lose to a farther valid candidate
    bvh = build_boundary_bvh(folded2d)
    pts, els = shapes.random_interior_points(folded2d, rng, 150)
    beaten = 0
    for p, e in zip(pts, els):
        res = shortest_path_to_boundary(folded2d, bvh, p, p_element=int(e))
        _, dists = oracle.closest_boundary_candidates(folded2d, p)
        if res is not None and res.distance > dists.min() + 1e-9:
            beaten += 1
    assert beaten > 0


def test_matches_oracle(grid2d, folded3d, rng):
    for mesh in (grid2d, folded3d):
        bvh = build_boundary_bvh(mesh)
        pts, els = shapes.random_interior_points(mesh, rng, 40)
        for p, e in zip(pts, els):
            res = shortest_path_to_boundary(mesh, bvh, p, p_element=int(e))
            ref = oracle.oracle_closest_boundary(mesh, p)
            assert (res is None) == (ref is None)
            if res is not None:
                assert res.distance == pytest.approx(ref[2], abs=1e-9)
                assert res.face in oracle.co_minimal_faces(mesh, p, res.distance)


def test_culling_neutral(folded2d, rng):
    bvh = build_boundary_bvh(folded2d)
    pts, els = shapes.random_interior_points(folded2d, rng, 40)
    on = QueryConfig(enable_culling=True)
    off = QueryConfig(enable_culling=False)
    for p, e in zip(pts, els):
        a = shortest_path_to_boundary(folded2d, bvh, p, p_element=int(e), config=on)
        b = shortest_path_to_boundary(folded2d, bvh, p, p_element=int(e), config=off)
        assert a.face == b.face and a.distance == b.distance
        assert np.array_equal(a.point, b.point)
        assert a.traversals_run <= b.traversals_run


def test_stats_sanity(folded3d, rng):
    bvh = build_boundary_bvh(folded3d)
    pts, els = shapes.random_interior_points(folded3d, rng, 20)
    for p, e in zip(pts, els):
        res = shortest_path_to_boundary(folded3d, bvh, p, p_element=int(e))
        assert res.traversals_run <= res.bvh_candidates_tested


def test_skipped_element_point_returns_none(caplog):
    mesh = shapes.pleated_strip()
    bvh = build_boundary_bvh(mesh)
    inverted = int(np.flatnonzero(mesh.inverted_flags)[0])
    p = mesh.vertices[mesh.elements[inverted]].mean(axis=0)
    res = shortest_path_to_boundary(mesh, bvh, p, p_element=inverted)
    assert res is None


def test_inverted_interior_auto_backward():
    mesh = shapes.pleated_strip()
    bvh = build_boundary_bvh(mesh)
    rng = np.random.default_rng(5)
    pts, els = shapes.random_interior_points(mesh, rng, 30)
    for p, e in zip(pts, els):
        res = shortest_path_to_boundary(mesh, bvh, p, p_element=int(e))
        ref = oracle.oracle_closest_boundary(mesh, p)
        assert (res is None) == (ref is None)
        if res is not None:
            assert res.distance == pytest.approx(ref[2], abs=1e-9)


def test_boundary_vertex_self_query(folded2d):
    # querying from a boundary vertex with that vertex excluded never
    # returns the vertex itself
    mesh = folded2d
    bvh = build_boundary_bvh(mesh)
    vids = sorted({int(v) for f in mesh.boundary_faces for v in f})[:40]
    for v in vids:
        p = mesh.vertices[v]
        res = shortest_path_to_boundary(mesh, bvh, p, exclude_vertex=v)
        if res is None:
            continue
        assert np.linalg.norm(res.point - p) > 1e-12
        assert v not in mesh.boundary_faces[res.face]


def test_inverted_boundary_faces_skipped():
    mesh = shapes.flipped_corner_grid()
    bvh = build_boundary_bvh(mesh)
    skipped = set(np.flatnonzero(mesh.boundary_face_skipped))
    assert skipped
    rng = np.random.default_rng(3)
    pts, els = shapes.random_interior_points(mesh, rng, 40)
    for p, e in zip(pts, els):
        res = shortest_path_to_boundary(mesh, bvh, p, p_element=int(e))
        if res is not None:
            assert res.face not in skipped


def test_feasible_region_face_always_true(cube):
    feat = BoundaryFeature("face", 0)
    s = cube.vertices[cube.boundary_faces[0]].mean(axis=0)
    assert feasible_region_check(cube, s, feat, np.full(3, 0.5), 0.01)


def test_feasible_region_cube_corner(cube):
    # corner (1,1,1): only points in the corner's outward normal cone can
    # have the corner as their closest boundary point; any point past an
    # incident edge's perpendicular plane has a closer edge point instead
    corner = next(
        i for i, v in enumerate(cube.vertices) if np.allclose(v, [1, 1, 1])
    )
    fid = cube.boundary_faces_of_vertex(corner)[0]
    feat = BoundaryFeature("vertex", fid, (corner,))
    s = cube.vertices[corner]
    outward = s + np.array([0.2, 0.2, 0.2])
    assert feasible_region_check(cube, s, feat, outward, 0.01)
    past_edge = s + np.array([-0.5, 0.25, 0.25])
    assert not feasible_region_check(cube, s, feat, past_edge, 0.01)


def test_feasible_region_conservative(folded2d, rng):
    # culling never rejects the point's own closest valid candidate
    bvh = build_boundary_bvh(folded2d)
    pts, els = shapes.random_interior_points(folded2d, rng, 60)
    for p, e in zip(pts, els):
        res = shortest_path_to_boundary(folded2d, bvh, p, p_element=int(e))
        s, feat = folded2d.closest_point_on_face(p, res.face)
        assert feasible_region_check(folded2d, s, feat, p, 0.01)


def ref_feasible_region_check(mesh, s, feature, p, epsilon_r):
    """feasible_region_check with one np.dot and np.linalg.norm per vector,
    and the face normals and edge cross products computed per call: a pair
    of vectors a, b culls when dot(a, b) < -epsilon_r * |a| * |b|."""

    def outside(a, b):
        return float(np.dot(a, b)) < -epsilon_r * float(np.linalg.norm(a)) * float(np.linalg.norm(b))

    if feature.kind == "face":
        return True
    if feature.kind == "vertex":
        for nb in mesh.boundary_vertex_neighbors(feature.verts[0]):
            if outside(p - s, s - mesh.vertices[nb]):
                return False
        return True
    g0, g1 = feature.verts
    v0, v1 = mesh.vertices[g0], mesh.vertices[g1]
    if outside(p - v0, v1 - v0) or outside(p - v1, v0 - v1):
        return False
    fids = mesh.boundary_faces_of_edge(g0, g1)
    if len(fids) != 2:
        return True
    n_accord = n_other = None
    for fid in fids:
        tri = [int(g) for g in mesh.boundary_faces[fid]]
        k = tri.index(int(g0))
        n = mesh.face_area_normals[fid]
        n = n / np.linalg.norm(n)
        if tri[(k + 1) % 3] == int(g1):
            n_accord = -n
        else:
            n_other = -n
    if n_accord is None or n_other is None:
        return True
    if outside(p - s, np.cross(n_accord, v1 - v0)):
        return False
    return not outside(p - s, np.cross(n_other, v0 - v1))


def candidate_decisions(mesh, pts, epsilon_r):
    """(feature kind, feasible_region_check) of every boundary face's
    candidate for every point of pts."""
    out = []
    for p in pts:
        for f in range(mesh.n_boundary_faces):
            s, feat = mesh.closest_point_on_face(p, f)
            out.append((feat.kind, feasible_region_check(mesh, s, feat, p, epsilon_r)))
    return out


@pytest.mark.parametrize("epsilon_r", [0.0, 0.01])
def test_feasible_region_matches_reference(folded3d, rng, epsilon_r):
    # every candidate of seeded queries, so vertex and edge features of
    # both face orientations around an edge are covered
    pts, _ = shapes.random_interior_points(folded3d, rng, 40)
    kinds = {}
    for p in pts:
        for f in range(folded3d.n_boundary_faces):
            s, feat = folded3d.closest_point_on_face(p, f)
            got = feasible_region_check(folded3d, s, feat, p, epsilon_r)
            assert got == ref_feasible_region_check(folded3d, s, feat, p, epsilon_r), (f, p)
            kinds[feat.kind, got] = kinds.get((feat.kind, got), 0) + 1
    assert {("vertex", False), ("edge", False), ("edge", True)} <= set(kinds)


@pytest.mark.parametrize("mesh_name", ["folded3d", "folded2d"])
def test_feasible_region_scale_free(request, rng, mesh_name):
    # epsilon_r is a cosine bound, so scaling every coordinate by a power
    # of two, which is exact, must leave every decision as it was
    mesh = request.getfixturevalue(mesh_name)
    pts, _ = shapes.random_interior_points(mesh, rng, 20)
    want = candidate_decisions(mesh, pts, 0.01)
    assert ("vertex", False) in want
    for k in (-20, -10, 10, 20):
        scaled = SimplicialMesh(mesh.vertices * 2.0**k, mesh.elements)
        assert candidate_decisions(scaled, pts * 2.0**k, 0.01) == want, k


def test_radius_monotonicity(folded3d, rng):
    # candidates are validated in exact distance order and the first valid
    # one is returned, so no valid candidate is nearer than the answer:
    # observable via the final result being minimal among valid candidates
    bvh = build_boundary_bvh(folded3d)
    pts, els = shapes.random_interior_points(folded3d, rng, 10)
    for p, e in zip(pts, els):
        res = shortest_path_to_boundary(folded3d, bvh, p, p_element=int(e))
        ref = oracle.oracle_closest_boundary(mesh=folded3d, p=p)
        assert res.distance <= ref[2] + 1e-9


def test_spiral_bar_matches_oracle(rng):
    # interpenetrating turns at a radial offset: the nearest boundary sheet
    # often belongs to the unreachable other turn
    mesh = shapes.spiral_bar(20, 3, 3)
    assert not any(mesh.element_skipped(e) for e in range(mesh.n_elements))
    bvh = build_boundary_bvh(mesh)
    pts, els = shapes.random_interior_points(mesh, rng, 30)
    for p, e in zip(pts, els):
        res = shortest_path_to_boundary(mesh, bvh, p, p_element=int(e))
        ref = oracle.oracle_closest_boundary(mesh, p)
        assert res is not None and ref is not None
        assert res.distance == pytest.approx(ref[2], abs=1e-9)


def test_culling_disabled_for_self_queries(folded3d):
    # a boundary vertex's constrained nearest candidate can sit outside its
    # own feasible region (flat patch), so self-queries must not cull
    bvh = build_boundary_bvh(folded3d)
    bverts = np.unique(folded3d.boundary_faces)
    for v in bverts[:40]:
        v = int(v)
        e = int(np.argwhere(folded3d.elements == v)[0][0])
        on = shortest_path_to_boundary(
            folded3d, bvh, folded3d.vertices[v], p_element=e,
            config=QueryConfig(enable_culling=True), exclude_vertex=v,
        )
        off = shortest_path_to_boundary(
            folded3d, bvh, folded3d.vertices[v], p_element=e,
            config=QueryConfig(enable_culling=False), exclude_vertex=v,
        )
        assert on is not None and off is not None
        assert on.face == off.face and on.distance == off.distance


def _same_answer(a, b):
    if a is None or b is None:
        return a is b
    return a.face == b.face and a.distance == b.distance and np.array_equal(a.point, b.point)


@pytest.mark.parametrize("name", sorted(STRIPS_AND_INVERTED))
def test_culling_neutral_next_to_skipped_faces(name):
    """Culling keeps every candidate next to a skipped boundary face, so
    on the meshes with inverted elements it changes no answer."""
    mesh = STRIPS_AND_INVERTED[name]()
    bvh = build_boundary_bvh(mesh)
    on, off = QueryConfig(enable_culling=True), QueryConfig(enable_culling=False)
    for seed in (17, 0, 1, 2, 3):
        points, elems = shapes.random_interior_points(mesh, np.random.default_rng(seed), 120)
        for i, (p, e) in enumerate(zip(points, elems)):
            a = shortest_path_to_boundary(mesh, bvh, p, p_element=int(e), config=on)
            b = shortest_path_to_boundary(mesh, bvh, p, p_element=int(e), config=off)
            assert _same_answer(a, b), (seed, i)


def test_culling_keeps_the_answer_next_to_skipped_faces():
    """Point 87 of seed 17 on the jittered bar: its nearest reachable
    boundary point lies on edge (20, 10), next to the skipped faces 29 and
    30. Culling used to discard it and answer face 128 at 0.0699."""
    mesh = jittered_bar()
    points, elems = shapes.random_interior_points(mesh, np.random.default_rng(17), 120)
    assert mesh.boundary_face_skipped[[29, 30]].all()
    assert mesh.touches_skipped_face[[20, 10]].all()
    res = shortest_path_to_boundary(mesh, build_boundary_bvh(mesh), points[87], p_element=int(elems[87]))
    assert res.face == 28 and res.distance == pytest.approx(0.0427, abs=5e-5)
    ref = oracle.oracle_closest_boundary(mesh, points[87])
    assert res.distance == pytest.approx(ref[2], abs=1e-9)


# --- the edge-twin table that edge culling reads ------------------------------


def ref_edge_twin(mesh, face, k):
    """The twin of edge slot k of a boundary face as edge culling used to
    find it per check: the edge's faces from boundary_faces_of_edge, then
    each face's slot by a search of its vertex list. -1 where culling keeps
    the candidate."""
    n = mesh.boundary_faces.shape[1]
    m = 3 if mesh.dim == 3 else 1  # edge slots per face
    tri = mesh.boundary_faces[face].tolist()
    g0, g1 = tri[k], tri[(k + 1) % n]
    fids = mesh.boundary_faces_of_edge(g0, g1)
    if len(fids) != 2:
        return -1
    accord = other = None
    for fid in fids:
        tri = mesh.boundary_faces[fid].tolist()
        j = tri.index(g0)
        if tri[(j + 1) % n] == g1:
            accord = m * fid + j
        else:
            other = m * fid + (j - 1) % n
    if accord is None or other is None:
        return -1
    assert accord == m * face + k
    return other


TWIN_MESHES = {
    "box_grid": lambda: shapes.box_grid(2, 3, 2),
    "folded_bar": lambda: shapes.folded_bar(8, 2, 2),
    "spiral_bar": lambda: shapes.spiral_bar(12, 2, 2, thickness=0.25, total_angle=3.6 * np.pi, pitch=0.15),
    "rect_grid": lambda: shapes.rect_grid(4, 3),
    **STRIPS_AND_INVERTED,
}


@pytest.mark.parametrize("name", sorted(TWIN_MESHES))
def test_edge_twins_match_slot_search(name):
    mesh = TWIN_MESHES[name]()
    m = 3 if mesh.dim == 3 else 1  # edge slots per face
    twins = mesh.face_edge_twins
    assert twins.shape == (m * mesh.n_boundary_faces,)
    for face in range(mesh.n_boundary_faces):
        for k in range(m):
            assert twins[m * face + k] == ref_edge_twin(mesh, face, k), (face, k)
    paired = np.flatnonzero(twins >= 0)
    assert np.array_equal(twins[twins[paired]], paired)
    if mesh.dim == 3:
        # a closed surface: every edge is run by two faces, both ways
        assert len(paired) == len(twins)


def two_tets(second):
    """Tet (0, 1, 2, 3) and a second tet over the shared edge 0-1:
    vertices 3 and 7 lie above the z = 0 plane, 4 below, 5 and 6 off to
    the side."""
    verts = np.array(
        [
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.2, 1], [0.3, 0.2, -1],
            [0.5, -1, 0.5], [0.5, -1, -0.5], [0.2, 0.4, 0.8],
        ],
        dtype=float,
    )
    return SimplicialMesh(verts, np.array([[0, 1, 2, 3], second]))


def edge_0_1_slots(mesh):
    faces = mesh.boundary_faces.tolist()
    return [
        (f, k) for f, tri in enumerate(faces) for k in range(3)
        if {tri[k], tri[(k + 1) % 3]} == {0, 1}
    ]


def ring_decisions(mesh, face, k):
    """feasible_region_check on the midpoint of the face's edge slot k,
    for points on a ring around the edge."""
    g = mesh.boundary_faces[face].tolist()
    feature = BoundaryFeature("edge", face, (g[k], g[(k + 1) % 3]))
    s = mesh.vertices[[0, 1]].mean(axis=0)
    angles = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    ring = s + 0.3 * np.column_stack([np.zeros(24), np.cos(angles), np.sin(angles)])
    return [feasible_region_check(mesh, s, feature, p, 0.01) for p in ring]


def test_edge_without_twin_keeps_the_candidate():
    # the second tet shares the face (0, 1, 2), oriented as a neighbour
    paired = two_tets([1, 0, 2, 4])
    # a tet on the same side of that face, so that it orders the face as
    # the first tet does: the two boundary faces at edge 0-1 run it the
    # same way
    same_way = two_tets([0, 1, 2, 7])
    # a tet that shares only the edge: four boundary faces run it
    bowtie = two_tets([0, 1, 5, 6])
    cases = {paired: 2, same_way: 2, bowtie: 4}
    # no face is skipped, so culling reaches the edge test on every mesh
    assert not any(mesh.touches_skipped_face.any() for mesh in cases)
    for mesh, count in cases.items():
        slots = edge_0_1_slots(mesh)
        assert len(slots) == count
        for face, k in slots:
            want = ref_edge_twin(mesh, face, k)
            assert mesh.face_edge_twins[3 * face + k] == want
            assert (want >= 0) == (mesh is paired)
            decisions = ring_decisions(mesh, face, k)
            # the paired edge culls the points behind both its faces; the
            # others keep every candidate
            assert all(decisions) == (mesh is not paired), decisions
