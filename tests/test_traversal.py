from itertools import combinations

import numpy as np
import pytest
from conftest import containing_elements, threaded_ray_corpus

from boundarypath import geometry, oracle, shapes
from boundarypath.errors import ZeroLengthSegment
from boundarypath.mesh import BOUNDARY, SimplicialMesh
from boundarypath.query import QueryConfig
from boundarypath.traversal import (
    CUTOFF_FACTOR,
    TraversalConfig,
    TraversalResult,
    TraversalScratch,
    _crossing_parameter,
    _traverse,
    exit_face_selection,
    format_trace,
    is_valid_path,
    is_valid_path_inverted,
    make_ray_frame,
)


def stacked_bar(n=6):
    """n cells of a 1 x 1 x n box grid: a straight bar of tets."""
    return shapes.box_grid(1, 1, n, size=(1.0, 1.0, float(n)))


def test_ray_frame_axis():
    frame = make_ray_frame([0, 0, 0], [0, 0, 1])
    u, v = frame.uv
    assert np.allclose(frame.direction, [0, 0, 1])
    assert abs(np.dot(u, v)) < 1e-12
    assert abs(np.dot(u, frame.direction)) < 1e-12
    assert frame.length == 1.0


def test_ray_frame_zero_length():
    with pytest.raises(ZeroLengthSegment):
        make_ray_frame([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_ray_frame_2d():
    frame = make_ray_frame([0.0, 0.0], [3.0, 4.0])
    (u,) = frame.uv
    assert len(u) == 2
    assert abs(np.dot(u, frame.direction)) < 1e-15


def test_exit_faces_through_opposite_vertex(tet):
    # ray from a face centroid through the opposite vertex grazes all three
    # other faces: with positive epsilon every sign test passes
    face = 0
    in_local = int(tet.boundary_owner_local[face])
    centroid = tet.vertices[tet.boundary_faces[face]].mean(axis=0)
    apex = tet.vertices[tet.elements[0][in_local]]
    frame = make_ray_frame(centroid, apex)
    out = exit_face_selection(tet, 0, in_local, frame, 1e-10)
    assert sorted(out) == sorted(set(range(4)) - {in_local})


def test_exit_faces_through_face_centroid(tet):
    face = 0
    in_local = int(tet.boundary_owner_local[face])
    s = tet.vertices[tet.boundary_faces[face]].mean(axis=0)
    for other in set(range(4)) - {in_local}:
        from boundarypath.mesh import local_faces

        target = tet.vertices[tet.elements[0][list(local_faces(3)[other])]].mean(axis=0)
        frame = make_ray_frame(s, target)
        out = exit_face_selection(tet, 0, in_local, frame, 0.0)
        assert out == [other]


def test_exit_faces_2d_through_edge_interior(tri):
    face = 0
    in_local = int(tri.boundary_owner_local[face])
    s = tri.vertices[tri.boundary_faces[face]].mean(axis=0)
    for other in set(range(3)) - {in_local}:
        from boundarypath.mesh import local_faces

        target = tri.vertices[tri.elements[0][list(local_faces(2)[other])]].mean(axis=0)
        frame = make_ray_frame(s, target)
        out = exit_face_selection(tri, 0, in_local, frame, 0.0)
        assert out == [other]


def test_exit_faces_monotone_in_epsilon(grid3d, rng):
    for _ in range(50):
        e = int(rng.integers(0, grid3d.n_elements))
        in_local = int(rng.integers(0, 4))
        s = grid3d.vertices[grid3d.elements[e]].mean(axis=0) + rng.normal(
            scale=0.05, size=3
        )
        t = s + rng.normal(size=3)
        frame = make_ray_frame(s, t)
        prev = set()
        for eps in (0.0, 1e-12, 1e-8, 1e-4, 1e-1):
            cur = set(exit_face_selection(grid3d, e, in_local, frame, eps))
            assert prev <= cur
            prev = cur


def test_single_element_path(tet):
    p = np.array([0.2, 0.2, 0.2])
    face = 0
    s, _ = tet.closest_point_on_face(p, face)
    res = is_valid_path(tet, s, face, p)
    assert res.valid and res.elements_visited == 1


def test_bar_axis_path_visits_every_element():
    bar = stacked_bar(6)
    p = np.array([0.32, 0.4, 5.7])
    # end-cap face near z=0 under the query point
    face = min(
        range(bar.n_boundary_faces),
        key=lambda f: np.linalg.norm(
            bar.vertices[bar.boundary_faces[f]].mean(axis=0) - np.array([0.32, 0.4, 0])
        ),
    )
    s, _ = bar.closest_point_on_face(p, face)
    res = is_valid_path(bar, s, face, p)
    assert res.valid and res.end_element in containing_elements(bar, p)
    assert res.elements_visited >= 6  # crosses every cell of the bar


def test_folded_strip_blocked_path(folded2d):
    # the two overlapping ends: a segment across the overlap hits the
    # boundary of the covering flap and must be rejected
    mesh = folded2d
    rng = np.random.default_rng(7)
    points, elems = shapes.random_interior_points(mesh, rng, 200)
    found = 0
    for p, e in zip(points, elems):
        for f in range(mesh.n_boundary_faces):
            s, _ = mesh.closest_point_on_face(p, f)
            if np.linalg.norm(s - p) <= 1e-12:
                continue
            got = is_valid_path(mesh, s, f, p)
            ref = oracle.oracle_valid_path(mesh, s, f, p)
            assert got.valid == ref
            if not got.valid and got.reason == "hit_boundary":
                found += 1
        if found > 5:
            break
    assert found > 5  # self-intersection produces genuinely blocked candidates


def test_vertex_threaded_ray_terminates(grid3d):
    # aim exactly through interior grid vertices: ties everywhere
    interior = [
        i
        for i, v in enumerate(grid3d.vertices)
        if np.all(v > 0.0) and np.all(v < 1.0)
    ]
    assert interior
    face = 0
    s = grid3d.vertices[grid3d.boundary_faces[face]].mean(axis=0)
    for vid in interior:
        p = grid3d.vertices[vid]
        res = is_valid_path(grid3d, s, face, p)
        assert not res.budget_breached
        ref = oracle.oracle_valid_path(grid3d, s, face, p)
        assert res.valid == ref


def test_scratch_reuse_identical(grid3d, rng):
    config = TraversalConfig()
    scratch = TraversalScratch(config)
    points, _ = shapes.random_interior_points(grid3d, rng, 30)
    for p in points:
        face = int(rng.integers(0, grid3d.n_boundary_faces))
        s, _ = grid3d.closest_point_on_face(p, face)
        if np.linalg.norm(s - p) <= 1e-12:
            continue
        reused = is_valid_path(grid3d, s, face, p, config=config, scratch=scratch)
        fresh = is_valid_path(grid3d, s, face, p, config=config)
        assert reused.valid == fresh.valid and reused.reason == fresh.reason


def test_backward_equals_forward_without_inversions(grid2d, rng):
    points, _ = shapes.random_interior_points(grid2d, rng, 40)
    for p in points:
        face = int(rng.integers(0, grid2d.n_boundary_faces))
        s, _ = grid2d.closest_point_on_face(p, face)
        if np.linalg.norm(s - p) <= 1e-12:
            continue
        fwd = is_valid_path(grid2d, s, face, p)
        bwd = is_valid_path_inverted(grid2d, s, face, p)
        assert fwd.valid == bwd.valid


def test_inverted_strip_designed_path():
    mesh, s, start_face, p = shapes.inverted_path_strip()
    bwd = is_valid_path_inverted(mesh, s, start_face, p)
    assert bwd.valid
    fwd_only = is_valid_path(
        mesh, s, start_face, p, config=TraversalConfig(intersection_free_early_out=True)
    )
    assert not fwd_only.valid
    assert oracle.oracle_valid_path(mesh, s, start_face, p, allow_backward=True)
    assert not oracle.oracle_valid_path(mesh, s, start_face, p)


def test_trace_output(tet):
    p = np.array([0.2, 0.2, 0.2])
    s, _ = tet.closest_point_on_face(p, 0)
    config = TraversalConfig(trace=True)
    scratch = TraversalScratch(config)
    res = is_valid_path(tet, s, 0, p, config=config, scratch=scratch)
    assert res.valid
    text = format_trace(scratch.trace)
    assert "element=0" in text and "depth=" in text


def test_backward_trace_matches_numpy_normals(rng, monkeypatch):
    # meshes with inverted interior elements, in 2D and 3D, traversed
    # backward so that every pushed state measures its crossing parameter
    grid = shapes.box_grid(3, 3, 3)
    verts = grid.vertices.copy()
    verts[21] += [0.6, 0.42, 0.24]  # the interior vertex at (1/3, 1/3, 1/3)
    meshes = [SimplicialMesh(verts, grid.elements), shapes.pleated_strip()]
    config = TraversalConfig(trace=True)

    def traces(rays):
        out = []
        for mesh, s, face, p in rays:
            scratch = TraversalScratch(config)
            is_valid_path_inverted(mesh, s, face, p, config=config, scratch=scratch)
            out.append(format_trace(scratch.trace))
        return out

    rays = []
    for mesh in meshes:
        assert mesh.has_inverted_interior
        rays += candidate_rays(mesh, shapes.random_interior_points(mesh, rng, 30)[0])
        rays += threaded_rays(mesh, rng, 100)
    got = traces(rays)
    monkeypatch.setattr(
        geometry,
        "triangle_area_normal",
        lambda a, b, c: tuple(np.cross(np.subtract(b, a), np.subtract(c, a)).tolist()),
    )
    monkeypatch.setattr(
        geometry,
        "edge_outward_normal_2d",
        lambda a, b: tuple((np.subtract(b, a)[::-1] * [1.0, -1.0]).tolist()),
    )
    assert got == traces(rays)
    assert sum(text.count("\n") for text in got) > 1000


def test_config_validation():
    for bad in (
        dict(epsilon_i=-1e-10),
        dict(epsilon_i=np.nan),
        dict(epsilon_i=np.inf),
    ):
        with pytest.raises(ValueError):
            TraversalConfig(**bad)
    for eps_r in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            QueryConfig(epsilon_r=eps_r)


# --- equivalence with the exit-face-stack traversal ------------------------


def ref_traverse(mesh, s, start_face, p, config, backward):
    """The traversal as two parallel stacks of exit faces: the start element
    is tested and expanded before the loop, a state is marked visited when
    its entry face is popped, and each mode has its own reach test. The
    search over (element, entry face) states must give the same verdict and
    termination reason."""
    frame = make_ray_frame(s, p)
    eps = config.epsilon_i
    visited = set()
    faces = []
    elems = []
    e0 = int(mesh.boundary_owner[start_face])
    k0 = int(mesh.boundary_owner_local[start_face])
    visited.add((e0, k0))
    n_visited = 1
    steps = 0
    loops = 0
    if mesh.element_contains(e0, p, eps):
        return TraversalResult(True, "reached", e0, n_visited, steps, loops)
    for lf in exit_face_selection(mesh, e0, k0, frame, eps):
        faces.append(lf)
        elems.append(e0)
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
        nb = int(mesh.adjacency[e, lf])
        if nb == BOUNDARY:
            hit_boundary = True
            continue
        in_local = int(mesh.adj_local[e, lf])
        if (nb, in_local) in visited:
            loops += 1
            continue
        if backward:
            if abs(_crossing_parameter(mesh, e, lf, frame)) > cutoff:
                continue
        elif config.intersection_free_early_out:
            if abs(_crossing_parameter(mesh, e, lf, frame)) > frame.length:
                continue
        visited.add((nb, in_local))
        n_visited += 1
        if mesh.element_contains(nb, p, eps):
            return TraversalResult(True, "reached", nb, n_visited, steps, loops)
        for lf2 in exit_face_selection(mesh, nb, in_local, frame, eps):
            faces.append(lf2)
            elems.append(nb)
    reason = "hit_boundary" if hit_boundary else "exhausted"
    return TraversalResult(False, reason, -1, n_visited, steps, loops)


def assert_same_verdicts(rays, config, backward):
    """rays: (mesh, s, face, p) tuples."""
    for mesh, s, face, p in rays:
        got = _traverse(mesh, s, face, p, config, None, backward)
        ref = ref_traverse(mesh, s, face, p, config, backward)
        assert (got.valid, got.reason) == (ref.valid, ref.reason), (face, p)
        assert not got.budget_breached


def threaded_rays(mesh, rng, count):
    """Rays from random boundary points aimed exactly at vertices and
    element edge midpoints; half stop there, half pass through."""
    midpoints = [
        mesh.vertices[mesh.elements[:, list(ab)]].mean(axis=1)
        for ab in combinations(range(mesh.dim + 1), 2)
    ]
    targets = np.concatenate([mesh.vertices, *midpoints])
    rays = []
    while len(rays) < count:
        face = int(rng.integers(0, mesh.n_boundary_faces))
        s = rng.dirichlet(np.ones(mesh.dim)) @ mesh.vertices[mesh.boundary_faces[face]]
        t = targets[int(rng.integers(0, len(targets)))]
        if np.linalg.norm(t - s) < 1e-9:
            continue
        rays.append((mesh, s, face, t if rng.random() < 0.5 else s + 2.0 * (t - s)))
    return rays


def candidate_rays(mesh, points):
    """Each point's boundary candidates in (distance, face id) order, up to
    and including the first one the reference accepts: the traversals a
    query without culling runs."""
    config = TraversalConfig()
    backward = mesh.has_inverted_interior
    rays = []
    for p in points:
        cands, dists = oracle.closest_boundary_candidates(mesh, p)
        for face in np.lexsort((np.arange(len(dists)), dists)):
            if mesh.boundary_face_skipped[face] or dists[face] <= 1e-12:
                continue
            rays.append((mesh, cands[face], int(face), p))
            if ref_traverse(mesh, cands[face], int(face), p, config, backward).valid:
                break
    return rays


@pytest.mark.parametrize("eps", [1e-10, 0.0])
def test_state_search_matches_reference_on_threaded_rays(eps):
    rng = np.random.default_rng(31)
    config = TraversalConfig(epsilon_i=eps)
    for mesh in (shapes.box_grid(2, 2, 2), shapes.rect_grid(5, 5)):
        assert_same_verdicts(threaded_rays(mesh, rng, 400), config, False)


def test_state_search_matches_reference_on_folded_corpus(folded_corpus):
    for entry in folded_corpus:
        assert_same_verdicts(candidate_rays(entry["mesh"], entry["points"]), TraversalConfig(), False)


def test_state_search_matches_reference_with_inversions(rng):
    strip, s, face, p = shapes.inverted_path_strip()
    corner = shapes.flipped_corner_grid()
    assert corner.inverted_flags.any()
    rays = [(strip, s, face, p)]
    for mesh in (strip, corner):
        rays += candidate_rays(mesh, shapes.random_interior_points(mesh, rng, 40)[0])
    for backward in (False, True):
        assert_same_verdicts(rays, TraversalConfig(), backward)


def test_state_search_matches_reference_with_early_out(folded2d, grid3d, rng):
    config = TraversalConfig(intersection_free_early_out=True)
    rays = threaded_rays(grid3d, rng, 300)
    rays += candidate_rays(folded2d, shapes.random_interior_points(folded2d, rng, 40)[0])
    assert_same_verdicts(rays, config, False)


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("eps", [1e-10, 0.0])
def test_steps_within_state_bound(eps, backward):
    # each (element, entry face) state is entered at most once and has at
    # most dim exit faces, so a working visited set keeps a traversal far
    # below the step budget that flags a breach
    config = TraversalConfig(epsilon_i=eps, allow_backward=backward)
    for mesh, s, face, p in threaded_ray_corpus():
        res = is_valid_path(mesh, s, face, p, config=config)
        n_states = (mesh.dim + 1) * mesh.n_elements
        assert res.elements_visited <= n_states
        assert res.steps <= mesh.dim * n_states
