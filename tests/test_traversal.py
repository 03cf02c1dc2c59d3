import functools
import math
import operator
import signal
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from conftest import containing_elements, threaded_ray_corpus

from boundarypath import geometry, oracle, shapes, traversal
from boundarypath.errors import ZeroLengthSegment
from boundarypath.mesh import BOUNDARY, SimplicialMesh, local_faces
from boundarypath.traversal import (
    CUTOFF_FACTOR,
    TraversalConfig,
    TraversalResult,
    TraversalScratch,
    exit_face_selection,
    format_trace,
    is_valid_path,
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


def test_backward_equals_forward_without_inversions(grid2d, folded_corpus, rng):
    # the traversal's one rule cuts branches at CUTOFF_FACTOR segment
    # lengths, behind s as well as beyond it. Where no element is skipped a
    # branch's entry parameters only grow, so the cut drops only dead
    # branches: the verdict is that of the unbounded walk, whose states
    # include the bounded walk's
    rays = []
    points, _ = shapes.random_interior_points(grid2d, rng, 40)
    for p in points:
        face = int(rng.integers(0, grid2d.n_boundary_faces))
        s, _ = grid2d.closest_point_on_face(p, face)
        if np.linalg.norm(s - p) > 1e-12:
            rays.append((grid2d, s, face, p))
    for entry in folded_corpus:
        rays += candidate_rays(entry["mesh"], entry["points"])
    rays += threaded_ray_corpus()
    assert not any(mesh.skipped_flags.any() for mesh, *_ in rays)
    config = TraversalConfig()
    cut = 0
    for mesh, s, face, p in rays:
        got = is_valid_path(mesh, s, face, p)
        unbounded = ref_traverse(mesh, s, face, p, config, None, unbounded=True)
        assert got.valid == unbounded.valid, (face, p)
        assert got.elements_visited <= unbounded.elements_visited, (face, p)
        cut += got.elements_visited < unbounded.elements_visited
    assert cut > 0  # the rule spares work on these meshes


def test_inverted_strip_designed_path():
    mesh, s, start_face, p = shapes.inverted_path_strip()
    bwd = is_valid_path(mesh, s, start_face, p)
    assert bwd.valid
    # the unbounded walk takes the designed path too
    assert ref_traverse(mesh, s, start_face, p, TraversalConfig(), None, unbounded=True).valid
    fwd_only = is_valid_path(
        mesh, s, start_face, p, config=TraversalConfig(intersection_free_early_out=True)
    )
    assert not fwd_only.valid
    assert oracle.oracle_valid_path(mesh, s, start_face, p)


def test_trace_output(tet):
    p = np.array([0.2, 0.2, 0.2])
    s, _ = tet.closest_point_on_face(p, 0)
    scratch = TraversalScratch(trace=[])
    res = is_valid_path(tet, s, 0, p, scratch=scratch)
    assert res.valid
    lines = format_trace(scratch.trace)
    assert lines[0].startswith("element=0 ") and all("depth=" in line for line in lines)
    # a scratch without a trace list records nothing
    quiet = TraversalScratch()
    assert is_valid_path(tet, s, 0, p, scratch=quiet).valid and quiet.trace is None


def test_backward_trace_matches_numpy_normals(rng, monkeypatch):
    # meshes with inverted interior elements, in 2D and 3D, where branches
    # run backward along the ray; every pushed state measures its crossing
    # parameter
    meshes = inverted_interior_meshes()

    def traces(rays):
        out = []
        for mesh, s, face, p in rays:
            scratch = TraversalScratch(trace=[])
            is_valid_path(mesh, s, face, p, scratch=scratch)
            out.append(format_trace(scratch.trace))
        return out

    rays = []
    for mesh in meshes:
        assert mesh.skipped_flags.any()
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
    # states past each trace's start state
    assert sum(len(lines) - 1 for lines in got) > 1000


def test_crossing_parameters_scale_exactly(monkeypatch):
    # rays along interior face planes: x = 1/2 of a 2x2x2 box grid and of a
    # 4x4 rectangle grid, to a point inside and to one past the far side.
    # Faces in that plane are parallel to the ray, so their crossing
    # parameters take the centroid fallback. Scaling the mesh and the ray by
    # 2^k scales every crossing parameter by 2^k exactly and keeps the
    # verdict, because the near-parallel test is relative to |n|. The exit
    # test runs without its absolute tie tolerance, which does not scale
    crossings = []

    def recorded(pts, frame):
        t = crossing(pts, frame)
        normal = geometry.triangle_area_normal if len(pts) == 3 else geometry.edge_outward_normal_2d
        parallel = math.fsum(a * b for a, b in zip(normal(*pts), frame.direction)) == 0.0
        crossings.append((t, parallel))
        return t

    crossing = traversal._crossing_parameter
    monkeypatch.setattr(traversal, "_crossing_parameter", recorded)
    config = TraversalConfig(epsilon_i=0.0)
    cases = [
        (shapes.box_grid(2, 2, 2), [0.5, 0.3, 0.0], ([0.5, 0.3, 0.9], [0.5, 0.3, 1.4])),
        (shapes.rect_grid(4, 4), [0.5, 0.0], ([0.5, 0.9], [0.5, 1.4])),
    ]
    for base, s, targets in cases:
        s = np.array(s)
        face = int(np.flatnonzero(oracle.closest_boundary_candidates(base, s)[1] == 0.0)[0])
        for p in map(np.array, targets):
            want = None
            for k in range(-30, 31):
                scale = 2.0**k
                mesh = SimplicialMesh(base.vertices * scale, base.elements)
                crossings.clear()
                res = is_valid_path(mesh, s * scale, face, p * scale, config=config)
                got = (res, [(t / scale, parallel) for t, parallel in crossings])
                if want is None:
                    want = got
                    assert any(parallel for _, parallel in crossings)
                assert got == want, k
            assert want[0].valid == (p[-1] < 1.0)


def test_config_validation():
    for bad in (
        dict(epsilon_i=-1e-10),
        dict(epsilon_i=np.nan),
        dict(epsilon_i=np.inf),
    ):
        with pytest.raises(ValueError):
            TraversalConfig(**bad)


# --- equivalence with the exit-face-stack traversal ------------------------


def ref_stack_traverse(mesh, s, start_face, p, config):
    """The traversal as two parallel stacks of exit faces: the start element
    is tested and expanded before the loop, a state is marked visited when
    its entry face is popped, and the reach is tested there. The search
    over (element, entry face) states must give the same verdict and
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
    cutoff = (1.0 if config.intersection_free_early_out else CUTOFF_FACTOR) * frame.length
    hit_boundary = False
    while faces:
        steps += 1
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
        if abs(ref_crossing(mesh, e, lf, frame)) > cutoff:
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


def assert_same_verdicts(rays, config):
    """rays: (mesh, s, face, p) tuples."""
    for mesh, s, face, p in rays:
        got = is_valid_path(mesh, s, face, p, config)
        ref = ref_stack_traverse(mesh, s, face, p, config)
        assert (got.valid, got.reason) == (ref.valid, ref.reason), (face, p)


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
    rays = []
    for p in points:
        cands, dists = oracle.closest_boundary_candidates(mesh, p)
        for face in np.lexsort((np.arange(len(dists)), dists)):
            if mesh.boundary_face_skipped[face] or dists[face] <= 1e-12:
                continue
            rays.append((mesh, cands[face], int(face), p))
            if ref_stack_traverse(mesh, cands[face], int(face), p, config).valid:
                break
    return rays


@pytest.mark.parametrize("eps", [1e-10, 0.0])
def test_state_search_matches_reference_on_threaded_rays(eps):
    rng = np.random.default_rng(31)
    config = TraversalConfig(epsilon_i=eps)
    for mesh in (shapes.box_grid(2, 2, 2), shapes.rect_grid(5, 5)):
        assert_same_verdicts(threaded_rays(mesh, rng, 400), config)


def test_state_search_matches_reference_on_folded_corpus(folded_corpus):
    for entry in folded_corpus:
        assert_same_verdicts(candidate_rays(entry["mesh"], entry["points"]), TraversalConfig())


def test_state_search_matches_reference_with_inversions(rng):
    strip, s, face, p = shapes.inverted_path_strip()
    corner = shapes.flipped_corner_grid()
    assert corner.inverted_flags.any()
    rays = [(strip, s, face, p)]
    for mesh in (strip, corner):
        rays += candidate_rays(mesh, shapes.random_interior_points(mesh, rng, 40)[0])
    assert_same_verdicts(rays, TraversalConfig())


def test_state_search_matches_reference_with_early_out(folded2d, grid3d, rng):
    config = TraversalConfig(intersection_free_early_out=True)
    rays = threaded_rays(grid3d, rng, 300)
    rays += candidate_rays(folded2d, shapes.random_interior_points(folded2d, rng, 40)[0])
    assert_same_verdicts(rays, config)


def inverted_interior_rays():
    """Threaded rays on the meshes with inverted interior elements."""
    rng = np.random.default_rng(5)
    return [ray for mesh in inverted_interior_meshes() for ray in threaded_rays(mesh, rng, 300)]


# per case, its rays and the config fields of its reach. "forward" and
# "backward" both walk by the one bounded rule: on criterion 4's rays, on
# meshes without skipped elements, where a branch's entry parameters only
# grow, and on meshes with inverted interior elements, where branches run
# back along the ray. "early_out" walks both at one segment length
REACH_MODES = {
    "forward": (threaded_ray_corpus, {}),
    "early_out": (lambda: threaded_ray_corpus() + inverted_interior_rays(),
                  {"intersection_free_early_out": True}),
    "backward": (inverted_interior_rays, {}),
}


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once it has run `seconds` of wall
    time, so a loop that never ends fails the test instead of hanging it.
    Uses SIGALRM: Unix, main thread only."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("reach", list(REACH_MODES))
@pytest.mark.parametrize("eps", [1e-10, 0.0])
def test_steps_within_state_bound(eps, reach):
    # each (element, entry face) state is entered at most once and has at
    # most dim exit faces; the traversal stops only when its states run
    # out, so this bound is the one guard on the visited set. A broken
    # visited set makes the traversal run forever, hence the deadline: the
    # whole corpus takes about 1 s.
    rays, fields = REACH_MODES[reach]
    config = TraversalConfig(epsilon_i=eps, **fields)
    with deadline(10):
        for mesh, s, face, p in rays():
            res = is_valid_path(mesh, s, face, p, config=config)
            n_states = (mesh.dim + 1) * mesh.n_elements
            assert res.elements_visited <= n_states
            assert res.steps <= mesh.dim * n_states


# --- equivalence with the traversal that read each element twice ----------


def ref_contains(mesh, e, p, tol):
    """element_contains as it read vertex 0 and the barycentric rows of
    the element on each call."""
    v = mesh.vertices[mesh.elements[e, 0]].tolist()
    if mesh.dim == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = mesh.bary_rows[e].tolist()
        d0, d1, d2 = p[0] - v[0], p[1] - v[1], p[2] - v[2]
        x = a0 * d0 + a1 * d1 + a2 * d2
        y = b0 * d0 + b1 * d1 + b2 * d2
        z = c0 * d0 + c1 * d1 + c2 * d2
        return x >= -tol and y >= -tol and z >= -tol and 1.0 - (x + y + z) >= -tol
    (a0, a1), (b0, b1) = mesh.bary_rows[e].tolist()
    d0, d1 = p[0] - v[0], p[1] - v[1]
    x = a0 * d0 + a1 * d1
    y = b0 * d0 + b1 * d1
    return x >= -tol and y >= -tol and 1.0 - (x + y) >= -tol


def ref_exits(mesh, element, in_local, frame, epsilon_i):
    """exit_face_selection as it gathered the element's vertices on each
    call."""
    order = local_faces(mesh.dim)[in_local]
    verts = mesh.vertices.take(mesh.elements[element], axis=0).tolist()
    eps = epsilon_i
    if mesh.dim == 3:
        o0, o1, o2 = frame.origin
        (u0, u1, u2), (v0, v1, v2) = frame.uv
        proj = [
            (
                (x0 - o0) * u0 + (x1 - o1) * u1 + (x2 - o2) * u2,
                (x0 - o0) * v0 + (x1 - o1) * v1 + (x2 - o2) * v2,
            )
            for x0, x1, x2 in verts
        ]
        i, j, k = order
        a0, a1 = proj[i]
        b0, b1 = proj[j]
        c0, c1 = proj[k]
        x, y = proj[in_local]
        det = (b0 - a0) * (c1 - a1) - (b1 - a1) * (c0 - a0)
        if abs(det) <= eps:
            return list(order)
        sgn = 1.0 if det > 0.0 else -1.0
        d0 = sgn * (x * a1 - y * a0)
        d1 = sgn * (x * b1 - y * b0)
        d2 = sgn * (x * c1 - y * c0)
        out = []
        if d1 >= -eps and d2 <= eps:
            out.append(order[0])
        if d2 >= -eps and d0 <= eps:
            out.append(order[1])
        if d0 >= -eps and d1 <= eps:
            out.append(order[2])
        return out
    (o0, o1), ((u0, u1),) = frame.origin, frame.uv
    proj = [(x0 - o0) * u0 + (x1 - o1) * u1 for x0, x1 in verts]
    p0, p1, p2 = proj[order[0]], proj[order[1]], proj[in_local]
    out = []
    if min(p1, p2) <= eps and max(p1, p2) >= -eps:
        out.append(order[0])
    if min(p0, p2) <= eps and max(p0, p2) >= -eps:
        out.append(order[1])
    return out


def ltr_sum(terms):
    """The terms summed left to right, from the first one: sum() starts
    from 0, which turns a -0.0 sum into 0.0, and from Python 3.12 on it
    compensates float sums."""
    return functools.reduce(operator.add, terms)


def ref_crossing(mesh, element, lf, frame):
    """_crossing_parameter as it gathered its face on each call."""
    face = mesh.elements[element][list(local_faces(mesh.dim)[lf])]
    pts = mesh.vertices[face].tolist()
    if mesh.dim == 3:
        n = geometry.triangle_area_normal(*pts)
    else:
        n = geometry.edge_outward_normal_2d(*pts)
    d = frame.direction
    denom = ltr_sum(a * b for a, b in zip(n, d))
    if abs(denom) <= 1e-14 * math.sqrt(ltr_sum(a * a for a in n)):
        centroid = [ltr_sum(c) / len(pts) for c in zip(*pts)]
        return ltr_sum((c - o) * b for c, o, b in zip(centroid, frame.origin, d))
    return ltr_sum(a * (x - o) for a, x, o in zip(n, pts[0], frame.origin)) / denom


def ref_traverse(mesh, s, start_face, p, config, scratch, unbounded=False):
    """The state search as it was when each visited element was read twice,
    in the containment test and in the exit test. With `unbounded`, it is
    the walk with no reach limit, the reference of the one rule on meshes
    without skipped elements."""
    frame = make_ray_frame(s, p)
    p = np.asarray(p, dtype=float).tolist()
    eps = config.epsilon_i
    trace = None if scratch is None else scratch.trace
    if trace is not None:
        trace.clear()
    if unbounded:
        reach = math.inf
    else:
        reach = (1.0 if config.intersection_free_early_out else CUTOFF_FACTOR) * frame.length
    start = (int(mesh.boundary_owner[start_face]), int(mesh.boundary_owner_local[start_face]))
    stack = [(start, 0.0)]
    visited = {start}
    steps = 0
    loops = 0
    hit_boundary = False
    while stack:
        (e, k), t = stack.pop()
        if trace is not None:
            trace.append((e, k, t, len(stack)))
        if ref_contains(mesh, e, p, eps):
            return TraversalResult(True, "reached", e, len(visited), steps, loops)
        exits = ref_exits(mesh, e, k, frame, eps)
        steps += len(exits)
        for lf in exits:
            nb = int(mesh.adjacency[e, lf])
            if nb == BOUNDARY:
                hit_boundary = True
                continue
            state = (nb, int(mesh.adj_local[e, lf]))
            if state in visited:
                loops += 1
                continue
            t = ref_crossing(mesh, e, lf, frame)
            if abs(t) > reach:
                continue
            visited.add(state)
            stack.append((state, t))
    reason = "hit_boundary" if hit_boundary else "exhausted"
    return TraversalResult(False, reason, -1, len(visited), steps, loops)


def inverted_interior_meshes():
    """A 3D grid with an interior vertex pushed through its neighbours, and
    the 2D pleated strip: both have inverted interior elements."""
    grid = shapes.box_grid(3, 3, 3)
    verts = grid.vertices.copy()
    verts[21] += [0.6, 0.42, 0.24]  # the interior vertex at (1/3, 1/3, 1/3)
    return [SimplicialMesh(verts, grid.elements), shapes.pleated_strip()]


@pytest.mark.parametrize(
    "reach, traced", [("forward", False), ("forward", True), ("early_out", True), ("backward", True)]
)
def test_one_read_traversal_matches_reference(reach, traced):
    # criterion 4's rays, threaded through interior vertices and edge
    # midpoints, or rays on meshes with inverted interior elements, in 2D
    # and 3D. A traced traversal records the crossing parameter of every
    # state it pushes.
    rays, fields = REACH_MODES[reach]
    config = TraversalConfig(**fields)
    rays = rays()
    assert {mesh.dim for mesh, *_ in rays} == {2, 3}
    states = 0
    for mesh, s, face, p in rays:
        got_scratch = TraversalScratch(trace=[] if traced else None)
        want_scratch = TraversalScratch(trace=[] if traced else None)
        got = is_valid_path(mesh, s, face, p, config, got_scratch)
        want = ref_traverse(mesh, s, face, p, config, want_scratch)
        assert got == want, (face, p)
        assert got_scratch.trace == want_scratch.trace, (face, p)
        states += got.elements_visited
    assert states > 5 * len(rays)
