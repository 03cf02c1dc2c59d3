import numpy as np
import pytest
from conftest import containing_elements

from boundarypath import shapes
from boundarypath.bvh import AabbTree, BoundaryBvh, ElementBvh, NearPrimIter
from boundarypath.errors import EmptyBoundary
from boundarypath.mesh import make_mesh


def brute_face_distance(mesh, f, p):
    q, _ = mesh.closest_point_on_face(p, f)
    return float(np.linalg.norm(q - p))


def test_cube_center_enumerates_all(cube):
    bvh = BoundaryBvh(cube)
    hits = list(bvh.nearest_faces(np.full(3, 0.5)))
    assert len(hits) == 12
    # lower bounds non-decreasing
    lbs = [lb for _, lb in hits]
    assert lbs == sorted(lbs)


def test_radius_pruning_never_drops_close_faces(cube):
    p = np.full(3, 0.5)
    bvh = BoundaryBvh(cube)
    got = {f for f, lb in bvh.nearest_faces(p) if lb <= 0.6}
    for f in range(cube.n_boundary_faces):
        if brute_face_distance(cube, f, p) < 0.6:
            assert f in got


def test_lower_bound_is_a_lower_bound(folded3d, rng):
    bvh = BoundaryBvh(folded3d)
    for _ in range(20):
        p = rng.normal(size=3)
        for f, lb in bvh.nearest_faces(p):
            if lb <= 1.0:
                assert lb <= brute_face_distance(folded3d, f, p) + 1e-12


def test_bound_bounds_every_later_primitive(folded3d, rng):
    bvh = BoundaryBvh(folded3d)
    for _ in range(10):
        it = bvh.nearest_faces(rng.normal(size=3))
        bounds, lbs = [], []
        while it.bound < np.inf:
            bounds.append(it.bound)
            lbs.append(next(it)[1])
        assert len(lbs) == folded3d.n_boundary_faces
        assert all(b <= min(lbs[i:]) for i, b in enumerate(bounds))
        assert list(it) == []


def test_refit_translation(cube):
    mesh = make_mesh(cube.vertices, cube.elements)
    bvh = BoundaryBvh(mesh)
    before = {f for f, lb in bvh.nearest_faces(np.full(3, 0.5)) if lb <= 0.51}
    mesh.set_vertices(mesh.vertices + np.array([1.0, 0, 0]))
    bvh.refit(mesh)
    after = {f for f, lb in bvh.nearest_faces(np.array([1.5, 0.5, 0.5])) if lb <= 0.51}
    assert before == after


def test_empty_boundary_raises():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    mesh = make_mesh(verts, np.array([[0, 1, 2, 3]]))
    mesh.boundary_faces = mesh.boundary_faces[:0]

    class Empty:
        n_boundary_faces = 0

    with pytest.raises(EmptyBoundary):
        BoundaryBvh(Empty())


def stack_walk(tree, lo, hi):
    """One box's overlaps by the per-node stack walk, right child first:
    the reference for box_overlap's set and order."""
    out = []
    stack = [0]
    while stack:
        node = stack.pop()
        if np.any(tree.lo[node] > hi) or np.any(tree.hi[node] < lo):
            continue
        pid = tree.prim[node]
        if pid >= 0:
            out.append(int(pid))
        else:
            stack.append(int(tree.left[node]))
            stack.append(int(tree.right[node]))
    return out


def node_refit(tree, boxes):
    """Node-by-node bottom-up refit over the node arrays in reverse
    (children are allocated after their parent)."""
    for node in range(tree._n_nodes - 1, -1, -1):
        pid = tree.prim[node]
        if pid >= 0:
            tree.lo[node] = boxes[pid, 0]
            tree.hi[node] = boxes[pid, 1]
        else:
            l, r = tree.left[node], tree.right[node]
            tree.lo[node] = np.minimum(tree.lo[l], tree.lo[r])
            tree.hi[node] = np.maximum(tree.hi[l], tree.hi[r])


def integer_boxes(rng, n, dim, size=10):
    """Boxes with integer corners, so that many faces touch exactly; about
    one in four is a point box."""
    a = rng.integers(0, size, size=(n, dim)).astype(float)
    b = a + rng.integers(0, 4, size=(n, dim)) * (rng.random((n, 1)) > 0.25)
    return np.stack([a, b], axis=1)


def test_element_bvh_containment(grid3d, rng):
    bvh = ElementBvh(grid3d)
    points = rng.random((20, 3))
    box, cands = bvh.tree.box_overlap(points, points)
    for k, p in enumerate(points):
        truth = containing_elements(grid3d, p)
        assert len(truth) and set(truth) <= set(cands[box == k])


def test_box_overlap_matches_brute(grid3d):
    bvh = ElementBvh(grid3d)
    lo, hi = np.array([0.2, 0.2, 0.2]), np.array([0.5, 0.4, 0.6])
    box, got = bvh.tree.box_overlap(lo[None], hi[None])
    assert np.all(box == 0)
    for e in range(grid3d.n_elements):
        pts = grid3d.vertices[grid3d.elements[e]]
        overlaps = np.all(pts.max(axis=0) >= lo) and np.all(pts.min(axis=0) <= hi)
        assert (e in got) == overlaps


@pytest.mark.parametrize("dim", [2, 3])
def test_box_overlap_batch_matches_brute_and_stack_walk(rng, dim):
    prims = integer_boxes(rng, 300, dim)
    tree = AabbTree(prims)
    queries = integer_boxes(rng, 200, dim)
    box, prim = tree.box_overlap(queries[:, 0], queries[:, 1])
    assert np.all(np.diff(box) >= 0)
    touching = 0
    for k, (lo, hi) in enumerate(queries):
        got = prim[box == k].tolist()
        brute = np.all(prims[:, 1] >= lo, axis=1) & np.all(prims[:, 0] <= hi, axis=1)
        assert sorted(got) == np.flatnonzero(brute).tolist()
        assert got == stack_walk(tree, lo, hi)
        touching += np.any((prims[brute, 1] == lo) | (prims[brute, 0] == hi))
    assert touching > 0  # exactly touching faces were exercised


def test_box_overlap_empty_batch():
    tree = AabbTree(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
    box, prim = tree.box_overlap(np.empty((0, 2)), np.empty((0, 2)))
    assert len(box) == 0 and len(prim) == 0


def test_single_primitive_tree():
    tree = AabbTree(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
    points = np.array([[0.5, 0.5], [2.0, 0.5], [1.0, 1.0]])
    box, prim = tree.box_overlap(points, points)
    assert box.tolist() == [0, 2] and prim.tolist() == [0, 0]
    assert list(NearPrimIter(tree, np.array([2.0, 0.5]))) == [(0, 1.0)]


@pytest.mark.parametrize("dim", [2, 3])
def test_refit_matches_node_sweep_and_fresh_build(rng, dim):
    boxes = integer_boxes(rng, 257, dim) + rng.normal(size=(257, 1, dim))
    moved = boxes + rng.normal(scale=0.5, size=(257, 1, dim))
    tree = AabbTree(boxes)
    ref = AabbTree(boxes)
    inner = tree.left >= 0  # NearPrimIter reads both children as one slice
    assert np.array_equal(tree.right[inner], tree.left[inner] + 1)
    tree.refit(moved)
    node_refit(ref, moved)
    assert np.array_equal(tree.lo, ref.lo) and np.array_equal(tree.hi, ref.hi)
    tree.refit(boxes)
    fresh = AabbTree(boxes)
    assert np.array_equal(tree.lo, fresh.lo) and np.array_equal(tree.hi, fresh.hi)
