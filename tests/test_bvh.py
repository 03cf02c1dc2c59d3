import heapq
import math
from collections import deque

import numpy as np
import pytest
from conftest import containing_elements

from boundarypath import shapes
from boundarypath.bvh import (
    AabbTree,
    BoundaryBvh,
    ElementBvh,
    NearPrimIter,
    _element_boxes,
    _face_boxes,
)
from boundarypath.errors import EmptyBoundary
from boundarypath.mesh import SimplicialMesh


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
    mesh = SimplicialMesh(cube.vertices, cube.elements)
    bvh = BoundaryBvh(mesh)
    before = {f for f, lb in bvh.nearest_faces(np.full(3, 0.5)) if lb <= 0.51}
    mesh.set_vertices(mesh.vertices + np.array([1.0, 0, 0]))
    bvh.refit(mesh)
    after = {f for f, lb in bvh.nearest_faces(np.array([1.5, 0.5, 0.5])) if lb <= 0.51}
    assert before == after


def test_empty_boundary_raises():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    mesh = SimplicialMesh(verts, np.array([[0, 1, 2, 3]]))
    mesh.boundary_faces = mesh.boundary_faces[:0]

    class Empty:
        n_boundary_faces = 0

    with pytest.raises(EmptyBoundary):
        BoundaryBvh(Empty())


def node_refit(tree, boxes):
    """Node-by-node bottom-up refit over the node arrays in reverse
    (children are allocated after their parent)."""
    for node in range(len(tree.prim) - 1, -1, -1):
        pid = tree.prim[node]
        if pid >= 0:
            tree.lo[node] = boxes[pid, 0]
            tree.hi[node] = boxes[pid, 1]
        else:
            l = tree.left[node]
            tree.lo[node] = np.minimum(tree.lo[l], tree.lo[l + 1])
            tree.hi[node] = np.maximum(tree.hi[l], tree.hi[l + 1])


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
def test_box_overlap_batch_matches_brute(rng, dim):
    prims = integer_boxes(rng, 300, dim)
    tree = AabbTree(prims)
    queries = integer_boxes(rng, 200, dim)
    box, prim = tree.box_overlap(queries[:, 0], queries[:, 1])
    assert np.all(np.diff(box) >= 0)
    touching = 0
    for k, (lo, hi) in enumerate(queries):
        brute = np.all(prims[:, 1] >= lo, axis=1) & np.all(prims[:, 0] <= hi, axis=1)
        # the brute-force set, in ascending primitive id
        assert prim[box == k].tolist() == np.flatnonzero(brute).tolist()
        touching += np.any((prims[brute, 1] == lo) | (prims[brute, 0] == hi))
    assert touching > 0  # exactly touching faces were exercised


def test_box_overlap_empty_batch():
    tree = AabbTree(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
    box, prim = tree.box_overlap(np.empty((0, 2)), np.empty((0, 2)))
    assert len(box) == 0 and len(prim) == 0


def ref_near_prims(tree, p):
    """Best-first enumeration with the box distance summed one axis at a
    time into an accumulator that starts at 0.0, node by node from the
    lo, hi, prim and left arrays: every (primitive, bound) pair and every
    `bound` must equal NearPrimIter's bit for bit."""

    def box_dist(node):
        s = 0.0
        for l, h, x in zip(tree.lo[node].tolist(), tree.hi[node].tolist(), p):
            d = l - x if x < l else (x - h if x > h else 0.0)
            s += d * d
        return math.sqrt(s)

    heap = [(box_dist(0), 0)]
    bound = heap[0][0]  # the bound before each primitive is asked for
    while heap:
        dist, node = heapq.heappop(heap)
        if tree.prim[node] >= 0:
            yield bound, (int(tree.prim[node]), dist)
            bound = heap[0][0] if heap else math.inf
            continue
        for child in (int(tree.left[node]), int(tree.left[node]) + 1):
            heapq.heappush(heap, (box_dist(child), child))


@pytest.mark.parametrize("dim", [2, 3])
def test_near_prims_match_per_axis_reference(rng, dim):
    mesh = shapes.folded_bar(12, 2, 2) if dim == 3 else shapes.folded_strip(30, 3)
    tree = BoundaryBvh(mesh).tree
    for p in rng.normal(size=(20, dim)) * 2.0:
        it = NearPrimIter(tree, p)
        got = []
        while it.bound < math.inf:
            bound = it.bound
            got.append((bound, next(it)))
        assert got == list(ref_near_prims(tree, p.tolist()))
        assert len(got) == mesh.n_boundary_faces


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
    tree.refit(moved)
    node_refit(ref, moved)
    assert np.array_equal(tree.lo, ref.lo) and np.array_equal(tree.hi, ref.hi)
    tree.refit(boxes)
    fresh = AabbTree(boxes)
    assert np.array_equal(tree.lo, fresh.lo) and np.array_equal(tree.hi, fresh.hi)


def ref_build(boxes):
    """The per-node build: a first-in-first-out queue of (node, primitive
    ids) that takes each node's box as the min/max over its primitives
    and allocates the two children of a node together, so nodes get
    level-order numbers. The reference for the node arrays of AabbTree,
    whose build leaves the boxes to refit; also returns each depth's
    internal nodes in the order the queue pops them."""
    n, dim = boxes.shape[0], boxes.shape[2]
    lo, hi = np.empty((2 * n - 1, dim)), np.empty((2 * n - 1, dim))
    left = np.full(2 * n - 1, -1, dtype=np.int64)
    prim = np.full(2 * n - 1, -1, dtype=np.int64)
    levels = []
    centroids = 0.5 * (boxes[:, 0] + boxes[:, 1])
    queue = deque([(0, 0, np.arange(n))])
    n_nodes = 1
    while queue:
        node, depth, ids = queue.popleft()
        lo[node] = boxes[ids, 0].min(axis=0)
        hi[node] = boxes[ids, 1].max(axis=0)
        if len(ids) == 1:
            prim[node] = ids[0]
            continue
        if depth == len(levels):
            levels.append([])
        levels[depth].append(node)
        cen = centroids[ids]
        axis = int(np.argmax(cen.max(axis=0) - cen.min(axis=0)))
        order = np.argsort(cen[:, axis], kind="stable")
        half = len(ids) // 2
        left[node] = n_nodes
        queue.append((n_nodes, depth + 1, ids[order[:half]]))
        queue.append((n_nodes + 1, depth + 1, ids[order[half:]]))
        n_nodes += 2
    return {"lo": lo, "hi": hi, "left": left, "prim": prim}, levels


@pytest.mark.parametrize("dim", [2, 3])
def test_build_matches_per_node_build(rng, dim):
    # tie-heavy integer boxes, the element and face boxes of a mesh,
    # coincident boxes (every split keeps the incoming order) and
    # two-primitive trees
    inputs = [integer_boxes(rng, n, dim) for n in (*range(1, 30), 257)]
    meshes = [shapes.box_grid(3, 3, 3) if dim == 3 else shapes.folded_strip(30, 3)]
    if dim == 3:
        # the benchmark's spiral: 19,440 tets and 4,464 boundary faces
        meshes.append(
            shapes.spiral_bar(
                90, 6, 6, thickness=0.25, inner_radius=1.0, pitch=0.15, total_angle=3.6 * np.pi
            )
        )
    for mesh in meshes:
        inputs += [_element_boxes(mesh), _face_boxes(mesh)]
    box = integer_boxes(rng, 1, dim)
    inputs += [np.repeat(box, n, axis=0) for n in (2, 3, 100)]
    inputs += [integer_boxes(rng, 2, dim), np.array([box[0], box[0] + 1.0])]
    for boxes in inputs:
        tree = AabbTree(boxes)
        arrays, levels = ref_build(boxes)
        for name, ref in arrays.items():
            assert np.array_equal(getattr(tree, name), ref), (len(boxes), name)
        # each depth's internal nodes, all of them in id order
        assert [level.tolist() for level in tree.levels] == levels
        assert sum(levels, []) == np.flatnonzero(tree.prim < 0).tolist()
