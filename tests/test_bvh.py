import heapq
import math
from collections import deque

import numpy as np
import pytest
from conftest import containing_elements

from boundarypath import bvh as bvh_module
from boundarypath import shapes
from boundarypath.bvh import (
    AabbTree,
    BoundaryBvh,
    ElementBvh,
    NearPrimIter,
    _simplex_boxes,
)
from boundarypath.errors import EmptyBoundary
from boundarypath.mesh import SimplicialMesh
from boundarypath.query import shortest_path_to_boundary


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
    bvh = ElementBvh(grid3d.vertices, grid3d.elements)
    points = rng.random((20, 3))
    box, cands = bvh.tree.box_overlap(points, points)
    for k, p in enumerate(points):
        truth = containing_elements(grid3d, p)
        assert len(truth) and set(truth) <= set(cands[box == k])


def test_element_bvh_refit_matches_fresh_tree(grid3d, rng):
    # a refit element tree answers box queries as a tree built on the
    # moved vertices does
    bvh = ElementBvh(grid3d.vertices, grid3d.elements)
    moved = grid3d.vertices + rng.normal(scale=0.1, size=grid3d.vertices.shape)
    bvh.refit(moved)
    fresh = ElementBvh(moved, grid3d.elements)
    lo = rng.random((30, 3))
    hi = lo + 0.2 * rng.random((30, 3))
    for got, want in zip(bvh.tree.box_overlap(lo, hi), fresh.tree.box_overlap(lo, hi)):
        assert np.array_equal(got, want)


def test_box_overlap_matches_brute(grid3d):
    bvh = ElementBvh(grid3d.vertices, grid3d.elements)
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
        order = np.lexsort((ids, cen[:, axis]))
        half = len(ids) // 2
        left[node] = n_nodes
        queue.append((n_nodes, depth + 1, ids[order[:half]]))
        queue.append((n_nodes + 1, depth + 1, ids[order[half:]]))
        n_nodes += 2
    return {"lo": lo, "hi": hi, "left": left, "prim": prim}, levels


@pytest.mark.parametrize("dim", [2, 3])
def test_build_matches_per_node_build(rng, dim):
    # tie-heavy integer boxes, the element and face boxes of a mesh,
    # coincident boxes (every split orders them by id) and two-primitive
    # trees
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
        inputs += [_simplex_boxes(mesh.vertices[s]) for s in (mesh.elements, mesh.boundary_faces)]
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


@pytest.mark.parametrize("dim", [2, 3])
def test_near_prims_read_the_refit_boxes(rng, dim):
    """After set_vertices and refit, enumeration reads the new boxes
    through the tree's flat view: the same (primitive, bound) pairs, in
    the same order, as a best-first walk over every node's box distance
    computed with numpy from tree.lo and tree.hi."""
    mesh = shapes.folded_bar(12, 2, 2) if dim == 3 else shapes.folded_strip(30, 3)
    bvh = BoundaryBvh(mesh)
    tree = bvh.tree
    mesh.set_vertices(mesh.vertices + rng.normal(scale=0.05, size=mesh.vertices.shape))
    bvh.refit(mesh)
    assert np.shares_memory(np.asarray(tree.bounds_view), tree.bounds)
    for p in rng.normal(size=(10, dim)) * 2.0:
        # per node, the box distance: the per-axis gaps squared and summed
        # left to right, as the enumeration sums them
        gap = np.maximum(tree.lo - p, 0.0) + np.maximum(p - tree.hi, 0.0)
        sq = gap * gap
        total = sq[:, 0]
        for k in range(1, dim):
            total = total + sq[:, k]
        dist = np.sqrt(total).tolist()
        heap, want = [(dist[0], 0)], []
        while heap:
            d, node = heapq.heappop(heap)
            if tree.prim[node] >= 0:
                want.append((int(tree.prim[node]), d))
                continue
            left = int(tree.left[node])
            heapq.heappush(heap, (dist[left], left))
            heapq.heappush(heap, (dist[left + 1], left + 1))
        assert list(bvh.nearest_faces(p)) == want
        assert len(want) == mesh.n_boundary_faces


def small_spiral(total_angle):
    return shapes.spiral_bar(30, 3, 3, thickness=0.25, pitch=0.15, total_angle=total_angle)


@pytest.fixture
def rebuilds(monkeypatch):
    """The boxes of every AabbTree.rebuild call made after the fixture is
    set up (a tree's construction calls it once)."""
    calls = []
    rebuild = AabbTree.rebuild

    def counted(tree, boxes):
        calls.append(boxes)
        return rebuild(tree, boxes)

    monkeypatch.setattr(AabbTree, "rebuild", counted)
    return calls


def test_refit_to_unchanged_positions_keeps_leaf_order(rebuilds):
    # a refit to the positions of the last build leaves the spread where
    # the build left it, so the tree keeps its leaf order and its boxes
    mesh = small_spiral(3.6 * np.pi)
    bvh = BoundaryBvh(mesh)
    tree = bvh.tree
    before = {name: getattr(tree, name).copy() for name in ("prim", "lo", "hi")}
    mesh.set_vertices(mesh.vertices.copy())
    bvh.refit(mesh)
    assert len(rebuilds) == 1  # the build's own
    assert bvh.tree is tree and tree.spread() == bvh.built_spread
    for name, arr in before.items():
        assert np.array_equal(getattr(tree, name), arr)


def test_rewound_spiral_rebuilds_to_a_fresh_tree(rebuilds):
    # re-wound from 3.6 pi to 2.4 pi, the rest shape's splits overlap: the
    # refit spread is about 6 times the built one, so refit rebuilds in
    # place, to the node arrays and enumeration of a tree built on the
    # re-wound faces; a second refit there keeps that order
    mesh = small_spiral(3.6 * np.pi)
    bvh = BoundaryBvh(mesh)
    tree, built = bvh.tree, bvh.built_spread
    rest_prim = tree.prim.copy()
    mesh.set_vertices(small_spiral(2.4 * np.pi).vertices)
    bvh.refit(mesh)
    assert len(rebuilds) == 2
    assert bvh.tree is tree and not np.array_equal(tree.prim, rest_prim)
    fresh = AabbTree(_simplex_boxes(mesh.vertices[mesh.boundary_faces]))
    for name in ("left", "prim", "lo", "hi"):
        assert np.array_equal(getattr(tree, name), getattr(fresh, name)), name
    assert [level.tolist() for level in tree.levels] == [level.tolist() for level in fresh.levels]
    assert tree.node_ids == fresh.node_ids
    assert bvh.built_spread == fresh.spread() < built * bvh_module.SPREAD_GROWTH
    for p in mesh.vertices[::97] + 0.01:
        assert list(NearPrimIter(tree, p)) == list(NearPrimIter(fresh, p))
    # no rebuild at the positions of the last one
    n_rebuilds = len(rebuilds)
    bvh.refit(mesh)
    assert len(rebuilds) == n_rebuilds


def test_rebuilt_tree_answers_queries_as_a_fresh_one(rng, monkeypatch):
    # the re-wound spiral's queries on the rebuilt tree, on a tree built
    # for the re-wound mesh and on the rest tree refit without a rebuild
    # all give the same answers, bit for bit
    mesh = small_spiral(3.6 * np.pi)
    rebuilt = BoundaryBvh(mesh)
    refit_only = BoundaryBvh(mesh)
    mesh.set_vertices(small_spiral(2.4 * np.pi).vertices)
    rebuilt.refit(mesh)
    monkeypatch.setattr(bvh_module, "SPREAD_GROWTH", math.inf)
    refit_only.refit(mesh)
    assert not np.array_equal(rebuilt.tree.prim, refit_only.tree.prim)
    fresh = BoundaryBvh(mesh)
    points, elems = shapes.random_interior_points(mesh, rng, 60)
    for p, e in zip(points, elems):
        answers = [
            shortest_path_to_boundary(mesh, bvh, p, p_element=int(e))
            for bvh in (rebuilt, fresh, refit_only)
        ]
        assert answers[0] is not None
        keys = [(r.face, r.distance, r.point.tobytes()) for r in answers]
        assert keys[0] == keys[1] == keys[2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("collapse", ["point", "lines"])
def test_spread_without_leaf_area_never_rebuilds(rebuilds, collapse):
    # two separate tets whose faces lose all box area: collapsed to one
    # point, every box is that point and the spread is 0 / 0 = nan;
    # collapsed onto a line along x and one along y, the leaf boxes are
    # segments but the root box has area, so the spread is inf. Neither
    # rebuilds, and neither warns
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [3, 0, 0], [4, 0, 0], [3, 1, 0], [3, 0, 1]],
        dtype=float,
    )
    mesh = SimplicialMesh(verts, np.array([[0, 1, 2, 3], [4, 5, 6, 7]]))
    bvh = BoundaryBvh(mesh)
    if collapse == "point":
        moved = np.zeros_like(verts)
    else:
        moved = np.zeros_like(verts)
        moved[:4, 0] = np.arange(4)
        moved[4:, 0] = 5.0
        moved[4:, 1] = np.arange(4)
    mesh.set_vertices(moved)
    bvh.refit(mesh)
    spread = bvh.tree.spread()
    assert math.isnan(spread) if collapse == "point" else spread == math.inf
    assert len(rebuilds) == 1  # the build's own
