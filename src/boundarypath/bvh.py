"""Axis-aligned bounding box hierarchies.

One tree type backs both the boundary-face hierarchy (best-first
closest-primitive enumeration) and the element-level hierarchy used by
discrete collision detection. Nodes are numbered level by level. The
build splits every node of one depth at once, box overlap answers a
whole batch of query boxes in one level-by-level walk, and refit sweeps
the tree one level at a time; all three are array code with a Python
loop over tree depth only. The tree's shape depends only on its number
of primitives, so a rebuild for new positions re-derives the leaf order
in place. The boundary tree rebuilds when a refit leaves it loose (see
`BoundaryBvh`); the element tree only refits.

Best-first enumeration is scalar: it reads node boxes as Python floats
through one flat memoryview of the box array (`AabbTree.bounds_view`,
one per enumeration; refit writes the array in place), and expands both
children of a node inside `NearPrimIter.__next__`, so no box is copied
into a list.
"""

import heapq
import math

import numpy as np

from .errors import EmptyBoundary


class AabbTree:
    """Binary AABB tree, median split on the longest centroid axis.

    Nodes are stored in arrays and numbered in level order: the k-th
    internal node has children 2k + 1 and 2k + 2, so the right child of
    node i is left[i] + 1, and the children of one depth's internal nodes
    are one run of consecutive nodes. A node of m primitives gives its
    left child the first m // 2 of them, so the shape of the tree (`left`,
    and `levels`, each depth's internal nodes in id order) depends only on
    the number of primitives: the constructor derives it once, and
    `rebuild` derives the leaf order (`prim`, `node_ids`) for a set of
    boxes in place. Each node's axis is the first of its largest centroid
    extents, and its primitives are sorted by centroid on that axis, ties
    by primitive id. All nodes of one depth are sorted by one argsort of a
    unique int64 key: the node's segment of the leaf order times n plus
    the primitive's rank on the node's axis, ranked once per build.
    """

    def __init__(self, boxes):
        boxes = np.asarray(boxes, dtype=float)
        n = len(boxes)
        if n == 0:
            raise ValueError("cannot build a tree over zero primitives")
        max_nodes = 2 * n - 1
        # each node's box as a (lo, hi) row pair, so that one slice reads
        # both children's boxes; lo and hi are views of its two halves
        self.bounds = np.empty((max_nodes, 2, boxes.shape[2]))
        self.lo = self.bounds[:, 0]
        self.hi = self.bounds[:, 1]
        self.left = np.full(max_nodes, -1, dtype=np.int64)
        self.prim = np.full(max_nodes, -1, dtype=np.int64)
        self.levels = []
        # per depth that has internal nodes: the segments of the leaf
        # order (its nodes and the leaves above it), as each one's first
        # position and length
        self._sorts = []
        # per depth, deepest first: its internal nodes (a slice where they
        # are consecutive) and the slice of their children
        self._sweep = []
        # the leaf node at each position of the leaf order
        self._leaves = np.empty(n, dtype=np.int64)
        first = np.zeros(n, dtype=bool)  # the positions that start a segment
        # the nodes of one depth, in id order, with each one's first
        # position in the leaf order and its number of primitives
        node = np.zeros(1, dtype=np.int64)
        start = np.zeros(1, dtype=np.int64)
        size = np.array([n])
        sides = np.array([0, 1])  # left child, right child
        n_inner = 0
        while True:
            first[start] = True
            leaf = size == 1
            self._leaves[start[leaf]] = node[leaf]
            inner = ~leaf
            node, start, size = node[inner], start[inner], size[inner]
            if not len(node):
                break
            self.levels.append(node)
            self._sorts.append((first.nonzero()[0], np.bincount(first.cumsum() - 1)))
            l = 1 + 2 * n_inner
            n_inner += len(node)
            consecutive = node[-1] - node[0] == len(node) - 1
            self._sweep.append(
                (slice(node[0], node[-1] + 1) if consecutive else node, slice(l, 1 + 2 * n_inner))
            )
            self.left[node] = np.arange(l, 1 + 2 * n_inner, 2)
            # the left child takes the first half, rounded down
            half, odd = np.divmod(size, 2)
            node = np.arange(l, 1 + 2 * n_inner)
            start = (start[:, None] + half[:, None] * sides).ravel()
            size = (half[:, None] + odd[:, None] * sides).ravel()
        self._sweep.reverse()
        self.rebuild(boxes)

    def rebuild(self, boxes):
        """Derive the leaf order for `boxes`, one box per primitive, and
        refit: the tree keeps its shape and its arrays."""
        boxes = np.asarray(boxes, dtype=float)
        n, dim = len(boxes), boxes.shape[2]
        # axis by axis: each primitive's centroid, and its rank by centroid
        # with ties by primitive id, flat so that one take reads a rank
        centroids = np.ascontiguousarray(0.5 * (boxes[:, 0] + boxes[:, 1]).T)
        rank = np.empty((dim, n), dtype=np.int64)
        rank[np.arange(dim)[:, None], np.argsort(centroids, axis=1, kind="stable")] = np.arange(n)
        rank = rank.ravel()
        ids = np.arange(n)
        for offsets, lengths in self._sorts:
            cen = centroids.take(ids, axis=1)
            extent = np.maximum.reduceat(cen, offsets, axis=1) - np.minimum.reduceat(cen, offsets, axis=1)
            # per position: its segment times n, and its segment's axis times n
            seg = np.arange(0, n * len(offsets), n).repeat(lengths)
            axis = (extent.argmax(axis=0) * n).repeat(lengths)
            ids = ids.take((seg + rank.take(axis + ids)).argsort())
        self.prim[self._leaves] = ids
        # per node, as Python ints: a leaf's primitive id, or minus an
        # internal node's left child, which best-first enumeration reads
        # without making a new int per node
        self.node_ids = np.where(self.prim >= 0, self.prim, -self.left).tolist()
        self.refit(boxes)

    @property
    def bounds_view(self):
        """The boxes as one flat run of floats, node by node, lo then hi:
        a memoryview of `bounds`, which refit writes in place. Made on
        request rather than kept, so that a tree can still be pickled."""
        return memoryview(self.bounds.reshape(-1))

    def refit(self, boxes):
        """Leaves take their primitives' boxes; internal nodes are swept
        one level at a time from the deepest, so both children of a level
        are final before it reads them. Min and max are exact, so the
        boxes equal a node-by-node sweep's bit for bit."""
        boxes = np.asarray(boxes, dtype=float)
        self.bounds[self._leaves] = np.take(boxes, self.prim[self._leaves], axis=0)
        for nodes, children in self._sweep:
            pair = self.bounds[children].reshape(-1, 2, 2, self.bounds.shape[2])
            self.lo[nodes] = np.minimum(pair[:, 0, 0], pair[:, 1, 0])
            self.hi[nodes] = np.maximum(pair[:, 0, 1], pair[:, 1, 1])

    def spread(self):
        """The summed surface area of the internal nodes' boxes over that
        of the leaves' boxes (perimeter in 2D; the common factor 2 left
        out): 0 for a one-leaf tree, nan or inf when the leaf boxes have
        no area, and computed without floating-point warnings."""
        with np.errstate(all="ignore"):
            ext = self.hi - self.lo
            if ext.shape[1] == 3:
                area = ext[:, 0] * ext[:, 1] + ext[:, 1] * ext[:, 2] + ext[:, 2] * ext[:, 0]
            else:
                area = ext[:, 0] + ext[:, 1]
            leaves = area.take(self._leaves).sum()
            return (area.sum() - leaves) / leaves

    def box_overlap(self, lo, hi):
        """Every (box, primitive) pair whose boxes intersect, for k query
        boxes given as (k, dim) corner arrays. Touching boxes intersect.

        The tree is walked one level at a time with a frontier of (box,
        node) pairs. Returns two int arrays (box index, primitive id),
        sorted by box and, within a box, by primitive id.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        box = np.arange(len(lo))
        node = np.zeros(len(lo), dtype=np.int64)
        out_box, out_prim = [box[:0]], [node[:0]]
        while len(box):
            miss = np.any(self.lo[node] > hi[box], axis=1)
            miss |= np.any(self.hi[node] < lo[box], axis=1)
            box, node = box[~miss], node[~miss]
            pid = self.prim[node]
            leaf = pid >= 0
            out_box.append(box[leaf])
            out_prim.append(pid[leaf])
            box, node = box[~leaf], node[~leaf]
            box = np.concatenate([box, box])
            left = self.left[node]
            node = np.concatenate([left, left + 1])
        box = np.concatenate(out_box)
        prim = np.concatenate(out_prim)
        order = np.lexsort((prim, box))
        return box[order], prim[order]


class NearPrimIter:
    """Best-first enumeration of primitives by lower-bound distance to a
    point. Yields each primitive once, as (primitive, lower bound), in
    non-decreasing lower-bound order. `bound` is a lower bound on the
    distance of every primitive not yet yielded.

    A node's bound is its box distance, summed axis by axis on Python
    floats from the tree's `bounds_view`; both children of a node are
    read with one slice of it, as their boxes are consecutive."""

    def __init__(self, tree, point):
        self.tree = tree
        self.point = np.asarray(point, dtype=float).tolist()
        self._boxes = tree.bounds_view
        dim = len(self.point)
        root = self._boxes[:2 * dim]
        s = 0.0
        for x, l, h in zip(self.point, root[:dim], root[dim:]):
            d = l - x if x < l else (x - h if x > h else 0.0)
            s += d * d
        self._heap = [(math.sqrt(s), 0)]

    @property
    def bound(self):
        return self._heap[0][0] if self._heap else math.inf

    def __iter__(self):
        return self

    def __next__(self):
        heap, node_ids, boxes = self._heap, self.tree.node_ids, self._boxes
        replace, push = heapq.heapreplace, heapq.heappush
        # the nearest node is read in place: a leaf is popped, and an
        # internal node is replaced by its left child, -pid, while its right
        # child, -pid + 1, is pushed
        if len(self.point) == 3:
            x0, x1, x2 = self.point
            while heap:
                dist, node = heap[0]
                pid = node_ids[node]
                if pid >= 0:
                    heapq.heappop(heap)
                    return pid, dist
                l0, l1, l2, h0, h1, h2, m0, m1, m2, g0, g1, g2 = boxes[-6 * pid:12 - 6 * pid]
                d0 = l0 - x0 if x0 < l0 else (x0 - h0 if x0 > h0 else 0.0)
                d1 = l1 - x1 if x1 < l1 else (x1 - h1 if x1 > h1 else 0.0)
                d2 = l2 - x2 if x2 < l2 else (x2 - h2 if x2 > h2 else 0.0)
                replace(heap, (math.sqrt(d0 * d0 + d1 * d1 + d2 * d2), -pid))
                d0 = m0 - x0 if x0 < m0 else (x0 - g0 if x0 > g0 else 0.0)
                d1 = m1 - x1 if x1 < m1 else (x1 - g1 if x1 > g1 else 0.0)
                d2 = m2 - x2 if x2 < m2 else (x2 - g2 if x2 > g2 else 0.0)
                push(heap, (math.sqrt(d0 * d0 + d1 * d1 + d2 * d2), 1 - pid))
        else:
            x0, x1 = self.point
            while heap:
                dist, node = heap[0]
                pid = node_ids[node]
                if pid >= 0:
                    heapq.heappop(heap)
                    return pid, dist
                l0, l1, h0, h1, m0, m1, g0, g1 = boxes[-4 * pid:8 - 4 * pid]
                d0 = l0 - x0 if x0 < l0 else (x0 - h0 if x0 > h0 else 0.0)
                d1 = l1 - x1 if x1 < l1 else (x1 - h1 if x1 > h1 else 0.0)
                replace(heap, (math.sqrt(d0 * d0 + d1 * d1), -pid))
                d0 = m0 - x0 if x0 < m0 else (x0 - g0 if x0 > g0 else 0.0)
                d1 = m1 - x1 if x1 < m1 else (x1 - g1 if x1 > g1 else 0.0)
                push(heap, (math.sqrt(d0 * d0 + d1 * d1), 1 - pid))
        raise StopIteration


def _simplex_boxes(pts):
    """Each simplex's box from its k rows of vertex coordinates, (n, k,
    dim) in all: element-wise min and max over the rows, which are exact,
    so the boxes equal a reduction's bit for bit."""
    boxes = np.empty((len(pts), 2, pts.shape[2]))
    lo, hi = boxes[:, 0], boxes[:, 1]
    np.minimum(pts[:, 0], pts[:, 1], out=lo)
    np.maximum(pts[:, 0], pts[:, 1], out=hi)
    for k in range(2, pts.shape[1]):
        np.minimum(lo, pts[:, k], out=lo)
        np.maximum(hi, pts[:, k], out=hi)
    return boxes


# BoundaryBvh.refit's trigger, from an interleaved sweep on the
# benchmark's re-wound spiral: 4,464 faces, built at 3.6 pi with a spread
# of 4.4, which a rest-shape tree refit to 3.2, 4.0 and 3.4 pi raises to
# 17.5, 13.8 and 8.7 (a fresh tree reads 3.3 to 5.7 at any angle). Per
# round of those four frames with 64 queries each, factors 1.5, 2, 3, 4
# and no rebuild at all gave 4, 4, 2, 0 and 0 rebuilds and a median query
# time of 0.158, 0.159, 0.188, 0.229 and 0.226 ms, while refit plus
# queries stayed at 78 to 82 ms a round. In the two-box recovery scenes
# (res 2 and 3, 40 substeps) the spread stays at 0.87 to 1 times its
# built value.
SPREAD_GROWTH = 2.0


class BoundaryBvh:
    """Hierarchy over boundary faces for closest-candidate enumeration,
    with the face boxes taken from the mesh's `face_vertices` rows.

    A mesh that deforms leaves the rest shape's splits behind: refit keeps
    every box tight around its faces, but sibling boxes come to overlap
    and best-first enumeration opens more nodes, so `refit` rebuilds the
    leaf order once the tree has loosened."""

    def __init__(self, mesh):
        if mesh.n_boundary_faces == 0:
            raise EmptyBoundary("mesh has no boundary faces")
        self.tree = AabbTree(_simplex_boxes(mesh.face_vertices))
        self.built_spread = self.tree.spread()

    def refit(self, mesh):
        """Refit to the mesh's current face rows; then, if the tree's
        spread (`AabbTree.spread`: internal-node box area over leaf box
        area) has grown past SPREAD_GROWTH = 2 times `built_spread`, its
        value at the last build, rebuild the leaf order in place. A nan or
        inf spread (leaf boxes without area) never rebuilds, and `tree`
        stays the same object either way. The factor comes from the sweep
        recorded at SPREAD_GROWTH: on the benchmark's re-wound spiral, 2
        rebuilds at every frame and cuts the median query time by a third,
        3 rebuilds at half the frames, 4 and above never."""
        boxes = _simplex_boxes(mesh.face_vertices)
        self.tree.refit(boxes)
        spread = self.tree.spread()
        if SPREAD_GROWTH * self.built_spread < spread < math.inf:
            self.tree.rebuild(boxes)
            self.built_spread = self.tree.spread()

    def nearest_faces(self, point):
        return NearPrimIter(self.tree, point)


def build_boundary_bvh(mesh):
    return BoundaryBvh(mesh)


class ElementBvh:
    """Hierarchy over elements (rows of vertex ids) for collision
    candidates; the simulator keeps one over every element of its scene.
    `boxes` holds each element's box from the last build or refit, the
    tree's leaf boxes in element order."""

    def __init__(self, vertices, elements):
        self.elements = elements
        self.boxes = _simplex_boxes(vertices[elements])
        self.tree = AabbTree(self.boxes)

    def refit(self, vertices):
        self.boxes = _simplex_boxes(vertices[self.elements])
        self.tree.refit(self.boxes)
