"""Axis-aligned bounding box hierarchies.

One tree type backs both the boundary-face hierarchy (best-first
closest-primitive enumeration) and the element-level hierarchy used by
discrete collision detection. Nodes are numbered level by level. The
build splits every node of one depth at once, box overlap answers a
whole batch of query boxes in one level-by-level walk, and refit sweeps
the tree one level at a time; all three are array code with a Python
loop over tree depth only. Rebuild is only needed on topology change.

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
    node i is left[i] + 1. The build splits all nodes of one depth at a
    time: each node's axis is the first of its largest centroid extents,
    one stable lexsort by (node, centroid on its axis) orders every
    node's primitives, and the left child takes the first half (rounded
    down). These are the partitions of a per-node stable argsort, ties
    included. `levels` lists each depth's internal nodes, for the
    level-order refit, which computes every box.
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
        centroids = 0.5 * (boxes[:, 0] + boxes[:, 1])
        # the nodes of one depth, in id order, with their primitives as
        # consecutive segments of `ids` and each segment's length
        ids = np.arange(n)
        node = np.zeros(1, dtype=np.int64)
        size = np.array([n])
        n_inner = 0
        while True:
            leaf = size == 1
            self.prim[node[leaf]] = ids[(np.cumsum(size) - 1)[leaf]]
            inner = ~leaf
            ids = ids[np.repeat(inner, size)]
            node, size = node[inner], size[inner]
            if not len(node):
                break
            self.levels.append(node)
            start = np.cumsum(size) - size
            cen = centroids[ids]
            extent = np.maximum.reduceat(cen, start) - np.minimum.reduceat(cen, start)
            seg = np.repeat(np.arange(len(node)), size)
            key = cen[np.arange(len(ids)), np.argmax(extent, axis=1)[seg]]
            ids = ids[np.lexsort((key, seg))]
            # the left child takes the first half of each sorted segment
            half = size // 2
            l = 1 + 2 * np.arange(n_inner, n_inner + len(node))
            n_inner += len(node)
            self.left[node] = l
            node = np.column_stack([l, l + 1]).ravel()
            size = np.column_stack([half, size - half]).ravel()
        self.refit(boxes)
        # per node, as Python ints: a leaf's primitive id, or minus an
        # internal node's left child, which best-first enumeration reads
        # without making a new int per node
        self.node_ids = np.where(self.prim >= 0, self.prim, -self.left).tolist()

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
        leaf = self.prim >= 0
        self.lo[leaf] = boxes[self.prim[leaf], 0]
        self.hi[leaf] = boxes[self.prim[leaf], 1]
        for nodes in reversed(self.levels):
            l = self.left[nodes]
            self.lo[nodes] = np.minimum(self.lo[l], self.lo[l + 1])
            self.hi[nodes] = np.maximum(self.hi[l], self.hi[l + 1])

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


def _simplex_boxes(vertices, simplices):
    pts = vertices[simplices]
    return np.stack([pts.min(axis=1), pts.max(axis=1)], axis=1)


class BoundaryBvh:
    """Hierarchy over boundary faces for closest-candidate enumeration."""

    def __init__(self, mesh):
        if mesh.n_boundary_faces == 0:
            raise EmptyBoundary("mesh has no boundary faces")
        self.tree = AabbTree(_simplex_boxes(mesh.vertices, mesh.boundary_faces))

    def refit(self, mesh):
        self.tree.refit(_simplex_boxes(mesh.vertices, mesh.boundary_faces))

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
        self.boxes = _simplex_boxes(vertices, elements)
        self.tree = AabbTree(self.boxes)

    def refit(self, vertices):
        self.boxes = _simplex_boxes(vertices, self.elements)
        self.tree.refit(self.boxes)
