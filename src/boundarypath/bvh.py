"""Axis-aligned bounding box hierarchies.

One tree type backs both the boundary-face hierarchy (best-first
closest-primitive enumeration) and the element-level hierarchy used by
discrete collision detection. Nodes are numbered level by level. The
build splits every node of one depth at once, box overlap answers a
whole batch of query boxes in one level-by-level walk, and refit sweeps
the tree one level at a time; all three are array code with a Python
loop over tree depth only. Rebuild is only needed on topology change.
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
        self.lo = np.empty((max_nodes, boxes.shape[2]))
        self.hi = np.empty((max_nodes, boxes.shape[2]))
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
        # the primitive of each node as Python ints, which best-first
        # enumeration hands out without making a new int per candidate
        self.prim_ids = self.prim.tolist()

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


def _box_dist(lo, hi, p):
    """Distance from the point p to the box [lo, hi], all on Python floats."""
    s = 0.0
    for l, h, x in zip(lo, hi, p):
        d = l - x if x < l else (x - h if x > h else 0.0)
        s += d * d
    return math.sqrt(s)


class NearPrimIter:
    """Best-first enumeration of primitives by lower-bound distance to a
    point. Yields each primitive once, as (primitive, lower bound), in
    non-decreasing lower-bound order. `bound` is a lower bound on the
    distance of every primitive not yet yielded."""

    def __init__(self, tree, point):
        self.tree = tree
        self.point = np.asarray(point, dtype=float).tolist()
        self._heap = [(_box_dist(tree.lo[0].tolist(), tree.hi[0].tolist(), self.point), 0)]

    @property
    def bound(self):
        return self._heap[0][0] if self._heap else math.inf

    def __iter__(self):
        return self

    def __next__(self):
        tree = self.tree
        heap = self._heap
        p = self.point
        while heap:
            dist, node = heapq.heappop(heap)
            pid = tree.prim_ids[node]
            if pid >= 0:
                return pid, dist
            # both children in one slice; the right child is left + 1
            left = int(tree.left[node])
            lo_l, lo_r = tree.lo[left:left + 2].tolist()
            hi_l, hi_r = tree.hi[left:left + 2].tolist()
            heapq.heappush(heap, (_box_dist(lo_l, hi_l, p), left))
            heapq.heappush(heap, (_box_dist(lo_r, hi_r, p), left + 1))
        raise StopIteration


def _face_boxes(mesh):
    pts = mesh.vertices[mesh.boundary_faces]  # (m, dim, dim)
    return np.stack([pts.min(axis=1), pts.max(axis=1)], axis=1)


def _element_boxes(mesh):
    pts = mesh.vertices[mesh.elements]
    return np.stack([pts.min(axis=1), pts.max(axis=1)], axis=1)


class BoundaryBvh:
    """Hierarchy over boundary faces for closest-candidate enumeration."""

    def __init__(self, mesh):
        if mesh.n_boundary_faces == 0:
            raise EmptyBoundary("mesh has no boundary faces")
        self.tree = AabbTree(_face_boxes(mesh))

    def refit(self, mesh):
        self.tree.refit(_face_boxes(mesh))

    def nearest_faces(self, point):
        return NearPrimIter(self.tree, point)


def build_boundary_bvh(mesh):
    return BoundaryBvh(mesh)


class ElementBvh:
    """Hierarchy over elements for point-in-element and edge-vs-element
    collision candidate queries."""

    def __init__(self, mesh):
        if mesh.n_elements == 0:
            raise ValueError("mesh has no elements")
        self.tree = AabbTree(_element_boxes(mesh))

    def refit(self, mesh):
        self.tree.refit(_element_boxes(mesh))
