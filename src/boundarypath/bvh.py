"""Axis-aligned bounding box hierarchies.

One tree type backs both the boundary-face hierarchy (best-first
closest-primitive enumeration) and the element-level hierarchy used by
discrete collision detection. Box overlap answers a whole batch of query
boxes in one level-by-level walk, and refit sweeps the tree one level at
a time; both are array code with a Python loop over tree depth only.
Rebuild is only needed on topology change.
"""

import heapq
import math

import numpy as np

from .errors import EmptyBoundary


class AabbTree:
    """Binary AABB tree, median split on the longest centroid axis.

    Nodes are stored in arrays; the two children of a node are allocated
    together, so right == left + 1. The build records each node's depth,
    for the level-order refit, and each primitive's rank in the leaf order
    of a right-first depth-first walk, which orders box_overlap's output.
    """

    def __init__(self, boxes):
        boxes = np.asarray(boxes, dtype=float)
        n = len(boxes)
        if n == 0:
            raise ValueError("cannot build a tree over zero primitives")
        self.n_prims = n
        max_nodes = 2 * n - 1
        self.lo = np.empty((max_nodes, boxes.shape[2]))
        self.hi = np.empty((max_nodes, boxes.shape[2]))
        self.left = np.full(max_nodes, -1, dtype=np.int64)
        self.right = np.full(max_nodes, -1, dtype=np.int64)
        self.prim = np.full(max_nodes, -1, dtype=np.int64)
        self.depth = np.zeros(max_nodes, dtype=np.int64)
        self.rank = np.empty(n, dtype=np.int64)  # leaf visit order per primitive
        self._n_nodes = 0
        centroids = 0.5 * (boxes[:, 0] + boxes[:, 1])
        # iterative build: (node index, primitive id array); popping the
        # right child first visits the leaves in the order box_overlap
        # reports them
        root = self._alloc()
        stack = [(root, np.arange(n))]
        n_leaves = 0
        while stack:
            node, ids = stack.pop()
            sub = boxes[ids]
            self.lo[node] = sub[:, 0].min(axis=0)
            self.hi[node] = sub[:, 1].max(axis=0)
            if len(ids) == 1:
                self.prim[node] = ids[0]
                self.rank[ids[0]] = n_leaves
                n_leaves += 1
                continue
            cen = centroids[ids]
            axis = int(np.argmax(cen.max(axis=0) - cen.min(axis=0)))
            order = np.argsort(cen[:, axis], kind="stable")
            half = len(ids) // 2
            l, r = self._alloc(), self._alloc()
            self.left[node] = l
            self.right[node] = r
            self.depth[l] = self.depth[r] = self.depth[node] + 1
            stack.append((l, ids[order[:half]]))
            stack.append((r, ids[order[half:]]))
        # the primitive of each node as Python ints, which best-first
        # enumeration hands out without making a new int per candidate
        self.prim_ids = self.prim.tolist()

    def _alloc(self):
        i = self._n_nodes
        self._n_nodes += 1
        return i

    def refit(self, boxes):
        """Leaves take their primitives' boxes; internal nodes are swept
        one level at a time from the deepest, so both children of a level
        are final before it reads them. Min and max are exact, so the
        boxes equal a node-by-node sweep's bit for bit."""
        boxes = np.asarray(boxes, dtype=float)
        leaf = self.prim >= 0
        self.lo[leaf] = boxes[self.prim[leaf], 0]
        self.hi[leaf] = boxes[self.prim[leaf], 1]
        inner = np.flatnonzero(~leaf)
        for d in range(int(self.depth.max()) - 1, -1, -1):
            nodes = inner[self.depth[inner] == d]
            l, r = self.left[nodes], self.right[nodes]
            self.lo[nodes] = np.minimum(self.lo[l], self.lo[r])
            self.hi[nodes] = np.maximum(self.hi[l], self.hi[r])

    def box_overlap(self, lo, hi):
        """Every (box, primitive) pair whose boxes intersect, for k query
        boxes given as (k, dim) corner arrays. Touching boxes intersect.

        The tree is walked one level at a time with a frontier of (box,
        node) pairs. Returns two int arrays (box index, primitive id),
        sorted by box and, within a box, in the order of a depth-first
        walk that visits right children first.
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
            node = np.concatenate([self.left[node], self.right[node]])
        box = np.concatenate(out_box)
        prim = np.concatenate(out_prim)
        order = np.lexsort((self.rank[prim], box))
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
