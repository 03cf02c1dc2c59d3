"""Simplicial mesh representation: tetrahedral in 3D, triangular in 2D.

Topology (element adjacency, oriented boundary faces), the boundary
feature maps (vertex/edge incidence, as grouped arrays) and the edge
twins (face_edge_twins: per boundary face and edge slot, the other
face's slot on that edge, which edge culling reads) are built once, at
construction; the face-interior feature of a boundary face is made when
an answer first needs it. Geometry that depends on positions only
is derived in one batched pass at construction and again on every
`set_vertices`, so queries read it instead of recomputing it:

- per element: signed volume, inverted and degenerate flags and their
  union (the skip flag), and the rows of the inverse edge matrix that map
  p - v0 to barycentric coordinates (nan for a flat element); whether any
  element is skipped, which makes queries traverse backward;
- per boundary face: whether its owner is skipped, area-weighted and unit
  outward normals, diameter, degeneracy flag, the barycentric floors
  above which the closest-point classifier needs no tolerance tests and,
  in 3D, the in-plane normal of each edge, which feasibility culling
  reads; its vertex rows and edge vectors, the operands of
  closest_point_on_face; and its plane row (unit normal, offset and
  rounding slack), read through a flat memoryview by distance_bounds;
- per vertex: whether it is a vertex of a skipped boundary face, which
  keeps feasibility culling conservative there.

distance_bounds gives the query the key a face waits under before its
closest point is computed: the larger of the face's box bound and its
plane bound |N . p - c| less a rounding slack. The plane bound never
exceeds the distance computed later, so the query takes its candidates
in the same order and gives the same answers; only faces whose plane
bound is beyond the answer are never computed.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DegenerateFace, IndexOutOfRange, NonManifold, ZeroNormal

BOUNDARY = -1

# A closest point within this fraction of its face's diameter of an edge
# or vertex is classified as that feature.
FEATURE_TOL = 1e-12

# Rounding allowances of a face's lower distance bound (distance_bounds),
# in units of a query point's 1-norm and of a face's largest coordinate
# magnitude: 2^-48 = 32u and 2^-44 = 512u, with the unit roundoff
# u = 2^-53, each at least twice the rounding it covers.
BOUND_POINT_SLACK = 2.0**-48
BOUND_FACE_SLACK = 2.0**-44

# Local face k is opposite element vertex k; the listed order gives an
# outward normal when the element has positive signed volume.
LOCAL_FACES_3D = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
LOCAL_FACES_2D = ((1, 2), (2, 0), (0, 1))


@dataclass(frozen=True, slots=True)
class BoundaryFeature:
    """Where a closest point sits on a boundary face.

    kind is 'face', 'edge', or 'vertex'. For 'edge', verts is the global
    vertex pair; for 'vertex' it is a 1-tuple. face_id always names the
    boundary face the point was computed on.
    """

    kind: str
    face_id: int
    verts: tuple = ()


def local_faces(dim):
    return LOCAL_FACES_3D if dim == 3 else LOCAL_FACES_2D


def build_adjacency(elements):
    """Element adjacency from an (m, dim+1) index array.

    Returns (adjacency, adj_local): neighbor element id (BOUNDARY where
    none) and the neighbor's local index of the shared face, both aligned
    with the local face numbering (face k opposite vertex k).

    Raises NonManifold if any face is shared by more than two elements.
    """
    elements = np.asarray(elements, dtype=np.int64)
    n_elem, nv = elements.shape
    # row e * nv + k holds the sorted vertex key of local face k of element e
    keys = np.sort(elements[:, np.asarray(local_faces(nv - 1))], axis=2)
    keys = keys.reshape(n_elem * nv, nv - 1)
    # all but the last vertex packed into one order-preserving int64, so
    # the sort takes two keys whatever the dimension
    lead, last = keys[:, 0], keys[:, -1]
    if nv == 4 and len(keys):
        lo = keys.min()
        lead = (lead - lo) * (keys.max() - lo + 1) + keys[:, 1]
    order = np.lexsort((last, lead))  # stable: equal keys keep row order
    lead, last = lead[order], last[order]
    same = (lead[1:] == lead[:-1]) & (last[1:] == last[:-1])
    third = np.flatnonzero(same[1:] & same[:-1])
    if len(third):
        # report the third owner that a pass in row order meets first
        row = int(order[third + 2].min())
        raise NonManifold([int(g) for g in keys[row]], [row // nv])
    a, b = order[:-1][same], order[1:][same]
    adjacency = np.full(n_elem * nv, BOUNDARY, dtype=np.int32)
    adj_local = np.full(n_elem * nv, -1, dtype=np.int8)
    adjacency[a], adj_local[a] = b // nv, b % nv
    adjacency[b], adj_local[b] = a // nv, a % nv
    return adjacency.reshape(n_elem, nv), adj_local.reshape(n_elem, nv)


def _grouped(keys, values, n_keys):
    """values grouped by integer key, each group in input order: (values,
    start) with group k at values[start[k]:start[k + 1]]."""
    order = np.argsort(keys, kind="stable")
    return values[order], np.searchsorted(keys[order], np.arange(n_keys + 1))


def _feature_maps(boundary_faces, n_vertices, dim):
    """Boundary faces of each vertex, boundary neighbors of each vertex
    (sorted) and boundary faces of each edge, as grouped arrays, and the
    edge twins. Faces are listed in face id order; edges are keyed by
    lo * n_vertices + hi of their vertex ids.

    A 3D face's edge slot k runs from its vertex k to vertex k + 1, and
    its flat slot is 3 * face + k; a 2D face is its one edge, with the
    flat slot face. The twins give, per flat slot, the flat slot of the
    other face's run of the same edge, or -1. A slot has a twin only when
    exactly two slots of two distinct faces run the edge, in opposite
    directions: the one arrangement that feasibility culling's edge test
    reads."""
    n_faces = len(boundary_faces)
    vertex_faces = _grouped(boundary_faces.ravel(), np.repeat(np.arange(n_faces), dim), n_vertices)
    # a 3D face has three edges, vertex i to i + 1; a 2D face is one edge
    a = boundary_faces if dim == 3 else boundary_faces[:, :1]
    b = boundary_faces[:, [1, 2, 0]] if dim == 3 else boundary_faces[:, 1:]
    a, b = a.ravel(), b.ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pairs = np.unique(np.concatenate([lo * n_vertices + hi, hi * n_vertices + lo]))
    neighbors = _grouped(pairs // n_vertices, pairs % n_vertices, n_vertices)
    edge_keys, edge_ids = np.unique(lo * n_vertices + hi, return_inverse=True)
    slots, start = _grouped(edge_ids, np.arange(len(a)), len(edge_keys))
    per_face = 3 if dim == 3 else 1
    # the first and second slot of each edge that two slots run
    first = start[:-1][np.diff(start) == 2]
    s0, s1 = slots[first], slots[first + 1]
    twin = (a[s0] == b[s1]) & (a[s0] != b[s0]) & (s0 // per_face != s1 // per_face)
    twins = np.full(len(a), -1, dtype=np.int64)
    twins[s0[twin]], twins[s1[twin]] = s1[twin], s0[twin]
    return vertex_faces, neighbors, (edge_keys, slots // per_face, start), twins


def bary_inside(rows, v0, p, tol):
    """Whether every barycentric coordinate of p is >= -tol in the element
    with vertex 0 at v0 and barycentric rows `rows` (bary_rows of the
    element, flattened), all float sequences, worked on Python floats.
    The element containment test of both element_contains and the ray
    traversal."""
    if len(rows) == 9:
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = rows
        v0, v1, v2 = v0
        d0, d1, d2 = p[0] - v0, p[1] - v1, p[2] - v2
        x = a0 * d0 + a1 * d1 + a2 * d2
        y = b0 * d0 + b1 * d1 + b2 * d2
        z = c0 * d0 + c1 * d1 + c2 * d2
        return x >= -tol and y >= -tol and z >= -tol and 1.0 - (x + y + z) >= -tol
    a0, a1, b0, b1 = rows
    v0, v1 = v0
    d0, d1 = p[0] - v0, p[1] - v1
    x = a0 * d0 + a1 * d1
    y = b0 * d0 + b1 * d1
    return x >= -tol and y >= -tol and 1.0 - (x + y) >= -tol


class SimplicialMesh:
    """A tetrahedral mesh from (n, 3) vertices or a triangular one from
    (n, 2) vertices. Raises ValueError for arrays of another shape or
    non-finite coordinates, and IndexOutOfRange for an element index that
    names no vertex."""

    def __init__(self, vertices, elements):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] not in (2, 3):
            raise ValueError("vertices must be (n, 2) or (n, 3)")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertex coordinates must be finite")
        self.dim = self.vertices.shape[1]
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise ValueError("elements must be (m, dim+1)")
        if self.elements.size and (
            self.elements.min() < 0 or self.elements.max() >= len(self.vertices)
        ):
            raise IndexOutOfRange(
                f"element index out of range (have {len(self.vertices)} vertices)"
            )
        self._build_topology()
        self._refresh_geometry()

    # -- construction ------------------------------------------------------

    def _build_topology(self):
        self.adjacency, self.adj_local = build_adjacency(self.elements)
        # row-major order: face ids follow (element, local face)
        owners, local = np.nonzero(self.adjacency == BOUNDARY)
        self.boundary_owner, self.boundary_owner_local = owners, local
        face_idx = np.asarray(local_faces(self.dim))[local]
        self.boundary_faces = self.elements[owners[:, None], face_idx]
        (
            self._vertex_faces, self._vertex_neighbors, self._edge_faces, self.face_edge_twins
        ) = _feature_maps(self.boundary_faces, len(self.vertices), self.dim)
        # unique boundary edges as sorted (lo, hi) vertex pairs in key
        # order; in 2D a boundary face is an edge
        keys = self._edge_faces[0]
        self.boundary_edges = (
            self.boundary_faces
            if self.dim == 2
            else np.column_stack([keys // len(self.vertices), keys % len(self.vertices)])
        )
        # a face-interior feature depends on the face id alone; made on
        # first use, by _face_feature
        self._face_features = {}

    def _refresh_geometry(self):
        # edge vectors gathered one column at a time, and the barycentric
        # rows filled and divided in place, keep the temporaries of a
        # refresh to a few (m, dim) arrays
        v, el = self.vertices, self.elements
        v0 = v[el[:, 0]]
        a = v[el[:, 1]] - v0
        b = v[el[:, 2]] - v0
        rows = np.empty((len(el), self.dim, self.dim))
        if self.dim == 3:
            # bit-identical to signed_volume_of in tests/conftest.py
            c = v[el[:, 3]] - v0
            bc = geometry.cross_rows(b, c)
            det = geometry.row_dots(a, bc)
            vols = det / 6.0
            # rows of the inverse of the edge matrix [a b c]: (b x c,
            # c x a, a x b) / det
            rows[:, 0] = bc
            rows[:, 1] = geometry.cross_rows(c, a)
            rows[:, 2] = geometry.cross_rows(a, b)
        else:
            det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            vols = det / 2.0
            # rows of the inverse of [a b]: (b1, -b0) / det, (-a1, a0) / det
            rows[:, 0, 0], rows[:, 0, 1] = b[:, 1], -b[:, 0]
            rows[:, 1, 0], rows[:, 1, 1] = -a[:, 1], a[:, 0]
        self.signed_volumes = vols
        self.inverted_flags = vols < 0.0
        self.degenerate_flags = vols == 0.0
        self.skipped_flags = self.inverted_flags | self.degenerate_flags
        # per boundary face: its owner is skipped
        self.boundary_face_skipped = self.skipped_flags[self.boundary_owner]
        # per vertex: it is a vertex of a skipped boundary face, which
        # feasibility culling reads
        self.touches_skipped_face = np.zeros(len(v), dtype=bool)
        self.touches_skipped_face[self.boundary_faces[self.boundary_face_skipped]] = True
        # any skipped element makes queries traverse backward
        self.has_skipped_elements = bool(self.skipped_flags.any())
        with np.errstate(divide="ignore", invalid="ignore"):
            rows /= det[:, None, None]
        # a flat element has no barycentric coordinates; nan rows make
        # every coordinate nan without raising floating-point warnings
        rows[self.degenerate_flags] = np.nan
        self.bary_rows = rows
        self._refresh_face_geometry()

    def _refresh_face_geometry(self):
        f = self.vertices[self.boundary_faces]
        if self.dim == 3:
            edges = f[:, [1, 2, 0]] - f  # edge k runs from face vertex k to k + 1
            # (b - a) x (c - a); c - a is minus edge 2, exactly
            n = geometry.cross_rows(edges[:, 0], -edges[:, 2])
        else:
            edges = f[:, 1:] - f[:, :1]
            n = edges[:, 0, ::-1] * [1.0, -1.0]
        # the closest point's operands, read per call
        self.face_vertices = f
        self.face_edges = edges
        lengths = geometry.row_norms(edges)
        diam = lengths.max(axis=1)
        n_len = geometry.row_norms(n)
        self.face_diameters = diam
        self.face_degenerate = diam == 0.0
        if self.dim == 3:
            self.face_degenerate |= n_len <= 1e-30 * np.maximum(diam, 1.0)
        self.face_area_normals = n
        planes = np.empty((len(f), self.dim + 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            planes[:, :self.dim] = n / n_len[:, None]
        self.face_unit_normals = planes[:, :self.dim]
        extent = np.abs(f).max(axis=(1, 2))  # the largest coordinate magnitude
        self._refresh_face_planes(planes, extent)
        with np.errstate(divide="ignore", invalid="ignore"):
            # each face vertex's distance to the face's edge (3D) or vertex
            # (2D) that does not touch it: twice the area over that edge's
            # length, or the length
            if self.dim == 3:
                heights = n_len[:, None] / lengths[:, [1, 2, 0]]
            else:
                heights = lengths[:, [0, 0]]
            # a closest point whose barycentric k is above floors[k] lies
            # farther than 2 * FEATURE_TOL * diameter from every edge and
            # vertex away from vertex k
            floors = (2.0 * FEATURE_TOL) * diam[:, None] / heights
        # where the roundoff of the coordinates could reach the tolerance,
        # the floors are infinite and the tolerance tests decide
        noisy = extent > diam * (FEATURE_TOL / (64.0 * np.finfo(float).eps))
        floors[noisy] = np.inf
        self.face_bary_floors = floors
        # 3D only: edge k of each face crossed into the face's plane,
        # (-n) x (edge k), which points away from the face
        self.face_edge_normals = (
            geometry.cross_rows(-self.face_unit_normals[:, None, :], edges)
            if self.dim == 3
            else None
        )

    def _refresh_face_planes(self, planes, extent):
        """Complete each face's row of `planes` after its unit normal N:
        the offset c = N . v0 and the slack that distance_bounds
        subtracts, 8 mu + BOUND_FACE_SLACK * extent. mu is the face's
        thickness along N as computed, the largest |N . e| over its edges:
        zero but for the rounding of N, and large for a sliver, whose
        normal is inaccurate. extent is the face's largest coordinate
        magnitude. A degenerate face, or one whose normal is nan, has a
        nan offset, so it keeps its box bound."""
        f, k = self.face_vertices, self.dim
        n = planes[:, :k]
        mu = np.abs(geometry.row_dots(n[:, None], self.face_edges)).max(axis=1)
        planes[:, k] = geometry.row_dots(n, f[:, 0])
        planes[:, k + 1] = 8.0 * mu + BOUND_FACE_SLACK * extent
        planes[self.face_degenerate | np.isnan(mu), k] = np.nan
        self.face_planes = planes

    @property
    def face_planes_view(self):
        """face_planes as one flat run of floats, read without a copy: a
        memoryview, made on request rather than kept, so that a mesh can
        still be pickled."""
        return memoryview(self.face_planes.reshape(-1))

    def set_vertices(self, vertices):
        """Replace vertex positions and recompute everything derived from
        them: signed volumes, the inverted/degenerate/skip flags and
        barycentric rows of the elements, has_skipped_elements, the
        skip flags, normals, diameters, degeneracy flags, barycentric
        floors, edge normals, vertex rows, edges and plane rows of the
        boundary faces, and the vertices' touches_skipped_face flags.
        Topology and the boundary feature maps do not depend on positions
        and stay. Any BVH built over this mesh must be refit by the caller. Raises ValueError, as the
        constructor does, for another shape or non-finite coordinates."""
        vertices = np.ascontiguousarray(vertices, dtype=float)
        if vertices.shape != self.vertices.shape:
            raise ValueError("vertex array shape must not change")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")
        self.vertices = vertices
        self._refresh_geometry()

    # -- basic queries -----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_boundary_faces(self):
        return len(self.boundary_faces)

    def element_skipped(self, e):
        """Inverted or degenerate elements are excluded from candidate
        generation and collision detection."""
        return bool(self.skipped_flags[e])

    def element_contains(self, e, p, tol=0.0):
        """Whether every barycentric coordinate of p in element e is >= -tol,
        worked on Python floats (bary_inside). A flat element's
        coordinates are nan, so it contains nothing."""
        v0 = self.vertices[self.elements[e, 0]].tolist()
        return bary_inside(self.bary_rows[e].ravel().tolist(), v0, p, tol)

    # -- boundary feature topology ------------------------------------------

    def _vertex_group(self, grouped, gv):
        values, start = grouped
        if not 0 <= gv < len(self.vertices):
            return []
        return values[start[gv]:start[gv + 1]].tolist()

    def boundary_vertex_neighbors(self, gv):
        return self._vertex_group(self._vertex_neighbors, gv)

    def boundary_faces_of_vertex(self, gv):
        return self._vertex_group(self._vertex_faces, gv)

    def boundary_faces_of_edge(self, a, b):
        keys, values, start = self._edge_faces
        a, b = sorted((int(a), int(b)))
        key = a * len(self.vertices) + b
        i = int(np.searchsorted(keys, key))
        if i == len(keys) or keys[i] != key:
            return []
        return values[start[i]:start[i + 1]].tolist()

    # -- closest point / normals ---------------------------------------------

    def closest_point_on_face(self, p, face_id):
        """Euclidean closest point to p on a boundary face, with feature
        classification. A point within FEATURE_TOL * diameter of an edge or
        vertex is classified as that feature; the first such vertex wins,
        then the first such edge.

        On a triangle, the six dot products of Ericson's region walk come
        from one geometry.row_dots call, so each rounds as np.dot does; the
        walk and the point run on Python floats, which round each
        difference, product and sum as numpy's elementwise arithmetic does.
        Point and barycentrics equal, bit for bit, those of the tests'
        reference walk, which takes each dot product from its own np.dot.

        Most points are classified from the barycentrics of the closest
        point's region alone: its nonzero coordinates name the feature when
        each is above its floor in face_bary_floors, which puts the point
        beyond twice the tolerance from every other feature. The others
        take the tolerance tests, which give the same answer."""
        if self.face_degenerate[face_id]:
            raise DegenerateFace(f"boundary face {face_id} is degenerate")
        gids = self.boundary_faces[face_id]
        verts = self.face_vertices[face_id]
        if self.dim == 3:
            edges = self.face_edges[face_id]
            # ab.ap, ca.ap; ab.bp, ca.bp; ab.cp, ca.cp from edges 0 and 2.
            # ac is minus edge 2 exactly, and negation commutes with
            # rounding, so negating the ca dots gives the ac dots bit for bit
            (d1, d2), (d3, d4), (d5, d6) = geometry.row_dots(edges[::2], (p - verts)[:, None]).tolist()
            d2, d4, d6 = -d2, -d4, -d6
            a, b, c = verts.tolist()
            ab, _, ca = edges.tolist()
            ac = [-x for x in ca]
            vc = d1 * d4 - d3 * d2
            vb = d5 * d2 - d1 * d6
            va = d3 * d6 - d5 * d4
            # the point's coordinates round as numpy's elementwise
            # arithmetic on the same operands does
            if d1 <= 0.0 and d2 <= 0.0:
                q, bary = a, (1.0, 0.0, 0.0)
            elif d3 >= 0.0 and d4 <= d3:
                q, bary = b, (0.0, 1.0, 0.0)
            elif vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
                denom = d1 - d3
                v = d1 / denom if denom != 0.0 else 0.0
                q, bary = [x + v * y for x, y in zip(a, ab)], (1.0 - v, v, 0.0)
            elif d6 >= 0.0 and d5 <= d6:
                q, bary = c, (0.0, 0.0, 1.0)
            elif vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
                denom = d2 - d6
                w = d2 / denom if denom != 0.0 else 0.0
                q, bary = [x + w * y for x, y in zip(a, ac)], (1.0 - w, 0.0, w)
            elif va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
                denom = (d4 - d3) + (d5 - d6)
                w = (d4 - d3) / denom if denom != 0.0 else 0.0
                q, bary = [x + w * (z - x) for x, z in zip(b, c)], (0.0, 1.0 - w, w)
            else:
                denom = va + vb + vc
                v = vb / denom
                w = vc / denom
                q, bary = [x + y * v + z * w for x, y, z in zip(a, ab, ac)], (1.0 - v - w, v, w)
            q = np.array(q)
        else:
            q, t = geometry.closest_point_on_segment(p, verts[0], verts[1])
            bary = (1.0 - t, t)
        on = [k for k, b in enumerate(bary) if b != 0.0]
        floors = self.face_bary_floors[face_id].tolist()
        if all(bary[k] > floors[k] for k in on):
            if len(on) == len(bary):
                return q, self._face_feature(face_id)
            g = gids.tolist()
            if len(on) == 1:
                return q, BoundaryFeature("vertex", face_id, (g[on[0]],))
            # an edge of a triangle, named in the face's edge order
            i, j = on
            return q, BoundaryFeature("edge", face_id, (g[i], g[j]) if j == i + 1 else (g[j], g[i]))
        tol = FEATURE_TOL * self.face_diameters[face_id]
        qv = q - verts
        near = np.flatnonzero(geometry.row_norms(qv) <= tol)
        if len(near):
            return q, BoundaryFeature("vertex", face_id, (int(gids[near[0]]),))
        if self.dim == 3:
            # geometry.closest_point_on_segment(q, v_i, v_i+1) for all three
            # edges at once; a face that is not degenerate has no
            # zero-length edge
            t = np.clip(geometry.row_dots(qv, edges) / geometry.row_dots(edges, edges), 0.0, 1.0)
            near = np.flatnonzero(geometry.row_norms(q - (verts + t[:, None] * edges)) <= tol)
            if len(near):
                i = int(near[0])
                pair = (int(gids[i]), int(gids[(i + 1) % 3]))
                return q, BoundaryFeature("edge", face_id, pair)
        return q, self._face_feature(face_id)

    def distance_bounds(self, p):
        """For a query point p, the function key(face, box) that returns
        the larger of `box`, a lower bound on the distance from p to the
        face's box, and the face's plane bound

            |N . p - c| - slack(face) - BOUND_POINT_SLACK |p|_1,

        with the face's unit normal N, offset c and slack from
        face_planes, worked on Python floats. A face with a nan offset
        keeps its box bound.

        The plane bound never exceeds the distance from p to the point
        that closest_point_on_face gives on the face, as the query
        computes it (the square root of d . d, with d their difference).
        In exact arithmetic |N . (p - q)| <= |N| |p - q| for every q, and
        the slack covers, at least twice over, the rounding by which the
        computed value can exceed the computed distance. With the unit
        roundoff u = 2^-53, R <= 3A and E <= 2R the largest 1-norms of the
        face's vertices and edges (A its largest coordinate magnitude),
        that is the rounding of:

        - the closest point. But for the rounding of its coordinates
          (2u R + 15u E), it is a + v e0 - w e2 (face region), a + v e0,
          a - w e2 or b + w e1 (edge regions) or a vertex, with the face's
          stored edges e_k, which differ from the exact vertex differences
          by u E. So it lies in the face's plane within (|v| + |w|) mu. In
          the edge regions v and w lie in [0, 1] as computed; in the face
          region they are the coordinates of a projection inside the
          triangle, off by rounding only, and the slack allows
          |v| + |w| <= 3.
        - N . p (3u |p|_1), c (3u R) and mu (3u E);
        - the computed distance (4u) and |N| != 1 (5u), relative to
          |N . p - c| <= |p|_1 + R;
        - and the bound's own subtractions.

        The box bound is the enumeration's own: it can exceed the computed
        distance by the rounding of the closest point, as it did before
        the plane bound was added. In 2D the plane is the edge's line and
        the same bound holds."""
        x = np.asarray(p, dtype=float).tolist()
        rows = self.face_planes_view
        # the 1-norm summed left to right: sum() of floats is compensated
        # from Python 3.12 on, and would round otherwise there
        if len(x) == 3:
            x0, x1, x2 = x
            p_slack = BOUND_POINT_SLACK * (abs(x0) + abs(x1) + abs(x2))

            def key(face, box):
                n0, n1, n2, c, slack = rows[5 * face:5 * face + 5]
                g = abs(n0 * x0 + n1 * x1 + n2 * x2 - c) - slack - p_slack
                return g if g > box else box

        else:
            x0, x1 = x
            p_slack = BOUND_POINT_SLACK * (abs(x0) + abs(x1))

            def key(face, box):
                n0, n1, c, slack = rows[4 * face:4 * face + 4]
                g = abs(n0 * x0 + n1 * x1 - c) - slack - p_slack
                return g if g > box else box

        return key

    def _face_feature(self, face_id):
        """The face-interior feature of a face, made on first use and
        shared by every later answer on that face."""
        feature = self._face_features.get(face_id)
        if feature is None:
            feature = self._face_features[face_id] = BoundaryFeature("face", int(face_id))
        return feature

    def pseudo_normal(self, feature):
        """Unit outward normal at a boundary feature: the face normal on a
        face interior, the area-weighted average of adjacent boundary face
        normals on an edge or vertex."""
        normals = self.face_area_normals
        # sum() adds the rows one at a time, in face order
        if feature.kind == "face":
            n = normals[feature.face_id]
        elif feature.kind == "edge":
            n = sum(normals[self.boundary_faces_of_edge(*feature.verts)])
        elif feature.kind == "vertex":
            n = sum(normals[self.boundary_faces_of_vertex(feature.verts[0])])
        else:
            raise ValueError(f"unknown feature kind {feature.kind!r}")
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise ZeroNormal(f"pseudo-normal vanishes at {feature}")
        return n / norm
