"""Simplicial mesh representation: tetrahedral in 3D, triangular in 2D.

Topology (element adjacency, oriented boundary faces) and the boundary
feature maps (vertex/edge incidence, as grouped arrays) are built once,
at construction; the face-interior feature of a boundary face is made
when an answer first needs it. Geometry that depends on positions only
is derived in one batched pass at construction and again on every
`set_vertices`, so queries read it instead of recomputing it:

- per element: signed volume, inverted and degenerate flags and their
  union (the skip flag), and the rows of the inverse edge matrix that map
  p - v0 to barycentric coordinates (nan for a flat element); whether any
  skipped element owns no boundary face;
- per boundary face: whether its owner is skipped, area-weighted and unit
  outward normals, diameter, degeneracy flag, the barycentric floors
  above which the closest-point classifier needs no tolerance tests and,
  in 3D, the in-plane normal of each edge, which feasibility culling
  reads.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DegenerateFace, NonManifold, ZeroNormal

BOUNDARY = -1

# A closest point within this fraction of its face's diameter of an edge
# or vertex is classified as that feature.
FEATURE_TOL = 1e-12

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
    (sorted) and boundary faces of each edge, as grouped arrays. Faces are
    listed in face id order; edges are keyed by lo * n_vertices + hi of
    their vertex ids."""
    n_faces = len(boundary_faces)
    vertex_faces = _grouped(boundary_faces.ravel(), np.repeat(np.arange(n_faces), dim), n_vertices)
    # a 3D face has three edges, vertex i to i + 1; a 2D face is one edge
    a = boundary_faces if dim == 3 else boundary_faces[:, :1]
    b = boundary_faces[:, [1, 2, 0]] if dim == 3 else boundary_faces[:, 1:]
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    pairs = np.unique(np.concatenate([lo * n_vertices + hi, hi * n_vertices + lo]))
    neighbors = _grouped(pairs // n_vertices, pairs % n_vertices, n_vertices)
    edge_keys, edge_ids = np.unique(lo * n_vertices + hi, return_inverse=True)
    edge_faces = _grouped(edge_ids, np.repeat(np.arange(n_faces), a.shape[1]), len(edge_keys))
    return vertex_faces, neighbors, (edge_keys, *edge_faces)


class SimplicialMesh:
    """A tetrahedral mesh from (n, 3) vertices or a triangular one from
    (n, 2) vertices. Raises ValueError for arrays of another shape or
    non-finite coordinates."""

    def __init__(self, vertices, elements, names=None):
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
            from .errors import IndexOutOfRange

            raise IndexOutOfRange("element references a vertex out of range")
        self.names = dict(names) if names else {}
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
        self._owns_boundary = np.zeros(len(self.elements), dtype=bool)
        self._owns_boundary[owners] = True
        self._vertex_faces, self._vertex_neighbors, self._edge_faces = _feature_maps(
            self.boundary_faces, len(self.vertices), self.dim
        )
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
            # bit-identical to geometry.signed_volume_of
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
        # a skipped element owning no boundary face makes queries traverse
        # backward
        self.has_inverted_interior = bool(np.any(self.skipped_flags & ~self._owns_boundary))
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
            n = geometry.cross_rows(f[:, 1] - f[:, 0], f[:, 2] - f[:, 0])
        else:
            edges = f[:, 1:] - f[:, :1]
            n = edges[:, 0, ::-1] * [1.0, -1.0]
        lengths = geometry.row_norms(edges)
        diam = lengths.max(axis=1)
        n_len = geometry.row_norms(n)
        self.face_diameters = diam
        self.face_degenerate = diam == 0.0
        if self.dim == 3:
            self.face_degenerate |= n_len <= 1e-30 * np.maximum(diam, 1.0)
        self.face_area_normals = n
        with np.errstate(divide="ignore", invalid="ignore"):
            self.face_unit_normals = n / n_len[:, None]
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
        noisy = np.abs(f).max(axis=(1, 2)) > diam * (FEATURE_TOL / (64.0 * np.finfo(float).eps))
        floors[noisy] = np.inf
        self.face_bary_floors = floors
        # 3D only: edge k of each face crossed into the face's plane,
        # (-n) x (edge k), which points away from the face
        self.face_edge_normals = (
            geometry.cross_rows(-self.face_unit_normals[:, None, :], edges)
            if self.dim == 3
            else None
        )

    def set_vertices(self, vertices):
        """Replace vertex positions and recompute everything derived from
        them: signed volumes, the inverted/degenerate/skip flags and
        barycentric rows of the elements, has_inverted_interior, and the
        skip flags, normals, diameters, degeneracy flags, barycentric
        floors and edge normals of the boundary faces. Topology and the
        boundary feature maps do not depend on positions and stay. Any BVH built over this
        mesh must be refit by the caller. Raises ValueError, as the
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
        worked on Python floats. A flat element's coordinates are nan, so
        it contains nothing."""
        v = self.vertices[self.elements[e, 0]].tolist()
        if self.dim == 3:
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = self.bary_rows[e].tolist()
            d0, d1, d2 = p[0] - v[0], p[1] - v[1], p[2] - v[2]
            x = a0 * d0 + a1 * d1 + a2 * d2
            y = b0 * d0 + b1 * d1 + b2 * d2
            z = c0 * d0 + c1 * d1 + c2 * d2
            return x >= -tol and y >= -tol and z >= -tol and 1.0 - (x + y + z) >= -tol
        (a0, a1), (b0, b1) = self.bary_rows[e].tolist()
        d0, d1 = p[0] - v[0], p[1] - v[1]
        x = a0 * d0 + a1 * d1
        y = b0 * d0 + b1 * d1
        return x >= -tol and y >= -tol and 1.0 - (x + y) >= -tol

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
        Point and barycentrics equal geometry.closest_point_on_triangle's
        bit for bit.

        Most points are classified from the barycentrics of the closest
        point's region alone: its nonzero coordinates name the feature when
        each is above its floor in face_bary_floors, which puts the point
        beyond twice the tolerance from every other feature. The others
        take the tolerance tests, which give the same answer."""
        if self.face_degenerate[face_id]:
            raise DegenerateFace(f"boundary face {face_id} is degenerate")
        gids = self.boundary_faces[face_id]
        verts = self.vertices.take(gids, axis=0)
        if self.dim == 3:
            edges = verts[1:] - verts[0]
            # ab.ap, ac.ap; ab.bp, ac.bp; ab.cp, ac.cp
            (d1, d2), (d3, d4), (d5, d6) = geometry.row_dots(edges, (p - verts)[:, None]).tolist()
            a, b, c = verts.tolist()
            ab, ac = edges.tolist()
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
                if denom == 0.0:
                    raise DegenerateFace("triangle has (near-)zero area")
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
            ab = verts[[1, 2, 0]] - verts
            t = np.clip(geometry.row_dots(qv, ab) / geometry.row_dots(ab, ab), 0.0, 1.0)
            near = np.flatnonzero(geometry.row_norms(q - (verts + t[:, None] * ab)) <= tol)
            if len(near):
                i = int(near[0])
                pair = (int(gids[i]), int(gids[(i + 1) % 3]))
                return q, BoundaryFeature("edge", face_id, pair)
        return q, self._face_feature(face_id)

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
