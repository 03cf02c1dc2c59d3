"""Simplicial mesh representation: tetrahedral in 3D, triangular in 2D.

Topology (element adjacency, oriented boundary faces) and the boundary
feature maps (vertex/edge incidence) are built once, at construction;
`set_vertices` recomputes only signed volumes and the inverted/degenerate
flags.
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


@dataclass(frozen=True)
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
    order = np.lexsort(keys.T[::-1])  # stable: equal keys keep row order
    sorted_keys = keys[order]
    same = np.all(sorted_keys[1:] == sorted_keys[:-1], axis=1)
    third = np.flatnonzero(same[1:] & same[:-1])
    if len(third):
        # report the third owner that a pass in row order meets first
        row = int(order[third + 2].min())
        raise NonManifold([int(g) for g in keys[row]], [row // nv])
    a, b = order[:-1][same], order[1:][same]
    adjacency = np.full(n_elem * nv, BOUNDARY, dtype=np.int64)
    adj_local = np.full(n_elem * nv, -1, dtype=np.int64)
    adjacency[a], adj_local[a] = b // nv, b % nv
    adjacency[b], adj_local[b] = a // nv, a % nv
    return adjacency.reshape(n_elem, nv), adj_local.reshape(n_elem, nv)


def _feature_maps(boundary_faces, dim):
    """Boundary faces of each vertex and edge, and the boundary neighbors
    of each vertex (sorted), keyed by global vertex ids."""
    vertex_faces = {}
    edge_faces = {}
    neighbors = {}
    for fid, face in enumerate(boundary_faces.tolist()):
        for g in face:
            vertex_faces.setdefault(g, []).append(fid)
        for i in range(dim if dim == 3 else 1):
            a, b = face[i], face[(i + 1) % dim]
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(fid)
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)
    return vertex_faces, edge_faces, {g: sorted(n) for g, n in neighbors.items()}


class SimplicialMesh:
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
        self.version = 0
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
        self._vertex_faces, self._edge_faces, self._vertex_neighbors = _feature_maps(
            self.boundary_faces, self.dim
        )

    def _refresh_geometry(self):
        x = self.vertices[self.elements]
        a = x[:, 1] - x[:, 0]
        b = x[:, 2] - x[:, 0]
        if self.dim == 3:
            # bit-identical to geometry.signed_volume_of; einsum and
            # sum(axis=1) round differently on some elements
            c = x[:, 3] - x[:, 0]
            vols = (a[:, None, :] @ np.cross(b, c)[:, :, None])[:, 0, 0] / 6.0
        else:
            vols = (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) / 2.0
        self.signed_volumes = vols
        self.inverted_flags = vols < 0.0
        self.degenerate_flags = vols == 0.0

    def set_vertices(self, vertices):
        """Replace vertex positions and recompute signed volumes and the
        inverted/degenerate flags; topology and the boundary feature maps
        do not depend on positions and stay. Any BVH built over this mesh
        must be refit by the caller."""
        vertices = np.ascontiguousarray(vertices, dtype=float)
        if vertices.shape != self.vertices.shape:
            raise ValueError("vertex array shape must not change")
        self.vertices = vertices
        self.version += 1
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

    def signed_volume(self, e):
        return float(self.signed_volumes[e])

    def element_skipped(self, e):
        """Inverted or degenerate elements are excluded from candidate
        generation and collision detection."""
        return bool(self.inverted_flags[e] or self.degenerate_flags[e])

    @property
    def boundary_face_skipped(self):
        """Per boundary face: owner is inverted or degenerate."""
        return self.inverted_flags[self.boundary_owner] | self.degenerate_flags[
            self.boundary_owner
        ]

    @property
    def has_inverted_interior(self):
        owns_boundary = np.zeros(len(self.elements), dtype=bool)
        owns_boundary[self.boundary_owner] = True
        bad = self.inverted_flags | self.degenerate_flags
        return bool(np.any(bad & ~owns_boundary))

    def element_contains(self, e, p, tol=0.0):
        b = geometry.barycentric_coords(p, self.vertices[self.elements[e]])
        return bool(np.all(np.isfinite(b)) and np.all(b >= -tol))

    def boundary_face_vertices(self, face_id):
        return self.vertices[self.boundary_faces[face_id]]

    def boundary_face_normal(self, face_id):
        """Outward area-weighted normal (not unit) of a boundary face, per
        the owning element's orientation."""
        v = self.boundary_face_vertices(face_id)
        if self.dim == 3:
            return geometry.triangle_area_normal(v[0], v[1], v[2])
        return geometry.edge_outward_normal_2d(v[0], v[1])

    # -- boundary feature topology ------------------------------------------

    def boundary_vertex_neighbors(self, gv):
        return list(self._vertex_neighbors.get(gv, ()))

    def boundary_faces_of_vertex(self, gv):
        return list(self._vertex_faces.get(gv, ()))

    def boundary_faces_of_edge(self, a, b):
        key = (min(int(a), int(b)), max(int(a), int(b)))
        return list(self._edge_faces.get(key, ()))

    def boundary_faces_containing_vertex(self, gv):
        return set(self.boundary_faces_of_vertex(gv))

    # -- closest point / normals ---------------------------------------------

    def closest_point_on_face(self, p, face_id):
        """Euclidean closest point to p on a boundary face, with feature
        classification. A point within FEATURE_TOL * diameter of an edge or
        vertex is classified as that feature."""
        gids = self.boundary_faces[face_id]
        verts = self.vertices[gids]
        if self.dim == 3:
            diam = max(
                np.linalg.norm(verts[1] - verts[0]),
                np.linalg.norm(verts[2] - verts[1]),
                np.linalg.norm(verts[0] - verts[2]),
            )
            if diam == 0.0 or np.linalg.norm(
                geometry.triangle_area_normal(*verts)
            ) <= 1e-30 * max(diam, 1.0):
                raise DegenerateFace(f"boundary face {face_id} is degenerate")
            q, _ = geometry.closest_point_on_triangle(p, *verts)
            tol = FEATURE_TOL * diam
            for i in range(3):
                if np.linalg.norm(q - verts[i]) <= tol:
                    return q, BoundaryFeature("vertex", face_id, (int(gids[i]),))
            for i in range(3):
                a, b = verts[i], verts[(i + 1) % 3]
                eq, _ = geometry.closest_point_on_segment(q, a, b)
                if np.linalg.norm(q - eq) <= tol:
                    pair = (int(gids[i]), int(gids[(i + 1) % 3]))
                    return q, BoundaryFeature("edge", face_id, pair)
            return q, BoundaryFeature("face", face_id)
        diam = float(np.linalg.norm(verts[1] - verts[0]))
        if diam == 0.0:
            raise DegenerateFace(f"boundary face {face_id} is degenerate")
        q, t = geometry.closest_point_on_segment(p, verts[0], verts[1])
        tol = FEATURE_TOL * diam
        for i in range(2):
            if np.linalg.norm(q - verts[i]) <= tol:
                return q, BoundaryFeature("vertex", face_id, (int(gids[i]),))
        return q, BoundaryFeature("face", face_id)

    def pseudo_normal(self, feature):
        """Unit outward normal at a boundary feature: the face normal on a
        face interior, the area-weighted average of adjacent boundary face
        normals on an edge or vertex."""
        if feature.kind == "face":
            n = self.boundary_face_normal(feature.face_id)
        elif feature.kind == "edge":
            fids = self.boundary_faces_of_edge(*feature.verts)
            n = sum(self.boundary_face_normal(f) for f in fids)
        elif feature.kind == "vertex":
            fids = self.boundary_faces_of_vertex(feature.verts[0])
            n = sum(self.boundary_face_normal(f) for f in fids)
        else:
            raise ValueError(f"unknown feature kind {feature.kind!r}")
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise ZeroNormal(f"pseudo-normal vanishes at {feature}")
        return n / norm


def make_mesh(vertices, elements, names=None):
    """A tetrahedral mesh from (n, 3) vertices or a triangular one from
    (n, 2) vertices. Raises ValueError for arrays of another shape or
    non-finite coordinates."""
    return SimplicialMesh(vertices, elements, names)
