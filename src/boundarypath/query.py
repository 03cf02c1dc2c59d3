"""Shortest-path-to-boundary query.

Enumerates boundary faces by lower-bound distance from the boundary BVH
and takes the Euclidean closest point on each face as the only candidate
the face can contribute. Candidates are validated in exact (distance,
face id) order: a candidate is culled when its local feasible region
excludes the query point, and otherwise checked with the topological ray
traversal, once its distance is below the lower bound of every face not
yet enumerated. The traversal runs backward on a mesh with any skipped
(inverted or degenerate) element and forward otherwise. The first valid
candidate is the answer, so of several candidates at the same distance
the lowest face id wins.

An enumerated face waits for its closest point under a key, the larger
of its box bound and its plane bound (`SimplicialMesh.distance_bounds`).
The plane bound is the distance from the query point to the face's
plane less a stated rounding slack, so it never exceeds the distance
computed for the face. Keys only decide when a face's closest point is
computed; the candidates are still validated in (distance, face id)
order against the same enumeration bound, so answers, culling checks and
traversals are those of the box bound alone, bit for bit. A face whose
key is beyond the answer is never computed, and on a slanted face the
plane bound is the tighter of the two.

Culling reads only rows kept on the mesh, on Python floats: a vertex
check the vertex's boundary neighbours, an edge check the edge normals
of the two faces on the edge, found through the edge-twin table built
with the topology, so no check searches for the edge's faces.
"""

import heapq
import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFace, ZeroLengthSegment
from .traversal import TraversalConfig, is_valid_path, is_valid_path_inverted

log = logging.getLogger(__name__)


# a dimensionless cosine bound: a feasibility test culls only when the
# cosine of its two vectors is below -EPSILON_R, so the region is
# conservatively enlarged by the same angle at any mesh scale
EPSILON_R = 0.01


@dataclass
class QueryConfig:
    enable_culling: bool = True
    traversal: TraversalConfig = field(default_factory=TraversalConfig)


class ClosestBoundaryResult:
    """A query's answer: the boundary point, its face and feature, its
    distance, and the query's work counters.

    Callers may keep results by the thousand (the benchmark keeps every
    round's), so the numbers are packed into one bytes object: the point's
    float64 coordinates, then the distance and the three counters. The
    attributes read them back; `point` is a read-only array view."""

    __slots__ = ("_packed", "feature")
    _TAIL = struct.Struct("=d3I")  # distance, then the three counters

    def __init__(
        self, point, feature, distance,
        bvh_candidates_tested=0, traversals_run=0, elements_visited=0,
    ):
        self._packed = np.asarray(point, dtype=float).tobytes() + self._TAIL.pack(
            distance, bvh_candidates_tested, traversals_run, elements_visited
        )
        self.feature = feature

    def _tail(self):
        return self._TAIL.unpack_from(self._packed, len(self._packed) - self._TAIL.size)

    @property
    def face(self):
        return self.feature.face_id

    @property
    def point(self):
        return np.frombuffer(self._packed, count=(len(self._packed) - self._TAIL.size) // 8)

    @property
    def distance(self):
        return self._tail()[0]

    @property
    def bvh_candidates_tested(self):
        return self._tail()[1]

    @property
    def traversals_run(self):
        return self._tail()[2]

    @property
    def elements_visited(self):
        return self._tail()[3]

    def as_dict(self, query_point=None):
        rec = {
            "result_point": [float(x) for x in self.point],
            "face": int(self.face),
            "feature": {
                "kind": self.feature.kind,
                "verts": [int(v) for v in self.feature.verts],
            },
            "distance": float(self.distance),
            "stats": {
                "bvh_candidates_tested": self.bvh_candidates_tested,
                "traversals_run": self.traversals_run,
                "elements_visited": self.elements_visited,
            },
        }
        if query_point is not None:
            rec["query_point"] = [float(x) for x in np.asarray(query_point)]
        return rec


def feasible_region_check(mesh, s, feature, p, epsilon_r):
    """False only when p provably lies outside the feasible region of the
    candidate boundary point s, so s cannot be any point's closest boundary
    point. Each test of a pair of vectors a, b culls only when
    dot(a, b) < -epsilon_r * |a| * |b|: epsilon_r is a dimensionless
    cosine bound of at least 0 (the query passes EPSILON_R), so the region
    is enlarged by the same angle at any mesh scale, and returning True
    never discards the true closest boundary point. The tests compare
    dot(a, b)² with epsilon_r² |a|² |b|² on Python floats, without a
    square root: a square that underflows to 0, or a bound that
    overflows to inf, never culls. Each dot product is written out and
    summed left to right.

    A vertex test reads the vertex's boundary neighbours. An edge test
    reads the in-plane edge normals of the feature's face, which runs the
    edge in the feature's order, and of its twin, the other face on the
    edge (mesh.face_edge_twins). An edge without a twin keeps the
    candidate.

    Next to skipped boundary faces the candidate is kept. A test that
    culls proves that a point nearer to p lies on a boundary face around
    the feature: along a boundary edge from the vertex (vertex tests),
    at an end of the edge, or in one of the edge's two faces (edge
    tests). Every such face has the feature's vertex, or an end of its
    edge, as a vertex. The nearer point only makes s lose if it is itself
    a candidate, and the points of a skipped face (one whose element is
    inverted or degenerate) are not: over the remaining faces s can be
    the nearest while lying outside its own region. So the tests run
    only when no face at the vertex, or at either end of the edge, is
    skipped (mesh.touches_skipped_face)."""
    if feature.kind == "face":
        return True  # the face test is implied by taking the closest point
    eps2 = epsilon_r * epsilon_r
    s = np.asarray(s, dtype=float).tolist()
    p = np.asarray(p, dtype=float).tolist()
    touched = mesh.touches_skipped_face
    # each test of a, b below culls when dot(a, b) < 0 and
    # dot(a, b)² > eps2 |a|² |b|²
    if feature.kind == "vertex":
        g = feature.verts[0]
        if touched[g]:
            return True
        nbs = mesh.vertices.take(mesh.boundary_vertex_neighbors(g), axis=0).tolist()
        if mesh.dim == 3:
            (s0, s1, s2), (p0, p1, p2) = s, p
            q0, q1, q2 = p0 - s0, p1 - s1, p2 - s2
            qq = q0 * q0 + q1 * q1 + q2 * q2
            # a boundary edge from the vertex, reversed (s - v), against p - s
            for v0, v1, v2 in nbs:
                a0, a1, a2 = s0 - v0, s1 - v1, s2 - v2
                d = a0 * q0 + a1 * q1 + a2 * q2
                if d < 0.0 and d * d > eps2 * (a0 * a0 + a1 * a1 + a2 * a2) * qq:
                    return False
            return True
        (s0, s1), (p0, p1) = s, p
        q0, q1 = p0 - s0, p1 - s1
        qq = q0 * q0 + q1 * q1
        for v0, v1 in nbs:
            a0, a1 = s0 - v0, s1 - v1
            d = a0 * q0 + a1 * q1
            if d < 0.0 and d * d > eps2 * (a0 * a0 + a1 * a1) * qq:
                return False
        return True
    if feature.kind == "edge":
        g0, g1 = feature.verts
        if touched[g0] or touched[g1]:
            return True
        (s0, s1, s2), (p0, p1, p2) = s, p
        (a0, a1, a2), (b0, b1, b2) = mesh.vertices[g0].tolist(), mesh.vertices[g1].tolist()
        # the edge v0 -> v1 against p - v0, then v1 -> v0 against p - v1
        e0, e1, e2 = b0 - a0, b1 - a1, b2 - a2
        ee = e0 * e0 + e1 * e1 + e2 * e2
        w0, w1, w2 = p0 - a0, p1 - a1, p2 - a2
        d = w0 * e0 + w1 * e1 + w2 * e2
        if d < 0.0 and d * d > eps2 * (w0 * w0 + w1 * w1 + w2 * w2) * ee:
            return False
        w0, w1, w2 = p0 - b0, p1 - b1, p2 - b2
        e0, e1, e2 = a0 - b0, a1 - b1, a2 - b2
        d = w0 * e0 + w1 * e1 + w2 * e2
        if d < 0.0 and d * d > eps2 * (w0 * w0 + w1 * w1 + w2 * w2) * ee:
            return False
        # the feature's face runs the edge g0 -> g1 in its slot k; the
        # twin is the other face's slot on the edge, run g1 -> g0. An edge
        # without a twin (open, shared by more than two faces, or run the
        # same way twice) keeps the candidate
        face = feature.face_id
        slot = 3 * face + mesh.boundary_faces[face].tolist().index(g0)
        twin = mesh.face_edge_twins[slot]
        if twin < 0:
            return True
        # per face, the in-plane normal of the edge pointing away from it,
        # as long as the edge, against p - s
        q0, q1, q2 = p0 - s0, p1 - s1, p2 - s2
        qq = q0 * q0 + q1 * q1 + q2 * q2
        normals = memoryview(mesh.face_edge_normals.reshape(-1))
        for m0, m1, m2 in (normals[3 * slot:3 * slot + 3], normals[3 * twin:3 * twin + 3]):
            d = m0 * q0 + m1 * q1 + m2 * q2
            if d < 0.0 and d * d > eps2 * (m0 * m0 + m1 * m1 + m2 * m2) * qq:
                return False
        return True
    raise ValueError(f"unknown feature kind {feature.kind!r}")


def shortest_path_to_boundary(
    mesh, bvh, p, p_element=None, config=None, scratch=None, exclude_vertex=None
):
    """Closest boundary point of p with a valid straight path, or None.
    Of several such points at the same distance, the one on the lowest
    face id is returned.

    p_element identifies the topological copy of p when it matters; a p
    inside an inverted or degenerate element has no defined query and
    returns None. exclude_vertex makes a self-query of a boundary vertex:
    the boundary faces around that vertex are not candidates, and
    culling is off.
    """
    if config is None:
        config = QueryConfig()
    p = np.asarray(p, dtype=float)

    if p_element is not None and mesh.element_skipped(int(p_element)):
        log.warning(
            "query point lies in inverted/degenerate element %d; result undefined",
            p_element,
        )
        return None

    # inverted elements can hide the path from a forward traversal, so a
    # mesh with any skipped element is traversed backward
    validate = is_valid_path_inverted if mesh.has_skipped_elements else is_valid_path

    skip = mesh.boundary_face_skipped
    excl_faces = (
        mesh.boundary_faces_of_vertex(exclude_vertex)
        if exclude_vertex is not None
        else ()
    )
    # The feasible-region argument assumes the unconstrained closest boundary
    # point. A self-query excludes the faces around p, so the constrained
    # minimizer can sit outside its own feasible region (e.g. in the plane of
    # a flat patch); culling would then discard it.
    culling = config.enable_culling and exclude_vertex is None

    n_candidates = n_traversals = n_visited = 0
    # heap of (distance, face, point, feature); an enumerated face waits
    # under a lower bound on its distance, with no point, until it
    # reaches the top: the larger of its box bound and its plane bound
    pending = []
    key = mesh.distance_bounds(p)
    it = bvh.nearest_faces(p)
    while True:
        # Every face not yet enumerated is at least `bound` away, so a
        # pending candidate nearer than that cannot tie with one to come.
        bound = it.bound
        while pending and pending[0][0] < bound:
            d, face, s, feature = pending[0]
            if s is None:
                try:
                    s, feature = mesh.closest_point_on_face(p, face)
                except DegenerateFace:
                    heapq.heappop(pending)
                    continue
                d = s - p
                # the face's entry gives way to its candidate, under
                # np.linalg.norm(d) bit for bit: the norm of a vector is the
                # square root of its dot product with itself
                heapq.heapreplace(pending, (math.sqrt(d @ d), face, s, feature))
                continue
            heapq.heappop(pending)
            if culling and not feasible_region_check(mesh, s, feature, p, EPSILON_R):
                continue
            n_traversals += 1
            try:
                res = validate(mesh, s, face, p, config=config.traversal, scratch=scratch)
            except ZeroLengthSegment:
                # self candidate of a boundary point; never a valid path
                continue
            n_visited += res.elements_visited
            if res.valid:
                return ClosestBoundaryResult(
                    s, feature, d, n_candidates, n_traversals, n_visited
                )
        if bound == math.inf:
            return None
        face, lb = next(it)
        n_candidates += 1
        if not (skip[face] or face in excl_faces):
            heapq.heappush(pending, (key(face, lb), face, None, None))
