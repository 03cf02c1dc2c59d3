"""Shortest-path-to-boundary query.

Enumerates boundary faces by lower-bound distance from the boundary BVH
and takes the Euclidean closest point on each face as the only candidate
the face can contribute. Candidates are validated in exact (distance,
face id) order: a candidate is culled when its local feasible region
excludes the query point, and otherwise checked with the topological ray
traversal, once its distance is below the lower bound of every face not
yet enumerated. The first valid candidate is the answer, so of several
candidates at the same distance the lowest face id wins.
"""

import heapq
import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DegenerateFace, ZeroLengthSegment
from .traversal import TraversalConfig, is_valid_path, is_valid_path_inverted

log = logging.getLogger(__name__)


@dataclass
class QueryConfig:
    # feasibility thresholds compare against -epsilon_r, so the region is
    # conservatively enlarged
    epsilon_r: float = 0.01
    enable_culling: bool = True
    traversal: TraversalConfig = field(default_factory=TraversalConfig)

    def __post_init__(self):
        if not (math.isfinite(self.epsilon_r) and self.epsilon_r >= 0.0):
            raise ValueError("epsilon_r must be finite and >= 0")


class ClosestBoundaryResult:
    """A query's answer: the boundary point, its face and feature, its
    distance, and the query's work counters.

    Callers may keep results by the thousand (the benchmark keeps every
    round's), so the numbers are packed into one bytes object: the point's
    float64 coordinates, then the distance and the three counters. The
    attributes read them back; `point` is a read-only array view."""

    __slots__ = ("_packed", "face", "feature")
    _TAIL = struct.Struct("=d3I")  # distance, then the three counters

    def __init__(
        self, point, face, feature, distance,
        bvh_candidates_tested=0, traversals_run=0, elements_visited=0,
    ):
        self._packed = np.asarray(point, dtype=float).tobytes() + self._TAIL.pack(
            distance, bvh_candidates_tested, traversals_run, elements_visited
        )
        self.face = face
        self.feature = feature

    def _tail(self):
        return self._TAIL.unpack_from(self._packed, len(self._packed) - self._TAIL.size)

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
    point. Thresholds are relaxed to -|epsilon_r|: returning True never
    discards the true closest boundary point. The dot products run on
    Python floats."""
    if feature.kind == "face":
        return True  # the face test is implied by taking the closest point
    thr = -abs(epsilon_r)
    s = np.asarray(s, dtype=float).tolist()
    p = np.asarray(p, dtype=float).tolist()
    dot, sub = geometry.dot, geometry.sub
    ps = sub(p, s)
    if feature.kind == "vertex":
        nbs = mesh.boundary_vertex_neighbors(feature.verts[0])
        return not any(dot(sub(s, v), ps) < thr for v in mesh.vertices[nbs].tolist())
    if feature.kind == "edge":
        g0, g1 = feature.verts
        v0, v1 = mesh.vertices[g0].tolist(), mesh.vertices[g1].tolist()
        if dot(sub(p, v0), sub(v1, v0)) < thr:
            return False
        if dot(sub(p, v1), sub(v0, v1)) < thr:
            return False
        fids = mesh.boundary_faces_of_edge(g0, g1)
        if len(fids) != 2:
            return True  # open or non-closed boundary edge: stay conservative
        # per face, the in-plane normal of the edge pointing away from it:
        # edge g0 -> g1 of the face that runs that way, g1 -> g0 of the other
        m_accord = None
        m_other = None
        for fid in fids:
            tri = mesh.boundary_faces[fid].tolist()
            k = tri.index(g0)
            if tri[(k + 1) % 3] == g1:
                m_accord = mesh.face_edge_normals[fid, k].tolist()
            else:
                m_other = mesh.face_edge_normals[fid, k - 1].tolist()
        if m_accord is None or m_other is None:
            return True
        return not (dot(ps, m_accord) < thr or dot(ps, m_other) < thr)
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

    backward = config.traversal.allow_backward or mesh.has_inverted_interior
    validate = is_valid_path_inverted if backward else is_valid_path

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
    # under its lower bound, with no point, until it reaches the top
    pending = []
    it = bvh.nearest_faces(p)
    while True:
        # Every face not yet enumerated is at least `bound` away, so a
        # pending candidate nearer than that cannot tie with one to come.
        bound = it.bound
        while pending and pending[0][0] < bound:
            d, face, s, feature = heapq.heappop(pending)
            if s is None:
                try:
                    s, feature = mesh.closest_point_on_face(p, face)
                except DegenerateFace:
                    continue
                d = s - p
                # np.linalg.norm(d) bit for bit: the norm of a vector is
                # the square root of its dot product with itself
                heapq.heappush(pending, (math.sqrt(d @ d), face, s, feature))
                continue
            if culling and not feasible_region_check(mesh, s, feature, p, config.epsilon_r):
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
                    s, face, feature, d, n_candidates, n_traversals, n_visited
                )
        if bound == math.inf:
            return None
        face, lb = next(it)
        n_candidates += 1
        if not (skip[face] or face in excl_faces):
            heapq.heappush(pending, (lb, face, None, None))
