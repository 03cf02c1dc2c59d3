"""Shortest-path-to-boundary query.

Enumerates candidate boundary faces approximately nearest-first from the
boundary BVH, takes the Euclidean closest point on each face as the only
candidate the face can contribute, culls candidates whose local feasible
region excludes the query point, and validates the survivors with the
topological ray traversal. The query radius shrinks to the best validated
distance.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DegenerateFace, ZeroLengthSegment
from .traversal import (
    TraversalConfig,
    TraversalScratch,
    is_valid_path,
    is_valid_path_inverted,
)

log = logging.getLogger(__name__)


@dataclass(slots=True)
class QueryStats:
    bvh_candidates_tested: int = 0
    traversals_run: int = 0
    elements_visited: int = 0

    def as_dict(self):
        return {
            "bvh_candidates_tested": self.bvh_candidates_tested,
            "traversals_run": self.traversals_run,
            "elements_visited": self.elements_visited,
        }


@dataclass
class QueryConfig:
    # Stored as a magnitude; feasibility thresholds always compare against
    # -|epsilon_r| so the region is conservatively enlarged.
    epsilon_r: float = 0.01
    enable_culling: bool = True
    traversal: TraversalConfig = field(default_factory=TraversalConfig)

    def __post_init__(self):
        if not math.isfinite(self.epsilon_r):
            raise ValueError("epsilon_r must be finite")
        self.epsilon_r = abs(self.epsilon_r)


@dataclass(slots=True)
class ClosestBoundaryResult:
    point: np.ndarray
    face: int
    feature: object
    distance: float
    stats: QueryStats

    def as_dict(self, query_point=None):
        rec = {
            "result_point": [float(x) for x in self.point],
            "face": int(self.face),
            "feature": {
                "kind": self.feature.kind,
                "verts": [int(v) for v in self.feature.verts],
            },
            "distance": float(self.distance),
            "stats": self.stats.as_dict(),
        }
        if query_point is not None:
            rec["query_point"] = [float(x) for x in np.asarray(query_point)]
        return rec


def feasible_region_check(mesh, s, feature, p, epsilon_r):
    """False only when p provably lies outside the feasible region of the
    candidate boundary point s, so s cannot be any point's closest boundary
    point. Thresholds are relaxed to -|epsilon_r|: returning True never
    discards the true closest boundary point."""
    thr = -abs(epsilon_r)
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    if feature.kind == "face":
        return True  # the face test is implied by taking the closest point
    if feature.kind == "vertex":
        nbs = mesh.boundary_vertex_neighbors(feature.verts[0])
        return not np.any(geometry.row_dots(s - mesh.vertices[nbs], p - s) < thr)
    if feature.kind == "edge":
        g0, g1 = feature.verts
        v0 = mesh.vertices[g0]
        v1 = mesh.vertices[g1]
        if float(np.dot(p - v0, v1 - v0)) < thr:
            return False
        if float(np.dot(p - v1, v0 - v1)) < thr:
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
                m_accord = mesh.face_edge_normals[fid, k]
            else:
                m_other = mesh.face_edge_normals[fid, k - 1]
        if m_accord is None or m_other is None:
            return True
        if float(np.dot(p - s, m_accord)) < thr:
            return False
        if float(np.dot(p - s, m_other)) < thr:
            return False
        return True
    raise ValueError(f"unknown feature kind {feature.kind!r}")


def shortest_path_to_boundary(
    mesh, bvh, p, p_element=None, config=None, scratch=None, exclude_vertex=None
):
    """Closest boundary point of p with a valid straight path, or None.

    p_element identifies the topological copy of p when it matters; a p
    inside an inverted or degenerate element has no defined query and
    returns None. exclude_vertex makes a self-query of a boundary vertex:
    the boundary faces around that vertex are not candidates, and
    culling is off.
    """
    if config is None:
        config = QueryConfig()
    if scratch is None:
        scratch = TraversalScratch(config.traversal)
    p = np.asarray(p, dtype=float)
    stats = QueryStats()

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
        mesh.boundary_faces_containing_vertex(exclude_vertex)
        if exclude_vertex is not None
        else ()
    )
    # The feasible-region argument assumes the unconstrained closest boundary
    # point. A self-query excludes the faces around p, so the constrained
    # minimizer can sit outside its own feasible region (e.g. in the plane of
    # a flat patch); culling would then discard it.
    culling = config.enable_culling and exclude_vertex is None

    best = None
    it = bvh.nearest_faces(p)
    for face, _lb in it:
        stats.bvh_candidates_tested += 1
        if skip[face] or face in excl_faces:
            continue
        try:
            s, feature = mesh.closest_point_on_face(p, face)
        except DegenerateFace:
            continue
        d = float(np.linalg.norm(s - p))
        if best is not None and d >= best.distance:
            continue
        if culling and not feasible_region_check(mesh, s, feature, p, config.epsilon_r):
            continue
        stats.traversals_run += 1
        try:
            res = validate(
                mesh, s, face, p, p_element, config.traversal, scratch
            )
        except ZeroLengthSegment:
            # self candidate of a boundary point; never a valid path
            continue
        stats.elements_visited += res.elements_visited
        if res.valid:
            best = ClosestBoundaryResult(s, int(face), feature, d, stats)
            it.shrink(d)
    return best
