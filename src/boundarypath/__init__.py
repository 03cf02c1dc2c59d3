"""Shortest internal path from an interior point to the boundary of a
possibly self-intersecting simplicial mesh, plus a small XPBD recovery
simulator built on top of the query."""

from .bvh import BoundaryBvh, ElementBvh, build_boundary_bvh
from .errors import (
    DegenerateFace,
    EmptyBoundary,
    IndexOutOfRange,
    MeshError,
    NonManifold,
    NumericalBlowup,
    ParseError,
    ZeroLengthSegment,
    ZeroNormal,
)
from .mesh import (
    BOUNDARY,
    BoundaryFeature,
    SimplicialMesh,
    build_adjacency,
)
from .meshio import export_boundary_obj, load_mesh, save_mesh
from .query import (
    ClosestBoundaryResult,
    QueryConfig,
    QueryStats,
    feasible_region_check,
    shortest_path_to_boundary,
)
from .traversal import (
    RayFrame,
    TraversalConfig,
    TraversalResult,
    TraversalScratch,
    exit_face_selection,
    is_valid_path,
    is_valid_path_inverted,
    make_ray_frame,
)

__all__ = [
    "BOUNDARY",
    "BoundaryBvh",
    "BoundaryFeature",
    "ClosestBoundaryResult",
    "DegenerateFace",
    "ElementBvh",
    "EmptyBoundary",
    "IndexOutOfRange",
    "MeshError",
    "NonManifold",
    "NumericalBlowup",
    "ParseError",
    "QueryConfig",
    "QueryStats",
    "RayFrame",
    "SimplicialMesh",
    "TraversalConfig",
    "TraversalResult",
    "TraversalScratch",
    "ZeroLengthSegment",
    "ZeroNormal",
    "build_adjacency",
    "build_boundary_bvh",
    "exit_face_selection",
    "export_boundary_obj",
    "feasible_region_check",
    "is_valid_path",
    "is_valid_path_inverted",
    "load_mesh",
    "make_ray_frame",
    "save_mesh",
    "shortest_path_to_boundary",
]

__version__ = "0.1.0"
