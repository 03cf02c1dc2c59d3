"""Layer wrappers for the traced run, and the per-layer metrics read from
them.

Every wrapper sits on a public function or method, patched at the name the
caller looks up: `query` imports `is_valid_path` and calls
`feasible_region_check` as module globals, `sim` does the same with the
DCD functions and the query, and the meshes and trees are reached through
their classes.
"""

from boundarypath import bvh, mesh, meshio, query, sim

# Layers that run in set-up only; their figures are per set-up, all other
# figures are per round of the timed phase.
SETUP_SPANS = ("meshio.load", "mesh.build_adjacency", "bvh.build")


def _enumerated(counts, _result):
    counts["bvh.candidates"] += 1  # StopIteration ends a call without a candidate


def _culled(counts, feasible):
    counts["query.cull.checks"] += 1
    counts["query.cull.culled"] += not feasible


def _traversed(counts, res):
    counts["traversal.valid"] += bool(res.valid)
    counts["traversal.elements_visited"] += res.elements_visited


def _sim_queried(counts, res):
    counts["sim.query.none"] += res is None


def _substepped(counts, result):
    state, entry = result
    counts["sim.constraints"] += entry.n_constraints
    counts["sim.vertex_contacts"] += entry.n_vertex_contacts
    counts["sim.edge_contacts"] += entry.n_edge_contacts
    counts["sim.inverted_elements"] += sum(int(m.inverted_flags.sum()) for m in state.meshes)


def install(tracer):
    w = tracer.wrap
    w(meshio, "load_mesh", "meshio.load")
    w(mesh, "build_adjacency", "mesh.build_adjacency")
    w(bvh.BoundaryBvh, "__init__", "bvh.build")
    w(bvh.ElementBvh, "__init__", "bvh.build")
    w(mesh.SimplicialMesh, "set_vertices", "mesh.set_vertices")
    w(bvh.BoundaryBvh, "refit", "bvh.refit")
    w(bvh.ElementBvh, "refit", "bvh.refit")
    for name in ("boundary_vertex_neighbors", "boundary_faces_of_edge", "boundary_faces_of_vertex"):
        w(mesh.SimplicialMesh, name, "mesh.boundary_topology")
    w(bvh.NearPrimIter, "__next__", "bvh.enumerate", _enumerated)
    w(mesh.SimplicialMesh, "closest_point_on_face", "mesh.closest_point")
    w(query, "feasible_region_check", "query.cull", _culled)
    w(query, "is_valid_path", "traversal", _traversed)
    w(query, "is_valid_path_inverted", "traversal", _traversed)
    w(query, "shortest_path_to_boundary", "query")
    w(bvh.AabbTree, "box_overlap", "bvh.box_overlap")
    w(sim, "dcd_vertex_tet", "sim.dcd_vertex")
    w(sim, "dcd_edge_tet", "sim.dcd_edge")
    w(sim, "shortest_path_to_boundary", "sim.query", _sim_queried)
    w(sim, "xpbd_substep", "sim.substep", _substepped)


BUSY = (
    "meshio.load", "mesh.build_adjacency", "bvh.build", "mesh.set_vertices", "bvh.refit",
    "mesh.boundary_topology", "bvh.enumerate", "mesh.closest_point", "query.cull",
    "traversal", "bvh.box_overlap", "sim.dcd_vertex", "sim.dcd_edge", "sim.query",
)
SELF = ("query", "sim.substep")
CALLS = ("mesh.set_vertices", "mesh.closest_point", "bvh.box_overlap", "traversal", "sim.query")
COUNTS = (
    "bvh.candidates", "query.cull.checks", "query.cull.culled", "traversal.valid",
    "traversal.elements_visited", "sim.query.none", "sim.constraints", "sim.vertex_contacts",
    "sim.edge_contacts", "sim.inverted_elements",
)


def metrics(setup, setup_reps, timed, rounds):
    """Per-layer metrics from two stat snapshots: busy and self seconds
    and counts, per set-up for SETUP_SPANS and per round otherwise."""
    out = {}
    for name in BUSY:
        stats, n = (setup, setup_reps) if name in SETUP_SPANS else (timed, rounds)
        out[f"{name}.busy_s"] = (stats["busy"].get(name, 0.0) / n, "s")
    # the lazy feature-map rebuild that spiral_query runs in set-up
    out["mesh.boundary_topology.setup_busy_s"] = (
        setup["busy"].get("mesh.boundary_topology", 0.0) / setup_reps, "s")
    for name in SELF:
        out[f"{name}.self_s"] = (timed["self"].get(name, 0.0) / rounds, "s")
    for name in CALLS:
        out[f"{name}.calls"] = (timed["calls"].get(name, 0) / rounds, "count")
    for key in COUNTS:
        out[key] = (timed["counts"].get(key, 0) / rounds, "count")
    calls = timed["calls"].get("traversal", 0)
    valid = timed["counts"].get("traversal.valid", 0)
    out["traversal.useful_ratio"] = (valid / calls if calls else 0.0, "ratio")
    return out
