"""The exact-order query against the lower-bound-order query it replaced.

The reference below is the earlier query: it validates candidates in the
order the BVH enumerates their faces (by lower bound), keeps the nearest
valid one, prunes the enumeration at its distance, and classifies closest
points with the tolerance tests alone. On every input set the engine must
give the same distance and feature kind, run no more traversals in total,
and return the same face, point and feature, except on exact distance
ties, where its face is the lowest id of the tied candidates.
"""

import heapq
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import ref_closest_point_on_face, ref_pseudo_normal

from boundarypath import geometry, oracle, shapes, sim
from boundarypath.bvh import build_boundary_bvh
from boundarypath.errors import DegenerateFace, ZeroLengthSegment
from boundarypath.mesh import SimplicialMesh
from boundarypath.query import (
    EPSILON_R,
    ClosestBoundaryResult,
    QueryConfig,
    feasible_region_check,
    shortest_path_to_boundary,
)
from boundarypath.traversal import TraversalScratch, is_valid_path, is_valid_path_inverted

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class RefNearFaces:
    """Best-first enumeration by numpy box distance, pruned at `radius`,
    which the caller shrinks."""

    def __init__(self, tree, p):
        self.tree = tree
        self.p = np.asarray(p, dtype=float)
        self.radius = math.inf
        self.heap = [(self._dists(slice(0, 1))[0], 0)]

    def _dists(self, nodes):
        t = self.tree
        d = np.maximum(t.lo[nodes] - self.p, 0.0) + np.maximum(self.p - t.hi[nodes], 0.0)
        return geometry.row_norms(d).tolist()

    def __iter__(self):
        while self.heap:
            dist, node = heapq.heappop(self.heap)
            if dist > self.radius:
                return
            pid = int(self.tree.prim[node])
            if pid >= 0:
                yield pid, dist
                continue
            left = int(self.tree.left[node])
            for child, d in enumerate(self._dists(slice(left, left + 2)), left):
                if d <= self.radius:
                    heapq.heappush(self.heap, (d, child))


def _validator(mesh):
    return is_valid_path_inverted if mesh.has_skipped_elements else is_valid_path


def ref_query(mesh, bvh, p, p_element=None, config=None, scratch=None, exclude_vertex=None):
    """The lower-bound-order query, with shortest_path_to_boundary's
    signature."""
    config = config or QueryConfig()
    scratch = scratch or TraversalScratch(config.traversal)
    p = np.asarray(p, dtype=float)
    if p_element is not None and mesh.element_skipped(int(p_element)):
        return None
    validate = _validator(mesh)
    excl = mesh.boundary_faces_of_vertex(exclude_vertex) if exclude_vertex is not None else ()
    culling = config.enable_culling and exclude_vertex is None
    best = None  # (point, feature, distance)
    counts = [0, 0, 0]
    it = RefNearFaces(bvh.tree, p)
    for face, _ in it:
        counts[0] += 1
        if mesh.boundary_face_skipped[face] or face in excl:
            continue
        try:
            s, feature = ref_closest_point_on_face(mesh, p, face)
        except DegenerateFace:
            continue
        d = float(np.linalg.norm(s - p))
        if best is not None and d >= best[2]:
            continue
        if culling and not feasible_region_check(mesh, s, feature, p, EPSILON_R):
            continue
        counts[1] += 1
        try:
            res = validate(mesh, s, face, p, config=config.traversal, scratch=scratch)
        except ZeroLengthSegment:
            continue
        counts[2] += res.elements_visited
        if res.valid:
            best = (s, feature, d)
            it.radius = d
    return None if best is None else ClosestBoundaryResult(*best, *counts)


def tied_faces(mesh, p, config, exclude_vertex, distance):
    """Faces whose candidate the query accepts at exactly `distance`."""
    validate = _validator(mesh)
    excl = mesh.boundary_faces_of_vertex(exclude_vertex) if exclude_vertex is not None else ()
    _, dists = oracle.closest_boundary_candidates(mesh, p)
    out = []
    for f in np.flatnonzero(np.abs(dists - distance) <= 1e-9).tolist():
        if mesh.boundary_face_skipped[f] or f in excl:
            continue
        s, feature = mesh.closest_point_on_face(p, f)
        if float(np.linalg.norm(s - p)) != distance:
            continue
        if config.enable_culling and exclude_vertex is None:
            if not feasible_region_check(mesh, s, feature, p, EPSILON_R):
                continue
        if validate(mesh, s, f, p, config=config.traversal).valid:
            out.append(f)
    return out


class Tally:
    def __init__(self):
        self.queries = self.answered = self.ties = 0
        self.traversals = [0, 0]  # reference, engine

    def check(self, mesh, bvh, p, p_element=None, config=None, exclude_vertex=None):
        config = config or QueryConfig()
        kw = dict(p_element=p_element, config=config, exclude_vertex=exclude_vertex)
        ref = ref_query(mesh, bvh, p, **kw)
        new = shortest_path_to_boundary(mesh, bvh, p, **kw)
        self.queries += 1
        assert (ref is None) == (new is None)
        if ref is None:
            return
        self.answered += 1
        self.traversals[0] += ref.traversals_run
        self.traversals[1] += new.traversals_run
        assert new.distance == ref.distance
        assert new.feature.kind == ref.feature.kind
        if new.face == ref.face:
            assert np.array_equal(new.point, ref.point) and new.feature == ref.feature
            return
        self.ties += 1
        tied = tied_faces(mesh, p, config, exclude_vertex, new.distance)
        assert ref.face in tied and new.face == min(tied), (ref.face, new.face, tied)

    def done(self):
        assert self.answered > 0
        assert self.traversals[1] <= self.traversals[0], self.traversals
        return self


def test_benchmark_inputs(monkeypatch, tmp_path):
    """The 1,000 spiral_query and 256 deform_query inputs of seed 1."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    spiral = workloads.SpiralQuery(1, tmp_path)
    mesh, bvh = spiral.setup()
    tally = Tally()
    for p, e in zip(spiral.points, spiral.elems):
        tally.check(mesh, bvh, p, e)
    assert tally.done().queries == 1000 and tally.ties > 0
    assert tally.traversals[1] < tally.traversals[0]

    deform = workloads.DeformQuery(1, tmp_path)
    mesh, bvh = deform.setup()
    tally = Tally()
    for f, verts in enumerate(deform.frames):
        mesh.set_vertices(verts)
        bvh.refit(mesh)
        for k, p in enumerate(deform.frame_points[f]):
            tally.check(mesh, bvh, p, deform.elems[f * deform.per_frame + k])
    assert tally.done().queries == 256


@pytest.mark.parametrize("culling", [True, False], ids=["culling-on", "culling-off"])
def test_folded_corpus(folded_corpus, culling):
    tally = Tally()
    for entry in folded_corpus:
        for p, e in zip(entry["points"], entry["elems"]):
            tally.check(entry["mesh"], entry["bvh"], p, int(e), QueryConfig(enable_culling=culling))
    assert tally.done().queries == 1000


def jittered_bar():
    """A folded bar jittered until some elements invert."""
    mesh = shapes.folded_bar(8, 2, 2)
    rng = np.random.default_rng(7)
    mesh.set_vertices(mesh.vertices + rng.normal(scale=0.06, size=mesh.vertices.shape))
    assert mesh.inverted_flags.any() and mesh.has_skipped_elements
    return mesh


STRIPS_AND_INVERTED = {
    "folded_strip": lambda: shapes.folded_strip(40, 3),
    "folded_strip_3.6pi": lambda: shapes.folded_strip(40, 3, total_angle=3.6 * np.pi),
    "pleated_strip": shapes.pleated_strip,
    "inverted_path_strip": lambda: shapes.inverted_path_strip()[0],
    "flipped_corner_grid": shapes.flipped_corner_grid,
    "jittered_bar": jittered_bar,
}


@pytest.mark.parametrize("name", sorted(STRIPS_AND_INVERTED))
def test_strips_and_inverted_meshes(name):
    mesh = STRIPS_AND_INVERTED[name]()
    bvh = build_boundary_bvh(mesh)
    points, elems = shapes.random_interior_points(mesh, np.random.default_rng(17), 120)
    tally = Tally()
    for p, e in zip(points, elems):
        tally.check(mesh, bvh, p, int(e))
    tally.done()


JITTERED_BAR_DISAGREES = (
    "ROADMAP item 12 judges it: 6 of 600 answers differ from the oracle's (seeds 17 and 0-3, "
    "120 points each), each time with a shorter oracle path; seed 17 point 46 gives engine "
    "face 128 at 0.0999 and oracle face 28 at 0.0632. Culling off gives the engine's answer, "
    "and a backward traversal from the oracle's point rejects it even with CUTOFF_FACTOR 1e9 "
    "and epsilon_i 1e-6"
)


@pytest.mark.xfail(strict=True, reason=JITTERED_BAR_DISAGREES)
def test_jittered_bar_matches_oracle():
    # 22 inverted elements: engine and oracle both traverse backward
    mesh = jittered_bar()
    assert mesh.has_skipped_elements
    bvh = build_boundary_bvh(mesh)
    differ = []
    for seed in (17, 0, 1, 2, 3):
        points, elems = shapes.random_interior_points(mesh, np.random.default_rng(seed), 120)
        for k, (p, e) in enumerate(zip(points, elems)):
            res = shortest_path_to_boundary(mesh, bvh, p, p_element=int(e))
            ref = oracle.oracle_closest_boundary(mesh, p)
            if res is None and ref is None:
                continue
            if (
                res is not None
                and ref is not None
                and abs(res.distance - ref[2]) <= 1e-9
                and res.face in oracle.co_minimal_faces(mesh, p, ref[2])
            ):
                continue
            differ.append((seed, k))
    assert not differ, differ


@pytest.mark.parametrize("culling", [True, False], ids=["culling-on", "culling-off"])
def test_self_queries(culling):
    mesh = shapes.folded_bar(20, 3, 3)
    bvh = build_boundary_bvh(mesh)
    tally = Tally()
    for v in np.unique(mesh.boundary_faces).tolist():
        e = int(np.argwhere(mesh.elements == v)[0][0])
        tally.check(mesh, bvh, mesh.vertices[v], e, QueryConfig(enable_culling=culling), exclude_vertex=v)
    tally.done()


def test_recovery_sim_bit_identical(monkeypatch):
    """The benchmark's recovery scene, 30 substeps: positions and
    constraints equal those of the reference query with per-call normals."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    scene = workloads.RecoverySim(1, None)

    def play():
        state, config, runtime = scene.setup()
        out = []
        for _ in range(scene.substeps):
            state, entry = sim.xpbd_substep(state, config, runtime)
            out.append((state.positions.copy(), entry.n_constraints))
        return out

    got = play()
    monkeypatch.setattr(sim, "shortest_path_to_boundary", ref_query)
    monkeypatch.setattr(SimplicialMesh, "pseudo_normal", ref_pseudo_normal)
    want = play()
    assert sum(n for _, n in want) > 0
    for (x, n), (x_ref, n_ref) in zip(got, want):
        assert n == n_ref and np.array_equal(x, x_ref)
