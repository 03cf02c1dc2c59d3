"""The benchmark's three workloads.

Each workload makes its inputs from the seed, sets up the program's
objects (timed as set-up, several times), warms up, then plays whole
rounds of the same operations until the timed phase has lasted the
requested seconds. Checks run outside the timed phase; an operation
whose output fails a check counts as failed.

Program calls go through module attributes (`query.shortest_path_to_boundary`,
`sim.xpbd_substep`, ...) so that the traced run's wrappers see them.
"""

import os
import time

import numpy as np

from boundarypath import bvh, meshio, query, shapes, sim
from boundarypath.traversal import TraversalScratch

import checks

# The static spiral bar: 19,440 tets, 4,464 boundary faces, turns that
# interpenetrate at a radial offset.
SPIRAL = dict(nx=90, ny=6, nz=6, thickness=0.25, inner_radius=1.0, pitch=0.15)
SPIRAL_ANGLE = 3.6 * np.pi


def spiral_vertices(total_angle):
    """Vertex positions of shapes.spiral_bar(**SPIRAL) wound to
    total_angle, in the same vertex order; the element array is the same
    for every angle. Kept because spiral_bar builds a whole mesh, about
    3 s per frame (24 s per run) on a 2-vCPU Xeon VM, against a few ms here."""
    nx, ny, nz = SPIRAL["nx"], SPIRAL["ny"], SPIRAL["nz"]
    th, r0, pitch = SPIRAL["thickness"], SPIRAL["inner_radius"], SPIRAL["pitch"]
    length = r0 * total_angle
    x, y, z = np.meshgrid(
        length * np.arange(nx + 1) / nx,
        th * np.arange(ny + 1) / ny,
        th * np.arange(nz + 1) / nz,
        indexing="ij",
    )
    x, y, z = x.ravel(), y.ravel(), z.ravel()
    theta = -total_angle * x / length
    r = r0 + y + pitch * (-theta) / (2.0 * np.pi)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def sample_interior(vertices, elements, rng, n):
    """n seeded interior points, uniform by volume and stratified along
    the element order (which runs along the bar), so that every seed
    covers the overlap zones alike; returned in seeded random order as
    (element ids, barycentrics)."""
    cum = np.cumsum(checks.signed_volumes(vertices, elements))
    u = (np.arange(n) + rng.random(n)) / n * cum[-1]
    elems = np.minimum(np.searchsorted(cum, u), len(elements) - 1)
    order = rng.permutation(n)
    return elems[order], rng.dirichlet(np.ones(4), size=n)


def points_in(vertices, elements, elems, bary):
    return np.einsum("ni,nij->nj", bary, vertices[elements[elems]])


def same_result(a, b):
    if a is None or b is None:
        return a is b
    return a.face == b.face and a.distance == b.distance and np.array_equal(a.point, b.point)


class SpiralQuery:
    """Read-only queries with the default QueryConfig, p_element given."""

    name = "spiral_query"
    setup_reps = 5
    queries = 1000  # per round; the round repeats the same queries
    checked = 120  # oracle-checked queries

    def __init__(self, seed, workdir):
        base = shapes.spiral_bar(**SPIRAL, total_angle=SPIRAL_ANGLE)
        self.vertices, self.elements = base.vertices, base.elements
        self.make_queries(np.random.default_rng(seed))
        self.mesh_path = workdir / f"spiral-{os.getpid()}.json"
        meshio.save_mesh(base, self.mesh_path)
        self.latencies = []  # per round, the time of each query
        self.rounds = []  # per round, the results of its queries
        self.notes = []

    def make_queries(self, rng):
        elems, bary = sample_interior(self.vertices, self.elements, rng, self.queries)
        self.elems = [int(e) for e in elems]
        self.points = list(points_in(self.vertices, self.elements, elems, bary))
        self.ops_per_round = self.queries

    def cleanup(self):
        self.mesh_path.unlink(missing_ok=True)

    def setup(self):
        mesh = meshio.load_mesh(self.mesh_path)
        tree = bvh.build_boundary_bvh(mesh)
        # fills the lazy boundary feature maps that culling reads
        mesh.boundary_vertex_neighbors(int(mesh.boundary_faces[0, 0]))
        return mesh, tree

    def use(self, ctx):
        self.mesh, self.tree = ctx
        self.config = query.QueryConfig()
        self.scratch = TraversalScratch(self.config.traversal)

    def _ask(self, q, p, e, op, tracer):
        tracer.op = op
        t = time.perf_counter()
        res = q(self.mesh, self.tree, p, p_element=e, config=self.config, scratch=self.scratch)
        self.latencies[-1].append(time.perf_counter() - t)
        return res

    def warm_up(self):
        q = query.shortest_path_to_boundary
        for p, e in zip(self.points[:30], self.elems[:30]):
            q(self.mesh, self.tree, p, p_element=e, config=self.config, scratch=self.scratch)

    def play_round(self, tracer):
        q = query.shortest_path_to_boundary
        self.latencies.append([])
        start = time.perf_counter()
        results = [self._ask(q, p, e, i, tracer) for i, (p, e) in enumerate(zip(self.points, self.elems))]
        wall = time.perf_counter() - start
        self.rounds.append(results)
        return wall

    def _check_queries(self, ids, results, points):
        """Oracle and property checks on the queries `ids` of one set of
        results; returns the failing ids and how many of the checked
        queries lie in an overlap zone."""
        bad = set()
        overlap = 0
        for i in ids:
            problems, overlapped = checks.check_query(self.mesh, points[i], self.elems[i], results[i])
            overlap += overlapped
            if problems:
                bad.add(i)
                self.notes.append(f"query {i}: " + "; ".join(problems))
        return bad, overlap

    def _count_failed(self, bad):
        """Failed operations over all rounds: a query fails in a round
        when it failed a check or differs from the first round's answer."""
        first = self.rounds[0]
        failed = 0
        for results in self.rounds:
            for i, res in enumerate(results):
                if res is None or i in bad or not same_result(res, first[i]):
                    failed += 1
        return failed

    def check(self):
        first = self.rounds[0]
        bad, overlap = self._check_queries(range(self.checked), first, self.points)
        self.notes.append(
            f"overlap-zone share: {overlap}/{self.checked} checked queries have a "
            "Euclidean-nearest boundary point they cannot reach"
        )
        return len(self.rounds) * self.queries, self._count_failed(bad)


class DeformQuery(SpiralQuery):
    """The spiral re-wound between frames with set_vertices, the BVH
    refit, then a frame's queries."""

    name = "deform_query"
    angles = tuple(a * np.pi for a in (3.2, 3.6, 4.0, 3.4))
    per_frame = 64
    checked_per_frame = 20

    def make_queries(self, rng):
        if not np.allclose(spiral_vertices(SPIRAL_ANGLE), self.vertices, rtol=0, atol=1e-12):
            raise RuntimeError("input: spiral_vertices does not reproduce shapes.spiral_bar")
        self.frames = [spiral_vertices(a) for a in self.angles]
        for a, verts in zip(self.angles, self.frames):
            if (checks.signed_volumes(verts, self.elements) <= 0.0).any():
                raise RuntimeError(f"input: the spiral wound to {a / np.pi:.2f} pi inverts elements")
        # each frame gets its own sample of the whole bar
        samples = [sample_interior(self.vertices, self.elements, rng, self.per_frame) for _ in self.frames]
        self.elems = [int(e) for elems, _ in samples for e in elems]
        self.frame_points = [
            list(points_in(verts, self.elements, elems, bary))
            for verts, (elems, bary) in zip(self.frames, samples)
        ]
        self.queries = self.ops_per_round = self.per_frame * len(self.frames)
        self.frame_bad = set()
        self.overlap = 0

    def warm_up(self):
        self.mesh.set_vertices(self.frames[0])
        self.tree.refit(self.mesh)
        q = query.shortest_path_to_boundary
        for p, e in zip(self.frame_points[0][:10], self.elems[:10]):
            q(self.mesh, self.tree, p, p_element=e, config=self.config, scratch=self.scratch)

    def play_round(self, tracer):
        q = query.shortest_path_to_boundary
        first_round = not self.rounds
        results = []
        self.latencies.append([])
        wall = 0.0
        for f, verts in enumerate(self.frames):
            start = time.perf_counter()
            self.mesh.set_vertices(verts)
            self.tree.refit(self.mesh)
            for k, p in enumerate(self.frame_points[f]):
                i = f * self.per_frame + k
                results.append(self._ask(q, p, self.elems[i], i, tracer))
            wall += time.perf_counter() - start
            if first_round:
                self._check_frame(f, results)
        self.rounds.append(results)
        return wall

    def _check_frame(self, f, results):
        """Checks on frame f while the mesh holds its positions; runs
        between frames, outside the clock."""
        base = f * self.per_frame
        if self.mesh.inverted_flags.any() or self.mesh.degenerate_flags.any():
            self.notes.append(f"frame {f}: the mesh flags elements that have positive volume")
            self.frame_bad.update(range(base, base + self.per_frame))
        ids = range(base, base + self.checked_per_frame)
        points = dict(zip(ids, self.frame_points[f]))
        bad, overlap = self._check_queries(ids, results, points)
        self.frame_bad |= bad
        self.overlap += overlap

    def check(self):
        n_checked = self.checked_per_frame * len(self.frames)
        self.notes.append(
            f"overlap-zone share: {self.overlap}/{n_checked} checked queries have a "
            "Euclidean-nearest boundary point they cannot reach"
        )
        return len(self.rounds) * self.queries, self._count_failed(self.frame_bad)


class RecoverySim:
    """The two-box recovery scene of acceptance criterion 8, run for a
    fixed number of substeps from a fresh scene in every round."""

    name = "recovery_sim"
    setup_reps = 41
    substeps = 30
    settled = 20  # the scene is penetration-free from this substep on
    offset = (0.8, 0.1, 0.05)

    def __init__(self, seed, workdir):
        # The scene is fixed: the recovery is only known to hold for this
        # offset, so the seed does not change it.
        self.ops_per_round = self.substeps
        self.latencies = []  # per round, the time of each substep
        self.rounds = []  # per round, positions after each substep
        self.contacts = []
        self.notes = []

    def cleanup(self):
        pass

    def setup(self):
        a = shapes.box_grid(2, 2, 2)
        b = shapes.box_grid(2, 2, 2)
        b.set_vertices(b.vertices + np.asarray(self.offset))
        state = sim.make_state([a, b])
        config = sim.SimConfig(gravity=(0.0, 0.0, 0.0), damping=1.0)
        return state, config, sim.SimRuntime(state, config)

    def use(self, ctx):
        state, config, runtime = ctx
        self.offsets = state.offsets
        self.elements = [m.elements.copy() for m in state.meshes]

    def warm_up(self):
        state, config, runtime = self.setup()
        for _ in range(2):
            sim.xpbd_substep(state, config, runtime)

    def play_round(self, tracer):
        was_active = tracer.active
        tracer.active = False  # the fresh scene is not part of the timed work
        state, config, runtime = self.setup()
        tracer.active = was_active
        step = sim.xpbd_substep
        positions = []
        self.latencies.append([])
        wall = 0.0
        for s in range(self.substeps):
            tracer.op = s
            t = time.perf_counter()
            state, entry = step(state, config, runtime)
            dt = time.perf_counter() - t
            self.latencies[-1].append(dt)
            wall += dt
            positions.append(state.positions.copy())
            if not self.rounds:
                self.contacts.append(entry.n_constraints)
        self.rounds.append(positions)
        return wall

    def check(self):
        first = self.rounds[0]
        bad = set()
        pens = []
        for s, pos in enumerate(first):
            problems, pen = checks.check_scene(pos, self.offsets, self.elements)
            pens.append(pen)
            if pen > 0 and s + 1 >= self.settled:
                problems.append(f"{pen} vertices inside foreign elements")
            if problems:
                bad.add(s)
                self.notes.append(f"substep {s + 1}: " + "; ".join(problems))
        self.notes.append(f"penetrations after each substep: {pens}")
        self.notes.append(f"constraints per substep: {self.contacts}")
        failed = 0
        for positions in self.rounds:
            for s, pos in enumerate(positions):
                if s in bad or not np.array_equal(pos, first[s]):
                    failed += 1
        return len(self.rounds) * self.substeps, failed


WORKLOADS = {w.name: w for w in (SpiralQuery, DeformQuery, RecoverySim)}
