import json

import numpy as np
import pytest

from boundarypath import geometry, shapes, sim
from boundarypath.bvh import AabbTree, ElementBvh
from boundarypath.errors import NumericalBlowup, ParseError
from boundarypath.mesh import SimplicialMesh
from boundarypath.sim import (
    CollisionConstraint,
    SimConfig,
    SimRuntime,
    count_penetrations,
    dcd_edge_tet,
    dcd_vertex_tet,
    load_scene,
    make_state,
    run_sim,
    xpbd_substep,
)


def two_cubes(offset=(0.8, 0.1, 0.05)):
    m1 = shapes.box_grid(1, 1, 1)
    m2 = shapes.box_grid(1, 1, 1)
    m2.set_vertices(m2.vertices + np.asarray(offset))
    return m1, m2


def make_runtime(meshes, masses=None, **cfg_kw):
    state = make_state(list(meshes), masses)
    config = SimConfig(**cfg_kw)
    return state, config, SimRuntime(state, config)


def scene_runtime(state):
    return SimRuntime(state, SimConfig())


def test_dcd_vertex_inside_detected(tet):
    other = SimplicialMesh(
        np.array([[0.1, 0.1, 0.1], [5, 0, 0], [0, 5, 0], [0, 0, 5]], float),
        np.array([[0, 1, 2, 3]]),
    )
    state = make_state([tet, other])
    hits = dcd_vertex_tet(state, scene_runtime(state))
    # other's vertex 0 sits strictly inside the unit tet
    assert any(ma == 1 and ids == (0,) and mb == 0 for ma, ids, _, _, mb, _ in hits)


def test_dcd_vertex_outside_empty():
    m1, m2 = two_cubes(offset=(5.0, 0.0, 0.0))
    state = make_state([m1, m2])
    assert dcd_vertex_tet(state, scene_runtime(state)) == []


def test_dcd_vertex_incident_excluded(tet):
    state = make_state([tet])
    assert dcd_vertex_tet(state, scene_runtime(state)) == []


def test_dcd_edge_symmetric_chord(tet):
    # an edge piercing the tet symmetrically reports the chord midpoint
    other = SimplicialMesh(
        np.array(
            [
                [-1.0, 0.2, 0.2],
                [1.0, 0.2, 0.2],
                [0.0, 1.5, 0.2],
                [0.0, 0.5, 1.5],
            ]
        ),
        np.array([[0, 1, 2, 3]]),
    )
    state = make_state([tet, other])
    hits = [h for h in dcd_edge_tet(state, scene_runtime(state)) if h[0] == 1 and h[4] == 0]
    assert hits
    ma, ids, w, point, mb, e = hits[0]
    assert set(ids) == {0, 1}
    # chord through the unit tet at y=z=0.2 spans x in [0, 0.6]
    assert point == pytest.approx([0.3, 0.2, 0.2], abs=1e-9)


def test_dcd_edge_fully_outside():
    m1, m2 = two_cubes(offset=(9.0, 0.0, 0.0))
    state = make_state([m1, m2])
    assert dcd_edge_tet(state, scene_runtime(state)) == []


# -- brute-force references for the batched DCD ----------------------------


def _ref_bary(mesh, point):
    """Barycentric coordinates of one point in every element of a mesh."""
    return geometry.barycentric_coords(point, mesh.vertices[mesh.elements])


def _ref_foreign(state, ma, ids, mb, e):
    """Whether element e of mesh b is a candidate for a probe on vertices
    ids of mesh a: not skipped, and not incident to the probe."""
    mesh_b = state.meshes[mb]
    if mesh_b.element_skipped(e):
        return False
    return ma != mb or not any(v in mesh_b.elements[e] for v in ids)


def ref_dcd_vertex_tet(state, include_centroids=False):
    """dcd_vertex_tet with no tree: every probe against every element of
    every mesh, in (subject mesh, probe, target mesh, element id) order."""
    contacts = []
    for ma, mesh_a in enumerate(state.meshes):
        base = int(state.offsets[ma])
        probes = [((v,), (1.0,), state.positions[base + v]) for v in range(mesh_a.n_vertices)]
        if include_centroids:
            for e in range(mesh_a.n_elements):
                ids = tuple(int(i) for i in mesh_a.elements[e])
                w = (1.0 / len(ids),) * len(ids)
                probes.append((ids, w, mesh_a.vertices[mesh_a.elements[e]].mean(axis=0)))
        for ids, w, point in probes:
            for mb, mesh_b in enumerate(state.meshes):
                bary = _ref_bary(mesh_b, point)
                for e in range(mesh_b.n_elements):
                    b = bary[e]
                    if _ref_foreign(state, ma, ids, mb, e) and np.all(np.isfinite(b) & (b > 0.0)):
                        contacts.append((ma, ids, w, np.array(point, float), mb, e))
    return contacts


def _ref_clip(ba, bb):
    """The parameter span of segment a->b inside one element, from the
    barycentric coordinates of its ends, with an early exit; None when
    the segment misses the element."""
    if not (np.all(np.isfinite(ba)) and np.all(np.isfinite(bb))):
        return None
    t0, t1 = 0.0, 1.0
    for i in range(len(ba)):
        lo, hi = ba[i], bb[i]
        dc = hi - lo
        if abs(dc) < 1e-300:
            if lo < 0:
                return None
            continue
        t_cross = -lo / dc
        if dc > 0:
            t0 = max(t0, t_cross)
        else:
            t1 = min(t1, t_cross)
        if t0 >= t1:
            return None
    return t0, t1


def ref_dcd_edge_tet(state):
    """dcd_edge_tet with no tree: every boundary edge clipped against every
    element of every mesh, keeping the first chord center nearest the edge
    midpoint in (target mesh, element id) order."""
    contacts = []
    for ma, mesh_a in enumerate(state.meshes):
        base = int(state.offsets[ma])
        for va, vb in mesh_a.boundary_edges.tolist():
            a = state.positions[base + va]
            b = state.positions[base + vb]
            best = None
            for mb, mesh_b in enumerate(state.meshes):
                bary_a, bary_b = _ref_bary(mesh_b, a), _ref_bary(mesh_b, b)
                for e in range(mesh_b.n_elements):
                    if not _ref_foreign(state, ma, (va, vb), mb, e):
                        continue
                    span = _ref_clip(bary_a[e], bary_b[e])
                    if span is None or span[1] - span[0] <= 1e-12:
                        continue
                    t_mid = 0.5 * (span[0] + span[1])
                    rank = abs(t_mid - 0.5)
                    if best is None or rank < best[0]:
                        best = (rank, t_mid, mb, e)
            if best is not None:
                _, t_mid, mb, e = best
                point = a + t_mid * (b - a)
                contacts.append((ma, (va, vb), (1.0 - t_mid, t_mid), point, mb, e))
    return contacts


def assert_same_contacts(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:3] == w[:3] and g[4:] == w[4:]
        assert np.array_equal(g[3], w[3])


def assert_dcd_matches_reference(state, rt):
    """Checks both DCD functions against the references; returns the
    contact count and the set of (subject mesh, target mesh) pairs seen."""
    contacts = []
    for centroids in (False, True):
        got = dcd_vertex_tet(state, rt, include_centroids=centroids)
        assert_same_contacts(got, ref_dcd_vertex_tet(state, include_centroids=centroids))
        contacts += got
    got = dcd_edge_tet(state, rt)
    assert_same_contacts(got, ref_dcd_edge_tet(state))
    contacts += got
    return len(contacts), {(c[0], c[4]) for c in contacts}


def assert_dcd_matches_reference_over_substeps(state, config, rt, n_substeps):
    """Checks both DCD functions against the references on a runtime's
    kept pairs before the first substep and after each of n_substeps, so
    that later checks reuse pairs taken at earlier positions; returns each
    check's contact count and (subject mesh, target mesh) pairs."""
    seen = [assert_dcd_matches_reference(state, rt)]
    for _ in range(n_substeps):
        state, _ = xpbd_substep(state, config, rt)
        rt.refit(state)
        seen.append(assert_dcd_matches_reference(state, rt))
    return seen


def test_dcd_matches_reference_two_boxes():
    state, config, rt = make_runtime(two_grids(2, (0.8, 0.1, 0.05)), damping=1.0)
    seen = assert_dcd_matches_reference_over_substeps(state, config, rt, 5)
    assert seen[0][0] > 0 and seen[1][0] > 0


def three_boxes():
    # every mesh overlaps both others, so contacts run between all three
    # pairs of meshes and the offsets map past the second mesh
    meshes = [shapes.box_grid(2, 2, 2) for _ in range(3)]
    for mesh, shift in zip(meshes[1:], ([0.7, 0.1, 0.05], [0.3, 0.6, -0.2])):
        mesh.set_vertices(mesh.vertices + np.array(shift))
    return make_runtime(meshes, damping=1.0)


def test_dcd_matches_reference_three_meshes():
    state, config, rt = three_boxes()
    seen = assert_dcd_matches_reference_over_substeps(state, config, rt, 3)
    assert {(ma, mb) for ma in range(3) for mb in range(3) if ma != mb} <= seen[0][1]
    assert seen[1][0] > 0


def test_dcd_matches_reference_mixed_scene():
    # a box pushed through the overlapping turns of a folded bar: one
    # detection sees the bar's self-contacts and both bodies' contacts
    bar = shapes.folded_bar(12, 2, 2)
    box = shapes.box_grid(2, 2, 2, size=(0.5, 0.3, 0.6), origin=(0.95, 0.1, -0.15))
    state, config, rt = make_runtime([bar, box], damping=1.0)
    seen = assert_dcd_matches_reference_over_substeps(state, config, rt, 2)
    assert {(0, 0), (0, 1), (1, 0)} <= seen[0][1]


@pytest.mark.parametrize("name", ["folded_bar", "folded_strip_2d"])
def test_dcd_matches_reference_self_contacts(name):
    mesh = shapes.folded_bar(12, 2, 2) if name == "folded_bar" else shapes.folded_strip(30, 3)
    state, config, rt = make_runtime([mesh], damping=1.0)
    seen = assert_dcd_matches_reference_over_substeps(state, config, rt, 2)
    assert seen[0][0] > 0


def jittered_scene():
    """A jittered box_grid, some of whose elements are inverted, and a
    box overlapping it."""
    rng = np.random.default_rng(0)
    grid = shapes.box_grid(3, 3, 2)
    jitter = rng.normal(scale=0.22, size=grid.vertices.shape)
    jittered = SimplicialMesh(grid.vertices + jitter, grid.elements)
    assert jittered.inverted_flags.any()
    other = shapes.box_grid(2, 2, 2)
    other.set_vertices(other.vertices + np.array([0.5, 0.3, 0.2]))
    return jittered, other


def test_dcd_matches_reference_inverted_elements():
    state, config, rt = make_runtime(jittered_scene(), damping=1.0)
    skipped = state.meshes[0].skipped_flags.copy()
    seen = assert_dcd_matches_reference_over_substeps(state, config, rt, 3)
    assert seen[0][0] > 0
    # the skip flags change between detections
    assert not np.array_equal(skipped, state.meshes[0].skipped_flags)


def count_walks(monkeypatch):
    """Patches AabbTree.box_overlap to append each call's tree to the
    returned list."""
    calls = []
    box_overlap = AabbTree.box_overlap

    def counted(tree, lo, hi):
        calls.append(tree)
        return box_overlap(tree, lo, hi)

    monkeypatch.setattr(AabbTree, "box_overlap", counted)
    return calls


def test_kept_pairs_follow_skip_flags(monkeypatch):
    # an element made nearly flat, then inverted by a move far inside the
    # skin: the pairs are kept, and the skip flag drops the element
    jittered, other = jittered_scene()
    state, config, rt = make_runtime([jittered, other], damping=1.0)
    x = state.positions
    rt.refit(state)
    assert_dcd_matches_reference(state, rt)
    kept = rt.point_pairs.element
    e = int(np.bincount(kept[kept < jittered.n_elements]).argmax())
    a, b, c, d = state.elements[e]
    normal = np.cross(x[b] - x[a], x[c] - x[a])
    normal /= np.linalg.norm(normal)
    eta = 1e-3 * rt.point_pairs.skin
    x[d] += (eta - np.dot(x[d] - x[a], normal)) * normal
    rt.refit(state)
    assert not jittered.skipped_flags[e]
    assert_dcd_matches_reference(state, rt)
    calls = count_walks(monkeypatch)
    x[d] -= 2.0 * eta * normal
    rt.refit(state)
    assert jittered.skipped_flags[e]
    assert_dcd_matches_reference(state, rt)
    assert calls == []


def test_kept_pairs_retaken_past_half_the_skin(monkeypatch):
    # one vertex moved just under, then just over, half the skin from
    # where the pairs were taken: the first detection keeps the pairs,
    # the second takes both lists again, and both match the reference
    state, config, rt = make_runtime(two_grids(2, (0.8, 0.1, 0.05)), damping=1.0)
    rt.refit(state)
    assert_dcd_matches_reference(state, rt)
    taken = state.positions.copy()
    assert np.array_equal(rt.point_pairs.taken_at, taken)
    calls = count_walks(monkeypatch)
    half = 0.5 * rt.point_pairs.skin
    for fraction, walks in ((1.0 - 1e-6, 0), (1.0 + 1e-6, 2)):
        state.positions[:] = taken
        state.positions[30, 0] -= fraction * half  # a vertex of the second box
        rt.refit(state)
        calls.clear()
        assert_dcd_matches_reference(state, rt)
        assert calls == [rt.elem_bvh.tree] * walks


def check_every_detection(monkeypatch):
    """Wraps both DCD functions, as xpbd_substep looks them up, so that
    each detection is checked against its reference; returns the list to
    which each detection appends whether it took its pairs again."""
    retaken = []
    dcd_vertex, dcd_edge = sim.dcd_vertex_tet, sim.dcd_edge_tet

    def vertex(state, rt, include_centroids=False):
        got = dcd_vertex(state, rt, include_centroids)
        assert_same_contacts(got, ref_dcd_vertex_tet(state, include_centroids))
        retaken.append(rt.point_pairs.retaken)
        return got

    def edge(state, rt):
        got = dcd_edge(state, rt)
        assert_same_contacts(got, ref_dcd_edge_tet(state))
        retaken.append(rt.edge_pairs.retaken)
        return got

    monkeypatch.setattr(sim, "dcd_vertex_tet", vertex)
    monkeypatch.setattr(sim, "dcd_edge_tet", edge)
    return retaken


@pytest.mark.parametrize(
    "shift, scale, every",
    [
        # the rounding allowance stays below the skin: pairs are reused
        (1e12, 1.0, False),
        # the allowance exceeds the skin: every detection takes them again
        (1e14, 1.0, True),
        (0.0, 1e70, False),
    ],
    ids=["shift-1e12", "shift-1e14", "scale-1e70"],
)
def test_kept_pairs_far_from_the_origin(monkeypatch, shift, scale, every):
    # criterion 8's scene, scaled, then translated along every axis
    meshes = two_grids(2, (0.8, 0.1, 0.05))
    for mesh in meshes:
        mesh.set_vertices(mesh.vertices * scale + shift)
    state, config, rt = make_runtime(meshes, damping=1.0)
    retaken = check_every_detection(monkeypatch)
    log = []
    run_sim(state, config, 20, rt, log)
    assert len(retaken) == 40 and retaken[:2] == [True, True]
    assert all(retaken) if every else not all(retaken)
    assert [e.pairs_retaken for e in log] == [a or b for a, b in zip(retaken[::2], retaken[1::2])]
    assert sum(e.n_vertex_contacts + e.n_edge_contacts for e in log) > 0


def test_positions_scale_with_the_scene():
    # criterion 8's scene scaled by 2^k, which is exact in binary: the
    # margin and the skin are relative to the scene's length scale, so
    # positions after 30 substeps are 2^k times the unit-scale positions,
    # bit for bit. Smaller scales wait for scale-free query tolerances
    # (ROADMAP item 7)
    def play(k):
        meshes = two_grids(2, (0.8, 0.1, 0.05))
        for mesh in meshes:
            mesh.set_vertices(mesh.vertices * 2.0**k)
        state, config, rt = make_runtime(meshes, damping=1.0)
        run_sim(state, config, 30, rt)
        return state.positions

    unit = play(0)
    for k in (-24, -20, -10, 10, 20, 40):
        assert np.array_equal(play(k), unit * 2.0**k), k


def overlapping_boxes(n_meshes):
    meshes = [shapes.box_grid(2, 2, 2) for _ in range(n_meshes)]
    for k, mesh in enumerate(meshes):
        mesh.set_vertices(mesh.vertices + 0.4 * k)
    return make_runtime(meshes, damping=1.0)


@pytest.mark.parametrize("n_meshes", [1, 2, 3])
def test_one_box_overlap_call_per_detection(monkeypatch, n_meshes):
    calls = count_walks(monkeypatch)
    # a fresh runtime's first substep walks the element tree once per
    # probe kind: points (vertices, then centroids) and boundary edges
    state, config, rt = overlapping_boxes(n_meshes)
    xpbd_substep(state, config, rt)
    assert calls == [rt.elem_bvh.tree] * 2
    # a fresh runtime's detections walk once per probe kind, and a repeat
    # detection with no motion since walks no more
    state, config, rt = overlapping_boxes(n_meshes)
    points = [
        lambda: dcd_vertex_tet(state, rt),
        lambda: dcd_vertex_tet(state, rt, include_centroids=True),
        lambda: count_penetrations(state, rt),
    ]
    edges = [lambda: dcd_edge_tet(state, rt)]
    for detect, walks in zip(points + edges + points + edges, [1, 0, 0, 1, 0, 0, 0, 0]):
        calls.clear()
        detect()
        assert calls == [rt.elem_bvh.tree] * walks


@pytest.mark.parametrize("n_meshes", [1, 2, 3])
def test_one_mesh_refresh_per_detection(monkeypatch, n_meshes):
    meshes = [shapes.box_grid(2, 2, 2) for _ in range(n_meshes)]
    for k, mesh in enumerate(meshes):
        mesh.set_vertices(mesh.vertices + 0.4 * k)
    state = make_state(meshes)
    assert all(np.shares_memory(mesh.vertices, state.positions) for mesh in meshes)
    config = SimConfig(gravity=(0, 0, 0), damping=1.0)
    rt = SimRuntime(state, config)
    refreshed = []
    set_vertices = SimplicialMesh.set_vertices

    def counted(mesh, vertices):
        refreshed.append(mesh)
        set_vertices(mesh, vertices)

    monkeypatch.setattr(SimplicialMesh, "set_vertices", counted)
    for step in (
        lambda: xpbd_substep(state, config, rt),
        lambda: count_penetrations(state, rt),
        lambda: rt.refit(state),
    ):
        refreshed.clear()
        step()
        assert refreshed == meshes
    # after a refit, each mesh's rows and the geometry derived from them
    for m, mesh in enumerate(meshes):
        rows = state.positions[state.mesh_slice(m)]
        assert np.shares_memory(mesh.vertices, state.positions)
        assert np.array_equal(mesh.vertices, rows)
        fresh = SimplicialMesh(rows, mesh.elements)
        for name in (
            "signed_volumes", "skipped_flags", "bary_rows", "face_area_normals",
            "face_bary_floors",
        ):
            # a flat element's barycentric rows are nan, equal to nan here
            np.testing.assert_array_equal(getattr(mesh, name), getattr(fresh, name), name)


def test_make_state_rejects_a_mesh_listed_twice():
    box, other = shapes.box_grid(1, 1, 1), shapes.box_grid(1, 1, 1)
    for meshes in ([box, box], [box, other, box]):
        with pytest.raises(ValueError, match="only once"):
            make_state(meshes)


def test_runtime_holds_one_scene_element_tree(monkeypatch):
    meshes = [shapes.box_grid(1, 1, 1), shapes.box_grid(2, 1, 1), shapes.box_grid(1, 2, 1)]
    for k, mesh in enumerate(meshes):
        mesh.set_vertices(mesh.vertices + 0.6 * k)
    state = make_state(meshes)
    # the state's elements and boundary edges are each mesh's, on global
    # vertex ids, mesh after mesh
    for m, mesh in enumerate(meshes):
        rows = slice(int(state.element_offsets[m]), int(state.element_offsets[m + 1]))
        assert np.array_equal(state.elements[rows] - state.offsets[m], mesh.elements)
    edges = [mesh.boundary_edges + state.offsets[m] for m, mesh in enumerate(meshes)]
    assert np.array_equal(state.boundary_edges, np.concatenate(edges))
    built = []
    init = ElementBvh.__init__

    def counted(tree, *args):
        built.append(tree)
        init(tree, *args)

    monkeypatch.setattr(ElementBvh, "__init__", counted)
    config = SimConfig(gravity=(0, 0, 0), damping=1.0)
    rt = SimRuntime(state, config)
    run_sim(state, config, 3, rt)
    count_penetrations(state, rt)
    assert built == [rt.elem_bvh]
    leaves = rt.elem_bvh.tree.prim[rt.elem_bvh.tree.prim >= 0]
    assert sorted(leaves.tolist()) == list(range(len(state.elements)))


def test_constraint_values():
    n = np.array([0.0, 0.0, 1.0])
    s = np.zeros(3)
    con = CollisionConstraint(rows=(0,), weights=(1.0,), target_point=s, normal=n)
    assert con.value(s) == 0.0
    assert con.value(s - 0.1 * n) == pytest.approx(-0.1)
    assert con.value(s + 0.2 * n) == pytest.approx(0.2)


def test_constraints_on_scene_rows(monkeypatch):
    state, _, rt = three_boxes()
    rt.refit(state)
    contacts = dcd_vertex_tet(state, rt, include_centroids=True)
    contacts += dcd_edge_tet(state, rt)
    answered = []
    query = sim.shortest_path_to_boundary

    def recorded(*args, **kwargs):
        res = query(*args, **kwargs)
        answered.append(res is not None)
        return res

    monkeypatch.setattr(sim, "shortest_path_to_boundary", recorded)
    constraints, entry = sim._build_constraints(state, rt)
    kept = [c for c, ok in zip(contacts, answered) if ok]
    assert len(answered) == len(contacts) and len(kept) == len(constraints) > 0
    assert {ma for ma, *_ in kept} == {0, 1, 2}
    for (ma, ids, w, *_), con in zip(kept, constraints):
        assert con.rows == tuple(int(state.offsets[ma]) + v for v in ids)
        assert con.weights == w
    assert entry.n_constraints == len(constraints)
    assert entry.max_penetration == max(
        max(0.0, -con.value(c[3])) for c, con in zip(kept, constraints)
    )
    assert entry.max_penetration > 0.0


def test_rest_state_unchanged():
    m1 = shapes.box_grid(1, 1, 1)
    state, config, rt = make_runtime([m1])
    before = state.positions.copy()
    state, _ = xpbd_substep(state, config, rt)
    assert np.allclose(state.positions, before, atol=1e-12)


def test_plane_constraint_projection():
    # single movable point below a zero-compliance plane: projected onto it
    m1 = shapes.box_grid(1, 1, 1)
    state, config, rt = make_runtime([m1])
    con = CollisionConstraint(
        rows=(0,),
        weights=(1.0,),
        target_point=np.array([0.0, 0.0, 0.5]),
        normal=np.array([0.0, 0.0, 1.0]),
    )
    from boundarypath.sim import _project_collisions

    _project_collisions(state, [con], alpha=0.0, margin=0.0)
    assert con.value(state.positions[0]) >= -1e-9


def test_projection_never_violates(rng):
    # zero-compliance projection leaves c >= -1e-9 for the projected subject
    from boundarypath.sim import _project_collisions

    m1 = shapes.box_grid(1, 1, 1)
    state, config, rt = make_runtime([m1])
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        con = CollisionConstraint(
            rows=(0,),
            weights=(1.0,),
            target_point=rng.normal(size=3),
            normal=n,
        )
        _project_collisions(state, [con], alpha=0.0, margin=0.0)
        assert con.value(state.positions[0]) >= -1e-9


def test_momentum_conserved_springs_only(rng):
    mesh = shapes.box_grid(1, 1, 1)
    state, config, rt = make_runtime([mesh])
    state.velocities[:] = rng.normal(size=state.velocities.shape) * 0.1
    # stretch the mesh so springs actually fire
    state.positions *= 1.2
    for _ in range(5):
        p_before = state.velocities.sum(axis=0)
        state, _ = xpbd_substep(state, config, rt)
        p_after = state.velocities.sum(axis=0)
        assert np.linalg.norm(p_after - p_before) <= 1e-8


def ref_project_springs(state, config, dt):
    """The spring sweep one spring at a time in (i, j) order, not the
    state's level order, indexing the state's arrays per spring, with
    np.linalg.norm for each length: the level-by-level sweep must move
    every position bit for bit as this one does."""
    alpha = config.material_compliance / (dt * dt)
    x = state.positions
    w = state.inv_mass
    for k in np.lexsort((state.springs[:, 1], state.springs[:, 0])):
        i, j = int(state.springs[k, 0]), int(state.springs[k, 1])
        wi, wj = w[i], w[j]
        denom0 = wi + wj
        if denom0 == 0.0:
            continue
        d = x[i] - x[j]
        dist = float(np.linalg.norm(d))
        if dist < 1e-14:
            continue
        c = dist - float(state.rest_lengths[k])
        dlam = -c / (denom0 + alpha)
        grad = d / dist
        x[i] += wi * dlam * grad
        x[j] -= wj * dlam * grad


def two_grids(res, offset):
    """Two overlapping box_grid boxes (3D) or rect_grid sheets (2D) with
    res cells per side, the second translated by offset."""
    grid = shapes.box_grid if len(offset) == 3 else shapes.rect_grid
    a, b = grid(*[res] * len(offset)), grid(*[res] * len(offset))
    b.set_vertices(b.vertices + np.asarray(offset))
    return a, b


# (scene, pinned vertices, gravity, damping, material compliance): the
# recovery scene of criterion 8 with two vertices pinned, so that a spring
# of zero total inverse mass is skipped; the same boxes at res 3; and two
# overlapping sheets
SPRING_SCENES = [
    ((2, (0.8, 0.1, 0.05)), [0, 1], (0.0, -9.8, 0.0), 0.5, 0.0),
    ((3, (0.8, 0.1, 0.05)), [], (0.0, 0.0, 0.0), 1.0, 0.0),
    ((4, (0.7, 0.15)), [0], (0.0, -9.8), 0.3, 1e-5),
]


def test_spring_projection_matches_reference(monkeypatch):
    def play(grids, pinned, gravity, damping, compliance):
        state = make_state(list(two_grids(*grids)))
        state.inv_mass[pinned] = 0.0
        config = SimConfig(gravity=gravity, damping=damping, material_compliance=compliance)
        runtime = SimRuntime(state, config)
        out = []
        for _ in range(12):
            state, _ = xpbd_substep(state, config, runtime)
            out.append(state.positions.copy())
        return out

    for scene in SPRING_SCENES:
        with monkeypatch.context() as patch:
            got = play(*scene)
            patch.setattr(sim, "_project_springs", ref_project_springs)
            want = play(*scene)
        assert not np.array_equal(want[0], want[-1])
        for x, x_ref in zip(got, want):
            assert np.array_equal(x, x_ref) and np.array_equal(np.signbit(x), np.signbit(x_ref))


@pytest.mark.parametrize("grids", [(2, (0.8, 0.1, 0.05)), (3, (0.8, 0.1, 0.05)), (4, (0.7, 0.15))])
def test_spring_levels(grids):
    # within a level no two springs share a vertex, and of two springs that
    # share one, the earlier in (i, j) order has the lower level
    state = make_state(list(two_grids(*grids)))
    bounds = state.spring_levels
    level = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    assert bounds[0] == 0 and bounds[-1] == len(state.springs) and np.all(np.diff(bounds) > 0)
    order = np.lexsort((state.springs[:, 1], state.springs[:, 0]))
    assert np.array_equal(state.springs[order], np.unique(state.springs, axis=0))
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    for v in range(len(state.positions)):
        mine = np.flatnonzero((state.springs == v).any(axis=1))
        assert len(set(level[mine].tolist())) == len(mine)
        by_rank = mine[np.argsort(rank[mine])]
        assert np.all(np.diff(level[by_rank]) > 0)


def test_recovery_two_meshes():
    m1, m2 = two_cubes()
    state, config, rt = make_runtime([m1, m2], damping=1.0)
    assert count_penetrations(state, rt) > 0
    log = []
    run_sim(state, config, 30, rt, log)
    assert count_penetrations(state, rt) == 0
    assert log[0].n_constraints > 0
    # determinism: replay from scratch gives identical positions
    m1b, m2b = two_cubes()
    state2, config2, rt2 = make_runtime([m1b, m2b], damping=1.0)
    run_sim(state2, config2, 30, rt2)
    assert np.array_equal(state.positions, state2.positions)


RECOVER_BY = 20  # the penetration count must first read 0 by this substep
HOLD_THROUGH = 40  # and then read 0 after every substep through this one
RELAPSE = "relapses at substep 4: contacts are detected before the spring sweeps (ROADMAP item 16)"
DIVERGES = "11 inverted elements after substep 1, then diverges (ROADMAP items 16 and 9)"
INVERTS = (
    "penetrations 3, 3, 1, 3, 2, 3, 1, 0, 1, 0, 3, ...; 4 of 12 tets inverted after "
    "substep 1, 5 from substep 3 and 6 from substep 6 on (ROADMAP item 9)"
)
OFFSET = (0.8, 0.1, 0.05)  # criterion 8's translation of the second box


@pytest.mark.parametrize(
    "res, offset, mass",
    [
        pytest.param(2, OFFSET, None, id="2", marks=pytest.mark.xfail(strict=True, reason=RELAPSE)),
        pytest.param(3, OFFSET, None, id="3", marks=pytest.mark.xfail(strict=True, reason=RELAPSE)),
        pytest.param(4, OFFSET, None, id="4", marks=pytest.mark.xfail(strict=True, reason=DIVERGES)),
        # test_scene_loader's scene: 1-cell boxes, the second at mass 2
        pytest.param(
            1, (0.85, 0.0, 0.0), 2.0, id="1-mass-2",
            marks=pytest.mark.xfail(strict=True, reason=INVERTS),
        ),
    ],
)
def test_recovery_sweep(res, offset, mass):
    """Two box_grid boxes of res^3 cells, the second translated by
    `offset` and with per-vertex `mass` (None: unit mass), no gravity,
    damping 1; res 2-4 are criterion 8's scene at other resolutions.
    After every substep the penetration count and the number of inverted
    or flat elements are read. The boxes must separate by substep
    RECOVER_BY and stay apart through HOLD_THROUGH, with no inverted or
    flat element at any substep; the first violation fails the case and
    lists the counts up to it."""
    a, b = shapes.box_grid(res, res, res), shapes.box_grid(res, res, res)
    b.set_vertices(b.vertices + np.array(offset))
    state, config, rt = make_runtime([a, b], [None, mass], damping=1.0)
    pens, flats = [], []
    recovered = False
    for k in range(1, HOLD_THROUGH + 1):
        state, _ = xpbd_substep(state, config, rt)
        pens.append(count_penetrations(state, rt))
        flats.append(sum(int(np.count_nonzero(m.skipped_flags)) for m in state.meshes))
        counts = (
            f"penetrations {', '.join(map(str, pens))}; "
            f"inverted or flat elements {', '.join(map(str, flats))}"
        )
        assert flats[-1] == 0, f"res {res}: inverted or flat elements at substep {k}; {counts}"
        assert not (recovered and pens[-1]), f"res {res}: relapse at substep {k}; {counts}"
        recovered = recovered or pens[-1] == 0
        assert recovered or k < RECOVER_BY, f"res {res}: still penetrating at substep {k}; {counts}"


@pytest.mark.parametrize("gravity", [(0, -9.8), (0, -9.8, 0, 5)], ids=["short", "long"])
def test_gravity_of_another_dimension_raises(gravity):
    # the substep refuses it before it moves anything
    state, _, rt = make_runtime([shapes.box_grid(1, 1, 1)])
    positions, velocities = state.positions.copy(), state.velocities.copy()
    with pytest.raises(ValueError, match=f"gravity has {len(gravity)} entries, but the scene is 3D"):
        run_sim(state, SimConfig(gravity=gravity), 1, rt)
    assert np.array_equal(state.positions, positions) and np.array_equal(state.velocities, velocities)
    assert state.substeps_done == 0


@pytest.mark.parametrize("grid", [shapes.rect_grid(2, 2), shapes.box_grid(1, 1, 1)], ids=["2d", "3d"])
def test_default_config_has_no_gravity(grid):
    state = make_state([grid])
    config = SimConfig()
    rest = state.positions.copy()
    run_sim(state, config, 3, SimRuntime(state, config))
    assert np.array_equal(state.positions, rest) and not state.velocities.any()


@pytest.mark.filterwarnings("error")
def test_blowup_detected():
    m1 = shapes.box_grid(1, 1, 1)
    state, config, rt = make_runtime([m1])
    state.velocities[0] = np.array([np.inf, 0, 0])
    with pytest.raises(NumericalBlowup) as err:
        xpbd_substep(state, config, rt)
    assert err.value.state_dump is not None


def test_scene_loader(tmp_path):
    from boundarypath.meshio import save_mesh

    save_mesh(shapes.box_grid(1, 1, 1), tmp_path / "box.json")
    scene = {
        "meshes": [
            {"path": "box.json"},
            {"path": "box.json", "translate": [0.85, 0.0, 0.0], "mass": 2.0},
        ],
        "config": {"dt": 0.01, "gravity": [0, 0, 0], "damping": 1.0},
    }
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    state, config = load_scene(str(tmp_path / "scene.json"))
    assert len(state.meshes) == 2
    assert config.damping == 1.0
    assert np.all(state.inv_mass[state.mesh_slice(1)] == 0.5)
    box = shapes.box_grid(1, 1, 1).vertices
    assert np.array_equal(state.meshes[1].vertices, box + np.array([0.85, 0.0, 0.0]))


def test_scene_not_text(tmp_path):
    # a library caller gets the scene's ParseError, which names the file,
    # not a bare UnicodeDecodeError
    path = tmp_path / "scene.json"
    path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    with pytest.raises(ParseError, match="not a text file") as info:
        load_scene(str(path))
    assert info.value.path == str(path) and str(path) in str(info.value)


@pytest.mark.filterwarnings("error")
def test_scene_at_a_large_scale_loads(tmp_path):
    # the largest scale in 1e10 steps at which no volume, normal or normal
    # length of the unit box overflows; 1e100 is rejected (test_cli.py)
    from boundarypath.meshio import save_mesh

    save_mesh(shapes.box_grid(1, 1, 1), tmp_path / "box.json")
    (tmp_path / "scene.json").write_text('{"meshes": [{"path": "box.json", "scale": 1e70}]}')
    state, config = load_scene(str(tmp_path / "scene.json"))
    rt = SimRuntime(state, config)
    run_sim(state, config, 3, rt)
    count_penetrations(state, rt)
    assert np.isfinite(state.meshes[0].signed_volumes).all()
    assert state.positions.max() == pytest.approx(1e70)


def test_contact_log_entries(monkeypatch):
    m1, m2 = two_cubes()
    state, config, rt = make_runtime([m1, m2], damping=1.0)
    state, entry = xpbd_substep(state, config, rt)
    doc = entry.as_dict()
    assert doc["constraint_count"] > 0
    assert doc["max_penetration_depth"] > 0
    assert "query_stats" in doc
    assert doc["inverted_elements"] == 0 and doc["query_stats"]["no_path"] == 0
    # a fresh runtime's first detection takes the candidate pairs, and the
    # exact box test runs on every pair of both kept lists
    assert doc["candidate_pairs"] == {"retaken": True, "tested": entry.pairs_tested}
    assert entry.pairs_tested == rt.point_pairs.tested + rt.edge_pairs.tested
    assert entry.pairs_tested == len(rt.point_pairs.probe) + len(rt.edge_pairs.probe)
    assert entry.pairs_tested >= entry.n_vertex_contacts + entry.n_edge_contacts
    # once the boxes settle, substeps reuse the kept pairs
    log = []
    run_sim(state, config, 29, rt, log)
    reused = [e.as_dict()["candidate_pairs"] for e in log if not e.pairs_retaken]
    assert reused and all(pairs["retaken"] is False and pairs["tested"] > 0 for pairs in reused)

    # a corner vertex moved past the opposite corner inverts elements, and
    # a query that returns None builds no constraint; both show in the entry
    m1, m2 = two_cubes()
    state, config, rt = make_runtime([m1, m2], damping=1.0)
    state.positions[0] = [1.5, 1.5, 1.5]
    query = sim.shortest_path_to_boundary
    calls = []

    def first_query_empty(*args, **kwargs):
        calls.append(1)
        return None if len(calls) == 1 else query(*args, **kwargs)

    monkeypatch.setattr(sim, "shortest_path_to_boundary", first_query_empty)
    state, entry = xpbd_substep(state, config, rt)
    inverted = sum(int(np.count_nonzero(m.inverted_flags)) for m in state.meshes)
    assert entry.n_inverted_elements == inverted > 0
    assert entry.n_queries_none == 1
    assert entry.n_constraints == entry.n_vertex_contacts + entry.n_edge_contacts - 1
    doc = entry.as_dict()
    assert doc["inverted_elements"] == inverted and doc["query_stats"]["no_path"] == 1
