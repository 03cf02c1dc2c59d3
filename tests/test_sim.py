import json

import numpy as np
import pytest

from boundarypath import geometry, shapes, sim
from boundarypath.bvh import ElementBvh
from boundarypath.errors import NumericalBlowup
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


def make_runtime(meshes, **cfg_kw):
    state = make_state(list(meshes))
    config = SimConfig(gravity=(0, 0, 0), **cfg_kw)
    return state, config, SimRuntime(state, config)


def test_dcd_vertex_inside_detected(tet):
    other = SimplicialMesh(
        np.array([[0.1, 0.1, 0.1], [5, 0, 0], [0, 5, 0], [0, 0, 5]], float),
        np.array([[0, 1, 2, 3]]),
    )
    state = make_state([tet, other])
    bvhs = [ElementBvh(m) for m in state.meshes]
    hits = dcd_vertex_tet(state, bvhs)
    # other's vertex 0 sits strictly inside the unit tet
    assert any(ma == 1 and ids == (0,) and mb == 0 for ma, ids, _, _, mb, _ in hits)


def test_dcd_vertex_outside_empty():
    m1, m2 = two_cubes(offset=(5.0, 0.0, 0.0))
    state = make_state([m1, m2])
    bvhs = [ElementBvh(m) for m in state.meshes]
    assert dcd_vertex_tet(state, bvhs) == []


def test_dcd_vertex_incident_excluded(tet):
    state = make_state([tet])
    bvhs = [ElementBvh(tet)]
    assert dcd_vertex_tet(state, bvhs) == []


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
    bvhs = [ElementBvh(m) for m in state.meshes]
    hits = [h for h in dcd_edge_tet(state, bvhs) if h[0] == 1 and h[4] == 0]
    assert hits
    ma, ids, w, point, mb, e = hits[0]
    assert set(ids) == {0, 1}
    # chord through the unit tet at y=z=0.2 spans x in [0, 0.6]
    assert point == pytest.approx([0.3, 0.2, 0.2], abs=1e-9)


def test_dcd_edge_fully_outside():
    m1, m2 = two_cubes(offset=(9.0, 0.0, 0.0))
    state = make_state([m1, m2])
    bvhs = [ElementBvh(m) for m in state.meshes]
    assert dcd_edge_tet(state, bvhs) == []


# -- per-probe references for the batched DCD -------------------------------


def _ref_overlapping(bvh, lo, hi):
    return bvh.tree.box_overlap(np.asarray(lo)[None], np.asarray(hi)[None])[1].tolist()


def _ref_strictly_inside(mesh, e, p):
    b = geometry.barycentric_coords(p, mesh.vertices[mesh.elements[e]])
    return bool(np.all(np.isfinite(b)) and np.all(b > 0.0))


def ref_dcd_vertex_tet(state, elem_bvhs, include_centroids=False):
    """dcd_vertex_tet one probe at a time: one box query per probe and
    target mesh, one barycentric solve per candidate."""
    contacts = []
    probes = []
    for ma, mesh_a in enumerate(state.meshes):
        base = int(state.offsets[ma])
        for v in range(mesh_a.n_vertices):
            probes.append((ma, (v,), (1.0,), state.positions[base + v]))
        if include_centroids:
            for e in range(mesh_a.n_elements):
                ids = tuple(int(i) for i in mesh_a.elements[e])
                w = (1.0 / len(ids),) * len(ids)
                c = mesh_a.vertices[mesh_a.elements[e]].mean(axis=0)
                probes.append((ma, ids, w, c))
    for ma, ids, w, point in probes:
        for mb, mesh_b in enumerate(state.meshes):
            for e in _ref_overlapping(elem_bvhs[mb], point, point):
                if mesh_b.element_skipped(e):
                    continue
                if ma == mb and any(v in mesh_b.elements[e] for v in ids):
                    continue
                if _ref_strictly_inside(mesh_b, e, point):
                    contacts.append((ma, ids, w, np.array(point, float), mb, int(e)))
    return contacts


def _ref_clip_segment_to_element(mesh, e, a, b):
    verts = mesh.vertices[mesh.elements[e]]
    ba = geometry.barycentric_coords(a, verts)
    bb = geometry.barycentric_coords(b, verts)
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


def ref_dcd_edge_tet(state, elem_bvhs):
    """dcd_edge_tet one boundary edge at a time, with the early-exit clip."""
    contacts = []
    for ma, mesh_a in enumerate(state.meshes):
        base = int(state.offsets[ma])
        for va, vb in mesh_a.boundary_edges.tolist():
            a = state.positions[base + va]
            b = state.positions[base + vb]
            best = None
            for mb, mesh_b in enumerate(state.meshes):
                for e in _ref_overlapping(elem_bvhs[mb], np.minimum(a, b), np.maximum(a, b)):
                    if mesh_b.element_skipped(e):
                        continue
                    if ma == mb and (va in mesh_b.elements[e] or vb in mesh_b.elements[e]):
                        continue
                    span = _ref_clip_segment_to_element(mesh_b, e, a, b)
                    if span is None or span[1] - span[0] <= 1e-12:
                        continue
                    t_mid = 0.5 * (span[0] + span[1])
                    rank = abs(t_mid - 0.5)
                    if best is None or rank < best[0]:
                        best = (rank, t_mid, mb, int(e))
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


def assert_dcd_matches_reference(state, bvhs):
    n = 0
    for centroids in (False, True):
        got = dcd_vertex_tet(state, bvhs, include_centroids=centroids)
        assert_same_contacts(got, ref_dcd_vertex_tet(state, bvhs, include_centroids=centroids))
        n += len(got)
    got = dcd_edge_tet(state, bvhs)
    assert_same_contacts(got, ref_dcd_edge_tet(state, bvhs))
    return n + len(got)


def test_dcd_matches_reference_two_boxes():
    a, b = shapes.box_grid(2, 2, 2), shapes.box_grid(2, 2, 2)
    b.set_vertices(b.vertices + np.array([0.8, 0.1, 0.05]))
    state, config, rt = make_runtime([a, b], damping=1.0)
    counts = []
    for step in range(6):
        if step in (0, 1, 5):
            rt.refit(state)
            counts.append(assert_dcd_matches_reference(state, rt.elem_bvhs))
        state, _ = xpbd_substep(state, config, rt)
    assert counts[0] > 0 and counts[1] > 0


@pytest.mark.parametrize("name", ["folded_bar", "folded_strip_2d"])
def test_dcd_matches_reference_self_contacts(name):
    mesh = shapes.folded_bar(12, 2, 2) if name == "folded_bar" else shapes.folded_strip(30, 3)
    state = make_state([mesh])
    bvhs = [ElementBvh(mesh)]
    assert assert_dcd_matches_reference(state, bvhs) > 0


def test_dcd_matches_reference_inverted_elements():
    rng = np.random.default_rng(0)
    grid = shapes.box_grid(3, 3, 2)
    jitter = rng.normal(scale=0.22, size=grid.vertices.shape)
    jittered = SimplicialMesh(grid.vertices + jitter, grid.elements)
    assert jittered.inverted_flags.any()
    other = shapes.box_grid(2, 2, 2)
    other.set_vertices(other.vertices + np.array([0.5, 0.3, 0.2]))
    state = make_state([jittered, other])
    bvhs = [ElementBvh(m) for m in state.meshes]
    assert assert_dcd_matches_reference(state, bvhs) > 0


def test_constraint_values():
    n = np.array([0.0, 0.0, 1.0])
    s = np.zeros(3)
    con = CollisionConstraint(subject=(0, (0,), (1.0,)), target_point=s, normal=n)
    assert con.value(s) == 0.0
    assert con.value(s - 0.1 * n) == pytest.approx(-0.1)
    assert con.value(s + 0.2 * n) == pytest.approx(0.2)


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
        subject=(0, (0,), (1.0,)),
        target_point=np.array([0.0, 0.0, 0.5]),
        normal=np.array([0.0, 0.0, 1.0]),
    )
    from boundarypath.sim import _project_collisions

    state.springs = state.springs[:0]
    state.rest_lengths = state.rest_lengths[:0]
    _project_collisions(state, [con], config.dt)
    assert con.value(state.positions[0]) >= -1e-9


def test_projection_never_violates(rng):
    # zero-compliance projection leaves c >= -1e-9 for the projected subject
    from boundarypath.sim import _project_collisions

    m1 = shapes.box_grid(1, 1, 1)
    state, config, rt = make_runtime([m1])
    state.springs = state.springs[:0]
    state.rest_lengths = state.rest_lengths[:0]
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        con = CollisionConstraint(
            subject=(0, (0,), (1.0,)),
            target_point=rng.normal(size=3),
            normal=n,
        )
        _project_collisions(state, [con], config.dt)
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
    """The spring sweep indexing the state's arrays per spring, with
    np.linalg.norm for each length: the list-reading sweep must move
    every position bit for bit as this one does."""
    alpha = config.material_compliance / (dt * dt)
    x = state.positions
    w = state.inv_mass
    for k in range(len(state.springs)):
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


def test_spring_projection_matches_reference(monkeypatch):
    # the recovery scene of criterion 8, with one pinned vertex so that a
    # spring of zero total inverse mass is skipped
    def play():
        a, b = shapes.box_grid(2, 2, 2), shapes.box_grid(2, 2, 2)
        b.set_vertices(b.vertices + np.array([0.8, 0.1, 0.05]))
        state = make_state([a, b])
        state.inv_mass[[0, 1]] = 0.0
        config = SimConfig(gravity=(0.0, -9.8, 0.0), damping=0.5)
        runtime = SimRuntime(state, config)
        out = []
        for _ in range(12):
            state, _ = xpbd_substep(state, config, runtime)
            out.append(state.positions.copy())
        return out

    got = play()
    monkeypatch.setattr(sim, "_project_springs", ref_project_springs)
    want = play()
    assert not np.array_equal(want[0], want[-1])
    for x, x_ref in zip(got, want):
        assert np.array_equal(x, x_ref)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    rt = SimRuntime(state, config)
    run_sim(state, config, 60, rt)
    assert count_penetrations(state, rt) == 0


def test_contact_log_entries():
    m1, m2 = two_cubes()
    state, config, rt = make_runtime([m1, m2], damping=1.0)
    state, entry = xpbd_substep(state, config, rt)
    doc = entry.as_dict()
    assert doc["constraint_count"] > 0
    assert doc["max_penetration_depth"] > 0
    assert "query_stats" in doc
