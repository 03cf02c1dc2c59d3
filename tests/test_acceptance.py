"""End-to-end acceptance gates.

Each test covers one release criterion and records a single PASS/FAIL line
(printed in the terminal summary). Criteria 1-3 share one corpus of folded
self-intersecting bars and one baseline set of engine results; the other
criteria build their own fixtures. Tolerances are pinned here and nowhere
else.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES, threaded_ray_corpus

from boundarypath import shapes
from boundarypath.bvh import build_boundary_bvh
from boundarypath.geometry import barycentric_coords
from boundarypath.mesh import SimplicialMesh
from boundarypath.oracle import (
    closest_boundary_candidates,
    co_minimal_faces,
    oracle_closest_boundary,
    oracle_valid_path,
)
from boundarypath.query import QueryConfig, shortest_path_to_boundary
from boundarypath.sim import (
    SimConfig,
    SimRuntime,
    count_penetrations,
    dcd_vertex_tet,
    make_state,
    run_sim,
    xpbd_substep,
)
from boundarypath.traversal import (
    TraversalConfig,
    TraversalScratch,
    exit_face_selection,
    is_valid_path,
    make_ray_frame,
)

DIST_TOL = 1e-9
QUERY_BUDGET_S = 300.0


def record(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def boundary_vertex_set(mesh):
    return set(int(v) for v in np.unique(mesh.boundary_faces))


def incident_element(mesh, v):
    return int(np.argwhere(mesh.elements == v)[0][0])


# --- corpus shared by criteria 1-3: the folded_corpus fixture --------------


def run_corpus_queries(folded_corpus, config):
    results = []
    for entry in folded_corpus:
        mesh, bvh = entry["mesh"], entry["bvh"]
        scratch = TraversalScratch(config.traversal)
        for p, e in zip(entry["points"], entry["elems"]):
            results.append(
                shortest_path_to_boundary(
                    mesh, bvh, p, p_element=int(e), config=config, scratch=scratch
                )
            )
    return results


@pytest.fixture(scope="session")
def corpus_baseline(folded_corpus):
    t0 = time.perf_counter()
    engine = run_corpus_queries(folded_corpus, QueryConfig())
    oracle = []
    for entry in folded_corpus:
        for p in entry["points"]:
            oracle.append(oracle_closest_boundary(entry["mesh"], p))
    elapsed = time.perf_counter() - t0
    return {"engine": engine, "oracle": oracle, "elapsed": elapsed}


def test_criterion_1_oracle_equivalence(folded_corpus, corpus_baseline):
    engine = corpus_baseline["engine"]
    oracle = corpus_baseline["oracle"]
    n = len(engine)
    assert n >= 1000 and len(folded_corpus) >= 20
    mismatches = 0
    i = 0
    for entry in folded_corpus:
        mesh = entry["mesh"]
        for p in entry["points"]:
            res, ref = engine[i], oracle[i]
            i += 1
            if res is None or ref is None:
                mismatches += 1
                continue
            if abs(res.distance - ref[2]) > DIST_TOL:
                mismatches += 1
                continue
            if res.face not in co_minimal_faces(mesh, p, ref[2], tol=DIST_TOL):
                mismatches += 1
    elapsed = corpus_baseline["elapsed"]
    ok = mismatches == 0 and elapsed < QUERY_BUDGET_S
    record(
        1,
        ok,
        f"{n - mismatches}/{n} queries match reference within {DIST_TOL:g} "
        f"on {len(folded_corpus)} folded meshes in {elapsed:.1f}s (budget {QUERY_BUDGET_S:.0f}s)",
    )


def test_criterion_2_culling_neutral_and_beneficial(folded_corpus, corpus_baseline):
    baseline = corpus_baseline["engine"]
    unculled = run_corpus_queries(folded_corpus, QueryConfig(enable_culling=False))
    diffs = 0
    for a, b in zip(baseline, unculled):
        if (a is None) != (b is None):
            diffs += 1
        elif a is not None and (
            a.face != b.face
            or a.distance != b.distance
            or not np.array_equal(a.point, b.point)
        ):
            diffs += 1

    # high-curvature spiral fold whose turns interpenetrate at a radial
    # offset, so for points in the overlap band the nearest boundary sheet
    # belongs to the other turn and is invalid: culling must remove at least
    # 2/3 of the traversals per query on average, at the default QueryConfig.
    big = shapes.spiral_bar(90, 6, 6, thickness=0.25, total_angle=3.6 * np.pi, pitch=0.15)
    assert big.n_elements >= 10_000
    assert not any(big.element_skipped(e) for e in range(big.n_elements))
    bvh = build_boundary_bvh(big)
    rng = np.random.default_rng(7)
    points, elems = shapes.random_interior_points(big, rng, 200)
    means = {}
    big_results = {}
    for on in (True, False):
        cfg = QueryConfig(enable_culling=on)
        scratch = TraversalScratch(cfg.traversal)
        total = 0
        recs = []
        for p, e in zip(points, elems):
            res = shortest_path_to_boundary(
                big, bvh, p, p_element=int(e), config=cfg, scratch=scratch
            )
            assert res is not None
            total += res.traversals_run
            recs.append((res.face, res.distance))
        means[on] = total / len(points)
        big_results[on] = recs
    big_diffs = sum(a != b for a, b in zip(big_results[True], big_results[False]))
    ratio = means[True] / means[False]
    ok = diffs == 0 and big_diffs == 0 and ratio <= 1.0 / 3.0
    record(
        2,
        ok,
        f"culling on/off differs on {diffs}/{len(baseline)} corpus queries and "
        f"{big_diffs}/{len(points)} spiral queries; mean traversals "
        f"{means[True]:.2f} vs {means[False]:.2f} "
        f"(ratio {ratio:.3f}, bound 0.333) on a {big.n_elements}-tet spiral fold",
    )


def test_criterion_3_epsilon_i_invariance(folded_corpus, corpus_baseline):
    baseline = corpus_baseline["engine"]
    cfg = QueryConfig(traversal=TraversalConfig(epsilon_i=1e-9))
    scaled = run_corpus_queries(folded_corpus, cfg)
    diffs = 0
    for a, b in zip(baseline, scaled):
        if (a is None) != (b is None):
            diffs += 1
        elif a is not None and (
            a.face != b.face
            or a.distance != b.distance
            or not np.array_equal(a.point, b.point)
        ):
            diffs += 1
    record(
        3,
        diffs == 0,
        f"tie tolerance x10 changes {diffs}/{len(baseline)} of the corpus results",
    )


# --- criterion 4: rays threaded through interior vertices and edges --------


def test_criterion_4_loop_robustness():
    rays = threaded_ray_corpus()
    assert len(rays) >= 10_000
    cfg = TraversalConfig()
    scratches = {}
    mismatches = 0
    verdicts = []
    for mesh, s, face, p in rays:
        scr = scratches.setdefault(id(mesh), TraversalScratch(cfg))
        res = is_valid_path(mesh, s, face, p, config=cfg, scratch=scr)
        ref = oracle_valid_path(mesh, s, face, p)
        verdicts.append(ref)
        if res.valid != ref:
            mismatches += 1

    # regression guard: with the tie tolerance forced to zero the same rays
    # must expose at least one wrong verdict
    zero_cfg = TraversalConfig(epsilon_i=0.0)
    zero_findings = 0
    for (mesh, s, face, p), ref in zip(rays, verdicts):
        scr = scratches[id(mesh)]
        res = is_valid_path(mesh, s, face, p, config=zero_cfg, scratch=scr)
        if res.valid != ref:
            zero_findings += 1
            break

    ok = mismatches == 0 and zero_findings >= 1
    record(
        4,
        ok,
        f"{len(rays)} threaded rays: {mismatches} wrong verdicts; "
        f"zero-tolerance rerun findings: {zero_findings} (need >= 1)",
    )


# --- criterion 5: inverted elements ----------------------------------------


def test_criterion_5_inverted_elements():
    mesh, s, start_face, p = shapes.inverted_path_strip()
    # the designed path runs backward through the inverted element, within
    # CUTOFF_FACTOR segment lengths; the early-out reach of one length,
    # which assumes no inversions, misses it
    backward = is_valid_path(mesh, s, start_face, p)
    forward_cfg = TraversalConfig(intersection_free_early_out=True)
    forward = is_valid_path(mesh, s, start_face, p, config=forward_cfg)
    designed_ok = backward.valid and not forward.valid

    # inverted elements owning boundary faces: their faces are never
    # candidates, so no query can return them and they never self-query
    grid = shapes.flipped_corner_grid()
    skipped = np.asarray(grid.boundary_face_skipped)
    bvh = build_boundary_bvh(grid)
    rng = np.random.default_rng(55)
    points, elems = shapes.random_interior_points(grid, rng, 50)
    returned_skipped = 0
    for q, e in zip(points, elems):
        res = shortest_path_to_boundary(grid, bvh, q, p_element=int(e))
        if res is not None and skipped[res.face]:
            returned_skipped += 1
    skip_ok = skipped.any() and returned_skipped == 0

    record(
        5,
        designed_ok and skip_ok,
        f"designed path: backward valid={backward.valid}, "
        f"forward-only valid={forward.valid} (want True/False); "
        f"{int(skipped.sum())} inverted boundary faces skipped, "
        f"{returned_skipped} ever returned",
    )


# --- criterion 6: boundary-vertex self-queries ------------------------------


def test_criterion_6_zero_length_rejection():
    meshes = [
        shapes.folded_bar(20, 3, 3),
        shapes.folded_strip(40, 3),
        shapes.folded_bar(12, 2, 2, total_angle=2.2 * np.pi),
        shapes.folded_strip(60, 2, total_angle=2.8 * np.pi),
    ]
    samples = 0
    failures = 0
    for mesh in meshes:
        bvh = build_boundary_bvh(mesh)
        scratch = TraversalScratch(TraversalConfig())
        for v in sorted(boundary_vertex_set(mesh)):
            samples += 1
            p = mesh.vertices[v]
            res = shortest_path_to_boundary(
                mesh, bvh, p, p_element=incident_element(mesh, v), scratch=scratch,
                exclude_vertex=v,
            )
            ref = oracle_closest_boundary(mesh, p, exclude_vertex=v)
            if res is None or ref is None:
                failures += 1
                continue
            if res.distance <= 1e-12 or np.linalg.norm(res.point - p) <= 1e-12:
                failures += 1  # the query returned the vertex itself
                continue
            if abs(res.distance - ref[2]) > DIST_TOL or res.face not in co_minimal_faces(
                mesh, p, ref[2], tol=DIST_TOL, exclude_vertex=v
            ):
                failures += 1
    ok = samples >= 500 and failures == 0
    record(
        6,
        ok,
        f"{samples - failures}/{samples} boundary-vertex self-queries match the "
        f"excluded-vertex reference and never return the vertex itself",
    )


# --- criterion 7: rest-shape comparison ------------------------------------


def test_criterion_7_rest_shape_comparison():
    # same topology: straight bar (rest) and its helically wrapped pose whose
    # turns interpenetrate. Radial pitch and axial drift per turn are chosen
    # incommensurate with the cell size so the two turns' grid planes do not
    # align and vertices end up strictly inside the other turn's elements.
    r0, ang, th, pitch, drift = 1.0, 2.5 * np.pi, 0.3, 0.13, 0.04
    length = r0 * ang
    rest = shapes.box_grid(29, 3, 3, size=(length, th, th))
    x, y, z = rest.vertices[:, 0], rest.vertices[:, 1], rest.vertices[:, 2]
    theta = -ang * x / length
    turns = -theta / (2.0 * np.pi)
    r = r0 + y + pitch * turns
    deformed = SimplicialMesh(
        np.column_stack([r * np.cos(theta), r * np.sin(theta), z + drift * turns]),
        rest.elements,
    )
    assert not any(deformed.element_skipped(e) for e in range(deformed.n_elements))
    state = make_state([deformed])
    hits = dcd_vertex_tet(state, SimRuntime(state, SimConfig()))
    assert hits, "the fold must produce penetrating vertices"

    bvh = build_boundary_bvh(deformed)
    bverts = boundary_vertex_set(deformed)
    scratch = TraversalScratch(TraversalConfig())
    checked = 0
    violations = 0
    strict = 0
    for _, ids, _, _, _, elem in hits:
        v = int(ids[0])
        p = deformed.vertices[v]
        bary = barycentric_coords(p, deformed.vertices[deformed.elements[elem]])
        if float(bary.min()) <= 1e-6:
            continue  # grazing contact, not a real penetration
        res = shortest_path_to_boundary(
            deformed, bvh, p, p_element=elem, scratch=scratch,
            exclude_vertex=v if v in bverts else None,
        )
        if res is None:
            violations += 1
            checked += 1
            continue
        # naive alternative: carry the penetrating copy into the rest pose of
        # its containing element, take the rest-shape nearest boundary point,
        # and map that point back through its face's barycentric coordinates
        p_rest = bary @ rest.vertices[rest.elements[elem]]
        points, dists = closest_boundary_candidates(rest, p_rest)
        f = int(np.argmin(dists))
        tri_rest = rest.vertices[rest.boundary_faces[f]]
        A = np.column_stack([tri_rest[1] - tri_rest[0], tri_rest[2] - tri_rest[0]])
        uv = np.linalg.solve(A.T @ A, A.T @ (points[f] - tri_rest[0]))
        tri_cur = deformed.vertices[deformed.boundary_faces[f]]
        s_cur = tri_cur[0] + uv[0] * (tri_cur[1] - tri_cur[0]) + uv[1] * (
            tri_cur[2] - tri_cur[0]
        )
        d_naive = float(np.linalg.norm(p - s_cur))
        checked += 1
        if res.distance > d_naive + DIST_TOL:
            violations += 1
        elif res.distance < d_naive - DIST_TOL:
            strict += 1
    ok = violations == 0 and strict >= 1
    record(
        7,
        ok,
        f"{checked} penetrating vertices: engine path length exceeds the "
        f"rest-shape distance {violations} times (want 0), is strictly shorter "
        f"{strict} times (want >= 1)",
    )


# --- criterion 8: simulation recovery --------------------------------------


def recovery_scene():
    m1 = shapes.box_grid(2, 2, 2)
    m2 = shapes.box_grid(2, 2, 2)
    m2.set_vertices(m2.vertices + np.array([0.8, 0.1, 0.05]))
    state = make_state([m1, m2])
    config = SimConfig(gravity=(0, 0, 0), damping=1.0)
    return state, config, SimRuntime(state, config)


RECOVER_BY = 50  # the last substep at which the recovered run may start
HOLD = 100  # substeps after the first that must also read 0


def test_criterion_8_simulation_recovery():
    state, config, rt = recovery_scene()
    total_tets = sum(m.n_elements for m in state.meshes)
    assert total_tets <= 1000
    assert count_penetrations(state, rt) > 0

    # the count is read after every substep; the scene recovers at the first
    # substep, by RECOVER_BY, from which it reads 0 through HOLD more
    counts = []
    for _ in range(RECOVER_BY + HOLD):
        state, _ = xpbd_substep(state, config, rt)
        counts.append(count_penetrations(state, rt))
    first_zero = next(
        (k for k in range(1, RECOVER_BY + 1) if not any(counts[k - 1 : k + HOLD])), None
    )

    # determinism: two fresh runs of the recovery phase agree bit for bit
    state_a, config_a, rt_a = recovery_scene()
    run_sim(state_a, config_a, 50, rt_a)
    state_b, config_b, rt_b = recovery_scene()
    run_sim(state_b, config_b, 50, rt_b)
    deterministic = np.array_equal(state_a.positions, state_b.positions)

    ok = first_zero is not None and deterministic
    record(
        8,
        ok,
        f"{total_tets}-tet scene reads zero penetrations after every substep "
        f"from substep {first_zero} (need <= {RECOVER_BY}) for {HOLD + 1} substeps, "
        f"deterministic replay: {deterministic}",
    )


# --- criterion 9: unit and property invariants ------------------------------


def test_criterion_9_core_invariants(rng):
    from boundarypath.mesh import BOUNDARY
    from boundarypath.sim import CollisionConstraint, _project_collisions

    checks = {}

    mesh = shapes.box_grid(3, 2, 2)
    checks["adjacency symmetry"] = all(
        mesh.adjacency[int(mesh.adjacency[e, k]), int(mesh.adj_local[e, k])] == e
        for e in range(mesh.n_elements)
        for k in range(4)
        if mesh.adjacency[e, k] != BOUNDARY
    )

    normals = [mesh.face_area_normals[f] for f in range(mesh.n_boundary_faces)]
    checks["boundary closure"] = np.linalg.norm(np.sum(normals, axis=0)) <= 1e-9 * sum(
        np.linalg.norm(n) for n in normals
    )

    frame = make_ray_frame(rng.normal(size=3), rng.normal(size=3))
    vecs = [frame.direction, *frame.uv]
    checks["frame orthonormality"] = all(
        abs(np.dot(a, b) - (1.0 if i == j else 0.0)) < 1e-12
        for i, a in enumerate(vecs)
        for j, b in enumerate(vecs)
    )

    s = mesh.vertices[mesh.elements[0]].mean(axis=0)
    t = s + rng.normal(size=3)
    f2 = make_ray_frame(s, t)
    mono = True
    for eps_lo, eps_hi in [(0.0, 1e-10), (1e-10, 1e-6), (1e-6, 1e-3)]:
        lo = set(exit_face_selection(mesh, 0, 1, f2, eps_lo))
        hi = set(exit_face_selection(mesh, 0, 1, f2, eps_hi))
        mono = mono and lo <= hi
    checks["exit-face tolerance monotonicity"] = mono

    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    st = make_state([shapes.box_grid(1, 1, 1)])
    con = CollisionConstraint(
        rows=(0,), weights=(1.0,), target_point=np.array([0.0, 0.0, 0.7]), normal=n
    )
    _project_collisions(st, [con], alpha=0.0, margin=0.0)
    checks["projection non-violation"] = con.value(st.positions[0]) >= -1e-9

    bad = [name for name, ok in checks.items() if not ok]
    record(9, not bad, "all core invariants hold" if not bad else f"failing: {bad}")
