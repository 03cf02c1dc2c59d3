"""Property-based checks over randomized geometry.

Hypothesis drives small random meshes, points, and directions; each
property is one of the package-wide invariants: topology symmetry,
boundary closure, frame orthonormality, tolerance monotonicity and
projection non-violation.
"""

import numpy as np
from conftest import signed_volume_of
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundarypath import geometry, shapes
from boundarypath.mesh import BOUNDARY
from boundarypath.sim import CollisionConstraint, _project_collisions
from boundarypath.traversal import exit_face_selection, make_ray_frame

finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def vectors(dim):
    return st.lists(finite, min_size=dim, max_size=dim).map(np.array)


@st.composite
def small_grid(draw):
    nx = draw(st.integers(1, 3))
    ny = draw(st.integers(1, 3))
    nz = draw(st.integers(1, 2))
    return shapes.box_grid(nx, ny, nz)


@given(small_grid())
@settings(max_examples=20, deadline=None)
def test_adjacency_symmetry(mesh):
    for e in range(mesh.n_elements):
        for k in range(mesh.dim + 1):
            nb = mesh.adjacency[e, k]
            if nb != BOUNDARY:
                assert mesh.adjacency[nb, mesh.adj_local[e, k]] == e


@given(small_grid())
@settings(max_examples=20, deadline=None)
def test_boundary_closure(mesh):
    total = np.zeros(mesh.dim)
    area = 0.0
    for f in range(mesh.n_boundary_faces):
        n = mesh.face_area_normals[f]
        total += n
        area += np.linalg.norm(n)
    assert np.linalg.norm(total) <= 1e-9 * area


@given(vectors(3), vectors(3))
@settings(max_examples=200, deadline=None)
def test_frame_orthonormality(origin, target):
    assume(np.linalg.norm(target - origin) > 1e-6)
    frame = make_ray_frame(origin, target)
    d, (u, v) = frame.direction, frame.uv
    for a, b in ((u, v), (u, d), (v, d)):
        assert abs(float(np.dot(a, b))) < 1e-12
    for a in (d, u, v):
        assert abs(float(np.linalg.norm(a)) - 1.0) < 1e-12


@given(
    st.integers(0, 10_000),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
    st.sampled_from([10.0, 1000.0]),
)
@settings(max_examples=100, deadline=None)
def test_exit_faces_monotone_in_epsilon(seed, eps_lo, factor):
    rng = np.random.default_rng(seed)
    mesh = shapes.box_grid(2, 2, 2)
    e = int(rng.integers(0, mesh.n_elements))
    in_local = int(rng.integers(0, 4))
    s = mesh.vertices[mesh.elements[e]].mean(axis=0) + rng.normal(scale=0.1, size=3)
    t = s + rng.normal(size=3)
    if np.linalg.norm(t - s) < 1e-9:
        return
    frame = make_ray_frame(s, t)
    lo = set(exit_face_selection(mesh, e, in_local, frame, eps_lo))
    hi = set(exit_face_selection(mesh, e, in_local, frame, eps_lo * factor))
    assert lo <= hi


@given(vectors(3), vectors(3), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_projection_non_violation(target, n_raw, seed):
    assume(np.linalg.norm(n_raw) > 1e-3)
    n = n_raw / np.linalg.norm(n_raw)
    rng = np.random.default_rng(seed)
    mesh = shapes.single_tet()
    from boundarypath.sim import make_state

    state = make_state([mesh])
    state.positions[:] = rng.normal(scale=5.0, size=state.positions.shape)
    state.springs = state.springs[:0]
    con = CollisionConstraint(rows=(0,), weights=(1.0,), target_point=target, normal=n)
    _project_collisions(state, [con], alpha=0.0, margin=0.0)
    assert con.value(state.positions[0]) >= -1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_barycentric_partition_of_unity(seed):
    rng = np.random.default_rng(seed)
    verts = rng.normal(size=(4, 3))
    if abs(signed_volume_of(verts)) < 1e-6:
        return
    p = rng.normal(size=3)
    b = geometry.barycentric_coords(p, verts)
    assert abs(b.sum() - 1.0) < 1e-8
    assert np.allclose(b @ verts, p, atol=1e-6)
