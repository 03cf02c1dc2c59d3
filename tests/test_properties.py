"""Property-based checks over randomized geometry.

Hypothesis drives small random meshes, points, and directions; each
property is one of the package-wide invariants: topology symmetry,
boundary closure, frame orthonormality, tolerance monotonicity,
projection non-violation and the query's lower distance bounds.
"""

import math

import numpy as np
import pytest
from conftest import signed_volume_of
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundarypath import geometry, shapes
from boundarypath.bvh import build_boundary_bvh
from boundarypath.mesh import BOUNDARY, SimplicialMesh
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


@st.composite
def plane_bound_cases(draw, dim):
    """A unit grid under a random shear, scaled by 2^-20 to 2^20 and
    possibly moved to about 1e6, and a point near one of its boundary
    faces: on or off the face's plane, near an edge or near a vertex."""
    grid = shapes.box_grid(1, 1, 1) if dim == 3 else shapes.rect_grid(2, 1)
    entries = draw(st.lists(st.floats(-0.4, 0.4), min_size=dim * dim, max_size=dim * dim))
    shear = np.eye(dim) + np.reshape(entries, (dim, dim))
    assume(np.linalg.det(shear) > 0.2)
    scale = 2.0 ** draw(st.integers(-20, 20))
    offsets = st.sampled_from([0.0, 1e6, -1e6, 0.7e6, 1.3e6])
    shift = np.array(draw(st.lists(offsets, min_size=dim, max_size=dim)))
    mesh = SimplicialMesh(grid.vertices @ shear.T * scale + shift, grid.elements)
    f = draw(st.integers(0, mesh.n_boundary_faces - 1))
    verts = mesh.vertices[mesh.boundary_faces[f]]
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)))
    where = draw(st.sampled_from(["plane", "edge", "vertex"]))
    if where == "vertex":
        w = np.eye(dim)[draw(st.integers(0, dim - 1))]
    elif where == "edge" and dim == 3:
        w[draw(st.integers(0, 2))] = 0.0
    assume(w.sum() > 0.0)
    diam = mesh.face_diameters[f]
    height = draw(st.sampled_from([0.0, 1.0, -1.0])) * diam * 10.0 ** draw(st.floats(-16.0, 0.5))
    jitter = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    jitter *= diam * 10.0 ** draw(st.floats(-17.0, -1.0))
    p = (w / w.sum()) @ verts + height * mesh.face_unit_normals[f] + jitter
    return mesh, p


@pytest.mark.parametrize("dim", [2, 3])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_pending_key_bounds_the_computed_distance(dim, data):
    """The key a face waits under in the query's pending heap is at most
    the distance the query computes for that face, for every face, unless
    the face's box bound alone exceeds it: the plane bound never does."""
    mesh, p = data.draw(plane_bound_cases(dim))
    key = mesh.distance_bounds(p)
    for face, box in build_boundary_bvh(mesh).nearest_faces(p):
        if mesh.face_degenerate[face]:
            continue
        s, _ = mesh.closest_point_on_face(p, face)
        d = s - p
        dist = math.sqrt(d @ d)
        assert key(face, box) <= max(dist, box), (face, key(face, box), box, dist)
        assert key(face, -math.inf) <= dist, (face, key(face, -math.inf), dist)


def slanted_simplex(dim):
    if dim == 3:
        base = shapes.single_tet()
        shear = np.array([[1.0, 0.2, 0.3], [0.1, 1.0, 0.4], [0.0, 0.3, 1.0]])
    else:
        base = shapes.single_triangle()
        shear = np.array([[1.0, 0.3], [0.2, 1.0]])
    return SimplicialMesh(base.vertices @ shear, base.elements)


@pytest.mark.parametrize("dim", [2, 3])
def test_plane_bound_is_the_height_above_the_face(dim):
    """Above a slanted face, inside its prism, the plane bound is the
    height less a slack of a few ulps; a larger box bound wins."""
    mesh = slanted_simplex(dim)
    for f in range(mesh.n_boundary_faces):
        center = mesh.face_vertices[f].mean(axis=0)
        for h in (1e-9, 1e-3, 0.5):
            p = center + h * mesh.face_unit_normals[f]
            assert h - 1e-12 <= mesh.distance_bounds(p)(f, 0.0) <= h
            assert mesh.distance_bounds(p)(f, 2.0) == 2.0
