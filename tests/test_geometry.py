import math

import numpy as np
import pytest

from boundarypath import geometry


def test_signed_volume_unit_tet():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    assert geometry.signed_volume_of(verts) == pytest.approx(1.0 / 6.0)


def test_signed_volume_swap_flips_sign():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    swapped = verts[[0, 2, 1, 3]]
    assert geometry.signed_volume_of(swapped) == pytest.approx(-1.0 / 6.0)


def test_signed_volume_coplanar_zero():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
    assert geometry.signed_volume_of(verts) == 0.0


def test_signed_area_2d():
    verts = np.array([[0, 0], [1, 0], [0, 1]], float)
    assert geometry.signed_volume_of(verts) == pytest.approx(0.5)


def test_barycentric_recovers_point(rng):
    verts = rng.normal(size=(4, 3))
    b = rng.dirichlet(np.ones(4))
    p = b @ verts
    got = geometry.barycentric_coords(p, verts)
    assert np.allclose(got, b, atol=1e-10)


def test_barycentric_degenerate_nonfinite_or_outside():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], float)
    b = geometry.barycentric_coords([0.5, 0.5, 0.5], verts)
    assert not (np.all(np.isfinite(b)) and np.all(b >= 0))


@pytest.mark.parametrize("dim", [2, 3])
def test_barycentric_batch_equals_single_calls(rng, dim):
    verts = rng.normal(size=(300, dim + 1, dim))
    verts[1::7] *= 1e-9  # tiny but regular
    points = rng.normal(size=(300, dim))
    batch = geometry.barycentric_coords(points, verts)
    single = np.array([geometry.barycentric_coords(p, v) for p, v in zip(points, verts)])
    assert batch.shape == (300, dim + 1)
    assert np.array_equal(batch, single)
    # broadcasting one point over many simplices, and over a (2, 150) stack
    one = geometry.barycentric_coords(points[0], verts)
    assert np.array_equal(one, [geometry.barycentric_coords(points[0], v) for v in verts])
    stacked = geometry.barycentric_coords(
        points.reshape(2, 150, dim), verts.reshape(2, 150, dim + 1, dim)
    )
    assert np.array_equal(stacked.reshape(300, dim + 1), single)


def test_barycentric_batch_singular_rows_are_inf(rng):
    verts = rng.normal(size=(50, 4, 3))
    verts[::5] = 0.0  # exactly singular: LinAlgError for the whole batch
    points = rng.normal(size=(50, 3))
    batch = geometry.barycentric_coords(points, verts)
    single = np.array([geometry.barycentric_coords(p, v) for p, v in zip(points, verts)])
    assert np.array_equal(batch, single)
    assert np.all(batch[::5] == np.inf)
    assert np.all(np.isfinite(np.delete(batch, np.s_[::5], axis=0)))


def test_closest_point_on_segment_clamps():
    a, b = np.zeros(3), np.array([1.0, 0, 0])
    q, t = geometry.closest_point_on_segment(np.array([2.0, 1, 0]), a, b)
    assert np.allclose(q, [1, 0, 0]) and t == 1.0
    q, t = geometry.closest_point_on_segment(np.array([0.25, 3, 0]), a, b)
    assert np.allclose(q, [0.25, 0, 0]) and t == pytest.approx(0.25)


def test_closest_point_on_triangle_regions():
    a = np.array([0.0, 0, 0])
    b = np.array([1.0, 0, 0])
    c = np.array([0.0, 1, 0])
    q, region = geometry.closest_point_on_triangle(np.array([0.2, 0.2, 1.0]), a, b, c)
    assert np.allclose(q, [0.2, 0.2, 0])
    q, _ = geometry.closest_point_on_triangle(np.array([2.0, 0, 1.0]), a, b, c)
    assert np.allclose(q, [1, 0, 0])
    q, _ = geometry.closest_point_on_triangle(np.array([0.6, 0.6, -1.0]), a, b, c)
    assert np.allclose(q, [0.5, 0.5, 0])


def test_closest_point_on_triangle_beats_vertices(rng):
    # minimality: never farther than any vertex of the face
    for _ in range(50):
        tri = rng.normal(size=(3, 3))
        p = rng.normal(size=3)
        q, _ = geometry.closest_point_on_triangle(p, *tri)
        dq = np.linalg.norm(p - q)
        assert all(dq <= np.linalg.norm(p - v) + 1e-12 for v in tri)


def test_triangle_area_normal():
    n = geometry.triangle_area_normal(
        np.zeros(3), np.array([1.0, 0, 0]), np.array([0.0, 1, 0])
    )
    assert np.allclose(n, [0, 0, 1.0])  # magnitude is twice the area


def test_edge_outward_normal_2d():
    # boundary edges wind counter-clockwise; outward normal is to their right
    n = geometry.edge_outward_normal_2d(np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(np.divide(n, np.linalg.norm(n)), [0, -1])


def test_normals_equal_numpy_bit_for_bit(rng):
    # coordinates over many binades, so products and differences round
    for _ in range(2000):
        a, b, c = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-8, 9, size=(3, 1))
        assert np.array_equal(geometry.triangle_area_normal(a, b, c), np.cross(b - a, c - a))
        d = b[:2] - a[:2]
        assert np.array_equal(geometry.edge_outward_normal_2d(a[:2], b[:2]), [d[1], -d[0]])
    # a zero difference keeps the sign numpy gives it
    n = geometry.edge_outward_normal_2d(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
    assert np.signbit(n[1])


def test_orthonormal_basis(rng):
    for _ in range(100):
        v = rng.normal(size=3)
        d = v / np.linalg.norm(v)
        u, v = geometry.orthonormal_basis(d)
        for pair in ((u, v), (u, d), (v, d)):
            assert abs(np.dot(*pair)) < 1e-12
        assert abs(np.linalg.norm(u) - 1) < 1e-12
        assert abs(np.linalg.norm(v) - 1) < 1e-12


def test_perpendicular_2d():
    d = np.array([0.6, 0.8])
    u = geometry.perpendicular_2d(d)
    assert abs(np.dot(u, d)) < 1e-15 and abs(np.linalg.norm(u) - 1) < 1e-15


def test_norm_is_sqrt_of_self_dot(rng):
    # the query and the spring projection take a 3-vector's length as
    # math.sqrt(d @ d); it must equal np.linalg.norm(d) bit for bit
    for dim in (2, 3):
        for _ in range(5000):
            d = rng.normal(size=dim) * 10.0 ** rng.integers(-150, 150, size=dim)
            assert math.sqrt(d @ d) == np.linalg.norm(d)
        d = np.zeros(dim)
        assert math.sqrt(d @ d) == np.linalg.norm(d) == 0.0
