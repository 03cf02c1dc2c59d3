"""The array-built generators against the per-cell and per-element loops
they replaced, kept here as references: every vertex and element array,
and the rng's state after a randomized generator or sampler, must be
bit-identical."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import FOLD_PARAMS

from boundarypath import cli, shapes
from boundarypath.mesh import SimplicialMesh

# -- references: the per-cell and per-element loops ------------------------


def ref_oriented(vertices, elements):
    vertices = np.asarray(vertices, dtype=float)
    elements = np.asarray(elements, dtype=np.int64).copy()
    for e in range(len(elements)):
        v = vertices[elements[e]]
        if v.shape[1] == 3:
            a, b, c = v[1] - v[0], v[2] - v[0], v[3] - v[0]
            vol = np.dot(a, np.cross(b, c))
        else:
            a, b = v[1] - v[0], v[2] - v[0]
            vol = a[0] * b[1] - a[1] * b[0]
        if vol < 0:
            elements[e, -2], elements[e, -1] = elements[e, -1], elements[e, -2]
    return vertices, elements


def ref_box_grid(nx, ny, nz, size=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    sx, sy, sz = size
    ox, oy, oz = origin
    xs = ox + sx * np.arange(nx + 1) / nx
    ys = oy + sy * np.arange(ny + 1) / ny
    zs = oz + sz * np.arange(nz + 1) / nz
    verts = np.array([[x, y, z] for x in xs for y in ys for z in zs])

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    elems = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                for perm in itertools.permutations((0, 1, 2)):
                    c = [np.array([i, j, k])]
                    for axis in perm:
                        nxt = c[-1].copy()
                        nxt[axis] += 1
                        c.append(nxt)
                    elems.append([vid(*corner) for corner in c])
    return ref_oriented(verts, np.array(elems, dtype=np.int64))


def ref_rect_grid(nx, ny, size=(1.0, 1.0), origin=(0.0, 0.0)):
    sx, sy = size
    ox, oy = origin
    xs = ox + sx * np.arange(nx + 1) / nx
    ys = oy + sy * np.arange(ny + 1) / ny
    verts = np.array([[x, y] for x in xs for y in ys])

    def vid(i, j):
        return i * (ny + 1) + j

    elems = []
    for i in range(nx):
        for j in range(ny):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            elems.append([a, b, c])
            elems.append([a, c, d])
    return ref_oriented(verts, np.array(elems, dtype=np.int64))


def ref_wrap_map_3d(verts, length, inner_radius, total_angle):
    x, y, z = verts[:, 0], verts[:, 1], verts[:, 2]
    theta = -total_angle * x / length
    r = inner_radius + y
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def ref_wrap_map_2d(verts, length, inner_radius, total_angle):
    x, y = verts[:, 0], verts[:, 1]
    theta = -total_angle * x / length
    r = inner_radius + y
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def ref_folded_bar(nx, ny, nz, thickness=0.3, inner_radius=1.0, total_angle=2.5 * np.pi):
    length = inner_radius * total_angle
    verts, elems = ref_box_grid(nx, ny, nz, size=(length, thickness, thickness))
    return ref_wrap_map_3d(verts, length, inner_radius, total_angle), elems


def ref_folded_strip(nx, ny, thickness=0.3, inner_radius=1.0, total_angle=2.5 * np.pi):
    length = inner_radius * total_angle
    verts, elems = ref_rect_grid(nx, ny, size=(length, thickness))
    return ref_wrap_map_2d(verts, length, inner_radius, total_angle), elems


def ref_spiral_bar(nx, ny, nz, thickness, inner_radius, total_angle, pitch):
    length = inner_radius * total_angle
    verts, elems = ref_box_grid(nx, ny, nz, size=(length, thickness, thickness))
    x, y, z = verts[:, 0], verts[:, 1], verts[:, 2]
    theta = -total_angle * x / length
    r = inner_radius + y + pitch * (-theta) / (2.0 * np.pi)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z]), elems


def ref_deformed(rng, base, amplitude=0.25, modes=3):
    verts, elems = base
    dim = verts.shape[1]
    disp = np.zeros_like(verts)
    for _ in range(modes):
        k = rng.uniform(1.0, 3.0, size=(dim, dim))
        phase = rng.uniform(0.0, 2 * np.pi, size=dim)
        amp = rng.normal(size=(dim,))
        arg = verts @ k.T * np.pi + phase
        disp += np.sin(arg) * amp
    disp *= amplitude / max(np.abs(disp).max(), 1e-12)
    while True:
        mesh = SimplicialMesh(verts + disp, elems)
        if not mesh.inverted_flags.any() and not mesh.degenerate_flags.any():
            return mesh.vertices, mesh.elements
        disp *= 0.5


def ref_random_interior_points(mesh, rng, n):
    weights = np.abs(mesh.signed_volumes).astype(float)
    for e in range(mesh.n_elements):
        if mesh.element_skipped(e):
            weights[e] = 0.0
    weights = weights / weights.sum()
    elems = rng.choice(mesh.n_elements, size=n, p=weights)
    points = np.empty((n, mesh.dim))
    for row, e in enumerate(elems):
        bary = rng.dirichlet(np.ones(mesh.dim + 1))
        points[row] = bary @ mesh.vertices[mesh.elements[e]]
    return points, elems.astype(np.int64)


def assert_same(mesh, ref):
    verts, elems = ref
    assert mesh.vertices.dtype == verts.dtype and mesh.elements.dtype == elems.dtype
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.elements, elems)


# -- generators --------------------------------------------------------------

GRIDS = {
    "box-2x2x2": (lambda: shapes.box_grid(2, 2, 2), lambda: ref_box_grid(2, 2, 2)),
    "box-sized-offset": (
        lambda: shapes.box_grid(3, 1, 4, size=(2.0, 0.5, 1.5), origin=(-1.0, 0.25, 3.0)),
        lambda: ref_box_grid(3, 1, 4, size=(2.0, 0.5, 1.5), origin=(-1.0, 0.25, 3.0)),
    ),
    "spiral-grid-90x6x6": (
        lambda: shapes.box_grid(90, 6, 6, size=(3.6 * np.pi, 0.25, 0.25)),
        lambda: ref_box_grid(90, 6, 6, size=(3.6 * np.pi, 0.25, 0.25)),
    ),
    "rect-4x4": (lambda: shapes.rect_grid(4, 4), lambda: ref_rect_grid(4, 4)),
    "rect-sized-offset": (
        lambda: shapes.rect_grid(5, 2, size=(3.0, 0.5), origin=(1.0, -2.0)),
        lambda: ref_rect_grid(5, 2, size=(3.0, 0.5), origin=(1.0, -2.0)),
    ),
    "benchmark-spiral": (
        lambda: shapes.spiral_bar(90, 6, 6, thickness=0.25, total_angle=3.6 * np.pi, pitch=0.15),
        lambda: ref_spiral_bar(90, 6, 6, 0.25, 1.0, 3.6 * np.pi, 0.15),
    ),
    "spiral-default-pitch": (
        lambda: shapes.spiral_bar(20, 3, 3),
        lambda: ref_spiral_bar(20, 3, 3, 0.3, 1.0, 2.5 * np.pi, 0.15),
    ),
    "folded-strip-30x3": (lambda: shapes.folded_strip(30, 3), lambda: ref_folded_strip(30, 3)),
}


@pytest.mark.parametrize("name", GRIDS)
def test_grid_generators_match_loops(name):
    make, ref = GRIDS[name]
    assert_same(make(), ref())


@pytest.mark.parametrize("params", FOLD_PARAMS)
def test_folded_bar_matches_loops(params):
    nx, ny, nz, th, r0, ang = params
    mesh = shapes.folded_bar(nx, ny, nz, thickness=th, inner_radius=r0, total_angle=ang)
    assert_same(mesh, ref_folded_bar(nx, ny, nz, thickness=th, inner_radius=r0, total_angle=ang))


def test_fixed_shapes_match_loops():
    verts, elems = ref_rect_grid(8, 6, size=(4.0, 3.0))
    y = verts[:, 1].copy()
    verts[:, 1] = np.where(
        y <= 1.0, y, np.where(y <= 2.0, 1.0 - 0.75 * (y - 1.0), 0.25 + 1.0 * (y - 2.0))
    )
    assert_same(shapes.pleated_strip(), (verts, elems))

    verts, elems = ref_rect_grid(4, 4)
    v0, a, b = verts[0].copy(), verts[5], verts[6]
    t = np.dot(v0 - a, b - a) / np.dot(b - a, b - a)
    verts[0] = 2 * (a + t * (b - a)) - v0
    assert_same(shapes.flipped_corner_grid(), (verts, elems))

    corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    five = [(0, 6, 5, 3), (0, 4, 6, 5), (0, 2, 3, 6), (0, 1, 5, 3), (7, 6, 3, 5)]
    assert_same(shapes.cube_five_tets(), ref_oriented(corners, np.array(five)))

    mesh, s, start_face, p = shapes.inverted_path_strip()
    # face 1, as the per-face loop found
    assert start_face == 1 and np.all(mesh.vertices[mesh.boundary_faces[start_face]][:, 1] == 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_deformed_shapes_match_loops(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same(shapes.deformed_blob(rng), ref_deformed(ref_rng, ref_box_grid(3, 3, 3)))
    assert_same(shapes.deformed_sheet(rng), ref_deformed(ref_rng, ref_rect_grid(4, 4)))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


REF_SHAPES = SimpleNamespace(
    folded_strip=lambda nx, ny, **kw: SimplicialMesh(*ref_folded_strip(nx, ny, **kw)),
    folded_bar=lambda nx, ny, nz, **kw: SimplicialMesh(*ref_folded_bar(nx, ny, nz, **kw)),
    deformed_sheet=lambda rng, nx, ny: SimplicialMesh(*ref_deformed(rng, ref_rect_grid(nx, ny))),
    deformed_blob=lambda rng, nx, ny, nz: SimplicialMesh(
        *ref_deformed(rng, ref_box_grid(nx, ny, nz))
    ),
)


def test_fuzz_meshes_match_loops(monkeypatch):
    meshes = [cli._fuzz_mesh(np.random.default_rng(seed)) for seed in range(20)]
    monkeypatch.setattr(cli, "shapes", REF_SHAPES)
    for seed, mesh in enumerate(meshes):
        ref = cli._fuzz_mesh(np.random.default_rng(seed))
        assert_same(mesh, (ref.vertices, ref.elements))


# -- sampling ----------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [lambda: shapes.folded_bar(12, 3, 3), shapes.deformed_sheet, shapes.pleated_strip],
    ids=["folded-bar", "sheet-2d", "inverted"],
)
def test_random_interior_points_matches_loop(make):
    mesh = make(np.random.default_rng(3)) if make is shapes.deformed_sheet else make()
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    points, elems = shapes.random_interior_points(mesh, rng, 200)
    ref_points, ref_elems = ref_random_interior_points(mesh, ref_rng, 200)
    assert points.dtype == ref_points.dtype and elems.dtype == ref_elems.dtype
    assert np.array_equal(points, ref_points) and np.array_equal(elems, ref_elems)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
