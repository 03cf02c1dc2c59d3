"""Procedural test meshes.

Everything here is deterministic given its arguments (plus an explicit rng
for the randomized generators). These are the fixtures behind the unit,
differential, and stress suites: structured grids with exactly shared
vertices and edges for degenerate-ray stress, folded bars that
self-intersect without inverting, and strips with inverted interior bands.

Every grid-based generator, in 2D and 3D, builds its vertices and
elements as arrays with `_grid` and makes exactly one mesh.
"""

import itertools

import numpy as np

from .errors import MeshError
from .mesh import SimplicialMesh


def _oriented(vertices, elements):
    """elements with the last two vertices swapped in place wherever the
    signed volume is negative."""
    corners = vertices[elements]
    flip = np.linalg.det(corners[:, 1:] - corners[:, :1]) < 0
    elements[flip, -2:] = elements[flip, :-3:-1]
    return elements


def _grid(counts, size, origin):
    """(vertices, elements) of a structured simplex grid with counts[d]
    cells along axis d. Vertices run in row-major (i, j, k) order. Each
    cell is split into the path simplices of its main diagonal, one per
    axis permutation in itertools order, stepping one axis at a time from
    the cell's low corner to its high one; cell interfaces then share
    whole faces and grid lines thread exact vertex and edge chains."""
    axes = [o + s * np.arange(n + 1) / n for n, s, o in zip(counts, size, origin)]
    vertices = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    ids = np.arange(len(vertices)).reshape([n + 1 for n in counts])
    steps = np.array(ids.strides) // ids.itemsize  # vertex id step along each axis
    paths = np.cumsum(steps[list(itertools.permutations(range(len(counts))))], axis=1)
    paths = np.pad(paths, ((0, 0), (1, 0)))  # every path starts at the low corner
    low = ids[tuple(slice(n) for n in counts)].reshape(-1, 1, 1)
    elements = (low + paths).reshape(-1, len(counts) + 1).astype(np.int64)
    return vertices, _oriented(vertices, elements)


def single_tet():
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    return SimplicialMesh(verts, np.array([[0, 1, 2, 3]]))


def single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return SimplicialMesh(verts, np.array([[0, 1, 2]]))


def cube_five_tets():
    """Unit cube split into five tetrahedra."""
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    # corner index bit order from itertools.product: z is the fastest bit
    def cid(x, y, z):
        return 4 * x + 2 * y + z

    elems = [
        (cid(0, 0, 0), cid(1, 1, 0), cid(1, 0, 1), cid(0, 1, 1)),  # central
        (cid(0, 0, 0), cid(1, 0, 0), cid(1, 1, 0), cid(1, 0, 1)),
        (cid(0, 0, 0), cid(0, 1, 0), cid(0, 1, 1), cid(1, 1, 0)),
        (cid(0, 0, 0), cid(0, 0, 1), cid(1, 0, 1), cid(0, 1, 1)),
        (cid(1, 1, 1), cid(1, 1, 0), cid(0, 1, 1), cid(1, 0, 1)),
    ]
    return SimplicialMesh(corners, _oriented(corners, np.array(elems, dtype=np.int64)))


def box_grid(nx, ny, nz, size=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    """Structured tetrahedral box: each cell split into the six path
    tetrahedra of its main diagonal (see `_grid`)."""
    return SimplicialMesh(*_grid((nx, ny, nz), size, origin))


def rect_grid(nx, ny, size=(1.0, 1.0), origin=(0.0, 0.0)):
    """Structured 2D triangle grid, every cell split by the same diagonal."""
    return SimplicialMesh(*_grid((nx, ny), size, origin))


def _wound(counts, thickness, inner_radius, total_angle, pitch=0.0):
    """A straight bar (3D) or strip (2D) of the given thickness, wrapped
    around an annulus by total_angle, its radius growing by pitch per
    turn. Clockwise, so the map preserves orientation (det J = c (R0 + y)
    > 0 for pitch 0)."""
    length = inner_radius * total_angle  # roughly unit aspect cells
    size = (length,) + (thickness,) * (len(counts) - 1)
    verts, elems = _grid(counts, size, (0.0,) * len(counts))
    theta = -total_angle * verts[:, 0] / length
    r = inner_radius + verts[:, 1] + pitch * (-theta) / (2.0 * np.pi)
    verts = np.column_stack([r * np.cos(theta), r * np.sin(theta), verts[:, 2:]])
    return SimplicialMesh(verts, elems)


def folded_bar(nx, ny, nz, thickness=0.3, inner_radius=1.0, total_angle=2.5 * np.pi):
    """Self-intersecting, inversion-free 3D bar: a straight bar wrapped
    around an annulus by more than a full turn, so the two ends occupy the
    same region of space while every element keeps positive volume (for
    reasonable resolutions; asserted by the tests that use it)."""
    return _wound((nx, ny, nz), thickness, inner_radius, total_angle)


def spiral_bar(
    nx,
    ny,
    nz,
    thickness=0.3,
    inner_radius=1.0,
    total_angle=2.5 * np.pi,
    pitch=None,
):
    """3D bar wrapped along a spiral whose radial pitch per turn is smaller
    than its thickness, so consecutive turns interpenetrate at a radial
    offset. Unlike folded_bar, whose overlapping turns coincide exactly, a
    point inside one turn here sees the other turn's boundary strictly
    closer than its own, which makes the nearest boundary candidates
    invalid: the hard case for a nearest-valid-candidate query."""
    if pitch is None:
        pitch = 0.5 * thickness
    return _wound((nx, ny, nz), thickness, inner_radius, total_angle, pitch)


def folded_strip(nx, ny, thickness=0.3, inner_radius=1.0, total_angle=2.5 * np.pi):
    """2D analog of folded_bar."""
    return _wound((nx, ny), thickness, inner_radius, total_angle)


def pleated_strip(cols=8, rows_per_band=2, width=4.0, band_height=1.0):
    """2D strip with an inverted interior band.

    Three horizontal bands; the middle band's vertical map descends, so its
    elements are inverted and the bands overlap in space. Middle-band
    elements away from the left/right edges own no boundary faces, giving
    genuinely interior inversions. Queries from the top band must traverse
    the inverted band to reach the bottom boundary.
    """
    verts, elems = _grid((cols, 3 * rows_per_band), (width, 3.0 * band_height), (0.0, 0.0))
    y = verts[:, 1]
    h = band_height
    verts[:, 1] = np.where(
        y <= h,
        y,
        np.where(y <= 2 * h, h - 0.75 * (y - h), 0.25 * h + 1.0 * (y - 2 * h)),
    )
    return SimplicialMesh(verts, elems)


def inverted_path_strip():
    """Four-triangle 2D strip with exactly one inverted element, plus a
    designed (s, start_face, p) for which validity requires traversing the
    inverted element backward along the ray.

    T0, T1 tile the quad [0,3]x[0,0.2]. T2 folds down across the top edge
    (inverted) and T3 folds back up, so the region just above the quad is
    covered by T3 alone. p sits there; the straight segment from the
    bottom-boundary point s up to p is a valid path whose element chain
    runs s -> T0, T1 -> backward through inverted T2 (exiting behind s,
    farther from s than p is) -> T3. A traversal assuming forward-only
    progress prunes that exit and rejects the path; the excursion stays
    within the 2x distance cutoff, so backward mode accepts it.

    Returns (mesh, s, start_face, p).
    """
    verts = np.array(
        [
            [0.0, 0.0],
            [3.0, 0.0],
            [0.0, 0.2],
            [3.0, 0.2],
            [0.5, -0.5],
            [0.5, 2.0],
        ]
    )
    elems = np.array([[0, 1, 2], [2, 1, 3], [2, 3, 4], [4, 3, 5]])
    mesh = SimplicialMesh(verts, elems)
    s = np.array([0.7, 0.0])
    p = np.array([0.7, 0.35])
    # the first boundary face on the line y = 0
    on_bottom = np.all(verts[mesh.boundary_faces, 1] == 0.0, axis=1)
    return mesh, s, int(np.flatnonzero(on_bottom)[0]), p


def flipped_corner_grid(nx=4, ny=4):
    """2D grid with one inverted element that owns boundary faces: the
    corner vertex, used by exactly one triangle, is reflected across that
    triangle's opposite edge."""
    verts, elems = _grid((nx, ny), (1.0, 1.0), (0.0, 0.0))
    # vertex (0, 0) appears only in triangle (v00, v10, v11)
    v0 = verts[0].copy()
    a = verts[ny + 1]
    b = verts[ny + 2]
    ab = b - a
    t = np.dot(v0 - a, ab) / np.dot(ab, ab)
    verts[0] = 2 * (a + t * ab) - v0
    return SimplicialMesh(verts, elems)


def _deformed(rng, counts, amplitude, modes):
    """Unit grid under a smooth random displacement of `modes` sine
    modes, halved until no element is inverted or degenerate."""
    dim = len(counts)
    verts, elems = _grid(counts, (1.0,) * dim, (0.0,) * dim)
    disp = np.zeros_like(verts)
    for _ in range(modes):
        k = rng.uniform(1.0, 3.0, size=(dim, dim))
        phase = rng.uniform(0.0, 2 * np.pi, size=dim)
        amp = rng.normal(size=(dim,))
        disp += np.sin(verts @ k.T * np.pi + phase) * amp
    disp *= amplitude / max(np.abs(disp).max(), 1e-12)
    mesh = SimplicialMesh(verts + disp, elems)
    while mesh.skipped_flags.any():
        disp *= 0.5
        mesh.set_vertices(verts + disp)
    return mesh


def deformed_blob(rng, nx=3, ny=3, nz=3, amplitude=0.25, modes=3):
    """Smooth random deformation of a box grid, amplitude-halved until all
    elements stay positively oriented. Returns an intersection-free mesh."""
    return _deformed(rng, (nx, ny, nz), amplitude, modes)


def deformed_sheet(rng, nx=4, ny=4, amplitude=0.25, modes=3):
    """2D counterpart of deformed_blob."""
    return _deformed(rng, (nx, ny), amplitude, modes)


def random_interior_points(mesh, rng, n):
    """Sample n points uniformly-ish inside non-skipped elements, weighted
    by absolute volume. Returns (points (n, dim), element ids (n,)).
    Raises MeshError when every element is skipped."""
    weights = np.abs(mesh.signed_volumes)
    weights[mesh.skipped_flags] = 0.0
    total = weights.sum()
    if not total > 0.0:
        raise MeshError("no points to sample: every element is inverted or degenerate")
    weights = weights / total
    elems = rng.choice(mesh.n_elements, size=n, p=weights)
    bary = rng.dirichlet(np.ones(mesh.dim + 1), size=n)
    # a stack of (1, dim + 1) @ (dim + 1, dim) products rounds as the
    # per-point bary @ vertices did
    points = (bary[:, None] @ mesh.vertices[mesh.elements[elems]])[:, 0]
    return points, elems.astype(np.int64)
