import numpy as np
import pytest

from boundarypath import geometry, shapes

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def containing_elements(mesh, p, tol=1e-12):
    """Brute-force point location: every non-inverted, non-degenerate
    element whose barycentric coordinates of p are all >= -tol, from one
    batched solve over the whole mesh."""
    b = geometry.barycentric_coords(p, mesh.vertices[mesh.elements])
    inside = np.all(np.isfinite(b) & (b >= -tol), axis=1)
    return np.flatnonzero(inside & ~mesh.inverted_flags & ~mesh.degenerate_flags)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def cube():
    return shapes.cube_five_tets()


@pytest.fixture(scope="session")
def tet():
    return shapes.single_tet()


@pytest.fixture(scope="session")
def tri():
    return shapes.single_triangle()


@pytest.fixture(scope="session")
def grid2d():
    return shapes.rect_grid(4, 4)


@pytest.fixture(scope="session")
def grid3d():
    return shapes.box_grid(3, 3, 3)


@pytest.fixture(scope="session")
def folded2d():
    return shapes.folded_strip(40, 3)


@pytest.fixture(scope="session")
def folded3d():
    return shapes.folded_bar(30, 3, 3)
