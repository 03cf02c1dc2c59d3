import numpy as np
import pytest

from boundarypath import shapes
from boundarypath.errors import IndexOutOfRange, ParseError
from boundarypath.meshio import export_boundary_obj, load_mesh, load_tetgen, save_mesh


def test_roundtrip_cube(cube, tmp_path):
    path = tmp_path / "cube.json"
    save_mesh(cube, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, cube.vertices)
    assert np.array_equal(back.elements, cube.elements)


def test_roundtrip_2d(grid2d, tmp_path):
    path = tmp_path / "grid.json"
    save_mesh(grid2d, path)
    back = load_mesh(path)
    assert back.dim == 2
    assert np.array_equal(back.elements, grid2d.elements)


def test_index_out_of_range(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"dimension": 3, "vertices": [0,0,0, 1,0,0, 0,1,0, 0,0,1],'
        ' "elements": [0, 1, 2, 99]}'
    )
    with pytest.raises(IndexOutOfRange, match="bad.json: element index out of range"):
        load_mesh(path)
    (tmp_path / "t.node").write_text("4 3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n")
    (tmp_path / "t.ele").write_text("1 4\n1 1 2 3 9\n")
    with pytest.raises(IndexOutOfRange, match="t.ele: element index out of range"):
        load_mesh(tmp_path / "t.ele")


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 3,\n  "vertices": [}')
    with pytest.raises(ParseError) as err:
        load_mesh(path)
    assert "broken.json" in str(err.value)


def test_tetgen_pair(tmp_path):
    (tmp_path / "t.node").write_text(
        "4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n"
    )
    (tmp_path / "t.ele").write_text("1 4 0\n1 1 2 3 4\n")
    mesh = load_tetgen(tmp_path / "t.node", tmp_path / "t.ele")
    assert mesh.n_vertices == 4 and mesh.n_elements == 1
    assert np.array_equal(mesh.elements[0], [0, 1, 2, 3])


def test_load_dispatches_on_suffix(tmp_path):
    (tmp_path / "t.node").write_text(
        "4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n"
    )
    (tmp_path / "t.ele").write_text("1 4 0\n1 1 2 3 4\n")
    mesh = load_mesh(tmp_path / "t.ele")
    assert mesh.n_elements == 1


def test_export_obj_3d(cube, tmp_path):
    path = tmp_path / "cube.obj"
    export_boundary_obj(cube, path)
    text = path.read_text()
    assert text.count("\nf ") + text.startswith("f ") == cube.n_boundary_faces
    assert text.count("v ") >= 8


def test_export_obj_2d(grid2d, tmp_path):
    path = tmp_path / "grid.obj"
    export_boundary_obj(grid2d, path)
    assert "l " in path.read_text()


@pytest.mark.parametrize("text", ["[1, 2]", '"mesh"', "3", "null"])
def test_non_object_document_raises_parse_error(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="must be a JSON object"):
        load_mesh(path)


@pytest.mark.parametrize(
    "node, ele",
    [
        ("-3 3\n", "1 4\n1 1 2 3 4\n"),
        ("4 -3\n", "1 4\n1 1 2 3 4\n"),
        ("4 3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n", "-1 4\n"),
    ],
    ids=["nodes", "dimension", "elements"],
)
def test_tetgen_negative_count_raises_parse_error(tmp_path, node, ele):
    (tmp_path / "t.node").write_text(node)
    (tmp_path / "t.ele").write_text(ele)
    with pytest.raises(ParseError, match="negative"):
        load_tetgen(tmp_path / "t.node", tmp_path / "t.ele")
