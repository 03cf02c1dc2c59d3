"""Mesh file formats.

Native format: a JSON document with `dimension`, flat `vertices` and flat
`elements`; other keys are ignored. Indices are 0-based. TetGen-style
`.node`/`.ele` ASCII pairs can be imported (1-based indices accepted).
Wavefront OBJ is written by `write_obj` alone: the boundary (triangles in
3D, polylines in 2D) and the CLI's query paths.
"""

import json
from pathlib import Path

import numpy as np

from .errors import IndexOutOfRange, ParseError
from .mesh import SimplicialMesh


def save_mesh(mesh, path):
    doc = {
        "dimension": mesh.dim,
        "vertices": [float(x) for x in mesh.vertices.ravel()],
        "elements": [int(i) for i in mesh.elements.ravel()],
    }
    Path(path).write_text(json.dumps(doc))


def load_mesh(path):
    path = Path(path)
    if path.suffix == ".node" or path.suffix == ".ele":
        return load_tetgen(path.with_suffix(".node"), path.with_suffix(".ele"))
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from exc
    if not isinstance(doc, dict):
        raise ParseError(path, 1, f"mesh document must be a JSON object, not {type(doc).__name__}")
    try:
        dim = int(doc["dimension"])
        vertices = np.asarray(doc["vertices"], dtype=float).reshape(-1, dim)
        elements = np.asarray(doc["elements"], dtype=np.int64).reshape(-1, dim + 1)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(path, 0, f"bad mesh document: {exc}") from exc
    return _parsed_mesh(path, vertices, elements)


def _parsed_mesh(path, vertices, elements, elements_path=None):
    """The mesh of the arrays, with their shape or value errors raised
    as the ParseError of the file they were read from, and an element
    index out of range as the IndexOutOfRange of the file that holds the
    elements (`elements_path`, by default `path`)."""
    try:
        return SimplicialMesh(vertices, elements)
    except IndexOutOfRange as exc:
        raise IndexOutOfRange(f"{elements_path or path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc


def _data_lines(path):
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def load_tetgen(node_path, ele_path):
    """TetGen `.node` + `.ele` pair. 1-based indices are converted."""
    lines = _data_lines(node_path)
    try:
        lineno, header = next(lines)
        n_points, dim = int(header[0]), int(header[1])
    except (StopIteration, ValueError, IndexError) as exc:
        raise ParseError(node_path, 1, "bad .node header") from exc
    if n_points < 0 or dim < 0:
        raise ParseError(node_path, lineno, f"negative count in .node header: {n_points} {dim}")
    coords = np.empty((n_points, dim))
    ids = []
    for i in range(n_points):
        try:
            lineno, tok = next(lines)
            ids.append(int(tok[0]))
            coords[i] = [float(x) for x in tok[1 : 1 + dim]]
        except (StopIteration, ValueError, IndexError) as exc:
            raise ParseError(node_path, lineno, "bad node line") from exc
    base = min(ids) if ids else 0
    if base not in (0, 1):
        raise ParseError(node_path, 1, f"unsupported index base {base}")

    lines = _data_lines(ele_path)
    try:
        lineno, header = next(lines)
        n_elem = int(header[0])
    except (StopIteration, ValueError, IndexError) as exc:
        raise ParseError(ele_path, 1, "bad .ele header") from exc
    if n_elem < 0:
        raise ParseError(ele_path, lineno, f"negative element count in .ele header: {n_elem}")
    elements = np.empty((n_elem, dim + 1), dtype=np.int64)
    for i in range(n_elem):
        try:
            lineno, tok = next(lines)
            elements[i] = [int(x) - base for x in tok[1 : 2 + dim]]
        except (StopIteration, ValueError, IndexError) as exc:
            raise ParseError(ele_path, lineno, "bad element line") from exc
    return _parsed_mesh(node_path, coords, elements, ele_path)


def write_obj(path, vertices, kw, cells):
    """Wavefront OBJ: a `v` line per vertex, padded to 3D with zeros, then
    a `kw` line (`f` or `l`) per cell of 0-based vertex indices."""
    out = ["v " + " ".join(f"{float(x):.17g}" for x in [*v, 0.0, 0.0][:3]) for v in vertices]
    out += [kw + " " + " ".join(str(int(g) + 1) for g in cell) for cell in cells]
    Path(path).write_text("\n".join(out) + "\n")


def export_boundary_obj(mesh, path):
    """Boundary as OBJ: `f` triangles in 3D, `l` segments in 2D."""
    write_obj(path, mesh.vertices, "f" if mesh.dim == 3 else "l", mesh.boundary_faces)
