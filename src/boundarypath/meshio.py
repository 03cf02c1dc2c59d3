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


def _tetgen_records(path, n_fields, noun):
    """The first n_fields numbers of a TetGen file's header, and the
    (line number, tokens) of the records that the first one counts, with
    comments and blank lines left out. Raises ParseError for a bad or
    negative header, and at the line past the file's last one for a file
    that ends before its last record."""
    path = Path(path)
    lines = path.read_text().splitlines()
    data = [(n, raw.split("#", 1)[0].split()) for n, raw in enumerate(lines, start=1)]
    data = [(n, tok) for n, tok in data if tok]
    lineno, header = data[0] if data else (len(lines) + 1, [])
    try:
        fields = [int(header[k]) for k in range(n_fields)]
    except (ValueError, IndexError) as exc:
        raise ParseError(path, lineno, f"bad {path.suffix} header") from exc
    if min(fields) < 0:
        raise ParseError(path, lineno, f"negative count in {path.suffix} header: {fields}")
    records = data[1 : 1 + fields[0]]
    if len(records) < fields[0]:
        raise ParseError(path, len(lines) + 1, f"expected {fields[0]} {noun}, found {len(records)}")
    return fields, records


def load_tetgen(node_path, ele_path):
    """TetGen `.node` + `.ele` pair. 1-based indices are converted."""
    (n_points, dim), nodes = _tetgen_records(node_path, 2, "nodes")
    coords = np.empty((n_points, dim))
    ids = []
    for i, (lineno, tok) in enumerate(nodes):
        try:
            ids.append(int(tok[0]))
            coords[i] = [float(x) for x in tok[1 : 1 + dim]]
        except (ValueError, IndexError) as exc:
            raise ParseError(node_path, lineno, "bad node line") from exc
    base = min(ids) if ids else 0
    if base not in (0, 1):
        raise ParseError(node_path, 1, f"unsupported index base {base}")

    (n_elem,), rows = _tetgen_records(ele_path, 1, "elements")
    elements = np.empty((n_elem, dim + 1), dtype=np.int64)
    for i, (lineno, tok) in enumerate(rows):
        try:
            elements[i] = [int(x) - base for x in tok[1 : 2 + dim]]
        except (ValueError, IndexError) as exc:
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
