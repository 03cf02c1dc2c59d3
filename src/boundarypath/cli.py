"""Command-line front end.

Subcommands: convert, query, validate (engine vs brute-force reference),
fuzz (adversarial ray / folded-mesh search), bench (query statistics with
and without culling), simulate. Structured outputs are JSON or CSV; a run
with an output directory writes its one output file there and then a
replayable manifest.

`validate` and `fuzz` compare each engine answer with the oracle's, whose
path search reaches as far along the ray as the engine's. Both must find
no path, or their distances must agree within 1e-9 and the engine's face
must be one of the oracle's co-minimal faces. `fuzz` also compares each
adversarial ray's engine verdict with the oracle's. `bench` requires
culling on and culling off to give the same (face, distance) for every
point.
Queries run with the default settings (`QueryConfig()`); no subcommand
takes a tolerance or culling flag.

Exit codes: 0 success, 1 validation/fuzz/bench findings, 2 usage or I/O
error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, oracle, shapes
from .bvh import build_boundary_bvh
from .errors import MeshError, NumericalBlowup, ParseError
from .meshio import export_boundary_obj, load_mesh, read_text, save_mesh, write_obj
from .query import QueryConfig, shortest_path_to_boundary
from .sim import SimRuntime, count_penetrations, load_scene, run_sim
from .traversal import TraversalScratch, format_trace, is_valid_path


def _add_common(sub, seed=True):
    """--out, and --seed for the subcommands that sample points."""
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=str, default=None)


def _count(text):
    """argparse type of --samples, --substeps and --iterations: an integer
    of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _parse_point(text, dim, where):
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise SystemExit2(f"{where}cannot parse point {text!r}") from None
    if len(vals) != dim:
        raise SystemExit2(f"{where}point {text!r} has {len(vals)} coords, mesh is {dim}D")
    if not all(math.isfinite(v) for v in vals):
        raise SystemExit2(f"{where}point {text!r} has a non-finite coordinate")
    return vals


def _parse_points(args, dim):
    points = [_parse_point(text, dim, "") for text in args.point]
    if args.points_file:
        lines = read_text(args.points_file).splitlines()
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                points.append(_parse_point(line, dim, f"{args.points_file}:{lineno}: "))
    return np.asarray(points, dtype=float)


class SystemExit2(Exception):
    """Usage / IO error -> exit code 2."""


def cmd_query(args):
    mesh = load_mesh(args.mesh)
    bvh = build_boundary_bvh(mesh)
    points = _parse_points(args, mesh.dim)
    if len(points) == 0:
        raise SystemExit2("no query points given")
    scratch = TraversalScratch(trace=[] if args.trace else None)

    records = []
    for p in points:
        res = shortest_path_to_boundary(mesh, bvh, p, scratch=scratch)
        if res is None:
            rec = {"query_point": [float(x) for x in p], "result": None}
        else:
            rec = res.as_dict(query_point=p)
        if args.trace:
            # the query returns after the answer's traversal, so the
            # scratch holds its trace
            rec["trace"] = format_trace(scratch.trace) if res is not None else []
        records.append(rec)
    payload = json.dumps({"mesh": args.mesh, "results": records}, indent=2)
    if _save_run(args, [args.mesh], payload) is None:
        print(payload)
    if args.path_obj:
        # a segment from each answered query point to its answer
        ends = [
            v for p, rec in zip(points, records) if "result_point" in rec
            for v in (p, rec["result_point"])
        ]
        write_obj(args.path_obj, ends, "l", [(i, i + 1) for i in range(0, len(ends), 2)])
    return 0


# the file each subcommand writes under --out, before manifest.json
OUTPUT_FILES = {
    "query": "results.json",
    "validate": "validate_report.json",
    "fuzz": "findings.json",
    "bench": "bench.csv",
    "simulate": "contact_log.json",
}


def _save_run(args, inputs, text):
    """Write a run under --out and return the directory, or None without
    --out. Writes `text` as the subcommand's output file, then the replay
    manifest: the command, the inputs it read, the seed of the subcommands
    that sample points, and the argv that main parsed."""
    if not args.out:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / OUTPUT_FILES[args.command]).write_text(text)
    manifest = {
        "command": args.command,
        "inputs": list(inputs),
        "seed": getattr(args, "seed", None),
        "output_dir": args.out,
        "version": __version__,
        "argv": args.argv,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return out


def _mesh_paths(target):
    """The mesh file, or every .json of the directory except the files a
    run writes, so a run can write into the directory it reads."""
    target = Path(target)
    if target.is_dir():
        skip = {"manifest.json", *OUTPUT_FILES.values()}
        paths = sorted(str(p) for p in target.glob("*.json") if p.name not in skip)
        if not paths:
            raise SystemExit2(f"no .json meshes in {target}")
        return paths
    return [str(target)]


def _oracle_mismatch(mesh, bvh, p, e):
    """Replayable record of the engine's disagreement with the oracle on
    point p of element e, or None when they agree."""
    res = shortest_path_to_boundary(mesh, bvh, p, p_element=int(e))
    ref = oracle.oracle_closest_boundary(mesh, p)
    if res is None and ref is None:
        return None
    if (
        res is not None
        and ref is not None
        and abs(res.distance - ref[2]) <= 1e-9
        and res.face in oracle.co_minimal_faces(mesh, p, ref[2])
    ):
        return None
    return {
        "point": [float(x) for x in p],
        "element": int(e),
        "engine": None if res is None else res.distance,
        "engine_face": None if res is None else res.face,
        "reference": None if ref is None else ref[2],
        "reference_face": None if ref is None else ref[1],
    }


def _differential(mesh, rng, samples):
    """The `_oracle_mismatch` records of `samples` interior points of mesh,
    drawn from rng, that the engine and the oracle disagree on."""
    bvh = build_boundary_bvh(mesh)
    points, elems = shapes.random_interior_points(mesh, rng, samples)
    records = (_oracle_mismatch(mesh, bvh, p, e) for p, e in zip(points, elems))
    return [bad for bad in records if bad is not None]


def cmd_validate(args):
    rng = np.random.default_rng(args.seed)
    mismatches = []
    paths = _mesh_paths(args.mesh)
    for mpath in paths:
        bad = _differential(load_mesh(mpath), rng, args.samples)
        mismatches += [{"mesh": mpath, **rec} for rec in bad]
    total = len(paths) * args.samples
    report = {"queries": total, "mismatches": mismatches}
    print(f"{total} queries, {len(mismatches)} mismatches")
    _save_run(args, paths, json.dumps(report, indent=2))
    return 1 if mismatches else 0


def _fold(rng):
    """Thickness, inner radius and a fold angle past a full turn, so that
    the two ends of a folded strip or bar overlap."""
    return dict(
        thickness=float(rng.uniform(0.2, 0.4)),
        inner_radius=float(rng.uniform(0.7, 1.3)),
        total_angle=float(rng.uniform(2.1, 2.9) * np.pi),
    )


def _fuzz_mesh(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        nx, ny = int(rng.integers(20, 70)), int(rng.integers(2, 5))
        return shapes.folded_strip(nx, ny, **_fold(rng))
    if kind == 1:
        nx, ny, nz = int(rng.integers(8, 30)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
        return shapes.folded_bar(nx, ny, nz, **_fold(rng))
    if kind == 2:
        return shapes.deformed_sheet(rng, 4, 4)
    return shapes.deformed_blob(rng, 2, 2, 2)


def _fuzz_rays(mesh, rng, n):
    """Adversarial segments: boundary start points aimed exactly at mesh
    vertices and edge midpoints, so traversal sign tests hit ties."""
    out = []
    faces = rng.integers(0, mesh.n_boundary_faces, size=n)
    for f in faces:
        verts = mesh.vertices[mesh.boundary_faces[int(f)]]
        w = rng.dirichlet(np.ones(mesh.dim))
        s = w @ verts
        v = int(rng.integers(0, mesh.n_vertices))
        target = mesh.vertices[v]
        if rng.random() < 0.5:
            v2 = int(rng.integers(0, mesh.n_vertices))
            target = 0.5 * (target + mesh.vertices[v2])
        out.append((s, int(f), target))
    return out


def cmd_fuzz(args):
    rng = np.random.default_rng(args.seed)
    findings = []
    for iteration in range(1, args.iterations + 1):
        mesh = _fuzz_mesh(rng)
        bad = _differential(mesh, rng, args.samples)
        findings += [{"kind": "mismatch", "iteration": iteration, **rec} for rec in bad]
        # exact vertex/edge hits stress the tie branching
        for s, f, target in _fuzz_rays(mesh, rng, args.samples):
            if np.linalg.norm(target - s) <= 1e-12:
                continue
            valid = is_valid_path(mesh, s, f, target).valid
            ref = oracle.oracle_valid_path(mesh, s, f, target)
            if valid != ref:
                findings.append(
                    {
                        "kind": "ray_mismatch",
                        "iteration": iteration,
                        "s": [float(x) for x in s],
                        "face": f,
                        "target": [float(x) for x in target],
                        "engine": valid,
                        "reference": ref,
                    }
                )
    print(f"{args.iterations} iterations, {len(findings)} findings")
    _save_run(args, [], json.dumps(findings, indent=2))
    return 1 if findings else 0


def cmd_bench(args):
    rng = np.random.default_rng(args.seed)
    mesh = load_mesh(args.mesh)
    bvh = build_boundary_bvh(mesh)
    points, elems = shapes.random_interior_points(mesh, rng, args.samples)
    # per column name, the result counter it reads
    columns = (
        ("candidates", "bvh_candidates_tested"),
        ("traversals", "traversals_run"),
        ("elements_visited", "elements_visited"),
    )
    lines = ["mode," + ",".join(f"mean_{name},max_{name}" for name, _ in columns)]
    answers = []
    for label, cfg in (
        ("culling_on", QueryConfig(enable_culling=True)),
        ("culling_off", QueryConfig(enable_culling=False)),
    ):
        results = [
            shortest_path_to_boundary(mesh, bvh, p, p_element=int(e), config=cfg)
            for p, e in zip(points, elems)
        ]
        answers.append([None if r is None else (r.face, r.distance) for r in results])
        answered = [r for r in results if r is not None]
        cells = [label]
        for _, attr in columns:
            values = [getattr(r, attr) for r in answered]
            # a mode with no answered point leaves its cells empty
            cells += [f"{np.mean(values):.3f}", str(int(np.max(values)))] if values else ["", ""]
        lines.append(",".join(cells))
    text = "\n".join(lines)
    print(text)
    _save_run(args, [args.mesh], text + "\n")
    # culling may only skip work: any changed answer is a finding
    differ = sum(a != b for a, b in zip(*answers))
    if differ:
        print(
            f"culling on and off give a different (face, distance) for "
            f"{differ} of {len(points)} points",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_simulate(args):
    try:
        state, config = load_scene(args.scene)
    except UnicodeDecodeError as exc:
        # load_mesh reports its own files, so the scene is the one left
        raise ParseError(args.scene, 0, f"not a text file: {exc}") from exc
    runtime = SimRuntime(state, config)
    log = []
    run_sim(state, config, args.substeps, runtime, log)
    pen = count_penetrations(state, runtime)
    print(f"{args.substeps} substeps, final penetration count {pen}")
    contact_log = json.dumps([entry.as_dict() for entry in log], indent=2)
    out = _save_run(args, [args.scene], contact_log)
    if out is not None:
        for m, mesh in enumerate(state.meshes):
            save_mesh(mesh, out / f"mesh_{m:02d}_final.json")
    return 0


def cmd_convert(args):
    mesh = load_mesh(args.input)
    if args.output.endswith(".obj"):
        export_boundary_obj(mesh, args.output)
    else:
        save_mesh(mesh, args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="boundarypath",
        description="Shortest internal path to boundary: queries, validation, fuzzing, simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    q = subs.add_parser("query", help="closest boundary point with a valid path")
    q.add_argument("mesh")
    q.add_argument("point", nargs="*", help='query point, e.g. "0.5 0.5 0.5"')
    q.add_argument("--points-file", default=None)
    q.add_argument("--path-obj", default=None)
    q.add_argument(
        "--trace", action="store_true", help="add the trace of each answer's traversal"
    )
    _add_common(q, seed=False)
    q.set_defaults(fn=cmd_query)

    v = subs.add_parser("validate", help="differential check against the reference")
    v.add_argument("mesh", help="mesh file or directory of .json meshes")
    v.add_argument("--samples", type=_count, default=50)
    _add_common(v)
    v.set_defaults(fn=cmd_validate)

    f = subs.add_parser("fuzz", help="randomized adversarial search")
    f.add_argument("--iterations", type=_count, default=10)
    f.add_argument("--samples", type=_count, default=10)
    _add_common(f)
    f.set_defaults(fn=cmd_fuzz)

    b = subs.add_parser("bench", help="query statistics with and without culling")
    b.add_argument("mesh")
    b.add_argument("--samples", type=_count, default=100)
    _add_common(b)
    b.set_defaults(fn=cmd_bench)

    s = subs.add_parser("simulate", help="run a scene")
    s.add_argument("scene")
    s.add_argument("--substeps", type=_count, default=10)
    _add_common(s, seed=False)
    s.set_defaults(fn=cmd_simulate)

    c = subs.add_parser("convert", help="convert between mesh formats")
    c.add_argument("input")
    c.add_argument("output")
    c.set_defaults(fn=cmd_convert)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the manifest's record of the run
    try:
        return args.fn(args)
    except (SystemExit2, OSError, MeshError, NumericalBlowup) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
