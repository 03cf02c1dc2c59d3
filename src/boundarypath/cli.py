"""Command-line front end.

Subcommands: convert, query, validate (engine vs brute-force reference),
fuzz (adversarial ray / folded-mesh search), bench (query statistics with
and without culling), simulate. Structured outputs are JSON or CSV; every
run with an output directory writes a replayable manifest.

`validate` and `fuzz` compare each engine answer with the oracle's, run
with the same backward mode and epsilon_i: both must find no path, or
their distances must agree within 1e-9 and the engine's face must be one
of the oracle's co-minimal faces. `bench` requires culling on and culling
off to give the same (face, distance) for every point.

Exit codes: 0 success, 1 validation/fuzz/bench findings, 2 usage or I/O
error.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, oracle, shapes
from .bvh import build_boundary_bvh
from .errors import MeshError, ParseError
from .meshio import export_boundary_obj, load_mesh, save_mesh
from .query import QueryConfig, shortest_path_to_boundary
from .sim import SimRuntime, count_penetrations, load_scene, xpbd_substep
from .traversal import TraversalConfig, TraversalScratch, format_trace, is_valid_path


@dataclass
class RunManifest:
    command: str
    inputs: list
    overrides: dict
    seed: int | None
    output_dir: str
    version: str = __version__
    argv: list = field(default_factory=list)

    def write(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").write_text(json.dumps(asdict(self), indent=2))


def _query_config(args):
    traversal = TraversalConfig(
        epsilon_i=args.eps_i,
        allow_backward=args.allow_backward,
        trace=getattr(args, "trace", False),
    )
    return QueryConfig(
        epsilon_r=args.eps_r,
        enable_culling=not args.no_culling,
        traversal=traversal,
    )


def _add_common(sub):
    sub.add_argument("--eps-i", type=_tolerance, default=1e-10)
    sub.add_argument("--eps-r", type=_tolerance, default=0.01)
    sub.add_argument("--no-culling", action="store_true")
    sub.add_argument("--allow-backward", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=str, default=None)


def _samples(text):
    """argparse type of --samples: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _tolerance(text):
    """argparse type of --eps-i and --eps-r: a finite number of at least 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(x) and x >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return x


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
        lines = Path(args.points_file).read_text().splitlines()
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
    config = _query_config(args)
    scratch = TraversalScratch(config.traversal)

    records = []
    for p in points:
        res = shortest_path_to_boundary(mesh, bvh, p, config=config, scratch=scratch)
        if res is None:
            rec = {"query_point": [float(x) for x in p], "result": None}
        else:
            rec = res.as_dict(query_point=p)
        if args.trace:
            # the query returns after the answer's traversal, so the
            # scratch holds its trace
            rec["trace"] = format_trace(scratch.trace).splitlines() if res is not None else []
        records.append(rec)
    payload = json.dumps({"mesh": args.mesh, "results": records}, indent=2)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.json").write_text(payload)
        _manifest(args, [args.mesh]).write(out)
    else:
        print(payload)
    if args.path_obj:
        _write_path_obj(args.path_obj, points, records)
    return 0


def _write_path_obj(path, points, records):
    lines = []
    nv = 0
    for p, rec in zip(points, records):
        res = rec if "result_point" in rec else None
        if res is None:
            continue
        q = rec["result_point"]
        for v in (p, q):
            coords = list(v) + [0.0] * (3 - len(v))
            lines.append("v " + " ".join(f"{float(c):.17g}" for c in coords))
        lines.append(f"l {nv + 1} {nv + 2}")
        nv += 2
    Path(path).write_text("\n".join(lines) + "\n")


def _manifest(args, inputs):
    """Replay manifest. The query flags and the seed are recorded for the
    subcommands that take them; `simulate` reads its query config from
    the scene file, so its manifest records no overrides."""
    overrides = {}
    if args.command != "simulate":
        overrides = {
            "eps_i": args.eps_i,
            "eps_r": args.eps_r,
            "no_culling": args.no_culling,
            "allow_backward": args.allow_backward,
        }
    return RunManifest(
        command=args.command,
        inputs=list(inputs),
        overrides=overrides,
        seed=getattr(args, "seed", None),
        output_dir=args.out or "",
        argv=sys.argv[1:],
    )


def _mesh_paths(target):
    target = Path(target)
    if target.is_dir():
        paths = sorted(str(p) for p in target.glob("*.json"))
        if not paths:
            raise SystemExit2(f"no .json meshes in {target}")
        return paths
    return [str(target)]


def _oracle_mismatch(mesh, bvh, p, e, config):
    """Replayable record of the engine's disagreement with the oracle on
    point p of element e, or None when they agree. The oracle runs with
    the same backward mode and epsilon_i as the engine."""
    res = shortest_path_to_boundary(mesh, bvh, p, p_element=int(e), config=config)
    ref = oracle.oracle_closest_boundary(
        mesh,
        p,
        allow_backward=True if config.traversal.allow_backward else None,
        epsilon=config.traversal.epsilon_i,
    )
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


def cmd_validate(args):
    rng = np.random.default_rng(args.seed)
    config = _query_config(args)
    mismatches = []
    total = 0
    for mpath in _mesh_paths(args.mesh):
        mesh = load_mesh(mpath)
        bvh = build_boundary_bvh(mesh)
        points, elems = shapes.random_interior_points(mesh, rng, args.samples)
        for p, e in zip(points, elems):
            total += 1
            bad = _oracle_mismatch(mesh, bvh, p, e, config)
            if bad is not None:
                mismatches.append({"mesh": mpath, **bad})
    report = {"queries": total, "mismatches": mismatches}
    print(f"{total} queries, {len(mismatches)} mismatches")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "validate_report.json").write_text(json.dumps(report, indent=2))
        for i, rec in enumerate(mismatches):
            (out / f"replay_{i:04d}.json").write_text(json.dumps(rec, indent=2))
        _manifest(args, _mesh_paths(args.mesh)).write(out)
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
    config = _query_config(args)
    findings = []
    t0 = time.monotonic()
    iteration = 0
    while iteration < args.iterations:
        if args.budget is not None and time.monotonic() - t0 >= args.budget:
            break
        iteration += 1
        mesh = _fuzz_mesh(rng)
        bvh = build_boundary_bvh(mesh)
        points, elems = shapes.random_interior_points(mesh, rng, args.samples)
        for p, e in zip(points, elems):
            bad = _oracle_mismatch(mesh, bvh, p, e, config)
            if bad is not None:
                findings.append({"kind": "mismatch", "iteration": iteration, **bad})
        # exact vertex/edge hits stress the tie branching
        scratch = TraversalScratch(config.traversal)
        for s, f, target in _fuzz_rays(mesh, rng, args.samples):
            if np.linalg.norm(target - s) <= 1e-12:
                continue
            result = is_valid_path(
                mesh, s, f, target, config=config.traversal, scratch=scratch
            )
            if result.budget_breached:
                findings.append(
                    {
                        "kind": "budget_breach",
                        "iteration": iteration,
                        "s": [float(x) for x in s],
                        "face": f,
                        "target": [float(x) for x in target],
                    }
                )
    print(f"{iteration} iterations, {len(findings)} findings")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "findings.json").write_text(json.dumps(findings, indent=2))
        _manifest(args, []).write(out)
    return 1 if findings else 0


def cmd_bench(args):
    rng = np.random.default_rng(args.seed)
    mesh = load_mesh(args.mesh)
    bvh = build_boundary_bvh(mesh)
    points, elems = shapes.random_interior_points(mesh, rng, args.samples)
    base = _query_config(args)
    rows = []
    answers = []
    for label, cfg in (
        ("culling_on", replace(base, enable_culling=True)),
        ("culling_off", replace(base, enable_culling=False)),
    ):
        results = [
            shortest_path_to_boundary(mesh, bvh, p, p_element=int(e), config=cfg)
            for p, e in zip(points, elems)
        ]
        answers.append([None if r is None else (r.face, r.distance) for r in results])
        answered = [r for r in results if r is not None]
        cands = [r.bvh_candidates_tested for r in answered]
        travs = [r.traversals_run for r in answered]
        visited = [r.elements_visited for r in answered]
        rows.append(
            (
                label,
                np.mean(cands),
                np.max(cands),
                np.mean(travs),
                np.max(travs),
                np.mean(visited),
                np.max(visited),
            )
        )
    header = (
        "mode,mean_candidates,max_candidates,mean_traversals,"
        "max_traversals,mean_elements_visited,max_elements_visited"
    )
    lines = [header] + [
        f"{r[0]},{r[1]:.3f},{int(r[2])},{r[3]:.3f},{int(r[4])},{r[5]:.3f},{int(r[6])}"
        for r in rows
    ]
    text = "\n".join(lines)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench.csv").write_text(text + "\n")
        _manifest(args, [args.mesh]).write(out)
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
    state, config = load_scene(args.scene)
    runtime = SimRuntime(state, config)
    log = []
    n = args.substeps if args.substeps is not None else config.substeps
    for _ in range(n):
        state, entry = xpbd_substep(state, config, runtime)
        log.append(entry.as_dict())
    pen = count_penetrations(state, runtime)
    print(f"{n} substeps, final penetration count {pen}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "contact_log.json").write_text(json.dumps(log, indent=2))
        for m, mesh in enumerate(state.meshes):
            save_mesh(mesh, out / f"mesh_{m:02d}_final.json")
        _manifest(args, [args.scene]).write(out)
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
    _add_common(q)
    q.set_defaults(fn=cmd_query)

    v = subs.add_parser("validate", help="differential check against the reference")
    v.add_argument("mesh", help="mesh file or directory of .json meshes")
    v.add_argument("--samples", type=_samples, default=50)
    _add_common(v)
    v.set_defaults(fn=cmd_validate)

    f = subs.add_parser("fuzz", help="randomized adversarial search")
    f.add_argument("--iterations", type=int, default=10)
    f.add_argument(
        "--budget", type=float, default=None, help="wall-clock seconds; 0 runs nothing"
    )
    f.add_argument("--samples", type=_samples, default=10)
    _add_common(f)
    f.set_defaults(fn=cmd_fuzz)

    b = subs.add_parser("bench", help="query statistics with and without culling")
    b.add_argument("mesh")
    b.add_argument("--samples", type=_samples, default=100)
    _add_common(b)
    b.set_defaults(fn=cmd_bench)

    s = subs.add_parser("simulate", help="run a scene")
    s.add_argument("scene")
    s.add_argument("--substeps", type=int, default=None)
    s.add_argument("--out", type=str, default=None)
    s.set_defaults(fn=cmd_simulate)

    c = subs.add_parser("convert", help="convert between mesh formats")
    c.add_argument("input")
    c.add_argument("output")
    c.set_defaults(fn=cmd_convert)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SystemExit2, FileNotFoundError, ParseError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
