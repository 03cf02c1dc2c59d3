#!/usr/bin/env python3
"""boundarypath benchmark: one workload per run.

    python3 perfbench/run.py --workload spiral_query --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. Prints every metric by name and unit, the operations
attempted and failed, and the checks' notes, then one JSON line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
traced run also writes its spans to perfbench/out/spans-<workload>.npz.
Exits 2 without a result when the program cannot be imported or a
workload's inputs cannot be made; otherwise 0, with `correct` false in
the JSON line when an operation failed a check.
"""

import os

# One thread: BLAS pools would only add scheduling noise to small solves.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import boundarypath
    except ImportError as exc:
        _fail(f"cannot import boundarypath from {ROOT / 'src'}: {exc}")
    if Path(boundarypath.__file__).resolve().parent.parent != ROOT / "src":
        _fail(f"boundarypath was imported from {boundarypath.__file__}, not from {ROOT / 'src'}")


def host_reference_ms(reps=5):
    """Median time of a fixed pure-Python loop that calls nothing in the
    program, to tell host drift from a change in the program."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def timed_rounds(workload, seconds, tracer):
    """Wall times of whole rounds, played while that brings the timed
    phase nearer to `seconds`."""
    walls = []
    while not walls or sum(walls) + walls[-1] / 2 < seconds:
        walls.append(workload.play_round(tracer))
    return walls


def traced_rounds(workload, seconds, tracer, install):
    """Pairs of rounds, one without wrappers and one traced, until they
    add up to `seconds`. Alternating the two keeps host drift out of the
    tracing overhead."""
    plain, traced = [], []
    while not plain or sum(plain) + sum(traced) < seconds:
        plain.append(workload.play_round(tracer))
        install(tracer)
        tracer.active = True
        traced.append(workload.play_round(tracer))
        tracer.active = False
        tracer.restore()
    return plain, traced


def percentile_ms(latencies, q):
    """q-th percentile of every timed operation of the run, in ms."""
    return float(np.percentile(np.concatenate(latencies), q)) * 1e3


def run(workload, seconds, trace):
    import layers
    from spans import Tracer

    tracer = Tracer()
    if trace:
        layers.install(tracer)
        tracer.active = True
    setup_s = []
    for _ in range(workload.setup_reps):
        t = time.perf_counter()
        ctx = workload.setup()
        setup_s.append(time.perf_counter() - t)
    setup_stats = tracer.snapshot()
    tracer.active = False
    tracer.restore()
    tracer.reset_stats()

    workload.use(ctx)
    reference = [host_reference_ms()]
    workload.warm_up()
    if not trace:
        walls = timed_rounds(workload, seconds, tracer)
        # throughput over the median round, so a burst of host slowness
        # that hits one or two rounds does not move it
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "throughput_per_s": (workload.ops_per_round / statistics.median(walls), "1/s"),
            "latency_p50_ms": (percentile_ms(workload.latencies, 50), "ms"),
            "latency_p99_ms": (percentile_ms(workload.latencies, 99), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        plain, traced = traced_rounds(workload, seconds, tracer, layers.install)
        metrics = layers.metrics(setup_stats, workload.setup_reps, tracer.snapshot(), len(traced))
        metrics["trace.overhead_pct"] = (100.0 * (sum(traced) / sum(plain) - 1.0), "%")
        tracer.write(HERE / "out" / f"spans-{workload.name}.npz")
        walls = plain + traced
    workload.notes.append("round wall times (s): " + " ".join(f"{w:.3f}" for w in walls))
    reference.append(host_reference_ms())
    workload.notes.append("host reference before/after (ms): " + " ".join(f"{r:.2f}" for r in reference))
    if trace:
        metrics["host.reference_ms"] = (statistics.median(reference), "ms")
    attempted, failed = workload.check()
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    (HERE / "out").mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, HERE / "out")
    except RuntimeError as exc:
        _fail(f"{args.workload}: {exc}")
    try:
        attempted, failed, metrics = run(workload, args.seconds, bool(args.trace))
    finally:
        workload.cleanup()

    for note in workload.notes:
        print(f"# {note}")
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted} failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
