#!/usr/bin/env python3
"""Repeated sets of benchmark runs, to show the benchmark is steady and to
set its bounds.

    python3 perfbench/spread.py --sets 2 --seeds 10

Each set runs every workload once per seed (seeds 1 to --seeds), one run
of BENCHMARK.json's run_seconds at a time, workloads interleaved. For each end-to-end metric it prints, per set, the median and
the spread (distance between the first and third quartile, as a share of
the median), and the largest distance of a later set's median from the
first set's, in either direction, next to the metric's bound from
BENCHMARK.json. A metric whose spread or drift exceeds its bound is
marked OUT OF BOUND, `setup_s` included, and the exit code is then 1.
Raw results go to perfbench/out/spread-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload per set")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    seeds = range(1, args.seeds + 1)
    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                t = time.perf_counter()
                res = one_run(w, seed, spec["run_seconds"])
                runs[w][s].append(res)
                print(f"set {s} seed {seed} {w}: {time.perf_counter() - t:.1f} s, "
                      f"attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)

    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(runs))
    print(f"raw results: {out}")
    ok = True
    for w in workloads:
        shares = [r["failed"] / r["attempted"] for rs in runs[w] for r in rs]
        print(f"\n{w}: failed share per run {sorted(set(shares))}")
        print(f"  {'metric':18s} {'set medians':>28s} {'spreads':>20s} {'drift':>7s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            sets = [[r["metrics"][m["name"]]["value"] for r in rs] for rs in runs[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = max(abs(x - medians[0]) / medians[0] for x in medians)
            steady = drift <= m["bound"] and max(spreads) <= m["bound"]
            ok &= steady
            print(f"  {m['name']:18s} {' '.join(f'{x:9.4g}' for x in medians):>28s} "
                  f"{' '.join(f'{x:6.1%}' for x in spreads):>20s} {drift:7.1%} {m['bound']:6.0%}"
                  f"{'' if steady else '  OUT OF BOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
