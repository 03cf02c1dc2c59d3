#!/usr/bin/env python3
"""Penetration-recovery experiment.

Two elastic boxes of res^3 cells each start interpenetrating, and
quasi-static collision projection (damping 1) separates them. The script
counts the vertices inside foreign elements after every substep and
prints the count. Once the count reaches zero it runs --hold more
substeps and counts after each one. It exits 1 if the boxes are still
penetrating after --substeps, or at the first hold substep whose count
is not zero, naming that substep; otherwise it exits 0. --log writes each
substep's contact statistics and penetration count as JSON.
"""

import argparse
import json
import sys

import numpy as np

from boundarypath import shapes
from boundarypath.sim import (
    SimConfig,
    SimRuntime,
    count_penetrations,
    make_state,
    xpbd_substep,
)


def build_scene(offset, res):
    a = shapes.box_grid(res, res, res)
    b = shapes.box_grid(res, res, res)
    b.set_vertices(b.vertices + np.asarray(offset, dtype=float))
    return make_state([a, b])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--res", type=int, default=2, help="cells per box side")
    ap.add_argument(
        "--offset",
        type=float,
        nargs=3,
        default=(0.8, 0.1, 0.05),
        help="initial translation of the second box",
    )
    ap.add_argument("--substeps", type=int, default=50)
    ap.add_argument("--hold", type=int, default=100, help="extra substeps after recovery")
    ap.add_argument("--log", type=str, default=None, help="write per-substep JSON here")
    args = ap.parse_args(argv)

    state = build_scene(args.offset, args.res)
    config = SimConfig(gravity=(0.0, 0.0, 0.0), damping=1.0)
    runtime = SimRuntime(state, config)

    records = []

    def substep():
        nonlocal state
        state, entry = xpbd_substep(state, config, runtime)
        pen = count_penetrations(state, runtime)
        print(f"substep {state.substeps_done:3d}: {pen} penetrations")
        records.append({**entry.as_dict(), "penetrations": pen})
        return pen

    pen = count_penetrations(state, runtime)
    print(f"substep {0:3d}: {pen} penetrations")
    while pen and state.substeps_done < args.substeps:
        pen = substep()
    if pen:
        print(f"FAILED: still penetrating after {args.substeps} substeps")
        exit_code = 1
    else:
        print(f"recovered at substep {state.substeps_done}")
        exit_code = 0
        for _ in range(args.hold):
            if substep():
                print(f"FAILED: relapsed at substep {state.substeps_done}")
                exit_code = 1
                break
        else:
            print(f"held for {args.hold} more substeps")

    if args.log:
        with open(args.log, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {len(records)} records to {args.log}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
