"""The traced benchmark run wraps public names of the package from
outside (perfbench/layers.py). Installing and removing those wrappers here
makes a renamed or deleted name fail in the test suite rather than only in
`perfbench/run.py --trace 1`."""

from pathlib import Path

import numpy as np

from boundarypath import query, shapes
from boundarypath.bvh import build_boundary_bvh

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_hooks_install_run_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        patches = list(tracer._patches)
        mesh = shapes.box_grid(2, 2, 2)
        tree = build_boundary_bvh(mesh)
        tracer.active = True
        res = query.shortest_path_to_boundary(mesh, tree, np.array([0.3, 0.4, 0.5]))
        tracer.active = False
    finally:
        tracer.restore()
    assert res is not None and res.distance > 0.0
    assert tracer.calls["traversal"] > 0 and tracer.counts["bvh.candidates"] > 0
    for owner, attr, orig in patches:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is orig, attr
