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
        # the point projects onto the centre vertex of the x = 0 side
        res = query.shortest_path_to_boundary(mesh, tree, np.array([0.2, 0.5, 0.5]))
        tracer.active = False
    finally:
        tracer.restore()
    assert res is not None and res.distance > 0.0
    # the answer lies on a vertex, so culling read the vertex's boundary
    # neighbours (mesh.boundary_topology); an edge check reads the edge
    # twins instead
    assert res.feature.kind == "vertex"
    for layer in ("bvh.enumerate", "mesh.closest_point", "query.cull", "traversal", "mesh.boundary_topology"):
        assert tracer.calls[layer] > 0, layer
    assert tracer.counts["bvh.candidates"] > 0
    for owner, attr, orig in patches:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is orig, attr
