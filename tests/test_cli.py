import json
from dataclasses import replace

import numpy as np
import pytest

from boundarypath import cli, oracle, query, shapes
from boundarypath.cli import build_parser, main
from boundarypath.mesh import SimplicialMesh
from boundarypath.meshio import save_mesh


@pytest.fixture
def cube_path(tmp_path):
    path = tmp_path / "cube.json"
    save_mesh(shapes.box_grid(2, 2, 2), path)
    return str(path)


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["query", "--help"], ["simulate", "--help"]):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 0


def test_query_cube_center(cube_path, tmp_path, capsys):
    # a mesh document's keys other than dimension, vertices and elements
    # are ignored
    named = tmp_path / "named.json"
    named.write_text(json.dumps({**json.loads((tmp_path / "cube.json").read_text()), "names": 5}))
    for path in (cube_path, str(named)):
        rc = main(["query", path, "0.5 0.5 0.5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["distance"] == pytest.approx(0.5, abs=1e-9)


def test_query_trace_runs_from_face_owner_to_point(tmp_path, capsys):
    mesh = shapes.folded_bar(8, 2, 2)
    path = tmp_path / "bar.json"
    save_mesh(mesh, path)
    points, _ = shapes.random_interior_points(mesh, np.random.default_rng(3), 5)
    argv = ["query", str(path), *(" ".join(repr(float(x)) for x in p) for p in points)]
    assert main([*argv, "--trace"]) == 0
    records = json.loads(capsys.readouterr().out)["results"]
    assert len(records) == len(points)
    for p, rec in zip(points, records):
        elements = [int(line.split()[0].removeprefix("element=")) for line in rec["trace"]]
        assert elements[0] == mesh.boundary_owner[rec["face"]]
        assert mesh.element_contains(elements[-1], p, 1e-10)
    assert any(len(rec["trace"]) > 1 for rec in records)
    assert main(argv) == 0
    assert "trace" not in json.loads(capsys.readouterr().out)["results"][0]


def test_query_writes_manifest_and_obj(cube_path, tmp_path):
    out = tmp_path / "run"
    obj = tmp_path / "paths.obj"
    rc = main(
        [
            "query",
            cube_path,
            "0.5 0.5 0.5",
            "0.2 0.3 0.4",
            "--out",
            str(out),
            "--path-obj",
            str(obj),
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "query"
    text = obj.read_text()
    assert text.count("l ") == 2 and text.count("v ") == 4


def test_query_bad_point_exit_2(cube_path):
    assert main(["query", cube_path, "not-a-point"]) == 2


@pytest.mark.parametrize("point", ["nan nan nan", "0.5 -inf 0.5", "1e400 0 0"])
def test_query_non_finite_point_exit_2(cube_path, capsys, point):
    assert main(["query", cube_path, point]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_query_missing_mesh_exit_2():
    assert main(["query", "/nonexistent/mesh.json", "0 0 0"]) == 2


@pytest.mark.parametrize(
    "line",
    ["0.5 0.5", "0.5 x 0.5", "nan nan nan", "0.5 inf 0.5", "1e400,0,0"],
    ids=["two-coords", "not-a-number", "nan", "inf", "overflow"],
)
def test_query_bad_points_file_line_exit_2(cube_path, tmp_path, capsys, line):
    points = tmp_path / "points.txt"
    points.write_text(f"0.5 0.5 0.5\n{line}\n")
    assert main(["query", cube_path, "--points-file", str(points)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {points}:2: ")


BAD_MESHES = {
    "json-nan": {"mesh.json": '{"dimension": 2, "vertices": [0, 0, 1, 0, 0, NaN], '
                 '"elements": [0, 1, 2]}'},
    "json-dim4": {"mesh.json": '{"dimension": 4, "vertices": [0, 0, 0, 0, 1, 0, 0, 0, '
                  '0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1], "elements": [0, 1, 2, 3, 4]}'},
    "json-list": {"mesh.json": "[1, 2]"},
    "json-dim-list": {"mesh.json": '{"dimension": [3], "vertices": [], "elements": []}'},
    "tetgen-nan": {"mesh.node": "3 2\n1 0 0\n2 1 0\n3 nan 1\n", "mesh.ele": "1 3\n1 1 2 3\n"},
    "tetgen-negative-nodes": {"mesh.node": "-3 3\n", "mesh.ele": "1 4\n1 1 2 3 4\n"},
    "tetgen-negative-elements": {
        "mesh.node": "4 3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n",
        "mesh.ele": "-1 4\n",
    },
    "tetgen-dim4": {
        "mesh.node": "5 4\n1 0 0 0 0\n2 1 0 0 0\n3 0 1 0 0\n4 0 0 1 0\n5 0 0 0 1\n",
        "mesh.ele": "1 5\n1 1 2 3 4 5\n",
    },
}


@pytest.mark.parametrize("files", BAD_MESHES.values(), ids=BAD_MESHES.keys())
def test_bad_mesh_values_exit_2(tmp_path, capsys, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    mesh = str(tmp_path / sorted(files)[0])
    for argv in (["convert", mesh, str(tmp_path / "out.json")], ["query", mesh, "0 0 0"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["validate", "fuzz", "bench"])
def test_samples_below_one_exit_2(cube_path, command):
    mesh = [] if command == "fuzz" else [cube_path]
    with pytest.raises(SystemExit) as err:
        main([command, *mesh, "--samples", "0"])
    assert err.value.code == 2


@pytest.mark.parametrize("substeps", ["0", "-5"])
def test_simulate_substeps_below_one_exit_2(tmp_path, substeps):
    save_mesh(shapes.box_grid(1, 1, 1), tmp_path / "box.json")
    (tmp_path / "scene.json").write_text('{"meshes": [{"path": "box.json"}]}')
    with pytest.raises(SystemExit) as err:
        main(["simulate", str(tmp_path / "scene.json"), "--substeps", substeps])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--eps-i", "-1"), ("--eps-i", "nan"), ("--eps-i", "inf"),
        ("--eps-r", "nan"), ("--eps-r", "-0.5"), ("--eps-r", "abc"),
    ],
)
def test_query_bad_tolerance_exit_2(cube_path, capsys, flag, value):
    # the tolerances are constants: the flags that once set them are
    # refused, whatever their value
    with pytest.raises(SystemExit) as err:
        main(["query", cube_path, "0.5 0.5 0.5", flag, value])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "0.5 0.5 0.5", "--seed", "1"],
        ["bench", "--no-culling"],
        ["query", "0.5 0.5 0.5", "--allow-backward"],
        ["validate", "--allow-backward"],
        ["fuzz", "--allow-backward"],
        ["bench", "--allow-backward"],
        ["query", "0.5 0.5 0.5", "--no-culling"],
        ["validate", "--eps-i", "1e-9"],
        ["validate", "--eps-r", "0.1"],
        ["validate", "--no-culling"],
        ["fuzz", "--eps-i", "1e-9"],
        ["fuzz", "--eps-r", "0.1"],
        ["fuzz", "--no-culling"],
        ["bench", "--eps-i", "1e-9"],
        ["bench", "--eps-r", "0.1"],
    ],
    ids=[
        "query-seed", "bench-no-culling", "query-allow-backward", "validate-allow-backward",
        "fuzz-allow-backward", "bench-allow-backward", "query-no-culling", "validate-eps-i",
        "validate-eps-r", "validate-no-culling", "fuzz-eps-i", "fuzz-eps-r", "fuzz-no-culling",
        "bench-eps-i", "bench-eps-r",
    ],
)
def test_flags_without_effect_exit_2(cube_path, capsys, argv):
    # query samples nothing, bench always runs with culling on and off, the
    # mesh decides the traversal direction (backward exactly when it has a
    # skipped element), and the query tolerances and culling are constants
    mesh = [] if argv[0] == "fuzz" else [cube_path]
    with pytest.raises(SystemExit) as err:
        main([argv[0], *mesh, *argv[1:]])
    assert err.value.code == 2
    flag = next(a for a in argv if a.startswith("--"))
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_manifest_records_only_the_command_flags(cube_path, tmp_path):
    out = tmp_path / "q"
    assert main(["query", cube_path, "0.5 0.5 0.5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["argv", "command", "inputs", "output_dir", "seed", "version"]
    assert manifest["seed"] is None
    out = tmp_path / "b"
    assert main(["bench", cube_path, "--samples", "4", "--seed", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5


def test_manifest_records_the_parsed_argv(cube_path, tmp_path, monkeypatch):
    # main(argv) run inside another program: the manifest records the
    # argv that main parsed, not the host's
    monkeypatch.setattr("sys.argv", ["host", "--some-host-flag"])
    argv = ["query", cube_path, "0.3 0.4 0.5", "--out", str(tmp_path / "q")]
    assert main(argv) == 0
    assert json.loads((tmp_path / "q" / "manifest.json").read_text())["argv"] == argv


def test_validate_manifest_lists_the_meshes_it_read(tmp_path, capsys):
    # the report goes into the mesh directory, and is not an input
    vd = tmp_path / "vd"
    vd.mkdir()
    save_mesh(shapes.folded_bar(6, 2, 2), vd / "bar.json")
    assert main(["validate", str(vd), "--samples", "5", "--out", str(vd)]) == 0
    manifest = json.loads((vd / "manifest.json").read_text())
    assert manifest["inputs"] == [str(vd / "bar.json")]


@pytest.mark.parametrize(
    "make", [shapes.flipped_corner_grid, lambda: shapes.inverted_path_strip()[0]],
    ids=["flipped_corner_grid", "inverted_path_strip"],
)
def test_validate_inverted_boundary_elements(tmp_path, capsys, make):
    # each mesh's inverted elements own boundary faces, and engine and
    # oracle both traverse backward on it. When only inverted elements
    # owning no boundary face made them do so, these runs found 10 and 55
    # mismatches
    path = tmp_path / "mesh.json"
    save_mesh(make(), path)
    assert main(["validate", str(path), "--samples", "200", "--seed", "0"]) == 0
    assert "200 queries, 0 mismatches" in capsys.readouterr().out


def test_validate_clean(cube_path, capsys):
    rc = main(["validate", cube_path, "--samples", "10", "--seed", "3"])
    assert rc == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_validate_exit_1_when_face_not_co_minimal(cube_path, tmp_path, monkeypatch, capsys):
    # each mismatch is written once, in the report
    monkeypatch.setattr(oracle, "co_minimal_faces", lambda *args, **kwargs: set())
    out = tmp_path / "v"
    assert main(["validate", cube_path, "--samples", "4", "--seed", "3", "--out", str(out)]) == 1
    assert "4 queries, 4 mismatches" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "validate_report.json"]
    report = json.loads((out / "validate_report.json").read_text())
    assert len(report["mismatches"]) == 4


def test_validate_twice_into_its_mesh_directory(tmp_path, capsys):
    # the files a run writes are not read back as meshes by the next run
    vd = tmp_path / "vd"
    vd.mkdir()
    save_mesh(shapes.folded_bar(6, 2, 2), vd / "bar.json")
    reports = []
    for _ in range(2):
        assert main(["validate", str(vd), "--samples", "5", "--out", str(vd)]) == 0
        reports.append((vd / "validate_report.json").read_text())
        manifest = json.loads((vd / "manifest.json").read_text())
        assert manifest["inputs"] == [str(vd / "bar.json")]
    assert reports[0] == reports[1]


def test_validate_deterministic(cube_path, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        main(["validate", cube_path, "--samples", "8", "--seed", "9", "--out", str(out)])
        outs.append((out / "validate_report.json").read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("iterations", ["0", "-1"])
def test_fuzz_iterations_below_one_exit_2(iterations, capsys):
    with pytest.raises(SystemExit) as err:
        main(["fuzz", "--iterations", iterations])
    assert err.value.code == 2
    assert "iterations" in capsys.readouterr().err


def test_fuzz_short_run_clean(capsys):
    rc = main(["fuzz", "--iterations", "2", "--samples", "5", "--seed", "1"])
    assert rc == 0


def test_fuzz_exit_1_when_a_ray_verdict_flips(tmp_path, monkeypatch):
    # the engine's queries keep their own traversal; only the ray pass's
    # verdicts flip, so every finding is a ray mismatch
    valid_path = cli.is_valid_path

    def flipped(*args, **kwargs):
        result = valid_path(*args, **kwargs)
        return replace(result, valid=not result.valid)

    monkeypatch.setattr(cli, "is_valid_path", flipped)
    out = tmp_path / "fuzz"
    argv = ["fuzz", "--iterations", "1", "--samples", "3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    findings = json.loads((out / "findings.json").read_text())
    assert findings and {f["kind"] for f in findings} == {"ray_mismatch"}
    # every ray is checked in both modes, and only the forward one flips
    assert {f["mode"] for f in findings} == {"forward"}


def test_bench_culling_benefit(tmp_path, capsys):
    # turns that interpenetrate at an offset put invalid edge and vertex
    # candidates nearer than the answer, which culling skips; on a folded
    # strip, whose turns coincide, the nearest candidate is nearly always
    # the answer, so culling has nothing left to skip
    path = tmp_path / "spiral.json"
    save_mesh(shapes.spiral_bar(20, 3, 3), path)
    rc = main(["bench", str(path), "--samples", "40", "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    on = dict(zip(lines[0].split(","), lines[1].split(",")))
    off = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(on["mean_traversals"]) < float(off["mean_traversals"])


def test_bench_with_no_answered_point(tmp_path, capsys):
    # every element that owns a boundary face is inverted, so every
    # boundary face is skipped and no query finds a path: both modes leave
    # their cells empty and agree
    mesh = shapes.box_grid(3, 3, 3)
    elements = mesh.elements.copy()
    owners = np.unique(mesh.boundary_owner)
    elements[owners, -2:] = elements[owners, :-3:-1]
    path = tmp_path / "inverted.json"
    save_mesh(SimplicialMesh(mesh.vertices, elements), path)
    assert main(["bench", str(path), "--samples", "5", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == ["culling_on,,,,,,", "culling_off,,,,,,"]


@pytest.mark.parametrize("command", ["validate", "bench"])
def test_sampling_a_mesh_with_every_element_skipped_exit_2(tmp_path, capsys, command):
    # a single tet with two vertices swapped is inverted, so it has no
    # element to sample query points in
    path = tmp_path / "tet.json"
    save_mesh(SimplicialMesh(np.eye(4, 3, k=-1), np.array([[0, 1, 3, 2]])), path)
    assert main([command, str(path), "--samples", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "inverted or degenerate" in err
    assert len(err.splitlines()) == 1


def test_bench_exit_1_when_culling_changes_an_answer(tmp_path, monkeypatch, capsys):
    # a check that rejects every vertex and edge candidate is not conservative
    monkeypatch.setattr(
        query, "feasible_region_check", lambda mesh, s, feature, p, eps: feature.kind == "face"
    )
    path = tmp_path / "folded.json"
    save_mesh(shapes.folded_strip(40, 3), path)
    assert main(["bench", str(path), "--samples", "40", "--seed", "2"]) == 1
    assert "culling on and off give a different" in capsys.readouterr().err


def test_simulate_scene(tmp_path, capsys):
    save_mesh(shapes.box_grid(1, 1, 1), tmp_path / "box.json")
    scene = {
        "meshes": [
            {"path": "box.json"},
            {"path": "box.json", "translate": [0.85, 0.05, 0.02]},
        ],
        "config": {"dt": 0.01, "gravity": [0, 0, 0], "damping": 1.0},
    }
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    out = tmp_path / "run"
    rc = main(["simulate", str(tmp_path / "scene.json"), "--substeps", "40", "--out", str(out)])
    assert rc == 0
    assert "final penetration count 0" in capsys.readouterr().out
    log = json.loads((out / "contact_log.json").read_text())
    assert len(log) == 40 and log[0]["constraint_count"] > 0


def test_convert_roundtrip_and_obj(cube_path, tmp_path):
    dst = tmp_path / "copy.json"
    assert main(["convert", cube_path, str(dst)]) == 0
    assert json.loads(dst.read_text())["dimension"] == 3
    obj = tmp_path / "boundary.obj"
    assert main(["convert", cube_path, str(obj)]) == 0
    assert obj.read_text().startswith("v ")


@pytest.mark.parametrize(
    "scene",
    [
        '{"mesh": [{"path": "box.json"}]}',
        '{"meshes": {"path": "box.json"}}',
        '{"meshes": [{"path": "box.json"}], "config": {"substepz": 3}}',
        '{"meshes": [{"path": "box.json"}], "config": {"substeps": 3}}',
        '{"meshes": [{"path": "box.json"}], "config": {"friction": 0.5}}',
        '{"meshes": [',
        '{"meshes": [{"path": "box.json"}], "config": {"dt": 0}}',
        '{"meshes": [{"path": "box.json"}], "config": {"dt": NaN}}',
        '{"meshes": [{"path": "box.json"}], "config": {"dt": Infinity}}',
        '{"meshes": [{"path": "box.json"}], "config": {"gravity": [0, NaN, 0]}}',
        '{"meshes": [{"path": "box.json"}], "config": {"gravity": [0, -9.8]}}',
        '{"meshes": [{"path": "box.json"}], "config": {"gravity": [0, -9.8, 0, 5]}}',
        '{"meshes": [{"path": "box.json"}], "config": {"gravity": []}}',
        '{"meshes": [{"path": "box.json"}], "config": {"damping": NaN}}',
        '{"meshes": [{"path": "box.json"}], "config": {"contact_margin": NaN}}',
        '{"meshes": [{"path": "box.json"}], "config": {"collision_compliance": Infinity}}',
        '{"meshes": [{"path": "box.json"}], "config": {"material_compliance": -2e-4}}',
        '{"meshes": [{"path": "box.json"}], "config": {"collision_compliance": -1e-4}}',
        '{"meshes": [{"path": "box.json"}], "config": {"damping": 3}}',
        '{"meshes": [{"path": "box.json"}], "config": {"damping": -0.5}}',
        '{"meshes": [{"path": "box.json"}], "config": {"iterations": 0}}',
        '{"meshes": [{"path": "box.json"}], "config": {"query": {"bogus": 1}}}',
        '{"meshes": [{"path": "box.json"}], "config": {"stiffness_k": 1e4}}',
        '{"meshes": [{"path": "box.json"}], "config": {"include_centroids": false}}',
        '{"meshes": [{"path": "box.json"}], "config": {"query": {"exclude_vertex": 4}}}',
        '{"meshes": [{"path": "box.json"}], "config": {"query": {"epsilon_r": NaN}}}',
        '{"meshes": [{"path": "box.json"}], "config": {"query": {"epsilon_r": -0.01}}}',
        '{"meshes": [{"path": "box.json"}], "config": {"query": {"traversal": {"epsilon_i": Infinity}}}}',
        '{"meshes": [{"path": "box.json"}], "config": {"query": {"traversal": {"cutoff_factor": 2}}}}',
        '{"meshes": [{"path": "box.json"}], "config": {"query": {"traversal": {"trace": true}}}}',
        '{"meshes": [{"path": "box.json"}], "config": {"query": {"traversal": {"allow_backward": true}}}}',
        '{"meshes": []}',
        '{"meshes": [{"path": "box.json", "translate": [1, 2]}]}',
        '{"meshes": [{"path": "box.json", "translate": [NaN, 0, 0]}]}',
        '{"meshes": [{"path": "box.json", "scale": "abc"}]}',
        '{"meshes": [{"path": "box.json", "scale": 0}]}',
        '{"meshes": [{"path": "box.json", "mass": "x"}]}',
        '{"meshes": [{"path": "box.json", "mas": 2}]}',
        '{"meshes": [{"path": "box.json"}, {"path": "sheet.json"}]}',
    ],
    ids=[
        "no-meshes", "meshes-not-list", "unknown-key", "substeps", "friction", "not-json",
        "dt-zero", "dt-nan", "dt-inf", "gravity-nan", "gravity-short", "gravity-long",
        "gravity-empty", "damping-nan", "contact-margin-nan",
        "compliance-inf", "material-compliance-negative", "collision-compliance-negative",
        "damping-3", "damping-negative", "iterations-zero", "query-unknown-key", "stiffness_k",
        "include_centroids",
        "query-exclude-vertex", "epsilon-r-nan", "epsilon-r-negative", "epsilon-i-inf",
        "traversal-cutoff-factor", "traversal-trace", "traversal-allow-backward",
        "meshes-empty",
        "translate-2d", "translate-nan", "scale-string", "scale-zero", "mass-string",
        "mesh-unknown-key", "mixed-dimensions",
    ],
)
def test_simulate_bad_scene_exit_2(tmp_path, capsys, scene):
    save_mesh(shapes.box_grid(1, 1, 1), tmp_path / "box.json")
    save_mesh(shapes.rect_grid(1, 1), tmp_path / "sheet.json")
    (tmp_path / "scene.json").write_text(scene)
    assert main(["simulate", str(tmp_path / "scene.json"), "--substeps", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("error")
def test_simulate_blowup_exit_2(tmp_path, capsys):
    # a finite scene that loads, whose predicted positions overflow the
    # element centroids in substep 1 and whose velocities would overflow in
    # substep 2: the overflow ends the run without a warning
    save_mesh(shapes.box_grid(1, 1, 1), tmp_path / "box.json")
    (tmp_path / "scene.json").write_text(
        '{"meshes": [{"path": "box.json"}], "config": {"dt": 1.0, "gravity": [1e308, 0, 0]}}'
    )
    assert main(["simulate", str(tmp_path / "scene.json"), "--substeps", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite") and len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["1e100", "1e150", "1e306"])
def test_simulate_overscaled_scene_exit_2(tmp_path, capsys, scale):
    # the unit box's element volumes (1e150, 1e306) or face normal lengths
    # (1e100) overflow, so the scene is rejected when it loads
    save_mesh(shapes.box_grid(1, 1, 1), tmp_path / "box.json")
    scene = {"meshes": [{"path": "box.json", "scale": float(scale)}]}
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    assert main(["simulate", str(tmp_path / "scene.json"), "--substeps", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err and len(err.splitlines()) == 1


def test_simulate_scene_query_config(tmp_path):
    # a scene cannot set the query: its contact queries run with the
    # default settings, and a "query" block is an unknown key
    from boundarypath.errors import ParseError
    from boundarypath.sim import load_scene

    save_mesh(shapes.box_grid(1, 1, 1), tmp_path / "box.json")
    scene = {
        "meshes": [{"path": "box.json"}],
        "config": {"query": {"epsilon_r": 0.1, "traversal": {"epsilon_i": 1e-9}}},
    }
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    with pytest.raises(ParseError, match="unknown config keys: query$"):
        load_scene(str(tmp_path / "scene.json"))


def test_simulate_takes_no_query_flags(tmp_path):
    save_mesh(shapes.box_grid(1, 1, 1), tmp_path / "box.json")
    (tmp_path / "scene.json").write_text('{"meshes": [{"path": "box.json"}]}')
    scene = str(tmp_path / "scene.json")
    with pytest.raises(SystemExit) as err:
        main(["simulate", scene, "--substeps", "1", "--eps-r", "0.5"])
    assert err.value.code == 2
    out = tmp_path / "run"
    assert main(["simulate", scene, "--substeps", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] is None
