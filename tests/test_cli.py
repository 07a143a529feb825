import json

import numpy as np
import pytest

import hyprig
from hyprig import rigidity
from hyprig.boundary import make_boundary_map, map_to_json, measure_to_json
from hyprig.boundary import BoundaryMeasure
from hyprig.cli import run
from hyprig.hypcore import IdealPoint, mink, random_isometry
from hyprig.regref import reference_regular
from hyprig.volcocycle import V3

# frozen from two independent integrators agreeing to 1e-10
V4_ORACLE = 0.2688956601


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_vn(capsys):
    code, out = run_json(capsys, ["vn", "--n", "3"])
    assert code == 0
    assert out["value"] == pytest.approx(V3, abs=1e-12)
    assert out["config"]["n"] == 3


def test_vol_regular_tetrahedron(tmp_path, capsys):
    ref = reference_regular(3, 1)
    f = tmp_path / "s.json"
    f.write_text(json.dumps([v.coords.tolist() for v in ref.base.vertices]))
    code, out = run_json(capsys, ["vol", "--n", "3", "--simplex", str(f)])
    assert code == 0
    assert out["value"] == pytest.approx(V3, abs=1e-12)
    assert out["method"] == "lobachevsky3"


def test_vol_regular_4_simplex_closed_form(tmp_path, capsys):
    ref = reference_regular(4, 1)
    f = tmp_path / "s.json"
    f.write_text(json.dumps([v.coords.tolist() for v in ref.base.vertices]))
    code, out = run_json(capsys, ["vol", "--n", "4", "--simplex", str(f)])
    assert code == 0
    assert out["method"] == "schlafli4"
    assert 0.0 < out["abs_error"] <= 1e-6
    # V4_ORACLE carries 10 digits
    assert abs(abs(out["value"]) - V4_ORACLE) <= out["abs_error"] + 1e-10


def test_vol_has_no_tolerance_flag(tmp_path):
    # the closed forms read no tolerance, so the verb takes none
    ref = reference_regular(3, 1)
    f = tmp_path / "s.json"
    f.write_text(json.dumps([v.coords.tolist() for v in ref.base.vertices]))
    with pytest.raises(SystemExit) as exc:
        run(["vol", "--n", "3", "--simplex", str(f), "--tol", "1e-6"])
    assert exc.value.code == 2


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["vn", "--n", "3", "--threads", "2"])
    assert exc.value.code == 2


def test_vol_unsupported_dimension_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((7, 6))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    f = tmp_path / "s.json"
    f.write_text(json.dumps(pts.tolist()))
    code = run(["vol", "--n", "6", "--simplex", str(f)])
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.err)
    assert err["error"] == "UnsupportedDimension"


def test_cocycle_check_random(capsys):
    code, out = run_json(capsys,
                         ["cocycle-check", "--n", "3", "--random", "5",
                          "--seed", "1"])
    assert code == 0
    assert out["max_abs_defect"] < 1e-9


def test_cocycle_check_requires_seed():
    with pytest.raises(SystemExit) as exc:
        run(["cocycle-check", "--n", "3", "--random", "5"])
    assert exc.value.code == 2


def test_straighten(tmp_path, capsys):
    ref = reference_regular(2, 1)
    data = {"vertices": [v.coords.tolist() for v in ref.base.vertices],
            "t": [1 / 3, 1 / 3, 1 / 3]}
    f = tmp_path / "in.json"
    f.write_text(json.dumps(data))
    code, out = run_json(capsys, ["straighten", "--n", "2",
                                  "--input", str(f)])
    assert code == 0
    x = np.asarray(out["point"])
    assert mink(x, x) == pytest.approx(-1.0, abs=1e-9)


def test_barycenter(tmp_path, capsys):
    pts = [IdealPoint(np.array(c)) for c in
           ([1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2])]
    mu = BoundaryMeasure(tuple((p, 1 / 3) for p in pts))
    f = tmp_path / "mu.json"
    f.write_text(json.dumps(measure_to_json(mu)))
    code, out = run_json(capsys, ["barycenter", "--measure", str(f)])
    assert code == 0
    # the symmetric measure balances at the basepoint
    assert np.allclose(out["point"], [0.0, 0.0, 1.0], atol=1e-8)


def test_orbit(capsys):
    code, out = run_json(capsys, ["orbit", "--n", "2", "--depth", "2"])
    assert code == 0
    assert [] in out["words"]
    assert len(out["words"]) == len(out["matrices"])
    assert len(out["vertices"]) >= 3


def test_density_probe_requires_seed_without_target():
    with pytest.raises(SystemExit) as exc:
        run(["density-probe", "--n", "2", "--depth", "3"])
    assert exc.value.code == 2


def test_density_probe_seeded(capsys):
    code, out = run_json(capsys, ["density-probe", "--n", "2", "--depth", "4",
                                  "--seed", "3"])
    assert code == 0
    assert len(out["word"]) <= 4
    assert out["distance"] >= 0.0


def test_preset_list_and_verify(capsys):
    code, out = run_json(capsys, ["preset", "list"])
    assert code == 0
    assert "figure_eight_3d" in out["presets"]
    code, out = run_json(capsys, ["preset", "verify", "figure_eight_3d"])
    assert code == 0
    assert out["verified"] is True
    assert out["covolume"] == pytest.approx(2 * V3, abs=1e-9)


def test_preset_list_follows_search_path(tmp_path, monkeypatch, capsys):
    (tmp_path / "zz_local.json").write_text("{}")
    (tmp_path / "figure_eight_3d.json").write_text("{}")
    (tmp_path / "notes.txt").write_text("")
    monkeypatch.setenv("HYPRIG_PRESET_DIR", str(tmp_path))
    code, out = run_json(capsys, ["preset", "list"])
    assert code == 0
    # the override directory first, then the packaged presets, each once
    assert out["presets"] == ["figure_eight_3d", "zz_local",
                              "test_reflection_2d"]
    monkeypatch.setenv("HYPRIG_PRESET_DIR", str(tmp_path / "missing"))
    code, out = run_json(capsys, ["preset", "list"])
    assert out["presets"] == ["figure_eight_3d", "test_reflection_2d"]


def test_preset_verify_needs_name():
    with pytest.raises(SystemExit) as exc:
        run(["preset", "verify"])
    assert exc.value.code == 2


def test_smear_requires_seed():
    with pytest.raises(SystemExit) as exc:
        run(["smear", "--preset", "figure_eight_3d",
             "--map", "planted-identity", "--samples", "100"])
    assert exc.value.code == 2


def test_smear_with_csv_and_out(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    out_path = tmp_path / "result.json"
    code, out = run_json(capsys, [
        "smear", "--preset", "figure_eight_3d", "--map", "planted-identity",
        "--samples", "400", "--seed", "5", "--simplices", "2",
        "--csv", str(csv_path), "--out", str(out_path)])
    assert code == 0
    assert out["milnor_wood"]["passes"]
    assert out["config"]["seed"] == 5
    assert 0.0 < out["diagnostics"]["ess_frac"] <= 1.0
    assert out["diagnostics"]["max_weight"] > 0.0
    saved = json.loads(out_path.read_text())
    assert saved["lambda"] == out["lambda"]
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("samples,lambda")
    assert len(rows) == 5


def test_vol_of_rep_command(capsys):
    code, out = run_json(capsys, [
        "vol-of-rep", "--preset", "figure_eight_3d",
        "--map", "planted-identity", "--samples", "400", "--seed", "7",
        "--simplices", "2"])
    assert code == 0
    band = 3 * out["std_error"] + out["bias_bound"]
    assert abs(out["vol_of_rep"] - 2 * V3) < band
    assert 0.0 < out["diagnostics"]["ess_frac"] <= 1.0
    assert out["diagnostics"]["max_weight"] > 0.0
    assert out["covolume"] == pytest.approx(2 * V3, abs=1e-9)


@pytest.mark.parametrize("command", ["smear", "vol-of-rep"])
def test_fewer_than_two_samples_per_simplex_exits_2(capsys, command):
    # 4 samples over the default 8 simplices leave none per simplex
    with pytest.raises(SystemExit) as exc:
        run([command, "--preset", "figure_eight_3d",
             "--map", "planted-identity", "--samples", "4", "--seed", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["orbit", "--n", "3", "--depth", "-1"],
    ["density-probe", "--n", "3", "--depth", "-2", "--seed", "1"],
    ["reconstruct", "--map", "planted-identity", "--n", "3", "--seed", "1",
     "--depth", "-1"],
    ["reconstruct", "--map", "planted-identity", "--n", "3", "--seed", "1",
     "--seeds", "1"],
    ["preserves-regular", "--map", "planted-identity", "--n", "3",
     "--seed", "1", "--trials", "0"],
])
def test_out_of_range_input_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs" in captured.err


@pytest.mark.parametrize("command", ["smear", "vol-of-rep"])
def test_map_of_wrong_dimension_exits_1(tmp_path, capsys, command):
    g = random_isometry(np.random.default_rng(4), 2, 1.0)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(
        map_to_json(make_boundary_map("planted_isometry", g=g))))
    code = run([command, "--preset", "figure_eight_3d", "--map",
                str(map_path), "--samples", "40", "--seed", "1",
                "--simplices", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "DimensionMismatch"


def test_rigidity_pipeline_via_cli(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(9)
    g = random_isometry(rng, 3, 1.0, orientation=1)
    phi = make_boundary_map("planted_isometry", g=g)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(map_to_json(phi)))

    code, out = run_json(capsys, ["preserves-regular", "--map", str(map_path),
                                  "--n", "3", "--trials", "10", "--seed", "2"])
    assert code == 0
    assert out["pass_fraction"] == 1.0
    assert out["orientation_mode"] == "same"

    h_path = tmp_path / "h.json"
    mapped = []
    evaluate_many = rigidity.evaluate_many

    def counted(phi, X):
        mapped.append(len(X))
        return evaluate_many(phi, X)

    monkeypatch.setattr(rigidity, "evaluate_many", counted)
    code, out = run_json(capsys, ["reconstruct", "--map", str(map_path),
                                  "--n", "3", "--seeds", "3", "--depth", "2",
                                  "--seed", "4", "--out", str(h_path)])
    assert code == 0
    assert np.max(np.abs(np.asarray(out["matrix"]) - g.matrix)) < 1e-8
    # 1 + 4 + 12 simplices per walk; the one pass maps 3 (4 + 16) rows
    assert out["diagnostics"] == {"walk_size": 17, "phi_points": 60}
    assert mapped == [60]

    rho_path = tmp_path / "rho.json"
    from hyprig.lattice import load_preset
    p = load_preset("figure_eight_3d")
    rho = [(g @ gen @ g.inverse()).matrix.tolist() for gen in p.generators]
    rho_path.write_text(json.dumps(rho))
    code, out = run_json(capsys, ["verify-conjugacy",
                                  "--preset", "figure_eight_3d",
                                  "--h", str(h_path), "--rho", str(rho_path)])
    assert code == 0
    assert out["residual"] < 1e-7


def test_reconstruct_past_the_walk_budget_exits_1(capsys):
    code = run(["reconstruct", "--map", "planted-identity", "--n", "3",
                "--seed", "1", "--depth", "30"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "BudgetExceeded"


def _unit_rows(rng, count, n):
    P = rng.standard_normal((count, n))
    return (P / np.linalg.norm(P, axis=1, keepdims=True)).tolist()


@pytest.mark.parametrize("command,flag,count,n,flag_n", [
    ("vol", "--simplex", 4, 3, 2),          # a tetrahedron read as H^2
    ("vol", "--simplex", 4, 2, 2),          # four points of S^1
    ("cocycle-check", "--points", 5, 3, 2),
    ("cocycle-check", "--points", 4, 3, 3),
])
def test_points_disagreeing_with_n_exit_1(tmp_path, capsys, command, flag,
                                          count, n, flag_n):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps(_unit_rows(np.random.default_rng(0), count, n)))
    code = run([command, "--n", str(flag_n), flag, str(f)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "DimensionMismatch"


def test_straighten_vertex_of_wrong_length_exits_1(tmp_path, capsys):
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"vertices": _unit_rows(
        np.random.default_rng(1), 3, 4), "t": [1 / 3, 1 / 3, 1 / 3]}))
    code = run(["straighten", "--n", "2", "--input", str(f)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("flag,content,argv", [
    ("--measure", [{"point": [1.0, 0.0]}], ["barycenter"]),
    ("--map", {"kind": "foo"},
     ["preserves-regular", "--n", "3", "--seed", "1"]),
    ("--map", {"kind": "planted_isometry"},
     ["reconstruct", "--n", "3", "--seed", "1"]),
    ("--simplex", "{not json", ["vol", "--n", "3"]),
    ("--simplex", None, ["vol", "--n", "3"]),
    ("--points", [[1.0, 0.0], [0.0]], ["cocycle-check", "--n", "2"]),
    ("--input", {"vertices": []}, ["straighten", "--n", "2"]),
    ("--input", [[1.0, 0.0]], ["straighten", "--n", "2"]),
    ("--measure", {"point": [1.0, 0.0]}, ["barycenter"]),
    ("--target", [["a"]], ["density-probe", "--n", "3", "--depth", "1"]),
    ("--h", {"matrix": "x"}, ["verify-conjugacy", "--preset",
                              "figure_eight_3d", "--rho", "unread.json"]),
])
def test_unreadable_input_file_exits_2(tmp_path, capsys, flag, content, argv):
    path = tmp_path / "input.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_text(json.dumps(content))
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag, str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{flag} {path}: ")
    assert "Traceback" not in captured.err


def test_config_echo_holds_only_parsed_flags(capsys):
    for argv in (["cocycle-check", "--n", "2", "--random", "2", "--seed", "1"],
                 ["density-probe", "--n", "2", "--depth", "1", "--seed", "1"]):
        code, out = run_json(capsys, argv)
        assert code == 0
        assert "stochastic_if" not in out["config"]
        assert out["config"]["n"] == 2


@pytest.mark.parametrize("command", ["smear", "vol-of-rep"])
def test_estimates_cover_the_cusp_with_no_height_to_choose(capsys, command):
    base = [command, "--preset", "test_reflection_2d", "--map",
            "planted-identity", "--samples", "64", "--seed", "3"]
    code, out = run_json(capsys, base)
    assert code == 0
    assert out["bias_bound"] == 0.0
    assert set(out["diagnostics"]) == {"ess_frac", "max_weight"}
    with pytest.raises(SystemExit) as exc:
        run(base + ["--truncation", "100"])
    assert exc.value.code == 2


def test_every_payload_echoes_the_versions(capsys):
    for argv in (["vn", "--n", "3"], ["preset", "list"],
                 ["smear", "--preset", "test_reflection_2d", "--map",
                  "planted-identity", "--samples", "16", "--seed", "1"]):
        code, out = run_json(capsys, argv)
        assert code == 0
        assert out["versions"] == {"hyprig": hyprig.__version__,
                                   "numpy": np.__version__}


def test_density_probe_target_of_wrong_dimension_exits_1(tmp_path, capsys):
    f = tmp_path / "target.json"
    f.write_text(json.dumps(np.eye(3).tolist()))
    code = run(["density-probe", "--n", "3", "--depth", "1",
                "--target", str(f)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DimensionMismatch"


def _no_work(*args, **kwargs):
    raise AssertionError("the command ran before its output was checked")


@pytest.mark.parametrize("flag,argv", [
    ("--out", ["vn", "--n", "3"]),
    ("--csv", ["smear", "--preset", "test_reflection_2d",
               "--map", "planted-identity", "--samples", "40", "--seed", "1",
               "--simplices", "2"]),
])
def test_unwritable_output_file_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, flag, argv):
    monkeypatch.setattr("hyprig.cli.v_n", _no_work)
    monkeypatch.setattr("hyprig.cli.volume_ratio", _no_work)
    path = tmp_path / "nodir" / "x.out"
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag, str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{flag} {path}: FileNotFoundError")


def test_output_check_leaves_no_file_behind(tmp_path, capsys):
    path = tmp_path / "x.json"
    # v_n(1) raises UnsupportedDimension after the output check
    assert run(["vn", "--n", "1", "--out", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "UnsupportedDimension"
    assert not path.exists()
    path.write_text("old")
    assert run(["vn", "--n", "3", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["n"] == 3
