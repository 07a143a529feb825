import json

import numpy as np
import pytest

from hyprig.boundary import make_boundary_map, map_to_json, measure_to_json
from hyprig.boundary import BoundaryMeasure
from hyprig.cli import run
from hyprig.hypcore import IdealPoint, mink, random_isometry
from hyprig.regref import reference_regular
from hyprig.volcocycle import V3


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


def test_rigidity_pipeline_via_cli(tmp_path, capsys):
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
    code, out = run_json(capsys, ["reconstruct", "--map", str(map_path),
                                  "--n", "3", "--seeds", "3", "--depth", "2",
                                  "--seed", "4", "--out", str(h_path)])
    assert code == 0
    assert np.max(np.abs(np.asarray(out["matrix"]) - g.matrix)) < 1e-8

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
