import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvlab
from cvlab.cli import _parse_params, main
from cvlab.metric import load_metric


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate: exit codes 0 / 1 / 2


def test_validate_good_profile(capsys):
    code, out, _ = run(capsys, "validate", "--expr", "t/(1+t)", "--kind", "xi")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert doc["kind"] == "xi"
    assert 0.0 < doc["details"]["sup_xi"] <= 1.0


def test_validate_violating_profile_exits_one(capsys):
    code, out, _ = run(capsys, "validate", "--expr", "2*t", "--kind", "xi")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert any(v["check"] == "xi > 1" for v in doc["violations"])


def test_validate_syntax_error_exits_two(capsys):
    code, _, err = run(capsys, "validate", "--expr", "t/(", "--kind", "xi")
    assert code == 2
    assert "error:" in err


def test_selection_flags_are_exclusive(capsys):
    code, _, err = run(capsys, "validate", "--expr", "t", "--kind", "xi",
                       "--family", "poly")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "classify")
    assert code == 2


def test_expr_requires_kind(capsys):
    code, _, err = run(capsys, "validate", "--expr", "t/(1+t)")
    assert code == 2
    assert "--kind" in err


def test_unknown_family_exits_two(capsys):
    code, _, err = run(capsys, "classify", "--family", "nosuch")
    assert code == 2


def test_bad_param_syntax_exits_two(capsys):
    code, _, err = run(capsys, "classify", "--family", "poly", "--param", "a")
    assert code == 2
    assert "KEY=VALUE" in err


@pytest.mark.parametrize("value", ["2", "-3", "1e2", "2.5", "inf", "-inf", "nan", "rational"])
def test_param_and_profile_file_parse_alike(tmp_path, value):
    path = tmp_path / "fam.cvp"
    path.write_text(f"kind = family\nfamily = poly\na = {value}\n")
    from_file = cvlab.load_profile(path).params["a"]
    from_cli = _parse_params([f"a={value}"])["a"]
    assert type(from_cli) is type(from_file) and repr(from_cli) == repr(from_file)


@pytest.mark.parametrize("family, param, fragment", [
    ("poly", "a=inf", "limit a must lie in [0, 1]"),
    ("poly", "a=nan", "limit a must lie in [0, 1]"),
    ("yau", "l_max=inf", "infinity"),
])
def test_non_finite_param_exits_two(capsys, family, param, fragment):
    code, _, err = run(capsys, "classify", "--family", family, "--param", param)
    assert code == 2
    assert fragment in err


def test_family_gate_violation_exits_two(capsys):
    code, _, err = run(capsys, "classify", "--family", "poly", "--param", "a=1.5",
                       "--grid", "256")
    assert code == 2


def test_build_commands_reject_invalid_profiles(capsys):
    code, _, err = run(capsys, "classify", "--expr", "2*t", "--kind", "xi")
    assert code == 1
    assert "validation failed" in err


# ---------------------------------------------------------------------------
# classify


def test_classify_flat_expression(capsys, tmp_path):
    out_path = tmp_path / "flat.json"
    code, out, _ = run(capsys, "classify", "--expr", "0 * t", "--kind", "xi",
                       "--grid", "256", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["metric_class"] == "flat"
    assert doc["complete"] is True
    assert json.loads(out_path.read_text()) == doc


def test_classify_family_with_dimension_flag(capsys):
    code, out, _ = run(capsys, "classify", "--family", "poly",
                       "--param", "a=0.5", "--n", "3", "--grid", "256")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["classification"]["metric_class"] == "S1"
    assert doc["classification"]["xi_infinity"] == pytest.approx(0.5, rel=1e-6)


def test_classify_save_model_cache(capsys, tmp_path):
    out_path = tmp_path / "model.npz"
    code, _, _ = run(capsys, "classify", "--family", "poly", "--param", "a=0.5",
                     "--grid", "256", "--save-model", "--out", str(out_path))
    assert code == 0
    cached = load_metric(out_path)
    assert cached.n == 2


# ---------------------------------------------------------------------------
# tables and series exports


def test_curvature_table_csv(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "curvature-table", "--family", "poly",
                       "--param", "a=0.5", "--grid", "256",
                       "--rows", "16", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "r,x,A,B,C,lambda,mu,scalar"
    assert len(lines) == 17
    # every cell parses back to the float that produced it
    cells = [float(u) for u in lines[1].split(",")]
    assert len(cells) == 8


def test_curvature_table_json(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    code, _, _ = run(capsys, "curvature-table", "--family", "poly",
                     "--param", "a=0.5", "--grid", "256",
                     "--rows", "8", "--format", "json", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert sorted(doc) == ["A", "B", "C", "lambda", "mu", "r", "scalar", "x"]
    assert all(len(col) == 8 for col in doc.values())


def test_series_csv_byte_identical_across_runs(capsys, tmp_path):
    args = ("series", "--family", "poly", "--param", "a=0.5", "--grid", "512",
            "--mode", "sigma", "--k", "1")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "s,volume,integral,normalized"


def test_series_csv_floats_round_trip(capsys, tmp_path):
    out_path = tmp_path / "ser.csv"
    run(capsys, "series", "--family", "poly", "--param", "a=0.5", "--grid", "512",
        "--mode", "sigma", "--k", "1", "--out", str(out_path))
    lines = out_path.read_text().splitlines()[1:]
    values = np.array([[float(u) for u in line.split(",")] for line in lines])
    # shortest round-trip formatting: parse(print(x)) == x exactly, so the
    # normalized column recomputes bit-for-bit from its neighbours
    np.testing.assert_array_equal(values[:, 3], values[:, 2] / values[:, 0] ** 2)


def test_series_prints_fit_summary(capsys):
    code, out, _ = run(capsys, "series", "--family", "poly", "--param", "a=0.5",
                       "--grid", "512", "--mode", "scalar")
    assert code == 0
    assert "ball average of scalar curvature" in out
    assert "verdict=" in out


def test_series_mode_parameter_gates(capsys):
    code, _, err = run(capsys, "series", "--family", "poly", "--grid", "256",
                       "--mode", "sigma")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "series", "--family", "poly", "--grid", "256",
                       "--mode", "lp")
    assert code == 2 and "--p" in err


def test_no_partial_output_on_failure(capsys, tmp_path):
    out_path = tmp_path / "never.csv"
    code, _, _ = run(capsys, "series", "--expr", "2*t", "--kind", "xi",
                     "--mode", "sigma", "--k", "1", "--out", str(out_path))
    assert code == 1
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# chern and report


def test_chern_reports_total_and_bound(capsys):
    code, out, _ = run(capsys, "chern", "--family", "poly", "--param", "a=0.5",
                       "--grid", "512")
    assert code == 0
    total = float(out.splitlines()[0].split(":")[1])
    assert total == pytest.approx(0.5, rel=1e-9)
    assert "saturation bound" in out


def test_report_bundles_all_sections(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "--family", "poly", "--param", "a=0.5",
                       "--grid", "512", "--mode", "sigma", "--k", "2",
                       "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] is True
    assert doc["fit"]["verdict"] in {"bounded", "unbounded", "inconclusive"}
    assert doc["volume_growth"]["matched"] == "c_n (1 - xi_inf)^n"
    assert doc["coordinate_growth"]["superpolynomial"] is False
    assert doc["metric"]["classification"]["metric_class"] == "S1"
    assert json.loads(out_path.read_text()) == doc


# ---------------------------------------------------------------------------
# environment overrides


def test_env_grid_override_changes_build(capsys, monkeypatch):
    monkeypatch.setenv("CVLAB_GRID", "256")
    code, out, _ = run(capsys, "classify", "--family", "poly", "--param", "a=0.5")
    assert code == 0
    small = json.loads(out)["grid_nodes"]
    monkeypatch.delenv("CVLAB_GRID")
    code, out, _ = run(capsys, "classify", "--family", "poly", "--param", "a=0.5",
                       "--grid", "1024")
    big = json.loads(out)["grid_nodes"]
    assert small < big


def test_profile_file_with_family_spec(capsys, tmp_path):
    prof = tmp_path / "model.profile"
    prof.write_text("kind = family\nfamily = poly\na = 0.25\n")
    code, out, _ = run(capsys, "classify", "--profile", str(prof), "--grid", "256")
    assert code == 0
    assert json.loads(out)["classification"]["xi_infinity"] == pytest.approx(
        0.25, rel=1e-6
    )


def test_module_entry_point(tmp_path):
    # run outside the checkout, with the tree this process imported first on
    # the path, so `-m cvlab` exercises this checkout's __main__
    env = dict(os.environ)
    root = str(Path(cvlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "cvlab", "validate", "--expr", "t/(1+t)",
         "--kind", "xi"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_classify_verbose_shows_how_the_grid_was_made(tmp_path):
    env = dict(os.environ)
    root = str(Path(cvlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "cvlab", "--verbose", "classify", "--family", "yau",
         "--param", "l_max=16"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    grid = json.loads(proc.stdout)["grid"]
    line = (f"x grid: {grid['base_nodes']} base nodes, {grid['bisected_cells']} cells "
            f"bisected in {grid['rounds']} rounds, {grid['nodes']} nodes")
    assert line in proc.stderr
