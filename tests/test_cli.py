"""End-to-end CLI tests: subcommands, exit codes, and artifact stability."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import polarineq
from polarineq import poly_to_json
from polarineq.cli import main
from polarineq.poly import make_poly


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(poly_to_json(make_poly([1, 0, 1])))  # z^2 + 1
    return str(path)


def test_check_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main([
        "check", "--ineq", "E1,LE3", "--trials", "3", "--seed", "42",
        "--tol", "1e-8", "--radii", "1.0,1.05,1.5,3.0", "--format", "json",
        "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert [r["id"] for r in data["results"]] == ["E1", "LE3"]
    captured = capsys.readouterr()
    assert "all passed" in captured.err


def test_check_deterministic_artifacts(tmp_path):
    args = ["check", "--ineq", "TE2", "--trials", "2", "--seed", "9", "--out"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["check", "--ineq", "E1", "--trials", "2", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_check_stdout_when_no_out(capsys):
    rc = main(["check", "--ineq", "LE3", "--trials", "1", "--seed", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_stdout_honours_format(fmt, tmp_path, capsys):
    argv = ["check", "--ineq", "E1,LE3", "--trials", "2", "--seed", "5", "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / f"report.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    assert printed == out.read_text()


def test_unknown_id_exit_code(capsys):
    rc = main(["check", "--ineq", "TE9", "--trials", "1"])
    assert rc == 1
    assert "valid ids" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["check"]) == 1  # missing --ineq
    assert main(["frob"]) == 1  # unknown subcommand


@pytest.mark.parametrize(
    "flag, value, names",
    [("--radii", "", "radii"), ("--radii", "nan", "radius"),
     ("--tol", "nan", "tol_rel"), ("--tol", "inf", "tol_rel")],
    ids=["radii-empty", "radii-nan", "tol-nan", "tol-inf"],
)
def test_bad_sweep_input_is_one_error_line(flag, value, names, capsys):
    rc = main(["check", "--ineq", "ALL", "--trials", "1", flag, value])
    assert rc == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and names in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value, names",
    [("--radii", "nan", "radii"), ("--tol", "nan", "tol_rel"), ("--angles", "100", "angles")],
    ids=["radii", "tol", "angles"],
)
def test_bad_sweep_option_names_no_trial(flag, value, names, capsys):
    # Checked once before the first trial: the error is the option's, and
    # names no (id, seed, trial) replay key.
    rc = main(["check", "--ineq", "E1", "--trials", "1", flag, value])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and names in lines[0]
    assert "trial" not in lines[0] and "seed" not in lines[0]


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["check", "--ineq", "E1", "--trials", "1"], -1),
        (["fuzz", "--ineq", "E1", "--budget", "1"], -3),
    ],
    ids=["check", "fuzz"],
)
def test_negative_seed_is_one_usage_line(argv, seed, capsys):
    assert main([*argv, "--seed", str(seed)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: seed must be >= 0, got {seed}"]
    assert captured.out == ""


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(polarineq.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "polarineq", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "check" in done.stdout


def test_sharpness_cli(capsys):
    rc = main(["sharpness", "--ineq", "AE", "--family", "half", "--n", "6",
               "--alpha", "3"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ineq"] == "AE"
    assert abs(data["min_rel_slack"]) <= 1e-9


def test_fuzz_cli_clean(capsys):
    rc = main(["fuzz", "--ineq", "LE4", "--budget", "5", "--seed", "7"])
    assert rc == 0
    assert "no violation" in capsys.readouterr().err


def test_fuzz_cli_violation_exit_code(capsys):
    from polarineq.inequalities import rhs_sign_flip

    with rhs_sign_flip("TE2"):
        rc = main(["fuzz", "--ineq", "TE2", "--budget", "100", "--seed", "7"])
    assert rc == 2
    data = json.loads(capsys.readouterr().out)
    assert data["id"] == "TE2" and data["rel_slack"] < -1e-6


def test_roots_cli(poly_file, capsys):
    rc = main(["roots", "--poly", poly_file])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified_by_winding"] is True
    found = sorted(tuple(r) for r in data["roots"])
    assert abs(found[0][1] + 1) < 1e-9 and abs(found[1][1] - 1) < 1e-9


def test_extrema_cli(poly_file, capsys):
    rc = main(["extrema", "--poly", poly_file, "--radius", "1.0", "--kind", "max"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["value"] - 2.0) < 1e-9
    assert data["certified_error"] <= 1e-8


def test_bad_poly_json_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"coeffs": [[NaN, 0]]}')
    rc = main(["roots", "--poly", str(path)])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


def test_missing_poly_file(capsys):
    assert main(["roots", "--poly", "/nonexistent/p.json"]) == 1


def test_roots_overflow_is_an_error_not_a_traceback(tmp_path, capsys):
    # Every coefficient is 1e308: values and the coefficient scale sum
    # overflow a float at every start point.
    p = make_poly([1e308, 1e308, 1e308])
    path = tmp_path / "big.json"
    path.write_text(poly_to_json(p))
    rc = main(["roots", "--poly", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_roots_overflow_prints_one_error_line(tmp_path, capsys):
    # The overflow on the way to the error raises no numpy warnings.
    p = make_poly([1e308, 1e308, 1e308])
    path = tmp_path / "big.json"
    path.write_text(poly_to_json(p))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["roots", "--poly", str(path)])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "error: root finder did not converge within 500 iterations\n"
    )


@pytest.mark.parametrize("extra", [[], ["--eps", "1"]])
def test_extrema_overflowing_radius_prints_one_error_line(extra, tmp_path, capsys):
    # r**3 overflows a float at r = 1e200 (P = 1 + z**3).
    path = tmp_path / "cubic.json"
    path.write_text(poly_to_json(make_poly([1, 0, 0, 1])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["extrema", "--poly", str(path), "--radius", "1e200"] + extra)
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: P is not finite on the contour |z| = 1e+200\n"


def test_extrema_large_radius_prints_the_max(tmp_path, capsys):
    # |1 + z**3| is about 1e180 on |z| = 1e60: finite, though its square is not.
    path = tmp_path / "cubic.json"
    path.write_text(poly_to_json(make_poly([1, 0, 0, 1])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["extrema", "--poly", str(path), "--radius", "1e60"])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == pytest.approx(1e180, rel=1e-15)
    assert data["certified_error"] <= 1e-9 * 1e180


def test_threads_flag_is_gone(capsys):
    assert main(["check", "--ineq", "E1", "--trials", "1", "--threads", "2"]) == 1
    assert "error:" in capsys.readouterr().err
