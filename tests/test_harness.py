"""Suite orchestration, determinism, serialization, and replay tests."""

import dataclasses
import hashlib
import json
import math

import pytest

from polarineq import (
    INEQUALITY_IDS,
    ToleranceUnattainableError,
    TrialError,
    UsageError,
    fuzz_search,
    regenerate_instance,
    replay_witness,
    run_suite,
)
from polarineq import harness, inequalities
from polarineq.cli import main
from polarineq.harness import emit_report, report_to_csv, report_to_json
from polarineq.inequalities import rhs_sign_flip


def test_run_suite_te1_fifty_trials():
    rep = run_suite(["TE1"], 50, seed=42)
    entry = rep.results[0]
    assert entry["passes"] == 50 and entry["trials"] == 50
    assert rep.passed


def test_run_suite_single_trial():
    rep = run_suite(["E1"], 1, seed=7)
    assert rep.passed


def test_run_suite_unknown_id():
    with pytest.raises(UsageError) as excinfo:
        run_suite(["TE9"], 1, seed=1)
    assert "valid ids" in str(excinfo.value)
    for good in INEQUALITY_IDS:
        assert good in str(excinfo.value)


def test_run_suite_bad_trials():
    with pytest.raises(UsageError):
        run_suite(["E1"], 0, seed=1)


def test_negative_seed_is_a_usage_error():
    # Checked before the first trial, like trials and budget: no trial error.
    with pytest.raises(UsageError, match=r"^seed must be >= 0, got -1$"):
        run_suite(["E1"], 1, seed=-1)
    with pytest.raises(UsageError, match=r"^seed must be >= 0, got -3$"):
        fuzz_search(["E1"], 1, seed=-3)


def test_fractional_count_is_a_usage_error():
    # trials, budget and seed are integers (operator.index), so a float is
    # refused before the first trial, not a TypeError from inside one.
    with pytest.raises(UsageError, match=r"^trials must be an integer, got 2\.5$"):
        run_suite(["E1"], 2.5, 1)
    with pytest.raises(UsageError, match=r"^budget must be an integer, got 2\.5$"):
        fuzz_search(["E1"], 2.5, 1)
    with pytest.raises(UsageError, match=r"^seed must be an integer, got 1\.5$"):
        run_suite(["E1"], 2, 1.5)


def test_reports_byte_identical_across_runs():
    a = run_suite(["E2", "LE4"], 4, seed=11)
    b = run_suite(["E2", "LE4"], 4, seed=11)
    assert report_to_json(a) == report_to_json(b)
    assert report_to_csv(a) == report_to_csv(b)


def test_report_bytes_pinned():
    # sha256 of the reports of `polarineq check --ineq ALL --trials 1`.  A
    # change that moves these bytes changes the verifier's output: it records
    # the old and new hashes in CHANGES.md and updates them here.
    rep = run_suite(list(INEQUALITY_IDS), 1, seed=42)
    assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == (
        "f6deb0b0ddf6af49bf8a3075a81d6b807a7b72940aa6d573085d196766a9497e"
    )
    assert hashlib.sha256(report_to_csv(rep).encode()).hexdigest() == (
        "ea3d607fd6614459826ad4229e5c18c5b81501d14f8ea0a92a34b22255add0f6"
    )


def test_records_are_slotted_and_share_the_empty_extra():
    rep = run_suite(["E1", "TE3"], 10, seed=19)
    assert all(not hasattr(r, "__dict__") for r in rep.records)
    e1 = [r for r in rep.records if r.ineq_id == "E1"]
    assert all(r.extra is e1[0].extra for r in e1) and not e1[0].extra
    with pytest.raises(TypeError):
        e1[0].extra["min_term_sign_counts"] = {}
    assert rep.results[1]["min_term_sign_counts"] == {"neg": 266, "nonneg": 20214}


def test_non_finite_sides_are_a_trial_error(monkeypatch):
    defn = inequalities.REGISTRY["E5"]
    monkeypatch.setitem(inequalities.REGISTRY, "E5",
                        dataclasses.replace(defn, sides=lambda inst, z: (1.0, math.nan)))
    with pytest.raises(TrialError, match=r"E5 seed 3 trial 0: ValueError: E5: slack is not finite"):
        run_suite(["E5"], 2, seed=3)


def test_trial_error_names_the_replay_key(monkeypatch, capsys):
    real = harness.check_inequality
    calls = []

    def failing(inst, **kwargs):
        calls.append(inst)
        if len(calls) == 3:
            raise ToleranceUnattainableError("needs more evaluated points")
        return real(inst, **kwargs)

    monkeypatch.setattr(harness, "check_inequality", failing)
    with pytest.raises(TrialError) as excinfo:
        run_suite(["TE1"], 5, seed=8)
    err = excinfo.value
    assert (err.ineq_id, err.seed, err.trial) == ("TE1", 8, 2)
    assert isinstance(err.__cause__, ToleranceUnattainableError)
    assert str(err) == (
        "TE1 seed 8 trial 2: ToleranceUnattainableError: needs more evaluated points"
    )

    calls.clear()
    assert main(["check", "--ineq", "TE1", "--trials", "5", "--seed", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {err}"]
    assert captured.out == ""


def test_json_schema_round_trip():
    rep = run_suite(["TE2"], 3, seed=5)
    data = json.loads(report_to_json(rep))
    assert set(data) == {"config", "results", "pass", "elapsed_s"}
    assert data["elapsed_s"] is None  # wall time lives on stderr, not in files
    assert data["pass"] is True
    entry = data["results"][0]
    assert set(entry) == {"id", "trials", "passes", "min_rel_slack", "witness"}
    assert set(entry["witness"]) == {"seed", "trial", "n", "s", "k", "alphas", "beta", "z"}


def test_te3_sign_counts_in_results():
    rep = run_suite(["TE3"], 2, seed=5)
    data = json.loads(report_to_json(rep))
    counts = data["results"][0]["min_term_sign_counts"]
    assert counts["neg"] >= 0 and counts["nonneg"] >= 0


def test_csv_has_row_per_trial():
    rep = run_suite(["E1", "TE2"], 3, seed=5)
    lines = report_to_csv(rep).strip().splitlines()
    assert len(lines) == 1 + 2 * 3
    assert lines[0].startswith("ineq,trial,seed,")


def test_emit_report_files_byte_identical(tmp_path):
    rep = run_suite(["LE3"], 2, seed=19)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(rep, "json", str(p1))
    emit_report(rep, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    c1 = tmp_path / "a.csv"
    emit_report(rep, "csv", str(c1))
    assert c1.read_text().startswith("ineq,")
    with pytest.raises(UsageError):
        emit_report(rep, "yaml", str(tmp_path / "x.yaml"))


def test_replay_worst_witness():
    rep = run_suite(["TE2", "LE4"], 5, seed=33)
    for entry in rep.results:
        w = entry["witness"]
        if w["z"] is None:
            continue
        slack = replay_witness(entry["id"], w["seed"], w["trial"], w["z"])
        recorded = next(
            r.min_slack
            for r in rep.records
            if r.ineq_id == entry["id"] and r.trial == w["trial"]
        )
        assert abs(slack - recorded) <= 1e-12 * max(abs(recorded), 1.0)


def test_regenerate_is_deterministic():
    a = regenerate_instance("TE2", 99, 4)
    b = regenerate_instance("TE2", 99, 4)
    assert a.p.coeffs == b.p.coeffs
    assert a.spec == b.spec


def test_fuzz_budget_zero():
    assert fuzz_search(["TE2"], 0, seed=7) is None


def test_fuzz_finds_nothing_on_valid_theorems():
    assert fuzz_search(["TE1", "LE4"], 15, seed=7) is None


def test_fuzz_finds_injected_sign_flip():
    with rhs_sign_flip("TE2"):
        hit = fuzz_search(["TE2"], 100, seed=7)
    assert hit is not None
    assert hit["id"] == "TE2"
    assert hit["rel_slack"] < -1e-6
    # the same trial is clean without the mutation
    assert fuzz_search(["TE2"], hit["trial"] + 1, seed=7) is None


def test_fuzz_stops_at_first_hit(monkeypatch):
    calls = []
    check = harness.check_inequality

    def counted(*args, **kwargs):
        calls.append(None)
        return check(*args, **kwargs)

    monkeypatch.setattr(harness, "check_inequality", counted)
    with rhs_sign_flip("TE2"):
        hit = fuzz_search(["TE2"], 100, seed=7)
    assert hit is not None
    assert len(calls) == hit["trial"] + 1  # no trial runs after the hit
