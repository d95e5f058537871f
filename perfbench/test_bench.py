"""Self-tests of the benchmark's own checks and output contract.

    python3 -m pytest perfbench/test_bench.py -q

They take about two minutes.  The repository's test suite does not collect
them (its ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from polarineq import extrema, inequalities  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tally(workload, seconds=0.01):
    """(attempted, failed, categories) of a run of at least one unit."""
    units = run.measure(workload, seconds)
    failed, categories = run.tally(workload, units)
    return sum(u.ops for u in units), sum(failed), categories


def _flipped_run(workload, ineq_id):
    """(units, failed ops per unit, categories, correct) of one unit run with ``ineq_id`` flipped."""
    with inequalities.rhs_sign_flip(ineq_id):
        units = run.measure(workload, count=1)
        failed, categories = run.tally(workload, units)
        correct, _ = workload.check(units, failed)
    return units, failed, categories, correct


def test_fuzz_checks_catch_a_flipped_inequality():
    workload = workloads.FuzzWorkload(seed=3, ids=("TE2",), budget=2)
    assert _tally(workload)[1] == 0
    units, failed, categories, correct = _flipped_run(workload, "TE2")
    assert sum(failed) / units[0].ops > 0
    assert categories == {"hit:TE2": 1}
    assert not correct


def test_a_fuzz_hit_counts_only_the_trials_that_ran():
    workload = workloads.FuzzWorkload(seed=3, ids=("TE2", "E1"), budget=4)
    units, *_ = _flipped_run(workload, "TE2")
    assert 1 <= units[0].ops <= 4  # the search stopped inside TE2; E1 never ran


def test_suite_checks_catch_a_flipped_inequality():
    workload = workloads.SuiteWorkload(seed=3, ids=("TE2",), trials=2)
    units, failed, _, correct = _flipped_run(workload, "TE2")
    assert units[0].ops == 2 and sum(failed) > 0
    assert not correct


def test_a_timed_run_of_a_cycled_workload_makes_whole_cycles():
    class Cycled:
        cycle = 3

        def unit(self, index):
            time.sleep(0.01)
            return index

    assert run.measure(Cycled(), 0.001) == [0, 1, 2]
    assert len(run.measure(Cycled(), 0.2)) % 3 == 0


def test_certify_checks_catch_wrong_outputs():
    workload = workloads.CertifyWorkload(seed=3)
    unit = workload.unit(0)
    assert workload.failures(unit) == (0, [])
    out = dict(unit.output)
    out["count"] += 1
    out["max"] = dataclasses.replace(out["max"], value=out["max"].value * 0.99)
    failed, found = workload.failures(dataclasses.replace(unit, output=out))
    assert failed == 1 and set(found) == {"count_wrong", "max_witness"}


def test_a_recorded_failure_keeps_no_frames():
    try:
        try:
            raise KeyError("inner")
        except KeyError:
            raise ValueError("outer")
    except ValueError as exc:
        kept = workloads.detached(exc)
    assert kept.__traceback__ is None and kept.__context__.__traceback__ is None


def test_extremum_check_rejects_a_value_beyond_its_certificate():
    inp = workloads.certify_input(3, 0)
    ext = extrema.circle_extremum(inp.poly, inp.k, "max")
    assert workloads.extremum_violation(inp.poly, inp.k, "max", ext) is None
    theta = ext.witness_theta + 0.3  # an achieved modulus below the maximum
    value = abs(inp.poly(inp.k * cmath.exp(1j * theta)))
    wrong = dataclasses.replace(ext, witness_theta=theta, value=value, certified_error=0.0)
    assert workloads.extremum_violation(inp.poly, inp.k, "max", wrong) == "certificate"


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    if workload == "certify_highdeg":
        assert result["attempted"] % workloads.CYCLE == 0
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in wanted}


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "suite_all", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
