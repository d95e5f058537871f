"""Benchmark of polarineq: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload suite_all --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md): ``suite_all``, ``fuzz_boundary``,
``certify_highdeg``.  Each is a closed loop with one caller in this process,
using the library's default thread count.  With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics from
a traced replay of the ops an untraced first half completed.  Lines before
the last one are JSON facts about the machine, the inputs and the failures.
The program is imported from ``src/`` of the checkout holding this file; the
run exits with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 7
_SETUP_CHILD = (
    "import time\n"
    "t = time.thread_time()\n"
    "import polarineq\n"
    "print(time.thread_time() - t)\n"
    "print(polarineq.__file__)\n"
)
_now = time.perf_counter


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> float:
    """Median CPU time of the thread importing polarineq in a fresh interpreter.

    One warm-up import comes first and is not counted.
    """
    env = dict(os.environ)
    env.pop("POLARINEQ_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=True)
        seconds, path = done.stdout.split("\n")[:2]
        if not _from_src(path):
            raise RuntimeError(f"fresh interpreter imported polarineq from {path}")
        times.append(float(seconds))
    return statistics.median(times[1:])


def machine_facts() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "library_threads": os.cpu_count(),  # run_suite's default with POLARINEQ_THREADS unset
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def cpu_ticks() -> list[int] | None:
    """Machine-wide CPU tick counters (user ... steal), or None where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    if before is None or after is None:
        return None
    spent = [b - a for a, b in zip(before, after)]
    return spent[7] / sum(spent) if sum(spent) else 0.0


def resident_mb() -> tuple[float, float]:
    """Resident set size of this process now, and its peak so far."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        now = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    return now, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float | None = None, count: int | None = None,
            rss: list | None = None) -> list:
    """Run units until ``seconds`` of wall time have passed, or exactly ``count`` units.

    A workload with a ``cycle`` runs whole cycles of that many units when
    timed: the first always, and another only while the last one took no
    longer than what is left of ``seconds``.  Its attempted and failed
    counts then do not depend on where the clock cut a cycle.
    When ``rss`` is a list, ``resident_mb()`` after each unit is appended to it.
    """
    units = []

    def run_unit():
        units.append(workload.unit(len(units)))
        if rss is not None:
            rss.append(resident_mb())

    start = _now()
    if count is not None:
        while len(units) < count:
            run_unit()
    elif workload.cycle:
        while True:
            cycle_start = _now()
            for _ in range(workload.cycle):
                run_unit()
            now = _now()
            if now - cycle_start > seconds - (now - start):
                break
    else:
        while _now() - start < seconds:
            run_unit()
    return units


def tally(workload, units) -> tuple[list[int], Counter]:
    """Failed ops per unit, and how often each failure category was found."""
    failed, categories = [], Counter()
    for unit in units:
        n_failed, found = workload.failures(unit)
        failed.append(n_failed)
        categories.update(found)
    return failed, categories


def run_untraced(workload, seconds: float, tracing):
    """Timed units, op time samples in ms (CPU, wall) and ``resident_mb()`` after each unit.

    The samples are per trial on the suite workloads and per cell on
    ``certify_highdeg`` (see ``CertifyWorkload.latencies_ms``).
    """
    rss = []
    if not workload.per_trial_probe:
        units = measure(workload, seconds, rss=rss)
        return units, workload.latencies_ms(units, True), workload.latencies_ms(units, False), rss
    probe = tracing.LatencyProbe()
    with probe.installed():
        units = measure(workload, seconds, rss=rss)
    return units, probe.samples_ms(True), probe.samples_ms(False), rss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "polarineq" / "__init__.py").is_file():
        print(f"error: no polarineq sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("POLARINEQ_THREADS", None)
    sys.path.insert(0, str(SRC))
    import polarineq

    if not _from_src(polarineq.__file__):
        print(f"error: polarineq imported from {polarineq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    setup_s = measure_setup() if args.trace == 0 else None
    workload = WORKLOADS[args.workload](args.seed)
    workload.warmup()
    ticks = cpu_ticks()
    # A traced run spends half its time untraced, for the overhead figure.
    untraced_s = args.seconds if args.trace == 0 else args.seconds / 2
    units, cpu_ms, wall_ms, rss = run_untraced(workload, untraced_s, tracing)
    peak_rss_mb = resident_mb()[1]
    steal = steal_frac(ticks, cpu_ticks())
    if args.trace == 1:
        untraced_rate = workload.ops_per_s(units, cpu=True)
        tracer = tracing.Tracer()
        workload.tracer = tracer
        with tracer.installed():
            units = measure(workload, count=len(units))
        workload.tracer = None

    if not cpu_ms:
        print("error: no op completed, so there is no latency to report", file=sys.stderr)
        return 1
    failed_per_unit, categories = tally(workload, units)
    attempted, failed = sum(u.ops for u in units), sum(failed_per_unit)
    correct, check_facts = workload.check(units, failed_per_unit)
    tail_ms, tail_pct = workload.tail_ms(cpu_ms)

    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_cpu_s": (workload.ops_per_s(units, cpu=True), "1/s"),
            "op_cpu_p50_ms": (statistics.median(cpu_ms), "ms"),
            "op_cpu_tail_ms": (tail_ms, "ms"),
            "ok_frac": (workload.ok_frac(units, failed_per_unit), "fraction"),
            "rss_mb": (workload.rss_mb(rss), "MB"),
        }
    else:
        layer = tracer.layer_metrics(attempted)
        for category, name in workload.check_layers.items():
            layer[name] += categories[category] / attempted
        layer["trace.ops_per_cpu_s"] = workload.ops_per_s(units, cpu=True)
        layer["trace.overhead_pct"] = 100.0 * (1.0 - layer["trace.ops_per_cpu_s"] / untraced_rate)
        metrics = {name: (layer[name], unit) for name, unit in tracing.per_layer_names()}

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": len(units),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failure_categories": dict(categories.most_common()),
        "latency_samples": len(cpu_ms),
        "op_tail_percentile": tail_pct,
        "wall_ops_per_s": workload.ops_per_s(units, cpu=False),
        "wall_op_p50_ms": statistics.median(wall_ms),
        "wall_op_tail_ms": workload.tail_ms(wall_ms)[0],
        "cpu_steal_frac": steal,
        "peak_rss_mb": peak_rss_mb,
        **workload.facts(),
        **check_facts,
        **machine_facts(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
