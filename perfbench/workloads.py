"""The benchmark's three workloads: seeded inputs, timed units, output checks.

A unit is what one pair of clock readings times, in wall time and in the
process's CPU time.  For ``suite_all`` and ``fuzz_boundary``
it is one ``run_suite`` or ``fuzz_search`` call over every registry id, which
holds many ops (one op per trial).  For ``certify_highdeg`` it is one
polynomial, which is one op.  Every input is a pure function of the workload
seed and the unit index.  Library functions are looked up on their modules at
call time, so a ``tracing.Tracer`` installed around a run sees every call.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from polarineq import extrema, generators, harness, roots
from polarineq import poly as poly_ops
from polarineq.inequalities import INEQUALITY_IDS

import tracing

_now = time.perf_counter
# CPU clocks exclude time the hypervisor stole from this VM.  Harness calls run
# on worker threads, so they are timed with the whole process's CPU time; a
# certify op runs on the calling thread alone.
_process_cpu = time.process_time
_thread_cpu = time.thread_time

SUITE_TRIALS = 4  # trials per id in one run_suite call
FUZZ_BUDGET = 8  # one full fuzz_search chunk per id at two threads
CERTIFY_DEGREES = (8, 16, 24, 32, 40, 48, 56, 64)
CERTIFY_KS = (0.5, 0.8, 1.0)
DENSE_GRID = 16384
LAYOUT_SEED = 20130301  # certify zero layouts; the same for every workload seed
CYCLE = 72  # certify cells: 8 degrees x 3 zero modes x 3 values of k
_EPS = float(np.finfo(float).eps)

# Captured before any tracer can wrap it: making a certify input is not part
# of the op that certifies it.
_make_poly = generators.random_zeros_poly_with_roots


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])


def fingerprint(output) -> str:
    """Byte-stable text of a unit's output, for repeat-and-compare checks."""
    if isinstance(output, harness.SuiteReport):
        return harness.report_to_json(output)
    if isinstance(output, BaseException):
        return f"{type(output).__name__}: {output}"
    if isinstance(output, dict):
        return "\n".join(f"{k}={fingerprint(v)}" for k, v in sorted(output.items()))
    return repr(output)


def detached(exc: BaseException) -> BaseException:
    """``exc`` with the tracebacks of it and its chained causes dropped.

    A kept traceback keeps the raising frames alive, with their arrays: a
    failed ``circle_extremum`` holds some 100 MB, so a run would grow with
    every failure it records.
    """
    link = exc
    while link is not None:
        link.__traceback__ = None
        link = link.__context__
    return exc


@dataclass
class Unit:
    index: int
    ops: int
    seconds: float
    cpu_seconds: float
    output: object
    inputs: object = None


class _HarnessWorkload:
    """A closed loop of harness calls; op times come from a LatencyProbe."""

    name = ""
    per_trial_probe = True
    cycle = None  # a timed run may stop after any call
    check_layers: dict = {}

    def __init__(self, seed: int, ids=INEQUALITY_IDS):
        self.seed = seed
        self.ids = tuple(ids)
        self.tracer = None

    def _call(self, seed: int) -> tuple[object, int]:
        """(output, ops run) of one harness call."""
        raise NotImplementedError

    def warmup(self) -> None:
        harness.run_suite(self.ids, trials=1, seed=derived_seed(self.seed, 2**31))

    def unit(self, index: int) -> Unit:
        seed = derived_seed(self.seed, index)
        start, cpu_start = _now(), _process_cpu()
        try:
            out, ops = self._call(seed)
        except Exception as exc:  # every op of a call that raises has failed
            out, ops = detached(exc), self.ops_per_unit
        return Unit(index, ops, _now() - start, _process_cpu() - cpu_start, out)

    def ops_per_s(self, units, cpu: bool) -> float:
        """Median over calls of ops per CPU (or wall) second.

        Every call runs the same trial count for every id, unless a fuzz hit
        ends it early.
        """
        return statistics.median(u.ops / (u.cpu_seconds if cpu else u.seconds) for u in units)

    def ok_frac(self, units, failed) -> float:
        """Share of attempted ops that did not fail; ``failed`` counts per unit."""
        return 1.0 - sum(failed) / sum(u.ops for u in units)

    def tail_ms(self, trial_ms) -> tuple[float, float]:
        """The highest percentile of trial times with ten trials beyond it, and that percentile."""
        return tracing.tail(trial_ms)

    def rss_mb(self, rss) -> float:
        """Median resident size between units, from ``(now, peak)`` MB after each unit.

        The peak is set by the single hardest of some 2000 random trials and
        differs from seed to seed, so it is not the bounded figure here.
        """
        return statistics.median(now for now, _ in rss)

    def check(self, units, failed) -> tuple[bool, dict]:
        """No op failed, and unit 0, repeated untimed, reproduces byte for byte.

        The theorems are true, so a FAIL verdict, a fuzz hit or an error is a
        wrong output; ``failed`` counts them per unit.
        """
        first = fingerprint(units[0].output)
        again = fingerprint(self.unit(0).output)
        ok = first == again and not any(failed)
        return ok, {"unit0_sha256": hashlib.sha256(first.encode()).hexdigest()}


class SuiteWorkload(_HarnessWorkload):
    """``run_suite`` with library defaults, as ``polarineq check --ineq ALL`` runs it."""

    name = "suite_all"

    def __init__(self, seed: int, ids=INEQUALITY_IDS, trials: int = SUITE_TRIALS):
        super().__init__(seed, ids)
        self.trials = trials
        self.ops_per_unit = len(self.ids) * trials

    def _call(self, seed: int):
        return harness.run_suite(self.ids, trials=self.trials, seed=seed), self.ops_per_unit

    def failures(self, unit: Unit) -> tuple[int, list[str]]:
        """(failed ops, one failure category per failed op)."""
        if isinstance(unit.output, Exception):
            return unit.ops, [f"suite_error:{type(unit.output).__name__}"] * unit.ops
        found = [f"FAIL:{r.ineq_id}" for r in unit.output.records if not r.passed]
        return len(found), found

    def facts(self) -> dict:
        return {"ids": list(self.ids), "trials_per_id_per_call": self.trials}


class FuzzWorkload(_HarnessWorkload):
    """``fuzz_search``: parameters on the hypothesis boundaries, where slack is near zero."""

    name = "fuzz_boundary"

    def __init__(self, seed: int, ids=INEQUALITY_IDS, budget: int = FUZZ_BUDGET):
        super().__init__(seed, ids)
        self.budget = budget
        self.ops_per_unit = len(self.ids) * budget

    def _call(self, seed: int):
        """(result, trials run): a hit ends the search before the budget is spent."""
        ran = []  # one entry per trial; list.append is atomic across worker threads
        check = harness.check_inequality

        def counted(*args, **kwargs):
            ran.append(None)
            return check(*args, **kwargs)

        harness.check_inequality = counted
        try:
            return harness.fuzz_search(self.ids, budget=self.budget, seed=seed), len(ran)
        finally:
            harness.check_inequality = check

    def failures(self, unit: Unit) -> tuple[int, list[str]]:
        """(failed ops, one failure category per failed op); a hit is one failed op."""
        if isinstance(unit.output, Exception):
            return unit.ops, [f"fuzz_error:{type(unit.output).__name__}"] * unit.ops
        return (0, []) if unit.output is None else (1, [f"hit:{unit.output['id']}"])

    def facts(self) -> dict:
        return {"ids": list(self.ids), "budget_per_id_per_call": self.budget}


@dataclass(frozen=True)
class CertifyInput:
    n: int
    mode: str
    k: float
    poly: object
    ref_moduli: tuple  # planted, or numpy companion eigenvalues when none are planted
    radius: float  # count_zeros_in_disk radius, mid-way across the widest modulus gap
    inside_radius: int  # reference zeros with modulus below ``radius``


def certify_cell(index: int) -> tuple[int, str, float]:
    """(degree, zero mode, k) of certify op ``index``.

    Moduli 8 and 9 are coprime, so every ``CYCLE`` consecutive ops visit each
    of the 72 cells once, and shorter stretches stay balanced in all three.
    """
    return (CERTIFY_DEGREES[index % 8], generators.MODES[index % 3],
            CERTIFY_KS[(index % 9) // 3])


def certify_input(seed: int, index: int) -> CertifyInput:
    """The polynomial of certify op ``index``: a fixed zero layout, turned by the seed.

    How long certification takes depends mostly on how close the zeros come
    to |z| = k, and one draw differs from the next by up to 50x at high
    degree.  So each cell's layout is drawn once from
    ``random_zeros_poly_with_roots`` with a seed that no run changes, and the
    workload seed turns it: ``P(z) -> u * P(t * z)`` with |t| = |u| = 1.  That
    keeps every zero modulus and every circle's |P| values, so runs with
    different seeds certify different polynomials of the same difficulty.
    """
    n, mode, k = certify_cell(index)
    cfg = generators.GenConfig(n=n, k=k, seed=derived_seed(LAYOUT_SEED, index % CYCLE), mode=mode)
    layout, planted = _make_poly(cfg)
    turn, unit = np.exp(2j * np.pi * generators.rng_stream(seed, index).random(2))
    poly = poly_ops.scale(poly_ops.scale_argument(layout, complex(turn)), complex(unit))
    ref = [r / turn for r in planted] if planted else np.roots(np.asarray(poly.coeffs[::-1]))
    moduli = np.sort(np.abs(np.asarray(ref, dtype=complex)))
    gap = int(np.argmax(np.diff(moduli)))
    radius = float(0.5 * (moduli[gap] + moduli[gap + 1]))
    return CertifyInput(n, mode, k, poly, tuple(float(m) for m in moduli), radius, gap + 1)


def extremum_violation(poly, radius: float, kind: str, ext, grid: int = DENSE_GRID):
    """Why ``ext`` disagrees with an independent dense scan of |P| on |z| = radius, or None.

    The scan uses numpy's ``polyval``.  The true extremum lies within
    ``certified_error`` of ``ext.value`` by the certificate, and within
    ``gap`` (a coefficient bound on the slope times half the grid spacing) of
    the best grid sample; ``rho`` bounds the rounding of either evaluation.
    """
    coeffs = np.asarray(poly.coeffs, dtype=complex)
    j = np.arange(len(coeffs))
    weights = np.abs(coeffs) * radius**j
    size = float(weights.sum())
    slope = float((j * weights).sum())
    rho = 8.0 * len(coeffs) * _EPS * size + 4.0 * _EPS * slope
    gap = slope * np.pi / grid
    desc = coeffs[::-1]
    theta = 2.0 * np.pi * np.arange(grid) / grid
    scan = np.abs(np.polyval(desc, radius * np.exp(1j * theta)))
    achieved = abs(np.polyval(desc, radius * np.exp(1j * ext.witness_theta)))
    if abs(achieved - ext.value) > rho:
        return "witness"
    if kind == "max":
        best = float(scan.max())
        ok = best <= ext.value + ext.certified_error + rho and ext.value <= best + gap + rho
    else:
        best = float(scan.min())
        ok = best >= ext.value - ext.certified_error - rho and ext.value >= best - gap - rho
    return None if ok else "certificate"


class CertifyWorkload:
    """Root location, zero counting and circle extrema on degree 8 to 64 polynomials."""

    name = "certify_highdeg"
    per_trial_probe = False
    ops_per_unit = 1
    # A timed run certifies whole passes over the cells, so every run of the
    # same code attempts the same ops and fails the same ones.
    cycle = CYCLE
    # Failure categories found by the checks, and the layer metric each adds to.
    check_layers = {
        "roots_wrong_verdict": "roots.find_roots.wrong_verdicts",
        "roots_unverified": "roots.find_roots.failed",
        "count_wrong": "roots.count_zeros_in_disk.failed",
        "max_certificate": "extrema.circle_extremum.failed",
        "max_witness": "extrema.circle_extremum.failed",
        "min_certificate": "extrema.circle_extremum.failed",
        "min_witness": "extrema.circle_extremum.failed",
    }

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None

    def warmup(self) -> None:
        self._certify(certify_input(self.seed, 0))

    def latencies_ms(self, units, cpu: bool) -> list[float]:
        """One op time (CPU or wall) per cell: the median over that cell's ops.

        The workload weighs its cells equally.  Ops of one cell cost alike
        while cells differ by up to 100x; a timed run makes whole passes, so
        every cell has the same number of ops.
        """
        times = [u.cpu_seconds if cpu else u.seconds for u in units]
        return [1000.0 * statistics.median(cell) for cell in _by_cell(units, times)]

    def ops_per_s(self, units, cpu: bool) -> float:
        return 1000.0 / statistics.fmean(self.latencies_ms(units, cpu))

    def ok_frac(self, units, failed) -> float:
        """Mean over the cells seen of the share of their ops that did not fail."""
        return 1.0 - statistics.fmean(statistics.fmean(f) for f in _by_cell(units, failed))

    def tail_ms(self, cell_ms) -> tuple[float, float]:
        """Mean time of the cells at and beyond the highest percentile with ten cells beyond it.

        Returns that mean and the percentile.  Some fifteen cells of 200 to
        330 ms sit around that percentile, and a single op of theirs varies
        by up to 30% with the load on the host, so the eleventh-slowest cell
        alone moves by that much from run to run.  The mean of the eleven
        slowest cells counts every cell beyond the percentile, the 3 s ones
        too, and moves far less.
        """
        return statistics.fmean(sorted(cell_ms)[-11:]), tracing.tail(cell_ms)[1]

    def rss_mb(self, rss) -> float:
        """Peak resident size of the timed loop, from ``(now, peak)`` MB after each unit.

        Every run certifies the same layouts, so the peak, set by the
        largest ``circle_extremum`` grids, repeats from run to run.
        """
        return rss[-1][1]

    def _certify(self, inp: CertifyInput) -> dict:
        p, k = inp.poly, inp.k
        steps = (
            ("roots", lambda: roots.verify_winding(p, roots.find_roots(p))),
            ("count", lambda: roots.count_zeros_in_disk(p, inp.radius)),
            ("max", lambda: extrema.circle_extremum(p, k, "max")),
            ("min", lambda: extrema.circle_extremum(p, k, "min")),
        )
        out = {}
        for name, step in steps:
            try:
                out[name] = step()
            except Exception as exc:  # recorded as this op's failure
                out[name] = detached(exc)
        return out

    def unit(self, index: int) -> Unit:
        inp = certify_input(self.seed, index)
        span = self.tracer.op(index) if self.tracer else nullcontext()
        with span:
            start, cpu_start = _now(), _thread_cpu()
            out = self._certify(inp)
            seconds, cpu_seconds = _now() - start, _thread_cpu() - cpu_start
        return Unit(index, 1, seconds, cpu_seconds, out, inp)

    def failures(self, unit: Unit) -> tuple[int, list[str]]:
        """(failed ops, failure categories); the op failed when any category is found."""
        inp, out = unit.inputs, unit.output
        found = [f"{step}_error:{type(v).__name__}" for step, v in out.items()
                 if isinstance(v, Exception)]
        rep = out["roots"]
        if not isinstance(rep, Exception):
            truth = (inp.ref_moduli[-1] <= inp.k + rep.root_tol,
                     inp.ref_moduli[0] >= inp.k - rep.root_tol)
            if (rep.contained_in(inp.k), rep.outside_open_disk(inp.k)) != truth:
                found.append("roots_wrong_verdict")
            if not rep.verified_by_winding:
                found.append("roots_unverified")
        if not isinstance(out["count"], Exception) and out["count"] != inp.inside_radius:
            found.append("count_wrong")
        for kind in ("max", "min"):
            if not isinstance(out[kind], Exception):
                why = extremum_violation(inp.poly, inp.k, kind, out[kind])
                if why:
                    found.append(f"{kind}_{why}")
        return int(bool(found)), found

    def check(self, units, failed) -> tuple[bool, dict]:
        """Repeat op 0 untimed; its outputs must reproduce exactly.

        Failed ops do not make the run incorrect here: they are the known
        defects that ``ok_frac`` reports as they stand.
        """
        first = fingerprint(units[0].output)
        again = fingerprint(self.unit(0).output)
        cells = Counter("n={} {} k={}".format(*certify_cell(u.index)) for u in units)
        return first == again, {
            "unit0_sha256": hashlib.sha256(first.encode()).hexdigest(),
            "degree_mode_k_histogram": dict(sorted(cells.items())),
        }

    def facts(self) -> dict:
        return {"degrees": list(CERTIFY_DEGREES), "modes": list(generators.MODES),
                "ks": list(CERTIFY_KS), "dense_grid": DENSE_GRID}


def _by_cell(units, values) -> list[list]:
    """``values`` (one per unit) grouped by the certify cell of each unit."""
    cells: dict = {}
    for u, v in zip(units, values):
        cells.setdefault(certify_cell(u.index), []).append(v)
    return list(cells.values())


WORKLOADS = {w.name: w for w in (SuiteWorkload, FuzzWorkload, CertifyWorkload)}
