"""Randomized verification suites, fuzz search, and report emission.

Every trial is a pure function of ``(root seed, inequality index, trial
index)``: parameter sampling and polynomial generation run on Philox streams
split by those indices, so any witness in a report can be replayed exactly.
Trials run one after another on the calling thread: each is Python-level
work on small numpy arrays, so a thread pool only contends for the GIL.

Emitted artifacts are byte-stable: JSON keys are sorted and every float is
written in fixed scientific notation with 17 significant digits.  Wall time
is reported on stderr, never in the artifact, so fixed-seed runs reproduce
bit-for-bit (the schema's ``elapsed_s`` field is null in files).
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .generators import (
    GenConfig,
    dominated_pair_with_roots,
    random_zeros_poly_with_roots,
    rng_stream,
)
from .inequalities import (
    DEFAULT_RADII,
    INEQUALITY_IDS,
    REGISTRY,
    InequalityInstance,
    _oriented_slack,
    build_instance,
    check_inequality,
    check_sweep_options,
    evaluate_sides,
)
from .polar import PolarSpec

__all__ = [
    "UsageError",
    "TrialError",
    "TrialRecord",
    "SuiteReport",
    "run_suite",
    "fuzz_search",
    "emit_report",
    "report_to_json",
    "report_to_csv",
    "regenerate_instance",
    "replay_witness",
]

K_CHOICES = (0.3, 0.5, 0.8, 1.0)
K_CHOICES_WIDE = (1.0, 1.25, 2.0, 3.0)  # entries whose hypothesis needs k >= 1
FUZZ_THRESHOLD = -1e-6
FUZZ_RADII = (1.0, 1.0 + 1e-6, 1.05)


class UsageError(ValueError):
    """Bad ids or options; maps to exit code 1 at the CLI."""


class TrialError(RuntimeError):
    """An error raised inside one trial, tagged with its replay key."""

    def __init__(self, ineq_id: str, seed: int, trial: int, exc: BaseException):
        super().__init__(f"{ineq_id} seed {seed} trial {trial}: {type(exc).__name__}: {exc}")
        self.ineq_id, self.seed, self.trial = ineq_id, seed, trial


@dataclass(frozen=True, slots=True)
class TrialRecord:
    ineq_id: str
    trial: int
    seed: int
    n: int
    s: int
    k: float
    alphas: tuple[complex, ...]
    beta: complex
    min_slack: float
    rel_slack: float
    scale: float
    witness_z: Optional[complex]
    passed: bool
    extra: Mapping


@dataclass(frozen=True)
class SuiteReport:
    config: dict
    records: tuple[TrialRecord, ...]
    results: tuple[dict, ...]
    passed: bool
    elapsed_s: float


def _validate_ids(ineq_ids: Sequence[str]) -> tuple[str, ...]:
    ids = tuple(ineq_ids)
    if not ids:
        raise UsageError(f"no inequality ids given; valid ids: {', '.join(INEQUALITY_IDS)}")
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise UsageError(
            f"unknown inequality id(s) {', '.join(unknown)}; "
            f"valid ids: {', '.join(INEQUALITY_IDS)}"
        )
    return ids


def _check_count(name: str, value, least: int) -> int:
    """``value`` as an int, once it is an integer (``operator.index``) >= ``least``.

    UsageError otherwise, so a fractional count is refused before any trial.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise UsageError(f"{name} must be >= {least}, got {count}")
    return count


# ---------------------------------------------------------------------------
# deterministic instance sampling
# ---------------------------------------------------------------------------


def _sample_alpha(rng, k: float, aggressive: bool) -> complex:
    u = rng.random()
    if u < (0.2 if aggressive else 0.05):
        # axis-aligned so |alpha| == k exactly in floating point
        return k * (1j ** int(rng.integers(0, 4)))
    if aggressive:
        mag = rng.uniform(k * (1.0 + 1e-9), 1.05 * k)
    elif u < 0.15:
        mag = 20.0 * k
    else:
        mag = rng.uniform(k * (1.0 + 1e-9), 4.0 * k)
    return complex(mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _sample_beta(rng, aggressive: bool) -> complex:
    u = rng.random()
    boundary_cut = 0.5 if aggressive else 0.25
    if not aggressive and u < 0.1:
        return 0j
    if u < boundary_cut:
        return complex(1j ** int(rng.integers(0, 4)))  # |beta| == 1 exactly
    return complex(
        math.sqrt(rng.uniform(0.0, 0.998)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    )


def regenerate_instance(
    def_id: str, seed: int, trial: int, aggressive: bool = False
) -> InequalityInstance:
    """Rebuild the exact instance that ``(seed, trial)`` produced for an id."""
    defn = REGISTRY[def_id]
    idx = INEQUALITY_IDS.index(def_id)
    rng = rng_stream(seed, idx, trial, 0)
    poly_seed = int(np.random.SeedSequence(seed, spawn_key=(idx, trial, 1)).generate_state(1)[0])

    n = int(rng.integers(2, 13))
    s = defn.fixed_s if defn.fixed_s is not None else int(rng.integers(1, min(3, n - 1) + 1))

    if defn.k_regime in ("unit", "any"):  # "any": no hypothesis on k, so sample k = 1
        k = 1.0
    elif defn.k_regime == "at_least_one":
        k = float(K_CHOICES_WIDE[int(rng.integers(0, len(K_CHOICES_WIDE)))])
    else:
        k = float(K_CHOICES[int(rng.integers(0, len(K_CHOICES)))])

    alphas = tuple(_sample_alpha(rng, k, aggressive) for _ in range(s)) if defn.needs_alphas else ()
    beta = _sample_beta(rng, aggressive) if defn.uses_beta else 0j
    spec = PolarSpec(n=n, s=s, k=k, alphas=alphas, beta=beta)

    if defn.pair:
        v = 0.98 * rng.random()
        if rng.random() < 0.1:
            g1 = complex(v * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            g2 = 0j
        else:
            split = rng.random()
            g1 = complex(v * split * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            g2 = complex(v * (1 - split) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        cfg = GenConfig(n=n, k=k, seed=poly_seed, mode="zeros_inside")
        p, f, roots = dominated_pair_with_roots(cfg, g1, g2)
        return build_instance(def_id, p, spec, f=f, roots=roots)

    cfg = GenConfig(n=n, k=k, seed=poly_seed, mode=defn.zero_mode)
    p, roots = random_zeros_poly_with_roots(cfg)
    return build_instance(def_id, p, spec, roots=roots)


def _run_trial(
    def_id: str,
    seed: int,
    trial: int,
    radii,
    angles_per_radius: int,
    tol_rel: float,
    aggressive: bool = False,
) -> TrialRecord:
    try:
        inst = regenerate_instance(def_id, seed, trial, aggressive=aggressive)
        report = check_inequality(
            inst, radii=radii, angles_per_radius=angles_per_radius, tol_rel=tol_rel
        )
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        raise TrialError(def_id, seed, trial, exc) from exc
    return TrialRecord(
        ineq_id=def_id,
        trial=trial,
        seed=seed,
        n=inst.spec.n,
        s=inst.spec.s,
        k=inst.spec.k,
        alphas=inst.spec.alphas,
        beta=inst.spec.beta,
        min_slack=report.min_slack,
        rel_slack=report.rel_slack,
        scale=report.scale,
        witness_z=report.witness_z,
        passed=report.passed,
        extra=report.extra,
    )


def _replay_key(rec: TrialRecord) -> dict:
    """What ``replay_witness`` needs of a record, plus its parameters."""
    return {
        "seed": rec.seed,
        "trial": rec.trial,
        "n": rec.n,
        "s": rec.s,
        "k": rec.k,
        "alphas": list(rec.alphas),
        "beta": rec.beta,
        "z": rec.witness_z,
    }


def add_counts(total: dict, part: dict) -> None:
    """Add the ``{key: {name: count}}`` tallies of ``part`` into ``total``."""
    for key, counts in part.items():
        into = total.setdefault(key, {})
        for name, count in counts.items():
            into[name] = into.get(name, 0) + count


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def run_suite(
    ineq_ids: Sequence[str],
    trials: int,
    seed: int,
    tol_rel: float = 1e-8,
    radii=DEFAULT_RADII,
    angles_per_radius: int = 512,
) -> SuiteReport:
    """Randomized hypothesis-satisfying trials for each id, aggregated."""
    ids = _validate_ids(ineq_ids)
    trials, seed = _check_count("trials", trials, 1), _check_count("seed", seed, 0)
    try:
        radii = check_sweep_options(radii, angles_per_radius, tol_rel)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    start = time.perf_counter()
    records = [
        _run_trial(def_id, seed, trial, radii, angles_per_radius, tol_rel)
        for def_id in ids
        for trial in range(trials)
    ]

    results = []
    for def_id in ids:
        recs = [r for r in records if r.ineq_id == def_id]
        worst = min(recs, key=lambda r: r.rel_slack)
        entry = {
            "id": def_id,
            "trials": len(recs),
            "passes": sum(r.passed for r in recs),
            "min_rel_slack": worst.rel_slack,
            "witness": _replay_key(worst),
        }
        for rec in recs:
            add_counts(entry, rec.extra)
        results.append(entry)

    elapsed = time.perf_counter() - start
    return SuiteReport(
        config={
            "ids": list(ids),
            "trials": trials,
            "seed": seed,
            "tol_rel": tol_rel,
            "radii": list(radii),
            "angles_per_radius": angles_per_radius,
        },
        records=tuple(records),
        results=tuple(results),
        passed=all(r.passed for r in records),
        elapsed_s=elapsed,
    )


def fuzz_search(
    ineq_ids: Sequence[str],
    budget: int,
    seed: int,
) -> Optional[dict]:
    """Aggressive-parameter search for violations; None when all hold.

    Parameters sit near the hypothesis boundaries (|alpha| close to k,
    |beta| = 1, z close to the unit circle) where slack is smallest.  The
    search stops at the first record with relative slack below -1e-6 and
    returns it (scan order: the given ids in order, then trial index).  The
    theorems being true, any hit is triaged as a numerics defect first.
    """
    ids = _validate_ids(ineq_ids)
    budget, seed = _check_count("budget", budget, 0), _check_count("seed", seed, 0)
    for def_id in ids:
        for trial in range(budget):
            rec = _run_trial(def_id, seed, trial, FUZZ_RADII, 256, 1e-8, aggressive=True)
            if rec.rel_slack < FUZZ_THRESHOLD:
                return {
                    "id": rec.ineq_id,
                    **_replay_key(rec),
                    "min_slack": rec.min_slack,
                    "rel_slack": rec.rel_slack,
                }
    return None


def replay_witness(
    def_id: str, seed: int, trial: int, z: complex, aggressive: bool = False
) -> float:
    """Oriented slack of the regenerated instance at the recorded witness.

    Pass ``aggressive=True`` to replay a witness produced by ``fuzz_search``
    (its parameter sampler differs from the suite's).
    """
    inst = regenerate_instance(def_id, seed, trial, aggressive=aggressive)
    return _oriented_slack(inst.defn, *evaluate_sides(inst, z))


# ---------------------------------------------------------------------------
# stable serialization
# ---------------------------------------------------------------------------


def _stable_dumps(obj) -> str:
    """JSON with sorted keys and fixed 17-significant-digit scientific floats.

    A complex number is written as ``[re, im]``, and numpy scalars as the
    Python numbers they hold.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value in report: {obj}")
        return format(float(obj), ".16e")
    if isinstance(obj, complex):
        return _stable_dumps([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_stable_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            parts.append(json.dumps(str(key)) + ":" + _stable_dumps(obj[key]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_to_json(report: SuiteReport) -> str:
    payload = {
        "config": report.config,
        "results": list(report.results),
        "pass": report.passed,
        # Null in the artifact so fixed-seed runs are byte-identical; the
        # measured wall time goes to stderr instead.
        "elapsed_s": None,
    }
    return _stable_dumps(payload) + "\n"


_CSV_HEADER = (
    "ineq,trial,seed,n,s,k,alphas,beta_re,beta_im,"
    "witness_re,witness_im,min_slack,rel_slack,scale,pass"
)


def _fmt(x: float) -> str:
    return format(float(x), ".16e")


def report_to_csv(report: SuiteReport) -> str:
    lines = [_CSV_HEADER]
    for r in report.records:
        alphas = ";".join(f"{a.real:.16e}{a.imag:+.16e}j" for a in r.alphas)
        wr = _fmt(r.witness_z.real) if r.witness_z is not None else ""
        wi = _fmt(r.witness_z.imag) if r.witness_z is not None else ""
        lines.append(
            ",".join(
                [
                    r.ineq_id,
                    str(r.trial),
                    str(r.seed),
                    str(r.n),
                    str(r.s),
                    _fmt(r.k),
                    alphas,
                    _fmt(r.beta.real),
                    _fmt(r.beta.imag),
                    wr,
                    wi,
                    _fmt(r.min_slack),
                    _fmt(r.rel_slack),
                    _fmt(r.scale),
                    "true" if r.passed else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def emit_report(report: SuiteReport, format: str, path: str) -> None:
    """Write the report; identical reports produce byte-identical files."""
    if format == "json":
        text = report_to_json(report)
    elif format == "csv":
        text = report_to_csv(report)
    else:
        raise UsageError(f'format must be "json" or "csv", got {format!r}')
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
