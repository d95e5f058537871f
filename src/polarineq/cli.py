"""Command-line interface.

Subcommands: ``check`` (randomized suites), ``sharpness`` (equality-family
probes), ``fuzz`` (boundary-parameter counterexample search), ``roots`` and
``extrema`` (single-polynomial reports).  Exit codes: 0 all checks pass,
2 a violation was found, 1 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .extrema import circle_extremum
from .generators import EXTREMAL_FAMILIES
from .harness import (
    UsageError,
    _stable_dumps,
    emit_report,
    fuzz_search,
    report_to_csv,
    report_to_json,
    run_suite,
)
from .inequalities import DEFAULT_RADII, INEQUALITY_IDS, sharpness_probe
from .polar import PolarSpec
from .poly import poly_from_json
from .roots import find_roots, verify_winding

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the exit-code contract
    # reserves 2 for violations, so route usage problems through UsageError.
    def error(self, message):
        raise UsageError(message)


def _split_ids(raw: str) -> list[str]:
    if raw.strip().upper() == "ALL":
        return list(INEQUALITY_IDS)
    return [part.strip() for part in raw.split(",") if part.strip()]


def _split_radii(raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad radii list {raw!r}: {exc}") from exc


def _read_poly(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return poly_from_json(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read polynomial file {path}: {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="polarineq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run randomized inequality suites")
    check.add_argument("--ineq", required=True, help='comma-separated ids or "ALL"')
    check.add_argument("--trials", type=int, default=200)
    check.add_argument("--seed", type=int, default=42)
    check.add_argument("--tol", type=float, default=1e-8)
    check.add_argument("--radii", type=str, default=",".join(str(r) for r in DEFAULT_RADII))
    check.add_argument("--angles", type=int, default=512)
    check.add_argument("--format", choices=("json", "csv"), default="json")
    check.add_argument("--out", type=str, default=None)

    sharp = sub.add_parser("sharpness", help="probe an equality family")
    sharp.add_argument("--ineq", required=True)
    sharp.add_argument("--family", required=True, choices=EXTREMAL_FAMILIES)
    sharp.add_argument("--n", type=int, required=True)
    sharp.add_argument("--alpha", type=float, default=None)
    sharp.add_argument("--k", type=float, default=1.0)
    sharp.add_argument("--a", type=float, default=None)
    sharp.add_argument("--b", type=float, default=None)

    fuzz = sub.add_parser("fuzz", help="search for violations near hypothesis boundaries")
    fuzz.add_argument("--ineq", required=True)
    fuzz.add_argument("--budget", type=int, required=True)
    fuzz.add_argument("--seed", type=int, default=7)

    roots = sub.add_parser("roots", help="locate all roots of a polynomial")
    roots.add_argument("--poly", required=True, help="path to polynomial JSON")

    extrema = sub.add_parser("extrema", help="certified extremum of |P| on a circle")
    extrema.add_argument("--poly", required=True)
    extrema.add_argument("--radius", type=float, default=1.0)
    extrema.add_argument("--kind", choices=("max", "min"), default="max")
    extrema.add_argument("--eps", type=float, default=None)

    return parser


def _cmd_check(args) -> int:
    report = run_suite(
        _split_ids(args.ineq),
        trials=args.trials,
        seed=args.seed,
        tol_rel=args.tol,
        radii=_split_radii(args.radii),
        angles_per_radius=args.angles,
    )
    if args.out:
        emit_report(report, args.format, args.out)
    else:
        sys.stdout.write(report_to_csv(report) if args.format == "csv" else report_to_json(report))
    failures = sum(1 for r in report.records if not r.passed)
    print(
        f"checked {len(report.records)} trials across "
        f"{len(report.config['ids'])} inequalities: "
        f"{'all passed' if report.passed else f'{failures} violations'} "
        f"({report.elapsed_s:.1f}s)",
        file=sys.stderr,
    )
    return 0 if report.passed else 2


def _cmd_sharpness(args) -> int:
    ids = _split_ids(args.ineq)
    if len(ids) != 1:
        raise UsageError("sharpness probes one inequality at a time")
    alphas = (complex(args.alpha),) if args.alpha is not None else ()
    spec = PolarSpec(n=args.n, s=1 if alphas else 0, k=args.k, alphas=alphas)
    slack = sharpness_probe(ids[0], args.family, spec, a=args.a, b=args.b)
    sys.stdout.write(
        _stable_dumps(
            {
                "ineq": ids[0],
                "family": args.family,
                "n": args.n,
                "min_rel_slack": float(slack),
            }
        )
        + "\n"
    )
    return 0


def _cmd_fuzz(args) -> int:
    hit = fuzz_search(_split_ids(args.ineq), args.budget, args.seed)
    if hit is None:
        print("no violation found", file=sys.stderr)
        return 0
    sys.stdout.write(_stable_dumps(hit) + "\n")
    return 2


def _write_fields(report) -> None:
    # Every field of a report dataclass, as one stable JSON line.
    sys.stdout.write(_stable_dumps(dataclasses.asdict(report)) + "\n")


def _cmd_roots(args) -> int:
    p = _read_poly(args.poly)
    _write_fields(verify_winding(p, find_roots(p)))
    return 0


def _cmd_extrema(args) -> int:
    p = _read_poly(args.poly)
    _write_fields(circle_extremum(p, args.radius, args.kind, eps=args.eps))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "check": _cmd_check,
            "sharpness": _cmd_sharpness,
            "fuzz": _cmd_fuzz,
            "roots": _cmd_roots,
            "extrema": _cmd_extrema,
        }[args.command]
        return handler(args)
    # UsageError is a ValueError.
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
