"""Numerical root localization and disk-containment predicates.

``find_roots`` runs Aberth-Ehrlich simultaneous iteration from deterministic
golden-angle initial guesses on the Cauchy-bound circle, then polishes with
Newton steps.  Convergence is judged by residuals: a root is accepted when
``|P(r)| <= 1e-10 * sum(|a_j| * max(1,|r|)**j)``, and a residual or scale
that overflowed to inf or NaN is non-convergence, never a pass.  Multiple
roots are returned as clusters (no deflation); containment queries absorb
finder error through ``root_tol``.

``count_zeros_in_disk`` counts zeros by accumulating the phase of P along the
circle (argument principle) and is fully independent of the iterative finder,
so the two can cross-check each other.  Both evaluate P and P' with
``poly.evaluate``.

For polynomials whose roots are known by construction (generators plant
them), ``zero_location_evidence`` verifies the declared roots reproduce the
coefficients and reports containment from the declared values.  Raw moduli
from the iterative finder lose ``eps**(1/m)`` digits on multiplicity-m
clusters, which would otherwise defeat the 1e-7 containment tolerance on
polynomials like ``(z+1)**6``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .poly import Polynomial, derivative, evaluate, modulus_bound, poly_from_roots

__all__ = [
    "ROOT_TOL",
    "ZeroLocationReport",
    "RootConvergenceError",
    "find_roots",
    "count_zeros_in_disk",
    "verify_winding",
    "zero_location_evidence",
]

ROOT_TOL = 1e-7
_RESIDUAL_FACTOR = 1e-10
_MAX_ITERATIONS = 500


class RootConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best iterate found."""

    def __init__(self, message: str, roots, residuals):
        super().__init__(message)
        self.roots = tuple(roots)
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class ZeroLocationReport:
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    max_modulus: float
    min_modulus: float
    root_tol: float = ROOT_TOL
    verified_by_winding: bool = False

    def contained_in(self, k: float) -> bool:
        """All zeros in the closed disk |z| <= k, up to finder tolerance."""
        return self.max_modulus <= k + self.root_tol

    def outside_open_disk(self, k: float) -> bool:
        """No zeros in the open disk |z| < k (boundary zeros allowed)."""
        return self.min_modulus >= k - self.root_tol


def _residual_scales(abs_coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    # sum(|a_j| * max(1,|z|)**j) per point
    base = np.maximum(1.0, np.abs(z))
    scales = np.zeros(z.shape)
    power = np.ones(z.shape)
    for a in abs_coeffs:
        scales += a * power
        power *= base
    return scales


def find_roots(p: Polynomial, max_iterations: int = _MAX_ITERATIONS) -> ZeroLocationReport:
    """All ``degree`` roots with multiplicity, by simultaneous iteration."""
    n = p.degree
    if n < 1:
        raise ValueError("root finding needs degree >= 1")
    dp = derivative(p)
    coeffs = np.asarray(p.coeffs, dtype=complex)
    abs_coeffs = np.abs(coeffs)

    monic = np.abs(coeffs / coeffs[-1])
    radius = 1.0 + float(monic[:-1].max())
    # Golden-angle spacing breaks root symmetries without any seed.
    idx = np.arange(n)
    theta = 2.0 * np.pi * ((idx * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0) + 0.5
    z = radius * np.exp(1j * theta)

    target = np.empty(n)
    resid = np.empty(n)
    best_resid = np.inf
    stall = 0
    used = 0
    fixed = False
    # Overflow far from the roots ends as RootConvergenceError below, so
    # numpy's overflow and invalid-value warnings on the way are noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iterations):
            used += 1
            pv = evaluate(p, z)
            resid = np.abs(pv)
            target = _RESIDUAL_FACTOR * _residual_scales(abs_coeffs, z)
            # Push to the machine floor so multiple-root clusters tighten as
            # far as rounding allows, not just to the acceptance threshold.
            if np.all(resid <= 1e-15 * target / _RESIDUAL_FACTOR):
                break
            worst = float((resid / target).max())
            if worst < best_resid * 0.5:
                best_resid = worst
                stall = 0
            else:
                stall += 1
                if stall > 25 and np.all(resid <= target):
                    break
            dv = evaluate(dp, z)
            dv = np.where(dv == 0, 1e-300, dv)
            w = pv / dv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = (1.0 / diff).sum(axis=1)
            denom = 1.0 - w * s
            corr = np.where(np.abs(denom) > 1e-300, w / denom, w)
            corr = np.where(np.isfinite(corr), corr, w)
            active = resid > 1e-15 * target / _RESIDUAL_FACTOR
            z_next = np.where(active, z - corr, z)
            # At a fixed point every further step, and the polish, would
            # repeat this one, so the verdict is taken from this iterate.
            if np.array_equal(z_next.view(float), z.view(float), equal_nan=True):
                fixed = True
                break
            z = z_next

        # Newton polish for anything still above the acceptance threshold;
        # the polish shares the caller's iteration budget.
        if not fixed:
            pv = evaluate(p, z)
            resid = np.abs(pv)
            target = _RESIDUAL_FACTOR * _residual_scales(abs_coeffs, z)
            for _ in range(min(40, max(0, max_iterations - used))):
                bad = resid > target
                if not bad.any():
                    break
                dv = evaluate(dp, z)
                dv = np.where(dv == 0, 1e-300, dv)
                step = np.where(bad, pv / dv, 0)
                z = z - step
                pv = evaluate(p, z)
                resid = np.abs(pv)
                target = _RESIDUAL_FACTOR * _residual_scales(abs_coeffs, z)

    # A non-finite residual or target (overflow far from the roots) is no
    # evidence of convergence, though inf <= inf would compare true.
    if not (np.isfinite(target).all() and np.all(resid <= target)):
        raise RootConvergenceError(
            f"root finder did not converge within {max_iterations} iterations",
            z.tolist(),
            resid.tolist(),
        )

    moduli = np.abs(z)
    order = np.lexsort((z.imag, z.real))
    return ZeroLocationReport(
        roots=tuple(complex(c) for c in z[order]),
        residuals=tuple(float(r) for r in resid[order]),
        max_modulus=float(moduli.max()),
        min_modulus=float(moduli.min()),
    )


def count_zeros_in_disk(p: Polynomial, r: float) -> int:
    """Winding number of ``P(r*e^{i*theta})`` around the origin.

    Samples the circle densely, doubling the grid until every phase step is
    below pi/2.  Errors out when a root sits close to the contour, i.e. some
    sample has ``|P| < 1e-9 * modulus_bound(p, r)`` (the count would be
    ill-defined), or when the doubling budget is exhausted.
    """
    n = p.degree
    if n < 1:
        raise ValueError("zero counting needs degree >= 1")
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"radius must be positive, got {r}")
    scale = modulus_bound(p, r)
    samples = 4096 * math.ceil(n / 8 + 1)
    while True:
        theta = 2.0 * np.pi * np.arange(samples) / samples
        w = evaluate(p, r * np.exp(1j * theta))
        if np.abs(w).min() < 1e-9 * scale:
            raise ValueError("root near contour")
        steps = np.angle(np.roll(w, -1) / w)
        if np.abs(steps).max() < np.pi / 2:
            total = float(steps.sum())
            winding = round(total / (2.0 * np.pi))
            return int(winding)
        samples *= 2
        if samples > 2**20:
            raise ValueError("phase step too large")


def verify_winding(p: Polynomial, report: ZeroLocationReport) -> ZeroLocationReport:
    """Cross-check the full root count on a safely enclosing circle."""
    radius = 1.25 * report.max_modulus + 0.25
    count = count_zeros_in_disk(p, radius)
    return replace(report, verified_by_winding=(count == len(report.roots)))


def zero_location_evidence(
    p: Polynomial, declared_roots=None, max_iterations: int = _MAX_ITERATIONS
) -> ZeroLocationReport:
    """Zero-location report, from declared roots when the caller has them.

    Declared roots are only trusted after regenerating the coefficients from
    them and matching ``p`` to 1e-8 relative; this sidesteps the m-th-root
    error blowup of iteratively located multiple roots.
    """
    if declared_roots is None:
        return find_roots(p, max_iterations=max_iterations)
    declared = tuple(complex(r) for r in declared_roots)
    if len(declared) != p.degree:
        raise ValueError(
            f"declared {len(declared)} roots for a degree-{p.degree} polynomial"
        )
    rebuilt = poly_from_roots(declared, p.coeffs[-1])
    scale = max(abs(c) for c in p.coeffs)
    err = max(abs(a - b) for a, b in zip(rebuilt.coeffs, p.coeffs))
    if err > 1e-8 * scale:
        raise ValueError("declared roots do not reproduce the polynomial")
    moduli = [abs(r) for r in declared]
    return ZeroLocationReport(
        roots=declared,
        residuals=tuple(abs(evaluate(p, r)) for r in declared),
        max_modulus=max(moduli),
        min_modulus=min(moduli),
    )
