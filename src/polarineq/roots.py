"""Numerical root localization and disk-containment predicates.

``find_roots`` runs Aberth-Ehrlich simultaneous iteration on ``Q = P / z**j0``
(the ``j0`` zeros at the origin are exact), started from Bini's Newton-polygon
radii.  Past ``|z| = 1`` it evaluates the reversed polynomial at ``1/z``, so
no value overflows for zeros a double can hold.  An iterate converges when
its backward error ``|Q(z)| / sum(|a_j| * |z|**j)`` is at most ``4 * m * eps``;
NaN or an overflowed scale never converges.  Multiple roots are returned as
clusters (no deflation); containment queries absorb finder error through
``root_tol``.

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
_MAX_ITERATIONS = 500


class RootConvergenceError(RuntimeError):
    """No convergence within the budget; carries the last iterates and residuals."""

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


def _newton_polygon_start(coeffs) -> np.ndarray:
    """Bini's starting points: one circle per edge of the Newton polygon.

    The edge of the upper convex hull of ``(j, log|a_j|)`` from ``i`` to ``k``
    puts ``k - i`` points on the circle of radius
    ``(|a_i| / |a_k|)**(1 / (k - i))`` at fixed angles.
    """
    logs = np.log(np.abs(np.asarray(coeffs)))
    n = len(logs) - 1
    z, i = np.empty(n, dtype=complex), 0
    while i < n:
        slopes = (logs[i + 1:] - logs[i]) / np.arange(1, n - i + 1)
        k = n - int(np.argmax(slopes[::-1]))  # farthest vertex on the steepest chord
        theta = 2.0 * np.pi * (np.arange(k - i) / (k - i) + i / n) + 0.7
        z[i:k] = np.exp(1j * theta - slopes[k - i - 1])
        i = k
    return z


def find_roots(p: Polynomial, max_iterations: int = _MAX_ITERATIONS) -> ZeroLocationReport:
    """All ``degree`` roots with multiplicity, by Aberth iteration."""
    n = p.degree
    if n < 1:
        raise ValueError("root finding needs degree >= 1")
    # P = z**j0 * Q with Q(0) != 0: the zeros at the origin are exact.
    j0 = next(j for j, c in enumerate(p.coeffs) if c != 0)
    q = Polynomial(p.coeffs[j0:])
    m = q.degree
    rev = Polynomial(q.coeffs[::-1])  # R(y) = y**m * Q(1/y)
    near = (q, derivative(q), Polynomial(tuple(abs(c) for c in q.coeffs)))
    far = (rev, derivative(rev), Polynomial(tuple(abs(c) for c in rev.coeffs)))

    def newton(z):
        """Q/Q' as (numerator, denominator), backward error and |P| at z."""
        # Past |z| = 1 (and at NaN): R at y = 1/z, where Q/Q' = z*R / (m*R - y*R').
        inside = np.abs(z) <= 1
        x = np.where(inside, z, 1.0 / z)
        fx, dfx, scale = np.empty_like(z), np.empty_like(z), np.empty(z.shape)
        for mask, (f, df, af) in ((inside, near), (~inside, far)):
            if mask.any():
                fx[mask], dfx[mask] = evaluate(f, x[mask]), evaluate(df, x[mask])
                scale[mask] = evaluate(af, np.abs(x[mask])).real
        num = np.where(inside, fx, fx / x)
        den = np.where(inside, dfx, m * fx - x * dfx)
        resid = np.abs(fx) * np.where(inside, np.abs(x) ** j0, np.abs(x) ** -n)
        # An overflowed scale is no evidence: |P| / inf would read as converged.
        berr = np.where(np.isfinite(scale), np.abs(fx) / scale, np.nan)
        return num, den, berr, resid

    tol = 4 * m * np.finfo(float).eps
    # A hopeless input (overflowing coefficients) ends as RootConvergenceError
    # below, so numpy's overflow and invalid-value warnings on the way are noise.
    with np.errstate(all="ignore"):
        z = _newton_polygon_start(q.coeffs)
        num, den, berr, resid = newton(z)
        met = np.zeros(m, dtype=bool)
        for _ in range(max_iterations):
            # An iterate is frozen once it meets the test twice running: the
            # step after the first time takes it from the edge of the
            # pseudo-zero set to the rounding floor.  NaN never meets it.
            active = ~(met & (berr <= tol))
            if not active.any():
                break
            met = berr <= tol
            diff = z[:, None] - z
            np.fill_diagonal(diff, np.inf)
            s = (1.0 / diff).sum(axis=1)
            z_next = np.where(active, z - num / (den - num * s), z)
            # At a fixed point every further step would repeat this one.
            if np.array_equal(z_next.view(float), z.view(float), equal_nan=True):
                break
            z = z_next
            num[active], den[active], berr[active], resid[active] = newton(z[active])

    if not np.all(berr <= tol):
        raise RootConvergenceError(
            f"root finder did not converge within {max_iterations} iterations",
            z.tolist(),
            resid.tolist(),
        )

    z = np.concatenate([np.zeros(j0, complex), z])
    resid = np.concatenate([np.zeros(j0), resid])
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
