"""Certified maxima and minima of |P| on circles |z| = r.

The square ``f(theta) = |P(r e^{i theta})|**2`` is a trigonometric polynomial
whose Fourier coefficients follow directly from the polynomial coefficients,
so coefficient-sum bounds on f' and f'' are available without invoking any of
the derivative inequalities this package exists to test.  Because the global
extremum of the smooth periodic f is a stationary point, it can exceed the
best sample of a spacing-d grid by at most ``q(d) = min(Lf*d/2,
L2*(d/2)**2/2)``.

Certification is two-stage.  A uniform grid (plus ternary refinement around
the best brackets) gives the value and a first certificate; when that is too
loose, every bracket that could still contain the global extremum (sample
within ``q`` of the best) is densified at a spacing chosen so the residual
``q`` meets the requested tolerance.  Past ``2**22`` evaluated points per
stage the tolerance is declared unattainable.  Grids are evaluated with
``poly.evaluate`` in blocks of ``2**14`` angles, and the default tolerance
is ``1e-9 * modulus_bound(p, max(1, r))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial, evaluate, modulus_bound

__all__ = ["CircleExtremum", "ToleranceUnattainableError", "circle_extremum"]

_MAX_GRID = 2**22
_MAX_CANDIDATES = 1024
_BLOCK = 2**14


class ToleranceUnattainableError(ValueError):
    pass


@dataclass(frozen=True)
class CircleExtremum:
    kind: str
    radius: float
    value: float
    witness_theta: float
    certified_error: float


def _abs_sq_fourier(coeffs: np.ndarray, r: float) -> np.ndarray:
    # c_l = sum_j b_{j+l} * conj(b_j) with b_j = a_j * r**j, l = 0..degree
    b = coeffs * r ** np.arange(len(coeffs))
    n = len(b)
    return np.array([np.sum(b[l:] * np.conj(b[: n - l])) for l in range(n)])


def _vector_eval_sq(p: Polynomial, r: float, theta: np.ndarray) -> np.ndarray:
    # Evaluate over blocks of _BLOCK angles, so the complex temporaries stay
    # cache-sized (a whole 2**22-point grid of z would set the peak memory);
    # every element is computed exactly as in one whole-array pass.
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape)
    for start in range(0, len(theta), _BLOCK):
        z = r * np.exp(1j * theta[start:start + _BLOCK])
        out[start:start + _BLOCK] = np.abs(evaluate(p, z)) ** 2
    return out


def _ternary(f, lo: float, hi: float, maximize: bool, iters: int = 90):
    """Ternary search on the bracket, tracking the best point ever seen."""
    sign = -1.0 if maximize else 1.0
    best_t, best_v = lo, sign * f(lo)
    for t in (hi, 0.5 * (lo + hi)):
        v = sign * f(t)
        if v < best_v:
            best_v, best_t = v, t
    for _ in range(iters):
        if hi - lo < 1e-13:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        v1 = sign * f(m1)
        v2 = sign * f(m2)
        if v1 < best_v:
            best_v, best_t = v1, m1
        if v2 < best_v:
            best_v, best_t = v2, m2
        if v1 <= v2:
            hi = m2
        else:
            lo = m1
    return best_t, sign * best_v


class _Certifier:
    def __init__(self, p: Polynomial, r: float):
        self.p = p
        self.r = r
        fourier = _abs_sq_fourier(np.asarray(p.coeffs, dtype=complex), r)
        ls = np.arange(1, len(fourier))
        self.lip1 = float(2.0 * np.sum(ls * np.abs(fourier[1:])))
        self.lip2 = float(2.0 * np.sum(ls**2 * np.abs(fourier[1:])))

    def stationary_slack(self, spacing: float) -> float:
        # How far above/below the nearest sample a stationary point of f can sit.
        half = spacing / 2.0
        return min(self.lip1 * half, 0.5 * self.lip2 * half**2)

    def spacing_for(self, q_target: float) -> float:
        # Largest spacing whose stationary slack stays below q_target.
        opts = []
        if self.lip1 > 0:
            opts.append(2.0 * q_target / self.lip1)
        if self.lip2 > 0:
            opts.append(2.0 * math.sqrt(2.0 * q_target / self.lip2))
        return max(opts) if opts else math.inf

    def f_scalar(self, theta: float) -> float:
        v = evaluate(self.p, self.r * complex(math.cos(theta), math.sin(theta)))
        return abs(v) ** 2


def _certified_error(kind: str, value: float, f_extreme: float, q: float) -> float:
    if kind == "max":
        return max(math.sqrt(max(f_extreme, value**2) + q) - value, 0.0)
    return max(value - math.sqrt(max(f_extreme - q, 0.0)), 0.0)


def circle_extremum(
    p: Polynomial, r: float, kind: str, eps: float | None = None
) -> CircleExtremum:
    """Certified max or min of |P| on |z| = r.

    ``value`` is always an achieved modulus, recomputable as
    ``abs(evaluate(p, r*exp(1j*witness_theta)))``, and ``certified_error``
    bounds ``|true - value|``.  For ``kind="min"`` the value may be
    (numerically) zero when P vanishes on the circle; callers treating the
    minimum as a strict-positivity witness must require
    ``value > certified_error``.
    """
    if p.is_zero:
        raise ValueError("extremum of the zero polynomial is undefined")
    if kind not in ("max", "min"):
        raise ValueError(f'kind must be "max" or "min", got {kind!r}')
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"radius must be positive, got {r}")
    if eps is None:
        eps = 1e-9 * modulus_bound(p, max(1.0, r))
    if not eps > 0:
        raise ValueError(f"tolerance must be positive, got {eps}")

    cert = _Certifier(p, r)
    maximize = kind == "max"
    samples = max(4096, 64 * p.degree)
    while samples <= _MAX_GRID:
        theta = 2.0 * np.pi * np.arange(samples) / samples
        vals = _vector_eval_sq(p, r, theta)
        spacing = 2.0 * np.pi / samples
        q_grid = cert.stationary_slack(spacing)
        grid_extreme = float(vals.max() if maximize else vals.min())

        # Stage 1: refine the best three brackets and certify off the grid.
        order = np.argpartition(vals, -3)[-3:] if maximize else np.argpartition(vals, 3)[:3]
        best_t, best_f = None, None
        for i in order:
            t, fv = _ternary(cert.f_scalar, float(theta[i]) - spacing,
                             float(theta[i]) + spacing, maximize)
            if best_f is None or (fv > best_f if maximize else fv < best_f):
                best_t, best_f = t, fv
        witness = best_t % (2.0 * np.pi)
        value = abs(evaluate(p, r * complex(math.cos(witness), math.sin(witness))))
        err = _certified_error(kind, value, grid_extreme, q_grid)
        if err <= eps:
            return CircleExtremum(kind, float(r), float(value), float(witness), float(err))

        # Stage 2: densify every bracket that could still hide the extremum.
        if maximize:
            cand = np.nonzero(vals >= grid_extreme - q_grid)[0]
        else:
            cand = np.nonzero(vals <= grid_extreme + q_grid)[0]
        if len(cand) <= _MAX_CANDIDATES:
            if maximize:
                q_target = max(2.0 * value * eps, eps**2)
            else:
                q_target = 2.0 * value * eps - eps**2
            fine_spacing = min(cert.spacing_for(q_target), spacing) if q_target > 0 else spacing
            pts = int(math.ceil(2.0 * spacing / max(fine_spacing, 1e-14))) + 1
            if pts * len(cand) <= _MAX_GRID:
                offsets = np.linspace(-spacing, spacing, pts)
                fine = (theta[cand][:, None] + offsets[None, :]).ravel()
                fvals = _vector_eval_sq(p, r, fine)
                idx = int(fvals.argmax() if maximize else fvals.argmin())
                fine_extreme = float(fvals[idx])
                t, fv = _ternary(cert.f_scalar, float(fine[idx]) - fine_spacing,
                                 float(fine[idx]) + fine_spacing, maximize)
                if (fv > fine_extreme) if maximize else (fv < fine_extreme):
                    cand_t = t
                else:
                    cand_t = float(fine[idx])
                witness = cand_t % (2.0 * np.pi)
                value = abs(evaluate(p, r * complex(math.cos(witness), math.sin(witness))))
                q_fine = cert.stationary_slack(fine_spacing)
                # Brackets excluded above cannot contain the extremum, so the
                # fine sweep bounds it with the fine-grid slack.
                err = _certified_error(
                    kind, value, fine_extreme if not maximize else max(fine_extreme, value**2), q_fine
                )
                if err <= eps:
                    return CircleExtremum(
                        kind, float(r), float(value), float(witness), float(err)
                    )
        samples *= 4
    raise ToleranceUnattainableError("tolerance unattainable at this degree")
