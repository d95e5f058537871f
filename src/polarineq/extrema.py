"""Certified maxima and minima of |P| on circles |z| = r.

Every call works at unit scale: it certifies ``P * 2**-e``, where ``2**e``
is the power of two just above ``sum |a_j| r**j``, and scales the value and
the certified error back.  A power of two scales every FFT, Horner, hypot
and sqrt step exactly, and at that scale |P| < 1, so no square below
overflows or underflows.  A P below the normal float range is a ValueError.

The square ``f(theta) = |P(r e^{i theta})|**2`` is a trigonometric polynomial
whose Fourier coefficients follow directly from the polynomial coefficients,
so coefficient-sum bounds ``L2`` on |f''| and ``L3`` on |f'''| are available
without invoking any of the derivative inequalities this package exists to
test.  An extremum of f inside a bracket of width d is either an end of the
bracket or a stationary point, and a stationary point sits at most
``q(d) = L2*(d/2)**2/2`` above (below) the nearer end.

``circle_extremum`` is a branch-and-bound over one frontier of brackets of
angles (Piyavskii 1972; Shubert 1972), each carrying the complex values of P
at its two ends:

- The first level samples P on a uniform grid of ``8 * (degree + 1)``
  angles or more, rounded up to a power of two, with one FFT
  (``poly.circle_values``).  Every gap between neighbouring samples is a
  bracket.  The best sample is polished at once, by safeguarded Newton
  steps on ``f'(theta) = 0`` with P, P' and P'' (each step clipped to the
  grid spacing, and none taken once its predicted gain in f is below the
  rounding of f).
- A bracket's bound on |P| is its better end modulus plus the stationary
  slack ``q(width)``, widened by ``rho``: an explicit bound on the rounding
  error of one evaluation of P, by FFT or by Horner, of a few units of
  roundoff per degree times ``sum |a_j| r**j``.  A tolerance below ``4*rho``
  is declared unattainable before anything is evaluated.
- Basin certificate (the second-order test of interval branch-and-bound,
  Hansen & Walster 2004): the polish leaves f' and f'' at its witness, with
  rounding bounds from ``sum j |a_j| r**j`` and ``sum j**2 |a_j| r**j``.  If
  f'' less its error still has the sign of the extremum, by a margin c,
  then f is (c/2)-strongly concave (convex) on the arc of half-width
  ``c / (2*L3)`` about the witness, so on that arc |P| is capped (floored)
  by the witness value and ``f'**2 / c``.  A bracket that lies wholly on
  the arc takes the tighter of its own bound and that one, which prunes the
  whole basin at the first level; most calls of the suite end there.  A
  flat |P| such as ``|z**n|`` has no such arc.
- Each level prunes the brackets whose bound cannot beat the incumbent by
  more than the tolerance, cuts every survivor into equal parts (up to 32,
  aiming at about 1024 new angles per level, never fewer than 2 parts) and
  evaluates all the new angles in one batched ``poly.evaluate`` pass.
- The global ``L2`` does not shrink with min |P|, so near a deep minimum
  it would keep thousands of brackets alive.  Each min bracket also takes
  the chord bound: |P| is at least the distance from 0 to the chord
  between a bracket's end values, less ``rho`` and ``M2 * width**2 / 8``
  with ``M2 = sum j**2 |a_j| r**j`` (the interpolation error of a chord,
  which holds for complex-valued functions); max calls use moduli alone.
- When the frontier is empty, the worst pruned bound certifies the
  incumbent.  An incumbent that a level sample set, rather than the first
  polish, is polished the same way.

The value is then the extremum of its basin to rounding, but another local
extremum within the tolerance of the global one may be the basin found:
callers that need the value tighter than that ask for a smaller ``eps``.

One evaluated-point budget of ``2**22`` caps the work of a call, and a level
may add at most an eighth of it, which keeps the frontier's arrays small; a
call that would exceed either raises ``ToleranceUnattainableError``.  The
default tolerance is ``1e-9 * modulus_bound(p, max(1, r))``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial, circle_values, derivative, evaluate, modulus_bound

__all__ = ["CircleExtremum", "ToleranceUnattainableError", "circle_extremum"]

_BUDGET = 2**22  # evaluated points per call; a level adds at most _BUDGET // 8
_MAX_SPLIT = 32  # most parts one bracket is cut into
_LEVEL_POINTS = 1024  # new points per level that the split aims at
_POLISH_STEPS = 8
_MACHINE_EPS = float(np.finfo(float).eps)


class ToleranceUnattainableError(ValueError):
    pass


@dataclass(frozen=True)
class CircleExtremum:
    kind: str
    radius: float
    value: float
    witness_theta: float
    certified_error: float


def _abs_sq_fourier(b: np.ndarray) -> np.ndarray:
    # c_l = sum_j b_{j+l} * conj(b_j), l = 0..degree, for b_j = a_j * r**j
    return np.correlate(b, b, "full")[len(b) - 1:]


def _vector_eval(p: Polynomial, r: float, theta: np.ndarray) -> np.ndarray:
    # One level's values, in one batched pass; tests patch this seam to see
    # each level's angles.
    return evaluate(p, r * np.exp(1j * theta))


class _Certifier:
    """Coefficient-sum bounds on f = |P(r e^{i theta})|**2 and on its rounding."""

    def __init__(self, p: Polynomial, r: float):
        self.b = np.asarray(p.coeffs, dtype=complex) * r ** np.arange(len(p.coeffs))
        # The first level's grid, at least 8 samples per coefficient.
        self.grid = 1 << max(6, (8 * len(self.b) - 1).bit_length())
        fourier = _abs_sq_fourier(self.b)
        ls = np.arange(1, len(fourier))
        self.lip2 = float(2.0 * np.sum(ls**2 * np.abs(fourier[1:])))
        self.lip3 = float(2.0 * np.sum(ls**3 * np.abs(fourier[1:])))
        # Bound on |computed P - P| at any angle: Horner's error, the rounding
        # of r*exp(i*theta) (through |P'|) and the FFT's log2(grid) stages are
        # each a few units of roundoff times sum |b_j|.  The same holds for
        # z P' and z**2 P'' with sum j |b_j| and sum j**2 |b_j|.
        unit = 8.0 * _MACHINE_EPS * (len(self.b) + math.log2(self.grid))
        absb = np.abs(self.b)
        js = np.arange(len(self.b))
        self.m2 = float(np.sum(js**2 * absb))  # bounds |d**2 P / d theta**2|
        self.rho = unit * float(absb.sum())
        self.rho1 = unit * float(np.sum(js * absb))
        self.rho2 = unit * self.m2

    def basin(self, theta: float, pz: complex, d1: complex, d2: complex, maximize: bool):
        """``(starts, span, bound)`` for the basin of a polished witness, or None.

        ``pz``, ``d1`` and ``d2`` are P, z P' and z**2 P'' at ``theta``, and
        the f' and f'' computed from them are within ``e1`` and ``e2`` of the
        true ones.  If ``c``, the computed -f'' (f'' for a min) less ``e2``,
        is positive, then |f'''| <= ``lip3`` makes f (c/2)-strongly concave
        (convex) on I = [theta - h, theta + h] with h = c / (2 lip3), so on I
        f lies below (above) f(theta) + f'(theta)**2 / c.  ``bound`` is that
        cap (floor) on |P|.  I is the arc of length ``span`` from
        ``theta - h``; ``starts`` holds that start and its copies 2 pi away,
        which reach every bracket on I since h <= pi/2 (f'' has mean zero, so
        it changes sign within pi of theta, and at least 2h away).
        """
        grad, curv = _slope_and_curvature(pz, d1, d2)
        a, m1, m12 = abs(pz), abs(d1), abs(d1 + d2)
        rho, rho1, rho12 = self.rho, self.rho1, self.rho1 + self.rho2
        e1 = 2.0 * (rho * m1 + (a + rho) * rho1) + 8.0 * _MACHINE_EPS * a * m1
        e2 = (2.0 * rho1 * (2.0 * m1 + rho1) + 2.0 * (rho * (m12 + rho12) + a * rho12)
              + 8.0 * _MACHINE_EPS * (m1 * m1 + a * m12))
        c = (-curv if maximize else curv) - e2
        if not (c > 0.0 and self.lip3 > 0.0):
            return None
        h = c / (2.0 * self.lip3)
        drop = (abs(grad) + e1) ** 2 / c
        if maximize:
            bound = math.sqrt((a + rho) ** 2 + drop)
        else:
            bound = math.sqrt(max(0.0, max(a - rho, 0.0) ** 2 - drop))
        starts = theta - h + 2.0 * math.pi * np.array([-1.0, 0.0, 1.0])
        return starts, 2.0 * h, bound

    def stationary_slack(self, spacing: float) -> float:
        # How far above/below the nearest sample a stationary point of f can sit.
        return 0.5 * self.lip2 * (spacing / 2.0) ** 2

    def chord_bound(self, v_lo: np.ndarray, v_hi: np.ndarray, width: float) -> np.ndarray:
        """Lower bounds on |P| over brackets of ``width`` from P at their ends.

        On a bracket, P is within ``M2 * width**2 / 8`` of its chord, where
        ``M2 = sum j**2 |b_j|`` bounds |d**2 P / d theta**2|, and the computed
        ends are within ``rho`` of P.  A chord that is a point or has a NaN
        end gives NaN, which ``np.fmax`` passes over.
        """
        d = v_hi - v_lo
        dd = d.real**2 + d.imag**2
        t = np.divide(-(v_lo.real * d.real + v_lo.imag * d.imag), dd,
                      out=np.full(dd.shape, np.nan), where=dd > 0)
        dist = np.abs(v_lo + np.clip(t, 0.0, 1.0) * d)
        return dist - self.rho - self.m2 * width**2 / 8.0


def _wrap(theta: float) -> float:
    t = theta % (2.0 * math.pi)
    return 0.0 if t >= 2.0 * math.pi else t


def _slope_and_curvature(pz: complex, d1: complex, d2: complex) -> tuple[float, float]:
    # f' and f'' from P, z P' and z**2 P'' at z = r e^{i theta}.
    grad = -2.0 * (pz.conjugate() * d1).imag
    curv = 2.0 * abs(d1) ** 2 - 2.0 * (pz.conjugate() * (d1 + d2)).real
    return grad, curv


def _polish(p: Polynomial, r: float, theta: float, maximize: bool, reach: float):
    """Safeguarded Newton on f'(theta) = 0 from ``theta``.

    Returns the witness, |P| there, and P, z P' and z**2 P'' there.  Steps
    are clipped to ``reach`` and taken only while f'' has the sign of the
    extremum; a step is kept only if |P| improves.  The value is always
    that of the returned witness.
    """
    dp = derivative(p)
    d2p = derivative(dp)
    best = None
    t = _wrap(theta)
    for _ in range(_POLISH_STEPS):
        z = r * complex(math.cos(t), math.sin(t))
        pz = evaluate(p, z)
        v = abs(pz)
        if best is not None and not (v > best[1] if maximize else v < best[1]):
            break
        d1 = z * evaluate(dp, z)
        d2 = z * z * evaluate(d2p, z)
        best = (t, v, pz, d1, d2)
        grad, curv = _slope_and_curvature(pz, d1, d2)
        # A Newton step gains about grad**2 / (2 |curv|) in f; below f's
        # rounding it could improve |P| by rounding noise alone.
        if not (curv < 0.0 if maximize else curv > 0.0) or (
            grad * grad <= 2.0 * abs(curv) * _MACHINE_EPS * v * v
        ):
            break
        t = _wrap(t - max(-reach, min(reach, grad / curv)))
    return best


def circle_extremum(
    p: Polynomial, r: float, kind: str, eps: float | None = None
) -> CircleExtremum:
    """Certified max or min of |P| on |z| = r.

    ``value`` is always an achieved modulus, recomputable as
    ``abs(evaluate(p, r*complex(math.cos(t), math.sin(t))))`` for
    ``t = witness_theta``, and ``certified_error <= eps`` bounds
    ``|true - value|``.  For ``kind="min"`` the value may be (numerically)
    zero when P vanishes on the circle; callers treating the minimum as a
    strict-positivity witness must require ``value > certified_error``.
    Raises ValueError when ``sum |a_j| r**j`` overflows a float or is below
    the normal float range.
    """
    if p.is_zero:
        raise ValueError("extremum of the zero polynomial is undefined")
    if kind not in ("max", "min"):
        raise ValueError(f'kind must be "max" or "min", got {kind!r}')
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"radius must be positive, got {r}")
    size = modulus_bound(p, r)
    if not math.isfinite(size):
        raise ValueError(f"P is not finite on the contour |z| = {r}")
    if not size >= sys.float_info.min:
        raise ValueError(f"P is below the normal float range on the contour |z| = {r}")
    if eps is None:
        eps = 1e-9 * modulus_bound(p, max(1.0, r))
    if not eps > 0:
        raise ValueError(f"tolerance must be positive, got {eps}")
    # Certify P * 2**-e, where 2**e is just above size, and scale back: a
    # power of two scales every FFT, Horner, hypot and sqrt step exactly, and
    # at unit scale |P|**2, the bounds on its derivatives and the square of
    # f' stay finite.  A tolerance past 2*size prunes every first-level
    # bracket, as any larger one does, so capping it keeps its scaled copy finite.
    e = math.frexp(size)[1]
    try:
        p = Polynomial(tuple(complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
                             for c in p.coeffs))
    except OverflowError:
        raise ValueError(f"a coefficient of P overflows at unit scale on |z| = {r}") from None
    tol = math.ldexp(min(eps, 2.0 * size), -e)

    maximize = kind == "max"
    cert = _Certifier(p, r)
    rho = cert.rho
    # The bounds carry rho per evaluation, the pruning margin two more.
    if not tol > 4.0 * rho:
        raise ToleranceUnattainableError(
            f"tolerance {eps:.3g} is below the rounding bound {math.ldexp(4.0 * rho, e):.3g}"
        )

    width = 2.0 * math.pi / cert.grid
    left = width * np.arange(cert.grid)
    grid = circle_values(p, r, cert.grid)
    v_lo, v_hi = grid, np.roll(grid, -1)  # P at each bracket's ends
    mods = np.abs(grid)
    best = int(mods.argmax() if maximize else mods.argmin())
    inc_t, inc_v, *at_witness = _polish(p, r, float(left[best]), maximize, width)
    basin = cert.basin(inc_t, *at_witness, maximize)
    moved = False  # whether a level sample has beaten the polished grid best
    pruned = -math.inf if maximize else math.inf
    used = cert.grid
    while True:
        # A bound on |P| over each bracket: its better end modulus, within rho
        # of |P|, and the stationary slack of |P|**2 for its width.  A min
        # bracket also takes the chord bound, and a bracket inside the basin
        # the basin's bound, when that is tighter.
        slack = cert.stationary_slack(width)
        m_lo, m_hi = np.abs(v_lo), np.abs(v_hi)
        if maximize:
            bound = np.sqrt(np.maximum(m_lo, m_hi) ** 2 + slack) + rho
        else:
            low = np.maximum(np.minimum(m_lo, m_hi) - rho, 0.0) ** 2 - slack
            bound = np.fmax(np.sqrt(np.fmax(low, 0.0)), cert.chord_bound(v_lo, v_hi, width))
        if basin is not None:
            # ``left`` is sorted, so the brackets wholly on the arc, or on
            # its copies 2 pi away, are contiguous runs.
            starts, span, cap = basin
            firsts = left.searchsorted(starts, "left")
            stops = left.searchsorted(starts + (span - width), "right")
            for i, j in zip(firsts.tolist(), stops.tolist()):
                if i < j:
                    bound[i:j] = (np.fmin if maximize else np.fmax)(bound[i:j], cap)
        if maximize:
            keep = bound > inc_v + tol - 2.0 * rho
        else:
            keep = bound < inc_v - tol + 2.0 * rho
        out = bound[~keep]
        if len(out):
            pruned = max(pruned, float(out.max())) if maximize else min(pruned, float(out.min()))
        if not keep.any():
            break
        left, v_lo, v_hi = left[keep], v_lo[keep], v_hi[keep]
        split = min(_MAX_SPLIT, max(2, _LEVEL_POINTS // len(left)))
        new = len(left) * (split - 1)
        used += new
        if used > _BUDGET or new > _BUDGET // 8:
            raise ToleranceUnattainableError(
                f"tolerance {eps:.3g} needs more evaluated points than {_BUDGET}"
            )
        cuts = width / split * np.arange(split)
        theta = (left[:, None] + cuts[None, 1:]).ravel()
        values = _vector_eval(p, r, theta).reshape(len(left), split - 1)
        inner = np.abs(values)
        best = int(inner.argmax() if maximize else inner.argmin())
        if inner.flat[best] > inc_v if maximize else inner.flat[best] < inc_v:
            inc_t, inc_v = float(theta[best]), float(inner.flat[best])
            moved = True
        row = np.concatenate([v_lo[:, None], values, v_hi[:, None]], axis=1)
        left = (left[:, None] + cuts[None, :]).ravel()
        v_lo, v_hi = row[:, :-1].ravel(), row[:, 1:].ravel()
        width /= split

    if moved:
        inc_t, inc_v, *_ = _polish(p, r, inc_t, maximize, width)
    err = max(pruned - inc_v if maximize else inc_v - pruned, rho)
    if not err <= tol:
        raise ToleranceUnattainableError(
            f"certified error {math.ldexp(err, e):.3g} exceeds {eps:.3g}"
        )
    return CircleExtremum(kind, float(r), math.ldexp(inc_v, e), float(inc_t), math.ldexp(err, e))
