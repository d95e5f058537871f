"""Dense univariate polynomials over the complex numbers.

Coefficients are stored in ascending order (``coeffs[j]`` multiplies
``z**j``) and the representation is exact-degree: trailing coefficients that
are exactly zero are trimmed at construction, so ``degree == len(coeffs) - 1``
for every nonzero polynomial.  The zero polynomial is the empty tuple with
``degree == -1`` and ``is_zero == True``.

All values are immutable and every operation is a pure function, so
polynomials can be shared freely between concurrent checkers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "make_poly",
    "evaluate",
    "horner",
    "circle_values",
    "modulus_bound",
    "derivative",
    "sth_derivative",
    "add",
    "scale",
    "poly_from_roots",
    "conjugate_reciprocal",
    "scale_argument",
    "poly_to_json",
    "poly_from_json",
]


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial; ``coeffs[j]`` is the coefficient of z**j."""

    coeffs: tuple[complex, ...]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Exact degree; -1 flags the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, z):
        return evaluate(self, z)


def make_poly(coeffs: Sequence[complex]) -> Polynomial:
    """Build a polynomial from ascending coefficients, trimming exact zeros.

    An all-zero sequence yields the canonical zero polynomial; an empty
    sequence is rejected.  The trim tolerance is exact equality only:
    silently dropping an almost-zero leading coefficient would corrupt the
    degree used by every downstream formula.
    """
    if len(coeffs) == 0:
        raise ValueError("empty coefficient sequence")
    cs = [complex(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return Polynomial(tuple(cs))


def horner(coeffs, z: np.ndarray) -> np.ndarray:
    """Horner pass over the array ``z``; ``coeffs[j]`` multiplies ``z**j``.

    This is the package's one array evaluation kernel.  Each coefficient is
    a scalar or an array that broadcasts against ``z``, so one pass can
    evaluate a different polynomial at each point.  Leading zero
    coefficients leave the accumulator exactly zero at finite points.
    """
    acc = np.zeros(z.shape, dtype=complex)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def evaluate(p: Polynomial, z):
    """Horner evaluation of ``p`` at ``z`` (scalar complex or numpy array).

    The inequality sides and the extremum levels call it; an array goes
    through ``horner``.
    """
    if isinstance(z, np.ndarray):
        return horner(p.coeffs, z)
    zc = complex(z)
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * zc + c
    return acc


def circle_values(p: Polynomial, r: float, samples: int) -> np.ndarray:
    """``P(r * e^{2 pi i k / samples})`` for k = 0..samples-1, from one FFT.

    The values are ``samples * ifft(a_j * r**j, samples)``, each within a few
    units of roundoff per FFT stage times ``sum |a_j| r**j`` of the exact
    one.  Fewer samples than coefficients would make ifft truncate the
    coefficients, so that is an error.
    """
    if samples < len(p.coeffs):
        raise ValueError(f"{samples} samples cannot carry {len(p.coeffs)} coefficients")
    b = np.asarray(p.coeffs, dtype=complex) * r ** np.arange(len(p.coeffs))
    return np.fft.ifft(b, samples) * samples


def modulus_bound(p: Polynomial, r: float) -> float:
    """``sum(|a_j| * r**j)``, an upper bound for ``|P(z)|`` on ``|z| = r``; inf on overflow."""
    try:
        return float(sum(abs(c) * r ** j for j, c in enumerate(p.coeffs)))
    except OverflowError:
        return math.inf


def derivative(p: Polynomial) -> Polynomial:
    # j * a_j is nonzero whenever a_j is (j >= 1), so no retrim is needed.
    return Polynomial(tuple(j * p.coeffs[j] for j in range(1, len(p.coeffs))))


def sth_derivative(p: Polynomial, s: int) -> Polynomial:
    """s-fold formal derivative; s == 0 returns ``p`` unchanged."""
    if s < 0:
        raise ValueError(f"derivative order must be >= 0, got {s}")
    for _ in range(s):
        if p.is_zero:
            break
        p = derivative(p)
    return p


def add(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    m = max(len(p.coeffs), len(q.coeffs))
    cs = [0j] * m
    for j, c in enumerate(p.coeffs):
        cs[j] += c
    for j, c in enumerate(q.coeffs):
        cs[j] += c
    return make_poly(cs)


def scale(p: Polynomial, c: complex) -> Polynomial:
    if p.is_zero or c == 0:
        return Polynomial(())
    return make_poly([c * a for a in p.coeffs])


def poly_from_roots(roots: Sequence[complex], lead: complex) -> Polynomial:
    """Monomial expansion of ``lead * prod(z - r_i)``; degree == len(roots)."""
    if lead == 0:
        raise ValueError("degenerate leading coefficient")
    cs = [complex(lead)]
    for r in roots:
        rc = complex(r)
        nxt = [0j] * (len(cs) + 1)
        for j, c in enumerate(cs):
            nxt[j + 1] += c
            nxt[j] -= rc * c
        cs = nxt
    return Polynomial(tuple(cs))


def conjugate_reciprocal(p: Polynomial, n: int) -> Polynomial:
    """Reverse-and-conjugate transform at nominal degree ``n``.

    Returns the polynomial with coefficients ``conj(a[n-j])``, i.e.
    ``z**n * conj(P(1/conj(z)))``.  The degree context is explicit because
    the transform depends on the nominal degree, not on the numerical degree
    of ``p`` (low-order zero coefficients of the result are legitimate).
    """
    if n < p.degree:
        raise ValueError(f"context degree {n} below polynomial degree {p.degree}")
    if p.is_zero:
        return p
    padded = list(p.coeffs) + [0j] * (n + 1 - len(p.coeffs))
    return make_poly([padded[n - j].conjugate() for j in range(n + 1)])


def scale_argument(p: Polynomial, c: complex) -> Polynomial:
    """Coefficients ``a_j * c**j``; represents the map z -> P(c*z)."""
    if p.is_zero:
        return p
    cs = []
    cj = 1 + 0j
    for a in p.coeffs:
        cs.append(a * cj)
        cj *= complex(c)
    return make_poly(cs)


def poly_to_json(p: Polynomial) -> str:
    """Serialize as ``{"coeffs": [[re, im], ...]}`` (ascending powers)."""
    coeffs = p.coeffs if p.coeffs else (0j,)
    return json.dumps({"coeffs": [[c.real, c.imag] for c in coeffs]})


def poly_from_json(text: str) -> Polynomial:
    """Parse the JSON polynomial format, rejecting NaN/Inf entries."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid polynomial JSON: {exc}") from exc
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ValueError('polynomial JSON must be an object with a "coeffs" key')
    raw = data["coeffs"]
    if not isinstance(raw, list) or not raw:
        raise ValueError('"coeffs" must be a nonempty list of [re, im] pairs')
    cs = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError('each coefficient must be an [re, im] pair')
        re, im = item
        # JSON true/false parse as bool, which is an int subclass.
        if any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in item):
            raise ValueError("coefficient entries must be numbers")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError("non-finite coefficient rejected")
        cs.append(complex(re, im))
    return make_poly(cs)
