"""Polar-derivative operator, iterated chains, and their constants.

The polar derivative of a degree-n polynomial P with respect to a point
``alpha`` is ``n*P(z) + (alpha - z)*P'(z)``; it has degree at most n-1 and
recovers the ordinary derivative through ``D_alpha P / alpha -> P'`` as
``|alpha| -> inf``.  Chains iterate the operator with the degree context
stepping down by one at each position, regardless of any accidental degree
collapse in between.

This module is where that derivative limit lives: a spec with no polar
points means every ``alpha_j`` has gone to infinity, so its chain is
``P^(s)`` and its ``Lambda_s`` is the empty product 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import Polynomial, make_poly, sth_derivative

__all__ = [
    "PolarSpec",
    "polar_derivative",
    "polar_chain",
    "falling_factorial",
    "lambda_product",
]


@dataclass(frozen=True)
class PolarSpec:
    """Parameter bundle for one inequality instance.

    ``alphas`` holds ``s`` polar points, or none: an empty ``alphas`` is the
    derivative limit, which ``polar_chain`` and ``lambda_product`` read as
    ``P^(s)`` and 1.  Hypothesis-level constraints (``|alpha_j| >= k``,
    ``|beta| <= 1``, the k-regime of a particular inequality) are checked
    where instances are built, by ``inequalities.build_instance``.
    """

    n: int
    s: int
    k: float
    alphas: tuple[complex, ...] = ()
    beta: complex = 0j

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"nominal degree must be >= 1, got {self.n}")
        if self.s < 0:
            raise ValueError(f"chain length must be >= 0, got {self.s}")
        if self.s >= 1 and self.s > self.n - 1:
            raise ValueError(f"chain length {self.s} exceeds n-1 = {self.n - 1}")
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError(f"critical radius must be positive, got {self.k}")
        object.__setattr__(self, "alphas", tuple(complex(a) for a in self.alphas))
        object.__setattr__(self, "beta", complex(self.beta))
        if len(self.alphas) not in (0, self.s):
            raise ValueError(
                f"expected 0 or {self.s} polar points, got {len(self.alphas)}"
            )


def polar_derivative(p: Polynomial, n: int, alpha: complex) -> Polynomial:
    """``n*P + (alpha - z)*P'`` with explicit degree context ``n``.

    Coefficient j of the result is ``(n-j)*a_j + alpha*(j+1)*a_{j+1}``, so
    the nominal top coefficient always cancels and the degree drops by at
    least one (more when ``n*a_n*alpha + a_{n-1} == 0``).
    """
    if p.is_zero:
        return p
    if n < p.degree:
        raise ValueError(f"degree context too small: {n} < degree {p.degree}")
    a = list(p.coeffs) + [0j]
    al = complex(alpha)
    out = [(n - j) * a[j] + al * (j + 1) * a[j + 1] for j in range(len(p.coeffs))]
    return make_poly(out)


def polar_chain(p: Polynomial, spec: PolarSpec) -> Polynomial:
    """Fold the polar derivative over ``spec.alphas``.

    Step j uses degree context ``n - j + 1`` by position, matching the chain
    recurrence.  With no polar points the chain is its derivative limit
    ``P^(s)`` (so s == 0 is the trivial passthrough).  The result has degree
    at most ``n - s``; ``polar_derivative`` raises on a degree context below
    P's degree.
    """
    if not spec.alphas:
        return sth_derivative(p, spec.s)
    out = p
    for j, alpha in enumerate(spec.alphas):
        out = polar_derivative(out, spec.n - j, alpha)
    return out


def falling_factorial(n: int, s: int) -> int:
    """``n*(n-1)*...*(n-s+1)``; the empty product (s == 0) is 1."""
    if s < 0 or n < 0 or s > n:
        raise ValueError(f"falling factorial undefined for n={n}, s={s}")
    return math.prod(range(n - s + 1, n + 1))


def lambda_product(spec: PolarSpec) -> float:
    """Product of the distances ``|alpha_j| - k``; zero on the boundary.

    With no polar points (the derivative limit) it is the empty product 1.
    Any ``|alpha_j| < k`` is an error rather than a clamped value: inequality
    checkers must never run an out-of-hypothesis instance silently.
    """
    out = 1.0
    for a in spec.alphas:
        d = abs(a) - spec.k
        if d < 0:
            raise ValueError(
                f"hypothesis violated: |alpha_j| >= k (|{a}| = {abs(a)} < {spec.k})"
            )
        out *= d
    return out
