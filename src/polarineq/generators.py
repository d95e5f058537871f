"""Deterministic seeded generators for hypothesis-satisfying polynomials.

All randomness flows through numpy's Philox bit generator keyed by a
``SeedSequence``; independent streams are split with ``spawn_key`` so that
every trial is replayable from ``(seed, trial index)`` alone, whatever ran
before it.  Where a generator plants roots it also returns them, so
hypothesis checks can verify zero locations from the construction instead of
re-deriving multiple roots numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extrema import circle_extremum
from .poly import Polynomial, add, make_poly, modulus_bound, poly_from_roots, scale

__all__ = [
    "GenConfig",
    "MODES",
    "EXTREMAL_FAMILIES",
    "rng_stream",
    "random_zeros_poly_with_roots",
    "dominated_pair_with_roots",
    "extremal_poly_with_roots",
]

MODES = ("zeros_inside", "zeros_outside_open_disk", "unconstrained")
# The equality families of ``extremal_poly_with_roots``; registry entries
# name theirs in ``InequalityDef.extremal``.
EXTREMAL_FAMILIES = ("power", "erdos_lax", "turan", "half")
INSIDE_MARGIN = 1e-6
BOUNDARY_PROB = 0.1


@dataclass(frozen=True)
class GenConfig:
    n: int
    k: float
    seed: int
    mode: str = "zeros_inside"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got {self.n}")
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError(f"radius must be positive, got {self.k}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator on the stream ``spawn_key=key`` of ``seed``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def random_zeros_poly_with_roots(cfg: GenConfig) -> tuple[Polynomial, tuple[complex, ...]]:
    """Random polynomial of exact degree n with the configured zero layout.

    zeros_inside places root moduli uniformly in [0, k*(1-1e-6)] (the margin
    keeps hypothesis checks robust to evaluation noise); the outside mode
    uses moduli in [k, 3k+1] with exact-boundary moduli mixed in at
    probability 0.1.  The unconstrained mode draws complex-normal
    coefficients with the leading magnitude kept in [0.5, 1.5] so the degree
    never collapses.  Leading coefficients of the root modes have unit
    modulus.
    """
    rng = rng_stream(cfg.seed)
    n, k = cfg.n, cfg.k
    if cfg.mode == "unconstrained":
        low = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lead_mag = rng.uniform(0.5, 1.5)
        lead = lead_mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return make_poly(list(low) + [lead]), ()
    if cfg.mode == "zeros_inside":
        moduli = rng.uniform(0.0, k * (1.0 - INSIDE_MARGIN), n)
    else:
        moduli = rng.uniform(k, 3.0 * k + 1.0, n)
        boundary = rng.random(n) < BOUNDARY_PROB
        moduli = np.where(boundary, k, moduli)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    roots = tuple(complex(m * np.exp(1j * a)) for m, a in zip(moduli, angles))
    lead = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return poly_from_roots(roots, lead), roots


def dominated_pair_with_roots(
    cfg: GenConfig, gamma1: complex, gamma2: complex
) -> tuple[Polynomial, Polynomial, tuple[complex, ...]]:
    """Pair (P, F) with |P| <= |F| on |z| = k and both of exact degree n.

    F has all zeros inside |z| <= k; P = g1*F + g2*(min|F| / k^n)*z^n, which
    is dominated because |P| <= |g1||F| + |g2|*min|F| <= (|g1|+|g2|)*|F| on
    the circle.  The direct construction beats rejection sampling, whose
    acceptance rate vanishes at moderate degree.  A mix whose leading
    coefficient cancels exactly is a ValueError.
    """
    if abs(gamma1) + abs(gamma2) > 1.0:
        raise ValueError("|gamma1| + |gamma2| must be at most 1")
    if gamma1 == 0 and gamma2 == 0:
        raise ValueError("gamma1 and gamma2 cannot both vanish")
    if cfg.mode != "zeros_inside":
        raise ValueError("dominated pairs require mode zeros_inside")
    f, roots = random_zeros_poly_with_roots(cfg)
    # The value less the tolerance is a certified lower bound on min |F|,
    # however close another local minimum comes, and unlike the certified
    # error it does not depend on where the certifier stopped.
    eps = 1e-9 * modulus_bound(f, cfg.k)
    m_f = max(circle_extremum(f, cfg.k, "min", eps=eps).value - eps, 0.0)
    monomial = make_poly([0j] * cfg.n + [1.0 + 0j])
    p = add(scale(f, gamma1), scale(monomial, complex(gamma2) * m_f / cfg.k**cfg.n))
    if p.degree != cfg.n:
        raise ValueError(
            f"P has degree {p.degree}, not {cfg.n}: its leading coefficient cancels "
            f"at gamma1 = {gamma1}, gamma2 = {gamma2}"
        )
    return p, f, roots


def extremal_poly_with_roots(
    family: str, n: int, a: complex | None = None, b: complex | None = None
) -> tuple[Polynomial, tuple[complex, ...]]:
    """The named equality-attaining polynomial, with its known roots.

    power:     a * z^n              (a != 0, default 1)
    erdos_lax: a * z^n + b          (|a| == |b|, default a = b = 0.5)
    turan:     (z + 1)^n
    half:      (z^n + 1) / 2
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if family not in EXTREMAL_FAMILIES:
        raise ValueError(f"unknown extremal family {family!r}")
    if family == "power":
        lead = 1.0 + 0j if a is None else complex(a)
        if lead == 0:
            raise ValueError("family requires a != 0")
        return make_poly([0j] * n + [lead]), (0j,) * n
    if family == "erdos_lax":
        ac = 0.5 + 0j if a is None else complex(a)
        bc = 0.5 + 0j if b is None else complex(b)
        if ac == 0 or abs(abs(ac) - abs(bc)) > 1e-12 * abs(ac):
            raise ValueError("family requires |a|=|b|")
        ratio = -bc / ac
        base = abs(ratio) ** (1.0 / n)
        arg = math.atan2(ratio.imag, ratio.real)
        roots = tuple(
            base * complex(math.cos((arg + 2 * math.pi * j) / n), math.sin((arg + 2 * math.pi * j) / n))
            for j in range(n)
        )
        return make_poly([bc] + [0j] * (n - 1) + [ac]), roots
    if family == "turan":
        return poly_from_roots([-1.0 + 0j] * n, 1.0), (-1.0 + 0j,) * n
    # half
    roots = tuple(
        complex(math.cos(math.pi * (2 * j + 1) / n), math.sin(math.pi * (2 * j + 1) / n))
        for j in range(n)
    )
    return make_poly([0.5 + 0j] + [0j] * (n - 1) + [0.5 + 0j]), roots
