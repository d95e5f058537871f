"""Registry of the verified inequalities and their pointwise checkers.

Every entry turns one inequality into an evaluable pair of nonnegative sides
over ``(P, F, spec, z)``.  Hypotheses are verified before any check runs;
instances that fail them are rejected, never scored.  ``check_inequality``
is the one sweep routine: it evaluates z on circle grids and zooms in on the
smallest slacks with batched side evaluations, recentring each bracket on
the vertex of the parabola through its best samples (successive parabolic
interpolation), until each bracket is flat to rounding, predicts no gain
above rounding or cannot overtake.  A finite grid plus the zoom stands in
for the continuum claim: pointwise modulus comparisons are smooth in the
angle, so the zoom bounds the grid error.  ``sharpness_probe`` runs the
same sweep on an equality family.

Each premise is stated once.  The derivative limit ``D_alpha P / alpha ->
P'`` as ``|alpha| -> inf`` lives in ``polar``: a spec with no polar points
is that limit, so ``polar_chain`` gives ``P^(s)``, ``lambda_product`` gives
1 and ``alpha_1...alpha_s`` is the empty product 1.  Each derivative-form
entry is therefore its chain-form entry without polar points, and entries
with the same side form share one evaluator: CE1, CE2, CE4 and CE5 (Max for
an upper bound, Min for a lower one); TE1, CE_S1 and CE3; E2 and E4; E3 and
E5; LE2 and LE4; TE3 and CE11; CE7 and CE8.  The dominated-pair premise
(``|P| <= |F|`` on ``|z| = k``, all zeros of F in ``|z| <= k``) lives in
``InequalityDef.pair``, and ``build_instance`` checks it for every pair
entry; the other entries name P's zero hypothesis in ``zero_mode``.

The chain combo ``|z^s chain + beta n_s Lambda_s / (1+k)^s poly|`` that
TE1, CE1-CE5, CE_S1, TE2, TE3, CE7, CE8, CE11 and LE5 read is one cached
polynomial per poly (``combo_p``, ``combo_f``, ``combo_q_rescaled``), built
from that poly and its own chain, with coefficients ``chain_{j-s} + lc a_j``,
so each value costs one Horner pass; Horner's error bound (Higham 2002, sec.
5.1) on it is no larger than that of the two passes it replaces.

Slack is oriented so that a valid instance always has nonnegative slack:
``rhs - lhs`` for upper bounds, ``lhs - rhs`` for lower bounds (the sides
keep the conventional display order of each inequality).  Pass tolerances
are relative to ``max(lhs, rhs)`` at the minimizing point, because absolute
slacks are meaningless across degrees.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .extrema import CircleExtremum, circle_extremum
from .polar import PolarSpec, falling_factorial, lambda_product, polar_chain
from .poly import (
    Polynomial,
    add,
    circle_values,
    conjugate_reciprocal,
    evaluate,
    make_poly,
    modulus_bound,
    scale as poly_scale,
    scale_argument,
    sth_derivative,
)
from .roots import zero_location_evidence

__all__ = [
    "DEFAULT_RADII",
    "HypothesisError",
    "InequalityDef",
    "InequalityInstance",
    "InequalityReport",
    "INEQUALITY_IDS",
    "REGISTRY",
    "build_instance",
    "evaluate_sides",
    "check_inequality",
    "check_sweep_options",
    "sharpness_probe",
]

DEFAULT_RADII = (1.0, 1.05, 1.5, 3.0)
DOMINATION_GRID = 4096
Z_MODULUS_LIMIT = 1e3
# Sides are judged at tol_rel 1e-8, so circle extrema are asked for well
# below that: within their tolerance the extremum's basin is not resolved.
EXTREMUM_EPS_REL = 1e-10
# The zoom of check_inequality (see its docstring).  The fallback rule
# alone (a half-width of one sample spacing, 8x narrower) narrows the grid
# spacing by 8**14 = 4.4e12 in 14 levels, to about 3e-15 rad at 512 angles,
# the rounding level of an angle near 2*pi.  A vertex step narrows the
# spacing by up to 8 * ZOOM_VERTEX_SHRINK = 4096x, so three or four levels
# cover that factor; the floor also keeps a vertex that lands on a sample
# from collapsing the bracket to a point.  A bracket whose samples agree to
# ZOOM_FLAT (about 45 ulps) of the sides' scale, or whose parabola predicts a
# gain below that, has converged: most smooth minima do so after 3 levels.
ZOOM_BRACKETS = 5
ZOOM_POINTS = 17
ZOOM_LEVELS = 14
ZOOM_FLAT = 1e-14
ZOOM_VERTEX_SHRINK = 512.0
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, ZOOM_POINTS)
# Shared by every report whose entry has no ``tally``.
NO_EXTRA: Mapping = MappingProxyType({})

# Test seam: ids listed here get the T1 term of ``_chain_brackets`` negated.
# Used only to prove the checkers are not vacuous (mutation sensitivity).
_RHS_SIGN_FLIPS: set[str] = set()


@contextlib.contextmanager
def rhs_sign_flip(ineq_id: str):
    """Temporarily negate the T1 bracket of ``ineq_id``'s right side.

    T1 is negated in ``_chain_brackets``, so the seam reaches the entries
    whose right side is built from it: TE2, TE3, CE11 and LE5.
    """
    _RHS_SIGN_FLIPS.add(ineq_id)
    try:
        yield
    finally:
        _RHS_SIGN_FLIPS.discard(ineq_id)


class HypothesisError(ValueError):
    """An inequality instance does not satisfy its stated premises."""


@dataclass(frozen=True)
class InequalityDef:
    """One registry entry: metadata plus the two-sides evaluator.

    ``direction`` is "upper" (lhs <= rhs) or "lower" (lhs >= rhs);
    ``domain`` is "outside_unit_disk", "unit_circle", or "parameter_only"
    (no z dependence).  ``sides(inst, z)`` takes ``z`` as an array of any
    shape (a point, the sweep's radii x angles grid, a zoom level's brackets
    x samples) and returns sides shaped like it; a parameter-only entry gets
    ``z = None``.  ``pair`` marks a dominated-pair entry, whose premise is
    ``|P| <= |F|`` on ``|z| = k`` with all zeros of F in ``|z| <= k``;
    ``build_instance`` checks both, so a pair entry sets no ``zero_mode``.
    Otherwise ``zero_mode`` is P's zero-location hypothesis, named as in
    ``generators.MODES``, so the mode P is generated in is its hypothesis.
    ``tally(inst, z)``, when set, counts something about the whole sweep
    grid as ``{key: {name: count}}``; the counts become the report's
    ``extra`` and, summed across trials, go into the suite results.
    ``extremal`` names the equality families of
    ``generators.EXTREMAL_FAMILIES`` that ``sharpness_probe`` may run on it.
    """

    ineq_id: str
    statement: str
    direction: str
    domain: str
    sides: Callable
    pair: bool = False
    zero_mode: str = "unconstrained"
    k_regime: str = "at_most_one"  # "at_most_one" | "at_least_one" | "unit" | "any"
    needs_alphas: bool = False
    uses_beta: bool = False
    fixed_s: Optional[int] = None  # 0: entry has no chain/derivative order
    witness_hint: Optional[Callable] = None
    tally: Optional[Callable] = None
    extremal: tuple[str, ...] = ()


class InequalityInstance:
    """A hypothesis-checked (P, F, spec) triple with cached derived data.

    Max/Min circle terms are computed once per instance and cached; all
    cached values are derived deterministically from (P, F, spec).  The
    chains and ``lam`` come from ``polar``, which reads a spec with no polar
    points as the derivative limit.  Each chain combo (``combo_p``,
    ``combo_f``, ``combo_q_rescaled``) is built from its polynomial alone,
    with one ``polar_chain`` call; ``chain_p`` is kept for the entries that
    read P's chain itself.
    """

    def __init__(self, defn: InequalityDef, p: Polynomial, f: Optional[Polynomial],
                 spec: PolarSpec, hypothesis_report: dict):
        self.defn = defn
        self.p = p
        self.f = f
        self.spec = spec
        self.hypothesis_report = hypothesis_report
        self._extrema: dict = {}

    # -- scalar constants -------------------------------------------------
    @cached_property
    def ns(self) -> int:
        return falling_factorial(self.spec.n, self.spec.s)

    @cached_property
    def lam(self) -> float:
        return lambda_product(self.spec)

    @cached_property
    def alpha_prod(self) -> complex:
        return math.prod(self.spec.alphas, start=1 + 0j)

    @cached_property
    def cb(self) -> complex:
        # beta * Lambda_s / (1+k)^s, the shift inside the |...| brackets
        return self.spec.beta * self.lam / (1.0 + self.spec.k) ** self.spec.s

    # -- derived polynomials ----------------------------------------------
    @cached_property
    def chain_p(self) -> Polynomial:
        return polar_chain(self.p, self.spec)

    @cached_property
    def deriv1_p(self) -> Polynomial:
        return sth_derivative(self.p, 1)

    @cached_property
    def q_rescaled(self) -> Polynomial:
        # k^n * Q(z / k^2), Q = z^n conj(P(1 / conj z)): the reflected
        # polynomial carried back to the k-circle, where its modulus matches
        # |P| exactly.
        k, n = self.spec.k, self.spec.n
        return poly_scale(scale_argument(conjugate_reciprocal(self.p, n), 1.0 / k**2), k**n)

    def _combo(self, poly: Polynomial) -> Polynomial:
        # z^s * chain + beta * n_s * Lambda_s / (1+k)^s * poly, whose
        # coefficients are chain_{j-s} + lc * a_j: one Horner pass per value.
        chain = polar_chain(poly, self.spec)
        lc = self.spec.beta * self.ns * self.lam / (1.0 + self.spec.k) ** self.spec.s
        return add(make_poly([0j] * self.spec.s + list(chain.coeffs)), poly_scale(poly, lc))

    @cached_property
    def combo_p(self) -> Polynomial:
        return self._combo(self.p)

    @cached_property
    def combo_f(self) -> Polynomial:
        return self._combo(self.f)

    @cached_property
    def combo_q_rescaled(self) -> Polynomial:
        return self._combo(self.q_rescaled)

    # -- cached circle extrema ---------------------------------------------
    def extremum(self, which: str, radius: float, kind: str) -> CircleExtremum:
        key = (which, radius, kind)
        if key not in self._extrema:
            poly = {"p": self.p, "dp": self.deriv1_p}[which]
            eps = EXTREMUM_EPS_REL * modulus_bound(poly, max(1.0, radius))
            self._extrema[key] = circle_extremum(poly, radius, kind, eps=eps)
        return self._extrema[key]

    def max_p(self, radius: float) -> float:
        return self.extremum("p", radius, "max").value

    def min_p(self, radius: float) -> float:
        return self.extremum("p", radius, "min").value

    def max_dp_unit(self) -> float:
        return self.extremum("dp", 1.0, "max").value


@dataclass(frozen=True, slots=True)
class InequalityReport:
    def_id: str
    min_slack: float
    rel_slack: float
    witness_z: Optional[complex]
    passed: bool
    samples: int
    radii: tuple[float, ...]
    angles_per_radius: int
    tol_rel: float
    scale: float
    extra: Mapping


# ---------------------------------------------------------------------------
# side evaluators
# ---------------------------------------------------------------------------


def _abs_eval(poly: Polynomial, z):
    return np.abs(evaluate(poly, z))


def _const(z, value: float):
    return np.full(np.shape(z), float(value))


def _sides_e1(inst, z):
    rhs = inst.spec.n * inst.max_p(1.0)
    return _abs_eval(inst.deriv1_p, z), _const(z, rhs)


def _sides_e4(inst, z):
    # E2 too: at k = 1, n / (1+k) is n / 2 exactly.
    rhs = inst.spec.n / (1.0 + inst.spec.k) * inst.max_p(1.0)
    return _abs_eval(inst.deriv1_p, z), _const(z, rhs)


def _sides_e5(inst, z):
    return inst.max_dp_unit(), inst.spec.n / (1.0 + inst.spec.k) * inst.max_p(1.0)


def _sides_ae(inst, z):
    lhs = _abs_eval(inst.chain_p, z)
    grow = np.abs(inst.alpha_prod) * np.abs(z) ** (inst.spec.n - inst.spec.s)
    rhs = inst.ns / 2.0 * (grow + 1.0) * inst.max_p(1.0)
    return lhs, rhs


def _max_min_bracket(inst, a, b, radius):
    # (n_s/2){(a+b) Max - (a-b) Min} on |z| = radius: the right side of the
    # refined bounds AWE, TE3/CE11, CE7/CE8 and CE9.
    return inst.ns / 2.0 * ((a + b) * inst.max_p(radius) - (a - b) * inst.min_p(radius))


def _sides_awe(inst, z):
    lhs = _abs_eval(inst.chain_p, z)
    grow = np.abs(inst.alpha_prod) * np.abs(z) ** (inst.spec.n - inst.spec.s)
    return lhs, _max_min_bracket(inst, grow, 1.0, 1.0)


def _sides_te1(inst, z):
    lhs = _abs_eval(inst.combo_p, z)
    rhs = _abs_eval(inst.combo_f, z)
    return lhs, rhs


def _sides_ce1(inst, z):
    # Max of |P| on |z| = k bounds an upper entry, Min a lower one.
    extreme = inst.max_p if inst.defn.direction == "upper" else inst.min_p
    lhs = _abs_eval(inst.combo_p, z)
    amp = np.abs(z) ** inst.spec.n / inst.spec.k ** inst.spec.n
    rhs = inst.ns * amp * abs(inst.alpha_prod + inst.cb) * extreme(inst.spec.k)
    return lhs, rhs


def _t1(inst, z):
    # T1 = (|z|^n / k^n) |a1...as + cb|
    return np.abs(z) ** inst.spec.n / inst.spec.k ** inst.spec.n * abs(inst.alpha_prod + inst.cb)


def _chain_brackets(inst, z):
    # T1 and T2 = |z^s + cb|
    t1 = _t1(inst, z)
    if inst.defn.ineq_id in _RHS_SIGN_FLIPS:
        t1 = -t1
    return t1, np.abs(z ** inst.spec.s + inst.cb)


def _sides_te2(inst, z):
    lhs = _abs_eval(inst.combo_p, z)
    t1, t2 = _chain_brackets(inst, z)
    rhs = inst.ns / 2.0 * (t1 + t2) * inst.max_p(inst.spec.k)
    return lhs, rhs


def _sides_te3(inst, z):
    lhs = _abs_eval(inst.combo_p, z)
    t1, t2 = _chain_brackets(inst, z)
    return lhs, _max_min_bracket(inst, t1, t2, inst.spec.k)


def _tally_min_term_signs(inst, z):
    # Sign of TE3's {T1 - T2} bracket, the factor of its subtracted Min term.
    t1, t2 = _chain_brackets(inst, z)
    bracket = np.asarray(t1 - t2, dtype=float)
    return {"min_term_sign_counts": {"neg": int((bracket < 0).sum()),
                                     "nonneg": int((bracket >= 0).sum())}}


def _sides_ce7(inst, z):
    lhs = _abs_eval(inst.combo_p, z)
    return lhs, _max_min_bracket(inst, _t1(inst, z), abs(inst.cb), inst.spec.k)


def _sides_ce9(inst, z):
    lhs = _abs_eval(inst.chain_p, z)
    v = np.abs(z) ** (inst.spec.n - inst.spec.s) / inst.spec.k ** inst.spec.n * abs(
        inst.alpha_prod
    )
    return lhs, _max_min_bracket(inst, v, 1.0, inst.spec.k)


def _sides_ce10(inst, z):
    lhs = _abs_eval(inst.chain_p, z)
    amp = inst.ns * np.abs(z) ** (inst.spec.n - inst.spec.s) / (
        2.0 * inst.spec.k ** inst.spec.n
    )
    rhs = amp * (inst.max_p(inst.spec.k) - inst.min_p(inst.spec.k))
    return lhs, rhs


def _sides_le2_le4(inst, z):
    lhs = _abs_eval(inst.chain_p, z)
    factor = inst.ns * inst.lam / (1.0 + inst.spec.k) ** inst.spec.s
    rhs = factor * _abs_eval(inst.p, z)
    return lhs, rhs


def _sides_le3(inst, z):
    a = inst.p.coeffs
    lhs = abs(a[-2] / a[-1]) / inst.spec.n if len(a) >= 2 else 0.0
    return lhs, inst.spec.k


def _sides_le5(inst, z):
    # The reflected term applies the chain to k^n * Q(z/k^2) as a polynomial
    # in z (the chain is linear, so this is what the dominated-pair argument
    # actually bounds); chaining Q first and substituting z/k^2 afterwards is
    # a different quantity for k < 1 and fails at random instances.
    first = _abs_eval(inst.combo_p, z)
    second = _abs_eval(inst.combo_q_rescaled, z)
    t1, t2 = _chain_brackets(inst, z)
    rhs = inst.ns * (t1 + t2) * inst.max_p(inst.spec.k)
    return first + second, rhs


def _witness_dp_max(inst):
    theta = inst.extremum("dp", 1.0, "max").witness_theta
    return complex(math.cos(theta), math.sin(theta))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_DEFS = [
    InequalityDef(
        "E1", "max |P'| <= n max |P| on |z|=1", "upper", "unit_circle",
        _sides_e1, k_regime="any", fixed_s=0, extremal=("power",),
    ),
    InequalityDef(
        "E2", "P != 0 in |z|<1: max |P'| <= (n/2) max |P| on |z|=1", "upper",
        "unit_circle", _sides_e4, zero_mode="zeros_outside_open_disk", k_regime="unit",
        fixed_s=0, extremal=("erdos_lax",),
    ),
    InequalityDef(
        "E3", "all zeros in |z|<=1: max |P'| >= (n/2) max |P|", "lower",
        "parameter_only", _sides_e5, zero_mode="zeros_inside", k_regime="unit",
        fixed_s=0, witness_hint=_witness_dp_max, extremal=("turan",),
    ),
    InequalityDef(
        "E4", "P != 0 in |z|<k, k>=1: max |P'| <= n/(1+k) max |P| on |z|=1",
        "upper", "unit_circle", _sides_e4, zero_mode="zeros_outside_open_disk",
        k_regime="at_least_one", fixed_s=0,
    ),
    InequalityDef(
        "E5", "all zeros in |z|<=k, k<=1: max |P'| >= n/(1+k) max |P|", "lower",
        "parameter_only", _sides_e5, zero_mode="zeros_inside", fixed_s=0,
        witness_hint=_witness_dp_max, extremal=("turan",),
    ),
    InequalityDef(
        "AE", "iterated polar derivative bound (|z|>=1, unit critical radius)",
        "upper", "outside_unit_disk", _sides_ae, zero_mode="zeros_outside_open_disk",
        k_regime="unit", needs_alphas=True, extremal=("half",),
    ),
    InequalityDef(
        "AWE", "AE refined by the subtracted minimum term", "upper",
        "outside_unit_disk", _sides_awe, zero_mode="zeros_outside_open_disk",
        k_regime="unit", needs_alphas=True, extremal=("half",),
    ),
    InequalityDef(
        "TE1", "dominated-pair chain comparison |combo(P)| <= |combo(F)|",
        "upper", "outside_unit_disk", _sides_te1, pair=True, needs_alphas=True,
        uses_beta=True,
    ),
    InequalityDef(
        "CE1", "chain combo of arbitrary P vs (n_s |z|^n / k^n) |prod+cb| Max",
        "upper", "outside_unit_disk", _sides_ce1, needs_alphas=True, uses_beta=True,
    ),
    InequalityDef(
        "CE2", "derivative combo vs (n_s |z|^n / k^n) |1+cb'| Max", "upper",
        "outside_unit_disk", _sides_ce1, uses_beta=True,
    ),
    InequalityDef(
        "CE3", "dominated-pair derivative comparison", "upper",
        "outside_unit_disk", _sides_te1, pair=True, uses_beta=True,
    ),
    InequalityDef(
        "CE4", "chain combo of all-zeros-inside F >= (n_s |z|^n / k^n) |prod+cb| Min",
        "lower", "outside_unit_disk", _sides_ce1, zero_mode="zeros_inside",
        needs_alphas=True, uses_beta=True,
    ),
    InequalityDef(
        "CE5", "derivative combo of all-zeros-inside F >= (n_s |z|^n / k^n) |1+cb'| Min",
        "lower", "outside_unit_disk", _sides_ce1, zero_mode="zeros_inside", uses_beta=True,
    ),
    InequalityDef(
        "CE_S1", "single-step dominated-pair comparison (s = 1)", "upper",
        "outside_unit_disk", _sides_te1, pair=True, needs_alphas=True,
        uses_beta=True, fixed_s=1,
    ),
    InequalityDef(
        "TE2", "chain combo of nonvanishing P vs (n_s/2){T1 + T2} Max", "upper",
        "outside_unit_disk", _sides_te2, zero_mode="zeros_outside_open_disk",
        needs_alphas=True, uses_beta=True,
    ),
    InequalityDef(
        "TE3", "TE2 refined by the subtracted {T1 - T2} Min term", "upper",
        "outside_unit_disk", _sides_te3, zero_mode="zeros_outside_open_disk",
        needs_alphas=True, uses_beta=True, tally=_tally_min_term_signs,
    ),
    InequalityDef(
        "CE7", "derivative form of TE3 (polar points sent to infinity)", "upper",
        "outside_unit_disk", _sides_ce7, zero_mode="zeros_outside_open_disk",
        uses_beta=True,
    ),
    InequalityDef(
        "CE8", "CE7 at s = 1", "upper", "outside_unit_disk", _sides_ce7,
        zero_mode="zeros_outside_open_disk", uses_beta=True, fixed_s=1,
    ),
    InequalityDef(
        "CE9", "TE3 at beta = 0, normalized by |z|^s", "upper",
        "outside_unit_disk", _sides_ce9, zero_mode="zeros_outside_open_disk",
        needs_alphas=True,
    ),
    InequalityDef(
        "CE10", "|P^(s)| <= (n_s |z|^(n-s) / 2 k^n)(Max - Min)", "upper",
        "outside_unit_disk", _sides_ce10, zero_mode="zeros_outside_open_disk",
    ),
    InequalityDef(
        "CE11", "TE3 at s = 1", "upper", "outside_unit_disk", _sides_te3,
        zero_mode="zeros_outside_open_disk", needs_alphas=True, uses_beta=True,
        fixed_s=1,
    ),
    InequalityDef(
        "LE2", "|D_a P| >= n ((|a|-k)/(1+k)) |P| on |z|=1", "lower",
        "unit_circle", _sides_le2_le4, zero_mode="zeros_inside", needs_alphas=True,
        fixed_s=1,
    ),
    InequalityDef(
        "LE3", "(1/n)|a_{n-1}/a_n| <= k for all-zeros-inside polynomials",
        "upper", "parameter_only", _sides_le3, zero_mode="zeros_inside", fixed_s=0,
    ),
    InequalityDef(
        "LE4", "|P_s| >= (n_s Lambda_s / (1+k)^s) |P| on |z|=1", "lower",
        "unit_circle", _sides_le2_le4, zero_mode="zeros_inside", needs_alphas=True,
    ),
    InequalityDef(
        "LE5", "two-term chain sum <= n_s {T1 + T2} Max (no 1/2 factor)",
        "upper", "outside_unit_disk", _sides_le5, needs_alphas=True,
        uses_beta=True,
    ),
]

REGISTRY: dict[str, InequalityDef] = {d.ineq_id: d for d in _DEFS}
INEQUALITY_IDS: tuple[str, ...] = tuple(d.ineq_id for d in _DEFS)


# ---------------------------------------------------------------------------
# instance building (hypothesis verification)
# ---------------------------------------------------------------------------


def build_instance(
    def_id: str,
    p: Polynomial,
    spec: PolarSpec,
    f: Optional[Polynomial] = None,
    roots=None,
) -> InequalityInstance:
    """Verify every premise of ``def_id`` on (p, f, spec) and bundle them.

    The zeros checked are F's, in ``|z| <= k``, for a pair entry (with
    ``|P| <= |F|`` on ``|z| = k``), and otherwise P's, per the entry's
    ``zero_mode``.  ``roots`` may carry the planted roots of that polynomial
    (from the generators); they are validated against its coefficients
    before use, so the zero-location evidence stays honest for multiple
    roots.
    """
    if def_id not in REGISTRY:
        raise ValueError(
            f"unknown inequality id {def_id!r}; valid ids: {', '.join(INEQUALITY_IDS)}"
        )
    defn = REGISTRY[def_id]
    if p.degree != spec.n:
        raise HypothesisError(
            f"hypothesis violated: P must have exact degree {spec.n}, got {p.degree}"
        )
    if defn.pair:
        if f is None:
            raise HypothesisError(f"{def_id} needs the dominating polynomial F")
        if f.degree != spec.n:
            raise HypothesisError(
                f"hypothesis violated: F must have exact degree {spec.n}, got {f.degree}"
            )
    elif f is not None:
        raise HypothesisError(f"{def_id} takes a single polynomial")

    if defn.fixed_s == 0:
        if spec.s != 0:
            raise HypothesisError(f"hypothesis violated: {def_id} has no order s")
    elif defn.fixed_s is not None and spec.s != defn.fixed_s:
        raise HypothesisError(f"hypothesis violated: {def_id} requires s = {defn.fixed_s}")
    elif spec.s < 1:
        raise HypothesisError(f"hypothesis violated: {def_id} requires s >= 1")

    k = spec.k
    if defn.k_regime == "at_most_one" and not k <= 1.0:
        raise HypothesisError(f"hypothesis violated: k <= 1 required, got {k}")
    if defn.k_regime == "at_least_one" and not k >= 1.0:
        raise HypothesisError(f"hypothesis violated: k >= 1 required, got {k}")
    if defn.k_regime == "unit" and k != 1.0:
        raise HypothesisError(f"hypothesis violated: k = 1 required, got {k}")

    if defn.needs_alphas:
        if len(spec.alphas) != spec.s:
            raise HypothesisError(
                f"hypothesis violated: {def_id} needs {spec.s} polar points"
            )
        for j, a in enumerate(spec.alphas):
            if abs(a) < k:
                raise HypothesisError(
                    f"hypothesis violated: |alpha_{j + 1}| >= k (got {abs(a)} < {k})"
                )
    elif spec.alphas:
        raise HypothesisError(f"{def_id} takes no polar points")

    if defn.uses_beta:
        if abs(spec.beta) > 1.0:
            raise HypothesisError(
                f"hypothesis violated: |beta| <= 1 (got {abs(spec.beta)})"
            )
    elif spec.beta != 0:
        raise HypothesisError(f"{def_id} takes no beta")

    report = {}
    subject, mode = (f, "zeros_inside") if defn.pair else (p, defn.zero_mode)
    if mode != "unconstrained":
        evidence = zero_location_evidence(subject, roots)
        report["zero_location"] = evidence
        if mode == "zeros_inside" and not evidence.contained_in(k):
            raise HypothesisError(
                "hypothesis violated: all zeros in |z| <= k "
                f"(max root modulus {evidence.max_modulus} > {k} + {evidence.root_tol})"
            )
        if mode == "zeros_outside_open_disk" and not evidence.outside_open_disk(k):
            raise HypothesisError(
                "hypothesis violated: no zeros in |z| < k "
                f"(min root modulus {evidence.min_modulus} < {k} - {evidence.root_tol})"
            )

    if defn.pair:
        p_abs = np.abs(circle_values(p, k, DOMINATION_GRID))
        f_abs = np.abs(circle_values(f, k, DOMINATION_GRID))
        tol = 1e-9 * max(float(p_abs.max()), float(f_abs.max()))
        excess = float((p_abs - f_abs).max())
        report["domination_excess"] = excess
        if excess > tol:
            raise HypothesisError(
                f"hypothesis violated: |P| <= |F| on |z| = k (excess {excess:.3e})"
            )

    return InequalityInstance(defn, p, f, spec, report)


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def _oriented_slack(defn: InequalityDef, lhs, rhs):
    return rhs - lhs if defn.direction == "upper" else lhs - rhs


def _slack(inst: InequalityInstance, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(slack, lhs, rhs) at ``z``, as float arrays shaped like ``z`` (0-d for ``None``).

    ValueError naming the first z whose slack is not finite.
    """
    lhs, rhs = (np.asarray(side, dtype=float) for side in inst.defn.sides(inst, z))
    slack = _oriented_slack(inst.defn, lhs, rhs)
    bad = np.flatnonzero(~np.isfinite(slack))
    if len(bad):
        where = "" if z is None else f" at z = {complex(z.flat[bad[0]])}"
        raise ValueError(f"{inst.defn.ineq_id}: slack is not finite{where}")
    return slack, lhs, rhs


def _check_modulus(domain: str, r: float, name: str) -> None:
    """ValueError unless a sweep of ``domain`` may visit ``|z| = r``.

    Outside-disk entries take ``1 - 1e-12 <= r <= Z_MODULUS_LIMIT`` and
    unit-circle entries ``|r - 1| <= 1e-12``; a NaN ``r`` is in neither.
    """
    if domain == "unit_circle":
        if not abs(r - 1.0) <= 1e-12:
            raise ValueError(f"{name} {r} outside the domain |z| = 1")
    elif not 1.0 - 1e-12 <= r <= Z_MODULUS_LIMIT:
        raise ValueError(f"{name} {r} outside the domain [1, {Z_MODULUS_LIMIT}]")


def evaluate_sides(inst: InequalityInstance, z: complex) -> tuple[float, float]:
    """Both sides at one point, as nonnegative reals.

    ``z`` must lie where a sweep of the entry may go (``check_sweep_options``
    states the rule; a parameter-only entry ignores ``z``).  The point goes
    to the sides as a one-element array, so it takes the same ``horner`` pass
    as a grid point, and a slack that is not finite is the sweep's
    ValueError.
    """
    point = None
    if inst.defn.domain != "parameter_only":
        zc = complex(z)
        _check_modulus(inst.defn.domain, abs(zc), "|z| =")
        point = np.asarray([zc])
    _, lhs, rhs = _slack(inst, point)
    return lhs.item(), rhs.item()


def check_sweep_options(radii, angles_per_radius: int, tol_rel: float) -> tuple[float, ...]:
    """The radii as floats, once every sweep option is valid.

    Every radius must lie in the outside-disk domain ``[1 - 1e-12,
    Z_MODULUS_LIMIT]``; a unit-circle entry sweeps ``|z| = 1`` whatever the
    radii, and ``evaluate_sides`` holds a replayed point to the same rule.
    Raises ValueError naming the option that is not valid.
    """
    if not 0.0 < tol_rel < math.inf:
        raise ValueError(f"tol_rel must be finite and positive, got {tol_rel}")
    if angles_per_radius < 256:
        raise ValueError("angles_per_radius must be at least 256")
    out = tuple(float(r) for r in radii)
    if not out:
        raise ValueError("radii must name at least one circle")
    for r in out:
        _check_modulus("outside_unit_disk", r, "radii: radius")
    return out


def check_inequality(
    inst: InequalityInstance,
    radii=DEFAULT_RADII,
    angles_per_radius: int = 512,
    tol_rel: float = 1e-8,
) -> InequalityReport:
    """Sweep z over the def's domain and report the minimal oriented slack.

    Each radius gets a grid of ``angles_per_radius`` angles, and the
    (radii x angles) array is one batched side evaluation.  The
    ``ZOOM_BRACKETS`` smallest grid slacks then each start a bracket of +- one
    grid spacing, and the zoom runs at most ``ZOOM_LEVELS`` levels.  Each
    level samples every live bracket at ``ZOOM_POINTS`` angles in one batched
    side evaluation of the (brackets x ``ZOOM_POINTS``) array.  The sides
    come back shaped like the ``z`` they were given.  Where the best
    sample is interior and the parabola through it and its two neighbours
    curves upward, the bracket recentres on that parabola's vertex, with a
    half-width of twice the vertex's distance from the best sample, kept
    between ``1 / ZOOM_VERTEX_SHRINK`` of the sample spacing and the spacing
    itself; otherwise it recentres on its best sample with a half-width of
    one sample spacing, 8 times narrower.  A bracket retires once its
    samples agree to ``ZOOM_FLAT`` times ``max(lhs, rhs)`` at the best grid
    candidate, or once its parabola predicts a gain below that (it has
    converged), or once its best sample less its spread lies above the
    lowest slack sampled so far (it cannot overtake).  A NaN or infinite
    slack in any grid or zoom sample, or in a parameter-only entry's sides,
    is a ValueError naming its z.  The witness is the exact z at which the
    reported slack was computed.  For unit-circle entries only the radius-1
    slice is swept; parameter-only entries evaluate once.  An entry with a
    registry ``tally`` has it applied once, to the whole grid, and its counts
    are the report's ``extra``.
    """
    defn = inst.defn
    radii = check_sweep_options(radii, angles_per_radius, tol_rel)

    if defn.domain == "parameter_only":
        slack, lhs, rhs = (value.item() for value in _slack(inst, None))
        witness = defn.witness_hint(inst) if defn.witness_hint else None
        samples, radii, angles_per_radius, extra = 1, (), 0, NO_EXTRA
    else:
        radii = (1.0,) if defn.domain == "unit_circle" else radii
        slack, witness, lhs, rhs, samples, extra = _sweep(inst, radii, angles_per_radius)
    scale = max(lhs, rhs)
    return InequalityReport(
        def_id=defn.ineq_id,
        min_slack=slack,
        rel_slack=slack / scale if scale > 0 else 0.0,
        witness_z=witness,
        passed=slack >= -tol_rel * scale,
        samples=samples,
        radii=radii,
        angles_per_radius=angles_per_radius,
        tol_rel=tol_rel,
        scale=scale,
        extra=extra,
    )


@lru_cache(maxsize=4)
def _grid(angles_per_radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The sweep grid's angles and ``e^{i theta}``, read-only and shared."""
    theta = 2.0 * np.pi * np.arange(angles_per_radius) / angles_per_radius
    unit = np.exp(1j * theta)
    theta.flags.writeable = unit.flags.writeable = False
    return theta, unit


def _sweep(inst: InequalityInstance, radii: tuple[float, ...], angles_per_radius: int):
    """The grid and zoom of ``check_inequality``: (slack, witness, lhs, rhs, samples, extra)."""
    defn = inst.defn
    theta, unit = _grid(angles_per_radius)
    z = np.asarray(radii)[:, None] * unit
    slack, lhs, rhs = _slack(inst, z)
    samples = z.size
    extra = defn.tally(inst, z) if defn.tally else NO_EXTRA

    # The ZOOM_BRACKETS smallest slacks of each radius, then the smallest of
    # those; the stable sort keeps ties in radius order.
    top = np.argsort(slack, axis=1)[:, :ZOOM_BRACKETS]
    rows = np.arange(len(radii))[:, None]
    pick = np.argsort(slack[rows, top].ravel(), kind="stable")[:ZOOM_BRACKETS]
    row, col = pick // ZOOM_BRACKETS, top.ravel()[pick]
    flat = ZOOM_FLAT * float(np.maximum(lhs[row[0], col[0]], rhs[row[0], col[0]]))
    # (low, witness) and ``at`` are the lowest slack sampled so far, its z and
    # its (lhs, rhs); the candidates come sorted, so the first is the lowest.
    low, witness = float(slack[row[0], col[0]]), complex(z[row[0], col[0]])
    at = lhs.item(row[0], col[0]), rhs.item(row[0], col[0])
    # Each live bracket is [radius, centre, half-width], as Python floats:
    # numpy calls on 5-element arrays cost more than the arithmetic.
    half = 2.0 * np.pi / angles_per_radius
    live = [[radii[r], centre, half] for r, centre in zip(row.tolist(), theta[col].tolist())]
    for _ in range(ZOOM_LEVELS):
        state = np.array(live)
        theta = state[:, 1:2] + state[:, 2:] * _ZOOM_OFFSETS
        z = state[:, :1] * np.exp(1j * theta)
        slack, lhs, rhs = _slack(inst, z)
        samples += z.size
        fits = []
        best_at = slack.argmin(axis=1).tolist()
        for k, (bracket, s, i) in enumerate(zip(live, slack.tolist(), best_at)):
            if s[i] < low:
                low, witness = s[i], z.item(k, i)
                at = lhs.item(k, i), rhs.item(k, i)
            bracket[1], bracket[2], gain = _vertex_step(s, i, theta.item(k, i), bracket[2])
            fits.append((s[i], max(s) - s[i], gain))
        # A NaN gain (no parabola was fitted) does not retire a bracket.
        live = [
            bracket
            for bracket, (best, spread, gain) in zip(live, fits)
            if not (spread <= flat or gain <= flat or best - spread > low)
        ]
        if not live:
            break

    return low, witness, *at, samples, extra


def _vertex_step(s: list, i: int, theta_i: float, half: float) -> tuple[float, float, float]:
    """A zoom bracket's next (centre, half-width) and its parabola's gain.

    ``s`` holds the bracket's slacks and ``s[i]`` the lowest, sampled at
    ``theta_i``; ``check_inequality`` states the rule.  The gain is how far
    the parabola's vertex lies below ``s[i]`` (successive parabolic
    interpolation, Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 5), and NaN where no parabola is fitted.
    """
    h = 2.0 * half / (ZOOM_POINTS - 1)
    if 0 < i < ZOOM_POINTS - 1:
        a, c = s[i - 1], s[i + 1]
        curv = a + c - 2.0 * s[i]
        if curv > 0.0:
            u = (a - c) / (2.0 * curv)
            width = min(max(2.0 * abs(u) * h, h / ZOOM_VERTEX_SHRINK), h)
            return theta_i + u * h, width, (a - c) ** 2 / (8.0 * curv)
    return theta_i, h, math.nan


# ---------------------------------------------------------------------------
# sharpness probes
# ---------------------------------------------------------------------------


def sharpness_probe(
    def_id: str,
    family: str,
    spec: PolarSpec,
    a: complex | None = None,
    b: complex | None = None,
) -> float:
    """Minimal relative slack of ``def_id`` on a named equality family.

    ``def_id`` must name ``family`` in its registry ``extremal`` field.
    Instantiates the extremal polynomial, verifies the hypotheses, and
    returns the ``rel_slack`` of ``check_inequality`` on it: the smallest
    slack of the sweep divided by the dominating side at that point.  Values
    at the level of rounding noise certify sharpness.
    """
    from .generators import EXTREMAL_FAMILIES, extremal_poly_with_roots

    if family not in EXTREMAL_FAMILIES:
        raise ValueError(f"unknown extremal family {family!r}")
    targets = [d.ineq_id for d in _DEFS if family in d.extremal]
    if def_id not in targets:
        raise ValueError(
            f"family {family!r} is incompatible with {def_id}; "
            f"valid targets: {', '.join(targets)}"
        )
    poly, roots = extremal_poly_with_roots(family, spec.n, a=a, b=b)
    inst = build_instance(def_id, poly, spec, roots=roots)
    return check_inequality(inst).rel_slack
