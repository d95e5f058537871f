"""Certified circle-extremum tests against closed forms and dense scans."""

import math

import numpy as np
import pytest

from polarineq import (
    ToleranceUnattainableError,
    circle_extremum,
    conjugate_reciprocal,
    evaluate,
    make_poly,
    poly_from_roots,
)
from polarineq import extrema, generators, inequalities
from polarineq.extrema import _abs_sq_fourier
from polarineq.generators import GenConfig, random_zeros_poly_with_roots, rng_stream
from polarineq.harness import regenerate_instance
from polarineq.inequalities import check_inequality
from polarineq.poly import scale, scale_argument

# The zero layout of cell 69 (n = 48, zeros inside, k = 1) of the benchmark's
# certify workload: SeedSequence(20130301, spawn_key=(69,)).generate_state(1)[0].
CELL_69_LAYOUT_SEED = 2375365246


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of scalar evaluations and of points evaluated (FFT grid included)."""
    counts = {"scalar": 0, "points": 0}
    real_evaluate, real_grid = extrema.evaluate, extrema.circle_values

    def evaluate_counted(p, z):
        if isinstance(z, np.ndarray):
            counts["points"] += z.size
        else:
            counts["scalar"] += 1
        return real_evaluate(p, z)

    def grid_counted(p, r, samples):
        counts["points"] += samples
        return real_grid(p, r, samples)

    monkeypatch.setattr(extrema, "evaluate", evaluate_counted)
    monkeypatch.setattr(extrema, "circle_values", grid_counted)
    return counts


def dense_scan(p, r, kind, points=2**16):
    theta = 2.0 * np.pi * np.arange(points) / points
    vals = np.abs(evaluate(p, r * np.exp(1j * theta)))
    return float(vals.max() if kind == "max" else vals.min())


def test_monomial_max():
    e = circle_extremum(make_poly([0, 0, 0, 0, 0, 1]), 0.7, "max")
    assert e.value == pytest.approx(0.7**5, rel=1e-12)
    assert e.certified_error <= 1e-9 * 1.0


def test_half_quadratic_max_and_min():
    p = make_poly([0.5, 0, 0.5])
    mx = circle_extremum(p, 1.0, "max")
    assert mx.value == pytest.approx(1.0, abs=1e-12)
    assert min(abs(mx.witness_theta - t) for t in (0.0, np.pi, 2 * np.pi)) < 1e-6
    mn = circle_extremum(p, 1.0, "min")
    assert mn.value <= mn.certified_error + 1e-15  # zero on the circle
    assert min(abs(mn.witness_theta - t) for t in (np.pi / 2, 3 * np.pi / 2)) < 1e-6


def test_binomial_closed_form():
    # max of |(z+1)^n| on |z|=1 is 2^n
    for n in (2, 6):
        e = circle_extremum(poly_from_roots([-1] * n, 1), 1.0, "max")
        assert e.value == pytest.approx(2.0**n, rel=1e-12)


def test_matches_dense_scan():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = make_poly(rng.standard_normal(11) + 1j * rng.standard_normal(11))
        mx = circle_extremum(p, 1.0, "max", eps=1e-8)
        ref_max = dense_scan(p, 1.0, "max", points=2**18)
        assert abs(mx.value - ref_max) <= 1e-8 * ref_max
        # The scan overestimates minima by its own grid deficit, so compare
        # the min at scan resolution (relative to the circle max).
        mn = circle_extremum(p, 1.0, "min", eps=1e-8)
        ref_min = dense_scan(p, 1.0, "min", points=2**18)
        assert mn.value <= ref_min + 1e-12 * ref_max
        assert abs(mn.value - ref_min) <= 1e-7 * ref_max


def test_max_monotone_in_radius():
    rng = np.random.default_rng(5)
    p = make_poly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    values = [circle_extremum(p, r, "max").value for r in (0.5, 0.9, 1.0, 1.4)]
    eps = 1e-9 * sum(abs(c) * 1.4**j for j, c in enumerate(p.coeffs))
    assert all(a <= b + eps for a, b in zip(values, values[1:]))


def test_coarse_coefficient_bound():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = make_poly(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        n = p.degree
        for r in (0.5, 1.0, 1.5):
            e = circle_extremum(p, r, "max")
            assert e.value >= abs(p.coeffs[-1]) * r**n / (n + 1)
            assert e.value >= circle_extremum(p, r, "min").value


def test_conjugate_reciprocal_symmetry():
    rng = np.random.default_rng(9)
    p = make_poly(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    q = conjugate_reciprocal(p, 6)
    ep = circle_extremum(p, 1.0, "max")
    eq = circle_extremum(q, 1.0, "max")
    assert abs(ep.value - eq.value) <= ep.certified_error + eq.certified_error


def test_value_recomputable_from_witness():
    rng = np.random.default_rng(14)
    p = make_poly(rng.standard_normal(10) + 1j * rng.standard_normal(10))
    e = circle_extremum(p, 1.0, "max")
    z = 1.0 * complex(np.cos(e.witness_theta), np.sin(e.witness_theta))
    assert abs(evaluate(p, z)) == e.value
    assert 0.0 <= e.witness_theta < 2 * np.pi


def test_certified_error_within_requested():
    rng = np.random.default_rng(23)
    p = make_poly(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    for eps in (1e-6, 1e-9):
        e = circle_extremum(p, 1.0, "max", eps=eps)
        assert e.certified_error <= eps


def test_unattainable_tolerance():
    rng = np.random.default_rng(2)
    p = make_poly(rng.standard_normal(13) + 1j * rng.standard_normal(13))
    with pytest.raises(ToleranceUnattainableError):
        circle_extremum(p, 1.0, "max", eps=1e-30)


def test_validation_errors():
    with pytest.raises(ValueError):
        circle_extremum(make_poly([0]), 1.0, "max")
    with pytest.raises(ValueError):
        circle_extremum(make_poly([1, 1]), -1.0, "max")
    with pytest.raises(ValueError):
        circle_extremum(make_poly([1, 1]), 1.0, "sup")


@pytest.mark.parametrize("degree", [0, 1, 12, 64])
def test_abs_sq_fourier_matches_its_definition(degree):
    rng = np.random.default_rng(degree)
    b = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    n = len(b)
    loop = np.array([np.sum(b[l:] * np.conj(b[: n - l])) for l in range(n)])
    fast = _abs_sq_fourier(b)
    assert fast.shape == loop.shape
    assert np.abs(fast - loop).max() <= 1e-13 * np.abs(loop).max()


def test_high_degree_min_certifies():
    # Zeros crowd |z| = 1: min |P| is 2.2e-4 against a max of 121, so a
    # global curvature bound leaves thousands of candidate brackets.
    p, _ = random_zeros_poly_with_roots(GenConfig(n=64, k=1.0, seed=0, mode="zeros_inside"))
    e = circle_extremum(p, 1.0, "min")
    assert e.certified_error <= 1e-9 * sum(abs(c) for c in p.coeffs)
    ref_min = dense_scan(p, 1.0, "min", points=2**18)
    ref_max = dense_scan(p, 1.0, "max", points=2**18)
    assert e.value <= ref_min + 1e-12 * ref_max
    assert ref_min >= e.value - e.certified_error - 1e-12 * ref_max
    assert ref_min - e.value <= 1e-8 * ref_max


def test_low_degree_call_makes_few_scalar_evaluations(evaluations):
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        p = make_poly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        for kind in ("max", "min"):
            evaluations["scalar"] = 0
            circle_extremum(p, 1.0, kind)
            assert evaluations["scalar"] <= 20


@pytest.mark.parametrize("coeffs", [[0] * 12 + [1], [1e-12] + [0] * 11 + [1]])
@pytest.mark.parametrize("kind", ["max", "min"])
def test_flat_modulus_keeps_the_frontier_small(coeffs, kind, evaluations, monkeypatch):
    # |P| is constant, or within 1e-12 of it: every bracket ties the
    # incumbent, and only the tolerance lets them be pruned.  |z^12| has
    # f'' = 0 everywhere, so there is no basin and the call runs the plain
    # search; |z^12 + 1e-12| has |f''| = 2.9e-10 at its extrema, above the
    # rounding bound on the computed f'' (about 4e-11), and its basin's cap
    # (floor) must hold.  The certifier works on P / 2, which puts
    # sum |a_j| just under 1, so the cap is in those units.
    basins = []
    real = extrema._Certifier.basin
    monkeypatch.setattr(extrema._Certifier, "basin",
                        lambda self, *args: basins.append(real(self, *args)) or basins[-1])
    e = circle_extremum(make_poly(coeffs), 1.0, kind)
    assert e.value == pytest.approx(1.0, abs=2e-12)
    assert evaluations["points"] <= 1024
    want = 1.0 + (coeffs[0] if kind == "max" else -coeffs[0])
    assert abs(e.value - want) <= e.certified_error
    (basin,) = basins
    if coeffs[0] == 0:
        assert basin is None
    else:
        cap = 2.0 * basin[2]
        assert cap >= want if kind == "max" else cap <= want


def test_unattainable_tolerance_raises_before_evaluating(evaluations):
    rng = np.random.default_rng(2)
    p = make_poly(rng.standard_normal(13) + 1j * rng.standard_normal(13))
    with pytest.raises(ToleranceUnattainableError):
        circle_extremum(p, 1.0, "max", eps=1e-30)
    assert evaluations["points"] == 0 and evaluations["scalar"] == 0


@pytest.mark.parametrize("eps", [None, 1.0])
@pytest.mark.parametrize("kind", ["max", "min"])
def test_overflowing_radius_is_a_typed_error(kind, eps, evaluations):
    # r**3 overflows a float at r = 1e200: one ValueError before any
    # evaluation, with no OverflowError and no numpy overflow warning.
    with pytest.raises(ValueError, match="P is not finite on the contour"):
        circle_extremum(make_poly([1, 0, 0, 1]), 1e200, kind, eps=eps)
    assert evaluations["points"] == 0 and evaluations["scalar"] == 0


def cell_69(turn_seed=None):
    """Cell 69's layout, turned as the certify workload turns op 69 of ``turn_seed``."""
    layout, _ = random_zeros_poly_with_roots(
        GenConfig(n=48, k=1.0, seed=CELL_69_LAYOUT_SEED, mode="zeros_inside")
    )
    if turn_seed is None:
        return layout
    turn, unit = np.exp(2j * np.pi * rng_stream(turn_seed, 69).random(2))
    return scale(scale_argument(layout, complex(turn)), complex(unit))


def assert_certified_min(p, e, points=2**16):
    ref_min = dense_scan(p, 1.0, "min", points=points)
    ref_max = dense_scan(p, 1.0, "max", points=points)
    assert e.value - e.certified_error <= ref_min + 1e-12 * ref_max
    assert e.value <= ref_min + e.certified_error + 1e-12 * ref_max


@pytest.mark.parametrize("turn_seed", [1, 3])
def test_cell_69_min_certifies(turn_seed):
    # min |P| = 2.0e-5 against a global |P|**2 curvature bound of 1.4e6: with
    # moduli alone some 3.8e5 brackets survived each level and the call
    # raised ToleranceUnattainableError on these two turns.
    p = cell_69(turn_seed)
    e = circle_extremum(p, 1.0, "min")
    assert e.certified_error <= 1e-9 * sum(abs(c) for c in p.coeffs)
    assert_certified_min(p, e)


def test_ce5_seed_1050_levels_stay_small(monkeypatch):
    # Its min |P| on |z| = 0.8 took 18 levels, the largest 471,625 points
    # against the 2**19 per-level cap.
    sizes = []
    real = extrema._vector_eval

    def recorded(p, r, theta):
        sizes.append(len(theta))
        return real(p, r, theta)

    monkeypatch.setattr(extrema, "_vector_eval", recorded)
    assert check_inequality(regenerate_instance("CE5", 1050, 0)).passed
    assert max(sizes) < 2**19 // 4


def test_deep_minima_end_within_five_levels(monkeypatch):
    # Near a small minimum the global L2 slack alone kept these frontiers
    # alive: TE1 seed 5010 trial 1's dominated-pair min |F| on |z| = 1 took
    # 11 levels, and CE5 seed 5046 trial 1's min |P| on |z| = 0.8 took 9.
    calls = []
    real_eval, real_extremum = extrema._vector_eval, extrema.circle_extremum

    def counted_eval(p, r, theta):
        calls[-1][-1] += 1
        return real_eval(p, r, theta)

    def recorded(where):
        def extremum(p, r, kind, eps=None):
            calls.append([where, kind, r, 0])
            return real_extremum(p, r, kind, eps=eps)
        return extremum

    monkeypatch.setattr(extrema, "_vector_eval", counted_eval)
    monkeypatch.setattr(generators, "circle_extremum", recorded("pair"))
    monkeypatch.setattr(inequalities, "circle_extremum", recorded("instance"))
    for ineq_id, seed, call in (("TE1", 5010, ["pair", "min", 1.0]),
                                ("CE5", 5046, ["instance", "min", 0.8])):
        calls.clear()
        check_inequality(regenerate_instance(ineq_id, seed, 1))
        levels = [c[-1] for c in calls if c[:-1] == call]
        assert levels and max(levels) <= 5, (ineq_id, levels)


def test_chord_bound_is_below_the_bracket_minimum():
    # P(z) = z on |z| = 1: |P| = 1 on every bracket.
    cert = extrema._Certifier(make_poly([0, 1]), 1.0)
    width = 0.1
    lo = np.exp(1j * np.array([0.0, 1.0]))
    bound = cert.chord_bound(lo, lo * np.exp(1j * width), width)
    assert np.all(bound <= 1.0) and np.all(bound > 1.0 - width**2)
    nan = complex("nan")
    degenerate = cert.chord_bound(np.array([1 + 0j, nan, 1 + 0j]),
                                  np.array([1 + 0j, 1 + 0j, nan]), width)
    assert np.isnan(degenerate).all()


def test_nan_chord_bound_prunes_no_bracket(monkeypatch):
    # With every chord bound NaN a min call must prune level by level as it
    # does with the moduli alone, which a chord bound of -inf leaves.
    p, _ = random_zeros_poly_with_roots(GenConfig(n=10, k=1.0, seed=24, mode="zeros_inside"))
    runs = []
    for fill in (np.nan, -np.inf):
        frontiers = []

        def stub(self, v_lo, v_hi, width, fill=fill, frontiers=frontiers):
            frontiers.append(len(v_lo))
            return np.full(v_lo.shape, fill)

        monkeypatch.setattr(extrema._Certifier, "chord_bound", stub)
        runs.append((circle_extremum(p, 1.0, "min"), frontiers))
    (got, nan_frontiers), (want, moduli_frontiers) = runs
    assert len(nan_frontiers) > 1
    assert nan_frontiers == moduli_frontiers
    assert got == want
    assert_certified_min(p, got)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64])
def test_basin_certificate_agrees_with_dense_scan(n):
    # The true extremum lies within certified_error of the value, and within
    # the scan's slope bound times half its spacing of the best scan sample.
    rng = np.random.default_rng(100 + n)
    p = make_poly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
    points = 2**16
    theta = 2.0 * np.pi * np.arange(points) / points
    for r in (0.3, 0.8, 1.0, 1.5):
        vals = np.abs(evaluate(p, r * np.exp(1j * theta)))
        weights = np.abs(np.asarray(p.coeffs)) * r ** np.arange(n + 1)
        tiny = 1e-12 * weights.sum()
        gap = float((np.arange(n + 1) * weights).sum()) * np.pi / points + tiny
        mx = circle_extremum(p, r, "max")
        assert vals.max() - tiny <= mx.value + mx.certified_error
        assert mx.value <= vals.max() + gap
        mn = circle_extremum(p, r, "min")
        assert mn.value - mn.certified_error <= vals.min() + tiny
        assert mn.value >= vals.min() - gap


def test_near_tie_in_another_basin_is_still_searched(monkeypatch):
    # |z^3 + 0.5 + d z e^{-2 pi i/3}| peaks near 0 and 2 pi / 3, the second
    # higher by about 1.5 d.  The 64-angle grid hits the first peak and
    # samples the second a third of a spacing off it, so the grid's best
    # sample lies in the lower basin, whose certificate must not end the call.
    d, eps = 1e-7, 1e-6
    p = make_poly([0.5, d * np.exp(-2j * np.pi / 3), 0, 1])
    levels = []
    real = extrema._vector_eval

    def recorded(p_, r, theta):
        levels.append(len(theta))
        return real(p_, r, theta)

    monkeypatch.setattr(extrema, "_vector_eval", recorded)
    e = circle_extremum(p, 1.0, "max", eps=eps)
    assert levels
    peak = dense_scan(p, 1.0, "max", points=2**18)
    assert peak - 1e-12 <= e.value + e.certified_error
    assert e.value >= peak - eps
    assert e.certified_error <= eps


def test_zero_on_the_circle_gives_min_zero():
    # P(z) = (z - e^{0.3i})(z + 2) vanishes at theta = 0.3, off the grid.
    p = poly_from_roots([np.exp(0.3j), -2.0], 1.0)
    e = circle_extremum(p, 1.0, "min")
    assert e.value <= e.certified_error
    assert abs(e.witness_theta - 0.3) < 1e-6


def test_most_low_degree_calls_end_at_the_grid(monkeypatch):
    # Polynomials drawn as the suite draws them (n <= 12, each zero mode),
    # on |z| = k, the circle of the suite's Max and Min terms.  The basin
    # certificate prunes every bracket of the FFT grid in at least half of
    # the calls, so they evaluate no branch-and-bound level.  (Gaussian
    # coefficients end fewer calls there: about 60 of 200.)
    levels = []
    real = extrema._vector_eval
    monkeypatch.setattr(extrema, "_vector_eval",
                        lambda p, r, theta: levels.append(1) or real(p, r, theta))
    modes = ("zeros_inside", "zeros_outside_open_disk", "unconstrained")
    rng = np.random.default_rng(77)
    at_grid = 0
    for i in range(100):
        n = int(rng.integers(1, 13))
        k = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        p, _ = random_zeros_poly_with_roots(GenConfig(n=n, k=k, seed=i, mode=modes[i % 3]))
        for kind in ("max", "min"):
            levels.clear()
            circle_extremum(p, k, kind)
            at_grid += not levels
    assert at_grid >= 100


@pytest.mark.parametrize("r", [1e60, 1e100])
@pytest.mark.parametrize("kind", ["max", "min"])
def test_large_radius_squares_do_not_overflow(r, kind):
    # |1 + z^3| is r^3 +- 1 on |z| = r, about 1e180 or 1e300: finite, though
    # its square is not.  No overflow warning, and the value is certified.
    p = make_poly([1, 0, 0, 1])
    e = circle_extremum(p, r, kind)
    assert e.value == pytest.approx(r**3, rel=1e-15)
    assert e.certified_error <= 1e-9 * r**3
    t = e.witness_theta
    assert e.value == abs(evaluate(p, r * complex(np.cos(t), np.sin(t))))


def times_power_of_two(p, k):
    return make_poly([complex(math.ldexp(c.real, k), math.ldexp(c.imag, k)) for c in p.coeffs])


def suite_like_draws():
    # Degrees and zero modes as the suite draws them, on the circles of its
    # Max and Min terms, plus the n = 64 layout of the high-degree test.
    modes = ("zeros_inside", "zeros_outside_open_disk", "unconstrained")
    rng = np.random.default_rng(123)
    for i in range(12):
        n = int(rng.integers(2, 13))
        k = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        p, _ = random_zeros_poly_with_roots(GenConfig(n=n, k=k, seed=i, mode=modes[i % 3]))
        yield p, k
    p, _ = random_zeros_poly_with_roots(GenConfig(n=64, k=1.0, seed=0, mode="zeros_inside"))
    yield p, 1.0


@pytest.mark.parametrize("k", [-900, -500, 0, 500, 900])
def test_result_scales_with_a_power_of_two_bit_for_bit(k):
    # Every call certifies P at unit scale, so 2**k P gives 2**k times P's
    # value and error at the same witness, to the last bit.
    for p, r in suite_like_draws():
        for kind in ("max", "min"):
            want = circle_extremum(p, r, kind)
            got = circle_extremum(times_power_of_two(p, k), r, kind)
            assert got.witness_theta == want.witness_theta
            assert got.value == math.ldexp(want.value, k)
            assert got.certified_error == math.ldexp(want.certified_error, k)


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-160, 1.0, 1e60])
@pytest.mark.parametrize("kind", ["max", "min"])
def test_tiny_and_huge_multiples_certify(c, kind):
    # |c (1 + z^3)| on |z| = 1.5 runs from 2.375 c to 4.375 c.  At c = 1e-160
    # and below, |P|**2 underflows unless the call works at unit scale.
    p = make_poly([c, 0, 0, c])
    e = circle_extremum(p, 1.5, kind)
    assert e.value == pytest.approx((4.375 if kind == "max" else 2.375) * c, rel=1e-12)
    assert e.certified_error <= 1e-9 * 4.375 * c
    t = e.witness_theta
    assert e.value == abs(evaluate(p, 1.5 * complex(math.cos(t), math.sin(t))))


def test_tiny_min_off_the_grid_certifies():
    # The min of |1 + 0.3 z + z^3| on |z| = 1 lies between grid angles, and at
    # 1e-160 times that polynomial the squares that bound it underflowed.
    unit = circle_extremum(make_poly([1, 0.3, 0, 1]), 1.0, "min")
    e = circle_extremum(make_poly([1e-160, 0.3e-160, 0, 1e-160]), 1.0, "min")
    assert e.value == pytest.approx(1e-160 * unit.value, rel=1e-9)
    assert e.certified_error <= 1e-9 * 2.3e-160


@pytest.mark.parametrize("kind", ["max", "min"])
def test_subnormal_polynomial_is_a_value_error(kind):
    with pytest.raises(ValueError, match="below the normal float range"):
        circle_extremum(make_poly([1e-310, 0, 0, 1e-310]), 1.5, kind)
    # 1e300 * 2**-e overflows, as |1e300 z| is 1e-10 on |z| = 1e-310.
    with pytest.raises(ValueError, match="overflows at unit scale"):
        circle_extremum(make_poly([1e-300, 1e300]), 1e-310, kind)


@pytest.mark.parametrize("kind", ["max", "min"])
def test_tolerance_far_above_a_tiny_polynomial(kind):
    # eps * 2**-e would overflow; any eps past 2 sum |a_j| r**j prunes the
    # whole first level, so the call certifies as with that tolerance.
    p = make_poly([1e-300, 0, 0, 1e-300])
    e = circle_extremum(p, 1.5, kind, eps=1e10)
    assert e.certified_error <= 2.0 * 4.375e-300
    assert abs(e.value - (4.375e-300 if kind == "max" else 2.375e-300)) <= e.certified_error
