"""Root localization and argument-principle tests.

The planted-root generator is the oracle for the finder; the winding count
and the finder cross-check each other.
"""

import math

import numpy as np
import pytest

from polarineq import (
    RootConvergenceError,
    conjugate_reciprocal,
    count_zeros_in_disk,
    find_roots,
    make_poly,
    poly_from_roots,
    verify_winding,
)
from polarineq.generators import MODES, GenConfig, random_zeros_poly_with_roots
from polarineq import roots as roots_module
from polarineq.poly import Polynomial, derivative, evaluate, modulus_bound
from polarineq.roots import zero_location_evidence


def planted(seed, n, lo=0.2, hi=0.9):
    rng = np.random.default_rng(seed)
    return [
        complex(m * np.exp(1j * a))
        for m, a in zip(rng.uniform(lo, hi, n), rng.uniform(0, 2 * np.pi, n))
    ]


def test_triple_root_cluster():
    # Multiplicity-3 clusters are limited by the cube root of rounding noise
    # (~1e-5); residuals still meet the acceptance threshold.
    rep = find_roots(poly_from_roots([-1, -1, -1], 1))
    assert len(rep.roots) == 3
    assert max(abs(r + 1) for r in rep.roots) < 5e-5
    scale = 8.0
    assert all(res <= 1e-10 * scale for res in rep.residuals)


def test_quadratic_roots():
    rep = find_roots(make_poly([1, 0, 1]))
    found = sorted(rep.roots, key=lambda r: r.imag)
    assert abs(found[0] + 1j) < 1e-10
    assert abs(found[1] - 1j) < 1e-10


def test_planted_degree_12_hausdorff():
    for seed in (1, 2, 3, 4, 5):
        roots = planted(seed, 12)
        p = poly_from_roots(roots, 1.5 + 0.5j)
        rep = find_roots(p)
        d = max(min(abs(f - t) for f in rep.roots) for t in roots)
        d2 = max(min(abs(f - t) for t in roots) for f in rep.roots)
        assert max(d, d2) < 1e-7


def test_find_roots_rejects_constants():
    with pytest.raises(ValueError):
        find_roots(make_poly([3]))


def test_find_roots_nonconvergence_carries_iterates(monkeypatch):
    p = poly_from_roots(planted(9, 10), 1)
    monkeypatch.setattr(roots_module, "_MAX_ITERATIONS", 1)
    with pytest.raises(RootConvergenceError) as excinfo:
        find_roots(p)
    assert len(excinfo.value.roots) == 10
    assert len(excinfo.value.residuals) == 10


def test_count_zeros_examples():
    assert count_zeros_in_disk(poly_from_roots([0.5, 2], 1), 1.0) == 1
    assert count_zeros_in_disk(make_poly([0, 0, 0, 0, 0, 0, 1]), 0.5) == 6


def test_count_zeros_root_near_contour():
    with pytest.raises(ValueError, match="root near contour"):
        count_zeros_in_disk(poly_from_roots([1.0], 1), 1.0)


def test_count_zeros_non_finite_contour():
    # sum |a_j| * 2**j overflows: an error at once, not after 2**20 samples.
    with pytest.raises(ValueError, match="P is not finite on the contour"):
        count_zeros_in_disk(make_poly([1e308] * 3), 2.0)


def test_count_zeros_radius_power_overflow():
    # r**3 itself overflows a float: the same typed error, not an OverflowError.
    with pytest.raises(ValueError, match="P is not finite on the contour"):
        count_zeros_in_disk(make_poly([1, 0, 0, 1]), 1e200)


@pytest.mark.parametrize("n", [8, 24, 48])
def test_count_zeros_root_on_contour_between_samples(n):
    # A zero on |z| = 1 between samples keeps a phase step of pi/2 or more
    # up to 2**20 samples, so it is a root near the contour too.
    on_circle = complex(math.cos(2.0), math.sin(2.0))
    p = poly_from_roots(planted(n, n - 1) + [on_circle], 1)
    with pytest.raises(ValueError, match="root near contour"):
        count_zeros_in_disk(p, 1.0)


def test_find_roots_non_finite_residual_is_nonconvergence():
    # Every coefficient is 1e308: P, P' and the scale sum(|a_j| * |z|**j)
    # overflow at every start point, and |P| / inf must not pass as converged.
    with pytest.raises(RootConvergenceError):
        find_roots(make_poly([1e308, 1e308, 1e308]))


def test_find_roots_fixed_point_ends_the_iteration(monkeypatch):
    # On the same input the first step turns every iterate to NaN, and the
    # next one moves none: the verdict comes after two steps, not after the
    # full 500-step budget (some 500 Horner passes).
    p = make_poly([1e308, 1e308, 1e308])
    passes = []
    real = roots_module.horner

    def counted(coeffs, z):
        passes.append(z.shape)
        return real(coeffs, z)

    monkeypatch.setattr(roots_module, "horner", counted)
    with pytest.raises(RootConvergenceError) as info:
        find_roots(p)
    assert str(info.value) == "root finder did not converge within 500 iterations"
    assert 1 <= len(passes) <= 3
    assert len(info.value.roots) == 2
    assert all(np.isnan(r) for r in info.value.residuals)


def test_find_roots_degree_40_outside_draw():
    # Zeros out to modulus 3.4: started on the Cauchy-bound circle, the
    # scale sum overflowed and this draw ended in RootConvergenceError.
    p, planted_roots = random_zeros_poly_with_roots(
        GenConfig(n=40, k=0.8, seed=3, mode="zeros_outside_open_disk")
    )
    rep = find_roots(p)
    d = max(min(abs(f - t) for f in rep.roots) for t in planted_roots)
    d2 = max(min(abs(f - t) for t in planted_roots) for f in rep.roots)
    assert max(d, d2) < 1e-9
    assert rep.outside_open_disk(0.8)


@pytest.mark.parametrize(
    "n, seed", [(48, 920656291), (56, 1600592157), (64, 1684862952)]
)
def test_find_roots_inside_disk_no_false_convergence(n, seed):
    # Planted moduli 0.0004-0.50.  Judged by |P| <= 1e-10 * sum(|a_j|), a
    # test that |P| << sum(|a_j|) inside |z| < 1 makes vacuous, iterates at
    # moduli 0.45-0.61 passed as roots and contained_in(0.5) read False.
    p, planted_roots = random_zeros_poly_with_roots(
        GenConfig(n=n, k=0.5, seed=seed, mode="zeros_inside")
    )
    rep = find_roots(p)
    assert rep.contained_in(0.5)
    found = np.sort(np.abs(rep.roots))
    assert np.abs(found - np.sort(np.abs(planted_roots))).max() < 1e-9


def test_find_roots_zeros_at_the_origin_are_exact():
    rep = find_roots(make_poly([0, 0, 0, -0.5, 1]))
    assert rep.roots == (0j, 0j, 0j, 0.5 + 0j)
    assert rep.residuals[:3] == (0.0, 0.0, 0.0)
    assert find_roots(make_poly([0, 0, 0, 0, 0, 0, 1])).roots == (0j,) * 6


def test_find_roots_meets_the_backward_error_bound():
    # Roots on both sides of |z| = 1: the far one is found through the
    # reversed polynomial, and each reported |P(z)| stays within
    # 4 * n * eps of sum(|a_j| * |z|**j).
    p = poly_from_roots([1e-3, 1.0, 1e3], 1)
    rep = find_roots(p)
    eps = np.finfo(float).eps
    for z, resid in zip(rep.roots, rep.residuals):
        assert resid <= 4 * p.degree * eps * modulus_bound(p, abs(z)) * (1 + 1e-12)
    assert sorted(abs(z) for z in rep.roots) == pytest.approx([1e-3, 1.0, 1e3], rel=1e-12)


def test_count_zeros_inside_small_circle():
    # Every zero lies at least 15% inside |z| = 0.5.  A contour threshold
    # scaled by sum(|a_j| * max(1, r)**j) sits far above max |P| on this
    # circle and reported a root near the contour.
    p, roots = random_zeros_poly_with_roots(GenConfig(n=32, k=0.5, seed=1, mode="zeros_inside"))
    assert max(abs(z) for z in roots) < 0.43
    assert count_zeros_in_disk(p, 0.5) == 32


def test_count_zeros_agrees_with_finder():
    count = 0
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        p = make_poly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        rep = find_roots(p)
        for r in (0.3, 0.7, 1.0, 1.3):
            if min(abs(abs(z) - r) for z in rep.roots) < 1e-6:
                continue  # contour too close to a root for the winding count
            expected = sum(1 for z in rep.roots if abs(z) < r)
            assert count_zeros_in_disk(p, r) == expected
            count += 1
    assert count >= 100


def test_winding_verifies_full_root_count():
    p = poly_from_roots(planted(4, 7), 2j)
    rep = verify_winding(p, find_roots(p))
    assert rep.verified_by_winding


def test_coefficient_bound_for_inside_polynomials():
    # (1/n)|a_{n-1}/a_n| <= k for every all-zeros-in-disk polynomial
    for seed in range(50):
        cfg = GenConfig(n=int(3 + seed % 8), k=0.8, seed=seed, mode="zeros_inside")
        p, _ = random_zeros_poly_with_roots(cfg)
        n = p.degree
        assert abs(p.coeffs[-2] / p.coeffs[-1]) / n <= 0.8 + 1e-12


def test_conjugate_reciprocal_root_set():
    roots = planted(8, 7, lo=0.3, hi=0.9)
    p = poly_from_roots(roots, 1.2 - 0.3j)
    q = conjugate_reciprocal(p, 7)
    expected = [1 / r.conjugate() for r in roots]
    rep = find_roots(q)
    d = max(min(abs(f - t) for f in rep.roots) for t in expected)
    assert d < 1e-7


def test_containment_predicates():
    rep = find_roots(poly_from_roots([0.5, 0.6j], 1))
    assert rep.contained_in(0.6)
    assert not rep.contained_in(0.5)
    assert rep.outside_open_disk(0.5)
    assert not rep.outside_open_disk(0.7)


def test_zero_location_evidence_declared_roots():
    # declared roots let multiplicity-6 boundary clusters pass containment
    p = poly_from_roots([-1] * 6, 1)
    ev = zero_location_evidence(p, [-1] * 6)
    assert ev.contained_in(1.0)
    assert ev.max_modulus == 1.0
    # the numerical finder alone cannot certify this polynomial
    assert not find_roots(p).contained_in(1.0)


def test_zero_location_evidence_rejects_wrong_roots():
    p = poly_from_roots([0.5, 0.25], 1)
    with pytest.raises(ValueError, match="declared roots"):
        zero_location_evidence(p, [0.5, 0.3])
    with pytest.raises(ValueError, match="declared"):
        zero_location_evidence(p, [0.5])


def _newton_reference(q, z, n, j0):
    """The Aberth step's evaluations as six ``evaluate`` calls, Q inside and R outside."""
    m = q.degree
    rev = Polynomial(q.coeffs[::-1])
    near = (q, derivative(q), Polynomial(tuple(abs(c) for c in q.coeffs)))
    far = (rev, derivative(rev), Polynomial(tuple(abs(c) for c in rev.coeffs)))
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
    berr = np.where(np.isfinite(scale), np.abs(fx) / scale, np.nan)
    return num, den, berr, resid


def _newton_inputs():
    rng = np.random.default_rng(17)
    for n in (8, 16, 32, 48, 64):
        for mode in MODES:
            p, _ = random_zeros_poly_with_roots(GenConfig(n=n, k=0.8, seed=n, mode=mode))
            yield pytest.param(p, 0, id=f"{mode}-{n}")
    yield pytest.param(make_poly([0, 0, 0, -0.5, 1]), 3, id="origin-zeros")
    yield pytest.param(make_poly([1e308, 1e308, 1e308]), 0, id="overflow")
    yield pytest.param(make_poly(rng.standard_normal(13) + 1j * rng.standard_normal(13)), 0,
                       id="gaussian-12")


@pytest.mark.parametrize("p, j0", _newton_inputs())
def test_one_pass_newton_step_matches_six_evaluations(p, j0):
    q = Polynomial(p.coeffs[j0:])
    tables = (roots_module._horner_table(q),
              roots_module._horner_table(Polynomial(q.coeffs[::-1])))
    rng = np.random.default_rng(q.degree)
    moduli = np.concatenate([10.0 ** rng.uniform(-3, 3, 40), [1.0, 1.0 - 1e-16, 1.0 + 1e-15]])
    z = np.concatenate([
        roots_module._newton_polygon_start(q.coeffs),
        moduli * np.exp(2j * np.pi * rng.random(len(moduli))),
        [complex("nan"), complex("inf"), 1e300 + 0j, 1e-300j],
    ])
    with np.errstate(all="ignore"):
        got = roots_module._newton(tables, z, p.degree, j0)
        want = _newton_reference(q, z, p.degree, j0)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype
        assert np.array_equal(a.view(float), b.view(float), equal_nan=True)


def _count_reference(p, r):
    """``count_zeros_in_disk`` with its samples from Horner evaluation."""
    scale = modulus_bound(p, r)
    if not math.isfinite(scale):
        raise ValueError(f"P is not finite on the contour |z| = {r}")
    samples = 4096 * math.ceil(p.degree / 8 + 1)
    while True:
        theta = 2.0 * np.pi * np.arange(samples) / samples
        w = evaluate(p, r * np.exp(1j * theta))
        if np.abs(w).min() < 1e-9 * scale:
            raise ValueError("root near contour")
        steps = np.angle(np.roll(w, -1) / w)
        if np.abs(steps).max() < np.pi / 2:
            return int(round(float(steps.sum()) / (2.0 * np.pi)))
        samples *= 2
        if samples > 2**20:
            raise ValueError("root near contour")


def _outcome(count, p, r):
    try:
        return count(p, r)
    except ValueError as exc:
        return str(exc)


def _count_inputs():
    for n in (8, 16, 24, 32, 40, 48, 56, 64):
        for mode in MODES:
            p, _ = random_zeros_poly_with_roots(GenConfig(n=n, k=0.8, seed=n, mode=mode))
            for r in (0.5, 0.9, 1.1):
                yield p, r
    on_circle = planted(5, 11) + [1j]
    yield poly_from_roots(on_circle, 1), 1.0  # root near contour
    # A zero 1e-4 outside the circle, half-way between two of the 12288
    # first samples: the phase step between them is too large, and the grid
    # is doubled.
    close = planted(6, 8) + [(1.0 + 1e-4) * np.exp(1j * np.pi / 12288)]
    yield poly_from_roots(close, 1), 1.0


def test_fft_count_matches_horner_reference():
    outcomes = []
    for p, r in _count_inputs():
        got = _outcome(count_zeros_in_disk, p, r)
        assert got == _outcome(_count_reference, p, r), (p.degree, r)
        outcomes.append(got)
    assert outcomes[-2] == "root near contour" and outcomes[-1] == 8
