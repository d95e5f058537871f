"""Polar derivative, chain, and constant tests."""

import numpy as np
import pytest

from polarineq import (
    PolarSpec,
    falling_factorial,
    find_roots,
    lambda_product,
    make_poly,
    polar_chain,
    polar_derivative,
    poly_from_roots,
    sth_derivative,
)
from polarineq.generators import random_zeros_poly_with_roots, GenConfig
from polarineq.poly import add, scale


def test_polar_derivative_monomial():
    # D_alpha z^n = n * alpha * z^(n-1)
    p = make_poly([0, 0, 0, 1])
    assert polar_derivative(p, 3, 2).coeffs == (0j, 0j, 6 + 0j)


def test_polar_derivative_half_quadratic():
    # 2P + (alpha - z)P' = 1 + alpha z for P = (z^2+1)/2
    p = make_poly([0.5, 0, 0.5])
    alpha = 1.7 - 0.4j
    d = polar_derivative(p, 2, alpha)
    assert d.coeffs == (1 + 0j, alpha)


def test_polar_derivative_collapse_to_zero():
    # alpha placed at the double zero annihilates the polar derivative
    p = poly_from_roots([-1, -1], 1)
    assert polar_derivative(p, 2, -1).is_zero


def test_polar_derivative_rejects_small_context():
    with pytest.raises(ValueError, match="degree context"):
        polar_derivative(make_poly([1, 1, 1]), 1, 0.5)


def test_polar_derivative_linearity():
    rng = np.random.default_rng(21)
    n = 6
    for _ in range(25):
        p = make_poly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        r = make_poly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        alpha = complex(*rng.standard_normal(2))
        left = polar_derivative(add(scale(p, a), scale(r, b)), n, alpha)
        right = add(
            scale(polar_derivative(p, n, alpha), a),
            scale(polar_derivative(r, n, alpha), b),
        )
        m = max(len(left.coeffs), len(right.coeffs), 1)
        lc = list(left.coeffs) + [0j] * (m - len(left.coeffs))
        rc = list(right.coeffs) + [0j] * (m - len(right.coeffs))
        ref = max(abs(c) for c in rc) or 1.0
        assert all(abs(x - y) <= 1e-12 * ref for x, y in zip(lc, rc))


def test_polar_chain_single_step_matches_polar_derivative():
    p = make_poly([1, 2, 3, 4])
    spec = PolarSpec(n=3, s=1, k=1.0, alphas=(1 + 1j,))
    assert polar_chain(p, spec).coeffs == polar_derivative(p, 3, 1 + 1j).coeffs


def test_polar_chain_degree_bound():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        s = int(rng.integers(1, n))
        p = make_poly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        spec = PolarSpec(
            n=n, s=s, k=0.5,
            alphas=tuple(complex(*rng.standard_normal(2)) for _ in range(s)),
        )
        assert polar_chain(p, spec).degree <= n - s


def test_polar_chain_limit_is_sth_derivative():
    big = 1e6
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = make_poly(coeffs)
    spec = PolarSpec(n=5, s=2, k=1.0, alphas=(big, big))
    chain = polar_chain(p, spec)
    target = sth_derivative(p, 2)
    tc = list(target.coeffs) + [0j] * (len(chain.coeffs) - len(target.coeffs))
    ref = max(abs(c) for c in tc)
    for c, t in zip(chain.coeffs, tc):
        assert abs(c / big**2 - t) <= 1e-4 * ref


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_polar_chain_without_polar_points_is_the_derivative(s):
    rng = np.random.default_rng(s)
    p = make_poly(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    assert polar_chain(p, PolarSpec(n=5, s=s, k=0.5)) == sth_derivative(p, s)


def test_polar_limit_contract():
    # |D_A P / A - P'| <= n * max|a_j| * (n+1) / |A|, coefficient-wise
    rng = np.random.default_rng(17)
    n = 7
    p = make_poly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
    dp = sth_derivative(p, 1)
    bound_c = n * max(abs(c) for c in p.coeffs) * (n + 1)
    for big in (1e3, 1e6):
        d = polar_derivative(p, n, big)
        dc = list(d.coeffs) + [0j] * (n - len(d.coeffs))
        pc = list(dp.coeffs) + [0j] * (n - len(dp.coeffs))
        dist = max(abs(a / big - b) for a, b in zip(dc, pc))
        assert dist <= bound_c / big


def test_laguerre_containment():
    # all zeros of P in |z| <= k and |alpha_j| > k keeps the chain's zeros there
    cfg = GenConfig(n=8, k=0.7, seed=5, mode="zeros_inside")
    p, _ = random_zeros_poly_with_roots(cfg)
    spec = PolarSpec(n=8, s=3, k=0.7, alphas=(1.1, 0.9j, -2.0 + 0.3j))
    chain = polar_chain(p, spec)
    rep = find_roots(chain)
    assert rep.max_modulus <= 0.7 + 1e-7


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(4, 4) == 24
    with pytest.raises(ValueError):
        falling_factorial(3, 4)
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_lambda_product():
    assert lambda_product(PolarSpec(n=5, s=2, k=1.0, alphas=(2, 3))) == 2.0
    assert lambda_product(PolarSpec(n=5, s=1, k=0.5, alphas=(1.5j,))) == 1.0
    # exact boundary modulus contributes a zero factor
    assert lambda_product(PolarSpec(n=5, s=1, k=0.5, alphas=(0.5j,))) == 0.0
    # no polar points: the derivative limit, an empty product
    for s in range(4):
        assert lambda_product(PolarSpec(n=5, s=s, k=0.5)) == 1.0
    with pytest.raises(ValueError, match="hypothesis violated"):
        lambda_product(PolarSpec(n=5, s=1, k=1.0, alphas=(0.5,)))


def test_polar_spec_validation():
    with pytest.raises(ValueError):
        PolarSpec(n=0, s=0, k=1.0)
    with pytest.raises(ValueError):
        PolarSpec(n=3, s=3, k=1.0, alphas=(1, 1, 1))  # s > n-1
    with pytest.raises(ValueError):
        PolarSpec(n=3, s=1, k=-1.0, alphas=(1,))
    with pytest.raises(ValueError):
        PolarSpec(n=3, s=2, k=1.0, alphas=(1,))  # wrong alpha count
    spec = PolarSpec(n=3, s=0, k=1.0)  # trivial passthrough allowed
    assert polar_chain(make_poly([1, 1, 1, 1]), spec).coeffs == (1,) * 4
