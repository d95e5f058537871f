"""Polynomial construction, evaluation, and transform tests.

Derived expectations are checked against independent oracles: naive
power-sum evaluation, central finite differences, and hand algebra.
"""

import numpy as np
import pytest

from polarineq import (
    conjugate_reciprocal,
    evaluate,
    make_poly,
    poly_from_json,
    poly_from_roots,
    poly_to_json,
    scale_argument,
    sth_derivative,
)
from polarineq.poly import add, circle_values, modulus_bound, scale


def naive_eval(coeffs, z):
    return sum(c * z**j for j, c in enumerate(coeffs))


def test_make_poly_degree_two():
    p = make_poly([0.5, 0, 0.5])
    assert p.degree == 2
    assert p.coeffs == (0.5 + 0j, 0j, 0.5 + 0j)


def test_make_poly_trims_trailing_zeros():
    p = make_poly([1, 2, 1, 0])
    assert p.degree == 2
    assert evaluate(p, 3) == pytest.approx(16)  # (z+1)^2 at 3


def test_make_poly_zero_polynomial():
    p = make_poly([0])
    assert p.is_zero
    assert p.degree == -1
    assert evaluate(p, 2 + 1j) == 0


def test_make_poly_rejects_empty():
    with pytest.raises(ValueError):
        make_poly([])


def test_eval_half_z_squared_plus_one():
    assert evaluate(make_poly([0.5, 0, 0.5]), 1) == 1


def test_eval_cube_at_2i():
    assert evaluate(make_poly([0, 0, 0, 1]), 2j) == -8j


def test_eval_matches_naive_power_sum():
    rng = np.random.default_rng(42)
    for _ in range(100):
        coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        p = make_poly(coeffs)
        z = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        horner = evaluate(p, z)
        naive = naive_eval(p.coeffs, z)
        assert abs(horner - naive) <= 1e-12 * max(abs(naive), 1e-30)


def test_eval_vectorized_matches_scalar():
    p = make_poly([1, -2j, 0.5, 3])
    zs = np.exp(1j * np.linspace(0, 2 * np.pi, 17))
    vec = evaluate(p, zs)
    for z, v in zip(zs, vec):
        assert abs(v - evaluate(p, complex(z))) < 1e-14


@pytest.mark.parametrize("samples", [17, 64, 12288])
def test_circle_values_match_horner_on_the_grid(samples):
    rng = np.random.default_rng(samples)
    p = make_poly(rng.standard_normal(17) + 1j * rng.standard_normal(17))
    z = 1.3 * np.exp(2j * np.pi * np.arange(samples) / samples)
    got = circle_values(p, 1.3, samples)
    assert np.abs(got - evaluate(p, z)).max() <= 1e-13 * modulus_bound(p, 1.3)


def test_circle_values_refuse_to_truncate():
    with pytest.raises(ValueError, match="16 samples cannot carry 17"):
        circle_values(make_poly(np.ones(17)), 1.0, 16)


def test_sth_derivative_cube():
    assert sth_derivative(make_poly([0, 0, 0, 1]), 2).coeffs == (6 + 0j,) * 0 + (0j, 6 + 0j)


def test_sth_derivative_identity_and_annihilation():
    p = make_poly([1, 2, 3])
    assert sth_derivative(p, 0) is p
    assert sth_derivative(poly_from_roots([-1, -1, -1], 1), 4).is_zero


def test_poly_from_roots_examples():
    assert poly_from_roots([-1, -1], 1).coeffs == (1 + 0j, 2 + 0j, 1 + 0j)
    assert poly_from_roots([], 3).coeffs == (3 + 0j,)
    assert poly_from_roots([1j, -1j], 1).coeffs == (1 + 0j, 0j, 1 + 0j)


def test_poly_from_roots_rejects_zero_lead():
    with pytest.raises(ValueError, match="degenerate"):
        poly_from_roots([1], 0)


def test_conjugate_reciprocal_monomial():
    q = conjugate_reciprocal(make_poly([0, 0, 0, 2 + 1j]), 3)
    assert q.coeffs == (2 - 1j,)


def test_conjugate_reciprocal_self_inversive():
    p = make_poly([0.5, 0, 0.5])
    assert conjugate_reciprocal(p, 2).coeffs == p.coeffs


def test_conjugate_reciprocal_linear_and_involution():
    p = make_poly([-2j, 1])  # z - 2i
    q = conjugate_reciprocal(p, 1)
    assert q.coeffs == (1 + 0j, 2j)  # 1 + 2i z
    back = conjugate_reciprocal(q, 1)
    assert back.coeffs == p.coeffs


def test_conjugate_reciprocal_rejects_small_context():
    with pytest.raises(ValueError):
        conjugate_reciprocal(make_poly([1, 1, 1]), 1)


def test_involution_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coeffs[0] += 3.0  # keep a_0 away from zero
        p = make_poly(coeffs)
        back = conjugate_reciprocal(conjugate_reciprocal(p, 7), 7)
        for a, b in zip(back.coeffs, p.coeffs):
            assert abs(a - b) <= 4e-16 * max(1.0, abs(b))


def test_scale_argument_examples():
    assert scale_argument(make_poly([1, 0, 1]), 2).coeffs == (1 + 0j, 0j, 4 + 0j)
    p = make_poly([1, 2j, 3])
    assert scale_argument(p, 1).coeffs == p.coeffs


def test_modulus_identity_on_circle():
    # |k^n Q(z/k^2)| == |P(z)| on |z| = k, first on the documented instance
    # then on random polynomials.
    p = make_poly([0.5, 0, 0.5])
    k = 0.5
    q = conjugate_reciprocal(p, 2)
    resc = scale(scale_argument(q, 1 / k**2), k**2)
    for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        z = k * np.exp(1j * theta)
        lhs = abs(evaluate(resc, z))
        rhs = abs(evaluate(p, z))
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-30)

    rng = np.random.default_rng(3)
    for k in (0.3, 0.8):
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        p = make_poly(coeffs)
        q = conjugate_reciprocal(p, 8)
        resc = scale(scale_argument(q, 1 / k**2), k**8)
        for theta in rng.uniform(0, 2 * np.pi, 32):
            z = k * np.exp(1j * theta)
            lhs = abs(evaluate(resc, complex(z)))
            rhs = abs(evaluate(p, complex(z)))
            assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1e-30)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(12)
    roots = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = poly_from_roots(roots, 1.3 - 0.7j)
    dp = sth_derivative(p, 1)
    h = 1e-6
    for _ in range(20):
        z = complex(rng.standard_normal() + 1j * rng.standard_normal())
        fd = (evaluate(p, z + h) - evaluate(p, z - h)) / (2 * h)
        exact = evaluate(dp, z)
        assert abs(fd - exact) <= 1e-5 * max(abs(exact), 1.0)


def test_add_and_scale():
    p = add(make_poly([1, 1]), make_poly([1, -1]))
    assert p.coeffs == (2 + 0j,)
    assert scale(make_poly([1, 2]), 0).is_zero
    assert add(make_poly([1, 1]), scale(make_poly([1, 1]), -1)).is_zero


def test_json_round_trip():
    p = make_poly([1 + 2j, 0, -0.5])
    text = poly_to_json(p)
    assert poly_from_json(text).coeffs == p.coeffs
    zero = make_poly([0])
    assert poly_from_json(poly_to_json(zero)).is_zero


@pytest.mark.parametrize(
    "text",
    [
        '{"coeffs": [[NaN, 0]]}',
        '{"coeffs": [[1, 0], [0, Infinity]]}',
        '{"coeffs": []}',
        '{"coeffs": [[1]]}',
        '{"other": 1}',
        "not json",
    ],
)
def test_json_rejects_bad_input(text):
    with pytest.raises(ValueError):
        poly_from_json(text)


def test_json_rejects_boolean_entries():
    # JSON true/false parse as Python bools, which are ints.
    with pytest.raises(ValueError, match="coefficient entries must be numbers"):
        poly_from_json('{"coeffs": [[true, false], [1, 0]]}')
    with pytest.raises(ValueError, match="coefficient entries must be numbers"):
        poly_from_json('{"coeffs": [[1, 0], [2, true]]}')


def test_modulus_bound_overflow_is_inf():
    # 1e200**3 overflows a float: the bound is infinite, not an OverflowError.
    assert modulus_bound(make_poly([1, 0, 0, 1]), 1e200) == np.inf
    assert modulus_bound(make_poly([1, 0, 0, 1]), 2.0) == 9.0
