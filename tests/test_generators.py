"""Generator determinism, hypothesis compliance, and extremal families."""

import dataclasses

import numpy as np
import pytest

from polarineq import (
    GenConfig,
    PolarSpec,
    build_instance,
    dominated_pair_with_roots,
    evaluate,
    extremal_poly_with_roots,
    find_roots,
    poly_to_json,
    random_zeros_poly_with_roots,
)
from polarineq import generators


def test_inside_mode_containment():
    cfg = GenConfig(n=5, k=0.8, seed=1, mode="zeros_inside")
    p, _ = random_zeros_poly_with_roots(cfg)
    assert p.degree == 5
    rep = find_roots(p)
    assert rep.max_modulus <= 0.8


def test_outside_mode_moduli():
    for seed in range(30):
        cfg = GenConfig(n=7, k=0.5, seed=seed, mode="zeros_outside_open_disk")
        p, roots = random_zeros_poly_with_roots(cfg)
        assert p.degree == 7
        assert min(abs(r) for r in roots) >= 0.5 - 1e-9
        assert find_roots(p).min_modulus >= 0.5 - 1e-9


def test_outside_mode_hits_boundary():
    hits = 0
    for seed in range(40):
        cfg = GenConfig(n=6, k=0.5, seed=seed, mode="zeros_outside_open_disk")
        _, roots = random_zeros_poly_with_roots(cfg)
        hits += sum(1 for r in roots if abs(abs(r) - 0.5) < 1e-12)
    assert hits > 0  # boundary moduli are mixed in at probability 0.1


def test_degree_one():
    cfg = GenConfig(n=1, k=1.0, seed=3, mode="zeros_inside")
    p, roots = random_zeros_poly_with_roots(cfg)
    assert p.degree == 1
    assert abs(roots[0]) <= 1.0


def test_seed_determinism_byte_equal_json():
    cfg = GenConfig(n=9, k=0.7, seed=123, mode="zeros_inside")
    a = poly_to_json(random_zeros_poly_with_roots(cfg)[0])
    b = poly_to_json(random_zeros_poly_with_roots(cfg)[0])
    assert a == b
    other_cfg = GenConfig(n=9, k=0.7, seed=124, mode="zeros_inside")
    other = poly_to_json(random_zeros_poly_with_roots(other_cfg)[0])
    assert a != other


def test_unconstrained_mode_exact_degree():
    for seed in range(20):
        cfg = GenConfig(n=10, k=1.0, seed=seed, mode="unconstrained")
        p, _ = random_zeros_poly_with_roots(cfg)
        assert p.degree == 10
        assert abs(p.coeffs[-1]) >= 0.5


def test_dominated_pair_scaled_copy():
    cfg = GenConfig(n=4, k=0.8, seed=5, mode="zeros_inside")
    p, f, _ = dominated_pair_with_roots(cfg, 0.7, 0)
    assert p.coeffs == tuple(0.7 * c for c in f.coeffs)


def test_dominated_pair_pure_monomial():
    cfg = GenConfig(n=4, k=0.8, seed=6, mode="zeros_inside")
    p, f, _ = dominated_pair_with_roots(cfg, 0, 0.5j)
    assert p.degree == 4
    assert all(c == 0 for c in p.coeffs[:-1])
    theta = 2 * np.pi * np.arange(512) / 512
    ring = 0.8 * np.exp(1j * theta)
    assert np.all(np.abs(evaluate(p, ring)) <= np.abs(evaluate(f, ring)) + 1e-12)


def test_dominated_pair_random_mix():
    cfg = GenConfig(n=8, k=0.5, seed=7, mode="zeros_inside")
    p, f, _ = dominated_pair_with_roots(cfg, 0.6, 0.3j)
    theta = 2 * np.pi * np.arange(4096) / 4096
    ring = 0.5 * np.exp(1j * theta)
    pa, fa = np.abs(evaluate(p, ring)), np.abs(evaluate(f, ring))
    assert np.all(pa <= fa + 1e-9 * fa.max())


def test_dominated_pair_ignores_where_the_certifier_stopped(monkeypatch):
    # Two certificates of the same minimum, with different certified errors
    # within the tolerance, must give the same P bit for bit.
    cfg = GenConfig(n=6, k=0.8, seed=9, mode="zeros_inside")
    real = generators.circle_extremum
    pairs = []
    for share in (0.05, 0.9):

        def stub(p, r, kind, eps=None, share=share):
            got = real(p, r, kind, eps=eps)
            return dataclasses.replace(got, certified_error=share * eps)

        monkeypatch.setattr(generators, "circle_extremum", stub)
        pairs.append(dominated_pair_with_roots(cfg, 0.55, 0.25j))
    assert pairs[0][0].coeffs == pairs[1][0].coeffs
    assert pairs[0][1].coeffs == pairs[1][1].coeffs


def test_dominated_pair_cancellation_is_an_error(monkeypatch):
    # At k = 1 with min|F| less the tolerance exactly 1, gamma2 = -gamma1 *
    # lead(F) cancels P's leading coefficient exactly.  That is a typed
    # error, not a mix silently nudged into another pair.
    cfg = GenConfig(n=4, k=1.0, seed=0, mode="zeros_inside")
    f, _ = random_zeros_poly_with_roots(cfg)
    real = generators.circle_extremum

    def stub(p, r, kind, eps=None):
        assert (1.0 + eps) - eps == 1.0
        return dataclasses.replace(real(p, r, kind, eps=eps), value=1.0 + eps)

    monkeypatch.setattr(generators, "circle_extremum", stub)
    with pytest.raises(ValueError, match="leading coefficient cancels"):
        dominated_pair_with_roots(cfg, 0.5, -0.5 * f.coeffs[-1])
    with pytest.raises(ValueError, match="cannot both vanish"):
        dominated_pair_with_roots(cfg, 0, 0)


def test_dominated_pair_rejects_large_gammas():
    cfg = GenConfig(n=3, k=1.0, seed=8, mode="zeros_inside")
    with pytest.raises(ValueError):
        dominated_pair_with_roots(cfg, 0.8, 0.3)
    with pytest.raises(ValueError):
        dominated_pair_with_roots(GenConfig(n=3, k=1.0, seed=8, mode="unconstrained"), 0.5, 0)


def test_dominated_pairs_satisfy_te1_hypotheses():
    for seed in range(20):
        cfg = GenConfig(n=6, k=0.8, seed=seed, mode="zeros_inside")
        p, f, roots = dominated_pair_with_roots(cfg, 0.55, 0.25j)
        spec = PolarSpec(n=6, s=2, k=0.8, alphas=(1.0, 2.0j), beta=0.5)
        inst = build_instance("TE1", p, spec, f=f, roots=roots)
        assert inst.hypothesis_report["domination_excess"] <= 0


def test_extremal_families():
    assert extremal_poly_with_roots("half", 3)[0].coeffs == (0.5 + 0j, 0j, 0j, 0.5 + 0j)
    assert extremal_poly_with_roots("turan", 2)[0].coeffs == (1 + 0j, 2 + 0j, 1 + 0j)
    assert extremal_poly_with_roots("power", 4, a=2j)[0].coeffs == (0j, 0j, 0j, 0j, 2j)
    el, _ = extremal_poly_with_roots("erdos_lax", 5)
    assert el.coeffs[0] == 0.5 and el.coeffs[-1] == 0.5


def test_extremal_family_roots_are_consistent():
    for family, n in (("half", 6), ("turan", 4), ("erdos_lax", 5), ("power", 3)):
        p, roots = extremal_poly_with_roots(family, n)
        assert len(roots) == n
        for r in roots:
            assert abs(evaluate(p, r)) < 1e-12 * sum(abs(c) for c in p.coeffs)


def test_erdos_lax_requires_equal_moduli():
    with pytest.raises(ValueError, match="requires"):
        extremal_poly_with_roots("erdos_lax", 3, a=1.0, b=0.5)


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown"):
        extremal_poly_with_roots("chebyshev", 3)
