"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the full sweep (criterion 3) runs 200 trials for each of the 25
registry entries and is the slowest item here.
"""

import json
import time

import numpy as np

from polarineq import (
    INEQUALITY_IDS,
    GenConfig,
    PolarSpec,
    build_instance,
    count_zeros_in_disk,
    evaluate_sides,
    find_roots,
    fuzz_search,
    make_poly,
    polar_chain,
    run_suite,
    sharpness_probe,
    sth_derivative,
)
from polarineq.cli import main
from polarineq.extrema import circle_extremum
from polarineq.generators import random_zeros_poly_with_roots
from polarineq.inequalities import rhs_sign_flip
from polarineq.poly import evaluate, scale


def _announce(num: int, text: str):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_equality_families():
    for n in (3, 7):
        slack = sharpness_probe("E1", "power", PolarSpec(n=n, s=0, k=1.0), a=1.5 - 0.5j)
        assert abs(slack) <= 1e-10, f"E1 power n={n}: {slack}"
    slack = sharpness_probe("E2", "erdos_lax", PolarSpec(n=5, s=0, k=1.0), a=0.5, b=0.5)
    assert abs(slack) <= 1e-9, f"E2 erdos_lax: {slack}"
    for n in (2, 6):
        slack = sharpness_probe("E3", "turan", PolarSpec(n=n, s=0, k=1.0))
        assert abs(slack) <= 1e-9, f"E3 turan n={n}: {slack}"
    for n, alpha in ((4, 3.0), (6, 2.5)):
        slack = sharpness_probe("AE", "half", PolarSpec(n=n, s=1, k=1.0, alphas=(alpha,)))
        assert abs(slack) <= 1e-9, f"AE half n={n}: {slack}"
    _announce(1, "equality families E1/E2/E3/AE at closed-form extremals")


def test_criterion_2_hand_derived_te1_point():
    f = make_poly([0, 0, 1])
    p = scale(f, 0.5)
    spec = PolarSpec(n=2, s=1, k=1.0, alphas=(2.0,), beta=0.5)
    inst = build_instance("TE1", p, spec, f=f, roots=(0j, 0j))
    lhs, rhs = evaluate_sides(inst, 1.0)
    assert abs(lhs - 2.25) <= 1e-12
    assert abs(rhs - 4.5) <= 1e-12
    _announce(2, f"TE1 point check lhs={lhs} rhs={rhs}")


def test_criterion_3_randomized_validity_all_ids():
    start = time.perf_counter()
    rep = run_suite(list(INEQUALITY_IDS), trials=200, seed=42, tol_rel=1e-8)
    elapsed = time.perf_counter() - start
    failures = [
        (e["id"], e["trials"] - e["passes"]) for e in rep.results if e["passes"] != e["trials"]
    ]
    assert not failures, f"violations: {failures}"
    assert rep.passed
    assert elapsed <= 300.0, f"suite took {elapsed:.0f}s (budget 300s)"
    _announce(3, f"25 ids x 200 trials all pass in {elapsed:.0f}s")


def _random_outside_instance(rng, seed, def_id, k):
    n = int(rng.integers(3, 10))
    s = int(rng.integers(1, min(3, n - 1) + 1))
    cfg = GenConfig(n=n, k=k, seed=seed, mode="zeros_outside_open_disk")
    p, roots = random_zeros_poly_with_roots(cfg)
    alphas = tuple(
        complex(rng.uniform(k * (1 + 1e-9), 4 * k) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        for _ in range(s)
    )
    spec = PolarSpec(n=n, s=s, k=k, alphas=alphas, beta=0j)
    return build_instance(def_id, p, spec, roots=roots), spec


def test_criterion_4_reduction_identities():
    rng = np.random.default_rng(404)
    pairs = 0
    for seed in range(40):
        te2, spec = _random_outside_instance(rng, seed, "TE2", 1.0)
        ae = build_instance("AE", te2.p, spec, roots=None if te2.p.degree < 1 else
                            tuple(find_roots(te2.p).roots))
        radii = np.exp(rng.uniform(0, np.log(3), 250))
        thetas = rng.uniform(0, 2 * np.pi, 250)
        z = radii * np.exp(1j * thetas)
        zs = np.abs(z) ** spec.s
        _, r2 = te2.defn.sides(te2, z)
        _, ra = ae.defn.sides(ae, z)
        assert np.all(np.abs(r2 - zs * ra) <= 1e-12 * r2)
        pairs += len(z)
    assert pairs >= 10_000
    rng = np.random.default_rng(405)
    pairs = 0
    for seed in range(40):
        ce9, spec = _random_outside_instance(rng, 100 + seed, "CE9", 1.0)
        awe = build_instance("AWE", ce9.p, spec, roots=tuple(find_roots(ce9.p).roots))
        radii = np.exp(rng.uniform(0, np.log(3), 250))
        z = radii * np.exp(1j * rng.uniform(0, 2 * np.pi, 250))
        l9, r9 = ce9.defn.sides(ce9, z)
        lw, rw = awe.defn.sides(awe, z)
        assert np.all(np.abs(r9 - rw) <= 1e-12 * r9)
        assert np.all(np.abs(l9 - lw) <= 1e-12 * np.maximum(l9, 1e-300))
        pairs += len(z)
    assert pairs >= 10_000
    _announce(4, "TE2(beta=0,k=1) = |z|^s AE and CE9(k=1) = AWE at 10^4 pairs each")


def test_criterion_5_limit_consistency():
    big = 1e6
    rng = np.random.default_rng(505)
    for trial in range(100):
        n = int(rng.integers(4, 13))
        s = int(rng.integers(1, 4))
        p, _ = random_zeros_poly_with_roots(
            GenConfig(n=n, k=1.0, seed=5000 + trial, mode="unconstrained")
        )
        spec = PolarSpec(n=n, s=s, k=1.0, alphas=(big,) * s)
        chain = polar_chain(p, spec)
        target = sth_derivative(p, s)
        m = max(len(chain.coeffs), len(target.coeffs))
        cc = np.zeros(m, dtype=complex)
        tc = np.zeros(m, dtype=complex)
        cc[: len(chain.coeffs)] = chain.coeffs
        tc[: len(target.coeffs)] = target.coeffs
        ref = np.abs(tc).max()
        assert np.abs(cc / big**s - tc).max() <= 1e-4 * ref, f"trial {trial} n={n} s={s}"
    _announce(5, "polar chains at alpha=1e6 match s-th derivatives to 1e-4")


def test_criterion_6_laguerre_containment():
    rng = np.random.default_rng(606)
    for trial in range(200):
        n = int(rng.integers(3, 11))
        s = int(rng.integers(1, min(3, n - 1) + 1))
        k = float((0.3, 0.5, 0.8, 1.0)[int(rng.integers(0, 4))])
        p, _ = random_zeros_poly_with_roots(
            GenConfig(n=n, k=k, seed=6000 + trial, mode="zeros_inside")
        )
        alphas = tuple(
            complex(rng.uniform(k * 1.001, 4 * k) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            for _ in range(s)
        )
        chain = polar_chain(p, PolarSpec(n=n, s=s, k=k, alphas=alphas))
        assert chain.degree == n - s
        rep = find_roots(chain)
        assert rep.max_modulus <= k + 1e-7, f"trial {trial}: {rep.max_modulus} > {k}"
    _announce(6, "200 polar chains keep their zeros inside |z| <= k + 1e-7")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(707)
    for _ in range(50):
        p = make_poly(rng.standard_normal(11) + 1j * rng.standard_normal(11))
        ext = circle_extremum(p, 1.0, "max", eps=1e-8)
        theta = 2.0 * np.pi * np.arange(2**18) / 2**18
        ref = float(np.abs(evaluate(p, np.exp(1j * theta))).max())
        assert abs(ext.value - ref) <= 1e-8 * ref
    counted = 0
    poly_idx = 0
    while counted < 100:
        p = make_poly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        poly_idx += 1
        rep = find_roots(p)
        for r in (0.3, 0.7, 1.0, 1.3):
            if min(abs(abs(z) - r) for z in rep.roots) < 1e-6:
                continue
            expected = sum(1 for z in rep.roots if abs(z) < r)
            assert count_zeros_in_disk(p, r) == expected
            counted += 1
    _announce(7, f"extrema match 2^18 scans (50 polys); winding counts agree ({counted} checks)")


def test_criterion_8_mutation_sensitivity():
    with rhs_sign_flip("TE2"):
        hit = fuzz_search(["TE2"], budget=100, seed=7)
    assert hit is not None, "sign-flipped TE2 must be caught within 100 trials"
    assert hit["rel_slack"] < -1e-6
    assert fuzz_search(["TE2"], budget=max(5, hit["trial"] + 1), seed=7) is None
    _announce(8, f"sign-flipped TE2 caught at trial {hit['trial']}")


def test_criterion_9_determinism(tmp_path):
    args = [
        "check", "--ineq", "E1,TE2,LE4", "--trials", "3", "--seed", "42",
        "--tol", "1e-8", "--radii", "1.0,1.05,1.5,3.0", "--format", "json", "--out",
    ]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert json.loads(b1)["pass"] is True
    _announce(9, "fixed-seed check invocations emit byte-identical reports")
