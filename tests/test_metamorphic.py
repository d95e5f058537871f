"""Metamorphic gates: relations between runs that the theorems guarantee.

There is no exact oracle for a sweep's smallest slack, so these tests check
how it must move when the instance is transformed (Chen, Cheung & Yiu 1998).

* Scaling P and F by ``2^m`` scales every side by ``2^m`` with no rounding,
  so ``min_slack`` scales exactly and ``rel_slack`` and the witness keep
  their bits.  LE3 compares a coefficient ratio with k, so its slack does
  not move at all.
* Conjugating P, F, their zeros, the alphas and beta reflects every side in
  the real axis, ``|Q(conj z)| = |Q(z)|``; the sweep samples other points,
  so ``min_slack`` moves by rounding only.
"""

import math

import pytest

from polarineq import INEQUALITY_IDS, PolarSpec, build_instance, check_inequality
from polarineq.harness import regenerate_instance
from polarineq.poly import make_poly, scale

SEED = 7
TRIALS = 8


def _transformed(inst, coeffs, root, spec):
    """``inst`` rebuilt from ``coeffs(P)``, ``coeffs(F)``, ``root(zeta)`` and ``spec``."""
    evidence = inst.hypothesis_report.get("zero_location")
    roots = None if evidence is None else [root(r) for r in evidence.roots]
    f = None if inst.f is None else coeffs(inst.f)
    return build_instance(inst.defn.ineq_id, coeffs(inst.p), spec, f=f, roots=roots)


def _conjugate(poly):
    return make_poly([c.conjugate() for c in poly.coeffs])


@pytest.mark.parametrize("ineq_id", INEQUALITY_IDS)
def test_power_of_two_scaling_is_exact(ineq_id):
    for trial in range(TRIALS):
        inst = regenerate_instance(ineq_id, SEED, trial)
        rep = check_inequality(inst)
        for m in (-40, 37):
            scaled = _transformed(inst, lambda p: scale(p, 2.0**m), complex, inst.spec)
            got = check_inequality(scaled)
            want = rep.min_slack if ineq_id == "LE3" else math.ldexp(rep.min_slack, m)
            assert got.min_slack == want, (trial, m)
            assert got.rel_slack == rep.rel_slack, (trial, m)
            assert got.witness_z == rep.witness_z, (trial, m)


@pytest.mark.parametrize("ineq_id", INEQUALITY_IDS)
def test_conjugation_moves_the_slack_by_rounding_only(ineq_id):
    for trial in range(TRIALS):
        inst = regenerate_instance(ineq_id, SEED, trial)
        rep = check_inequality(inst)
        spec = inst.spec
        mirrored = PolarSpec(
            n=spec.n, s=spec.s, k=spec.k,
            alphas=tuple(a.conjugate() for a in spec.alphas), beta=spec.beta.conjugate(),
        )
        got = check_inequality(_transformed(inst, _conjugate, complex.conjugate, mirrored))
        assert abs(got.min_slack - rep.min_slack) <= 1e-13 * rep.scale, trial
