"""Registry contents, hypothesis gating, side evaluations, and identities.

Hand-derived expectations (frozen after expanding the operators on paper):

* TE1 with F = z^2, P = z^2/2, k = 1, s = 1, alpha = 2, beta = 1/2 at z = 1:
  D_2 P = 2z, so z*P_1 + (1/2)(2*1/2)P = 2.25 z^2 -> lhs 2.25; F gives 4.5.
* AE with P = (z^2+1)/2, alpha = 2, s = 1 at z = 1: D_2 P = 1 + 2z -> 3;
  rhs = (2/2)(|2|+1) * 1 = 3.
* LE2 with P = (z+1)^2, alpha = 3, k = 1 at z = 1: D_3 P = 8(z+1) -> 16;
  rhs = 2 * ((3-1)/2) * |1+1|^2 = 8.
"""

import dataclasses
import math

import numpy as np
import pytest

from polarineq import (
    INEQUALITY_IDS,
    REGISTRY,
    GenConfig,
    HypothesisError,
    PolarSpec,
    build_instance,
    check_inequality,
    evaluate_sides,
    make_poly,
    polar_chain,
    poly_from_roots,
    sharpness_probe,
)
from polarineq.generators import (
    MODES,
    dominated_pair_with_roots,
    extremal_poly_with_roots,
    random_zeros_poly_with_roots,
)
from polarineq.harness import (
    FUZZ_RADII,
    _run_trial,
    regenerate_instance,
    replay_witness,
    run_suite,
)
from polarineq.inequalities import (
    DEFAULT_RADII,
    ZOOM_LEVELS,
    ZOOM_POINTS,
    _oriented_slack,
    rhs_sign_flip,
)
from polarineq import poly as poly_module
from polarineq.poly import evaluate, horner, modulus_bound, scale, sth_derivative


def test_registry_ids_exact():
    assert INEQUALITY_IDS == (
        "E1", "E2", "E3", "E4", "E5", "AE", "AWE", "TE1", "CE1", "CE2", "CE3",
        "CE4", "CE5", "CE_S1", "TE2", "TE3", "CE7", "CE8", "CE9", "CE10",
        "CE11", "LE2", "LE3", "LE4", "LE5",
    )
    assert set(REGISTRY) == set(INEQUALITY_IDS)


def _te1_instance(gamma=0.5):
    f = make_poly([0, 0, 1])
    p = scale(f, gamma)
    spec = PolarSpec(n=2, s=1, k=1.0, alphas=(2.0,), beta=0.5)
    return build_instance("TE1", p, spec, f=f, roots=(0j, 0j))


def test_te1_hand_point_check():
    inst = _te1_instance()
    lhs, rhs = evaluate_sides(inst, 1.0)
    assert abs(lhs - 2.25) <= 1e-12
    assert abs(rhs - 4.5) <= 1e-12


def test_ae_equality_point():
    p, roots = extremal_poly_with_roots("half", 2)
    spec = PolarSpec(n=2, s=1, k=1.0, alphas=(2.0,))
    inst = build_instance("AE", p, spec, roots=roots)
    lhs, rhs = evaluate_sides(inst, 1.0)
    assert abs(lhs - 3.0) <= 1e-12
    assert abs(rhs - 3.0) <= 1e-12


def test_le2_hand_point_check():
    p = poly_from_roots([-1, -1], 1)
    spec = PolarSpec(n=2, s=1, k=1.0, alphas=(3.0,))
    inst = build_instance("LE2", p, spec, roots=(-1 + 0j, -1 + 0j))
    lhs, rhs = evaluate_sides(inst, 1.0)
    assert abs(lhs - 16.0) <= 1e-12
    assert abs(rhs - 8.0) <= 1e-12


def test_te2_boundary_zero_semantics():
    # zeros ON |z| = k are outside the open disk, hence accepted
    p = poly_from_roots([-1, -1], 1)
    spec1 = PolarSpec(n=2, s=1, k=1.0, alphas=(2.0,), beta=0j)
    build_instance("TE2", p, spec1, roots=(-1 + 0j, -1 + 0j))
    spec05 = PolarSpec(n=2, s=1, k=0.5, alphas=(2.0,), beta=0j)
    build_instance("TE2", p, spec05, roots=(-1 + 0j, -1 + 0j))
    # an interior zero violates the hypothesis
    bad = poly_from_roots([-0.1, -2], 1)
    with pytest.raises(HypothesisError, match="no zeros"):
        build_instance("TE2", bad, spec05, roots=(-0.1 + 0j, -2 + 0j))


def test_alpha_hypothesis_rejected():
    f = make_poly([0, 0, 1])
    p = scale(f, 0.5)
    spec = PolarSpec(n=2, s=1, k=1.0, alphas=(0.5,), beta=0.5)
    with pytest.raises(HypothesisError, match="alpha"):
        build_instance("TE1", p, spec, f=f, roots=(0j, 0j))


def test_beta_hypothesis_rejected():
    f = make_poly([0, 0, 1])
    spec = PolarSpec(n=2, s=1, k=1.0, alphas=(2.0,), beta=1.5)
    with pytest.raises(HypothesisError, match="beta"):
        build_instance("TE1", scale(f, 0.5), spec, f=f, roots=(0j, 0j))


def test_degree_and_pair_requirements():
    spec = PolarSpec(n=3, s=1, k=1.0, alphas=(2.0,), beta=0j)
    with pytest.raises(HypothesisError, match="degree"):
        build_instance("TE1", make_poly([1, 1]), spec, f=make_poly([0, 0, 0, 1]),
                       roots=(0j, 0j, 0j))
    with pytest.raises(HypothesisError, match="F"):
        build_instance("TE1", make_poly([1, 0, 0, 1]), spec)


def test_domination_failure_rejected():
    f = make_poly([0, 0, 1])
    p = make_poly([0, 0, 2])  # |P| = 2|F| on the circle
    spec = PolarSpec(n=2, s=1, k=1.0, alphas=(2.0,), beta=0j)
    with pytest.raises(HypothesisError, match="\\|P\\|"):
        build_instance("TE1", p, spec, f=f, roots=(0j, 0j))


@pytest.mark.parametrize("ineq_id", [i for i in INEQUALITY_IDS if REGISTRY[i].pair])
def test_pair_entries_need_the_zeros_of_f_inside(ineq_id):
    # |z^3| <= |(z - 2)^3| on |z| = 1, but F's zeros lie outside the disk.
    alphas = (2.0,) if REGISTRY[ineq_id].needs_alphas else ()
    spec = PolarSpec(n=3, s=1, k=1.0, alphas=alphas)
    f = poly_from_roots([2, 2, 2], 1)
    with pytest.raises(HypothesisError, match="all zeros in"):
        build_instance(ineq_id, make_poly([0, 0, 0, 1]), spec, f=f)


def test_zero_modes_are_generator_modes():
    for defn in REGISTRY.values():
        assert defn.zero_mode in MODES
        if defn.pair:  # pair=True carries F's zero hypothesis itself
            assert defn.zero_mode == "unconstrained"


def test_k_regime_enforced():
    p, roots = random_zeros_poly_with_roots(
        GenConfig(n=4, k=2.0, seed=1, mode="zeros_outside_open_disk")
    )
    spec = PolarSpec(n=4, s=0, k=2.0)
    build_instance("E4", p, spec, roots=roots)  # k >= 1 fine for E4
    p2, roots2 = random_zeros_poly_with_roots(
        GenConfig(n=4, k=0.5, seed=1, mode="zeros_outside_open_disk")
    )
    with pytest.raises(HypothesisError, match="k >= 1"):
        build_instance("E4", p2, PolarSpec(n=4, s=0, k=0.5), roots=roots2)
    with pytest.raises(HypothesisError, match="k <= 1"):
        build_instance(
            "TE2", p, PolarSpec(n=4, s=1, k=2.0, alphas=(3.0,), beta=0j),
            roots=roots,
        )


def test_unknown_id():
    with pytest.raises(ValueError, match="valid ids"):
        build_instance("TE9", make_poly([1, 1]), PolarSpec(n=1, s=0, k=1.0))


def test_scaled_copy_pass():
    # P = gamma F makes lhs = |gamma| rhs pointwise, so slack stays nonnegative
    inst = _te1_instance(gamma=0.7)
    report = check_inequality(inst, tol_rel=1e-8)
    assert report.passed
    assert report.min_slack >= -1e-8 * report.scale


def test_e1_equality_family_slack():
    p = make_poly([0, 0, 0, 0, 0, 0, 0, 5])
    inst = build_instance("E1", p, PolarSpec(n=7, s=0, k=1.0))
    report = check_inequality(inst)
    assert abs(report.rel_slack) <= 1e-10
    assert report.passed


def test_e3_equality_family_slack():
    p = poly_from_roots([-1] * 4, 1)
    inst = build_instance("E3", p, PolarSpec(n=4, s=0, k=1.0), roots=(-1 + 0j,) * 4)
    report = check_inequality(inst)
    assert abs(report.rel_slack) <= 1e-10


def test_evaluate_sides_domain_checks():
    inst = _te1_instance()
    with pytest.raises(ValueError, match="domain"):
        evaluate_sides(inst, 2e3)
    with pytest.raises(ValueError, match="domain"):
        evaluate_sides(inst, 0.5)
    p = poly_from_roots([-1, -1], 1)
    le2 = build_instance(
        "LE2", p, PolarSpec(n=2, s=1, k=1.0, alphas=(3.0,)), roots=(-1 + 0j,) * 2
    )
    with pytest.raises(ValueError, match="domain"):
        evaluate_sides(le2, 1.5)


@pytest.mark.parametrize(
    "z",
    [(1.0 - 5e-10) * complex(math.cos(0.3), math.sin(0.3)), complex(math.nan, 0.0)],
    ids=["below_the_sweep_floor", "nan"],
)
def test_replay_refuses_a_point_no_sweep_may_visit(z):
    # The sweep's radii start at 1 - 1e-12, so no witness lies at 1 - 5e-10,
    # and a NaN z has no modulus to check.
    with pytest.raises(ValueError, match="domain"):
        replay_witness("TE2", 1, 0, z)


def test_evaluate_sides_rejects_a_non_finite_side():
    inst = _te1_instance()
    inst.defn = dataclasses.replace(
        inst.defn, sides=lambda inst_, z: (np.abs(z), np.full(np.shape(z), math.nan))
    )
    with pytest.raises(ValueError, match=r"TE1: slack is not finite at z = "):
        evaluate_sides(inst, 1.5)


def test_check_rejects_bad_angles_and_radii():
    inst = _te1_instance()
    for angles in (100, 300.5):
        with pytest.raises(ValueError, match="angles"):
            check_inequality(inst, angles_per_radius=angles)
    with pytest.raises(ValueError, match="radius"):
        check_inequality(inst, radii=(0.5, 1.0))


def test_check_rejects_empty_and_nan_radii():
    inst = _te1_instance()
    with pytest.raises(ValueError, match="radii"):
        check_inequality(inst, radii=())
    with pytest.raises(ValueError, match="radius"):
        check_inequality(inst, radii=(1.0, float("nan")))


def test_check_rejects_non_finite_tolerance():
    # An infinite tolerance would pass the sign-flipped TE2 violation.
    cfg = GenConfig(n=5, k=0.5, seed=51, mode="zeros_outside_open_disk")
    p, roots = random_zeros_poly_with_roots(cfg)
    spec = PolarSpec(n=5, s=1, k=0.5, alphas=(1.0,), beta=0.5)
    inst = build_instance("TE2", p, spec, roots=roots)
    with rhs_sign_flip("TE2"):
        for tol in (math.inf, math.nan, 0.0, -1e-8):
            with pytest.raises(ValueError, match="tol_rel"):
                check_inequality(inst, tol_rel=tol)


def test_one_side_evaluation_per_grid_and_zoom_level():
    # One batched call for every radius's grid (which also gives the zoom's
    # flatness scale) and at most ZOOM_LEVELS calls that sample whole
    # brackets; the witness's sides come from those, not from a 1-point call.
    for ineq_id in INEQUALITY_IDS:
        inst = regenerate_instance(ineq_id, 5, 0)
        if inst.defn.domain == "parameter_only":
            continue
        sizes = []
        sides = inst.defn.sides

        def counted(inst_, z, sides=sides, sizes=sizes):
            sizes.append(np.size(z))
            return sides(inst_, z)

        inst.defn = dataclasses.replace(inst.defn, sides=counted)
        rep = check_inequality(inst)
        assert 1 not in sizes, ineq_id
        grid, *zoom = sizes
        assert grid == len(rep.radii) * 512, ineq_id
        assert 1 <= len(zoom) <= ZOOM_LEVELS, ineq_id
        assert all(size % ZOOM_POINTS == 0 for size in zoom), ineq_id
        assert rep.samples == grid + sum(zoom), ineq_id


# A third of a spacing off the 512-angle grid, and off every zoom sample.
_THETA0 = (100.0 + 1.0 / 3.0) * 2.0 * math.pi / 512


def _synthetic_sweep(slack_of_angle, nan_in=None):
    """``check_inequality`` of an E1 instance swept as a unit-circle entry,
    its slack replaced by ``slack_of_angle(arg(z * e^{-i theta0}))``; returns
    the report and the number of zoom levels that ran.  ``nan_in`` ("grid" or
    "zoom") names the side evaluations whose right side is NaN."""
    inst = build_instance("E1", make_poly([1, 0, 0, 1]), PolarSpec(n=3, s=0, k=1.0))
    sizes = []
    turn = complex(math.cos(_THETA0), -math.sin(_THETA0))

    def sides(inst_, z):
        sizes.append(np.size(z))
        rhs = slack_of_angle(np.angle(z * turn))
        stage = "grid" if len(sizes) == 1 else "zoom" if np.size(z) > 1 else "witness"
        if stage == nan_in:
            rhs = np.full(np.shape(z), math.nan)
        return np.zeros(np.shape(z)), rhs

    inst.defn = dataclasses.replace(inst.defn, sides=sides, domain="unit_circle")
    rep = check_inequality(inst, angles_per_radius=512)
    return rep, sum(size > 1 for size in sizes[1:])


def test_zoom_closes_in_on_a_kink():
    # A V-shaped slack never reads flat.  The parabola through the samples
    # about its best one still moves the bracket onto the kink, and once its
    # predicted gain is below rounding the bracket retires, within 8.6e-14 of
    # the kink's value (the cap of ZOOM_LEVELS levels of 8x gets that close).
    rep, levels = _synthetic_sweep(lambda t: 1.0 + 100.0 * np.abs(t))
    assert levels <= ZOOM_LEVELS
    assert 0.0 <= rep.min_slack - 1.0 <= 8.6e-14


def test_zoom_stops_once_a_bowl_is_flat():
    # An exact parabola: the first vertex step lands on its minimum.
    rep, levels = _synthetic_sweep(lambda t: 1.0 + 100.0 * t**2)
    assert levels <= 4
    assert 0.0 <= rep.min_slack - 1.0 <= 1e-14


def test_nan_scale_does_not_end_the_zoom():
    # NaN sides on the grid are an error, not a missing flatness scale.
    with pytest.raises(ValueError, match=r"E1: slack is not finite at z = "):
        _synthetic_sweep(lambda t: 1.0 + 100.0 * t**2, nan_in="grid")


def test_nan_zoom_samples_keep_brackets_live():
    # NaN sides in a zoom level are an error too, not a sample that keeps
    # the grid's best slack standing.
    with pytest.raises(ValueError, match=r"E1: slack is not finite at z = "):
        _synthetic_sweep(lambda t: 1.0 + 100.0 * t**2, nan_in="zoom")


def test_nan_arc_is_an_error_not_a_pass():
    # The right side is NaN on the arc |theta - 1| < 0.05 (8 of 512 grid
    # angles) and 1 + 0.1 cos(theta) elsewhere.  No grid slack of the arc is
    # among the zoom's starting candidates, so unchecked it would pass with
    # min_slack 0.9.  The error names a z on the arc.
    inst = build_instance("E1", make_poly([1, 0, 0, 1]), PolarSpec(n=3, s=0, k=1.0))

    def sides(inst_, z):
        t = np.angle(z)
        rhs = np.where(np.abs(t - 1.0) < 0.05, math.nan, 1.0 + 0.1 * np.cos(t))
        return np.zeros(np.shape(z)), rhs

    inst.defn = dataclasses.replace(inst.defn, sides=sides, domain="unit_circle")
    with pytest.raises(ValueError, match=r"slack is not finite at z = ") as excinfo:
        check_inequality(inst)
    z = complex(str(excinfo.value).rsplit("z = ", 1)[1])
    assert abs(np.angle(z) - 1.0) < 0.05


@pytest.mark.parametrize("rhs", [math.nan, math.inf])
def test_non_finite_parameter_only_sides_are_an_error(rhs):
    inst = build_instance("E5", make_poly([1, 0, 1]), PolarSpec(n=2, s=0, k=1.0))
    inst.defn = dataclasses.replace(inst.defn, sides=lambda inst_, z: (1.0, rhs))
    with pytest.raises(ValueError, match=r"E5: slack is not finite"):
        check_inequality(inst)


def test_every_witness_replays_to_its_slack():
    # A retired bracket keeps the (slack, z) pair it sampled, so each
    # record's witness reproduces its min_slack; the fuzz witnesses show that
    # a replay accepts every point either sweep visits.
    suite = [(r, False) for r in run_suite(list(INEQUALITY_IDS), 4, seed=42).records]
    fuzz = [
        (_run_trial(ineq_id, 100, trial, FUZZ_RADII, 256, 1e-8, aggressive=True), True)
        for ineq_id in INEQUALITY_IDS
        for trial in range(8)
    ]
    for r, aggressive in suite + fuzz:
        slack = replay_witness(r.ineq_id, r.seed, r.trial, r.witness_z, aggressive=aggressive)
        assert abs(slack - r.min_slack) <= 4 * np.finfo(float).eps * r.scale, r


@pytest.mark.parametrize("seed", [42, 1, 2])
def test_zoom_is_no_worse_than_a_dense_scan(seed):
    # A 2**15-angle scan of every swept radius, 64x the grid, finds no slack
    # below the zoom's min_slack beyond rounding: the vertex steps and the
    # retire tests do not stop a bracket short of its minimum.
    theta = 2.0 * np.pi * np.arange(2**15) / 2**15
    for r in run_suite(list(INEQUALITY_IDS), 4, seed=seed).records:
        inst = regenerate_instance(r.ineq_id, r.seed, r.trial)
        if inst.defn.domain == "parameter_only":
            continue
        radii = (1.0,) if inst.defn.domain == "unit_circle" else DEFAULT_RADII
        z = (np.asarray(radii)[:, None] * np.exp(1j * theta)).ravel()
        lhs, rhs = inst.defn.sides(inst, z)
        dense = _oriented_slack(inst.defn, np.asarray(lhs), np.asarray(rhs)).min()
        assert r.min_slack <= dense + 1e-13 * r.scale, r


@pytest.mark.parametrize("ineq_id", ["E1", "E2", "E4"])
def test_certified_max_dp_bounds_a_dense_scan(ineq_id):
    # E1, E2 and E4 read the certified max |P'| on |z| = 1 instead of
    # sweeping |P'|: no 2**15-angle scan rises above it plus its error.
    unit = np.exp(2j * np.pi * np.arange(2**15) / 2**15)
    for trial in range(40):
        inst = regenerate_instance(ineq_id, 42, trial)
        ext = inst.extremum("dp", 1.0, "max")
        assert evaluate_sides(inst, None)[0] == ext.value
        scan = np.abs(evaluate(inst.deriv1_p, unit)).max()
        assert scan <= ext.value + ext.certified_error, (ineq_id, trial)


def _e1_pointwise_sides(inst, z):
    # E1 as a unit-circle sweep: |P'(z)| against the constant n max |P|.
    return np.abs(evaluate(inst.deriv1_p, z)), np.full(np.shape(z), inst.spec.n * inst.max_p(1.0))


def test_zoom_finds_an_off_grid_maximum():
    # |P'| = |n z^(n-1) + b| on |z| = 1 peaks at n + |b| where z^(n-1) lines
    # up with b.  arg b puts all four peaks a third of a spacing off the
    # 512-angle grid, where the grid alone misses n + |b| by about 1e-5, so
    # the zoom of E1's pointwise form has to close in on a peak between grid
    # angles.  E1 itself reads the certified max |P'|, whose witness is a
    # peak too.
    n, angles = 5, 512
    peak = (100.0 + 1.0 / 3.0) * 2.0 * math.pi / angles
    b = 0.6 * complex(math.cos((n - 1) * peak), math.sin((n - 1) * peak))
    p = make_poly([0, b, 0, 0, 0, 1])
    inst = build_instance("E1", p, PolarSpec(n=n, s=0, k=1.0))
    witness = check_inequality(inst).witness_z
    assert abs(abs(evaluate(inst.deriv1_p, witness)) - (n + abs(b))) <= 1e-14 * (n + abs(b))
    inst.defn = dataclasses.replace(inst.defn, sides=_e1_pointwise_sides, domain="unit_circle")
    rep = check_inequality(inst, angles_per_radius=angles)
    grid_units = (np.angle(rep.witness_z) % (2.0 * math.pi)) * angles / (2.0 * math.pi)
    assert abs(grid_units - round(grid_units)) > 0.3
    lhs, _ = evaluate_sides(inst, rep.witness_z)
    assert abs(lhs - (n + abs(b))) <= 1e-14 * (n + abs(b))


def test_reduction_te2_to_ae():
    # At beta = 0, k = 1 the TE2 sides equal |z|^s times the AE sides; on the
    # unit circle they coincide exactly.
    rng = np.random.default_rng(77)
    for seed in (0, 1, 2):
        n = int(rng.integers(3, 9))
        s = int(rng.integers(1, 3))
        cfg = GenConfig(n=n, k=1.0, seed=seed, mode="zeros_outside_open_disk")
        p, roots = random_zeros_poly_with_roots(cfg)
        alphas = tuple(complex(rng.uniform(1, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                       for _ in range(s))
        spec = PolarSpec(n=n, s=s, k=1.0, alphas=alphas, beta=0j)
        te2 = build_instance("TE2", p, spec, roots=roots)
        ae = build_instance("AE", p, spec, roots=roots)
        for _ in range(50):
            z = complex(np.exp(rng.uniform(0, np.log(3))) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            l2, r2 = evaluate_sides(te2, z)
            la, ra = evaluate_sides(ae, z)
            zs = abs(z) ** s
            assert abs(r2 - zs * ra) <= 1e-12 * r2
            assert abs(l2 - zs * la) <= 1e-12 * max(l2, 1e-30)
            if abs(abs(z) - 1.0) < 1e-12:
                assert abs(r2 - ra) <= 1e-12 * r2


def test_reduction_ce9_to_awe():
    # At k = 1, CE9 and AWE are the same inequality at every z, and one
    # evaluator gives both the same bits.
    rng = np.random.default_rng(78)
    for seed in (3, 4, 5):
        n = int(rng.integers(3, 9))
        s = int(rng.integers(1, 3))
        cfg = GenConfig(n=n, k=1.0, seed=seed, mode="zeros_outside_open_disk")
        p, roots = random_zeros_poly_with_roots(cfg)
        alphas = tuple(complex(rng.uniform(1, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                       for _ in range(s))
        spec = PolarSpec(n=n, s=s, k=1.0, alphas=alphas, beta=0j)
        ce9 = build_instance("CE9", p, spec, roots=roots)
        awe = build_instance("AWE", p, spec, roots=roots)
        for _ in range(50):
            z = complex(np.exp(rng.uniform(0, np.log(3))) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            assert evaluate_sides(ce9, z) == evaluate_sides(awe, z)


def test_te1_specializes_to_ce3_at_large_alpha():
    # equal real polar points at 1e6, sides divided by alpha^s match CE3
    big = 1e6
    cfg = GenConfig(n=5, k=0.8, seed=11, mode="zeros_inside")
    p, f, roots = dominated_pair_with_roots(cfg, 0.4, 0.3)
    s = 2
    spec_a = PolarSpec(n=5, s=s, k=0.8, alphas=(big, big), beta=0.6j)
    spec_d = PolarSpec(n=5, s=s, k=0.8, beta=0.6j)
    te1 = build_instance("TE1", p, spec_a, f=f, roots=roots)
    ce3 = build_instance("CE3", p, spec_d, f=f, roots=roots)
    rng = np.random.default_rng(1)
    for _ in range(30):
        z = complex(np.exp(rng.uniform(0, np.log(3))) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        l1, r1 = evaluate_sides(te1, z)
        l3, r3 = evaluate_sides(ce3, z)
        assert abs(l1 / big**s - l3) <= 1e-4 * max(l3, 1.0)
        assert abs(r1 / big**s - r3) <= 1e-4 * max(r3, 1.0)


def test_le5_dominates_te2():
    cfg = GenConfig(n=6, k=0.5, seed=21, mode="zeros_outside_open_disk")
    p, roots = random_zeros_poly_with_roots(cfg)
    spec = PolarSpec(n=6, s=2, k=0.5, alphas=(0.9, 1.2j), beta=0.4 - 0.1j)
    le5 = build_instance("LE5", p, spec)
    te2 = build_instance("TE2", p, spec, roots=roots)
    rng = np.random.default_rng(2)
    for _ in range(60):
        z = complex(np.exp(rng.uniform(0, np.log(3))) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        l5, r5 = evaluate_sides(le5, z)
        l2, r2 = evaluate_sides(te2, z)
        assert r5 == 2.0 * r2  # TE2's bound, doubled exactly
        assert l5 >= l2 - 1e-12 * max(l5, 1.0)  # two-term sum dominates
        assert l2 <= 0.5 * r5 + 1e-9 * r5


def test_scaling_invariance():
    cfg = GenConfig(n=5, k=0.8, seed=31, mode="zeros_inside")
    p, f, roots = dominated_pair_with_roots(cfg, 0.5, 0.2)
    spec = PolarSpec(n=5, s=1, k=0.8, alphas=(1.5,), beta=0.3)
    base = build_instance("TE1", p, spec, f=f, roots=roots)
    c = 2.5 - 1.5j
    scaled = build_instance("TE1", scale(p, c), spec, f=scale(f, c), roots=roots)
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = complex(np.exp(rng.uniform(0, np.log(3))) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        l0, r0 = evaluate_sides(base, z)
        l1, r1 = evaluate_sides(scaled, z)
        assert abs(l1 - abs(c) * l0) <= 1e-12 * max(l1, 1e-30)
        assert abs(r1 - abs(c) * r0) <= 1e-12 * max(r1, 1e-30)
    rep0 = check_inequality(base)
    rep1 = check_inequality(scaled)
    assert rep0.passed and rep1.passed
    assert abs(rep1.min_slack - abs(c) * rep0.min_slack) <= 1e-9 * abs(c) * rep0.scale


def test_te3_sign_distribution_recorded():
    cfg = GenConfig(n=5, k=0.5, seed=41, mode="zeros_outside_open_disk")
    p, roots = random_zeros_poly_with_roots(cfg)
    spec = PolarSpec(n=5, s=1, k=0.5, alphas=(1.0,), beta=0.5)
    rep = check_inequality(build_instance("TE3", p, spec, roots=roots))
    counts = rep.extra["min_term_sign_counts"]
    assert counts["neg"] + counts["nonneg"] == rep.angles_per_radius * len(rep.radii)


def test_te2_mutation_seam():
    cfg = GenConfig(n=5, k=0.5, seed=51, mode="zeros_outside_open_disk")
    p, roots = random_zeros_poly_with_roots(cfg)
    spec = PolarSpec(n=5, s=1, k=0.5, alphas=(1.0,), beta=0.5)
    entry = REGISTRY["TE2"]
    assert check_inequality(build_instance("TE2", p, spec, roots=roots)).passed
    with rhs_sign_flip("TE2"):
        assert not check_inequality(build_instance("TE2", p, spec, roots=roots)).passed
    assert REGISTRY["TE2"] is entry
    assert check_inequality(build_instance("TE2", p, spec, roots=roots)).passed  # seam restored


@pytest.mark.parametrize("ineq_id", INEQUALITY_IDS)
def test_a_bound_moved_past_its_margin_fails(ineq_id, swap_sides):
    # Scale the right side toward violation by delta = 2 min_slack / rhs at the
    # witness: the witness's slack becomes -min_slack, so the same trial must
    # fail.  This is the smallest wrong constant the trial can tell apart.
    rep = check_inequality(regenerate_instance(ineq_id, 42, 0))
    assert rep.passed
    defn = REGISTRY[ineq_id]
    _, rhs = evaluate_sides(regenerate_instance(ineq_id, 42, 0), rep.witness_z)
    delta = 2.0 * rep.min_slack / rhs
    factor = 1.0 - delta if defn.direction == "upper" else 1.0 + delta

    def moved(inst, z):
        lhs, rhs = defn.sides(inst, z)
        return lhs, factor * rhs

    with swap_sides(ineq_id, moved):
        assert not check_inequality(regenerate_instance(ineq_id, 42, 0)).passed
    assert check_inequality(regenerate_instance(ineq_id, 42, 0)).passed


@pytest.mark.parametrize(
    "ineq_id", [i for i in INEQUALITY_IDS if REGISTRY[i].domain != "parameter_only"]
)
def test_sides_return_one_value_per_point(ineq_id):
    # The sweep passes its (radii x angles) grid and (brackets x samples)
    # zoom levels as they are, so every z-dependent side must be shaped like
    # z, and a grid's values must have the bits of the flattened grid's.
    inst = regenerate_instance(ineq_id, 5, 0)
    theta = 2.0 * np.pi * np.arange(512) / 512
    grid = np.asarray(DEFAULT_RADII)[:, None] * np.exp(1j * theta)
    for z in (np.exp(1j * np.linspace(0.1, 6.0, 5)), grid):
        lhs, rhs = inst.defn.sides(inst, z)
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        assert lhs.shape == rhs.shape == z.shape
        assert _oriented_slack(inst.defn, lhs, rhs).shape == z.shape
    flat = [np.asarray(side, dtype=float) for side in inst.defn.sides(inst, grid.ravel())]
    assert np.array_equal(lhs.ravel(), flat[0]) and np.array_equal(rhs.ravel(), flat[1])


def test_sharpness_probes():
    # Every (id, family) pair the registry declares reaches equality to
    # rounding (the largest |rel_slack| is 5.9e-16).
    pairs = [(d.ineq_id, family) for d in REGISTRY.values() for family in d.extremal]
    assert len(pairs) == 6
    for ineq_id, family in pairs:
        if REGISTRY[ineq_id].needs_alphas:
            specs = [PolarSpec(n=n, s=1, k=1.0, alphas=(alpha,))
                     for n, alpha in ((4, 3.0), (6, 2.5), (5, 1.0))]
        else:
            specs = [PolarSpec(n=n, s=0, k=1.0) for n in (2, 4, 6)]
        for spec in specs:
            assert abs(sharpness_probe(ineq_id, family, spec)) <= 1e-12, (ineq_id, spec)


def test_sharpness_incompatible_family():
    with pytest.raises(ValueError, match="incompatible"):
        sharpness_probe("TE2", "half", PolarSpec(n=4, s=1, k=1.0, alphas=(3.0,)))
    with pytest.raises(ValueError, match="unknown"):
        sharpness_probe("E1", "bernstein", PolarSpec(n=4, s=0, k=1.0))


def test_all_ids_hold_on_generated_instances():
    # light version of the acceptance sweep: a few trials per entry
    rep = run_suite(list(INEQUALITY_IDS), trials=3, seed=2024)
    assert rep.passed
    for entry in rep.results:
        assert entry["passes"] == entry["trials"]


# The evaluators of the derivative-form entries and of E3 as they were
# written before those entries shared the chain-form ones, with their own
# combo, constant and s-th derivatives (each combo as the one polynomial
# z^s * chain + lc * poly), and those of TE3/CE11 and CE9 as they were
# written before the refined bounds shared one Max/Min bracket (CE7's copy
# writes the bracket out too).  E2 reads E3's certified max |P'| and AWE is
# CE9 at k = 1.  The shared evaluators must give the same bits, except the
# right sides of CE2, CE4, CE5 (n_s * T1 * extreme) and CE10 (the Max/Min
# bracket), which group their products differently and stay within 4 units
# in the last place.
def _ref_cb_deriv(inst):
    return inst.spec.beta / (1.0 + inst.spec.k) ** inst.spec.s


def _merged_combo(chain, poly, lc, s, z):
    # |z^s * chain(z) + lc * poly(z)| from the coefficients chain_{j-s} + lc * a_j.
    shifted = [0j] * s + list(chain.coeffs)
    shifted += [0j] * (len(poly.coeffs) - len(shifted))
    return np.abs(horner([c + lc * a for c, a in zip(shifted, poly.coeffs)], z))


def _ref_deriv_combo(inst, poly, z):
    derv = sth_derivative(poly, inst.spec.s)
    lc = inst.spec.beta * inst.ns / (1.0 + inst.spec.k) ** inst.spec.s
    return _merged_combo(derv, poly, lc, inst.spec.s, z)


def _ref_e3(inst, z):
    return inst.max_dp_unit(), inst.spec.n / 2.0 * inst.max_p(1.0)


def _ref_ce2_ce5(extreme):
    def sides(inst, z):
        lhs = _ref_deriv_combo(inst, inst.p, z)
        amp = np.abs(z) ** inst.spec.n / inst.spec.k ** inst.spec.n
        bound = getattr(inst, extreme)(inst.spec.k)
        return lhs, inst.ns * amp * abs(1.0 + _ref_cb_deriv(inst)) * bound
    return sides


def _ref_ce3(inst, z):
    return _ref_deriv_combo(inst, inst.p, z), _ref_deriv_combo(inst, inst.f, z)


def _ref_ce4(inst, z):
    lc = inst.spec.beta * inst.ns * inst.lam / (1.0 + inst.spec.k) ** inst.spec.s
    lhs = _merged_combo(inst.chain_p, inst.p, lc, inst.spec.s, z)
    amp = np.abs(z) ** inst.spec.n / inst.spec.k ** inst.spec.n
    rhs = inst.ns * amp * abs(inst.alpha_prod + inst.cb) * inst.min_p(inst.spec.k)
    return lhs, rhs


def _ref_ce7(inst, z):
    lhs = _ref_deriv_combo(inst, inst.p, z)
    cb = _ref_cb_deriv(inst)
    u1 = np.abs(z) ** inst.spec.n / inst.spec.k ** inst.spec.n * abs(1.0 + cb)
    u2 = abs(cb)
    rhs = inst.ns / 2.0 * (
        (u1 + u2) * inst.max_p(inst.spec.k) - (u1 - u2) * inst.min_p(inst.spec.k)
    )
    return lhs, rhs


def _ref_te3(inst, z):
    lhs = np.abs(evaluate(inst.combo_p, z))
    t1 = np.abs(z) ** inst.spec.n / inst.spec.k ** inst.spec.n * abs(
        inst.alpha_prod + inst.cb
    )
    t2 = np.abs(z ** inst.spec.s + inst.cb)
    rhs = inst.ns / 2.0 * (
        (t1 + t2) * inst.max_p(inst.spec.k) - (t1 - t2) * inst.min_p(inst.spec.k)
    )
    return lhs, rhs


def _ref_ce9(inst, z):
    lhs = np.abs(evaluate(inst.chain_p, z))
    v = np.abs(z) ** (inst.spec.n - inst.spec.s) / inst.spec.k ** inst.spec.n * abs(
        inst.alpha_prod
    )
    rhs = inst.ns / 2.0 * (
        (v + 1.0) * inst.max_p(inst.spec.k) - (v - 1.0) * inst.min_p(inst.spec.k)
    )
    return lhs, rhs


def _ref_ce10(inst, z):
    lhs = np.abs(evaluate(sth_derivative(inst.p, inst.spec.s), z))
    amp = inst.ns * np.abs(z) ** (inst.spec.n - inst.spec.s) / (
        2.0 * inst.spec.k ** inst.spec.n
    )
    return lhs, amp * (inst.max_p(inst.spec.k) - inst.min_p(inst.spec.k))


_REFERENCE_SIDES = {
    "E2": _ref_e3,
    "E3": _ref_e3,
    "AWE": _ref_ce9,
    "TE3": _ref_te3,
    "CE11": _ref_te3,
    "CE9": _ref_ce9,
    "CE2": _ref_ce2_ce5("max_p"),
    "CE3": _ref_ce3,
    "CE4": _ref_ce4,
    "CE5": _ref_ce2_ce5("min_p"),
    "CE7": _ref_ce7,
    "CE8": _ref_ce7,
    "CE10": _ref_ce10,
}
_REGROUPED_RHS = ("CE2", "CE4", "CE5", "CE10")


@pytest.mark.parametrize("ineq_id", sorted(_REFERENCE_SIDES))
def test_shared_evaluators_match_the_separate_ones(ineq_id):
    theta = 2.0 * np.pi * np.arange(512) / 512
    z = (np.asarray(DEFAULT_RADII)[:, None] * np.exp(1j * theta)).ravel()
    for trial in range(4):
        inst = regenerate_instance(ineq_id, 3, trial)
        got = inst.defn.sides(inst, z)
        want = _REFERENCE_SIDES[ineq_id](inst, z)
        assert np.array_equal(got[0], want[0])
        ulps = 4 if ineq_id in _REGROUPED_RHS else 0
        assert np.all(np.abs(got[1] - want[1]) <= ulps * np.spacing(np.abs(want[1])))


@pytest.mark.parametrize("ineq_id", [i for i in INEQUALITY_IDS if not REGISTRY[i].needs_alphas])
def test_chain_without_polar_points_is_the_derivative(ineq_id):
    # The polar derivative's limit D_a P / a -> P' as |a| -> inf.
    inst = regenerate_instance(ineq_id, 3, 0)
    assert inst.chain_p == sth_derivative(inst.p, inst.spec.s)
    if inst.f is not None:
        assert polar_chain(inst.f, inst.spec) == sth_derivative(inst.f, inst.spec.s)


# The entries whose sides read the chain combo |z^s * chain + lc * poly|, and
# the polynomial attributes whose combos each reads.
_COMBO_READS = {
    "TE1": ("p", "f"), "CE1": ("p",), "CE2": ("p",), "CE3": ("p", "f"),
    "CE4": ("p",), "CE5": ("p",), "CE_S1": ("p", "f"), "TE2": ("p",),
    "TE3": ("p",), "CE7": ("p",), "CE8": ("p",), "CE11": ("p",),
    "LE5": ("p", "q_rescaled"),
}


def _combo_parts(inst, which):
    poly = getattr(inst, which)
    return poly, polar_chain(poly, inst.spec), getattr(inst, f"combo_{which}")


@pytest.mark.parametrize("ineq_id", sorted(_COMBO_READS))
def test_combo_coefficients_are_shifted_chain_plus_scaled_poly(ineq_id):
    for trial in range(3):
        inst = regenerate_instance(ineq_id, 7, trial)
        s = inst.spec.s
        lc = inst.spec.beta * inst.ns * inst.lam / (1.0 + inst.spec.k) ** s
        for which in _COMBO_READS[ineq_id]:
            poly, chain, combo = _combo_parts(inst, which)
            want = [(chain.coeffs[j - s] if 0 <= j - s < len(chain.coeffs) else 0j)
                    + lc * a for j, a in enumerate(poly.coeffs)]
            assert list(combo.coeffs) == want, (ineq_id, which)


@pytest.mark.parametrize("ineq_id", sorted(_COMBO_READS))
def test_combo_values_are_within_horner_bound_of_two_passes(ineq_id):
    # Horner's error bound (Higham 2002, sec. 5.1): each evaluation is within
    # a few units of roundoff per degree times sum |c_j| |z|^j of exact.
    eps = np.finfo(float).eps
    theta = 2.0 * np.pi * np.arange(512) / 512
    for trial in range(3):
        inst = regenerate_instance(ineq_id, 7, trial)
        s = inst.spec.s
        lc = inst.spec.beta * inst.ns * inst.lam / (1.0 + inst.spec.k) ** s
        for which in _COMBO_READS[ineq_id]:
            poly, chain, combo = _combo_parts(inst, which)
            for r in DEFAULT_RADII:
                z = r * np.exp(1j * theta)
                two_pass = z**s * evaluate(chain, z) + lc * evaluate(poly, z)
                size = (modulus_bound(combo, r) + r**s * modulus_bound(chain, r)
                        + abs(lc) * modulus_bound(poly, r))
                gap = np.abs(evaluate(combo, z) - two_pass).max()
                assert gap <= 8.0 * (len(poly.coeffs) + s) * eps * size, (ineq_id, which, r)


@pytest.mark.parametrize("ineq_id", sorted(_COMBO_READS))
def test_one_horner_pass_per_combo(ineq_id, monkeypatch):
    inst = regenerate_instance(ineq_id, 7, 0)
    z = np.exp(1j * np.linspace(0.1, 6.0, 5))
    inst.defn.sides(inst, z)  # fills the cached polynomials and extrema
    passes = []
    real = poly_module.horner
    monkeypatch.setattr(poly_module, "horner", lambda c, z: passes.append(1) or real(c, z))
    inst.defn.sides(inst, z)
    assert len(passes) == len(_COMBO_READS[ineq_id])
