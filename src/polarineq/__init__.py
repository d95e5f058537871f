"""Polar derivatives of complex polynomials and numerical certification of
the Bernstein-type inequalities they satisfy."""

from .extrema import CircleExtremum, ToleranceUnattainableError, circle_extremum
from .generators import (
    GenConfig,
    dominated_pair_with_roots,
    extremal_poly_with_roots,
    random_zeros_poly_with_roots,
    rng_stream,
)
from .harness import (
    SuiteReport,
    TrialError,
    TrialRecord,
    UsageError,
    emit_report,
    fuzz_search,
    regenerate_instance,
    replay_witness,
    run_suite,
)
from .inequalities import (
    DEFAULT_RADII,
    INEQUALITY_IDS,
    REGISTRY,
    HypothesisError,
    InequalityDef,
    InequalityInstance,
    InequalityReport,
    build_instance,
    check_inequality,
    evaluate_sides,
    rhs_sign_flip,
    sharpness_probe,
)
from .polar import PolarSpec, falling_factorial, lambda_product, polar_chain, polar_derivative
from .poly import (
    Polynomial,
    conjugate_reciprocal,
    evaluate,
    make_poly,
    poly_from_json,
    poly_from_roots,
    poly_to_json,
    scale_argument,
    sth_derivative,
)
from .roots import (
    ROOT_TOL,
    RootConvergenceError,
    ZeroLocationReport,
    count_zeros_in_disk,
    find_roots,
    verify_winding,
    zero_location_evidence,
)

__version__ = "0.1.0"
