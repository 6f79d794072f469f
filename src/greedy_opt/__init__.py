"""Greedy dictionary expansions for smooth convex minimization.

Builds m-sparse approximate minimizers G_m = sum_j c_j phi_j of a smooth convex
function over the span of a symmetric dictionary, one atom per iteration, and
ships the diagnostics needed to verify the schemes' convergence and decay-rate
guarantees numerically.
"""

from .core import (
    EUCLIDEAN,
    Majorant,
    NormTag,
    NumericFailure,
    dual_norm,
    finite_difference_gradient_check,
    lp_norm,
    majorant_domination_witness,
    pairing,
    smoothness_gap_check,
)
from .dictionaries import (
    ARGMAX,
    FIRST_ABOVE,
    Atom,
    FiniteDictionary,
    SphereDictionary,
    argmin_atom_by_objective,
    greedy_score,
    select_atom,
)
from .diagnostics import (
    ALL_CLAIMS,
    ADAPTIVE_CONVERGENCE,
    ADAPTIVE_RATE,
    ADAPTIVE_SPHERE_RATE,
    FIXED_SUMMABLE_CONVERGENCE,
    LINE_SEARCH_CONVERGENCE,
    POWER_SCHEDULE_RATE,
    SPHERE_POWER_SCHEDULE_RATE,
    ClaimVerdict,
    RateFit,
    claim_verdict,
    fit_rate,
)
from .greedy import (
    CoefficientSequence,
    ExpansionState,
    MajorantViolationError,
    RunTrace,
    StopRule,
    WeaknessSequence,
    check_rate_bound,
    iter_states,
    line_search_exact,
    make_power_coefficients,
    run_ega,
    run_gbe,
    run_gega,
    run_gga_adaptive,
    run_gga_fixed,
    score_gap_bound,
    solve_stepsize,
)
from .objectives import (
    Objective,
    logistic_objective,
    p_power_objective,
    quadratic_objective,
    reference_infimum,
    validate_objective,
    with_majorant,
)
from .traceio import read_trace_csv, trace_csv_text, write_manifest, write_trace_csv

__version__ = "0.1.0"
