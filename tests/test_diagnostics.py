"""Rate fits, claim verdicts, and the partial sums of a trace."""

import tracemalloc

import numpy as np
import pytest

from greedy_opt import (
    ADAPTIVE_RATE,
    ADAPTIVE_SPHERE_RATE,
    FIXED_SUMMABLE_CONVERGENCE,
    LINE_SEARCH_CONVERGENCE,
    POWER_SCHEDULE_RATE,
    SPHERE_POWER_SCHEDULE_RATE,
    CoefficientSequence,
    FiniteDictionary,
    RunTrace,
    SphereDictionary,
    StopRule,
    claim_verdict,
    fit_rate,
    make_power_coefficients,
    quadratic_objective,
    run_gega,
    run_gga_adaptive,
    run_gga_fixed,
)
from greedy_opt.diagnostics import (
    _SERIES_TERMS,
    _power_series_sum,
    bound_holds,
    smallest_dominating_constant,
)
from greedy_opt.instances import quadratic_2d, quadratic_geometric


def synthetic_trace(gaps, infimum=0.0):
    return RunTrace(algorithm="synthetic", status="max-iter",
                    E0=float(gaps[0] + 1.0), ED0=1.0,
                    E=[float(g) + infimum for g in gaps], infimum=infimum)


class TestFitRate:
    def test_recovers_exact_exponent(self):
        m = np.arange(1, 201, dtype=float)
        fit = fit_rate(synthetic_trace(m**-1.0), window=(1, 200))
        assert abs(fit.exponent + 1.0) <= 1e-10
        np.testing.assert_allclose(fit.r_squared, 1.0, atol=1e-12)

    def test_recovers_scale_and_slow_exponent(self):
        m = np.arange(1, 201, dtype=float)
        fit = fit_rate(synthetic_trace(5.0 * m**-0.2), window=(1, 200))
        assert abs(fit.exponent + 0.2) <= 1e-10
        np.testing.assert_allclose(fit.intercept, np.log(5.0), atol=1e-10)

    def test_exact_convergence_is_degenerate(self):
        trace = run_gega(quadratic_2d(), FiniteDictionary.coordinate(2), 1.0,
                         StopRule(max_iter=10))
        fit = fit_rate(trace, window=(1, len(trace)))
        assert fit.status == "degenerate" and fit.exponent is None

    @pytest.mark.parametrize("gaps", [[0.1] * 150,
                                      [3.389636702121535e-32] * 20])
    def test_flat_window_is_degenerate(self, gaps):
        fit = fit_rate(synthetic_trace(gaps))
        assert fit.status == "degenerate" and fit.exponent is None

    def test_window_validation(self):
        trace = synthetic_trace(np.ones(20))
        with pytest.raises(ValueError):
            fit_rate(trace, window=(0, 10))
        with pytest.raises(ValueError):
            fit_rate(trace, window=(5, 50))

    def test_needs_infimum(self):
        trace = synthetic_trace(np.ones(20))
        trace.infimum = None
        with pytest.raises(ValueError):
            fit_rate(trace)


class TestCalibration:
    def test_smallest_constant_is_tight(self):
        gaps = np.array([4.0, 2.0, 1.0])
        bounds = np.array([1.0, 1.0, 1.0])
        assert smallest_dominating_constant(gaps, bounds, 3) == 4.0

    def test_bound_holds_monotone_in_constant(self):
        rng = np.random.default_rng(0)
        gaps = rng.uniform(0.0, 1.0, 50)
        bounds = np.arange(1, 51, dtype=float) ** -0.5
        for _ in range(50):
            C = float(rng.uniform(0.0, 3.0))
            if bound_holds(gaps, bounds, C, 10):
                assert bound_holds(gaps, bounds, C * 2.0, 10)
                assert bound_holds(gaps, bounds, C + 0.1, 10)


class TestClaimVerdicts:
    def test_power_schedule_rate_on_real_run(self):
        E = quadratic_geometric(16)
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(16), 1.0, cs,
                              StopRule(max_iter=800))
        verdict = claim_verdict(POWER_SCHEDULE_RATE, trace, r=0.3,
                                hull_radius=1.0)
        assert verdict.preconditions_met
        assert verdict.bound_satisfied

    def test_schedule_exponent_mismatch_detected(self):
        E = quadratic_geometric(8)
        wrong = CoefficientSequence.power(0.5, 0.5)  # s != (t+1)/(t+q)
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(8), 1.0, wrong,
                              StopRule(max_iter=50))
        verdict = claim_verdict(POWER_SCHEDULE_RATE, trace, r=0.1,
                                hull_radius=1.0)
        assert not verdict.preconditions_met
        assert any("s mismatch" in reason for reason in verdict.reasons)

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_rate_exponent_outside_its_range_is_a_reason(self, r):
        """r must lie in (0, t (1 - s)); here t = 1 and s = 2/3."""
        E = quadratic_geometric(16)
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(16), 1.0, cs,
                              StopRule(max_iter=50))
        verdict = claim_verdict(POWER_SCHEDULE_RATE, trace, r=r,
                                hull_radius=1.0)
        assert not verdict.preconditions_met
        r_max = 1.0 - cs.s
        assert verdict.reasons == [f"exponent r = {r} outside (0, {r_max})"]

    @pytest.mark.parametrize("claim", [FIXED_SUMMABLE_CONVERGENCE,
                                       POWER_SCHEDULE_RATE])
    def test_fixed_schedule_claims_need_a_constant_weakness(self, claim):
        from greedy_opt import WeaknessSequence
        E = quadratic_geometric(8)
        varying = WeaknessSequence.explicit([1.0, 0.5] * 10)
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(8), varying,
                              make_power_coefficients(1.0, 2.0, 0.5),
                              StopRule(max_iter=20))
        verdict = claim_verdict(claim, trace, hull_radius=1.0)
        assert not verdict.preconditions_met
        assert verdict.reasons[0] == "weakness sequence is not constant"

    def test_summable_budget_decides_preconditions(self):
        """c_k = k^-1 has divergent mass; mu budget gamma * zeta(2) decides."""
        harmonic = CoefficientSequence.power(1.0, 1.0)
        d = FiniteDictionary.coordinate(2)
        stop = StopRule(max_iter=30)
        ok = claim_verdict(
            FIXED_SUMMABLE_CONVERGENCE,
            run_gga_fixed(quadratic_objective([0.3, 0.4]), d, 1.0, harmonic,
                          stop),
            tolerance=10.0)
        # gamma = 1/2: budget = zeta(2)/2 = 0.822 <= 1
        assert ok.preconditions_met
        bad = claim_verdict(
            FIXED_SUMMABLE_CONVERGENCE,
            run_gga_fixed(quadratic_objective([0.3, 0.4], scale=2.0), d, 1.0,
                          harmonic, stop),
            tolerance=10.0)
        # gamma = 1: budget = zeta(2) = 1.645 > 1
        assert not bad.preconditions_met
        assert any("> 1" in reason for reason in bad.reasons)

    def test_explicit_coefficients_unverifiable(self):
        trace = run_gga_fixed(quadratic_2d(), FiniteDictionary.coordinate(2),
                              1.0, CoefficientSequence.explicit([0.5] * 10),
                              StopRule(max_iter=10))
        verdict = claim_verdict(FIXED_SUMMABLE_CONVERGENCE, trace)
        assert not verdict.preconditions_met

    def test_adaptive_rate_requires_nonincreasing_weakness(self):
        from greedy_opt import WeaknessSequence
        E = quadratic_2d()
        d = FiniteDictionary.coordinate(2)
        increasing = WeaknessSequence.explicit([0.5, 0.6] * 50)
        trace = run_gga_adaptive(E, d, increasing, 0.5, StopRule(max_iter=40))
        verdict = claim_verdict(ADAPTIVE_RATE, trace, hull_radius=3.0)
        assert not verdict.preconditions_met

    @pytest.mark.parametrize("radius,inside", [(0.1, False), (1.0, True)])
    def test_sphere_hull_check_uses_the_lp_ball(self, radius, inside):
        # the minimizer (0.3, 0.4) has l2 norm 0.5
        from greedy_opt import score_gap_bound
        from greedy_opt.greedy import ExpansionState
        E = quadratic_objective([0.3, 0.4])
        sphere = SphereDictionary()
        trace = run_gga_adaptive(E, sphere, 1.0, 0.5, StopRule(max_iter=30))
        verdict = claim_verdict(ADAPTIVE_RATE, trace, hull_radius=radius)
        assert verdict.preconditions_met is inside
        assert "hull membership of the minimizer not verified" \
            not in verdict.notes
        assert any("l2 norm 0.5 exceeds" in r
                   for r in verdict.reasons) is not inside
        state = ExpansionState(G=np.zeros(2), m=0, A=0.0)
        if inside:
            assert score_gap_bound(E, sphere, state, E.minimizer, radius).holds
        else:
            with pytest.raises(ValueError, match="outside the scaled unit"):
                score_gap_bound(E, sphere, state, E.minimizer, radius)

    def test_adaptive_sphere_rate_on_real_run(self):
        E = quadratic_objective(np.random.default_rng(1).standard_normal(6))
        trace = run_gga_adaptive(E, SphereDictionary(), 1.0, 0.5,
                                 StopRule(max_iter=300, grad_tol=0.0))
        verdict = claim_verdict(ADAPTIVE_SPHERE_RATE, trace)
        assert verdict.preconditions_met
        assert verdict.bound_satisfied

    def test_sphere_power_schedule_rate_on_real_run(self):
        """s q = 4/3 > 1 on the sphere: every hypothesis holds, and so does
        the bound."""
        E = quadratic_objective(
            0.3 * np.random.default_rng(1).standard_normal(4))
        trace = run_gga_fixed(E, SphereDictionary(), 1.0,
                              make_power_coefficients(1.0, 2.0, 0.5),
                              StopRule(max_iter=300, grad_tol=0.0))
        verdict = claim_verdict(SPHERE_POWER_SCHEDULE_RATE, trace)
        assert verdict.preconditions_met, verdict.reasons
        assert verdict.bound_satisfied
        assert verdict.details["exponent"] == verdict.details["s"] == 2.0 / 3.0

    def test_sphere_rate_claims_give_their_reasons_in_order(self):
        """Off the sphere, with s = 1 and an unbounded region: the reasons
        name the dictionary, then s, then the region."""
        E = quadratic_objective([0.25, -0.5])
        coordinate = FiniteDictionary.coordinate(2)
        fixed = run_gga_fixed(E, coordinate, 1.0,
                              CoefficientSequence.power(0.5, 1.0),
                              StopRule(max_iter=30, grad_tol=0.0))
        adaptive = run_gga_adaptive(E, coordinate, 1.0, 0.5,
                                    StopRule(max_iter=30, grad_tol=0.0))
        dictionary = "sphere rate claim needs the sphere dictionary"
        region = "objective region is unbounded"
        for trace in (fixed, adaptive):
            trace.config["objective"]["region_radius"] = float("inf")
        for claim, trace, reasons in (
                (SPHERE_POWER_SCHEDULE_RATE, fixed,
                 [dictionary, "s = 1.0 outside (0, 1)", region]),
                (ADAPTIVE_SPHERE_RATE, adaptive, [dictionary, region])):
            verdict = claim_verdict(claim, trace)
            assert not verdict.preconditions_met
            assert verdict.reasons == reasons
            assert verdict.bound_satisfied is None

    def test_wrong_algorithm_rejected(self):
        trace = run_gega(quadratic_2d(), FiniteDictionary.coordinate(2), 1.0,
                         StopRule(max_iter=5))
        verdict = claim_verdict(ADAPTIVE_RATE, trace)
        assert not verdict.preconditions_met
        ok = claim_verdict(LINE_SEARCH_CONVERGENCE, trace, tolerance=1e-10)
        assert ok.preconditions_met and ok.bound_satisfied

    def test_hull_check_ignores_a_coordinate_label_on_other_atoms(self):
        atoms = np.random.default_rng(4).standard_normal((8, 8))
        trace = run_gga_fixed(quadratic_geometric(8),
                              FiniteDictionary(atoms, kind="coordinate"), 1.0,
                              make_power_coefficients(1.0, 2.0, 0.5),
                              StopRule(max_iter=50))
        verdict = claim_verdict(POWER_SCHEDULE_RATE, trace, r=0.3,
                                hull_radius=1.0)
        assert "hull membership of the minimizer not verified" in verdict.notes

    def test_claim_on_an_empty_trace_holds_with_a_note(self):
        trace = run_gga_fixed(quadratic_objective([0.0, 0.0]),
                              FiniteDictionary.coordinate(2), 1.0,
                              CoefficientSequence.explicit([1.0]),
                              StopRule(max_iter=1))
        assert len(trace) == 0
        verdict = claim_verdict(FIXED_SUMMABLE_CONVERGENCE, trace)
        assert verdict.describe() == {
            "claim": FIXED_SUMMABLE_CONVERGENCE, "preconditions_met": True,
            "reasons": [], "bound_satisfied": True, "details": {},
            "notes": ["empty trace: stopped before the first iteration"]}

    def test_verdict_is_reproducible(self):
        E = quadratic_geometric(8)
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(8), 1.0, cs,
                              StopRule(max_iter=100))
        a = claim_verdict(POWER_SCHEDULE_RATE, trace, r=0.3, hull_radius=1.0)
        b = claim_verdict(POWER_SCHEDULE_RATE, trace, r=0.3, hull_radius=1.0)
        assert a.describe() == b.describe()


class TestSummability:
    """The partial sums sum_c and sum_cED that the trace derives from c_m
    and E_D."""

    def test_unit_coefficients_diverge(self):
        E = quadratic_objective([30.5, 40.25])
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(2), 1.0,
                              CoefficientSequence.explicit([1.0] * 100),
                              StopRule(max_iter=100))
        np.testing.assert_allclose(trace.sum_c,
                                   np.arange(1, 101, dtype=float), rtol=1e-15)

    def test_min_weighted_score_shrinks_on_convergent_run(self):
        """min over n of (sum_{j<=n} c_j) * score(G_n) is driven toward zero."""
        E = quadratic_2d()
        trace = run_gga_adaptive(E, FiniteDictionary.coordinate(2), 1.0, 0.5,
                                 StopRule(max_iter=200))
        weighted = np.asarray(trace.sum_c) * np.asarray(trace.ED)
        assert weighted.min() < weighted[0]
        assert int(np.argmin(weighted)) + 1 > len(trace) // 2

    def test_empty_trace_empty_report(self):
        E = quadratic_objective([0.0, 0.0])
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(2), 1.0,
                              CoefficientSequence.explicit([1.0]),
                              StopRule(max_iter=1))
        assert len(trace) == 0
        assert trace.sum_c == [] and trace.sum_cED == [] and trace.A == []


# Exponents in (1, 4] beyond the hand-picked ones, for the identity test.
_SEEDED_EXPONENTS = [float(a) for a in
                     4.0 - 3.0 * np.random.default_rng(26).random(36)]


class TestPowerSeriesSum:
    """The one power-series budget, sum_k k^-a, summed one leaf at a time."""

    @pytest.mark.parametrize("a", [4.0 / 3.0, 2.0, 3.0, 1.0 + 1e-9, 1.01,
                                   1.1, 1.25, 1.5, 1.75, 2.5, 2.75, 2.999]
                             + _SEEDED_EXPONENTS)
    def test_same_float_as_the_two_array_sum(self, a):
        """Summing leaf by leaf in ``np.sum``'s pairwise order changes no bit
        of the one-array sum; this identity pins numpy's order.  a = 4/3 is
        the shipped t = 1, q = 2 schedule."""
        k = np.arange(1, _SERIES_TERMS + 1, dtype=float)
        expected = (float(np.sum(k ** -a))
                    + _SERIES_TERMS ** (1.0 - a) / (a - 1.0))
        assert _power_series_sum.__wrapped__(a).hex() == expected.hex()

    def test_holds_one_buffer_of_the_terms(self):
        """The traced peak is one 256 KB leaf of 2^15 terms (0.24 MiB), not
        the 8 MB (7.63 MiB) array of all 10^6 terms."""
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            _power_series_sum.__wrapped__(4.0 / 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 * 2**20
