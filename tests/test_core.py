"""Norm machinery, majorants, and empirical smoothness checks."""

import math

import numpy as np
import pytest

from greedy_opt import (
    Majorant,
    NormTag,
    dual_norm,
    finite_difference_gradient_check,
    lp_norm,
    majorant_domination_witness,
    pairing,
    quadratic_objective,
    smoothness_gap_check,
)
from greedy_opt.core import sample_ball, unit_direction
from greedy_opt.objectives import Objective, logistic_objective, with_majorant


class TestNormTag:
    def test_rejects_l1_and_linf(self):
        for p in (1.0, 0.5, math.inf, float("nan")):
            with pytest.raises(ValueError):
                NormTag(p)

    def test_dual_exponent(self):
        # p' = p/(p-1); conjugate pairs must invert each other
        for p in (1.2, 1.5, 2.0, 3.0, 7.5):
            tag = NormTag(p)
            assert abs(1.0 / p + 1.0 / tag.dual_p - 1.0) <= 1e-15


class TestDualNorm:
    def test_pythagorean(self):
        assert dual_norm(np.array([3.0, 4.0])) == 5.0

    def test_zero_vector(self):
        for p in (1.5, 2.0, 4.0):
            assert dual_norm(np.zeros(3), NormTag(p)) == 0.0

    def test_sqrt5(self):
        np.testing.assert_allclose(dual_norm(np.array([1.0, 2.0])),
                                   math.sqrt(5.0), rtol=1e-15)

    def test_general_p_against_direct_formula(self):
        rng = np.random.default_rng(0)
        for p in (1.25, 1.5, 3.0):
            tag = NormTag(p)
            pd = p / (p - 1.0)
            for _ in range(20):
                v = rng.standard_normal(6)
                direct = float(np.sum(np.abs(v) ** pd) ** (1.0 / pd))
                np.testing.assert_allclose(dual_norm(v, tag), direct,
                                           rtol=1e-14)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dual_norm(np.array([1.0, float("nan")]))

    def test_hoelder_inequality(self):
        """<v, w> <= dual_norm(v) * ||w|| with 1e-12 relative slack."""
        rng = np.random.default_rng(1)
        for p in (1.2, 1.5, 2.0, 3.0, 6.0):
            tag = NormTag(p)
            for _ in range(200):
                v = rng.standard_normal(8)
                w = rng.standard_normal(8)
                bound = dual_norm(v, tag) * lp_norm(w, tag)
                assert pairing(v, w) <= bound * (1.0 + 1e-12)


class TestMajorant:
    def test_power_validation(self):
        with pytest.raises(ValueError):
            Majorant.power(-1.0, 2.0)
        with pytest.raises(ValueError):
            Majorant.power(1.0, 2.5)
        with pytest.raises(ValueError):
            Majorant.power(1.0, 1.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"),
                                       -float("inf"), 0.0])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValueError,
                           match="gamma must be positive and finite"):
            Majorant.power(gamma, 2.0)

    def test_power_evaluation(self):
        mu = Majorant.power(0.5, 2.0)
        assert mu(0.0) == 0.0
        assert mu(2.0) == 2.0
        assert mu(2.0) / 2.0 == 1.0
        assert mu.describe() == {"kind": "power", "gamma": 0.5, "q": 2.0}

    def test_slope_monotone_on_log_grid(self):
        # mu(u)/u = gamma u^(q-1) must be nondecreasing
        for gamma, q in ((0.5, 2.0), (2.0, 1.5), (1.0, 1.01)):
            mu = Majorant.power(gamma, q)
            slopes = [mu(u) / u for u in np.geomspace(1e-6, 10.0, 40)]
            assert all(a <= b + 1e-18 for a, b in zip(slopes, slopes[1:]))


class TestBallSampling:
    def test_samples_stay_inside(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = sample_ball(rng, 5, radius=3.0)
            assert lp_norm(x) <= 3.0 * (1.0 + 1e-12)

    def test_sign_draw_matches_rng_choice_bit_for_bit(self):
        """The sign draw indexes [-1, 1] with rng.integers; on the numpy this
        was written against, that gives rng.choice([-1.0, 1.0])'s points and
        leaves the generator in the same state.  A numpy that changes either
        would shift every sampled audit, so this fails loudly then."""
        def with_choice(rng, dim, radius):
            p = 2.0
            g = rng.gamma(1.0 / p, size=dim) ** (1.0 / p)
            g *= rng.choice([-1.0, 1.0], size=dim)
            w = rng.standard_exponential()
            return radius * g / (np.sum(np.abs(g) ** p) + w) ** (1.0 / p)

        for dim in (1, 2, 5, 64, 401):
            ours = np.random.default_rng([dim, 20])
            theirs = np.random.default_rng([dim, 20])
            for _ in range(40):
                x = sample_ball(ours, dim, radius=2.5)
                y = with_choice(theirs, dim, 2.5)
                assert x.tobytes() == y.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_directions_are_unit(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = unit_direction(rng, 4)
            np.testing.assert_allclose(lp_norm(y), 1.0, rtol=1e-12)


class TestEmpiricalModulus:
    """The sampled modulus |E(x + u y) + E(x - u y) - 2 E(x)| / 2, over x in
    the objective's region and unit y, as ``majorant_domination_witness``
    holds it against the declared majorant at 8 scales u in [1e-3, 2]."""

    def test_quadratic_identity(self):
        """E = (s/2)||x - t||^2 has second difference exactly s u^2 ||y||^2:
        the declared (s/2) u^2 holds at every sample, and 1% less fails at
        every sample, even at u = 1e-3, where it falls 5e-9 short."""
        E = quadratic_objective([1.0, 2.0], scale=1.0)
        assert majorant_domination_witness(E, samples=50, seed=4) == []
        low = with_majorant(E, Majorant.power(0.99 * 0.5, 2.0))
        violations = majorant_domination_witness(low, samples=50, seed=4)
        assert len(violations) == 8 * 50

    def test_linear_objective_vanishes(self):
        a = np.array([2.0, -1.0, 0.5])
        E = Objective(3, lambda x: float(np.dot(a, x)), lambda x: a,
                      Majorant.power(1e-300, 2.0), region_radius=5.0)
        assert majorant_domination_witness(E, samples=50, seed=5) == []

    def test_deterministic_given_seed(self):
        E = quadratic_objective([0.3, -0.7, 1.1])
        low = with_majorant(E, Majorant.power(0.25, 2.0))
        a = majorant_domination_witness(low, samples=30, seed=7)
        b = majorant_domination_witness(low, samples=30, seed=7)
        assert a and len(a) == len(b)
        for (xa, ya, ua), (xb, yb, ub) in zip(a, b):
            assert (xa.tobytes(), ya.tobytes(), ua) == (xb.tobytes(),
                                                        yb.tobytes(), ub)

    def test_dominated_by_declared_majorant(self):
        """rho_hat <= mu(u) for a shipped power majorant (8 x 10^3 samples)."""
        E = quadratic_objective(np.array([0.5, -1.0, 0.25]), scale=2.0)
        assert majorant_domination_witness(E, samples=1000, seed=9) == []


class TestSmoothnessGapCheck:
    def test_worked_quadratic_case(self):
        # E = ||x-(1,2)||^2/2 at x=0, y=e2, u=1: gap = 1 - 2.5 + 2 = 0.5,
        # bounds [0, 2*mu(1)] = [0, 1]
        E = quadratic_objective([1.0, 2.0])
        x = np.zeros(2)
        y = np.array([0.0, 1.0])
        gap = E(x + y) - E(x) - pairing(E.gradient(x), y)
        np.testing.assert_allclose(gap, 0.5, rtol=1e-15)
        assert smoothness_gap_check(E, x, y, 1.0) is True

    def test_zero_u(self):
        E = quadratic_objective([1.0, 2.0])
        assert smoothness_gap_check(E, np.zeros(2), np.array([1.0, 0.0]),
                                    0.0) is True

    def test_strict_convexity_fails_zero_majorant(self):
        E = quadratic_objective([1.0, 2.0])
        zero = with_majorant(E, Majorant.power(1e-300, 2.0))
        assert smoothness_gap_check(zero, np.zeros(2), np.array([0.0, 1.0]),
                                    1.0) is False

    def test_out_of_region_is_not_applicable(self):
        E = quadratic_objective([1.0, 2.0])
        far = np.array([100.0, 100.0])
        assert smoothness_gap_check(E, far, np.array([1.0, 0.0]), 0.5) is None

    def test_zero_direction_rejected(self):
        E = quadratic_objective([1.0, 2.0])
        with pytest.raises(ValueError):
            smoothness_gap_check(E, np.zeros(2), np.zeros(2), 1.0)

    def test_sweep_all_shipped_instances(self):
        from greedy_opt.instances import (logistic_20x5, p_power_instance,
                                          quadratic_geometric)
        rng = np.random.default_rng(10)
        for E in (quadratic_objective([1.0, 2.0]), quadratic_geometric(16),
                  logistic_20x5(), p_power_instance()):
            for _ in range(100):
                x = sample_ball(rng, E.dim, radius=E.region_radius)
                y = unit_direction(rng, E.dim)
                u = float(rng.uniform(0.0, 2.0))
                assert smoothness_gap_check(E, x, y, u) is not False


class TestGradientCheck:
    def test_quadratic_gradient_exact(self):
        E = quadratic_objective([1.0, 2.0])
        assert finite_difference_gradient_check(E, np.array([1.0, 2.0]))

    def test_logistic_gradient(self):
        design = np.array([[1.0, 0.5], [-0.3, 1.2], [0.8, -0.7], [0.1, 0.9]])
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        E = logistic_objective(design, labels)
        assert finite_difference_gradient_check(E, np.zeros(2))

    def test_corrupted_gradient_detected(self):
        E = quadratic_objective([1.0, 2.0])
        bad = Objective(2, E._value, lambda x: E._gradient(x) + 1e-3,
                        E.majorant, E.region_radius)
        assert not finite_difference_gradient_check(bad, np.array([0.5, 0.5]))


class TestDominationWitness:
    def test_clean_majorant_has_no_violations(self):
        E = quadratic_objective([1.0, 2.0])
        assert majorant_domination_witness(E, samples=60, seed=11) == []

    def test_halved_gamma_is_caught(self):
        E = quadratic_objective([1.0, 2.0])
        bad = with_majorant(E, Majorant.power(E.majorant.gamma / 2.0, 2.0))
        assert majorant_domination_witness(bad, samples=60, seed=11)
