"""Shipped objective families: worked values, contracts, reference solves."""

import math

import numpy as np
import pytest

from greedy_opt import (
    logistic_objective,
    p_power_objective,
    quadratic_objective,
    validate_objective,
)
from greedy_opt.instances import (
    logistic_20x5,
    p_power_instance,
    quadratic_2d,
    quadratic_geometric,
)
from greedy_opt.core import sample_ball, unit_direction
from greedy_opt.objectives import reference_infimum


def sampled_modulus(E, radius, u, samples, seed):
    """Largest |E(x + u y) + E(x - u y) - 2 E(x)| / 2 over x uniform in the
    ball of the given radius and unit directions y."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = sample_ball(rng, E.dim, radius=radius)
        y = unit_direction(rng, E.dim)
        worst = max(worst, 0.5 * abs(E(x + u * y) + E(x - u * y) - 2.0 * E(x)))
    return worst


class TestQuadratic:
    def test_worked_values(self):
        E = quadratic_objective([1.0, 2.0])
        assert E(np.zeros(2)) == 2.5
        np.testing.assert_array_equal(E.gradient(np.zeros(2)), [-1.0, -2.0])

    def test_minimizer(self):
        E = quadratic_objective([1.0, 2.0])
        assert E(np.array([1.0, 2.0])) == 0.0
        np.testing.assert_array_equal(E.gradient(np.array([1.0, 2.0])),
                                      [0.0, 0.0])
        assert E.known_inf[0] == 0.0

    def test_modulus_is_exactly_half_scale_u_squared(self):
        E = quadratic_objective([0.2, -0.4, 1.0], scale=3.0)
        for u in (0.1, 0.7):
            np.testing.assert_allclose(
                sampled_modulus(E, 1.5, u, samples=40, seed=0),
                1.5 * u * u, rtol=1e-11)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            quadratic_objective([1.0], scale=0.0)

    def test_region_contains_sublevel_set(self):
        # every x with E(x) <= E(0) + 2 lies within the declared radius
        E = quadratic_objective([1.0, 2.0], scale=0.5)
        rng = np.random.default_rng(1)
        for _ in range(300):
            x = rng.standard_normal(2) * 4.0
            if E(x) <= E(np.zeros(2)) + 2.0:
                assert np.linalg.norm(x) <= E.region_radius + 1e-12


class TestPPower:
    def test_reduces_to_quadratic_at_p2(self):
        E = p_power_objective(np.array([[1.0]]), np.array([0.0]), 2.0)
        for x in (-2.0, 0.3, 1.7):
            np.testing.assert_allclose(E(np.array([x])), x * x / 2.0,
                                       rtol=1e-15)

    def test_zero_residual(self):
        E = p_power_objective(np.array([[1.0]]), np.array([1.0]), 1.5)
        assert E(np.array([1.0])) == 0.0
        np.testing.assert_array_equal(E.gradient(np.array([1.0])), [0.0])

    def test_scalar_calculus_example(self):
        # p=1.5, row=(1), y=0 at x=4: E = 4^1.5/1.5 = 16/3, E' = 4^0.5 = 2
        E = p_power_objective(np.array([[1.0]]), np.array([0.0]), 1.5)
        np.testing.assert_allclose(E(np.array([4.0])), 16.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(E.gradient(np.array([4.0])), [2.0],
                                   rtol=1e-15)

    def test_p_range_enforced(self):
        for p in (1.0, 2.5, 0.5):
            with pytest.raises(ValueError):
                p_power_objective(np.array([[1.0]]), np.array([0.0]), p)

    def test_rank_deficient_design_rejected(self):
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(ValueError):
            p_power_objective(design, np.zeros(3), 1.5)

    def test_majorant_exponent_matches_p(self):
        E = p_power_instance(p=1.5)
        assert E.majorant.q == 1.5
        assert E.description["gamma_note"] == "conservative analytic bound"


class TestLogistic:
    def test_value_at_origin(self):
        E = logistic_20x5()
        np.testing.assert_allclose(E(np.zeros(5)), 20.0 * math.log(2.0),
                                   rtol=1e-14)

    def test_confident_correct_classification(self):
        E = logistic_objective(np.eye(2), np.array([1.0, 1.0]))
        expected = 2.0 * math.log1p(math.exp(-10.0))
        np.testing.assert_allclose(E(np.array([10.0, 10.0])), expected,
                                   rtol=1e-12)

    def test_gradient_at_origin(self):
        rng = np.random.default_rng(2)
        design = rng.standard_normal((6, 3))
        labels = np.where(rng.standard_normal(6) > 0, 1.0, -1.0)
        E = logistic_objective(design, labels)
        expected = -0.5 * design.T @ labels
        np.testing.assert_allclose(E.gradient(np.zeros(3)), expected,
                                   rtol=1e-14)

    def test_design_whose_squares_underflow_builds(self):
        E = logistic_objective([[1e-170, 0.0], [0.0, 1e-170]], [1.0, -1.0])
        assert E.majorant.gamma > 0.0
        report = validate_objective(E)
        assert all(report[key] for key in ("convexity", "supporting_hyperplane",
                                           "gradient", "majorant_domination"))

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            logistic_objective(np.eye(2), np.array([1.0, 0.5]))

    def test_shared_margins_follow_x_bytes(self):
        """E, E' and the section share the margins y * (A x) through a memo
        keyed on x's bytes: an x changed in place, an equal copy and a
        -0.0 / +0.0 pair each get, bit for bit, what a fresh objective
        computes."""
        rng = np.random.default_rng(5)
        design = rng.standard_normal((12, 4))
        labels = np.where(rng.standard_normal(12) > 0, 1.0, -1.0)
        d = np.array([0.0, 1.0, 0.0, -0.5])

        def outputs(E, x):
            model, slack, slack_on = E.section(x, d, 4.0)
            grad = E.gradient(x)
            out = (E(x).hex(), grad.tobytes(), model(0.25)[0].hex(),
                   slack.hex(), slack_on(2.0).hex())
            grad[:] = 7.0  # the caller's own array, not the memo's
            return out

        def fresh(x):
            return outputs(logistic_objective(design, labels), x.copy())

        E = logistic_objective(design, labels)
        x = rng.standard_normal(4)
        assert outputs(E, x) == fresh(x)
        x[2] += 0.5
        assert outputs(E, x) == fresh(x)
        assert outputs(E, x.copy()) == fresh(x)
        neg = np.array([-0.0, 1.0, 0.0, 2.0])
        pos = np.array([0.0, 1.0, 0.0, 2.0])
        E(neg)
        assert outputs(E, pos) == fresh(pos)
        assert outputs(E, neg) == fresh(neg)


class TestContracts:
    @pytest.mark.parametrize("make", [
        quadratic_2d,
        lambda: quadratic_geometric(32),
        logistic_20x5,
        p_power_instance,
    ])
    def test_sampling_audit(self, make):
        """Convexity, supporting hyperplane, gradient, majorant domination."""
        report = validate_objective(make(), samples=300, seed=3)
        assert report["convexity"]
        assert report["supporting_hyperplane"]
        assert report["gradient"]
        assert report["majorant_domination"]


class TestReferenceInfimum:
    def test_matches_independent_solver(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        E = logistic_20x5()
        ref = reference_infimum(E)
        res = scipy_opt.minimize(lambda x: E(x), np.zeros(E.dim),
                                 jac=lambda x: E.gradient(x),
                                 method="L-BFGS-B",
                                 options={"ftol": 1e-15, "gtol": 1e-12})
        assert ref <= res.fun + 1e-9
        np.testing.assert_allclose(ref, res.fun, rtol=1e-8)
