"""Run drivers, scalar solvers, and expansion invariants."""

import math
import os
import re
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_opt import (
    CoefficientSequence,
    FiniteDictionary,
    Majorant,
    MajorantViolationError,
    NormTag,
    NumericFailure,
    SphereDictionary,
    StopRule,
    WeaknessSequence,
    check_rate_bound,
    dual_norm,
    iter_states,
    line_search_exact,
    logistic_objective,
    make_power_coefficients,
    pairing,
    quadratic_objective,
    read_trace_csv,
    run_ega,
    run_gbe,
    run_gega,
    run_gga_adaptive,
    run_gga_fixed,
    score_gap_bound,
    solve_stepsize,
    trace_csv_text,
)
from greedy_opt import greedy as greedy_module
from greedy_opt.dictionaries import ARGMAX, FIRST_ABOVE, Atom
from greedy_opt.core import ETA, U
from greedy_opt.greedy import ENERGY_SLACK, ExpansionState
from greedy_opt.objectives import Objective, with_majorant
from greedy_opt.instances import logistic_20x5, quadratic_2d, quadratic_2d_unit_l1


def plain(E, calls=None):
    """E without its section model, so that every sign query of the line
    search evaluates the gradient; ``calls`` counts those evaluations."""
    gradient = E._gradient
    if calls is not None:
        def gradient(x):
            calls.append(None)
            return E._gradient(x)
    return Objective(E.dim, E._value, gradient, E.majorant, E.region_radius,
                     known_inf=E.known_inf)


@st.composite
def sections(draw):
    """A quadratic or logistic objective with a start x, a direction d and a
    bound for the line search, plus the logistic's design and labels.

    Directions are signed coordinate vectors or dense ones, unit or scaled.
    Quadratic sections put the root at 0 (x at the target), at dyadic points
    such as the bracket ends 1, 2 and 4, negative, beyond the bound, near
    1.2e5 (where bisection meets its fixed point), or anywhere; logistic ones
    come from random designs of 1 to 30 rows with scaled rows and starts,
    some with saturated sigmoids, and some with x moved along d so that the
    root sits at a doubling point 1, 2 or 4, or a part in 2^40 to either
    side of it, where a slack on [0, 1], [0, 2] or [0, 4] stops short of the
    root.  Magnitudes near overflow or underflow test where the model gives
    up.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        d = np.zeros(n)
        d[draw(st.integers(0, n - 1))] = draw(st.sampled_from((1.0, -1.0)))
    else:
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
    d = d * draw(st.sampled_from((1.0, 1.0, 3.0, 1e-3, 1e-170)))
    bound = draw(st.sampled_from((None, None, 0.75, 5.0, 1e6)))
    if draw(st.booleans()):
        scale = draw(st.sampled_from((1.0, 0.3, 4.0)))
        target = rng.standard_normal(n) * draw(st.sampled_from(
            (1.0, 1e-3, 1e5, 1e150, 1e-160)))
        root = draw(st.sampled_from(
            (None, 0.0, 1.0, 2.0, 4.0, 0.5, 0.75, -1.0, -2.0, 3.0, 1.2e5)))
        if root is None:
            x = rng.standard_normal(n) * draw(st.sampled_from((1.0, 10.0)))
        elif root == 1.2e5:
            target = root * d + rng.standard_normal(n)
            x = rng.standard_normal(n)
        else:
            x = target - root * d
        return quadratic_objective(target, scale=scale), x, d, bound, None
    rows = draw(st.integers(1, 30))
    A = rng.standard_normal((rows, n)) * draw(st.sampled_from(
        (1.0, 0.05, 4.0, 300.0, 1e-150)))
    y = np.where(rng.random(rows) < 0.5, -1.0, 1.0)
    E = logistic_objective(A, y, region_radius=draw(
        st.sampled_from((10.0, 0.5, 100.0))))
    x = rng.standard_normal(n) * draw(st.sampled_from((0.0, 0.1, 1.0, 5.0)))
    root = draw(st.sampled_from((None, None, 1.0, 2.0, 4.0)))
    if root is not None:
        c, clamped = line_search_exact(plain(E), x, d, tol=0.0, bound=bound)
        if not clamped:
            x = x + (c - root * draw(st.sampled_from(
                (1.0, 1.0 + 2.0**-40, 1.0 - 2.0**-40)))) * d
    return E, x, d, bound, (A, y)


class TestPowerCoefficients:
    def test_exponent_is_two_thirds(self):
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        assert cs.s == (1.0 + 1.0) / (1.0 + 2.0)

    def test_series_bound_against_zeta(self):
        scipy_special = pytest.importorskip("scipy.special")
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        zeta = float(scipy_special.zeta(4.0 / 3.0))
        assert cs.meta["series_bound"] >= zeta - 1e-12
        np.testing.assert_allclose(cs.meta["series_bound"], zeta, atol=1e-6)
        np.testing.assert_allclose(cs.c, (0.5 * zeta) ** -0.5, atol=1e-6)

    def test_budget_saturates_at_one(self):
        for t, q, gamma in ((1.0, 2.0, 0.5), (0.5, 1.5, 2.0), (0.25, 2.0, 1.0)):
            cs = make_power_coefficients(t, q, gamma)
            budget = gamma * cs.c**q * cs.meta["series_bound"]
            np.testing.assert_allclose(budget, 1.0, rtol=1e-12)

    def test_values_follow_the_power_law(self):
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        for k in (1, 7, 1000):
            assert cs.value(k) == cs.c * float(k) ** (-cs.s)

    def test_parameter_validation(self):
        for t, q, gamma in ((0.0, 2.0, 1.0), (1.0, 1.0, 1.0), (1.0, 2.0, 0.0)):
            with pytest.raises(ValueError):
                make_power_coefficients(t, q, gamma)


class TestSequences:
    def test_weakness_range_enforced(self):
        with pytest.raises(ValueError):
            WeaknessSequence.constant(0.0)
        with pytest.raises(ValueError):
            WeaknessSequence.constant(1.5)
        seq = WeaknessSequence.explicit([1.0, 0.5])
        assert seq(2) == 0.5
        with pytest.raises(IndexError):
            seq(3)

    @pytest.mark.parametrize("values, message", [
        ([2.0, 0.5], "t_1 = 2.0"), ([0.5, 2.0], "t_2 = 2.0"),
        ([0.5, 0.0], "t_2 = 0.0"), ([math.nan], "t_1 = nan")],
        ids=["t1-above-1", "t2-above-1", "t2-zero", "t1-nan"])
    def test_explicit_values_validated_at_construction(self, values, message):
        """Every entry is checked when the sequence is built, not when a run
        first reaches it, so validity does not depend on max_iter."""
        with pytest.raises(ValueError, match=re.escape(message
                                                       + " outside (0, 1]")):
            WeaknessSequence.explicit(values)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            CoefficientSequence.power(-1.0, 0.5)
        with pytest.raises(ValueError):
            CoefficientSequence.power(1.0, 1.5)
        with pytest.raises(ValueError):
            CoefficientSequence.explicit([0.5, -0.1])


class TestSolveStepsize:
    def test_worked_examples(self):
        assert solve_stepsize(Majorant.power(0.5, 2.0), 0.5) == 1.0
        assert solve_stepsize(Majorant.power(1.0, 1.5), 0.5) == 0.25

    def test_continuity_at_stopping(self):
        mu = Majorant.power(0.5, 2.0)
        for slope in (1e-3, 1e-9, 1e-15):
            assert solve_stepsize(mu, slope) == slope / 0.5

    def test_nonpositive_slope_is_a_caller_bug(self):
        with pytest.raises(ValueError):
            solve_stepsize(Majorant.power(0.5, 2.0), 0.0)


class TestLineSearch:
    def test_quadratic_vertex(self):
        E = quadratic_2d()
        c, clamped = line_search_exact(E, np.zeros(2), np.array([0.0, 1.0]))
        assert c == 2.0 and not clamped

    def test_already_optimal_direction(self):
        E = quadratic_2d()
        c, _ = line_search_exact(E, np.array([0.0, 2.0]), np.array([0.0, 1.0]))
        assert c == 0.0

    def test_negative_step(self):
        E = quadratic_2d()
        c, _ = line_search_exact(E, np.zeros(2), np.array([0.0, -1.0]))
        assert c == -2.0

    def test_matches_analytic_vertex_on_random_quadratics(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            target = rng.standard_normal(4)
            scale = float(rng.uniform(0.3, 3.0))
            E = quadratic_objective(target, scale=scale)
            start = rng.standard_normal(4)
            direction = rng.standard_normal(4)
            c, _ = line_search_exact(E, start, direction, tol=1e-10)
            # vertex of g(c) = E(start + c d): c* = -g'(0)/g''
            g0 = scale * float(np.dot(start - target, direction))
            g2 = scale * float(np.dot(direction, direction))
            assert abs(c - (-g0 / g2)) <= 1e-9

    def test_clamped_when_derivative_never_turns(self):
        E = quadratic_objective([50.0, 0.0])
        c, clamped = line_search_exact(E, np.zeros(2), np.array([1.0, 0.0]),
                                       bound=4.0)
        assert clamped and c == 4.0

    def test_bisection_stops_at_its_fixed_point(self):
        """Near 1.2e5 floats are 2**-36 apart, more than 2 tol, and no
        computed derivative is exactly zero: bisection reaches a bracket of
        adjacent floats, where the midpoint is an end and nothing changes.
        It stops there after d0, 18 doublings to 2**17 and 52 halvings,
        instead of repeating the same state up to its cap of 200."""
        rng = np.random.default_rng(0)
        d = rng.standard_normal(8)
        d /= np.linalg.norm(d)
        E = quadratic_objective(1.2e5 * d + rng.standard_normal(8))
        x = rng.standard_normal(8)
        calls = []
        c, clamped = line_search_exact(plain(E, calls), x, d)
        assert len(calls) == 1 + 18 + 52
        assert c == float.fromhex("0x1.d4bf02bb7b124p+16")
        assert not clamped
        assert line_search_exact(E, x, d) == (c, clamped)

    def test_bisection_runs_until_the_bracket_closes(self):
        """With tol 0 and the root at 1e-300, every midpoint of [0, 1] towards
        the root lies strictly inside the bracket, so only the bracket's
        width may end the search.  After d0, the probe at 1 and 1049
        halvings, down to the float spacing 2**-1049 there, the midpoint is
        the float 1e-300, where the computed derivative is exactly zero.  A
        cap of 200 halvings stopped at 3.1e-61."""
        E = quadratic_objective([1e-300, 0.0])
        x, d = np.zeros(2), np.array([1.0, 0.0])
        calls = []
        c, clamped = line_search_exact(plain(E, calls), x, d, tol=0.0)
        assert c == 1e-300 and not clamped
        assert len(calls) == 1 + 1 + 1049
        assert line_search_exact(E, x, d, tol=0.0) == (c, clamped)


class TestLineSearchReplay:
    """The section model decides signs it can certify; the result must equal
    a search that evaluates every derivative, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(case=sections(),
           tol=st.sampled_from((1e-12, 1e-12, 0.25, 1e3, 1e-300, 0.0)))
    def test_replay_matches_plain_bisection_bitwise(self, case, tol):
        E, x, d, bound, _ = case
        ref, ref_clamped = line_search_exact(plain(E), x, d, tol=tol,
                                             bound=bound)
        # a declared majorant, even a wrong one, does not enter the model
        halved = with_majorant(E, Majorant.power(E.majorant.gamma / 2.0, 2.0))
        for objective in (E, halved):
            c, clamped = line_search_exact(objective, x, d, tol=tol,
                                           bound=bound)
            assert c.hex() == ref.hex()  # the sign of a zero too
            assert clamped == ref_clamped

    @settings(max_examples=150, deadline=None)
    @given(case=sections(), data=st.data())
    def test_slack_covers_both_roundings(self, case, data):
        """|deriv(c) - phi'(c)| + |m(c') - phi'(c')| <= slack for c and c' in
        [-bound, bound], and <= slack_on(C) for c and c' in [0, C], with C the
        bound, a doubling point 1, 2 or 4 (one that may end before the root),
        the model's root or any point; against phi' in exact rationals
        (quadratic) or 80-bit extended precision (logistic)."""
        E, x, d, bound, design = case
        bound = 2.0 * E.region_radius if bound is None else bound
        section = E.section(x, d, bound)
        if section is None:
            return
        model, slack, slack_on = section
        draws = [data.draw(st.floats(0.0, 1.0)) for _ in range(6)]
        if E.curvature is not None:
            s, t = Fraction(E.curvature), [Fraction(v) for v in E.minimizer]
            alpha = sum((Fraction(xi) - ti) * Fraction(di)
                        for xi, ti, di in zip(x, t, d))
            beta = sum(Fraction(di) ** 2 for di in d)
            try:
                root = float(-alpha / beta) if beta else 0.0
            except OverflowError:  # beyond the floats, so beyond any bound
                root = math.copysign(math.inf, -alpha)

            def exact(cs):
                return [s * (alpha + Fraction(c) * beta) for c in cs]
        else:
            if np.finfo(np.longdouble).eps > 1e-18:
                pytest.skip("no extended precision here")
            A, y = (v.astype(np.longdouble) for v in design)
            dl = d.astype(np.longdouble)
            a = y * (A @ dl)
            root, _ = line_search_exact(plain(E), x, d, tol=0.0, bound=bound)

            def exact(cs):
                return [Fraction(float(-np.dot(a, 1.0 / (1.0 + np.exp(
                    y * (A @ (x + np.longdouble(c) * dl))))))) for c in cs]

        def worst(cs):
            """Largest derivative error plus largest model error over cs."""
            phi1 = exact(cs)
            return (max(abs(Fraction(pairing(E.gradient(x + c * d), d)) - p)
                        for c, p in zip(cs, phi1))
                    + max(abs(Fraction(model(c)[0]) - p)
                          for c, p in zip(cs, phi1)))

        def points(lo, hi):
            inside = [root] if lo <= root <= hi else []
            return [lo, hi] + inside + [lo + u * (hi - lo) for u in draws]

        assert worst(points(-bound, bound)) <= Fraction(slack)
        ends = {bound, min(1.0, bound), min(2.0, bound), min(4.0, bound),
                draws[0] * bound}
        if 0.0 < root <= bound:
            ends.add(root)
        for C in ends:
            assert worst(points(0.0, C)) <= Fraction(slack_on(C)), C
            assert slack_on(C) <= slack

    @settings(max_examples=150, deadline=None)
    @given(case=sections(), data=st.data())
    def test_certified_signs_hold_where_claimed(self, case, data):
        """Along d and -d, the computed derivative is negative at every c in
        [0, neg] and positive at every c in [pos, P], P the first doubling
        point (1, 2, 4, ..., capped at the bound) at or above pos: the search
        stops doubling there, so it queries nothing beyond."""
        E, x, d, bound, _ = case
        bound = 2.0 * E.region_radius if bound is None else bound
        for v in (d, -d):
            neg, pos = greedy_module._certified_signs(E, x, v, bound)
            cs = []
            if neg >= 0.0:
                top = min(neg, bound)
                cs += [(c, -1.0) for c in [0.0, top] + [
                    data.draw(st.floats(0.0, top)) for _ in range(3)]]
            if pos <= bound:
                end = 1.0
                while end < pos and end < bound:
                    end *= 2.0
                end = min(end, bound)
                cs += [(c, 1.0) for c in [pos, end] + [
                    data.draw(st.floats(pos, end)) for _ in range(3)]]
            for c, sign in cs:
                assert sign * pairing(E.gradient(x + c * v), v) > 0.0, c

    @settings(max_examples=100, deadline=None)
    @given(case=sections(), data=st.data())
    def test_slack_on_takes_each_rows_largest_sigmoid(self, case, data):
        """The logistic's slack_on(C) is at least the derivation's bound with
        each row's largest sigmoid on [0, C] found by a search over 257
        points in extended precision, ends included."""
        E, x, d, bound, design = case
        bound = 2.0 * E.region_radius if bound is None else bound
        section = E.section(x, d, bound)
        if E.curvature is not None or section is None:
            return
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("no extended precision here")
        A, y = design
        M, n = A.shape
        absA = np.abs(A)
        b, r = absA @ np.abs(d), absA @ np.abs(x)
        a = y * (A @ d)
        Al, yl = A.astype(np.longdouble), y.astype(np.longdouble)

        def gamma(k):
            return k * U / (1.0 - k * U)

        under = ((M + n + 1) * (n + 1) * ETA * (1.0 + absA.sum(axis=1).max()
                                                 + bound)
                 * (1.0 + b.sum() + np.abs(d).sum()))
        for C in (bound, min(1.0, bound), data.draw(st.floats(0.0, bound))):
            grid = np.linspace(0.0, 1.0, 257).astype(np.longdouble) * C
            xl, dl = (v.astype(np.longdouble)[:, None] for v in (x, d))
            margins = yl[:, None] * (Al @ (xl + dl * grid))
            S = (1.0 / (1.0 + np.exp(margins))).max(axis=1).astype(float)
            L = np.minimum(S, 0.25)
            least = (2.0 * (2.0 * gamma(M + n + 1) * np.dot(b, S)
                            + np.dot(np.abs(a), 25.0 * U + 2.0 * gamma(n + 2)
                                     * L * (r + C * b)))
                     + under)
            assert section[2](C) >= least * (1.0 - 1e-9), C

    def test_a_flat_tail_certifies_nothing(self):
        """phi'(c) = -sigma(-(30 + c)) is negative everywhere and tends to 0,
        and its tail certifies nothing: from c = 2 on, the model lies within
        the slack of all of [0, 20] of zero, so Newton certifies c <= 1 and
        stops, and the probe at 3 - w, under the slack on [0, 4], certifies
        c <= 2.52 too.  The search clamps at the bound as plain bisection
        does, with gradients at 4, 8, 16 and 20."""
        E = logistic_objective([[1.0]], [1.0])
        x, d = np.array([30.0]), np.array([1.0])
        calls = []
        counted = plain(E, calls)
        counted.section = E.section
        c, clamped = line_search_exact(counted, x, d)
        assert (c, clamped) == line_search_exact(plain(E), x, d)
        assert c == 20.0 and clamped
        assert len(calls) == 4

    def test_gega_takes_a_handful_of_gradients_per_search(self):
        """A logistic GEGA run: the same trace as without the model, from
        fewer than 1 gradient per line search instead of about 40 (82 in
        100 searches, 193 under one slack for all of [0, bound])."""
        rng = np.random.default_rng(4)
        A = rng.standard_normal((120, 16)) / 4.0
        y = np.where(A @ rng.standard_normal(16) + rng.standard_normal(120)
                     >= 0.0, 1.0, -1.0)
        E = logistic_objective(A, y)
        d = FiniteDictionary.coordinate(16)
        stop = StopRule(max_iter=100, grad_tol=0.0)
        bisected, replayed = [], []
        theirs = run_gega(plain(E, bisected), d, 1.0, stop)
        counted = plain(E, replayed)
        counted.section = E.section
        ours = run_gega(counted, d, 1.0, stop)
        assert trace_csv_text(ours) == trace_csv_text(theirs)
        assert len(bisected) > 101 + 30 * 100
        assert len(replayed) < 101 + 100


class TestRunGbe:
    def test_immediate_stop_at_minimizer(self):
        E = quadratic_objective([0.0, 0.0])
        trace = run_gbe(E, FiniteDictionary.coordinate(2), 1.0,
                        CoefficientSequence.explicit([1.0] * 5),
                        StopRule(max_iter=5))
        assert len(trace) == 0 and trace.status == "gradient"

    def test_first_step_worked_example(self):
        E = quadratic_2d()
        trace = run_gbe(E, FiniteDictionary.coordinate(2), 1.0,
                        CoefficientSequence.explicit([1.0]),
                        StopRule(max_iter=1))
        assert (trace.atoms[0].index, trace.atoms[0].sign) == (1, 1)
        assert trace.E[0] == 1.0

    def test_partial_sums_monotone(self):
        E = quadratic_2d()
        trace = run_gbe(E, FiniteDictionary.coordinate(2), 1.0,
                        CoefficientSequence.power(0.5, 1.0),
                        StopRule(max_iter=50))
        sums = np.asarray(trace.sum_cED)
        assert np.all(np.diff(sums) >= 0.0)

    def test_nonpositive_coefficients_rejected(self):
        E = quadratic_2d()
        with pytest.raises(ValueError):
            run_gbe(E, FiniteDictionary.coordinate(2), 1.0,
                    CoefficientSequence.explicit([0.0] * 3),
                    StopRule(max_iter=3))

    @pytest.mark.parametrize("mode", [ARGMAX, FIRST_ABOVE])
    def test_equals_gga_fixed_on_positive_schedule(self, mode):
        E = quadratic_objective(np.random.default_rng(3).standard_normal(6))
        d = FiniteDictionary.gaussian(6, 40, 3)
        cs = CoefficientSequence.power(0.3, 0.9)
        stop = StopRule(max_iter=60)
        gbe = run_gbe(E, d, 0.6, cs, stop, mode=mode)
        fixed = run_gga_fixed(E, d, 0.6, cs, stop, mode=mode)
        assert len(gbe) == 60
        for name in ("E", "c", "atoms", "flags", "t_used"):
            assert getattr(gbe, name) == getattr(fixed, name), name
        assert gbe.config["coefficients"] == fixed.config["coefficients"]


@pytest.mark.parametrize("dictionary", [SphereDictionary(),
                                        FiniteDictionary.coordinate(2)],
                         ids=["sphere", "coordinate"])
def test_unknown_mode_is_refused_before_the_first_evaluation(dictionary):
    """The sphere ran 3 steps and recorded "mode": "bogus"; a finite
    dictionary failed only at its first step, after evaluating E."""
    calls = []
    E = quadratic_objective([1.0, 2.0])
    counted = Objective(2, lambda x: calls.append(x) or E._value(x),
                        E._gradient, E.majorant, E.region_radius)
    with pytest.raises(ValueError,
                       match="mode must be 'argmax' or 'first-above'"):
        run_gga_fixed(counted, dictionary, 1.0,
                      make_power_coefficients(1.0, 2.0, 0.5),
                      StopRule(max_iter=3), mode="bogus")
    assert calls == []


class TestRunEga:
    def test_first_step_worked_example(self):
        E = quadratic_2d()
        trace = run_ega(E, FiniteDictionary.coordinate(2),
                        CoefficientSequence.explicit([1.0]),
                        StopRule(max_iter=1))
        assert (trace.atoms[0].index, trace.atoms[0].sign) == (1, 1)
        assert trace.E[0] == 1.0

    def test_zero_coefficients_freeze_with_flag(self):
        E = quadratic_2d()
        trace = run_ega(E, FiniteDictionary.coordinate(2),
                        CoefficientSequence.explicit([0.0, 0.0]),
                        StopRule(max_iter=2))
        assert all("no-progress" in f for f in trace.flags)
        assert trace.E[0] == E(np.zeros(2))

    def test_sphere_rejected(self):
        E = quadratic_2d()
        with pytest.raises(TypeError):
            run_ega(E, SphereDictionary(), CoefficientSequence.explicit([1.0]),
                    StopRule(max_iter=1))


class TestRunGgaFixed:
    def test_first_step_and_recorded_coefficients(self):
        E = quadratic_2d()
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(2), 1.0, cs,
                              StopRule(max_iter=20))
        assert (trace.atoms[0].index, trace.atoms[0].sign) == (1, 1)
        for i in range(len(trace)):
            assert trace.c[i] == cs.c * float(i + 1) ** (-cs.s)

    def test_argmax_trace_independent_of_t(self):
        E = quadratic_2d_unit_l1()
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        d = FiniteDictionary.coordinate(2)
        full = run_gga_fixed(E, d, 1.0, cs, StopRule(max_iter=100))
        weak = run_gga_fixed(E, d, 0.3, cs, StopRule(max_iter=100))
        assert full.E == weak.E and full.c == weak.c

    def test_certified_stop_tests_skip_the_dual_norm(self, monkeypatch):
        """c05's instance: the score decides every gradient stop test."""
        calls = []
        monkeypatch.setattr(greedy_module, "dual_norm", lambda *args:
                            calls.append(args) or dual_norm(*args))
        E = quadratic_2d_unit_l1()
        cs = make_power_coefficients(1.0, 2.0, E.majorant.gamma)
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(2), 1.0, cs,
                              StopRule(max_iter=10_000))
        assert trace.status == "max-iter" and calls == []

    def test_sublevel_confinement_under_summable_schedule(self):
        E = quadratic_2d_unit_l1()
        cs = make_power_coefficients(1.0, 2.0, E.majorant.gamma)
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(2), 1.0, cs,
                              StopRule(max_iter=2000))
        assert not any("left-sublevel-2" in f for f in trace.flags)


class TestRunGgaAdaptive:
    def test_worked_first_step(self):
        # score 2, slope = t b/2 * 2 = 0.5, mu = u^2/2: c_1 = 1, E(G_1) = 1
        E = quadratic_2d()
        trace = run_gga_adaptive(E, FiniteDictionary.coordinate(2), 1.0, 0.5,
                                 StopRule(max_iter=1))
        assert trace.c[0] == 1.0
        assert trace.E[0] == 1.0
        assert trace.E[0] <= 2.5 - 0.5 * 1.0 * 2.0 + 1e-10

    def test_energy_strictly_decreasing(self):
        E = quadratic_2d()
        trace = run_gga_adaptive(E, FiniteDictionary.coordinate(2), 1.0, 0.5,
                                 StopRule(max_iter=60))
        values = [trace.E0] + trace.E
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_energy_inequality_from_trace(self):
        for E, dim in ((quadratic_2d(), 2), (logistic_20x5(), 5)):
            b = 0.5
            trace = run_gga_adaptive(E, FiniteDictionary.coordinate(dim), 1.0,
                                     b, StopRule(max_iter=120))
            prev_e, prev_s = trace.E0, trace.ED0
            for i in range(len(trace)):
                required = prev_e - trace.t_used[i] * (1 - b) * trace.c[i] * prev_s
                assert trace.E[i] <= required + 1e-10
                prev_e, prev_s = trace.E[i], trace.ED[i]

    def test_violation_aborts_with_diagnostics(self):
        # gamma far below the true curvature: c_1 = 10, E jumps to 32.5 > -7.5
        E = quadratic_2d()
        with pytest.raises(MajorantViolationError) as err:
            run_gga_adaptive(E, FiniteDictionary.coordinate(2), 1.0, 0.5,
                             StopRule(max_iter=5),
                             majorant=Majorant.power(0.05, 2.0))
        assert err.value.iteration == 1
        np.testing.assert_allclose(err.value.observed, 32.5, rtol=1e-12)

    def test_first_above_scans_no_more_than_argmax(self, monkeypatch):
        """One screened pass per selection, and the run of a full-scan loop."""
        def full_scan_score(grad_neg, dictionary):
            s = dictionary.pairings(grad_neg)
            j = int(np.argmax(np.abs(s)))
            if s[j] == 0.0:
                return 0.0, None
            return abs(float(s[j])), Atom(index=j, sign=1 if s[j] >= 0 else -1)

        def full_scan_select(grad_neg, dictionary, t, mode, score):
            s = dictionary.pairings(grad_neg)
            for j in range(dictionary.size):
                for sign in (1, -1):
                    if sign * float(s[j]) >= t * score[0]:
                        return Atom(index=j, sign=sign), sign * float(s[j])

        E = quadratic_objective(np.random.default_rng(24).standard_normal(8))
        d = FiniteDictionary.gaussian(8, 40, seed=1)
        scans = []
        pairings = FiniteDictionary.pairings

        def counted(self, v):
            scans[-1] += 1
            return pairings(self, v)

        monkeypatch.setattr(FiniteDictionary, "pairings", counted)
        traces = {}
        for mode in (ARGMAX, FIRST_ABOVE):
            scans.append(0)
            traces[mode] = run_gga_adaptive(E, d, 0.5, 0.5,
                                            StopRule(max_iter=100, grad_tol=0.0),
                                            mode=mode)
        assert len(traces[FIRST_ABOVE]) == 100
        assert scans[1] <= scans[0]
        monkeypatch.setattr(greedy_module, "greedy_score", full_scan_score)
        monkeypatch.setattr(greedy_module, "select_atom", full_scan_select)
        reference = run_gga_adaptive(E, d, 0.5, 0.5,
                                     StopRule(max_iter=100, grad_tol=0.0),
                                     mode=FIRST_ABOVE)
        assert trace_csv_text(traces[FIRST_ABOVE]) == trace_csv_text(reference)
        assert traces[FIRST_ABOVE].atoms == reference.atoms

    def test_b_range_enforced(self):
        E = quadratic_2d()
        for b in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                run_gga_adaptive(E, FiniteDictionary.coordinate(2), 1.0, b,
                                 StopRule(max_iter=1))


class TestGradientMethodEquivalence:
    """Sphere dictionary + Euclidean norm + power majorant is plain descent."""

    @pytest.mark.parametrize("make", [
        lambda: quadratic_objective(np.random.default_rng(5).standard_normal(6)),
        logistic_20x5,
    ])
    def test_bitwise_close_to_descent_loop(self, make):
        E = make()
        gamma = E.majorant.gamma
        b = 0.5
        trace = run_gga_adaptive(E, SphereDictionary(), 1.0, b,
                                 StopRule(max_iter=100, grad_tol=0.0))
        x = np.zeros(E.dim)
        step = b / (2.0 * gamma)
        for state in iter_states(trace, SphereDictionary()):
            x = x - step * E.gradient(x)
            denom = np.maximum(np.abs(x), 1e-300)
            assert float(np.max(np.abs(state.G - x) / denom)) <= 1e-12


class TestRunGega:
    def test_two_step_exact_solve(self):
        E = quadratic_2d()
        trace = run_gega(E, FiniteDictionary.coordinate(2), 1.0,
                         StopRule(max_iter=10))
        assert len(trace) == 2 and trace.status == "gradient"
        assert trace.c == [2.0, 1.0]
        assert trace.E == [0.5, 0.0]
        assert [(a.index, a.sign) for a in trace.atoms] == [(1, 1), (0, 1)]

    def test_one_objective_value_per_iteration(self, monkeypatch):
        """E(0) once, then E(G_m) once per iteration: the line search itself
        evaluates only gradients."""
        calls = []
        value = Objective.__call__

        def counted(E, x):
            calls.append(None)
            return value(E, x)

        monkeypatch.setattr(Objective, "__call__", counted)
        trace = run_gega(quadratic_2d(), FiniteDictionary.coordinate(2), 1.0,
                         StopRule(max_iter=10))
        assert len(trace) == 2
        assert len(calls) == 1 + len(trace)

    def test_each_atom_is_resolved_once(self, monkeypatch):
        """The atom a step searches along is the atom it adds, so each
        iteration resolves it once, for the line search and the update."""
        calls = []
        resolve = FiniteDictionary.resolve

        def counted(dictionary, atom):
            calls.append(atom)
            return resolve(dictionary, atom)

        monkeypatch.setattr(FiniteDictionary, "resolve", counted)
        trace = run_gega(logistic_20x5(), FiniteDictionary.coordinate(5), 1.0,
                         StopRule(max_iter=40))
        assert len(calls) == len(trace) == 40
        assert all(a is b for a, b in zip(calls, trace.atoms))

    def test_energy_never_increases(self):
        E = logistic_20x5()
        trace = run_gega(E, FiniteDictionary.coordinate(5), 1.0,
                         StopRule(max_iter=80))
        values = [trace.E0] + trace.E
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_dominates_adaptive_while_atoms_coincide(self):
        E = quadratic_2d()
        d = FiniteDictionary.coordinate(2)
        exact = run_gega(E, d, 1.0, StopRule(max_iter=2))
        adaptive = run_gga_adaptive(E, d, 1.0, 0.5, StopRule(max_iter=2))
        for i in range(2):
            assert (exact.atoms[i].index, exact.atoms[i].sign) == \
                (adaptive.atoms[i].index, adaptive.atoms[i].sign)
            assert exact.E[i] <= adaptive.E[i] + 1e-12


class TestTraceMechanics:
    def test_replay_matches_run_bitwise(self):
        E = quadratic_2d_unit_l1()
        d = FiniteDictionary.coordinate(2)
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        trace = run_gga_fixed(E, d, 1.0, cs, StopRule(max_iter=40))
        states = list(iter_states(trace, d))
        assert len(states) == 40
        # the expansion is recomputable from history: G_m = sum c_j phi_j
        last = states[-1]
        rebuilt = np.zeros(2)
        for c, atom in zip(trace.c, trace.atoms):
            rebuilt = rebuilt + c * d.resolve(atom)
        np.testing.assert_array_equal(last.G, rebuilt)
        np.testing.assert_allclose(last.A, np.sum(np.abs(trace.c)), rtol=1e-10)

    def test_step_difference_matches_coefficient(self):
        E = quadratic_2d()
        d = FiniteDictionary.coordinate(2)
        trace = run_gega(E, d, 1.0, StopRule(max_iter=10))
        prev = np.zeros(2)
        for state, c, atom in zip(iter_states(trace, d), trace.c, trace.atoms):
            np.testing.assert_allclose(state.G - prev, c * d.resolve(atom),
                                       rtol=1e-10, atol=1e-300)
            prev = state.G

    def test_target_gap_stop(self):
        E = quadratic_2d()
        trace = run_gga_adaptive(E, FiniteDictionary.coordinate(2), 1.0, 0.5,
                                 StopRule(max_iter=500, target_gap=1e-3))
        assert trace.status == "target-gap"
        assert trace.final_gap <= 1e-3

    @pytest.mark.parametrize("run", ["GBE", "EGA", "GGA_FIXED",
                                     "GGA_ADAPTIVE", "GEGA"])
    def test_zero_score_stops_before_the_first_step(self, run):
        """The one atom e_1 is orthogonal to the gradient towards (0, 1):
        every scheme stops at m = 1 with an empty trace."""
        E = quadratic_objective([0.0, 1.0])
        d = FiniteDictionary(np.array([[1.0], [0.0]]))
        stop = StopRule(max_iter=3)
        coeffs = CoefficientSequence.explicit([0.5] * 3)
        trace = {
            "GBE": lambda: run_gbe(E, d, 1.0, coeffs, stop),
            "EGA": lambda: run_ega(E, d, coeffs, stop),
            "GGA_FIXED": lambda: run_gga_fixed(E, d, 1.0, coeffs, stop),
            "GGA_ADAPTIVE": lambda: run_gga_adaptive(E, d, 1.0, 0.5, stop),
            "GEGA": lambda: run_gega(E, d, 1.0, stop),
        }[run]()
        assert trace.status == "zero-score"
        assert len(trace) == 0 and trace.ED0 == 0.0
        assert trace.final_gap == trace.E0 == 0.5

    def test_a_step_past_the_sublevel_set_is_flagged(self):
        """c_1 = 10 takes E from 0.15625 to 45.15625, beyond E(0) + 2."""
        E = quadratic_objective([0.5, 0.25])
        trace = run_gga_fixed(E, FiniteDictionary.coordinate(2), 1.0,
                              CoefficientSequence.explicit([10.0, 0.5]),
                              StopRule(max_iter=2))
        assert trace.E == [45.15625, 40.53125]
        assert trace.flags == ["left-sublevel-2", "left-sublevel-2"]

    def test_identical_runs_serialize_identically(self):
        def make():
            return run_gga_adaptive(logistic_20x5(),
                                    FiniteDictionary.coordinate(5), 1.0, 0.5,
                                    StopRule(max_iter=60))
        assert trace_csv_text(make()) == trace_csv_text(make())

    def test_stop_rule_validation(self):
        with pytest.raises(ValueError):
            StopRule(max_iter=0)
        with pytest.raises(ValueError):
            StopRule(max_iter=5, grad_tol=-1.0)

    # each was accepted, and a run under it never stopped on that rule
    @pytest.mark.parametrize("field, value", [
        ("grad_tol", math.nan), ("target_gap", math.nan),
        ("target_gap", -1.0)])
    def test_stop_rule_refuses_a_threshold_that_disables_itself(self, field,
                                                                 value):
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            StopRule(max_iter=3, **{field: value})

    def test_a_zero_target_gap_stays_valid(self):
        assert StopRule(max_iter=3, target_gap=0.0).target_gap == 0.0

    def test_a_step_coefficient_that_is_not_finite_is_refused(self):
        """A subnormal gamma overflows the solved step to c_1 = inf; the
        update inf * 0 printed an invalid-value warning before the objective
        check failed."""
        E = quadratic_objective([0.3, 0.4])
        with pytest.raises(NumericFailure,
                           match="step coefficient c_1 is not finite"):
            run_gga_adaptive(E, FiniteDictionary.coordinate(2), 1.0, 0.5,
                             StopRule(max_iter=5),
                             majorant=Majorant.power(5e-324, 2.0))


class TestScoreGapBound:
    def test_worked_example(self):
        # at G_0 = 0: score 2, gap (2.5 - 0)/(3 + 0) = 0.8333...
        E = quadratic_2d()
        d = FiniteDictionary.coordinate(2)
        state = ExpansionState(G=np.zeros(2), m=0, A=0.0)
        chk = score_gap_bound(E, d, state, np.array([1.0, 2.0]), 3.0)
        assert chk.lhs == 2.0
        np.testing.assert_allclose(chk.rhs, 2.5 / 3.0, rtol=1e-15)
        assert chk.holds

    def test_reference_equal_to_iterate_is_trivial(self):
        E = quadratic_2d()
        d = FiniteDictionary.coordinate(2)
        G = np.array([0.4, 0.7])
        state = ExpansionState(G=G, m=2, A=1.1)
        chk = score_gap_bound(E, d, state, G, 1.1)
        assert chk.rhs == 0.0 and chk.holds

    def test_bad_hull_radius_rejected(self):
        E = quadratic_2d()
        d = FiniteDictionary.coordinate(2)
        state = ExpansionState(G=np.zeros(2), m=0, A=0.0)
        with pytest.raises(ValueError):
            score_gap_bound(E, d, state, np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            # l1 norm 3 exceeds the claimed hull radius 1
            score_gap_bound(E, d, state, np.array([1.0, 2.0]), 1.0)

    def test_general_dictionary_warns(self):
        E = quadratic_2d()
        d = FiniteDictionary.gaussian(2, 5, seed=1)
        state = ExpansionState(G=np.zeros(2), m=0, A=0.0)
        with pytest.warns(RuntimeWarning):
            score_gap_bound(E, d, state, np.array([0.1, 0.1]), 5.0)

    def test_coordinate_label_on_general_atoms_warns(self):
        E = quadratic_2d()
        rng = np.random.default_rng(2)
        d = FiniteDictionary(rng.standard_normal((2, 5)), kind="coordinate")
        state = ExpansionState(G=np.zeros(2), m=0, A=0.0)
        with pytest.warns(RuntimeWarning):
            score_gap_bound(E, d, state, np.array([0.1, 0.1]), 5.0)

    def test_unlabelled_identity_is_verified_exactly(self):
        import warnings
        E = quadratic_2d()
        d = FiniteDictionary(np.eye(2))
        state = ExpansionState(G=np.zeros(2), m=0, A=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert score_gap_bound(E, d, state, np.array([1.0, 2.0]),
                                   3.0).holds
            with pytest.raises(ValueError):
                score_gap_bound(E, d, state, np.array([1.0, 2.0]), 1.0)

    def test_holds_along_a_run(self):
        E = quadratic_2d_unit_l1()
        d = FiniteDictionary.coordinate(2)
        cs = make_power_coefficients(1.0, 2.0, 0.5)
        trace = run_gga_fixed(E, d, 1.0, cs, StopRule(max_iter=300))
        target = E.minimizer
        hull = float(np.sum(np.abs(target)))
        for state in iter_states(trace, d):
            assert score_gap_bound(E, d, state, target, hull).holds


class TestCheckRateBound:
    def _synthetic(self, gaps):
        from greedy_opt import RunTrace
        return RunTrace(algorithm="synthetic", status="max-iter",
                        E0=float(gaps[0] + 1.0), ED0=1.0, E=list(gaps),
                        infimum=0.0)

    def test_exact_power_law_passes(self):
        m = np.arange(1, 101, dtype=float)
        assert check_rate_bound(self._synthetic(m**-1.0), 1.0, 1.0) is True

    def test_slower_decay_fails(self):
        m = np.arange(1, 101, dtype=float)
        assert check_rate_bound(self._synthetic(m**-0.5), 1.0, 1.0) is False

    def test_missing_infimum_not_applicable(self):
        trace = self._synthetic(np.ones(5))
        trace.infimum = None
        assert check_rate_bound(trace, 1.0, 1.0) is None


INVARIANT_FLAGS = {"no-progress", "left-sublevel-2", "clamped"}


INVARIANT_RUNS = [(algorithm, kind)
                  for algorithm in ("GBE", "EGA", "GGA_FIXED", "GGA_ADAPTIVE",
                                    "GEGA")
                  for kind in ("coordinate", "gaussian", "sphere")
                  if (algorithm, kind) != ("EGA", "sphere")]


@st.composite
def small_runs(draw, algorithm, kind):
    """A run of ``algorithm`` for at most 15 steps on a small quadratic or
    logistic objective (dim 1 to 6) over a ``kind`` dictionary.  Returns the
    objective, the dictionary and the trace."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        E = quadratic_objective(
            rng.standard_normal(dim) * draw(st.sampled_from((0.1, 1.0, 5.0))),
            scale=draw(st.sampled_from((0.5, 1.0, 3.0))))
    else:
        rows = dim + draw(st.integers(1, 4))
        E = logistic_objective(rng.standard_normal((rows, dim)),
                               np.where(rng.standard_normal(rows) > 0,
                                        1.0, -1.0))
    norm = NormTag(draw(st.sampled_from((1.5, 2.0))))
    if kind == "coordinate":
        d = FiniteDictionary.coordinate(dim, norm=norm)
    elif kind == "gaussian":
        d = FiniteDictionary.gaussian(dim, draw(st.integers(1, 8)),
                                      seed=draw(st.integers(0, 99)),
                                      norm=norm)
    else:
        d = SphereDictionary(norm)
    t = draw(st.sampled_from((0.5, 1.0)))
    mode = draw(st.sampled_from((ARGMAX, FIRST_ABOVE)))
    coeffs = CoefficientSequence.power(draw(st.sampled_from((0.1, 0.5, 1.0))),
                                       draw(st.sampled_from((0.5, 1.0))))
    stop = StopRule(max_iter=draw(st.integers(1, 15)))
    trace = {
        "GBE": lambda: run_gbe(E, d, t, coeffs, stop, mode=mode),
        "EGA": lambda: run_ega(E, d, coeffs, stop),
        "GGA_FIXED": lambda: run_gga_fixed(E, d, t, coeffs, stop, mode=mode),
        "GGA_ADAPTIVE": lambda: run_gga_adaptive(E, d, t, 0.5, stop,
                                                 mode=mode),
        "GEGA": lambda: run_gega(E, d, t, stop, mode=mode),
    }[algorithm]()
    return E, d, trace


class TestTraceInvariants:
    @pytest.mark.parametrize("algorithm, kind", INVARIANT_RUNS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_runs_keep_their_trace_invariants(self, algorithm, kind, data):
        """Every E is finite and every flag known; the replayed iterates give
        the trace's E bit for bit; the CSV reads back and writes back byte
        for byte; and the adaptive scheme never raises E by more than
        ENERGY_SLACK."""
        E, d, trace = data.draw(small_runs(algorithm, kind))
        assert all(math.isfinite(e) for e in [trace.E0, *trace.E])
        for flags in trace.flags:
            assert set(filter(None, flags.split(";"))) <= INVARIANT_FLAGS
        states = list(iter_states(trace, d))
        assert [E(s.G).hex() for s in states] == [e.hex() for e in trace.E]
        text = trace_csv_text(trace)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            assert trace_csv_text(read_trace_csv(path)) == text
        if trace.algorithm == "GGA_ADAPTIVE":
            energies = [trace.E0, *trace.E]
            assert all(b <= a + ENERGY_SLACK
                       for a, b in zip(energies, energies[1:]))
