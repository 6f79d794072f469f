"""The acceptance suite: each verification criterion as a callable pass/fail check.

The CLI ``verify`` subcommand and the acceptance tests both run these.  Every
criterion is deterministic; the ones that execute runs also write their traces
(when an output directory is supplied) so two invocations can be compared file
by file.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    Majorant,
    NormTag,
    dual_norm,
    lp_norm,
    majorant_domination_witness,
    sample_ball,
    smoothness_gap_check,
    unit_direction,
)
from .dictionaries import (FiniteDictionary, SphereDictionary,
                           argmin_atom_by_objective, greedy_score)
from .diagnostics import (
    ADAPTIVE_RATE,
    FIXED_SUMMABLE_CONVERGENCE,
    POWER_SCHEDULE_RATE,
    bound_holds,
    claim_verdict,
    fit_rate,
    smallest_dominating_constant,
)
from .greedy import (
    ENERGY_SLACK,
    StopRule,
    iter_states,
    line_search_exact,
    make_power_coefficients,
    run_ega,
    run_gega,
    run_gga_adaptive,
    run_gga_fixed,
    score_gap_bound,
)
from .instances import (
    logistic_20x5,
    p_power_instance,
    quadratic_2d,
    quadratic_2d_unit_l1,
    quadratic_geometric,
    quadratic_nd,
)
from .objectives import (Objective, reference_infimum, validate_objective,
                         with_majorant)
from .traceio import write_trace_csv

__all__ = ["CriterionResult", "VerifyContext", "criterion_names", "run_all"]


@dataclass
class CriterionResult:
    """A criterion's verdict; ``_criterion`` stamps ``elapsed`` and ``name``."""

    passed: bool
    detail: str
    elapsed: float = 0.0
    name: str = ""


@dataclass
class VerifyContext:
    """Where to put traces and which faults (if any) to inject."""

    out_dir: Path | None = None
    fault_gamma_half: bool = False

    def quadratic(self, builder, *args, **kwargs):
        obj = builder(*args, **kwargs)
        if self.fault_gamma_half:
            mu = obj.majorant
            obj = with_majorant(obj, Majorant.power(mu.gamma / 2.0, mu.q))
        return obj

    def write(self, trace, name):
        if self.out_dir is not None:
            write_trace_csv(trace, Path(self.out_dir) / name)


def _energy_inequality_ok(trace, b):
    """Recheck E(G_m) <= E(G_{m-1}) - t_m (1-b) c_m score(G_{m-1}) from the trace."""
    prev_e, prev_score = trace.E0, trace.ED0
    for i in range(len(trace)):
        t_m = trace.t_used[i]
        required = prev_e - t_m * (1.0 - b) * trace.c[i] * prev_score
        if trace.E[i] > required + ENERGY_SLACK:
            return False, i + 1
        prev_e, prev_score = trace.E[i], trace.ED[i]
    return True, None


def _shipped_objectives(ctx):
    return [
        ("quadratic-2d", ctx.quadratic(quadratic_2d)),
        ("quadratic-64d", ctx.quadratic(quadratic_geometric, 64)),
        ("logistic-20x5", logistic_20x5()),
        ("p-power-1.5", p_power_instance()),
    ]


CRITERIA = []


def _name_of(fn):
    """Criterion name from its function name: c01_foo_bar -> 01-foo-bar."""
    return re.sub(r"^c(?=\d)", "", fn.__name__).replace("_", "-")


def _criterion(fn=None, *, limit_s=None):
    """Register a criterion in CRITERIA (definition order is run order).

    The wrapper times the whole call, turns an exception into a failed result
    naming it, and stamps the name and elapsed time on the result; a result
    that took ``limit_s`` seconds or longer fails.
    """
    if fn is None:
        return functools.partial(_criterion, limit_s=limit_s)

    @functools.wraps(fn)
    def timed(ctx):
        start = time.perf_counter()
        try:
            result = fn(ctx)
        except Exception as exc:  # a crash fails the criterion, not verify
            result = CriterionResult(False, f"{type(exc).__name__}: {exc}")
        result.elapsed = time.perf_counter() - start
        result.name = _name_of(fn)
        if limit_s is not None and result.elapsed >= limit_s:
            result.passed = False
            result.detail += f"; over the {limit_s:g} s time limit"
        return result
    CRITERIA.append(timed)
    return timed


# --- numbered criteria -----------------------------------------------------


@_criterion(limit_s=1.0)
def c01_gradient_method_equivalence(ctx):
    """Adaptive run on the Euclidean sphere must reproduce plain gradient descent."""
    E = ctx.quadratic(quadratic_nd, 10, seed=3)
    gamma = E.majorant.gamma
    b = 0.5
    steps = 100
    trace = run_gga_adaptive(E, SphereDictionary(), 1.0, b,
                             StopRule(max_iter=steps, grad_tol=0.0))
    ctx.write(trace, "c01_gradient_method.csv")

    step = b / (2.0 * gamma)
    x = np.zeros(E.dim)
    iterates = []
    for _ in range(steps):
        x = x - step * E.gradient(x)
        iterates.append(x)

    worst = 0.0
    for state, ref in zip(iter_states(trace, SphereDictionary()), iterates):
        denom = np.maximum(np.abs(ref), 1e-300)
        worst = max(worst, float(np.max(np.abs(state.G - ref) / denom)))
    if len(trace) < steps:
        # run stopped on an exactly zero gradient; descent must have frozen too
        tail = iterates[len(trace):]
        final = trace.final_E
        for ref in tail:
            if abs(E(ref) - final) > 1e-12 * (1.0 + abs(final)):
                return CriterionResult(
                    False, "greedy run stopped but descent kept moving")
    ok = worst <= 1e-12 and len(trace.flags) == trace.flags.count("")
    return CriterionResult(
        ok,
        f"max per-coordinate relative deviation {worst:.3e} over "
        f"{len(trace)} iterations (tol 1e-12)")


@_criterion(limit_s=10.0)
def c02_adaptive_energy_inequality(ctx):
    """Per-step energy decrease on every shipped adaptive instance."""
    checks = []
    for name, E in _shipped_objectives(ctx):
        dim = E.dim
        trace = run_gga_adaptive(E, FiniteDictionary.coordinate(dim), 1.0, 0.5,
                                 StopRule(max_iter=400))
        ctx.write(trace, f"c02_adaptive_{name}.csv")
        ok, where = _energy_inequality_ok(trace, b=0.5)
        checks.append((name, ok, where, len(trace)))
    bad = [c for c in checks if not c[1]]
    detail = "; ".join(f"{n}: {m} iterations" for n, _ok, _w, m in checks)
    if bad:
        detail = "violated at " + ", ".join(f"{n} (iteration {w})"
                                            for n, _ok, w, _m in bad)
    return CriterionResult(not bad, detail + f" (slack {ENERGY_SLACK:g})")


@_criterion
def c03_smoothness_gap_sweep(ctx):
    """Convexity/smoothness sandwich on 10^3 random triples per objective."""
    rng = np.random.default_rng(11)
    failures = []
    for name, E in _shipped_objectives(ctx):
        bad = 0
        for _ in range(1000):
            x = sample_ball(rng, E.dim, radius=E.region_radius)
            y = unit_direction(rng, E.dim)
            u = float(rng.uniform(0.0, 2.0))
            if smoothness_gap_check(E, x, y, u) is False:
                bad += 1
        if bad:
            failures.append((name, bad))
    ok = not failures
    detail = ("zero violations across 4 objectives x 1000 triples (tol 1e-9)"
              if ok else f"violations: {failures}")
    return CriterionResult(ok, detail)


@_criterion
def c04_score_gap_bound_sweep(ctx):
    """Greedy score dominates the scaled gap along a 10^3-iteration run."""
    E = ctx.quadratic(quadratic_geometric, 64)
    dictionary = FiniteDictionary.coordinate(64)
    coeffs = make_power_coefficients(1.0, 2.0, 0.5)
    trace = run_gga_fixed(E, dictionary, 1.0, coeffs, StopRule(max_iter=1000))
    ctx.write(trace, "c04_score_gap_run.csv")
    target = E.minimizer
    hull = float(np.sum(np.abs(target)))
    worst_margin = np.inf
    bad_at = None
    for state in iter_states(trace, dictionary):
        chk = score_gap_bound(E, dictionary, state, target, hull)
        worst_margin = min(worst_margin, chk.lhs - chk.rhs)
        if not chk.holds:
            bad_at = state.m
            break
    ok = bad_at is None and len(trace) == 1000
    return CriterionResult(
        ok,
        f"worst margin {worst_margin:.3e} over {len(trace)} iterations "
        "(slack 1e-10)" if ok else f"bound failed at iteration {bad_at}")


@_criterion(limit_s=5.0)
def c05_fixed_schedule_convergence(ctx):
    """Both fixed-coefficient schemes converge on the unit-l1 2-D quadratic."""
    E = ctx.quadratic(quadratic_2d_unit_l1)
    dictionary = FiniteDictionary.coordinate(2)
    coeffs = make_power_coefficients(1.0, 2.0, E.majorant.gamma)
    stop = StopRule(max_iter=10_000)
    gga = run_gga_fixed(E, dictionary, 1.0, coeffs, stop)
    ega = run_ega(E, dictionary, coeffs, stop)
    ctx.write(gga, "c05_fixed_gga.csv")
    ctx.write(ega, "c05_fixed_ega.csv")
    gga_gap = gga.final_gap
    ega_gap = ega.final_gap
    confined = (not any("left-sublevel-2" in f for f in gga.flags)
                and not any("left-sublevel-2" in f for f in ega.flags))
    verdict = claim_verdict(FIXED_SUMMABLE_CONVERGENCE, gga, tolerance=1e-2)
    ok = (gga_gap <= 1e-2 and ega_gap <= 1e-2 and confined
          and verdict.preconditions_met and verdict.bound_satisfied)
    return CriterionResult(
        ok,
        f"gaps at m=10^4: greedy-selection {gga_gap:.3e}, objective-scan "
        f"{ega_gap:.3e} (target 1e-2); sublevel confinement {confined}")


@_criterion(limit_s=10.0)
def c06_power_schedule_rate(ctx):
    """Calibrated m^-0.3 envelope for the fixed power schedule (t=1, q=2)."""
    E = ctx.quadratic(quadratic_geometric, 64)
    dictionary = FiniteDictionary.coordinate(64)
    coeffs = make_power_coefficients(1.0, 2.0, 0.5)
    trace = run_gga_fixed(E, dictionary, 1.0, coeffs, StopRule(max_iter=5000))
    ctx.write(trace, "c06_power_rate.csv")
    verdict = claim_verdict(POWER_SCHEDULE_RATE, trace, r=0.3, hull_radius=1.0,
                            calibration=10)
    ok = verdict.preconditions_met and bool(verdict.bound_satisfied)
    return CriterionResult(
        ok,
        f"C = {verdict.details.get('constant', float('nan')):.4g}, "
        f"preconditions {verdict.preconditions_met} {verdict.reasons}, "
        f"bound {verdict.bound_satisfied}")


@_criterion
def c07_adaptive_rate(ctx):
    """Calibrated m^-0.2 envelope for the adaptive scheme (t=1, b=1/2, q=2)."""
    E = ctx.quadratic(quadratic_geometric, 64)
    dictionary = FiniteDictionary.coordinate(64)
    trace = run_gga_adaptive(E, dictionary, 1.0, 0.5,
                             StopRule(max_iter=5000, grad_tol=0.0))
    ctx.write(trace, "c07_adaptive_rate.csv")
    gaps = trace.gaps()
    bounds = np.arange(1, len(gaps) + 1, dtype=float) ** (-0.2)
    C = smallest_dominating_constant(gaps, bounds, 10)
    ok = bound_holds(gaps, bounds, C, min(10, len(gaps)))
    verdict = claim_verdict(ADAPTIVE_RATE, trace, hull_radius=1.0)
    ok = ok and verdict.preconditions_met and bool(verdict.bound_satisfied)
    return CriterionResult(
        ok,
        f"C = {C:.4g} calibrated on 10 iterations, tail of {len(gaps)} under "
        f"C m^-0.2: {ok}; general-form verdict {verdict.bound_satisfied}")


@_criterion
def c08_adaptive_sphere_rate(ctx):
    """Sphere-dictionary adaptive run decays at least like 1/m."""
    E = ctx.quadratic(quadratic_nd, 10, seed=3)
    trace = run_gga_adaptive(E, SphereDictionary(), 1.0, 0.5,
                             StopRule(max_iter=1000, grad_tol=0.0))
    ctx.write(trace, "c08_sphere_rate.csv")
    gaps = trace.gaps()
    if len(gaps) == 0 or gaps[0] <= 0:
        return CriterionResult(False, "degenerate first iteration")
    m = np.arange(1, len(gaps) + 1, dtype=float)
    limit = 10.0 * gaps[0]
    worst = float(np.max(gaps * m))
    ok = worst <= limit
    return CriterionResult(
        ok,
        f"max over m of gap*m = {worst:.3e} vs 10*gap_1 = {limit:.3e} "
        f"({len(gaps)} iterations)")


@_criterion
def c09_exact_line_search_two_step(ctx):
    """The separable 2-D quadratic is solved exactly in two line-search steps."""
    E = ctx.quadratic(quadratic_2d)
    trace = run_gega(E, FiniteDictionary.coordinate(2), 1.0,
                     StopRule(max_iter=10))
    ctx.write(trace, "c09_line_search_two_step.csv")
    ok = (len(trace) == 2 and trace.status == "gradient"
          and trace.E[-1] <= 1e-18
          and trace.atoms[0].index == 1 and trace.atoms[1].index == 0)
    detail = (f"{len(trace)} iterations, status {trace.status}, "
              f"E(G_2) = {trace.E[-1] if len(trace) >= 2 else float('nan'):.3e}"
              " (tol 1e-18)")
    return CriterionResult(ok, detail)


@_criterion(limit_s=30.0)
def c10_line_search_logistic_convergence(ctx):
    """Exact-line-search run closes the gap on the logistic instance."""
    E = logistic_20x5()
    reference = reference_infimum(E)
    trace = run_gega(E, FiniteDictionary.coordinate(E.dim), 1.0,
                     StopRule(max_iter=10_000))
    ctx.write(trace, "c10_gega_logistic.csv")
    gap = trace.final_E - reference
    return CriterionResult(
        gap <= 1e-4,
        f"gap to reference infimum {gap:.3e} after {len(trace)} iterations "
        f"(target 1e-4)")


@_criterion
def c11_oracle_equivalences(ctx):
    """Selection scan, objective scan, line-search replay and rate fit against
    independent oracles."""
    problems = []

    # screened scan versus a naive signed double loop, bit-exact, on a general
    # dictionary, on the coordinate one, whose scan skips the dot products,
    # and on duplicated, negated and ulp-nudged columns, which tie or nearly
    # tie, so that several atoms survive the screen
    base = np.random.default_rng(22).standard_normal((16, 8))
    nudged = base.copy()
    nudged[0] = np.nextafter(np.nextafter(nudged[0], np.inf), np.inf)
    rng = np.random.default_rng(21)
    for dictionary in (FiniteDictionary.gaussian(16, 1000, seed=5),
                       FiniteDictionary.coordinate(64),
                       FiniteDictionary(np.hstack([base, -base, base, nudged]))):
        for _ in range(100):
            v = rng.standard_normal(dictionary.dim)
            value, atom = greedy_score(v, dictionary)
            best, best_j, best_sign = -1.0, -1, 1
            for j in range(dictionary.size):
                pair = float(np.dot(dictionary.column(j), v))
                for sign in (1, -1):
                    if sign * pair > best:
                        best, best_j, best_sign = sign * pair, j, sign
            if not (value == best and atom.index == best_j
                    and atom.sign == best_sign):
                problems.append(f"scan mismatch: {value} vs {best}")
                break

    # the screened objective scan versus its naive signed loop, bit-exact, on
    # 6 atoms that tie exactly (repeated, negated) or nearly (nudged), from
    # states at distances 1 to 1e-16 of the target, where rounding decides;
    # unit in l_1.5, so their 2-norms, and the curvature term, differ
    ties = FiniteDictionary(np.hstack([base[:, :2], base[:, :1], -base[:, :1],
                                       nudged[:, :2]]), norm=NormTag(1.5))
    E = quadratic_nd(16, seed=21)
    for _ in range(100):
        G = E.minimizer + rng.standard_normal(16) * 10.0 ** -rng.integers(17)
        atom, value = argmin_atom_by_objective(E, G, 0.5, ties)
        best, best_j, best_sign = np.inf, -1, 1
        for j in range(ties.size):
            for sign in (1, -1):
                val = E(G + (0.5 * sign) * ties.column(j))
                if val < best:
                    best, best_j, best_sign = val, j, sign
        if not (value == best and atom.index == best_j
                and atom.sign == best_sign):
            problems.append(f"lookahead mismatch: {value} vs {best}")
            break

    # the replayed line search versus plain bisection with no section model,
    # bit-exact: quadratic sections whose roots sit at 0, on the doubling
    # and bisection points (exact zeros), beyond the bound or a rounding
    # away, and logistic ones, along coordinate and dense directions, down
    # to a bracket of adjacent floats (tol 0), where rounding decides signs
    for objective in (E, logistic_20x5()):
        bare = Objective(objective.dim, objective._value, objective._gradient,
                         objective.majorant, objective.region_radius)
        n = objective.dim
        for k in range(40):
            d = np.zeros(n)
            d[k % n] = 1.0 - 2.0 * (k % 3 == 0)
            if k % 2:
                d = rng.standard_normal(n)
                d /= np.linalg.norm(d)
            if objective is E:
                root = (0.0, 1.0, 2.0, 0.5, 0.75, -3.0, 1e6, 0.1)[k % 8]
                x = E.minimizer - root * d
                if k % 5 == 4:
                    x = x + rng.standard_normal(n) * 10.0 ** -rng.integers(17)
            else:
                x = rng.standard_normal(n) * (0.0, 0.1, 1.0, 3.0)[k % 4]
            tol = 0.0 if k % 4 == 3 else 1e-12
            c, clamped = line_search_exact(objective, x, d, tol=tol)
            ref, ref_clamped = line_search_exact(bare, x, d, tol=tol)
            if (c.hex(), clamped) != (ref.hex(), ref_clamped):
                problems.append(f"line search mismatch: {c} vs {ref}")
                break

    # rate fit on exact power laws
    from .greedy import RunTrace
    for expo, scale in ((-1.0, 1.0), (-0.2, 5.0)):
        m = np.arange(1, 201, dtype=float)
        gaps = scale * m**expo
        trace = RunTrace(algorithm="synthetic", status="max-iter",
                         E0=scale + 1.0, ED0=1.0, E=list(gaps), infimum=0.0)
        fit = fit_rate(trace, window=(1, 200))
        if abs(fit.exponent - expo) > 1e-10:
            problems.append(f"fit exponent {fit.exponent} vs {expo}")

    ok = not problems
    return CriterionResult(
        ok,
        "scan/fit all match their oracles" if ok
        else "; ".join(problems[:3]))


@_criterion
def c12_trace_determinism(ctx):
    """Repeating representative runs reproduces their serialized traces byte-for-byte."""
    from .traceio import trace_csv_text

    def both(make):
        return trace_csv_text(make()), trace_csv_text(make())

    E64 = ctx.quadratic(quadratic_geometric, 64)
    d64 = FiniteDictionary.coordinate(64)
    coeffs = make_power_coefficients(1.0, 2.0, 0.5)
    a, b = both(lambda: run_gga_fixed(E64, d64, 1.0, coeffs,
                                      StopRule(max_iter=500)))
    c, d = both(lambda: run_gga_adaptive(logistic_20x5(),
                                         FiniteDictionary.coordinate(5), 1.0,
                                         0.5, StopRule(max_iter=200)))
    ok = a == b and c == d
    return CriterionResult(ok, "repeat runs serialize identically" if ok
                           else "serialized traces differ between repeats")


# --- invariant sweeps ------------------------------------------------------


@_criterion
def inv_objective_contracts(ctx):
    """Convexity, gradients, and supporting hyperplanes on every shipped objective."""
    bad = []
    for name, E in _shipped_objectives(ctx):
        report = validate_objective(E, samples=200, seed=13)
        for key in ("convexity", "supporting_hyperplane", "gradient"):
            if not report[key]:
                bad.append(f"{name}:{key}")
    return CriterionResult(not bad, "all objectives pass sampling audits"
                           if not bad else "failed: " + ", ".join(bad))


@_criterion
def inv_majorant_domination(ctx):
    """Declared majorants dominate the sampled modulus (the fault injection target)."""
    bad = []
    for name, E in _shipped_objectives(ctx):
        violations = majorant_domination_witness(E, samples=125, seed=17)
        if violations:
            bad.append(f"{name} ({len(violations)} sampled violations)")
    ok = not bad
    detail = ("declared majorants dominate 10^3 sampled second differences "
              "per objective" if ok
              else "MAJORANT_VIOLATION: majorant fails to dominate the "
                   "sampled modulus for " + ", ".join(bad))
    return CriterionResult(ok, detail)


@_criterion
def inv_hoelder_duality(ctx):
    """Pairings never exceed dual norm times primal norm (Hoelder), at five p."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for p in (1.2, 1.5, 2.0, 3.0, 6.0):
        norm = NormTag(p)
        for _ in range(200):
            v = rng.standard_normal(8)
            w = rng.standard_normal(8)
            bound = dual_norm(v, norm) * lp_norm(w, norm)
            if bound > 0:
                worst = max(worst, float(np.dot(v, w)) / bound)
    ok = worst <= 1.0 + 1e-12
    return CriterionResult(ok, f"max pairing/bound ratio {worst:.15f}")


def criterion_names():
    return [_name_of(fn) for fn in CRITERIA]


def run_all(ctx=None):
    """Execute every criterion in order; a crash is reported as a FAIL."""
    ctx = ctx or VerifyContext()
    return [fn(ctx) for fn in CRITERIA]
