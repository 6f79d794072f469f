"""The acceptance suite: each verification criterion as a callable pass/fail check.

The CLI ``verify`` subcommand and the acceptance tests both run these.  Every
criterion is deterministic.  The ones that execute runs assemble them from a
config through ``cli.execute_run``, the path ``greedy-opt run`` takes, and
write each run's trace and manifest to the output directory, so two
invocations can be compared file by file and each manifest reruns to its
trace.  No criterion reads another's state, so ``run_all`` runs them side by
side in forked worker processes.
"""

from __future__ import annotations

import functools
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cli
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
from .dictionaries import (FiniteDictionary, argmin_atom_by_objective,
                           greedy_score)
from .diagnostics import (
    ADAPTIVE_RATE,
    FIXED_SUMMABLE_CONVERGENCE,
    POWER_SCHEDULE_RATE,
    bound_holds,
    fit_rate,
    smallest_dominating_constant,
)
from .greedy import (
    ENERGY_SLACK,
    RunTrace,
    StopRule,
    iter_states,
    line_search_exact,
    make_power_coefficients,
    run_gga_adaptive,
    run_gga_fixed,
    score_gap_bound,
)
from .instances import (
    logistic_20x5,
    logistic_20x5_spec,
    p_power_spec,
    quadratic_2d,
    quadratic_2d_unit_l1,
    quadratic_geometric,
    quadratic_nd,
)
from .objectives import (Objective, reference_infimum, validate_objective,
                         with_majorant)
from .traceio import trace_csv_text

__all__ = ["CriterionResult", "VerifyContext", "criterion_names", "run_all"]


@dataclass
class CriterionResult:
    """A criterion's verdict: what a criterion returns, and ``run_all``
    returns one per criterion; ``_criterion`` stamps ``elapsed`` and
    ``name``."""

    passed: bool
    detail: str
    elapsed: float = 0.0
    name: str = ""


@dataclass
class VerifyContext:
    """Where the runs write their traces and manifests, and whether to
    inject the ``gamma-half`` fault: each quadratic's declared majorant with
    its gamma halved."""

    out_dir: Path
    fault_gamma_half: bool = False

    def objective(self, spec):
        """The objective the config spec ``spec`` builds, with the fault."""
        E = cli.build_objective(spec)
        if self.fault_gamma_half and spec["kind"] == "quadratic":
            mu = E.majorant
            E = with_majorant(E, Majorant.power(mu.gamma / 2.0, mu.q))
        return E

    def run(self, name, objective, algorithm, max_iter, dictionary=None,
            claims=(), **stop):
        """Run a config through ``cli.execute_run``, as ``greedy-opt run``
        does, writing the trace ``name``.csv and the manifest ``name``.json
        to ``out_dir``; return the trace, the manifest's results, and the
        objective and dictionary that the run built.

        The objective is built here, with the fault, and handed to the run
        in its ``builds`` under the key the run looks up, so the fault
        reaches the run while the config, and so the manifest, carries none:
        only its ``run_config`` shows the halved gamma, and the manifest
        reruns to the trace without the fault.
        The dictionary defaults to the coordinate one of the objective's
        dimension."""
        E = self.objective(objective)
        builds = {"objective": (cli._build_key(objective, "."), E)}
        config = {
            "schema": cli.SCHEMA_VERSION, "objective": objective,
            "dictionary": dictionary or {"kind": "coordinate", "dim": E.dim},
            "algorithm": algorithm, "stop": {"max_iter": max_iter, **stop},
            "diagnostics": {"claims": list(claims)},
            "output": {"trace": name + ".csv", "manifest": name + ".json"}}
        trace, manifest, _ = cli.execute_run(config, out_dir=self.out_dir,
                                             builds=builds)
        return trace, manifest["results"], E, builds["dictionary"][1]


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


def _shipped_specs():
    """The shipped objectives by name, as config specs; a quadratic's
    description is its spec."""
    return [("quadratic-2d", quadratic_2d().description),
            ("quadratic-64d", quadratic_geometric(64).description),
            ("logistic-20x5", logistic_20x5_spec()),
            ("p-power-1.5", p_power_spec())]


def _shipped_objectives(ctx):
    return [(name, ctx.objective(spec)) for name, spec in _shipped_specs()]


# Two of the run criteria's schemes, both at t = 1: the adaptive one at
# b = 1/2 and the fixed one on the schedule make_power_coefficients(1, 2, 1/2)
ADAPTIVE = {"kind": "GGA_ADAPTIVE", "b": 0.5}
FIXED = {"kind": "GGA_FIXED", "coefficients": {
    "kind": "power-rule", "t": 1.0, "q": 2.0, "gamma": 0.5}}


CRITERIA = []


def _name_of(fn):
    """Criterion name from its function name: c01_foo_bar -> 01-foo-bar."""
    return re.sub(r"^c(?=\d)", "", fn.__name__).replace("_", "-")


def _criterion(fn=None, *, limit_s=None):
    """Register a criterion in CRITERIA (definition order is result order).

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
    steps = 100
    trace, _, E, sphere = ctx.run(
        "c01_gradient_method", quadratic_nd(10, 3).description, ADAPTIVE,
        steps, {"kind": "sphere"}, grad_tol=0.0)

    step = ADAPTIVE["b"] / (2.0 * E.majorant.gamma)
    x = np.zeros(E.dim)
    iterates = []
    for _ in range(steps):
        x = x - step * E.gradient(x)
        iterates.append(x)

    worst = 0.0
    for state, ref in zip(iter_states(trace, sphere), iterates):
        denom = np.maximum(np.abs(ref), 1e-300)
        worst = max(worst, float(np.max(np.abs(state.G - ref) / denom)))
    if len(trace) < steps:
        # run stopped on an exactly zero gradient; descent must have frozen too
        final = trace.final_E
        for ref in iterates[len(trace):]:
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
    for name, spec in _shipped_specs():
        trace, *_ = ctx.run(f"c02_adaptive_{name}", spec, ADAPTIVE, 400)
        ok, where = _energy_inequality_ok(trace, b=ADAPTIVE["b"])
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
    trace, _, E, dictionary = ctx.run(
        "c04_score_gap_run", quadratic_geometric(64).description, FIXED, 1000)
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
    spec = quadratic_2d_unit_l1().description
    # the power rule at t = 1, q = 2 and the gamma of the objective's majorant
    coeffs = {"kind": "power-rule", "t": 1.0, "q": 2.0}
    gga, results, *_ = ctx.run(
        "c05_fixed_gga", spec, {"kind": "GGA_FIXED", "coefficients": coeffs},
        10_000, claims=[{"claim": FIXED_SUMMABLE_CONVERGENCE,
                         "tolerance": 1e-2}])
    ega, *_ = ctx.run("c05_fixed_ega", spec,
                      {"kind": "EGA", "coefficients": coeffs}, 10_000)
    confined = (not any("left-sublevel-2" in f for f in gga.flags)
                and not any("left-sublevel-2" in f for f in ega.flags))
    verdict = results["verdicts"][0]
    ok = (gga.final_gap <= 1e-2 and ega.final_gap <= 1e-2 and confined
          and verdict["preconditions_met"] and verdict["bound_satisfied"])
    return CriterionResult(
        ok,
        f"gaps at m=10^4: greedy-selection {gga.final_gap:.3e}, "
        f"objective-scan {ega.final_gap:.3e} (target 1e-2); sublevel "
        f"confinement {confined}")


@_criterion(limit_s=10.0)
def c06_power_schedule_rate(ctx):
    """Calibrated m^-0.3 envelope for the fixed power schedule (t=1, q=2)."""
    _, results, *_ = ctx.run(
        "c06_power_rate", quadratic_geometric(64).description, FIXED, 5000,
        claims=[{"claim": POWER_SCHEDULE_RATE, "r": 0.3, "hull_radius": 1.0,
                 "calibration": 10}])
    verdict = results["verdicts"][0]
    ok = verdict["preconditions_met"] and bool(verdict["bound_satisfied"])
    return CriterionResult(
        ok,
        f"C = {verdict['details'].get('constant', float('nan')):.4g}, "
        f"preconditions {verdict['preconditions_met']} {verdict['reasons']}, "
        f"bound {verdict['bound_satisfied']}")


@_criterion
def c07_adaptive_rate(ctx):
    """Calibrated m^-0.2 envelope for the adaptive scheme (t=1, b=1/2, q=2)."""
    trace, results, *_ = ctx.run(
        "c07_adaptive_rate", quadratic_geometric(64).description, ADAPTIVE,
        5000, claims=[{"claim": ADAPTIVE_RATE, "hull_radius": 1.0}],
        grad_tol=0.0)
    gaps = trace.gaps()
    bounds = np.arange(1, len(gaps) + 1, dtype=float) ** (-0.2)
    C = smallest_dominating_constant(gaps, bounds, 10)
    verdict = results["verdicts"][0]
    ok = (bound_holds(gaps, bounds, C, min(10, len(gaps)))
          and verdict["preconditions_met"] and bool(verdict["bound_satisfied"]))
    return CriterionResult(
        ok,
        f"C = {C:.4g} calibrated on 10 iterations, tail of {len(gaps)} under "
        f"C m^-0.2: {ok}; general-form verdict {verdict['bound_satisfied']}")


@_criterion
def c08_adaptive_sphere_rate(ctx):
    """Sphere-dictionary adaptive run decays at least like 1/m."""
    trace, *_ = ctx.run("c08_sphere_rate", quadratic_nd(10, 3).description,
                        ADAPTIVE, 1000, {"kind": "sphere"}, grad_tol=0.0)
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
    trace, *_ = ctx.run("c09_line_search_two_step",
                        quadratic_2d().description, {"kind": "GEGA"}, 10)
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
    trace, _, E, _ = ctx.run("c10_gega_logistic", logistic_20x5_spec(),
                             {"kind": "GEGA"}, 10_000)
    gap = trace.final_E - reference_infimum(E)
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
    def both(make):
        return trace_csv_text(make()), trace_csv_text(make())

    E64 = quadratic_geometric(64)
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


def _run_criterion(index, ctx):
    """One pool task: the criterion at ``index`` in the CRITERIA list that the
    forked worker inherited, wrappers and all, so no function is pickled."""
    return CRITERIA[index](ctx)


def run_all(ctx=None):
    """Execute every criterion on a pool of forked workers (Linux, macOS),
    one per CPU this process may use up to one per criterion, and return the
    results in registration order, with the files a one-by-one run writes.
    Each criterion gets ``ctx`` as it is; the shipped ones need a
    VerifyContext.

    A crash is reported as a FAIL by the registering wrapper; a criterion
    whose worker process ended before it returned a result is a FAIL too.
    The pool machinery is imported here, so importing the package stays cheap.
    """
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    pool = ProcessPoolExecutor(min(cpus, len(CRITERIA)),
                               mp_context=multiprocessing.get_context("fork"))

    def submit(index):
        try:
            return pool.submit(_run_criterion, index, ctx)
        except BrokenProcessPool as exc:  # a worker died while tasks were sent
            future = Future()
            future.set_exception(exc)
            return future

    def outcome(fn, future):
        try:
            return future.result()
        except BrokenProcessPool:
            return CriterionResult(False, "its worker process ended before "
                                   "it returned a result", name=_name_of(fn))

    try:
        futures = [submit(index) for index in range(len(CRITERIA))]
        return [outcome(fn, future) for fn, future in zip(CRITERIA, futures)]
    finally:
        pool.shutdown(cancel_futures=True)
