"""Rate fitting and machine-checkable verdicts over run traces.

The convergence and rate guarantees assert existence of a constant; verdicts
therefore calibrate the constant on the first few iterations and test whether
the remaining gaps stay under constant * bound_shape.  The decay shape is the
falsifiable part.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import NormTag, lp_norm

__all__ = [
    "RateFit",
    "fit_rate",
    "FIXED_SUMMABLE_CONVERGENCE",
    "POWER_SCHEDULE_RATE",
    "SPHERE_POWER_SCHEDULE_RATE",
    "ADAPTIVE_CONVERGENCE",
    "ADAPTIVE_RATE",
    "ADAPTIVE_SPHERE_RATE",
    "LINE_SEARCH_CONVERGENCE",
    "ALL_CLAIMS",
    "ClaimVerdict",
    "claim_verdict",
    "smallest_dominating_constant",
    "bound_holds",
]


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log gap versus log m."""

    status: str  # "ok" or "degenerate"
    window: tuple
    n_points: int
    exponent: float | None = None
    intercept: float | None = None
    r_squared: float | None = None

    def describe(self):
        return asdict(self)


def fit_rate(trace, window=None):
    """Fit gap_m ~ exp(intercept) * m^exponent over a window of iterations.

    Only iterations with positive gaps enter the fit.  Fewer than 10 usable
    points (e.g. after exact convergence), or a flat window where every usable
    gap is equal (e.g. a plateau at the floating-point floor), yields a
    DEGENERATE fit instead of a slope.
    """
    gaps = trace.gaps()
    if gaps is None:
        raise ValueError("rate fit needs a trace with a known or reference infimum")
    total = len(gaps)
    if window is None:
        window = (max(1, total // 10), total)
    lo, hi = int(window[0]), int(window[1])
    if lo < 1 or hi > total or hi <= lo:
        raise ValueError(f"window {window} outside trace of length {total}")
    m = np.arange(lo, hi + 1, dtype=float)
    a = gaps[lo - 1:hi]
    usable = a > 0.0
    n = int(np.sum(usable))
    y = np.log(a[usable])
    if n < 10 or np.all(y == y[0]):
        return RateFit(status="degenerate", window=(lo, hi), n_points=n)
    x = np.log(m[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ybar = y - np.mean(y)
    ss_tot = float(np.dot(ybar, ybar))
    return RateFit(status="ok", window=(lo, hi), n_points=n,
                   exponent=float(slope), intercept=float(intercept),
                   r_squared=1.0 - ss_res / ss_tot)


FIXED_SUMMABLE_CONVERGENCE = "fixed-summable-convergence"
POWER_SCHEDULE_RATE = "power-schedule-rate"
SPHERE_POWER_SCHEDULE_RATE = "sphere-power-schedule-rate"
ADAPTIVE_CONVERGENCE = "adaptive-convergence"
ADAPTIVE_RATE = "adaptive-rate"
ADAPTIVE_SPHERE_RATE = "adaptive-sphere-rate"
LINE_SEARCH_CONVERGENCE = "line-search-convergence"

ALL_CLAIMS = (
    FIXED_SUMMABLE_CONVERGENCE,
    POWER_SCHEDULE_RATE,
    SPHERE_POWER_SCHEDULE_RATE,
    ADAPTIVE_CONVERGENCE,
    ADAPTIVE_RATE,
    ADAPTIVE_SPHERE_RATE,
    LINE_SEARCH_CONVERGENCE,
)


@dataclass
class ClaimVerdict:
    """Outcome of checking one convergence/rate claim against a run.

    ``bound_satisfied`` is meaningful only when ``preconditions_met``; the
    reasons list explains any unmet hypothesis.
    """

    claim: str
    preconditions_met: bool
    reasons: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    bound_satisfied: bool | None = None
    details: dict = field(default_factory=dict)

    def describe(self):
        return asdict(self)


def smallest_dominating_constant(gaps, bounds, upto):
    """Smallest C with gap_m <= C * bound_m for the first ``upto`` iterations."""
    upto = min(int(upto), len(gaps))
    ratios = [gaps[i] / bounds[i] for i in range(upto) if gaps[i] > 0.0]
    return max(ratios) if ratios else 0.0


def _first_violation(gaps, bounds, C, start):
    """First m > start with gap_m > C * bound_m, or None when the envelope holds."""
    start = max(0, int(start))
    over = np.flatnonzero(np.asarray(gaps[start:], dtype=float)
                          > C * np.asarray(bounds[start:], dtype=float))
    return int(over[0]) + start + 1 if over.size else None


def bound_holds(gaps, bounds, C, start):
    """gap_m <= C * bound_m for every m > start (monotone in C by construction)."""
    return _first_violation(gaps, bounds, C, start) is None


# Exact terms of the power-series bound; the schedule's calibration and the
# claims' budget check must both use this one value.
_SERIES_TERMS = 1_000_000
# Terms summed per leaf: one 256 KB float64 array at a time.
_LEAF_TERMS = 1 << 15


def _pairwise_power_sum(a, lo, n):
    """sum of k^-a for k = lo+1 .. lo+n, added in ``np.sum``'s pairwise order.

    For a contiguous float64 vector ``np.sum`` splits a block of more than
    128 terms at n2 = n // 2 rounded down to a multiple of 8, sums the halves
    the same way and adds them; a block of at most 128 terms has its own
    8-accumulator loop.  This recursion copies that split rule down to
    leaves of at most ``_LEAF_TERMS`` terms.  A leaf is one block of the
    whole array's tree, and ``np.sum`` of it, alone, walks the same subtree,
    so each leaf gives the float the whole sum forms there, and the additions
    up this tree are the ones ``np.sum`` makes above it.  That order is
    numpy's, not documented API: an identity test against the one-array sum
    pins it, not a proof.
    """
    if n <= _LEAF_TERMS:
        k = np.arange(lo + 1, lo + n + 1, dtype=float)
        return float(np.sum(np.power(k, -a, out=k)))
    half = n // 2 - n // 2 % 8
    return (_pairwise_power_sum(a, lo, half)
            + _pairwise_power_sum(a, lo + half, n - half))


@functools.lru_cache(maxsize=64)
def _power_series_sum(a):
    """Upper bound on sum_k k^-a: ``_SERIES_TERMS`` exact terms plus the
    integral tail.

    Infinite for a <= 1, where the series diverges.  Kept per exponent, so a
    process sums the 10^6 terms once for each a it asks for.  The terms are
    summed one 2^15-term leaf at a time in ``np.sum``'s own pairwise order
    (see ``_pairwise_power_sum``), so the sum is the float
    ``np.sum(k ** -a)`` gives over all 10^6 terms, without their 8 MB array.
    """
    if a <= 1.0:
        return math.inf
    return (_pairwise_power_sum(a, 0, _SERIES_TERMS)
            + _SERIES_TERMS ** (1.0 - a) / (a - 1.0))


def _tau_array(trace):
    if trace.t_used is None:
        return None
    return np.asarray(trace.t_used, dtype=float)


def _fail(v, reason):
    v.preconditions_met = False
    v.reasons.append(reason)


def _power_majorant(v, trace):
    """(gamma, q) of the power majorant governing the run, from its config."""
    mu = trace.config.get("mu")
    if mu is None:
        mu = trace.config.get("objective", {}).get("majorant")
    if mu and mu.get("kind") == "power":
        return float(mu["gamma"]), float(mu["q"])
    _fail(v, "claim needs a power majorant")
    return None


def claim_verdict(claim, trace, r=None, hull_radius=None, tolerance=1e-2,
                  calibration=10):
    """Check one convergence/rate claim against a finished run.

    Hypotheses are verified mechanically where possible (coefficient series via
    partial sums plus tail bounds, monotone weakness sequences, dictionary
    type); anything unverifiable lands in the reasons (blocking) or notes
    (informational).  For rate claims the constant is calibrated on the first
    ``calibration`` iterations and the remaining gaps are tested against
    C * bound_m.  Convergence claims instead require the final gap to fall
    below ``tolerance``.
    """
    if claim not in ALL_CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    v = ClaimVerdict(claim=claim, preconditions_met=True)
    cfg = trace.config
    algorithm = cfg.get("algorithm")
    gaps = trace.gaps()
    if gaps is None:
        _fail(v, "no known or reference infimum on the trace")
        return v
    if len(gaps) == 0:
        v.bound_satisfied = True
        v.notes.append("empty trace: stopped before the first iteration")
        return v

    if claim == FIXED_SUMMABLE_CONVERGENCE:
        fixed = _check_fixed_schedule(v, trace, algorithm)
        if fixed is not None and fixed[1] > 1.0 + 1e-12:  # (q, c, s, t)
            _fail(v, f"c = {fixed[1]} exceeds 1, coefficients leave [0, 1]")
    elif claim in (ADAPTIVE_CONVERGENCE, LINE_SEARCH_CONVERGENCE):
        wanted = "GGA_ADAPTIVE" if claim == ADAPTIVE_CONVERGENCE else "GEGA"
        if algorithm != wanted:
            _fail(v, f"algorithm {algorithm} is not {wanted}")
    if claim in (FIXED_SUMMABLE_CONVERGENCE, ADAPTIVE_CONVERGENCE,
                 LINE_SEARCH_CONVERGENCE):
        if v.preconditions_met:
            final = float(gaps[-1])
            v.bound_satisfied = final <= tolerance
            v.details.update({"final_gap": final, "tolerance": tolerance})
        return v

    bounds = _rate_bounds(v, trace, claim, algorithm, r=r,
                          hull_radius=hull_radius)
    if not v.preconditions_met:
        return v
    C = smallest_dominating_constant(gaps, bounds, calibration)
    first_violation = _first_violation(gaps, bounds, C,
                                       min(calibration, len(gaps)))
    v.bound_satisfied = first_violation is None
    v.details.update({
        "constant": C,
        "calibration": calibration,
        "first_violation": first_violation,
        "final_gap": float(gaps[-1]),
    })
    return v


def _check_fixed_schedule(v, trace, algorithm):
    """Hypotheses shared by the fixed-coefficient claims.

    A fixed-coefficient scheme at constant t, a power majorant, a power
    schedule c_k = c k^-s, and the series budget gamma * sum_k mu(c_k) <= 1
    (s lies in (0, 1] by CoefficientSequence.power, so sum_k c_k diverges, the
    required mass condition).  The budget lands in the verdict's details as
    ``mu_series_budget``, None when it is not finite (the series diverges for
    s q <= 1).  Returns (q, c, s, t), or None when a missing piece leaves
    nothing further to check.
    """
    if algorithm not in ("GGA_FIXED", "EGA", "GBE"):
        _fail(v, f"algorithm {algorithm} is not a fixed-coefficient scheme")
        return None
    ts = _tau_array(trace)
    if ts is not None and len(ts) and not np.all(ts == ts[0]):
        _fail(v, "weakness sequence is not constant")
    mu = _power_majorant(v, trace)
    if mu is None:
        return None
    coeffs = trace.config.get("coefficients") or {}
    if coeffs.get("kind") != "power":
        _fail(v, "claim needs a power coefficient schedule (run's "
                 f"schedule: {coeffs.get('kind', 'none')})")
        return None
    gamma, q = mu
    c, s = float(coeffs["c"]), float(coeffs["s"])
    budget = gamma * c**q * _power_series_sum(s * q)
    v.details["mu_series_budget"] = budget if math.isfinite(budget) else None
    if not budget <= 1.0 + 1e-12:
        _fail(v, f"sum of mu(c_k) bounded by {budget:.6g} > 1")
    t = float(ts[0]) if ts is not None and len(ts) else 1.0
    return q, c, s, t


def _rate_bounds(v, trace, claim, algorithm, r=None, hull_radius=None):
    """Bound shape per claim, with hypothesis checks recorded on the verdict."""
    cfg = trace.config
    M = len(trace)

    if claim in (POWER_SCHEDULE_RATE, SPHERE_POWER_SCHEDULE_RATE):
        fixed = _check_fixed_schedule(v, trace, algorithm)
        if fixed is None:
            return None
        q, c, s, t = fixed
        m = np.arange(1, M + 1, dtype=float)
        if claim == POWER_SCHEDULE_RATE:
            s_wanted = (t + 1.0) / (t + q)
            if abs(s - s_wanted) > 1e-12:
                _fail(v, f"s mismatch: schedule has s = {s}, "
                         f"(t+1)/(t+q) = {s_wanted}")
            r_max = t * (1.0 - s)
            if r is None:
                r = 0.9 * r_max  # harness convention, not part of the claim
            if not (0.0 < r < r_max):
                _fail(v, f"exponent r = {r} outside (0, {r_max})")
            _check_hull(v, trace, hull_radius)
            v.details.update({"r": r, "t": t, "s": s})
            return m ** (-float(r))

        _check_sphere(v, cfg, s)
        expo = s * (q - 1.0)
        v.details.update({"exponent": expo, "s": s})
        return m ** (-expo)

    # adaptive rate claims
    mu = _power_majorant(v, trace)
    if mu is None:
        return None
    q = mu[1]
    if algorithm != "GGA_ADAPTIVE":
        _fail(v, f"algorithm {algorithm} is not the adaptive scheme")
        return None
    b = cfg.get("b")
    if b is None or not (0.0 < b < 1.0):
        _fail(v, "tuning parameter b outside (0, 1)")
        return None
    ts = _tau_array(trace)
    if ts is None or len(ts) != M:
        _fail(v, "trace carries no realized weakness values")
        return None
    p = q / (q - 1.0)
    mass = 1.0 + np.cumsum(ts ** p)

    if claim == ADAPTIVE_RATE:
        if np.any(np.diff(ts) > 0):
            _fail(v, "weakness sequence is not nonincreasing")
        _check_hull(v, trace, hull_radius)
        expo = ts * (1.0 - b) * (q - 1.0) / (q + ts * (1.0 - b))
        v.details["exponent_final"] = float(expo[-1])
        return mass ** (-expo)

    _check_sphere(v, cfg)  # ADAPTIVE_SPHERE_RATE
    v.details["exponent"] = 1.0 - q
    return mass ** (1.0 - q)


def _check_sphere(v, cfg, s=None):
    """The sphere claims' hypotheses: the sphere dictionary, then s in (0, 1)
    when the claim has one, then a bounded region."""
    if cfg.get("dictionary", {}).get("kind") != "sphere":
        _fail(v, "sphere rate claim needs the sphere dictionary")
    if s is not None and not (0.0 < s < 1.0):
        _fail(v, f"s = {s} outside (0, 1)")
    if not math.isfinite(cfg.get("objective", {}).get("region_radius",
                                                      math.inf)):
        _fail(v, "objective region is unbounded")


INSIDE, OUTSIDE, UNVERIFIABLE = "inside", "outside", "unverifiable"


def _hull_membership(point, dictionary, radius):
    """(verdict, norm name, norm) of ``point`` against ``radius`` times the
    convex hull of a dictionary given by its ``describe()``: exact for the lp
    sphere (the lp ball) and for atoms exactly the coordinate basis (the l1
    ball); otherwise a linear program, so (UNVERIFIABLE, None, None)."""
    point = np.asarray(point, dtype=float)
    if dictionary.get("kind") == "sphere":
        p = dictionary["p"]
        name, norm = f"l{p:g}", lp_norm(point, NormTag(p))
    elif dictionary.get("identity"):
        name, norm = "l1", float(np.sum(np.abs(point)))
    else:
        return UNVERIFIABLE, None, None
    return (OUTSIDE if norm > radius * (1.0 + 1e-12) else INSIDE), name, norm


def _check_hull(v, trace, hull_radius):
    """Gap is measured against the infimum over the scaled dictionary hull; when
    the known minimizer provably lies inside that hull the two coincide."""
    if hull_radius is None:
        v.notes.append("hull radius not supplied; gap assumed to match the "
                       "hull-constrained infimum")
        return
    v.details["hull_radius"] = hull_radius
    cfg = trace.config
    target = cfg.get("objective", {}).get("target")
    where = UNVERIFIABLE
    if target is not None:
        where, name, norm = _hull_membership(
            target, cfg.get("dictionary", {}), hull_radius)
    if where == OUTSIDE:
        _fail(v, f"minimizer {name} norm {norm:.6g} exceeds hull radius "
                 f"{hull_radius:.6g}")
    elif where == UNVERIFIABLE:
        v.notes.append("hull membership of the minimizer not verified")
