"""Greedy expansion runs: atom selection plus per-step coefficient rules.

All five schemes run one expansion loop, ``_run``.  Each iteration picks an
atom (weak-greedy against the negative gradient, or by scanning the objective)
and a step coefficient (prescribed, solved from the majorant, or by exact line
search), and adds the scaled atom to the approximant; coefficients, once
chosen, are never revised.  A public driver only supplies its step rule.
Traces capture everything the rate diagnostics need downstream.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np

from .core import Majorant, NumericFailure, dual_norm, pairing
from .diagnostics import (OUTSIDE, UNVERIFIABLE, _first_violation,
                          _hull_membership, _power_series_sum)
from .dictionaries import (
    ARGMAX,
    SphereDictionary,
    argmin_atom_by_objective,
    check_mode,
    gradient_stop_threshold,
    greedy_score,
    select_atom,
)

__all__ = [
    "StopRule",
    "WeaknessSequence",
    "CoefficientSequence",
    "make_power_coefficients",
    "solve_stepsize",
    "line_search_exact",
    "MajorantViolationError",
    "ExpansionState",
    "RunTrace",
    "run_gbe",
    "run_ega",
    "run_gga_fixed",
    "run_gga_adaptive",
    "run_gega",
    "iter_states",
    "BoundCheck",
    "score_gap_bound",
    "check_rate_bound",
]

# Tolerance of the adaptive scheme's per-step energy-decrease check, recorded
# in its run config; the verification suite rechecks traces against the same.
ENERGY_SLACK = 1e-10


@dataclass(frozen=True)
class StopRule:
    """When to end a run.

    ``grad_tol`` is the dual-norm threshold standing in for an exactly zero
    gradient; None defaults to 1e-12 * (1 + |E(0)|) at run start.  ``target_gap``
    stops once E(G_m) - known_inf falls below it (ignored when the objective
    has no known infimum).  Both must be nonnegative, and not NaN.
    """

    max_iter: int
    grad_tol: float | None = None
    target_gap: float | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.grad_tol is not None and not self.grad_tol >= 0:
            raise ValueError("grad_tol must be nonnegative")
        if self.target_gap is not None and not self.target_gap >= 0:
            raise ValueError("target_gap must be nonnegative")


class _Schedule:
    """A schedule of ``kind``; an explicit one is a list of floats, read
    1-based by ``_entry``; a subclass names it in ``_exhausted``."""

    def __init__(self, kind, values=None):
        self.kind = kind
        self._values = None if values is None else [float(v) for v in values]

    def _entry(self, k):
        if k > len(self._values):
            raise IndexError(f"{self._exhausted}={k}")
        return self._values[k - 1]

    def describe(self):
        return {"kind": "explicit", "values": self._values}


class WeaknessSequence(_Schedule):
    """Per-iteration weakness parameters t_m in (0, 1]."""

    _exhausted = "weakness sequence exhausted at m"

    def __init__(self, kind, t=None, values=None):
        super().__init__(kind, values)
        self._t = t

    @classmethod
    def constant(cls, t):
        t = float(t)
        if not (0.0 < t <= 1.0):
            raise ValueError("t must lie in (0, 1]")
        return cls("constant", t=t)

    @classmethod
    def explicit(cls, values):
        seq = cls("explicit", values=values)
        if not seq._values:
            raise ValueError("empty weakness sequence")
        for m, t in enumerate(seq._values, start=1):
            if not (0.0 < t <= 1.0):
                raise ValueError(f"t_{m} = {t} outside (0, 1]")
        return seq

    def __call__(self, m):
        return self._t if self.kind == "constant" else self._entry(m)

    def describe(self):
        if self.kind == "constant":
            return {"kind": "constant", "t": self._t}
        return super().describe()


class CoefficientSequence(_Schedule):
    """Prescribed step coefficients c_k.

    POWER holds c_k = c * k^(-s); EXPLICIT holds a finite list (zeros are
    tolerated and show up as no-progress flags in traces).
    """

    _exhausted = "coefficient sequence exhausted at k"

    def __init__(self, kind, c=None, s=None, values=None, meta=None):
        super().__init__(kind, values)
        self.c = c
        self.s = s
        self.meta = dict(meta or {})

    @classmethod
    def power(cls, c, s, meta=None):
        c, s = float(c), float(s)
        if c <= 0:
            raise ValueError("c must be positive")
        if not (0.0 < s <= 1.0):
            raise ValueError("s must lie in (0, 1]")
        return cls("power", c=c, s=s, meta=meta)

    @classmethod
    def explicit(cls, values):
        seq = cls("explicit", values=values)
        if any(v < 0 for v in seq._values):
            raise ValueError("coefficients must be nonnegative")
        return seq

    def value(self, k):
        if self.kind == "power":
            return self.c * float(k) ** (-self.s)
        return self._entry(k)

    def describe(self):
        if self.kind == "power":
            return {"kind": "power", "c": self.c, "s": self.s, **self.meta}
        return super().describe()


def make_power_coefficients(t, q, gamma):
    """Power-decay schedule c * k^(-s) calibrated against the majorant.

    Sets s = (t + 1) / (t + q) and picks c so that gamma * c^q * Z = 1, where Z
    upper-bounds the full series sum_k k^(-s q) (see ``_power_series_sum``,
    which the fixed-schedule claims' budget check also uses).  The summability
    budget gamma * sum_k mu(c_k) <= 1 then holds by construction.
    """
    t = float(t)
    if not (0.0 < t <= 1.0):
        raise ValueError("t must lie in (0, 1]")
    mu = Majorant.power(gamma, q)  # checks gamma > 0, then q in (1, 2]
    q, gamma = mu.q, mu.gamma
    s = (t + 1.0) / (t + q)
    a = s * q
    if a <= 1.0 + 1e-12:
        raise ValueError(f"series exponent s*q = {a} must exceed 1; "
                         "the coefficient series would diverge")
    series_bound = _power_series_sum(a)
    c = (gamma * series_bound) ** (-1.0 / q)
    meta = {"t": t, "q": q, "gamma": gamma, "series_bound": series_bound}
    return CoefficientSequence.power(c, s, meta=meta)


def solve_stepsize(majorant, slope):
    """The positive c solving mu(c)/c = slope for the power majorant
    mu(u) = gamma u^q: c = (slope/gamma)^(1/(q-1))."""
    slope = float(slope)
    if slope <= 0:
        raise ValueError("slope must be positive (stopping fires upstream)")
    return float((slope / majorant.gamma) ** (1.0 / (majorant.q - 1.0)))


def _certified_signs(E, start, direction, bound):
    """(neg, pos): every c in [0, bound] that ``line_search_exact`` queries
    along ``direction`` has a computed derivative
    deriv(c) = pairing(E'(start + c d), d) below zero if c <= neg and above
    zero if c >= pos; (-inf, inf) without a section model.

    phi(c) = E(start + c d) is convex, so phi' never decreases.  If the
    computed model value at c_L is below -s, with s a slack (see
    ``Objective.section``) on an interval [0, C] that holds c_L, phi'(c_L)
    is below -(the derivative's own rounding bound on it), and then so is
    phi'(c) at every c in [0, c_L]: each computed derivative there is
    negative, and not zero.  Likewise above +s at c_R for the queries in
    [c_R, C].  Safeguarded Newton steps on the model, inside [0, bound],
    tighten c_L and c_R from c = 0 under the slack of all of [-bound, bound]
    until the model is within it of zero, or until the change in h over the
    last step predicts that the next one lands within 1/128 of it.  One more
    step gives the model's root c*.  Probes at c* -+ w, w = 1.1 s / h,
    growing fourfold at most twice, then try to certify each side under the
    slack s on [0, C], C the first doubling point (1, 2, 4, ..., capped at
    ``bound``) at or above c*: the search stops doubling at C, or earlier,
    as a query at or above c_R is positive, so it queries nothing above C.
    """
    section = None if E.section is None else E.section(start, direction,
                                                        bound)
    lo, hi = -math.inf, math.inf
    if section is None:
        return lo, hi
    model, slack, slack_on = section
    c, last, near = 0.0, None, False
    for _ in range(16):
        m, h = model(c)
        if abs(m) <= slack:
            near = h > 0.0
            if near and lo < c - m / h < hi:
                c -= m / h
            break
        if m < 0.0:
            lo = c
        else:
            hi = c
        step = c - m / h if h > 0.0 else math.nan
        nxt = min(max(step, 0.0), bound)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        elif (nxt == step and last is not None
              and abs(h - last[1]) * (m / h) ** 2
              <= abs(c - last[0]) * slack / 64.0):
            c, near = nxt, True
            break
        last = c, h
        c = nxt
    if near:
        end = 1.0
        while end < c and end < bound:
            end *= 2.0
        end = min(end, bound)
        s = slack_on(end)
        w = 1.1 * s / h
        for side in (-1.0, 1.0):
            for grow in (1.0, 4.0, 16.0):
                p = c + side * grow * w
                if not (lo < p < hi and 0.0 <= p <= end):
                    break
                if side * model(p)[0] > s:
                    lo, hi = (p, hi) if side < 0.0 else (lo, p)
                    break
    return lo, hi


def line_search_exact(E, start, direction, tol=1e-12, bound=None):
    """Exact minimization of the convex section c -> E(start + c * direction),
    returned as the pair (c, clamped).

    Brackets by doubling from [0, 1] on the side the derivative points to
    (signed steps are allowed), then bisects on the directional derivative until
    the minimizer is located within ``tol``, or until the midpoint of the
    bracket is no longer strictly inside it, after which bisection could only
    repeat itself.  If the derivative never changes sign before |c| reaches
    ``bound`` (default twice the objective's region radius), the bound is
    returned with ``clamped=True``.  The caller evaluates E at the step it
    takes.

    Every decision depends only on the sign of the computed derivative
    pairing(E'(start + c d), d) and on whether it is exactly zero.  An
    objective with a section model certifies those signs below and above
    the points ``_certified_signs`` returns, so the gradient is evaluated
    only between them, and ``c`` and ``clamped`` equal a search that
    evaluates every derivative, bit for bit, from a handful of gradients.
    """
    if bound is None:
        bound = 2.0 * E.region_radius
    if bound <= 0:
        raise ValueError("bound must be positive")

    neg, pos = _certified_signs(E, start, direction, bound)

    def deriv(c):
        if c <= neg:
            return -1.0
        if c >= pos:
            return 1.0
        return pairing(E.gradient(start + c * direction), direction)

    d0 = deriv(0.0)
    if d0 == 0.0:
        return 0.0, False
    if d0 > 0.0:
        c, clamped = line_search_exact(E, start, -direction, tol=tol,
                                       bound=bound)
        return -c, clamped

    lo, hi = 0.0, 1.0
    while True:
        if hi > bound:
            hi = bound
        dh = deriv(hi)
        if dh == 0.0:
            return hi, False
        if dh > 0.0:
            break
        if hi >= bound:
            return bound, True
        lo, hi = hi, 2.0 * hi

    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        dm = deriv(mid)
        if dm == 0.0:
            return mid, False
        if dm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), False


class MajorantViolationError(RuntimeError):
    """The per-step energy decrease fell short of t (1-b) c * score.

    This indicates the declared majorant does not dominate the actual
    smoothness modulus along the run.
    """

    def __init__(self, iteration, observed, required):
        self.iteration = iteration
        self.observed = observed
        self.required = required
        super().__init__(
            f"energy decrease violated at iteration {iteration}: "
            f"E(G_m) = {observed!r} exceeds the required bound {required!r}; "
            "the declared majorant does not dominate the smoothness modulus")


@dataclass
class ExpansionState:
    """Live state of an expansion after m iterations."""

    G: np.ndarray
    m: int
    A: float  # sum of |c_j|


def _running_sums(terms):
    """Running sums from +0.0, as a loop accumulator starts: -0.0 sums to 0."""
    return list(accumulate(terms, initial=0.0))[1:]


@dataclass
class RunTrace:
    """Per-iteration log of an expansion run.

    Row j (0-based) describes iteration m = j + 1: the objective value and
    greedy score at the *new* iterate G_m, the applied coefficient, the chosen
    atom and any flags.  E0/ED0 hold the m = 0 values.  ``t_used`` records the
    realized weakness parameters for runs that have them.  Derived, not
    stored: the coefficient mass ``A`` (A_m = sum |c_j|) and the raw partial
    sums ``sum_c`` (sum c_j) and ``sum_cED`` (sum c_j * score(G_j)).
    """

    algorithm: str
    status: str
    E0: float
    ED0: float
    E: list = field(default_factory=list)
    ED: list = field(default_factory=list)
    c: list = field(default_factory=list)
    atoms: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    infimum: float | None = None
    config: dict = field(default_factory=dict)
    t_used: list | None = None

    def __len__(self):
        return len(self.E)

    @property
    def A(self):
        return _running_sums(abs(c) for c in self.c)

    @property
    def sum_c(self):
        return _running_sums(self.c)

    @property
    def sum_cED(self):
        return _running_sums(c * ed for c, ed in zip(self.c, self.ED,
                                                     strict=True))

    def gaps(self):
        """E(G_m) - infimum per iteration, or None when no infimum is known."""
        if self.infimum is None:
            return None
        return np.asarray(self.E, dtype=float) - self.infimum

    @property
    def final_E(self):
        return self.E[-1] if self.E else self.E0

    @property
    def final_gap(self):
        return None if self.infimum is None else self.final_E - self.infimum


def _run(E, dictionary, stop, algorithm, step, tau=None, mode=ARGMAX,
         check=None, **params):
    """The one expansion loop; the public drivers differ only in its arguments.

    With a weakness ``tau`` (a WeaknessSequence, or a number for constant t),
    iteration m picks the atom by the weak-greedy rule against the negative
    gradient at t_m = tau(m), resolves it once to its vector ``direction``
    and asks ``step(m, t_m, G, direction, score)`` for (c_m, flags).  Without
    one it asks ``step(m, None, G, None, score)`` for c_m first, scans the
    objective for the atom minimizing E(G + c_m * atom), then resolves it.
    Either way G_m = G + c_m * direction; a c_m that is not finite is a
    NumericFailure before the update.
    ``check(m, t_m, E_prev, E_new, c_m, score_prev)`` may reject a finished
    step by raising.  The run config records the objective, dictionary, stop
    rule, algorithm, weakness and mode, plus ``params``.
    """
    config = {
        "objective": E.describe(),
        "dictionary": dictionary.describe(),
        "stop": asdict(stop),
        "algorithm": algorithm,
    }
    check_mode(mode)
    if tau is not None:
        if not isinstance(tau, WeaknessSequence):
            tau = WeaknessSequence.constant(tau)
        config.update(tau=tau.describe(), mode=mode)
    config.update(params)

    G = np.zeros(E.dim)
    e_cur = E(G)
    e0 = e_cur
    grad = E.gradient(G)
    gtol = stop.grad_tol if stop.grad_tol is not None else 1e-12 * (1.0 + abs(e0))
    stop_above = gradient_stop_threshold(dictionary, gtol)
    score_val, score_atom = greedy_score(-grad, dictionary)
    trace = RunTrace(algorithm=algorithm, status="max-iter", E0=e0,
                     ED0=score_val, infimum=E.infimum, config=config,
                     t_used=None if tau is None else [])
    for m in range(1, stop.max_iter + 1):
        if (score_val <= stop_above
                and dual_norm(grad, dictionary.norm) <= gtol):
            trace.status = "gradient"
            break
        if score_val <= 0.0:
            trace.status = "zero-score"
            break
        if tau is None:
            t_m = None
            c_m, iter_flags = step(m, t_m, G, None, score_val)
            atom, e_new = argmin_atom_by_objective(E, G, c_m, dictionary,
                                                   grad)
            direction = dictionary.resolve(atom)
        else:
            t_m = tau(m)
            atom, _ = select_atom(-grad, dictionary, t=t_m, mode=mode,
                                  score=(score_val, score_atom))
            direction = dictionary.resolve(atom)
            c_m, iter_flags = step(m, t_m, G, direction, score_val)
        if not math.isfinite(c_m):
            raise NumericFailure(f"step coefficient c_{m} is not finite")
        prev_e, prev_score = e_cur, score_val
        G = G + c_m * direction
        # the scan evaluated E(G + (c sign) a), this E(G) bit for bit
        e_cur = E(G) if tau is not None else e_new
        grad = E.gradient(G)
        score_val, score_atom = greedy_score(-grad, dictionary)
        if check is not None:
            check(m, t_m, prev_e, e_cur, c_m, prev_score)
        if c_m == 0.0:
            iter_flags = iter_flags + ["no-progress"]
        if e_cur > e0 + 2.0:
            iter_flags = iter_flags + ["left-sublevel-2"]
        trace.E.append(e_cur)
        trace.ED.append(score_val)
        trace.c.append(c_m)
        trace.atoms.append(atom)
        trace.flags.append(";".join(iter_flags))
        if tau is not None:
            trace.t_used.append(t_m)
        if (stop.target_gap is not None and trace.infimum is not None
                and e_cur - trace.infimum <= stop.target_gap):
            trace.status = "target-gap"
            break
    return trace


def _prescribed(rule, positive=False):
    """Step rule c_m = rule(m); ``positive`` rejects c_m <= 0."""
    def step(m, t_m, G, direction, score):
        c = float(rule(m))
        if positive and c <= 0:
            raise ValueError(f"coefficient rule must yield positive steps, "
                             f"got c_{m} = {c}")
        return c, []
    return step


def run_gbe(E, dictionary, t, coeffs, stop, mode=ARGMAX):
    """Generic expansion: weak-greedy atom at constant t, prescribed steps
    ``coeffs`` (a CoefficientSequence), each of which must be positive."""
    return _run(E, dictionary, stop, "GBE",
                _prescribed(coeffs.value, positive=True),
                WeaknessSequence.constant(t), mode,
                coefficients=coeffs.describe())


def run_ega(E, dictionary, coeffs, stop):
    """Pure objective-greedy expansion with prescribed coefficients.

    Each iteration scans all signed atoms for the one minimizing
    E(G + c_m * atom) and applies exactly that step.  Finite dictionaries only.
    """
    if isinstance(dictionary, SphereDictionary):
        raise TypeError("objective-greedy runs need a finite dictionary")
    return _run(E, dictionary, stop, "EGA", _prescribed(coeffs.value),
                coefficients=coeffs.describe())


def run_gga_fixed(E, dictionary, tau, coeffs, stop, mode=ARGMAX):
    """Weak gradient-greedy selection with prescribed coefficients."""
    return _run(E, dictionary, stop, "GGA_FIXED", _prescribed(coeffs.value),
                tau, mode, coefficients=coeffs.describe())


def run_gga_adaptive(E, dictionary, tau, b, stop, majorant=None, mode=ARGMAX):
    """Gradient-greedy selection with steps solved from the majorant.

    The step solves mu(c)/c = (t_m b / 2) * score in closed form
    (``solve_stepsize``).  Every step must satisfy the energy
    decrease E(G_m) <= E(G_{m-1}) - t_m (1-b) c_m * score(G_{m-1}) within
    ``ENERGY_SLACK``; a violation aborts with MajorantViolationError, since it
    means the majorant fails to dominate the true modulus.
    """
    b = float(b)
    if not (0.0 < b < 1.0):
        raise ValueError("b must be in (0,1)")
    mu = majorant if majorant is not None else E.majorant

    def step(m, t_m, G, direction, score):
        return solve_stepsize(mu, 0.5 * t_m * b * score), []

    def check(m, t_m, prev_e, new_e, c_m, prev_score):
        required = prev_e - t_m * (1.0 - b) * c_m * prev_score
        if new_e > required + ENERGY_SLACK:
            raise MajorantViolationError(m, new_e, required)

    return _run(E, dictionary, stop, "GGA_ADAPTIVE", step, tau, mode, check,
                b=b, mu=mu.describe(), energy_slack=ENERGY_SLACK)


def run_gega(E, dictionary, tau, stop, mode=ARGMAX, line_tol=1e-12):
    """Gradient-greedy selection with exact line search along the chosen atom.

    The one-dimensional minimization runs over all real c (the dictionary is
    symmetric, so signed steps are legitimate); line-search clamping is flagged.
    """
    def step(m, t_m, G, direction, score):
        c, clamped = line_search_exact(E, G, direction, tol=line_tol)
        return float(c), ["clamped"] if clamped else []

    return _run(E, dictionary, stop, "GEGA", step, tau, mode,
                line_tol=line_tol)


def iter_states(trace, dictionary):
    """Replay a trace into per-iteration expansion states.

    Reconstruction applies the same update in the same order as the run, so the
    yielded iterates match the run's bit for bit.
    """
    if not len(trace):
        return
    G = np.zeros(dictionary.resolve(trace.atoms[0]).size)
    steps = zip(trace.atoms, trace.c, trace.A, strict=True)
    for k, (atom, c, a_mass) in enumerate(steps, start=1):
        G = G + c * dictionary.resolve(atom)
        yield ExpansionState(G=G, m=k, A=a_mass)


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool


def score_gap_bound(E, dictionary, state, reference, hull_radius):
    """Check that the greedy score dominates the scaled optimality gap:

        score(G_k) >= (E(G_k) - E(reference)) / (hull_radius + A_k) - 1e-10.

    Valid when reference / hull_radius lies in the closed convex hull of the
    dictionary, as decided by ``_hull_membership``: a reference outside raises
    ValueError, and one it cannot decide (general finite dictionaries, where
    deciding is a linear program) is the caller's responsibility and emits a
    warning.
    """
    hull_radius = float(hull_radius)
    if hull_radius <= 0:
        raise ValueError("hull_radius must be positive")
    reference = np.asarray(reference, dtype=float)
    where, _, _ = _hull_membership(reference, dictionary.describe(),
                                  hull_radius)
    if where == OUTSIDE:
        raise ValueError("reference lies outside the scaled unit ball"
                         if isinstance(dictionary, SphereDictionary)
                         else "reference l1 norm exceeds hull_radius")
    if where == UNVERIFIABLE:
        import warnings
        warnings.warn("hull membership not verified for general finite "
                      "dictionaries", RuntimeWarning, stacklevel=2)
    grad = E.gradient(state.G)
    lhs, _ = greedy_score(-grad, dictionary)
    rhs = (E(state.G) - E(reference)) / (hull_radius + state.A)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - 1e-10))


def check_rate_bound(trace, alpha, C):
    """True iff gap_m <= C * m^(-alpha) for every m.

    Returns None when the trace has no infimum to measure gaps against.
    """
    gaps = trace.gaps()
    if gaps is None:
        return None
    if alpha <= 0 or C <= 0:
        raise ValueError("alpha and C must be positive")
    m = np.arange(1, len(gaps) + 1, dtype=float)
    return _first_violation(gaps, m ** (-alpha), C, 0) is None
