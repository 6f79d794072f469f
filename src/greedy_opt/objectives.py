"""Concrete smooth convex objectives with declared smoothness majorants.

Every objective knows its gradient, a power majorant valid on the region it
declares, and (when available) its exact infimum for gap computations.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ETA,
    U,
    Majorant,
    NumericFailure,
    as_vector,
    finite_difference_gradient_check,
    higham_gamma,
    lp_norm,
    norm2,
    pairing,
    sample_ball,
)

__all__ = [
    "Objective",
    "with_majorant",
    "quadratic_objective",
    "p_power_objective",
    "logistic_objective",
    "reference_infimum",
    "validate_objective",
]


class Objective:
    """Convex function with gradient, declared majorant, and smoothness region.

    ``region_radius``, positive, is the radius of a ball (around the origin)
    enclosing the sublevel set {x : E(x) <= E(0) + 2}; smoothness claims are
    only asserted inside it.  ``known_inf`` is an optional
    ``(value, minimizer)`` pair.
    ``curvature`` is a scale s for which E(x + h) = E(x) + <E'(x), h> +
    (s/2) ||h||_2^2 holds exactly in the reals; only ``quadratic_objective``
    sets it, and the objective scan's screen relies on its value and gradient
    expressions.  ``section(x, d, bound)``, set by the quadratic and the
    logistic objective, models the section phi(c) = E(x + c d) for the line
    search's replay.  It returns ``(model, slack, slack_on)``, or None when a
    bound is not finite: ``model(c)`` is ``(m, h)``, a computed phi'(c) and an
    estimate of phi''(c), and with deriv(c) =
    ``pairing(E.gradient(x + c * d), d)`` as computed,
    |deriv(c) - phi'(c)| + |m(c') - phi'(c')| <= slack for every c and c' in
    [-bound, bound], and <= ``slack_on(C)`` for every c and c' in [0, C],
    0 <= C <= bound.  Both hooks come from the definition, never from the
    majorant.  Evaluations that stop being finite raise NumericFailure.
    """

    def __init__(self, dim, value, gradient, majorant, region_radius,
                 known_inf=None, description=None, curvature=None,
                 section=None):
        self.dim = int(dim)
        self._value = value
        self._gradient = gradient
        self.majorant = majorant
        self.region_radius = float(region_radius)
        if not self.region_radius > 0:  # NaN too
            raise ValueError("region_radius must be positive")
        self.known_inf = known_inf
        self.description = dict(description or {})
        self.curvature = curvature
        self.section = section

    def __call__(self, x):
        v = float(self._value(x))
        if not math.isfinite(v):
            raise NumericFailure("objective evaluation is not finite")
        return v

    def gradient(self, x):
        g = np.asarray(self._gradient(x), dtype=float)
        if not np.isfinite(g).all():
            raise NumericFailure("gradient evaluation is not finite")
        return g

    @property
    def infimum(self):
        return self.known_inf[0] if self.known_inf is not None else None

    @property
    def minimizer(self):
        return self.known_inf[1] if self.known_inf is not None else None

    def describe(self):
        out = dict(self.description)
        out["majorant"] = self.majorant.describe()
        out["region_radius"] = self.region_radius
        if self.known_inf is not None:
            out["known_inf"] = self.known_inf[0]
        return out


def with_majorant(E, majorant):
    """Copy of E carrying a different declared majorant (fault injection, tests)."""
    return Objective(E.dim, E._value, E._gradient, majorant, E.region_radius,
                     known_inf=E.known_inf, description=E.description,
                     curvature=E.curvature, section=E.section)


def quadratic_objective(target, scale=1.0):
    """E(x) = (scale/2) ||x - target||_2^2.

    The canonical q = 2 instance: its smoothness modulus is exactly
    (scale/2) u^2, so the declared majorant is tight.

    Section.  Along x + c d, phi'(c) = s (alpha + c beta) in the reals, with
    s = scale, alpha = <x - t, d> and beta = ||d||^2; the model is
    fl(s fl(fl(<fl(x - t), d>) + c fl(beta))).  Let n = dim, C = bound,
    R = ||x - t||, X = ||x||, D = ||d||, and gamma_k, u and eta as in
    ``core.higham_gamma``.  To first order in u, for |c| <= C:
    - Gradient: x + c d is formed within gamma_2 (|x_i| + C |d_i|), then
      x - t and the product with s round once each, and the dot with d adds
      gamma_n; so |deriv(c) - phi'(c)| <= s D (gamma_{n+2} (R + C D) +
      gamma_2 (X + C D)) by Cauchy-Schwarz.
    - Model: the two dots and three roundings put m within
      s D gamma_{n+3} (R + C D) of phi'(c).
    - Underflow: 5n + 2 products, each at most eta/2 off, reach the
      derivative or the model through factors below (1 + s)(1 + C)(1 + D).
    The slack is twice the sum of the first two, plus
    4 n eta (1 + s)(1 + C)(1 + D).  It is None when it, or the largest
    intermediate of either evaluation, below 4 max(s, 1)(X + ||t|| + C D)
    (1 + D), is not finite, so no gradient the replay skips could overflow.
    """
    target = as_vector(target)
    scale = float(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = target.size
    t_norm = norm2(target)

    def value(x):
        d = x - target
        return 0.5 * scale * float(np.dot(d, d))

    def gradient(x):
        return scale * (x - target)

    def section(x, d, bound):
        r = x - target
        D = norm2(d)
        CD = bound * D
        X = norm2(x)
        slack = (2.0 * scale * D * (2.0 * higham_gamma(n + 3) * (norm2(r) + CD)
                                    + higham_gamma(2) * (X + CD))
                 + 4.0 * n * ETA * (1.0 + scale) * (1.0 + bound) * (1.0 + D))
        top = 4.0 * max(scale, 1.0) * (X + t_norm + CD) * (1.0 + D)
        if not math.isfinite(top + slack):
            return None
        alpha, beta = float(np.dot(r, d)), float(np.dot(d, d))
        h = scale * beta
        return ((lambda c: (scale * (alpha + c * beta), h)), slack,
                lambda c: slack)

    e0 = value(np.zeros_like(target))
    radius = lp_norm(target) + math.sqrt(2.0 * (e0 + 2.0) / scale)
    return Objective(
        target.size, value, gradient,
        Majorant.power(scale / 2.0, 2.0),
        region_radius=radius,
        known_inf=(0.0, target),
        description={"kind": "quadratic", "scale": scale,
                     "target": [float(t) for t in target]},
        curvature=scale,
        section=section,
    )


def p_power_objective(design, response, p):
    """E(x) = sum_i |<row_i, x> - y_i|^p / p with p in (1, 2].

    Supplies smoothness exponent q = p < 2.  The declared gamma is the
    conservative analytic bound 2^(2-p) * (max row norm)^p * (row count), not
    the tightest constant; it is recorded in the description so rate fits can
    be read accordingly.  The design must have full column rank so the
    sublevel sets stay bounded.
    """
    A = np.asarray(design, dtype=float)
    if A.ndim != 2:
        raise ValueError("design must be a 2-D matrix (rows = samples)")
    if not np.all(np.isfinite(A)):
        raise ValueError("design must be finite")
    y = as_vector(response, A.shape[0])
    p = float(p)
    if not (1.0 < p <= 2.0):
        raise ValueError("p must lie in (1, 2]")
    count, dim = A.shape

    singular = np.linalg.svd(A, compute_uv=False)
    if singular[-1] <= 1e-12 * singular[0]:
        raise ValueError("design must have full column rank so the sublevel "
                         "sets stay bounded")

    def value(x):
        r = A @ x - y
        return float(np.sum(np.abs(r) ** p)) / p

    def gradient(x):
        r = A @ x - y
        return A.T @ (np.sign(r) * np.abs(r) ** (p - 1.0))

    with np.errstate(over="ignore"):  # an overflow gives gamma = inf
        row_norms = np.sqrt(np.sum(A * A, axis=1))
    gamma = 2.0 ** (2.0 - p) * float(np.max(row_norms)) ** p * count
    e0 = value(np.zeros(dim))
    radius = (lp_norm(y) + (p * (e0 + 2.0)) ** (1.0 / p)) / float(singular[-1])
    return Objective(
        dim, value, gradient,
        Majorant.power(gamma, p),
        region_radius=radius,
        description={"kind": "p_power", "p": p, "rows": count,
                     "gamma_note": "conservative analytic bound"},
    )


def logistic_objective(design, labels, region_radius=10.0):
    """E(x) = sum_i log(1 + exp(-y_i <row_i, x>)) with labels y_i in {-1, +1}.

    q = 2 with the global curvature bound gamma = (1/8) sum ||row_i||_2^2
    + rows * dim * eta, which covers the squares that underflow, so
    ``region_radius`` only scopes where sampling sweeps look, not where the
    majorant holds.  No closed-form infimum; use ``reference_infimum``.

    Section.  Along x + c d, with a_i = y_i <row_i, d>, z_i = y_i <row_i, x>
    and sigma(t) = 1 / (1 + e^-t), phi'(c) = -sum_i a_i sigma(-(z_i + c a_i))
    in the reals.  E, E' and the section at one x share the margins z, one
    matvec kept in a one-entry memo keyed on x's bytes; a second matvec
    gives a.  The model is m = -fl(<a, s>), s = 1 / (1 + exp(z + c a)), with
    the estimate h = <a^2, s (1 - s)> of phi''.  Let A have M rows and n
    columns, b = |A| |d| (so |a_i| <= b_i), and gamma_k, u and eta as in
    ``core.higham_gamma``.  On [0, C], 0 <= C <= bound, let q = |A| |x| + C b
    (so |z_i + c a_i| <= q_i), let S_i = sigma(-(z_i + C min(a_i, 0))) be
    row i's largest sigmoid (sigma(-(z_i + c a_i)) is monotone in c, so it
    peaks at c = 0 or c = C), and L_i = min(1/4, S_i).  Assumed: numpy's exp
    and the exp and log1p inside its logaddexp are within k = 4 ulp, a
    relative 2 k u; numpy's own validation sets
    (umath-validation-set-{exp,log1p}.csv) record at most 1 ulp, so k
    carries a safety factor of 4.  To first order in u, for c in [0, C]:
    - Arguments: x + c d, the matvec and the y_i factor put the gradient's
      z_i + c a_i within gamma_{n+2} q_i, and the model's within
      gamma_{n+2} q_i too.  sigma(-t) has slope s (1 - s) <= min(1/4, s),
      and between the two arguments s is within a factor 1 + O(u) of its
      value at the exact one, at most S_i; so each sigmoid moves by at most
      L_i gamma_{n+2} q_i.
    - Gradient sigmoid: the computed logaddexp(0, z) is L (1 +- (4k + 1) u),
      L the exact value, so exp(-L) comes within
      (4k + 1) u L e^-L + 2k u <= (4k + 1) u / e + 2k u of e^-L, as
      L e^-L <= 1/e.  Model sigmoid: within (2k + 2) u.  Both add up to
      below 25 u.
    - Sums: A^T (y s) and its dot with d, against the model's <a, s>, with
      every s_i <= S_i (1 + O(u)): 2 gamma_{M+n+1} sum_i b_i S_i in all.
    - Underflow: |z| < 700 keeps every exp and log1p normal, so only the
      products of the matvecs, of c d and of c a underflow, each at most
      eta/2 off.  Summed through the factors each passes (at most 1/4 |a_i|
      times a row of |A|, |d_j| or 1), they stay below
      (M + n + 1)(n + 1) eta (1 + r + bound)(1 + sum b + ||d||_1), with r
      the largest row l1 norm of A.
    ``slack_on(C)`` is twice 2 gamma_{M+n+1} sum_i b_i S_i +
    sum_i |a_i| (25 u + 2 gamma_{n+2} L_i q_i), plus the underflow term.
    The same with every S_i = 1 and C = bound covers every |c| <= bound and
    needs no sigmoid: that is ``slack``.  The section is None unless
    max q < 700 at C = bound and every bound and intermediate is finite, so
    no gradient the replay skips could overflow.
    """
    A = np.asarray(design, dtype=float)
    if A.ndim != 2 or not np.all(np.isfinite(A)):
        raise ValueError("design must be a finite 2-D matrix")
    yv = as_vector(labels, A.shape[0])
    if not np.all(np.abs(yv) == 1.0):
        raise ValueError("labels must be +-1")
    count, dim = A.shape
    # Each square that underflows drops at most eta / 2, and so may 0.125
    # times the sum; A.size * eta covers both, keeps gamma > 0 and leaves it
    # unchanged whenever the sum is at least A.size * 2^-1017.  A sum that
    # overflows gives gamma = inf, which Majorant refuses here; once the sum
    # of squares is finite, no row or column sum of |A| below can overflow.
    with np.errstate(over="ignore"):
        gamma = 0.125 * float(np.sum(A * A)) + A.size * ETA
    majorant = Majorant.power(gamma, 2.0)
    absA = np.abs(A)
    row_l1 = float(absA.sum(axis=1).max())
    col_l1 = float(absA.sum(axis=0).max())
    gam_sums = 2.0 * higham_gamma(count + dim + 1)
    gam_lip = 2.0 * higham_gamma(dim + 2)
    gam_args = 0.25 * gam_lip
    eta_terms = (count + dim + 1) * (dim + 1) * ETA

    memo = [None]

    def margins(x):
        # z = y * (A @ x), read-only, from a one-entry memo keyed on x's
        # bytes: E(x), E'(x) and the section at x share one matvec
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        hit = memo[0]
        if hit is not None and hit[0] == key:
            return hit[1]
        z = yv * (A @ x)
        z.flags.writeable = False
        memo[0] = (key, z)
        return z

    def value(x):
        return float(np.sum(np.logaddexp(0.0, -margins(x))))

    def gradient(x):
        # sigmoid(-z) computed stably through logaddexp
        s = np.exp(-np.logaddexp(0.0, margins(x)))
        return -(A.T @ (yv * s))

    def section(x, d, bound):
        abs_d, abs_x = np.abs(d), np.abs(x)
        b = absA @ abs_d
        r = absA @ abs_x
        a = yv * (A @ d)
        z = margins(x)
        b_sum, d_l1 = float(b.sum()), float(abs_d.sum())
        abs_a = np.abs(a)
        under = eta_terms * (1.0 + row_l1 + bound) * (1.0 + b_sum + d_l1)
        q = r + bound * b
        slack = (2.0 * (gam_sums * b_sum
                        + float(np.dot(abs_a, 25.0 * U + gam_args * q)))
                 + under)
        top = (float(abs_x.max()) + bound * float(abs_d.max())
               + col_l1 * (1.0 + d_l1))
        if not (float(q.max()) < 700.0 and math.isfinite(4.0 * top + slack)):
            return None
        a_sq = a * a

        def model(c):
            s = 1.0 / (1.0 + np.exp(z + c * a))
            return -float(np.dot(a, s)), float(np.dot(a_sq, s - s * s))

        def slack_on(C):
            S = 1.0 / (1.0 + np.exp(z + C * np.minimum(a, 0.0)))
            L = np.minimum(S, 0.25)
            return (2.0 * (gam_sums * float(np.dot(b, S))
                           + float(np.dot(abs_a, 25.0 * U
                                          + gam_lip * L * (r + C * b))))
                    + under)
        return model, slack, slack_on

    return Objective(
        dim, value, gradient, majorant,
        region_radius=region_radius,
        description={"kind": "logistic", "rows": count,
                     "gamma_note": "conservative analytic bound"},
        section=section,
    )


def reference_infimum(E):
    """High-accuracy infimum for objectives without a closed form.

    Runs exact-line-search steepest descent (the expansion over the Euclidean
    unit sphere) until the gradient norm drops below 1e-10, within 200 000
    steps, and returns the final value.  A derived oracle: treat it as a
    reference, never as exact.
    """
    from .dictionaries import SphereDictionary
    from .greedy import StopRule, WeaknessSequence, run_gega

    trace = run_gega(
        E, SphereDictionary(), WeaknessSequence.constant(1.0),
        StopRule(max_iter=200_000, grad_tol=1e-10),
    )
    if trace.status != "gradient":
        raise RuntimeError(f"reference solve did not reach grad_tol "
                           f"(status {trace.status!r})")
    return trace.final_E


def validate_objective(E, samples=300, seed=0):
    """Sampling audit of an objective's contracts, on points of its Euclidean
    region.

    Checks midpoint convexity (within 1e-10), the gradient against central
    differences and the supporting-hyperplane inequality
    E(y) >= E(x) + <E'(x), y - x> (within 1e-9).  Returns a dict of booleans
    under ``convexity``, ``gradient`` and ``supporting_hyperplane``.
    Domination of the empirical modulus by the declared majorant is
    ``majorant_domination_witness``'s sweep.
    """
    rng = np.random.default_rng(seed)
    radius = E.region_radius

    convex_ok = True
    support_ok = True
    for _ in range(samples):
        x = sample_ball(rng, E.dim, radius=radius)
        y = sample_ball(rng, E.dim, radius=radius)
        if E(0.5 * (x + y)) > 0.5 * E(x) + 0.5 * E(y) + 1e-10:
            convex_ok = False
        if E(y) < E(x) + pairing(E.gradient(x), y - x) - 1e-9:
            support_ok = False

    gradient_ok = all(
        finite_difference_gradient_check(
            E, sample_ball(rng, E.dim, radius=min(radius, 5.0)))
        for _ in range(5)
    )
    return {
        "convexity": convex_ok,
        "supporting_hyperplane": support_ok,
        "gradient": gradient_ok,
    }
