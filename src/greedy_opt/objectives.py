"""Concrete smooth convex objectives with declared smoothness majorants.

Every objective knows its gradient, a power majorant valid on the region it
declares, and (when available) its exact infimum for gap computations.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    EUCLIDEAN,
    Majorant,
    NumericFailure,
    as_vector,
    finite_difference_gradient_check,
    lp_norm,
    majorant_domination_witness,
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

    ``region_radius`` is the radius of a ball (around the origin) enclosing the
    sublevel set {x : E(x) <= E(0) + 2}; smoothness claims are only asserted
    inside it.  ``known_inf`` is an optional ``(value, minimizer)`` pair.
    ``curvature`` is a scale s for which E(x + h) = E(x) + <E'(x), h> +
    (s/2) ||h||_2^2 holds exactly in the reals; only ``quadratic_objective``
    sets it, and the objective scan's screen relies on its value and gradient
    expressions.  It comes from the definition, never from the majorant.
    Evaluations that stop being finite raise NumericFailure.
    """

    def __init__(self, dim, value, gradient, majorant, region_radius,
                 known_inf=None, description=None, curvature=None):
        self.dim = int(dim)
        self._value = value
        self._gradient = gradient
        self.majorant = majorant
        self.region_radius = float(region_radius)
        self.known_inf = known_inf
        self.description = dict(description or {})
        self.curvature = curvature

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
                     curvature=E.curvature)


def quadratic_objective(target, scale=1.0):
    """E(x) = (scale/2) ||x - target||_2^2.

    The canonical q = 2 instance: its smoothness modulus is exactly
    (scale/2) u^2, so the declared majorant is tight.
    """
    target = as_vector(target)
    scale = float(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")

    def value(x):
        d = x - target
        return 0.5 * scale * float(np.dot(d, d))

    def gradient(x):
        return scale * (x - target)

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

    q = 2 with the global curvature bound gamma = (1/8) sum ||row_i||_2^2, so
    ``region_radius`` only scopes where sampling sweeps look, not where the
    majorant holds.  No closed-form infimum; use ``reference_infimum``.
    """
    A = np.asarray(design, dtype=float)
    if A.ndim != 2 or not np.all(np.isfinite(A)):
        raise ValueError("design must be a finite 2-D matrix")
    yv = as_vector(labels, A.shape[0])
    if not np.all(np.abs(yv) == 1.0):
        raise ValueError("labels must be +-1")
    count, dim = A.shape

    def value(x):
        z = yv * (A @ x)
        return float(np.sum(np.logaddexp(0.0, -z)))

    def gradient(x):
        z = yv * (A @ x)
        # sigmoid(-z) computed stably through logaddexp
        s = np.exp(-np.logaddexp(0.0, z))
        return -(A.T @ (yv * s))

    gamma = 0.125 * float(np.sum(A * A))
    return Objective(
        dim, value, gradient,
        Majorant.power(gamma, 2.0),
        region_radius=region_radius,
        description={"kind": "logistic", "rows": count,
                     "gamma_note": "conservative analytic bound"},
    )


def reference_infimum(E, norm=EUCLIDEAN):
    """High-accuracy infimum for objectives without a closed form.

    Runs exact-line-search steepest descent (the sphere-dictionary expansion)
    until the dual gradient norm drops below 1e-10, within 200 000 steps, and
    returns the final value.  A derived oracle: treat it as a reference, never
    as exact.
    """
    from .dictionaries import SphereDictionary
    from .greedy import StopRule, WeaknessSequence, run_gega

    trace = run_gega(
        E, SphereDictionary(norm), WeaknessSequence.constant(1.0),
        StopRule(max_iter=200_000, grad_tol=1e-10),
    )
    if trace.status != "gradient":
        raise RuntimeError(f"reference solve did not reach grad_tol "
                           f"(status {trace.status!r})")
    return trace.final_E


def validate_objective(E, samples=300, seed=0, norm=EUCLIDEAN):
    """Sampling audit of an objective's contracts.

    Checks midpoint convexity (within 1e-10), the gradient against central
    differences, the supporting-hyperplane inequality
    E(y) >= E(x) + <E'(x), y - x> (within 1e-9), and domination of the
    empirical modulus by the declared majorant.  Returns a dict of booleans
    plus details.
    """
    rng = np.random.default_rng(seed)
    radius = E.region_radius

    convex_ok = True
    support_ok = True
    for _ in range(samples):
        x = sample_ball(rng, E.dim, radius=radius, norm=norm)
        y = sample_ball(rng, E.dim, radius=radius, norm=norm)
        if E(0.5 * (x + y)) > 0.5 * E(x) + 0.5 * E(y) + 1e-10:
            convex_ok = False
        if E(y) < E(x) + pairing(E.gradient(x), y - x) - 1e-9:
            support_ok = False

    gradient_ok = all(
        finite_difference_gradient_check(
            E, sample_ball(rng, E.dim, radius=min(radius, 5.0), norm=norm))
        for _ in range(5)
    )
    witness = majorant_domination_witness(E, samples=max(25, samples // 8),
                                          seed=seed, norm=norm)
    return {
        "convexity": convex_ok,
        "supporting_hyperplane": support_ok,
        "gradient": gradient_ok,
        "majorant_domination": witness.ok,
        "witness": witness,
    }
