"""lp-norm machinery and empirical smoothness checks for smooth convex objectives.

Everything operates on dense 1-D float64 arrays over R^n.  Norm exponents are
restricted to p in (1, inf) so that the duality map stays single-valued; l1 and
l-infinity are rejected on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericFailure",
    "NormTag",
    "EUCLIDEAN",
    "lp_norm",
    "dual_norm",
    "pairing",
    "Majorant",
    "smoothness_gap_check",
    "finite_difference_gradient_check",
    "majorant_domination_witness",
]


class NumericFailure(RuntimeError):
    """A computed value (objective, gradient, greedy score or step
    coefficient) stopped being finite."""


def as_vector(x, dim=None):
    """Coerce to a finite 1-D float array, validating the dimension if given."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


@dataclass(frozen=True)
class NormTag:
    """lp norm exponent, p in (1, inf).  p = 2 is the Euclidean fast path."""

    p: float = 2.0

    def __post_init__(self):
        p = float(self.p)
        if not (1.0 < p < math.inf) or math.isnan(p):
            raise ValueError("norm exponent must lie in (1, inf)")
        object.__setattr__(self, "p", p)

    @property
    def dual_p(self):
        """Conjugate exponent p' = p / (p - 1)."""
        return self.p / (self.p - 1.0)

    @property
    def is_euclidean(self):
        return self.p == 2.0


EUCLIDEAN = NormTag(2.0)


def lp_norm(v, norm=EUCLIDEAN):
    v = np.asarray(v, dtype=float)
    if norm.is_euclidean:
        return math.sqrt(float(np.dot(v, v)))
    with np.errstate(over="ignore"):  # an overflowing sum is inf
        return float(np.sum(np.abs(v) ** norm.p) ** (1.0 / norm.p))


def dual_norm(v, norm=EUCLIDEAN):
    """Norm of a gradient-side vector: the l_{p'} norm with p' = p/(p-1)."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("dual_norm rejects non-finite input")
    return lp_norm(v, norm if norm.is_euclidean else NormTag(norm.dual_p))


def pairing(f, x):
    """Euclidean pairing <f, x> between a gradient and a direction.

    Gradients live in the dual identified with R^n, so the pairing is the plain
    dot product regardless of which lp norm tags the ambient space.
    """
    return float(np.dot(f, x))


U = 2.0 ** -53  # unit roundoff of float64
ETA = 2.0 ** -1074  # smallest subnormal


def higham_gamma(k):
    """Higham's gamma_k = k u / (1 - k u), the base of every rounding bound.

    This is the one derivation the certificates share (the matvec screen of
    ``best_pairing``, the objective scan's model, the line-search replay).
    Any floating-point evaluation of a length-k dot x^T y, in any summation
    order and with or without FMA, has |fl(x^T y) - x^T y| <= gamma_k |x|^T |y|
    when nothing underflows, and k roundings in a row, each by a factor
    (1 + delta) with |delta| <= u, stay within a factor 1 +- gamma_k
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).
    Gradual underflow, which these bounds exclude, makes a product at most
    eta/2 off and a sum not at all, so a length-k dot is at most k eta off.
    A bound formed in floating point carries a relative error of O(k u)
    itself; each certificate covers that by doubling its relative term.
    """
    return k * U / (1.0 - k * U)


def norm2(v):
    """||v||_2 with no overflow or underflow in the squares (``math.hypot``,
    which scales); inf or NaN when v is not finite."""
    return math.hypot(*np.asarray(v, dtype=float).tolist())


@dataclass(frozen=True)
class Majorant:
    """Power majorant mu(u) = gamma * u**q, gamma > 0 and q in (1, 2], on the
    smoothness modulus; mu(u)/u = gamma u^(q-1) is nondecreasing, so the
    adaptive step equation mu(c)/c = slope has the closed-form solution
    c = (slope/gamma)^(1/(q-1)).
    """

    gamma: float
    q: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:  # NaN too
            raise ValueError("gamma must be positive and finite")
        if not (1.0 < self.q <= 2.0):
            raise ValueError("q must lie in (1, 2]")

    @classmethod
    def power(cls, gamma, q):
        return cls(gamma=float(gamma), q=float(q))

    def __call__(self, u):
        u = float(u)
        if u < 0:
            raise ValueError("majorant argument must be nonnegative")
        return self.gamma * u**self.q

    def describe(self):
        return {"kind": "power", "gamma": self.gamma, "q": self.q}


_SIGNS = np.array([-1.0, 1.0])


def sample_ball(rng, dim, radius=1.0):
    """Uniform draw from the Euclidean ball of the given radius,
    rejection-free.

    Coordinates with density proportional to exp(-t^2), drawn as signed
    gamma(1/2) variates to the power 1/2, plus an independent exponential
    slack in the normalization give exactly the uniform law on the ball.
    """
    g = rng.gamma(0.5, size=dim) ** 0.5
    g *= _SIGNS[rng.integers(0, 2, size=dim)]
    w = rng.standard_exponential()
    denom = (np.sum(np.abs(g) ** 2.0) + w) ** 0.5
    return radius * g / denom


def unit_direction(rng, dim):
    """Random direction of unit Euclidean norm (normalized standard normal)."""
    while True:
        z = rng.standard_normal(dim)
        nz = lp_norm(z)
        if nz > 0.0:
            return z / nz


def smoothness_gap_check(E, x, y, u):
    """Two-sided check of the convexity/smoothness sandwich along a ray.

    The increment E(x + u y) - E(x) - u <E'(x), y> must be nonnegative
    (convexity) and at most 2 mu(u ||y||_2) (smoothness, mu the declared
    majorant), both within 1e-9.  Returns True/False, or None when x lies
    outside the objective's declared region, where the bound is not asserted.
    """
    x = as_vector(x, E.dim)
    y = as_vector(y, E.dim)
    ny = lp_norm(y)
    if ny == 0.0:
        raise ValueError("direction must be nonzero")
    if lp_norm(x) > E.region_radius:
        return None
    gap = E(x + u * y) - E(x) - u * pairing(E.gradient(x), y)
    return bool(-1e-9 <= gap <= 2.0 * E.majorant(abs(float(u)) * ny) + 1e-9)


def finite_difference_gradient_check(E, x):
    """Coordinate-wise central-difference validation of the analytic
    gradient, with step 1e-5 and tolerance 1e-6."""
    x = as_vector(x, E.dim)
    g = E.gradient(x)
    step = np.zeros_like(x)
    for i in range(x.size):
        step[i] = 1e-5
        approx = (E(x + step) - E(x - step)) / 2e-5
        step[i] = 0.0
        if abs(approx - g[i]) > 1e-6:
            return False
    return True


def majorant_domination_witness(E, samples=200, seed=0):
    """Sweep 8 scales u from 1e-3 to 2 and return the list of sampled
    (x, y, u) triples, x in the objective's Euclidean region and y a unit
    direction, whose second difference exceeds the declared majorant by more
    than 1e-9.

    The sweep is evidence, not proof: an empty list certifies the majorant
    only at the sampled points.
    """
    majorant = E.majorant
    rng = np.random.default_rng(seed)
    violations = []
    for u in np.geomspace(1e-3, 2.0, 8):
        u = float(u)
        bound = majorant(u)
        for _ in range(samples):
            x = sample_ball(rng, E.dim, radius=E.region_radius)
            y = unit_direction(rng, E.dim)
            rho_hat = 0.5 * abs(E(x + u * y) + E(x - u * y) - 2.0 * E(x))
            if rho_hat > bound + 1e-9:
                violations.append((x, y, u))
    return violations
