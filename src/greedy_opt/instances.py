"""Canned deterministic problem instances shared by the verification suite and tests."""

from __future__ import annotations

import numpy as np

from .objectives import logistic_objective, p_power_objective, quadratic_objective

__all__ = [
    "quadratic_2d",
    "quadratic_2d_unit_l1",
    "quadratic_nd",
    "quadratic_geometric",
    "logistic_20x5_spec",
    "logistic_20x5",
    "p_power_spec",
    "p_power_instance",
]


def quadratic_2d():
    """The worked 2-D example: target (1, 2)."""
    return quadratic_objective([1.0, 2.0])


def quadratic_2d_unit_l1():
    """2-D quadratic whose minimizer has unit l1 norm (target (1, 2)/3)."""
    return quadratic_objective([1.0 / 3.0, 2.0 / 3.0])


def quadratic_nd(n=10, seed=3):
    """Generic n-dimensional quadratic with a seeded Gaussian target."""
    rng = np.random.default_rng(seed)
    return quadratic_objective(rng.standard_normal(n))


def quadratic_geometric(n=64):
    """n-dimensional quadratic, target 0.9^k scaled to ||target||_1 = 1.

    The spread of coordinate scales keeps the greedy run busy at every stage,
    which makes it a good rate-measurement instance.  ``n`` stays a
    parameter although only tests set it to another value:
    ``perfbench/worker.py`` calls ``quadratic_geometric(64)`` positionally.
    """
    t = 0.9 ** np.arange(n)
    return quadratic_objective(t / np.sum(t))


def logistic_20x5_spec():
    """20 x 5 logistic instance, non-separable by construction, as a config's
    objective spec.

    Fifteen rows get labels from a noisy linear model; the first five rows are
    then repeated with flipped labels.  Any weight vector misclassifies one row
    of each repeated pair, so the loss is coercive and the infimum is attained.
    """
    rng = np.random.default_rng(7)
    base = rng.standard_normal((15, 5))
    w = rng.standard_normal(5)
    margins = base @ w + 0.4 * rng.standard_normal(15)
    labels = np.where(margins >= 0, 1.0, -1.0)
    return {"kind": "logistic", "design": np.vstack([base, base[:5]]).tolist(),
            "labels": np.concatenate([labels, -labels[:5]]).tolist(),
            "region_radius": 10.0}


def logistic_20x5():
    """The objective of ``logistic_20x5_spec``."""
    spec = logistic_20x5_spec()
    return logistic_objective(spec["design"], spec["labels"],
                              spec["region_radius"])


def p_power_spec():
    """Random full-rank 10 x 4 p-power regression instance at p = 1.5
    (smoothness exponent q = p), as a config's objective spec."""
    rng = np.random.default_rng(9)
    return {"kind": "p_power", "design": rng.standard_normal((10, 4)).tolist(),
            "response": rng.standard_normal(10).tolist(), "p": 1.5}


def p_power_instance():
    """The objective of ``p_power_spec``."""
    spec = p_power_spec()
    return p_power_objective(spec["design"], spec["response"], spec["p"])
