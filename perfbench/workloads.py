"""Seeded inputs and command plans for the three benchmark workloads.

Everything here is computed from the workload seed alone, with numpy only, so
the checks in ``checks.py`` can rebuild the same inputs without reading the
program's outputs.  ``write_inputs`` puts the generated files in a work
directory and returns the plan a worker process executes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("verify", "sweep-gaussian", "run-objective")

# sweep-gaussian: a 256-d quadratic against two 256 x 2000 Gaussian dictionaries
SWEEP_DIM = 256
SWEEP_COUNT = 2000
SWEEP_ITERS = 100
SWEEP_KINDS = ("GGA_ADAPTIVE", "GEGA")
SWEEP_B = 0.5

# run-objective: EGA on a 64-d quadratic, GEGA on a 400 x 64 logistic loss
EGA_DIM = 64
EGA_ITERS = 3000
LOGISTIC_BASE_ROWS = 320
LOGISTIC_FLIPPED_ROWS = 80
LOGISTIC_DIM = 64
GEGA_ITERS = 1000


def _rng(seed, stream):
    # one independent stream per input, so adding an input never shifts another
    return np.random.default_rng([int(seed), stream])


def sweep_inputs(seed):
    """Quadratic target and the two dictionary seeds of the sweep grid."""
    rng = _rng(seed, 1)
    target = rng.standard_normal(SWEEP_DIM)
    dict_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=2)]
    return target, dict_seeds


def gaussian_atoms(dict_seed):
    """The Gaussian dictionary as defined: seeded standard normals, unit columns."""
    A = np.random.default_rng(dict_seed).standard_normal((SWEEP_DIM, SWEEP_COUNT))
    return A / np.linalg.norm(A, axis=0)


def ega_target(seed):
    """64-d target: geometric magnitudes 0.9^k, shuffled, random signs, unit l1."""
    rng = _rng(seed, 2)
    mags = rng.permutation(0.9 ** np.arange(EGA_DIM))
    signs = rng.choice([-1.0, 1.0], size=EGA_DIM)
    t = signs * mags
    return t / np.sum(np.abs(t))


def logistic_data(seed):
    """400 x 64 logistic design, non-separable by construction.

    320 rows get labels from a noisy linear model; the first 80 rows are then
    repeated with flipped labels.  Any weight vector misclassifies one row of
    each repeated pair, and the 80 repeated rows span R^64, so the loss is
    coercive and its minimum is attained.
    """
    rng = _rng(seed, 3)
    base = rng.standard_normal((LOGISTIC_BASE_ROWS, LOGISTIC_DIM)) / 4.0
    w = rng.standard_normal(LOGISTIC_DIM)
    margins = base @ w + 0.5 * rng.standard_normal(LOGISTIC_BASE_ROWS)
    labels = np.where(margins >= 0, 1.0, -1.0)
    design = np.vstack([base, base[:LOGISTIC_FLIPPED_ROWS]])
    labels = np.concatenate([labels, -labels[:LOGISTIC_FLIPPED_ROWS]])
    return design, labels


def _config(objective, dictionary, algorithm, max_iter, claims, seed):
    return {
        "schema": 1,
        "seed": int(seed),
        "objective": objective,
        "dictionary": dictionary,
        "algorithm": algorithm,
        "stop": {"max_iter": max_iter, "grad_tol": 0.0, "target_gap": None},
        "diagnostics": {"claims": claims},
        "output": {"trace": "trace.csv", "manifest": "manifest.json"},
    }


def _write_json(path, payload):
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _write_csv(path, array):
    rows = np.atleast_2d(array)
    text = "\n".join(",".join(format(float(x), ".17g") for x in row)
                     for row in rows)
    path.write_text(text + "\n", encoding="utf-8")


def write_inputs(workload, seed, in_dir):
    """Generate the workload's input files; return the worker's plan.

    A plan lists the commands one round runs, each as CLI arguments with
    ``{out}`` standing for the round's output directory, plus the specs of the
    inputs the worker builds during set-up (``"verify"`` for the suite's own).
    """
    in_dir = Path(in_dir)
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify":
        # the suite's instances are fixed; the seed changes nothing here
        return {"workload": workload, "build": "verify",
                "commands": [["verify", "--out", "{out}"]]}
    if workload == "sweep-gaussian":
        target, dict_seeds = sweep_inputs(seed)
        config = _config(
            {"kind": "quadratic", "target": [float(x) for x in target],
             "scale": 1.0},
            {"kind": "gaussian", "dim": SWEEP_DIM, "count": SWEEP_COUNT,
             "seed": dict_seeds[0]},
            {"kind": SWEEP_KINDS[0], "tau": {"kind": "constant", "t": 1.0},
             "b": SWEEP_B, "mu": "objective"},
            SWEEP_ITERS, [], seed)
        grid = {"algorithm.kind": list(SWEEP_KINDS),
                "dictionary.seed": dict_seeds}
        _write_json(in_dir / "config.json", config)
        _write_json(in_dir / "grid.json", grid)
        build = [{"objective": config["objective"],
                  "dictionaries": [dict(config["dictionary"], seed=s)
                                   for s in dict_seeds],
                  "coefficients": None, "base": str(in_dir)}]
        return {"workload": workload, "build": build,
                "commands": [["sweep", str(in_dir / "config.json"),
                              "--grid", str(in_dir / "grid.json"),
                              "--out", "{out}"]]}
    if workload == "run-objective":
        ega = _config(
            {"kind": "quadratic",
             "target": [float(x) for x in ega_target(seed)], "scale": 1.0},
            {"kind": "coordinate", "dim": EGA_DIM},
            {"kind": "EGA",
             "coefficients": {"kind": "power-rule", "t": 1.0}},
            EGA_ITERS,
            [{"claim": "fixed-summable-convergence", "tolerance": 1e-2}],
            seed)
        design, labels = logistic_data(seed)
        _write_csv(in_dir / "design.csv", design)
        _write_csv(in_dir / "labels.csv", labels)
        gega = _config(
            {"kind": "logistic", "design_csv": "design.csv",
             "labels_csv": "labels.csv", "region_radius": 10.0},
            {"kind": "coordinate", "dim": LOGISTIC_DIM},
            {"kind": "GEGA", "tau": {"kind": "constant", "t": 1.0},
             "line_tol": 1e-12},
            GEGA_ITERS,
            [{"claim": "line-search-convergence", "tolerance": 1e-2}],
            seed)
        _write_json(in_dir / "ega.json", ega)
        _write_json(in_dir / "gega.json", gega)
        build = [{"objective": c["objective"], "dictionaries": [c["dictionary"]],
                  "coefficients": c["algorithm"].get("coefficients"),
                  "base": str(in_dir)} for c in (ega, gega)]
        return {"workload": workload, "build": build,
                "commands": [["run", str(in_dir / "ega.json"),
                              "--out", "{out}/ega"],
                             ["run", str(in_dir / "gega.json"),
                              "--out", "{out}/gega"]]}
    raise ValueError(f"unknown workload {workload!r}")
