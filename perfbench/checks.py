"""Checks of the program's outputs against computations made apart from it.

Nothing here imports ``greedy_opt`` or compares against stored output.  Each
trace is replayed from its ``c_m``/``atom``/``sign`` columns with plain numpy,
on inputs rebuilt from their definitions in ``workloads.py``, and the replayed
iterates are tested against the properties the schemes guarantee.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import workloads as W

_INT_COLUMNS = ("m", "atom", "sign")


def load_trace(path):
    """A trace CSV as a dict of numpy columns (``flags`` stays a list)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    columns = list(zip(*rows)) if rows else [()] * len(header)
    trace = {}
    for name, col in zip(header, columns):
        if name == "flags":
            trace[name] = list(col)
        elif name in _INT_COLUMNS:
            trace[name] = np.array(col, dtype=np.int64)
        elif name == "gap":
            trace[name] = np.array([float(x) if x else np.nan for x in col])
        else:
            trace[name] = np.array(col, dtype=float)
    return trace


def _close(a, b, rtol, atol=0.0):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))
                       + atol))


def _replay(trace, atoms):
    """Iterates G_0 .. G_n from the trace's steps; ``atoms`` is dim x count."""
    steps = (trace["c_m"] * trace["sign"])[:, None] * atoms[:, trace["atom"]].T
    G = np.cumsum(steps, axis=0)
    return np.vstack([np.zeros(atoms.shape[0]), G])


def _common(trace, problems, name):
    A = trace["A_m"]
    if np.any(np.diff(A) < 0):
        problems.append(f"{name}: A_m decreases")
    if not _close(A, np.cumsum(np.abs(trace["c_m"])), 1e-12):
        problems.append(f"{name}: A_m is not the running sum of |c_m|")
    if not np.all(np.isfinite(trace["E"])):
        problems.append(f"{name}: non-finite E")


def check_quadratic_coordinate(trace, target, scale, name, adaptive_b=None):
    """Replay a coordinate-dictionary run on 0.5*scale*||x - target||^2."""
    problems = []
    _common(trace, problems, name)
    dim = target.size
    G = _replay(trace, np.eye(dim))
    D = G - target
    E = 0.5 * scale * np.sum(D * D, axis=1)
    score = np.max(np.abs(scale * D), axis=1)
    if not _close(E[1:], trace["E"], 1e-12, 1e-300):
        problems.append(f"{name}: recomputed E differs from the trace")
    if not _close(E[1:], trace["gap"], 1e-12, 1e-300):
        problems.append(f"{name}: gap differs from E - 0")
    if not _close(score[1:], trace["E_D"], 1e-12, 1e-300):
        problems.append(f"{name}: E_D differs from the recomputed score")
    if adaptive_b is not None:
        if np.any(E[1:] > E[:-1] * (1 + 1e-12)):
            problems.append(f"{name}: E increases on an adaptive run")
        need = E[:-1] - (1 - adaptive_b) * trace["c_m"] * score[:-1]
        if np.any(E[1:] > need + 1e-10 + 1e-12 * E[:-1]):
            problems.append(f"{name}: energy-decrease inequality fails")
    return problems, E


# --- verify ------------------------------------------------------------------

def _geometric64():
    t = 0.9 ** np.arange(64)
    return t / np.sum(t)


# trace file -> (target from its formula, scale, b for adaptive runs)
VERIFY_QUADRATIC_TRACES = {
    "c02_adaptive_quadratic-2d.csv": (np.array([1.0, 2.0]), 1.0, 0.5),
    "c02_adaptive_quadratic-64d.csv": (_geometric64(), 1.0, 0.5),
    "c04_score_gap_run.csv": (_geometric64(), 1.0, None),
    "c05_fixed_gga.csv": (np.array([1.0, 2.0]) / 3.0, 1.0, None),
    "c05_fixed_ega.csv": (np.array([1.0, 2.0]) / 3.0, 1.0, None),
    "c06_power_rate.csv": (_geometric64(), 1.0, None),
    "c07_adaptive_rate.csv": (_geometric64(), 1.0, 0.5),
    "c09_line_search_two_step.csv": (np.array([1.0, 2.0]), 1.0, None),
}
VERIFY_CRITERIA = 15


def _verify_operations(commands):
    out = commands[0]["stdout"]
    marks = [line.split()[0] for line in out.splitlines()
             if line.startswith(("PASS ", "FAIL "))]
    if len(marks) != VERIFY_CRITERIA:
        return VERIFY_CRITERIA, VERIFY_CRITERIA
    return VERIFY_CRITERIA, marks.count("FAIL")


def check_verify(round_dir, commands, ctx):
    problems = []
    attempted, failed = _verify_operations(commands)
    out = commands[0]["stdout"]
    if failed == 0 and (commands[0]["rc"] != 0
                        or f"{VERIFY_CRITERIA}/{VERIFY_CRITERIA} criteria passed"
                        not in out):
        problems.append("verify: every criterion passed but exit/summary disagree")
    if failed == 0:
        for fname, (target, scale, b) in VERIFY_QUADRATIC_TRACES.items():
            path = Path(round_dir) / fname
            if not path.exists():
                problems.append(f"verify: {fname} missing")
                continue
            found, _ = check_quadratic_coordinate(load_trace(path), target,
                                                  scale, fname, adaptive_b=b)
            problems += found
    return attempted, failed, problems


def corrupt_verify(round_dir, ctx):
    fname = "c06_power_rate.csv"
    target, scale, b = VERIFY_QUADRATIC_TRACES[fname]
    trace = _corrupted(load_trace(Path(round_dir) / fname))
    found, _ = check_quadratic_coordinate(trace, target, scale, fname, b)
    return bool(found)


def _corrupted(trace):
    """The same trace with one E value off by one part in a million."""
    E = trace["E"].copy()
    E[E.size // 2] *= 1.0 + 1e-6
    return dict(trace, E=E)


# --- sweep-gaussian ----------------------------------------------------------

def check_gaussian_row(trace, kind, atoms, target, name):
    """Replay one sweep point on its rebuilt Gaussian dictionary."""
    problems = []
    _common(trace, problems, name)
    G = _replay(trace, atoms)
    V = target - G                      # negative gradient of the quadratic
    S = V @ atoms                       # every pairing at every iterate
    best = np.max(np.abs(S), axis=1)
    E = 0.5 * np.sum(V * V, axis=1)
    if not _close(E[1:], trace["E"], 1e-9):
        problems.append(f"{name}: recomputed E differs from the trace")
    if not _close(best[1:], trace["E_D"], 1e-9):
        problems.append(f"{name}: E_D differs from the recomputed score")
    rows = np.arange(trace["atom"].size)
    chosen = trace["sign"] * S[rows, trace["atom"]]
    tol = 1e-9 * np.linalg.norm(V[:-1], axis=1)
    if np.any(chosen < best[:-1] - tol):
        problems.append(f"{name}: a chosen atom misses the maximal |pairing|")
    if np.any(E[1:] > E[:-1] * (1 + 1e-12)):
        problems.append(f"{name}: E increases")
    if kind == "GGA_ADAPTIVE":
        need = E[:-1] - (1 - W.SWEEP_B) * trace["c_m"] * best[:-1]
        if np.any(E[1:] > need + 1e-10 + 1e-12 * E[:-1]):
            problems.append(f"{name}: energy-decrease inequality fails")
    return problems


def _sweep_summary(round_dir):
    path = Path(round_dir) / "summary.csv"
    if not path.exists():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _atoms(ctx, dict_seed):
    """The rebuilt dictionary, built once per run and seed."""
    if dict_seed not in ctx["atoms"]:
        ctx["atoms"][dict_seed] = W.gaussian_atoms(dict_seed)
    return ctx["atoms"][dict_seed]


def check_sweep(round_dir, commands, ctx):
    target, dict_seeds = W.sweep_inputs(ctx["seed"])
    points = [(k, s) for k in W.SWEEP_KINDS for s in dict_seeds]
    attempted = len(points)
    rows = _sweep_summary(round_dir)
    if commands[0]["rc"] is None or rows is None or len(rows) != attempted:
        return attempted, attempted, []
    failed = sum(1 for r in rows if r[3].startswith("error"))
    problems = []
    if failed:
        return attempted, failed, problems
    for index, ((kind, dict_seed), row) in enumerate(zip(points, rows)):
        if json.loads(row[1]) != kind or json.loads(row[2]) != dict_seed:
            problems.append(f"sweep row {index}: unexpected grid point {row[:3]}")
            continue
        atoms = _atoms(ctx, dict_seed)
        trace = load_trace(Path(round_dir) / f"run_{index:04d}" / "trace.csv")
        if trace["m"].size != W.SWEEP_ITERS:
            problems.append(f"sweep row {index}: {trace['m'].size} rows")
        problems += check_gaussian_row(trace, kind, atoms, target,
                                       f"sweep row {index}")
    return attempted, failed, problems


def corrupt_sweep(round_dir, ctx):
    target, dict_seeds = W.sweep_inputs(ctx["seed"])
    atoms = _atoms(ctx, dict_seeds[0])
    trace = _corrupted(load_trace(Path(round_dir) / "run_0000" / "trace.csv"))
    return bool(check_gaussian_row(trace, W.SWEEP_KINDS[0], atoms, target,
                                   "corrupted"))


# --- run-objective -----------------------------------------------------------

def power_rule_coefficients(gamma, count, t=1.0, q=2.0, terms=1_000_000):
    """c_k = c k^-s with s = (t+1)/(t+q) and gamma c^q Z = 1 (series bound Z)."""
    s = (t + 1.0) / (t + q)
    a = s * q
    k = np.arange(1, terms + 1, dtype=float)
    Z = float(np.sum(k ** (-a))) + terms ** (1.0 - a) / (a - 1.0)
    c = (gamma * Z) ** (-1.0 / q)
    return c * np.arange(1, count + 1, dtype=float) ** (-s)


def check_ega(trace, target, name):
    """EGA on 0.5*||x - target||^2 over signed coordinates, power-rule steps."""
    problems, E = check_quadratic_coordinate(trace, target, 1.0, name)
    n = trace["m"].size
    if not _close(trace["c_m"], power_rule_coefficients(0.5, n), 1e-12):
        problems.append(f"{name}: c_m is not the power-rule schedule")
    G = _replay(trace, np.eye(target.size))
    D = G[:-1] - target
    c = trace["c_m"]
    # E(G + c s e_j) - E(G) = c s D_j + c^2/2, least at the largest |D_j|
    chosen = c * trace["sign"] * D[np.arange(n), trace["atom"]]
    best = -c * np.max(np.abs(D), axis=1)
    if np.any(chosen > best + 1e-12 * (E[:-1] + c * c)):
        problems.append(f"{name}: a chosen atom misses the one-step minimum")
    if not E[-1] <= 1e-2:
        problems.append(f"{name}: final gap {E[-1]:.3e} above 1e-2")
    return problems


def logistic_value_grad(design, labels, x):
    z = labels * (design @ x)
    value = float(np.sum(np.logaddexp(0.0, -z)))
    grad = -(design.T @ (labels * np.exp(-np.logaddexp(0.0, z))))
    return value, grad


def logistic_optimum(design, labels):
    """L-BFGS minimum of the same loss, from scipy."""
    from scipy.optimize import minimize

    res = minimize(lambda x: logistic_value_grad(design, labels, x),
                   np.zeros(design.shape[1]), jac=True, method="L-BFGS-B",
                   options={"maxiter": 10_000, "ftol": 1e-15, "gtol": 1e-10,
                            "maxcor": 30})
    return float(res.fun)


GEGA_OPTIMUM_RTOL = 1e-6
GEGA_DERIVATIVE_TOL = 1e-9


def check_gega(trace, design, labels, optimum, name):
    """GEGA on the logistic loss over signed coordinates."""
    problems = []
    _common(trace, problems, name)
    G = _replay(trace, np.eye(design.shape[1]))
    values, grads = zip(*(logistic_value_grad(design, labels, g) for g in G))
    E = np.array(values)
    grads = np.array(grads)
    if not _close(E[1:], trace["E"], 1e-10):
        problems.append(f"{name}: recomputed E differs from the trace")
    if np.any(E[1:] > E[:-1] * (1 + 1e-12)):
        problems.append(f"{name}: E increases")
    # after an exact line search the derivative along the chosen atom vanishes
    after = grads[1:][np.arange(trace["atom"].size), trace["atom"]]
    scale = np.maximum(1.0, np.max(np.abs(grads[:-1]), axis=1))
    if np.any(np.abs(after) > GEGA_DERIVATIVE_TOL * scale):
        problems.append(f"{name}: derivative along a chosen atom is not ~0 "
                        f"(worst {np.max(np.abs(after) / scale):.3e})")
    gap = E[-1] - optimum
    if abs(gap) > GEGA_OPTIMUM_RTOL * (1.0 + abs(optimum)):
        problems.append(f"{name}: final E is {gap:.3e} from the L-BFGS optimum")
    return problems


def _manifest_ok(path, rows, problems, name):
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    results = manifest.get("results", {})
    if results.get("iterations") != rows:
        problems.append(f"{name}: manifest iterations != trace rows")
    if not results.get("verdicts"):
        problems.append(f"{name}: manifest has no claim verdicts")


def check_run_objective(round_dir, commands, ctx):
    attempted = len(commands)
    failed = sum(1 for c in commands if c["rc"] != 0)
    if failed:
        return attempted, failed, []
    problems = []
    seed = ctx["seed"]
    ega = load_trace(Path(round_dir) / "ega" / "trace.csv")
    if ega["m"].size != W.EGA_ITERS:
        problems.append(f"ega: {ega['m'].size} rows")
    problems += check_ega(ega, W.ega_target(seed), "ega")
    _manifest_ok(Path(round_dir) / "ega" / "manifest.json", ega["m"].size,
                 problems, "ega")
    design, labels = W.logistic_data(seed)
    if "optimum" not in ctx:
        ctx["optimum"] = logistic_optimum(design, labels)
    gega = load_trace(Path(round_dir) / "gega" / "trace.csv")
    if gega["m"].size != W.GEGA_ITERS:
        problems.append(f"gega: {gega['m'].size} rows")
    problems += check_gega(gega, design, labels, ctx["optimum"], "gega")
    _manifest_ok(Path(round_dir) / "gega" / "manifest.json", gega["m"].size,
                 problems, "gega")
    return attempted, failed, problems


def corrupt_run_objective(round_dir, ctx):
    trace = _corrupted(load_trace(Path(round_dir) / "ega" / "trace.csv"))
    return bool(check_ega(trace, W.ega_target(ctx["seed"]), "corrupted"))


CHECKS = {
    "verify": (check_verify, corrupt_verify),
    "sweep-gaussian": (check_sweep, corrupt_sweep),
    "run-objective": (check_run_objective, corrupt_run_objective),
}


def count_rows(round_dir):
    """Trace rows the round wrote: its completed expansion iterations."""
    total = 0
    for path in Path(round_dir).rglob("*.csv"):
        if path.name == "summary.csv":
            continue
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh) - 1
    return total
