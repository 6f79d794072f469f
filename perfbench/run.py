"""greedy-opt benchmark: one workload, whole rounds for ``--seconds``, checked outputs.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Each round runs in a fresh worker process (closed loop: the next round starts
when the previous one has ended).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics plus the tracing overhead.  Outputs of every round are
checked after the timed rounds by ``checks.py``.  The last stdout line is the
JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
THREAD_VARS = ("GREEDY_OPT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def machine_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_round(plan_path, round_dir, trace):
    round_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--plan", str(plan_path), "--out", str(round_dir),
           "--trace", str(int(trace))]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    report["traced"] = bool(trace)
    report["dir"] = round_dir
    return report


def run_rounds(plan_path, out, seconds, trace):
    """Whole rounds until ``seconds`` is used up, at least MIN_ROUNDS of them.

    With tracing, rounds alternate untraced / traced, starting untraced.
    """
    rounds = []
    begun = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(plan_path, out / f"round-{len(rounds):02d}",
                                traced))
        elapsed = time.monotonic() - begun
        mean = elapsed / len(rounds)
        enough = len(rounds) >= (2 * MIN_ROUNDS if trace else MIN_ROUNDS)
        if enough and elapsed + mean > seconds:
            return rounds


def _median(values):
    return float(statistics.median(values))


def end_to_end(rounds):
    return {
        "wall_s": (_median([r["wall_s"] for r in rounds]), "s"),
        "iters_per_s": (_median([r["rows"] / r["wall_s"] for r in rounds]),
                        "1/s"),
        "setup_s": (_median([r["setup_s"] for r in rounds]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in rounds]), "MB"),
    }


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_iter"):
        return "us"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def per_layer(rounds):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        out[name] = (_median([r["layers"][name] for r in traced]),
                     layer_unit(name))
    out["process.user_cpu_s"] = (_median([r["user_cpu_s"] for r in plain]), "s")
    out["process.sys_cpu_s"] = (_median([r["sys_cpu_s"] for r in plain]), "s")
    out["tracing.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                 - _median([r["wall_s"] for r in plain]), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "greedy_opt" / "__init__.py").is_file():
        print(f"benchmark: no greedy_opt sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    out = WORK / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plan = workloads.write_inputs(args.workload, args.seed, out / "inputs")
    plan_path = out / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    # compile the sources once so no timed round pays for byte-compilation
    subprocess.run([sys.executable, "-c", "import greedy_opt"], check=True,
                   cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                   timeout=ROUND_TIMEOUT_S)
    print("machine: " + json.dumps(machine_facts()))

    try:
        rounds = run_rounds(plan_path, out, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    check, corrupt = checks.CHECKS[args.workload]
    ctx = {"seed": args.seed, "atoms": {}}
    attempted = failed = 0
    problems = []
    for r in rounds:
        a, f, p = check(r["dir"], r["commands"], ctx)
        attempted, failed = attempted + a, failed + f
        problems += [f"{r['dir'].name}: {x}" for x in p]
        r["rows"] = checks.count_rows(r["dir"])
        for c in r["commands"]:
            if c["error"]:
                print(f"error in {r['dir'].name}: {c['error']}")
    # the first round is always untraced
    if failed == 0 and not corrupt(rounds[0]["dir"], ctx):
        problems.append("a trace with one corrupted E value was accepted")
    for p in problems:
        print(f"check: {p}")
    print("rounds: " + json.dumps([
        {"wall_s": r["wall_s"], "setup_s": r["setup_s"], "traced": r["traced"],
         "rows": r["rows"]} for r in rounds]))

    if args.trace:
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
