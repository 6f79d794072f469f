"""One benchmark round in a fresh process.

Imports ``greedy_opt`` from the checkout's ``src``, builds the workload's inputs
once through the public builders (set-up), then runs the round's CLI commands
back to back through ``greedy_opt.cli.main`` and times them.  With ``--trace``
the public functions are wrapped first and the spans are saved at the end.
The last line on stdout is a JSON report for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup_build(build):
    """Build the workload's inputs once through the program's public builders."""
    from greedy_opt import FiniteDictionary, cli, instances, make_power_coefficients

    if build == "verify":
        # the suite's instances, and the inputs of its coordinate-64 criteria
        instances.quadratic_geometric(64)
        instances.quadratic_2d_unit_l1()
        instances.logistic_20x5()
        instances.p_power_instance()
        FiniteDictionary.coordinate(64)
        make_power_coefficients(1.0, 2.0, 0.5)
        return
    for item in build:
        objective = cli.build_objective(item["objective"], item["base"])
        for spec in item["dictionaries"]:
            cli.build_dictionary(spec, item["base"])
        if item["coefficients"] is not None:
            cli.build_coefficients(item["coefficients"], objective)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import greedy_opt
    from greedy_opt import cli, verification

    if Path(greedy_opt.__file__).resolve().parent.parent != src:
        raise SystemExit(f"greedy_opt imported from {greedy_opt.__file__}, "
                         f"not from {src}")
    plan = json.loads(Path(args.plan).read_text())
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    _setup_build(plan["build"])
    ready = time.monotonic()

    out = Path(args.out)
    commands = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    for template in plan["commands"]:
        argv_cmd = [a.replace("{out}", str(out)) for a in template]
        buf = io.StringIO()
        error = None
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv_cmd)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # reported as a failed command, not a crashed round
                rc = None
                error = traceback.format_exc()
        commands.append({"argv": argv_cmd, "rc": rc, "stdout": buf.getvalue(),
                         "error": error})
    wall = time.perf_counter() - started
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    report = {
        "ready": ready,
        "wall_s": wall,
        "user_cpu_s": usage1.ru_utime - usage0.ru_utime,
        "sys_cpu_s": usage1.ru_stime - usage0.ru_stime,
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "commands": commands,
    }
    if tracer is not None:
        from tracer import layer_metrics
        spans = tracer.save(out / "spans.npz")
        report["layers"] = layer_metrics(spans, tracer.keys,
                                         verification.criterion_names())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
