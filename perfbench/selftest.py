"""Show that the benchmark's accounting and output checks bite.

    python3 perfbench/selftest.py

1. One ``verify --inject-fault gamma-half`` round goes through the same worker
   and accounting as a measured round; the halved majorants must show up as
   failed operations (criteria), with exit code 1.
2. One clean round of each workload is checked as usual (it must pass), then
   the same check runs on a copy of one of its traces with one E value
   corrupted (it must be rejected).

Exits 0 when every check bit as expected, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import checks
import workloads


def _round(workload, seed, extra_args=()):
    out = run.WORK / f"selftest-{workload}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plan = workloads.write_inputs(workload, seed, out / "inputs")
    plan["commands"] = [cmd + list(extra_args) for cmd in plan["commands"]]
    plan_path = out / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    return run.run_round(plan_path, out / "round-00", trace=False)


def main():
    seed = 1
    ok = True

    r = _round("verify", seed, ["--inject-fault", "gamma-half"])
    attempted, failed, _ = checks.check_verify(r["dir"], r["commands"], {})
    rc = r["commands"][0]["rc"]
    bit = failed >= 1 and rc == 1
    ok &= bit
    print(f"gamma-half verify: exit {rc}, {failed}/{attempted} criteria "
          f"counted as failed -> {'caught' if bit else 'MISSED'}")

    for workload in workloads.WORKLOADS:
        check, corrupt = checks.CHECKS[workload]
        ctx = {"seed": seed, "atoms": {}}
        r = _round(workload, seed)
        attempted, failed, problems = check(r["dir"], r["commands"], ctx)
        clean = failed == 0 and not problems
        rejected = corrupt(r["dir"], ctx)
        ok &= clean and rejected
        print(f"{workload}: clean round {'passes' if clean else 'FAILS'} "
              f"({attempted - failed}/{attempted} operations), corrupted E "
              f"{'rejected' if rejected else 'ACCEPTED'}")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
