"""Peak resident memory of one ``greedy-opt`` command, run in this process.

Usage, from the repository root: python tools/peak_rss.py ARGS...
(ARGS as ``greedy-opt`` takes them, e.g. ``run config.json --out o`` or
``verify --out v``).  Standard library only, besides greedy_opt itself,
which is imported from src/ next to this file.

The script calls ``greedy_opt.cli.main(ARGS)`` once and prints one JSON
line: the exit code, the peak RSS of this process (``RUSAGE_SELF``) and the
largest peak RSS among its waited-for children (``RUSAGE_CHILDREN``), in MB
of 1024 KiB, as ``ru_maxrss`` reports them on Linux, and this process's own
high-water mark ``VmHWM`` from ``/proc/self/status`` (``self_hwm_mb``; null
where that file is absent).  The children are the workers that ``verify``
forks for its criteria.  The command's own output goes to stderr, so stdout
holds the JSON line alone.  The self peak includes the interpreter and the
imports, as a one-shot ``greedy-opt`` would.

The two self figures differ when a large process launched this one.  Linux
carries ``ru_maxrss`` across exec, so a process started by vfork or
``posix_spawn`` (as ``subprocess`` does) reports at least its launcher's
peak: a ``python -c`` child of a parent that peaked at 224 MB read 224 MB
as its own ``ru_maxrss`` and 13 MB as its ``VmHWM``.  Exec resets
``VmHWM``, so it is this command's own peak alone.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from greedy_opt.cli import main  # noqa: E402


def _peak_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _hwm_mb():
    """``VmHWM`` of this process in MB, or None without /proc/self/status."""
    try:
        status = Path("/proc/self/status").read_text(encoding="ascii")
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return round(int(line.split()[1]) / 1024.0, 2)
    return None


def measure(argv):
    """``{"exit": code, "self_mb": ..., "self_hwm_mb": ...,
    "children_mb": ...}`` for one command."""
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    return {"exit": code,
            "self_mb": round(_peak_mb(resource.RUSAGE_SELF), 2),
            "self_hwm_mb": _hwm_mb(),
            "children_mb": round(_peak_mb(resource.RUSAGE_CHILDREN), 2)}


if __name__ == "__main__":
    print(json.dumps({"argv": sys.argv[1:], **measure(sys.argv[1:])}))
