"""Peak resident memory of one ``greedy-opt`` command, run in this process.

Usage, from the repository root: python tools/peak_rss.py ARGS...
(ARGS as ``greedy-opt`` takes them, e.g. ``run config.json --out o`` or
``verify --out v``).  Standard library only, besides greedy_opt itself,
which is imported from src/ next to this file.

The script calls ``greedy_opt.cli.main(ARGS)`` once and prints one JSON
line: the exit code, the peak RSS of this process (``RUSAGE_SELF``) and the
largest peak RSS among its waited-for children (``RUSAGE_CHILDREN``), in MB
of 1024 KiB, as ``ru_maxrss`` reports them on Linux.  The children are the
workers that ``verify`` forks for its criteria.  The command's own output
goes to stderr, so stdout holds the JSON line alone.  The self peak includes
the interpreter and the imports, as a one-shot ``greedy-opt`` would.
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


def measure(argv):
    """``{"exit": code, "self_mb": ..., "children_mb": ...}`` for one
    command."""
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    return {"exit": code,
            "self_mb": round(_peak_mb(resource.RUSAGE_SELF), 2),
            "children_mb": round(_peak_mb(resource.RUSAGE_CHILDREN), 2)}


if __name__ == "__main__":
    print(json.dumps({"argv": sys.argv[1:], **measure(sys.argv[1:])}))
