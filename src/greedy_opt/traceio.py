"""Trace and manifest serialization: locale-independent CSV, atomic writes.

Floats go out with 17 significant digits so values round-trip exactly; files
end every line with LF regardless of platform.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .dictionaries import Atom
from .greedy import RunTrace

__all__ = [
    "TRACE_COLUMNS",
    "trace_csv_text",
    "write_trace_csv",
    "read_trace_csv",
    "manifest_text",
    "write_manifest",
    "atomic_write_text",
]

TRACE_COLUMNS = ["m", "E", "gap", "E_D", "c_m", "atom", "sign", "A_m",
                 "sum_c", "sum_cED", "flags"]


_ROW = "%d,%.17g,%s,%.17g,%.17g,%d,%d,%.17g,%.17g,%.17g,%s"


def _atom_cells(atom):
    """(index, sign); None is a sphere atom read back without its vector,
    whose sign is folded into the vector, so its cells are always (-1, 1)."""
    return (-1, 1) if atom is None else (atom.index, atom.sign)


def trace_csv_text(trace):
    gaps = trace.gaps()
    gaps = [""] * len(trace) if gaps is None else ["%.17g" % g for g in gaps]
    rows = zip(trace.E, gaps, trace.ED, trace.c, trace.atoms, trace.A,
               trace.sum_c, trace.sum_cED, trace.flags, strict=True)
    lines = [",".join(TRACE_COLUMNS)]
    lines += [_ROW % (m, e, gap, ed, c, *_atom_cells(atom), *rest)
              for m, (e, gap, ed, c, atom, *rest) in enumerate(rows, 1)]
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text):
    """Write via a temp file in the same directory plus rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_trace_csv(trace, path):
    atomic_write_text(path, trace_csv_text(trace))


def read_trace_csv(path):
    """Rebuild a trace from CSV; A_m, sum_c and sum_cED must equal the sums
    derived from c_m and E_D.

    Config and explicit atom vectors are not serialized, so the result suits
    diagnostics and plotting, not replay of sphere runs: a sphere atom
    (index -1, sign 1) reads back as None, which ``trace_csv_text`` writes
    back as the same cells.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header {header}")
        trace = RunTrace(algorithm="", status="", E0=float("nan"),
                         ED0=float("nan"))
        infimum = None
        sums = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(TRACE_COLUMNS):
                raise ValueError(f"malformed trace row: {line!r}")
            (_m, e, gap, ed, c, atom, sign, a, sum_c, sum_ced, flags) = parts
            trace.E.append(float(e))
            trace.ED.append(float(ed))
            trace.c.append(float(c))
            if int(atom) < 0 and int(sign) != 1:
                raise ValueError(f"sphere atom with sign {sign}: {line!r}")
            trace.atoms.append(Atom(index=int(atom), sign=int(sign))
                               if int(atom) >= 0 else None)
            trace.flags.append(flags)
            sums.append((float(a), float(sum_c), float(sum_ced)))
            if gap != "" and infimum is None:
                infimum = float(e) - float(gap)
        trace.infimum = infimum
    if not np.array_equal(sums, list(zip(trace.A, trace.sum_c, trace.sum_cED)),
                          equal_nan=True):
        raise ValueError(f"{path}: A_m, sum_c or sum_cED disagrees with the "
                         "running sums of c_m and E_D")
    return trace


def manifest_text(manifest):
    """Strict JSON: a NaN or infinite value raises ValueError."""
    return json.dumps(manifest, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_manifest(manifest, path):
    atomic_write_text(path, manifest_text(manifest))
