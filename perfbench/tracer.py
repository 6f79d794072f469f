"""Spans around the program's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function with a wrapper wherever
callers look the name up: class attributes, every ``greedy_opt`` module
namespace that holds the function (modules import functions by name), and the
``verification.CRITERIA`` list.  Each call records one span: its layer key,
start, end, parent span and thread.  Spans stay in per-thread buffers in memory
until ``save`` writes them; ``layer_metrics`` derives the per-layer figures,
with self time computed per thread from the parent links.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

import numpy as np

# (layer key, module, attribute) for module-level functions
FUNCTIONS = [
    ("dictionaries.lookahead", "dictionaries", "argmin_atom_by_objective"),
    ("objectives.reference", "objectives", "reference_infimum"),
    ("objectives.audit", "objectives", "validate_objective"),
    ("greedy.driver", "greedy", "run_gbe"),
    ("greedy.driver", "greedy", "run_ega"),
    ("greedy.driver", "greedy", "run_gga_fixed"),
    ("greedy.driver", "greedy", "run_gga_adaptive"),
    ("greedy.driver", "greedy", "run_gega"),
    ("greedy.step_solve", "greedy", "solve_stepsize"),
    ("greedy.line_search", "greedy", "line_search_exact"),
    ("greedy.schedule", "greedy", "make_power_coefficients"),
    ("greedy.replay", "greedy", "iter_states"),
    ("greedy.bound_check", "greedy", "score_gap_bound"),
    ("greedy.bound_check", "greedy", "check_rate_bound"),
    ("core.sample", "core", "sample_ball"),
    ("core.sample", "core", "unit_direction"),
    ("core.sandwich", "core", "smoothness_gap_check"),
    ("core.witness", "core", "majorant_domination_witness"),
    ("core.dual_norm", "core", "dual_norm"),
    ("diagnostics.fit", "diagnostics", "fit_rate"),
    ("diagnostics.verdict", "diagnostics", "claim_verdict"),
    ("traceio.serialize", "traceio", "trace_csv_text"),
    ("traceio.write", "traceio", "atomic_write_text"),
    ("traceio.manifest", "traceio", "write_manifest"),
    ("cli.run", "cli", "execute_run"),
    ("cli.build", "cli", "build_objective"),
    ("cli.build", "cli", "build_dictionary"),
    ("cli.build", "cli", "build_weakness"),
    ("cli.build", "cli", "build_coefficients"),
    ("cli.build", "cli", "build_majorant"),
    ("cli.build", "cli", "build_stop"),
]

# (layer key, module, class, attribute) for methods looked up on the class
METHODS = [
    ("dictionaries.scan", "dictionaries", "FiniteDictionary", "pairings"),
    ("dictionaries.build", "dictionaries", "FiniteDictionary", "__init__"),
    ("dictionaries.build", "dictionaries", "FiniteDictionary", "coordinate"),
    ("dictionaries.build", "dictionaries", "FiniteDictionary", "gaussian"),
    ("dictionaries.build", "dictionaries", "FiniteDictionary", "from_csv"),
    ("objectives.value", "objectives", "Objective", "__call__"),
    ("objectives.gradient", "objectives", "Objective", "gradient"),
]


def _scan_size(args, result):
    return args[0].size, 0


def _trace_rows(args, result):
    return len(args[0]), len(result)


def _driver_rows(args, result):
    return len(result), 0


EXTRAS = {
    "pairings": _scan_size,
    "trace_csv_text": _trace_rows,
    "run_gbe": _driver_rows,
    "run_ega": _driver_rows,
    "run_gga_fixed": _driver_rows,
    "run_gga_adaptive": _driver_rows,
    "run_gega": _driver_rows,
}


class _Buffer:
    """Spans of one thread; ``parent`` indexes into the same buffer."""

    def __init__(self, thread):
        self.thread = thread
        self.key = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extra1 = array("q")
        self.extra2 = array("q")
        self.stack = []


class Tracer:
    def __init__(self):
        self.keys = []
        self._key_ids = {}
        self._local = threading.local()
        self._buffers = []
        self._buffers_lock = threading.Lock()

    def _key(self, name):
        if name not in self._key_ids:
            self._key_ids[name] = len(self.keys)
            self.keys.append(name)
        return self._key_ids[name]

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._buffers_lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _call(self, key_id, extra, fn, args, kwargs):
        buf = self._buffer()
        idx = len(buf.key)
        buf.key.append(key_id)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.start.append(0.0)
        buf.end.append(0.0)
        buf.extra1.append(0)
        buf.extra2.append(0)
        buf.stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            buf.stack.pop()
            buf.start[idx] = t0
            buf.end[idx] = t1
        if extra is not None:
            buf.extra1[idx], buf.extra2[idx] = extra(args, result)
        return result

    def wrap(self, key, fn, extra=None):
        key_id = self._key(key)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(key_id, extra, fn, args, kwargs)
        return wrapper

    def wrap_generator(self, key, fn):
        """Each resumption of the generator is one span."""
        key_id = self._key(key)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = call(key_id, None, next, (it,), {})
                except StopIteration:
                    return
                yield item
        return wrapper

    def install(self, package="greedy_opt"):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for key, mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], attr)
            if inspect.isgeneratorfunction(original):
                wrapped = self.wrap_generator(key, original)
            else:
                wrapped = self.wrap(key, original, EXTRAS.get(attr))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
        for key, mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{package}.{mod_name}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(key, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(key, raw, EXTRAS.get(attr)))
        verification = sys.modules[f"{package}.verification"]
        names = verification.criterion_names()
        criteria = verification.CRITERIA
        for i, (name, fn) in enumerate(zip(names, criteria)):
            criteria[i] = self.wrap(f"verification.{name}", fn)

    def arrays(self):
        """All spans as flat arrays; parents are re-indexed to the flat order."""
        parts = {f: [] for f in ("key", "parent", "start", "end", "extra1",
                                 "extra2", "thread")}
        offset = 0
        for buf in self._buffers:
            n = len(buf.key)
            parent = np.asarray(buf.parent, dtype=np.int64)
            parent[parent >= 0] += offset
            parts["parent"].append(parent)
            parts["key"].append(np.asarray(buf.key, dtype=np.int32))
            parts["start"].append(np.asarray(buf.start, dtype=float))
            parts["end"].append(np.asarray(buf.end, dtype=float))
            parts["extra1"].append(np.asarray(buf.extra1, dtype=np.int64))
            parts["extra2"].append(np.asarray(buf.extra2, dtype=np.int64))
            parts["thread"].append(np.full(n, buf.thread, dtype=np.int32))
            offset += n
        return {f: (np.concatenate(v) if v else np.zeros(0))
                for f, v in parts.items()}

    def save(self, path):
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.keys), **spans)
        return spans


def _has_ancestor(parent, key, wanted):
    """For each span, whether ``wanted(ancestor_key, span_index)`` holds for
    some proper ancestor."""
    found = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return found
        found[live] |= wanted(key[anc[live]], np.flatnonzero(live))
        anc[live] = parent[anc[live]]


def layer_metrics(spans, keys, criterion_names):
    """Per-layer counts and busy times of one round, from its spans."""
    key = spans["key"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=key.size)
    self_time = dur - child
    # spans nested in a span of their own key (recursion, a classmethod calling
    # __init__) are counted inside the outer one only
    nested = _has_ancestor(parent, key, lambda anc_key, idx: anc_key == key[idx])
    outer = ~nested
    ids = {name: i for i, name in enumerate(keys)}

    def sel(name, outer_only=True):
        mask = key == ids.get(name, -1)
        return mask & outer if outer_only else mask

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def busy(name):
        return float(np.sum(dur[sel(name)]))

    in_line_search = _has_ancestor(
        parent, key,
        lambda anc_key, idx: anc_key == ids.get("greedy.line_search", -1))
    driver = sel("greedy.driver", outer_only=False)
    iterations = int(np.sum(spans["extra1"][driver]))
    driver_self = float(np.sum(self_time[driver]))
    serialize = sel("traceio.serialize")
    m = {}
    for name in criterion_names:
        m[f"verification.{name}_s"] = busy(f"verification.{name}")
    m.update({
        "dictionaries.scan_calls": calls("dictionaries.scan"),
        "dictionaries.atoms_scored": int(np.sum(spans["extra1"][sel("dictionaries.scan")])),
        "dictionaries.scan_s": busy("dictionaries.scan"),
        "dictionaries.lookahead_calls": calls("dictionaries.lookahead"),
        "dictionaries.lookahead_s": busy("dictionaries.lookahead"),
        "dictionaries.build_s": busy("dictionaries.build"),
        "objectives.value_calls": calls("objectives.value"),
        "objectives.value_s": busy("objectives.value"),
        "objectives.gradient_calls": calls("objectives.gradient"),
        "objectives.gradient_s": busy("objectives.gradient"),
        "objectives.reference_s": busy("objectives.reference"),
        "objectives.audit_s": busy("objectives.audit"),
        "greedy.iterations": iterations,
        "greedy.driver_self_s": driver_self,
        "greedy.driver_us_per_iter": (1e6 * driver_self / iterations
                                      if iterations else 0.0),
        "greedy.step_solve_calls": calls("greedy.step_solve"),
        "greedy.step_solve_s": busy("greedy.step_solve"),
        "greedy.line_search_calls": calls("greedy.line_search"),
        "greedy.line_search_s": busy("greedy.line_search"),
        "greedy.line_search_grad_evals": int(np.count_nonzero(
            sel("objectives.gradient", outer_only=False) & in_line_search)),
        "greedy.schedule_calls": calls("greedy.schedule"),
        "greedy.schedule_s": busy("greedy.schedule"),
        "greedy.replay_s": busy("greedy.replay"),
        "greedy.bound_check_s": busy("greedy.bound_check"),
        "core.sample_s": busy("core.sample"),
        "core.sandwich_s": busy("core.sandwich"),
        "core.witness_s": busy("core.witness"),
        "core.dual_norm_calls": calls("core.dual_norm"),
        "core.dual_norm_s": busy("core.dual_norm"),
        "diagnostics.fit_s": busy("diagnostics.fit"),
        "diagnostics.verdict_s": busy("diagnostics.verdict"),
        "traceio.rows": int(np.sum(spans["extra1"][serialize])),
        "traceio.bytes": int(np.sum(spans["extra2"][serialize])),
        "traceio.serialize_s": busy("traceio.serialize"),
        "traceio.write_s": busy("traceio.write"),
        "traceio.manifest_s": busy("traceio.manifest"),
        "cli.run_calls": calls("cli.run"),
        "cli.run_s": busy("cli.run"),
        "cli.build_s": busy("cli.build"),
    })
    return m
