"""CLI surface: configs, exit codes, file outputs, sweeps."""

import importlib.util
import itertools
import json
import re
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from greedy_opt.cli import CLAIM, FLOAT, INT, NUMBER, SCHEMA, main
from greedy_opt.diagnostics import ALL_CLAIMS, _power_series_sum
from greedy_opt.traceio import read_trace_csv

ROOT = Path(__file__).resolve().parents[1]


def strict_json(text):
    """``json.loads`` that refuses the non-standard NaN, Infinity and
    -Infinity constants."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def write_config(path, **overrides):
    config = {
        "schema": 1,
        "seed": 0,
        "objective": {"kind": "quadratic", "target": [1.0 / 3.0, 2.0 / 3.0]},
        "dictionary": {"kind": "coordinate", "dim": 2},
        "algorithm": {"kind": "GGA_ADAPTIVE",
                      "tau": {"kind": "constant", "t": 1.0}, "b": 0.5,
                      "mu": "objective"},
        "stop": {"max_iter": 150},
        "output": {"trace": "trace.csv", "manifest": "manifest.json"},
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return config


# a number JSON cannot carry, spelt as Python's json module writes or reads it
NON_FINITE = {"nan": "NaN", "inf": "Infinity", "minus-inf": "-Infinity",
              "overflow": "1e400"}

# GGA_ADAPTIVE under a subnormal majorant constant: the solved c_1 is inf
SUBNORMAL_GAMMA_ADAPTIVE = {"kind": "GGA_ADAPTIVE", "tau": 1.0, "b": 0.5,
                            "mu": {"kind": "power", "gamma": 5e-324,
                                   "q": 2.0}}
FIXED_SHORT_SCHEDULE = {"kind": "GGA_FIXED", "tau": 1.0,
                        "coefficients": {"kind": "explicit",
                                         "values": [0.5, 0.25]}}
LOGISTIC = {"kind": "logistic", "design": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            "labels": [1.0, -1.0, 1.0]}

# each config is rejected by a library constructor or driver, never by the CLI
# (but for max-iter-not-a-number and scale-not-a-number, which the CLI's
# integer and float checks now reject)
BAD_CONFIGS = {
    "schedule-shorter-than-run": {"algorithm": FIXED_SHORT_SCHEDULE},
    "nan-target": {"objective": {"kind": "quadratic",
                                 "target": [float("nan"), 0.5]}},
    "dictionary-dim-mismatch": {
        "objective": {"kind": "quadratic", "target": [0.1, 0.2, 0.3]},
        "dictionary": {"kind": "coordinate", "dim": 4}},
    "labels-not-pm1": {"objective": dict(LOGISTIC, labels=[1.0, 0.0, -1.0])},
    "max-iter-not-a-number": {"stop": {"max_iter": "ten"}},
    "dim-zero": {"dictionary": {"kind": "coordinate", "dim": 0}},
    "scale-not-a-number": {"objective": {"kind": "quadratic",
                                         "target": [0.5, 0.5], "scale": "x"}},
    "explicit-weakness-above-1": {
        "algorithm": {"kind": "GGA_ADAPTIVE", "b": 0.5,
                      "tau": {"kind": "explicit", "values": [2.0, 0.5]}}},
    "zero-region-radius-line-search": {
        "objective": dict(LOGISTIC, region_radius=0),
        "algorithm": {"kind": "GEGA", "tau": 1.0}},
    "gbe-zero-coefficient": {
        "algorithm": {"kind": "GBE", "t": 1.0,
                      "coefficients": {"kind": "explicit",
                                       "values": [0.5, 0.0, 0.25]}}},
}

# an integer field given something else, and the field the message names;
# int() truncated each of them, so each ran with exit 0
NON_INTEGER_FIELDS = {
    "max-iter-fraction": ({"stop": {"max_iter": 2.7}}, "stop.max_iter"),
    "max-iter-true": ({"stop": {"max_iter": True}}, "stop.max_iter"),
    "max-iter-whole-float": ({"stop": {"max_iter": 3.0}}, "stop.max_iter"),
    "coordinate-dim-fraction": (
        {"dictionary": {"kind": "coordinate", "dim": 2.5}}, "dictionary.dim"),
    "gaussian-dim-string": (
        {"dictionary": {"kind": "gaussian", "dim": "2", "count": 6,
                        "seed": 3}}, "dictionary.dim"),
    "gaussian-count-fraction": (
        {"dictionary": {"kind": "gaussian", "dim": 2, "count": 6.5,
                        "seed": 3}}, "dictionary.count"),
    "gaussian-seed-true": (
        {"dictionary": {"kind": "gaussian", "dim": 2, "count": 6,
                        "seed": True}}, "dictionary.seed"),
}

POWER_RULE = {"kind": "power-rule", "t": 1.0, "q": 2.0, "gamma": 0.5}

# a float field given something other than a finite number, and the field the
# message names; "nan" and "inf" ran and then failed to write the manifest
# (a traceback, exit 1), 10**400 ended in exit 4, the library's range checks
# refused "t": "nan", "q": true and "p": true without naming the field, and
# the others ran with exit 0
NON_FINITE_FLOAT_FIELDS = {
    "grad-tol-nan-string": ({"stop": {"max_iter": 5, "grad_tol": "nan"}},
                            "stop.grad_tol"),
    "target-gap-inf-string": ({"stop": {"max_iter": 5, "target_gap": "inf"}},
                              "stop.target_gap"),
    "line-tol-nan-string": (
        {"algorithm": {"kind": "GEGA", "tau": 1.0, "line_tol": "nan"}},
        "algorithm.line_tol"),
    "line-tol-true": (
        {"algorithm": {"kind": "GEGA", "tau": 1.0, "line_tol": True}},
        "algorithm.line_tol"),
    "b-numeric-string": ({"algorithm": {"kind": "GGA_ADAPTIVE", "b": "0.5"}},
                         "algorithm.b"),
    "gbe-t-true": (
        {"algorithm": {"kind": "GBE", "t": True, "coefficients": {
            "kind": "power", "c": 0.1, "s": 0.5}}}, "algorithm.t"),
    "weakness-t-true": ({"algorithm": {"kind": "GEGA", "t": True}},
                        "algorithm.t"),
    "tau-true": ({"algorithm": {"kind": "GEGA", "tau": True}},
                 "algorithm.tau"),
    "tau-t-numeric-string": (
        {"algorithm": {"kind": "GGA_ADAPTIVE", "b": 0.5,
                       "tau": {"kind": "constant", "t": "1"}}},
        "algorithm.tau.t"),
    "power-c-numeric-string": (
        {"algorithm": {"kind": "GGA_FIXED", "tau": 1.0, "coefficients": {
            "kind": "power", "c": "0.1", "s": 0.5}}},
        "algorithm.coefficients.c"),
    "power-s-true": (
        {"algorithm": {"kind": "GGA_FIXED", "tau": 1.0, "coefficients": {
            "kind": "power", "c": 0.1, "s": True}}},
        "algorithm.coefficients.s"),
    "power-rule-t-nan-string": (
        {"algorithm": {"kind": "EGA",
                       "coefficients": dict(POWER_RULE, t="nan")}},
        "algorithm.coefficients.t"),
    "power-rule-q-numeric-string": (
        {"algorithm": {"kind": "EGA",
                       "coefficients": dict(POWER_RULE, q="2")}},
        "algorithm.coefficients.q"),
    "power-rule-gamma-true": (
        {"algorithm": {"kind": "EGA",
                       "coefficients": dict(POWER_RULE, gamma=True)}},
        "algorithm.coefficients.gamma"),
    "mu-gamma-numeric-string": (
        {"algorithm": {"kind": "GGA_ADAPTIVE", "b": 0.5,
                       "mu": {"kind": "power", "gamma": "0.5", "q": 2.0}}},
        "algorithm.mu.gamma"),
    "mu-q-true": (
        {"algorithm": {"kind": "GGA_ADAPTIVE", "b": 0.5,
                       "mu": {"kind": "power", "gamma": 0.5, "q": True}}},
        "algorithm.mu.q"),
    "scale-beyond-the-floats": (
        {"objective": {"kind": "quadratic", "target": [0.5, 0.5],
                       "scale": 10**400}}, "objective.scale"),
    "objective-p-numeric-string": (
        {"objective": {"kind": "p_power", "design": [[1.0, 0.0], [0.0, 1.0]],
                       "response": [0.5, 0.5], "p": "1.5"}}, "objective.p"),
    "region-radius-inf-string": (
        {"objective": dict(LOGISTIC, region_radius="inf")},
        "objective.region_radius"),
    "dictionary-p-true": (
        {"dictionary": {"kind": "coordinate", "dim": 2, "p": True}},
        "dictionary.p"),
    # a numeric list entry is a float field named by its index; each of
    # these ran with exit 0 before entries were checked
    "coefficient-values-true": (
        {"algorithm": {"kind": "GGA_FIXED", "tau": 1.0, "coefficients": {
            "kind": "explicit", "values": [True, "0.25"]}}},
        "algorithm.coefficients.values[0]"),
    "weakness-values-numeric-string": (
        {"algorithm": {"kind": "GGA_ADAPTIVE", "b": 0.5, "tau": {
            "kind": "explicit", "values": [1.0, "0.5"]}}},
        "algorithm.tau.values[1]"),
    "target-numeric-string": (
        {"objective": {"kind": "quadratic", "target": ["0.5", True]}},
        "objective.target[0]"),
    "target-true": ({"objective": {"kind": "quadratic",
                                   "target": [0.5, True]}},
                    "objective.target[1]"),
    "design-numeric-string": (
        {"objective": dict(LOGISTIC, design=[[1.0, 0.0], [0.0, "1"],
                                             [1.0, 1.0]])},
        "objective.design[1][1]"),
    "labels-true": ({"objective": dict(LOGISTIC, labels=[1.0, True, -1.0])},
                    "objective.labels[1]"),
    "response-numeric-string": (
        {"objective": {"kind": "p_power", "design": [[1.0, 0.0], [0.0, 1.0]],
                       "response": [0.5, "-1"], "p": 1.5}},
        "objective.response[1]"),
    "target-entry-a-list": (
        {"objective": {"kind": "quadratic", "target": [[0.5], 0.5]}},
        "objective.target[0]"),
    # a claim number beyond the floats passed the old check, ran the solve
    # and then ended in exit 4 (int too large to convert to float)
    "claim-hull-radius-beyond-the-floats": (
        {"algorithm": {"kind": "GGA_FIXED", "tau": 1.0,
                       "coefficients": {"kind": "power-rule"}},
         "diagnostics": {"claims": [{"claim": "power-schedule-rate",
                                     "hull_radius": 10**400}]}},
        "diagnostics.claims[0].hull_radius"),
    "claim-tolerance-beyond-the-floats": (
        {"algorithm": {"kind": "GGA_FIXED", "tau": 1.0,
                       "coefficients": {"kind": "power-rule"}},
         "diagnostics": {"claims": ["adaptive-rate",
                                    {"claim": "fixed-summable-convergence",
                                     "tolerance": 10**400}]}},
        "diagnostics.claims[1].tolerance"),
    "claim-r-beyond-the-floats": (
        {"diagnostics": {"claims": [{"claim": "adaptive-rate",
                                     "r": -10**400}]}},
        "diagnostics.claims[0].r"),
}

DRIVERS = ("run_gbe", "run_ega", "run_gga_fixed", "run_gga_adaptive",
           "run_gega")


def _no_drivers(monkeypatch):
    """Make every solve driver raise, so a case must stop before any run."""
    import greedy_opt.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a run started")
    for name in DRIVERS:
        monkeypatch.setattr(cli, name, no_solve)


# GBE on the quadratic with target (0.2, 0.5, 0.3), the coordinate-3
# dictionary and c_k = 0.5 k^-0.75; its weakness is set by ``tau`` or ``t``
GBE_FIRST_ABOVE = {
    "objective": {"kind": "quadratic", "target": [0.2, 0.5, 0.3]},
    "dictionary": {"kind": "coordinate", "dim": 3},
    "stop": {"max_iter": 5},
}


def _gbe(**weakness):
    return dict(GBE_FIRST_ABOVE, algorithm={
        "kind": "GBE", "mode": "first-above", **weakness,
        "coefficients": {"kind": "power", "c": 0.5, "s": 0.75}})


# one valid config per algorithm kind, and two more that give the weakness as
# a ``t`` object, dimension at most 3, three steps, holding only keys its kind
# reads; ``test_config_boundary`` spoils one numeric leaf at a time.  Integer
# fields are written as integers and float fields as floats, which is how the
# test tells them apart.  Together they hold every numeric leaf of SCHEMA.
BOUNDARY_CONFIGS = {
    "GBE": {
        "schema": 1,
        "objective": {"kind": "quadratic", "target": [0.2, 0.5, 0.3],
                      "scale": 1.0},
        "dictionary": {"kind": "coordinate", "dim": 3, "p": 2.0},
        "algorithm": {"kind": "GBE", "tau": {"kind": "constant", "t": 0.5},
                      "mode": "first-above",
                      "coefficients": {"kind": "power", "c": 0.5,
                                       "s": 0.75}},
        "stop": {"max_iter": 3, "grad_tol": 1e-12, "target_gap": 1e-9},
        "diagnostics": {"claims": [{"claim": "fixed-summable-convergence",
                                    "tolerance": 0.5}]}},
    "EGA": {
        "schema": 1,
        "objective": {"kind": "p_power", "design": [[1.0, 0.5], [0.0, 1.0]],
                      "response": [0.5, -0.25], "p": 2.0},
        "dictionary": {"kind": "gaussian", "dim": 2, "count": 4, "seed": 3},
        "algorithm": {"kind": "EGA", "coefficients": {
            "kind": "power-rule", "t": 1.0, "q": 2.0, "gamma": 0.5}},
        "stop": {"max_iter": 3},
        "diagnostics": {"fit_window": [1, 3],
                        "claims": [{"claim": "power-schedule-rate",
                                    "r": 0.3, "hull_radius": 1.0,
                                    "calibration": 2}]}},
    "GGA_FIXED": {
        "schema": 1,
        "objective": {"kind": "quadratic", "target": [0.25, -0.5]},
        "dictionary": {"kind": "coordinate", "dim": 2},
        "algorithm": {"kind": "GGA_FIXED",
                      "tau": {"kind": "explicit", "values": [1.0, 0.5, 0.5]},
                      "coefficients": {"kind": "explicit",
                                       "values": [0.5, 0.25, 0.125]}},
        "stop": {"max_iter": 3}},
    "GGA_ADAPTIVE": {
        "schema": 1,
        "objective": {"kind": "quadratic", "target": [0.3, 0.4]},
        "dictionary": {"kind": "sphere", "p": 2.0},
        "algorithm": {"kind": "GGA_ADAPTIVE", "t": 0.75, "b": 0.5,
                      "mu": {"kind": "power", "gamma": 0.5, "q": 2.0}},
        "stop": {"max_iter": 3},
        "diagnostics": {"claims": [{"claim": "adaptive-rate", "r": None,
                                    "hull_radius": 1.0, "calibration": 1},
                                   {"claim": "adaptive-convergence",
                                    "tolerance": 0.1}]}},
    "GBE-t": {
        "schema": 1, "seed": 4,
        "objective": {"kind": "quadratic", "target": [0.2, 0.5]},
        "dictionary": {"kind": "coordinate", "dim": 2},
        "algorithm": {"kind": "GBE", "t": {"kind": "constant", "t": 0.5},
                      "coefficients": {"kind": "power", "c": 0.5,
                                       "s": 0.75}},
        "stop": {"max_iter": 3}},
    "GGA_FIXED-t": {
        "schema": 1,
        "objective": {"kind": "quadratic", "target": [0.25, -0.5]},
        "dictionary": {"kind": "coordinate", "dim": 2},
        "algorithm": {"kind": "GGA_FIXED",
                      "t": {"kind": "explicit", "values": [1.0, 0.5, 0.5]},
                      "coefficients": {"kind": "explicit",
                                       "values": [0.5, 0.25, 0.125]}},
        "stop": {"max_iter": 3}},
    "GEGA": {
        "schema": 1,
        "objective": {"kind": "logistic",
                      "design": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                      "labels": [1.0, -1.0, -1.0], "region_radius": 10.0},
        "dictionary": {"kind": "coordinate", "dim": 2},
        "algorithm": {"kind": "GEGA", "tau": 1.0, "line_tol": 1e-12},
        "stop": {"max_iter": 3, "grad_tol": 0.0},
        "diagnostics": {"claims": [{"claim": "line-search-convergence",
                                    "tolerance": 1e-2}]}},
}


def _numeric_leaves(node, path=()):
    """Paths to every number in a config, objects and lists alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


def _field_name(path):
    """A leaf's name as messages give it: ``objective.target[0]``."""
    name = path[0]
    for key in path[1:]:
        name += f"[{key}]" if isinstance(key, int) else f".{key}"
    return name


BOUNDARY_LEAVES = [(kind, path) for kind, config in BOUNDARY_CONFIGS.items()
                   for path in _numeric_leaves(config)]


def _schema_leaves(kind, path=()):
    """(path, leaf kind) of every leaf below a SCHEMA kind; the items of a
    list share its path."""
    if isinstance(kind, tuple):
        for option in kind:
            yield from _schema_leaves(option, path)
    elif isinstance(kind, dict):
        for key, sub in kind.items():
            yield from _schema_leaves(sub, path + (key,))
    elif isinstance(kind, list):
        yield from _schema_leaves(kind[0], path)
    elif kind is not None:
        yield path, kind


def _schema_objects(kind, path=()):
    """(path, keys) of every object below a SCHEMA kind, itself included;
    a list's items are at index 0."""
    for option in kind if isinstance(kind, tuple) else (kind,):
        if isinstance(option, dict):
            yield path, option
            for key, sub in option.items():
                yield from _schema_objects(sub, path + (key,))
        elif isinstance(option, list):
            yield from _schema_objects(option[0], path + (0,))


SCHEMA_OBJECTS = dict(_schema_objects(SCHEMA))

# a valid config holding every object of SCHEMA; it sets keys that its
# algorithm kind does not read (``t`` beside ``tau``, ``coefficients``), which
# are checked all the same
EVERY_OBJECT = {
    "schema": 1, "seed": 0,
    "objective": {"kind": "quadratic", "target": [0.3, 0.4]},
    "dictionary": {"kind": "coordinate", "dim": 2},
    "algorithm": {"kind": "GGA_ADAPTIVE", "b": 0.5,
                  "tau": {"kind": "constant", "t": 1.0},
                  "t": {"kind": "constant", "t": 0.5},
                  "mu": {"kind": "power", "gamma": 0.5, "q": 2.0},
                  "coefficients": {"kind": "power-rule"}},
    "stop": {"max_iter": 5},
    "diagnostics": {"claims": [{"claim": "adaptive-convergence"}]},
    "output": {"trace": "trace.csv", "manifest": "manifest.json"},
}


def _workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded by file path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _object_name(path):
    """An object's path as the README names it: ``diagnostics.claims[]``
    for each claim object, and "" for the top level."""
    name = ""
    for key in path:
        name += "[]" if isinstance(key, int) else f".{key}" if name else key
    return name


def _readme_schema():
    """{object path: keys} as the README's config listing gives them: one
    bullet per object, the object's paths in backticks before the colon
    (none for the top level), its keys in backticks after it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = text.split("<!-- schema -->")[1]
    found = {}
    for bullet in re.findall(r"^- (.*?)(?=^- |^$)", listing, re.M | re.S):
        label, keys = bullet.split(":", 1)
        for path in re.findall(r"`([\w.\[\]]+)`", label) or [""]:
            found[path] = set(re.findall(r"`(\w+)`", keys))
    return found


# every algorithm kind on every dictionary kind, as ``run`` configs; GBE sets
# its weakness through ``tau``, as the other weak-greedy kinds may
KIND_ALGORITHMS = {
    "GBE": {"kind": "GBE", "tau": {"kind": "constant", "t": 0.5},
            "coefficients": {"kind": "power", "c": 0.5, "s": 0.75}},
    "EGA": {"kind": "EGA", "coefficients": {"kind": "power-rule"}},
    "GGA_FIXED": {"kind": "GGA_FIXED", "t": 0.75,
                  "coefficients": {"kind": "explicit",
                                   "values": [0.5, 0.25, 0.25, 0.125]}},
    "GGA_ADAPTIVE": {"kind": "GGA_ADAPTIVE", "b": 0.5, "mode": "first-above",
                     "tau": {"kind": "explicit",
                             "values": [1.0, 0.75, 0.5, 0.5]}},
    "GEGA": {"kind": "GEGA", "tau": 1.0},
}
KIND_DICTIONARIES = {
    "coordinate": {"kind": "coordinate", "dim": 3},
    "gaussian": {"kind": "gaussian", "dim": 3, "count": 5, "seed": 2},
    "csv": {"kind": "csv", "path": "atoms.csv"},
    "sphere": {"kind": "sphere", "p": 2.0},
}

SHAPE_REFERENCES = {
    "adaptive": {
        "schema": 1, "seed": 0,
        "objective": {"kind": "quadratic", "target": [1.0 / 3.0, 2.0 / 3.0]},
        "dictionary": {"kind": "coordinate", "dim": 2},
        "algorithm": {"kind": "GGA_ADAPTIVE",
                      "tau": {"kind": "constant", "t": 1.0}, "b": 0.5,
                      "mu": {"kind": "power", "gamma": 0.5, "q": 2.0}},
        "stop": {"max_iter": 5},
        "diagnostics": {"claims": [{"claim": "adaptive-convergence"},
                                   "adaptive-rate"]},
        "output": {"trace": "trace.csv", "manifest": "manifest.json"}},
    "fixed": {
        "schema": 1, "seed": 0,
        "objective": {"kind": "quadratic", "target": [0.25, -0.5]},
        "dictionary": {"kind": "coordinate", "dim": 2},
        "algorithm": {"kind": "GGA_FIXED",
                      "tau": {"kind": "explicit", "values": [1.0] * 5},
                      "coefficients": {"kind": "explicit",
                                       "values": [0.5, 0.4, 0.3, 0.2, 0.1]}},
        "stop": {"max_iter": 5},
        "diagnostics": {"claims": ["fixed-summable-convergence"]},
        "output": {"trace": "trace.csv", "manifest": "manifest.json"}},
}


def _container_paths(node, prefix=()):
    """Paths to every object- or list-valued field below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield prefix + (key,)
            yield from _container_paths(value, prefix + (key,))


SHAPE_CASES = [
    (ref, path, bad)
    for ref, config in SHAPE_REFERENCES.items()
    for path in [*_container_paths(config), ("output", "trace"),
                 ("output", "manifest")]
    for bad in ("abc", 5, [1], None)
]


# each bad diagnostics field, and the name its error message must carry
BAD_DIAGNOSTICS = {
    "unknown-claim": ({"claims": ["no-such-claim"]},
                      "diagnostics.claims[0].claim"),
    "unknown-claim-object": ({"claims": ["adaptive-rate", {"claim": "x"}]},
                             "diagnostics.claims[1].claim"),
    "r-string": ({"claims": [{"claim": "adaptive-rate", "r": "abc"}]},
                 "diagnostics.claims[0].r"),
    "hull-radius-list": ({"claims": [{"claim": "adaptive-rate",
                                      "hull_radius": [1.0]}]},
                         "diagnostics.claims[0].hull_radius"),
    "tolerance-string": ({"claims": [{"claim": "adaptive-convergence",
                                      "tolerance": "abc"}]},
                         "diagnostics.claims[0].tolerance"),
    "tolerance-null": ({"claims": [{"claim": "adaptive-convergence",
                                    "tolerance": None}]},
                       "diagnostics.claims[0].tolerance"),
    # only r and hull_radius may be null
    "calibration-null": ({"claims": [{"claim": "adaptive-rate", "r": None,
                                      "hull_radius": None,
                                      "calibration": None}]},
                         "diagnostics.claims[0].calibration"),
    "calibration-fraction": ({"claims": [{"claim": "adaptive-rate",
                                          "calibration": 2.5}]},
                             "diagnostics.claims[0].calibration"),
    "calibration-string": ({"claims": [{"claim": "adaptive-rate",
                                        "calibration": "10"}]},
                           "diagnostics.claims[0].calibration"),
    "window-one-number": ({"fit_window": [1]}, "diagnostics.fit_window"),
    "window-three-numbers": ({"fit_window": [1, 5, 9]},
                             "diagnostics.fit_window"),
    "window-string": ({"fit_window": "abc"}, "diagnostics.fit_window"),
    "window-fraction": ({"fit_window": [1.5, 10]}, "diagnostics.fit_window"),
    "window-bool": ({"fit_window": [True, 10]}, "diagnostics.fit_window"),
}


# output names that do not name two distinct files below --out
BAD_OUTPUTS = {
    "trace-dot": {"trace": "."},
    "trace-dotdot": {"trace": ".."},
    "trace-subdir-dot": {"trace": "sub/."},
    "trace-trailing-slash": {"trace": "sub/"},
    "manifest-empty": {"manifest": ""},
    "same-name": {"trace": "out.json", "manifest": "out.json"},
    "same-file": {"trace": "a/t.csv", "manifest": "a/./t.csv"},
    "manifest-inside-trace": {"trace": "x", "manifest": "x/m.json"},
    "trace-absolute": {"trace": "/abs/t.csv"},
    "manifest-parent": {"manifest": "../m.json"},
}


# configs refused before the solve, each with its whole message: first a
# kind or mode that the CLI does not know
REFUSED_CONFIGS = {
    "objective": ({"objective": {"kind": "cubic", "target": [0.5, 0.5]}},
                  "unknown objective kind 'cubic'"),
    "dictionary": ({"dictionary": {"kind": "haar", "dim": 2}},
                   "unknown dictionary kind 'haar'"),
    "weakness": ({"algorithm": {"kind": "GGA_ADAPTIVE", "b": 0.5,
                                "tau": {"kind": "geometric", "t": 0.5}}},
                 "unknown weakness kind 'geometric'"),
    "coefficients": ({"algorithm": {"kind": "GGA_FIXED", "tau": 1.0,
                                    "coefficients": {"kind": "harmonic"}}},
                     "unknown coefficient kind 'harmonic'"),
    "algorithm": ({"algorithm": {"kind": "OMP"}},
                  "unknown algorithm kind 'OMP'"),
    "mode": ({"algorithm": {"kind": "GGA_ADAPTIVE", "b": 0.5,
                            "mode": "best"}},
             "mode must be 'argmax' or 'first-above'"),
    # a radius that is not positive: GGA_ADAPTIVE ran with it (exit 0) and
    # GEGA exited 2 inside the run with "bound must be positive"
    **{f"region-radius-{radius}-{kind}": (
        {"objective": dict(LOGISTIC, region_radius=radius),
         "algorithm": {"kind": kind, "tau": 1.0, "b": 0.5}},
        "region_radius must be positive")
       for radius in (0.0, -1.0) for kind in ("GGA_ADAPTIVE", "GEGA")},
    # a ragged inline design, which gave numpy's "inhomogeneous shape" text
    "design-row-a-number": (
        {"objective": dict(LOGISTIC, design=[[1.0, 0.0], 1.0],
                           labels=[1.0, -1.0])},
        "objective.design[1] must be a list"),
    "design-row-short": (
        {"objective": dict(LOGISTIC, design=[[1.0, 0.0], [1.0]],
                           labels=[1.0, -1.0])},
        "objective.design[1] must have 2 entries, as objective.design[0] has"),
    # a finite design whose curvature bound overflows: the p-power objective
    # warned, took c = 0 at every step and exited 2 after the solve on an
    # infinite gamma in the manifest, leaving trace.csv behind
    "p-power-gamma-overflow": (
        {"objective": {"kind": "p_power", "design": [[1e200, 0.0], [0.0, 1e200]],
                       "response": [1.0, 1.0], "p": 2.0}},
        "gamma must be positive and finite"),
    "logistic-gamma-overflow": (
        {"objective": dict(LOGISTIC, design=[[1e200, 0.0], [0.0, 1e200]],
                           labels=[1.0, -1.0])},
        "gamma must be positive and finite"),
    # a weakness entry past max_iter: it ran with exit 0 at max_iter 1 and
    # exited 2 only at max_iter 2, when the run reached it
    "weakness-entry-past-max-iter": (
        {"algorithm": {"kind": "GGA_FIXED",
                       "tau": {"kind": "explicit", "values": [0.5, 2.0]},
                       "coefficients": {"kind": "explicit",
                                        "values": [0.5, 0.25]}},
         "stop": {"max_iter": 1}},
        "t_2 = 2.0 outside (0, 1]"),
    # a misspelled key: each ran with the default it meant to change, exit 0
    "objective.scael": (
        {"objective": {"kind": "quadratic", "target": [0.3, 0.6],
                       "scael": 2.0}},
        f"objective.scael: unknown key; keys {sorted(SCHEMA['objective'])}"),
    "algorithm.bb": (
        {"algorithm": {"kind": "GGA_ADAPTIVE", "bb": 0.9}},
        f"algorithm.bb: unknown key; keys {sorted(SCHEMA['algorithm'])}"),
    "algorithm.tua": (
        {"algorithm": {"kind": "GGA_ADAPTIVE", "b": 0.5, "tua": 0.5}},
        f"algorithm.tua: unknown key; keys {sorted(SCHEMA['algorithm'])}"),
    "stop.max_itr": (
        {"stop": {"max_itr": 3}},
        f"stop.max_itr: unknown key; keys {sorted(SCHEMA['stop'][0])}"),
    "claim-tolerence": (
        {"diagnostics": {"claims": [{"claim": "adaptive-convergence",
                                     "tolerence": 1e-12}]}},
        "diagnostics.claims[0].tolerence: unknown key; keys "
        f"{sorted(CLAIM)}"),
}

# the two run shapes of the benchmark's run-objective workload, small: EGA on
# a quadratic, whose trace records no weakness, and GEGA on a logistic loss,
# whose trace has no infimum; each with the convergence claim it checks
BENCHMARK_SHAPED = {
    "ega-quadratic": (
        {"objective": {"kind": "quadratic", "target": [0.5, -0.3, 0.2],
                       "scale": 1.0},
         "dictionary": {"kind": "coordinate", "dim": 3},
         "algorithm": {"kind": "EGA", "coefficients": {"kind": "power-rule",
                                                       "t": 1.0}},
         "stop": {"max_iter": 200, "grad_tol": 0.0, "target_gap": None},
         "diagnostics": {"claims": [{"claim": "fixed-summable-convergence",
                                     "tolerance": 1e-2}]}},
        {"claim": "fixed-summable-convergence", "preconditions_met": True,
         "reasons": [], "notes": [], "bound_satisfied": True,
         "details": {"final_gap": 0.00017804574514471415,
                     "mu_series_budget": 1.0000000000000002,
                     "tolerance": 0.01}}),
    "gega-logistic": (
        {"objective": dict(LOGISTIC, design=[[1.0, 0.0], [0.0, 1.0],
                                             [1.0, 1.0], [1.0, 0.0]],
                           labels=[1.0, -1.0, 1.0, -1.0], region_radius=10.0),
         "dictionary": {"kind": "coordinate", "dim": 2},
         "algorithm": {"kind": "GEGA", "tau": {"kind": "constant", "t": 1.0},
                       "line_tol": 1e-12},
         "stop": {"max_iter": 20, "grad_tol": 0.0, "target_gap": None},
         "diagnostics": {"claims": [{"claim": "line-search-convergence",
                                     "tolerance": 1e-2}]}},
        {"claim": "line-search-convergence", "preconditions_met": False,
         "reasons": ["no known or reference infimum on the trace"],
         "notes": [], "bound_satisfied": None, "details": {}}),
}


def _shared_input_sweep(tmp_path):
    """(config, grid) paths of a 2 x 2 sweep whose dictionary axis varies
    fastest, as the benchmark's does: one objective, two dictionaries."""
    cfg = tmp_path / "config.json"
    write_config(cfg, dictionary={"kind": "gaussian", "dim": 2, "count": 6,
                                  "seed": 3},
                 stop={"max_iter": 40})
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"algorithm.kind": ["GGA_ADAPTIVE", "GEGA"],
                                "dictionary.seed": [3, 4]}))
    return cfg, grid


def _assert_points_match_plain_runs(tmp_path, cfg, grid):
    """Each sweep point's trace and manifest are the bytes a plain ``run``
    of that point writes."""
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                 str(out)]) == 0
    config, axes = json.loads(cfg.read_text()), json.loads(grid.read_text())
    names = list(axes)
    for index, values in enumerate(itertools.product(*axes.values())):
        point = json.loads(json.dumps(config))
        for name, value in zip(names, values):
            node = point
            *parents, last = name.split(".")
            for key in parents:
                node = node[key]
            node[last] = value
        point_cfg = tmp_path / f"point_{index}.json"
        point_cfg.write_text(json.dumps(point))
        plain = tmp_path / f"plain_{index}"
        assert main(["run", str(point_cfg), "--out", str(plain)]) == 0
        for name in ("trace.csv", "manifest.json"):
            assert (plain / name).read_bytes() == \
                (out / f"run_{index:04d}" / name).read_bytes()


class TestRunCommand:
    @pytest.mark.parametrize("diagnostics,field", BAD_DIAGNOSTICS.values(),
                             ids=BAD_DIAGNOSTICS.keys())
    def test_bad_diagnostics_exit_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch, diagnostics, field):
        import greedy_opt.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("the solve started")
        monkeypatch.setattr(cli, "run_gga_adaptive", no_solve)
        cfg = tmp_path / "config.json"
        write_config(cfg, diagnostics=diagnostics)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("output", BAD_OUTPUTS.values(),
                             ids=BAD_OUTPUTS.keys())
    def test_bad_output_names_exit_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch, output):
        import greedy_opt.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("the solve started")
        monkeypatch.setattr(cli, "run_gga_adaptive", no_solve)
        cfg = tmp_path / "config.json"
        write_config(cfg, output=output)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: output")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_at_or_under_a_file_exits_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch, out):
        import greedy_opt.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("the solve started")
        monkeypatch.setattr(cli, "run_gga_adaptive", no_solve)
        cfg = tmp_path / "config.json"
        write_config(cfg)
        (tmp_path / "afile").write_text("keep me")
        assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path / out) in err
        assert (tmp_path / "afile").read_text() == "keep me"

    @pytest.mark.parametrize("trace", ["sub/trace.csv", "sub/deeper/t.csv"])
    def test_output_under_a_file_in_out_exits_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch, trace):
        import greedy_opt.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("the solve started")
        monkeypatch.setattr(cli, "run_gga_adaptive", no_solve)
        cfg = tmp_path / "config.json"
        write_config(cfg, output={"trace": trace})
        out = tmp_path / "o"
        out.mkdir()
        (out / "sub").write_text("keep me")
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out / "sub") in err
        assert (out / "sub").read_text() == "keep me"

    def test_output_that_is_a_directory_exits_2_before_the_solve(
            self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        out = tmp_path / "o"
        (out / "manifest.json").mkdir(parents=True)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(out / "manifest.json") in err
        assert not (out / "trace.csv").exists()

    def test_output_that_fails_to_write_after_the_solve_exits_2(
            self, tmp_path, capsys, monkeypatch):
        """A file put where ``--out`` should be while the solve runs makes
        the write fail; its OSError names the path."""
        import greedy_opt.cli as cli

        out = tmp_path / "o"
        solve = cli.run_gga_adaptive

        def solve_then_block(*args, **kwargs):
            trace = solve(*args, **kwargs)
            out.write_text("keep me")
            return trace
        monkeypatch.setattr(cli, "run_gga_adaptive", solve_then_block)
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err
        assert "Traceback" not in err and out.read_text() == "keep me"

    @pytest.mark.parametrize("overrides", BAD_CONFIGS.values(),
                             ids=BAD_CONFIGS.keys())
    def test_library_errors_exit_2(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "config.json"
        write_config(cfg, **overrides)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides,field", NON_INTEGER_FIELDS.values(),
                             ids=NON_INTEGER_FIELDS.keys())
    def test_non_integer_field_exits_2_before_the_solve(
            self, tmp_path, capsys, overrides, field):
        cfg = tmp_path / "config.json"
        write_config(cfg, **overrides)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"config error: {field} must be an integer\n"
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("overrides,field",
                             NON_FINITE_FLOAT_FIELDS.values(),
                             ids=NON_FINITE_FLOAT_FIELDS.keys())
    def test_non_finite_float_field_exits_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch, overrides, field):
        import greedy_opt.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a run started")

        for name in ("run_gbe", "run_ega", "run_gga_fixed",
                     "run_gga_adaptive", "run_gega"):
            monkeypatch.setattr(cli, name, no_solve)
        cfg = tmp_path / "config.json"
        write_config(cfg, **overrides)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"config error: {field} must be a finite number\n"
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("schema", [True, 1.0, "1", 2])
    def test_schema_other_than_the_integer_1_exits_2(self, tmp_path, capsys,
                                                     monkeypatch, schema):
        _no_drivers(monkeypatch)
        cfg = tmp_path / "config.json"
        write_config(cfg, schema=schema)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "config error: config schema must be 1\n"

    def test_claim_numbers_keep_their_type_in_the_manifest(self, tmp_path):
        """``r`` and ``hull_radius`` are echoed as written, an integer as an
        integer, and ``tolerance`` as a float."""
        cfg = tmp_path / "config.json"
        write_config(cfg, algorithm={"kind": "GGA_FIXED", "tau": 1.0,
                                     "coefficients": {"kind": "power-rule"}},
                     stop={"max_iter": 20},
                     diagnostics={"claims": [
                         {"claim": "power-schedule-rate", "hull_radius": 1,
                          "calibration": 5},
                         {"claim": "fixed-summable-convergence",
                          "tolerance": 1}]})
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text()
        rate, convergence = json.loads(text)["results"]["verdicts"]
        assert '"hull_radius": 1,' in text
        assert rate["details"]["calibration"] == 5
        assert convergence["details"]["tolerance"] == 1.0
        assert '"tolerance": 1.0' in text

    def test_gbe_reads_tau_like_the_other_weak_greedy_kinds(self, tmp_path):
        """``tau`` sets GBE's weakness, and wins over ``t``: all three
        configs run at t = 0.5 (``tau`` alone used to run at t = 1, ending
        at E = 3.48e-05)."""
        traces = []
        for name, weakness in (
                ("t", {"t": 0.5}),
                ("tau", {"tau": {"kind": "constant", "t": 0.5}}),
                ("both", {"tau": 0.5, "t": 1.0})):
            cfg = tmp_path / f"{name}.json"
            write_config(cfg, **_gbe(**weakness))
            out = tmp_path / name
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            traces.append((out / "trace.csv").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["run_config"]["tau"] == {"kind": "constant",
                                                     "t": 0.5}
        assert traces[0] == traces[1] == traces[2]
        assert f"{manifest['results']['final_E']:.3g}" == "0.00571"

    @pytest.mark.parametrize("key", ["tau", "t"])
    def test_gbe_with_an_explicit_weakness_exits_2(self, tmp_path, capsys,
                                                   monkeypatch, key):
        _no_drivers(monkeypatch)
        cfg = tmp_path / "config.json"
        write_config(cfg, **_gbe(**{key: {"kind": "explicit",
                                          "values": [0.5] * 5}}))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: algorithm.{key} must be a constant weakness "
            "for GBE\n")

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(leaf=st.sampled_from(BOUNDARY_LEAVES), which=st.integers(0, 2))
    def test_config_boundary(self, tmp_path, capsys, monkeypatch, leaf,
                             which):
        """One numeric leaf of a valid config spoilt: a float field given a
        boolean, a numeric string or 10**400, an integer field a boolean, a
        numeric string or 2.5.  Every case exits 2 before any run, naming
        the field, and prints no traceback."""
        _no_drivers(monkeypatch)
        capsys.readouterr()  # what an earlier example left unread
        kind, path = leaf
        config = json.loads(json.dumps(BOUNDARY_CONFIGS[kind]))
        node = config
        for key in path[:-1]:
            node = node[key]
        value = node[path[-1]]
        bad = [True, str(value), 2.5 if isinstance(value, int) else 10**400]
        node[path[-1]] = bad[which]
        cfg = tmp_path / "boundary.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f" {_field_name(path)} " in err and "Traceback" not in err

    def test_boundary_leaves_are_the_numeric_leaves_of_the_schema(self):
        """``BOUNDARY_CONFIGS`` spoils every FLOAT, NUMBER and INT leaf of
        SCHEMA, and no other; a list's entries count as the list."""
        schema = {".".join(path) for path, kind in _schema_leaves(SCHEMA)
                  if kind in (FLOAT, NUMBER, INT)}
        boundary = {".".join(key for key in path if isinstance(key, str))
                    for _, path in BOUNDARY_LEAVES}
        assert boundary == schema

    def test_a_config_with_every_object_runs(self, tmp_path):
        """Keys its kind does not read are allowed when another kind reads
        them: the union rule a sweep over ``algorithm.kind`` needs."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(EVERY_OBJECT), encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("path", SCHEMA_OBJECTS,
                             ids=[_object_name(p) or "top"
                                  for p in SCHEMA_OBJECTS])
    def test_misspelled_key_exits_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch, path):
        """Each object of SCHEMA refuses a key it does not list: the first
        listed key with its last letter doubled."""
        _no_drivers(monkeypatch)
        config = json.loads(json.dumps(EVERY_OBJECT))
        node = config
        for key in path:
            node = node[key]
        keys = SCHEMA_OBJECTS[path]
        bad = min(keys) + min(keys)[-1]
        assert bad not in keys
        node[bad] = 1
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {_field_name(path + (bad,))}: unknown key; ")
        assert not out.exists()

    def test_readme_lists_the_schema(self):
        """The README's config listing names exactly SCHEMA's objects and
        their keys."""
        schema = {_object_name(path): set(keys)
                  for path, keys in SCHEMA_OBJECTS.items()}
        assert _readme_schema() == schema

    @pytest.mark.parametrize("dictionary", KIND_DICTIONARIES)
    @pytest.mark.parametrize("kind", KIND_ALGORITHMS)
    def test_every_kind_runs_on_every_dictionary(self, tmp_path, capsys,
                                                 kind, dictionary):
        """Each pair runs, and its manifest reruns to the same trace bytes;
        only EGA, which scans a finite dictionary, refuses the sphere."""
        atoms = np.random.default_rng(5).standard_normal((3, 4))
        np.savetxt(tmp_path / "atoms.csv", atoms, delimiter=",")
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "quadratic",
                                     "target": [0.2, -0.5, 0.3]},
                     dictionary=KIND_DICTIONARIES[dictionary],
                     algorithm=KIND_ALGORITHMS[kind], stop={"max_iter": 4})
        out, again = tmp_path / "out", tmp_path / "again"
        if kind == "EGA" and dictionary == "sphere":
            assert main(["run", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == ("config error: objective-"
                                               "greedy runs need a finite "
                                               "dictionary\n")
            return
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert main(["run", str(out / "manifest.json"), "--out",
                     str(again)]) == 0
        assert (out / "trace.csv").read_bytes() == \
            (again / "trace.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["run_config"]["algorithm"] == kind
        assert manifest["results"]["iterations"] >= 1

    @pytest.mark.parametrize(
        "ref,path,bad", SHAPE_CASES,
        ids=[f"{r}-{'.'.join(map(str, p))}={json.dumps(b)}"
             for r, p, b in SHAPE_CASES])
    def test_malformed_shapes_exit_0_or_2(self, tmp_path, capsys, ref, path,
                                          bad):
        config = json.loads(json.dumps(SHAPE_REFERENCES[ref]))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("literal", NON_FINITE.values(),
                             ids=NON_FINITE.keys())
    def test_non_finite_number_exits_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch, literal):
        import greedy_opt.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("the solve started")
        monkeypatch.setattr(cli, "run_gga_adaptive", no_solve)
        cfg = tmp_path / "config.json"
        write_config(cfg, stop={"max_iter": 5, "target_gap": 0.5})
        cfg.write_text(cfg.read_text().replace('"target_gap": 0.5',
                                               f'"target_gap": {literal}'))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and literal in err
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'{"schema": 1, "note": "\xff"}')
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config is not valid JSON: ")

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        for cfg, message in ((tmp_path, "config file cannot be read: "),
                             (deep, "config is nested too deeply to read: ")):
            assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: " + message)
        assert not (tmp_path / "o").exists()

    def test_manifest_is_strict_json(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, diagnostics={"claims": list(ALL_CLAIMS)})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        manifest = strict_json((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["run_config"]["mu"] == {"kind": "power", "gamma": 0.5,
                                                "q": 2.0}
        assert len(manifest["results"]["verdicts"]) == len(ALL_CLAIMS)

    def test_divergent_series_budget_is_null(self, tmp_path):
        """s q = 1: the budget series diverges, so the budget is no number."""
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "quadratic", "target": [1.0, 2.0]},
                     algorithm={"kind": "GGA_FIXED", "tau": 1.0,
                                "coefficients": {"kind": "power", "c": 1.0,
                                                 "s": 0.5}},
                     stop={"max_iter": 20},
                     diagnostics={"claims": ["fixed-summable-convergence"]})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        manifest = strict_json((tmp_path / "o" / "manifest.json").read_text())
        verdict, = manifest["results"]["verdicts"]
        assert verdict["details"]["mu_series_budget"] is None
        assert not verdict["preconditions_met"]
        assert verdict["reasons"] == ["sum of mu(c_k) bounded by inf > 1"]

    def test_power_rule_runs_sum_their_series_once(self, tmp_path):
        """The power-rule schedule and the fixed-summable-convergence budget
        both ask for the series at s q = 4/3: two runs in one process sum its
        10^6 terms once, and get the float a fresh sum gives."""
        _power_series_sum.cache_clear()
        cfg = tmp_path / "config.json"
        write_config(cfg, algorithm={"kind": "GGA_FIXED", "tau": 1.0,
                                     "coefficients": {"kind": "power-rule"}},
                     stop={"max_iter": 20},
                     diagnostics={"claims": [{"claim":
                                              "fixed-summable-convergence",
                                              "tolerance": 10.0}]})
        for run in ("a", "b"):
            assert main(["run", str(cfg), "--out", str(tmp_path / run)]) == 0
        info = _power_series_sum.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        coefficients = manifest["run_config"]["coefficients"]
        fresh = _power_series_sum.__wrapped__(coefficients["s"] * 2.0)
        assert coefficients["series_bound"].hex() == fresh.hex()

    def test_power_rule_run_holds_one_series_buffer(self, tmp_path):
        """A power-rule EGA run's traced peak (0.43 MiB) stays well under
        what a one-array sum of the series' 10^6 terms needs (7.82 MiB with
        its 8 MB buffer): the set-up sums them one 256 KB leaf at a time."""
        cfg = tmp_path / "config.json"
        write_config(cfg, algorithm={"kind": "EGA", "coefficients":
                                     {"kind": "power-rule", "t": 1.0}})
        _power_series_sum.cache_clear()
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            assert main(["run", str(cfg), "--out", str(tmp_path / "o"),
                         "--max-iter", "50"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_gbe_records_its_schedule(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, algorithm={"kind": "GBE", "t": 1.0,
                                     "coefficients": {"kind": "power",
                                                      "c": 0.3, "s": 0.9}},
                     stop={"max_iter": 50},
                     diagnostics={"claims": [{"claim":
                                              "fixed-summable-convergence",
                                              "tolerance": 10.0}]})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["run_config"]["coefficients"] == \
            {"kind": "power", "c": 0.3, "s": 0.9}
        verdict = manifest["results"]["verdicts"][0]
        assert verdict["preconditions_met"] is True, verdict["reasons"]

    def test_flat_gap_plateau_fits_degenerate(self, tmp_path):
        """1500 adaptive steps flatten at the float floor; the fit must not
        divide by zero after the solve."""
        target = np.random.default_rng(16).standard_normal(8).tolist()
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "quadratic", "target": target},
                     dictionary={"kind": "gaussian", "dim": 8, "count": 400,
                                 "seed": 1},
                     stop={"max_iter": 1500, "grad_tol": 0})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()

    def test_s_equal_to_1_runs(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, algorithm={"kind": "GGA_FIXED", "tau": 1.0,
                                     "coefficients": {"kind": "power",
                                                      "c": 0.5, "s": 1.0}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_successful_run_writes_outputs(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["status"] in ("gradient", "max-iter")
        trace = read_trace_csv(out / "trace.csv")
        assert len(trace.E) == manifest["results"]["iterations"]

    def test_manifest_round_trip_reproduces_trace(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(out1 / "manifest.json"), "--out",
                     str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == \
            (out2 / "trace.csv").read_bytes()

    def test_trace_csv_has_lf_endings_and_fixed_columns(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        raw = (out / "trace.csv").read_bytes()
        assert b"\r" not in raw
        header = raw.split(b"\n", 1)[0].decode()
        assert header == "m,E,gap,E_D,c_m,atom,sign,A_m,sum_c,sum_cED,flags"

    def test_b_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, algorithm={"kind": "GGA_ADAPTIVE", "b": 1.0})
        assert main(["run", str(cfg)]) == 2
        assert "b must be in (0,1)" in capsys.readouterr().err

    def test_q_out_of_range_exits_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "p_power", "design": [[1.0]],
                                     "response": [0.0], "p": 3.0},
                     dictionary={"kind": "coordinate", "dim": 1},
                     algorithm={"kind": "EGA",
                                "coefficients": {"kind": "explicit",
                                                 "values": [1.0]}})
        assert main(["run", str(cfg)]) == 2

    def test_majorant_violation_exits_3(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "quadratic", "target": [1.0, 2.0]},
                     algorithm={"kind": "GGA_ADAPTIVE", "b": 0.5,
                                "mu": {"kind": "power", "gamma": 0.05,
                                       "q": 2.0}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "v")]) == 3

    def test_numeric_failure_exits_4(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "quadratic",
                                     "target": [1e160, 1e160],
                                     "scale": 1e60})
        assert main(["run", str(cfg), "--out", str(tmp_path / "n")]) == 4

    # a greedy score that overflows on a finite gradient: the CSV dictionary
    # exited 2 with "config error: greedy score is not finite"; the sphere
    # warned three times, took a NaN atom and exited 4 with "objective
    # evaluation is not finite"
    @pytest.mark.parametrize("case", ["csv-p3", "sphere-p1.5"])
    def test_overflowing_greedy_score_exits_4(self, tmp_path, capsys, case):
        if case == "csv-p3":
            (tmp_path / "atoms.csv").write_text("1,-1\n1,-1\n1,-1\n",
                                                encoding="utf-8")
            objective = {"kind": "quadratic", "target": [1.0, 1.0, 1.0],
                         "scale": 1e308}
            dictionary = {"kind": "csv", "path": "atoms.csv", "p": 3}
        else:
            objective = {"kind": "quadratic", "target": [1.0, 1.0],
                         "scale": 1e200}
            dictionary = {"kind": "sphere", "p": 1.5}
        cfg = tmp_path / "config.json"
        write_config(cfg, objective=objective, dictionary=dictionary)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == \
            "numeric failure: greedy score is not finite\n"
        assert not (tmp_path / "o").exists()

    # each printed numpy's RuntimeWarning before its documented exit; the
    # quadratic target printed "overflow encountered in dot" twice
    @pytest.mark.parametrize("case", ["sphere-p2", "csv-atom-norm",
                                      "logistic-row-sums", "quadratic-target"])
    def test_overflow_exits_without_a_warning(self, tmp_path, capsys, case):
        objective = {"kind": "quadratic", "target": [1.0, 1.0]}
        dictionary = {"kind": "coordinate", "dim": 2}
        if case == "quadratic-target":
            objective["target"] = [1e200, 1e200]
            code, err = 4, "numeric failure: objective evaluation is not finite\n"
        elif case == "sphere-p2":
            objective["scale"] = 1e200
            dictionary = {"kind": "sphere", "p": 2}
            code, err = 4, "numeric failure: greedy score is not finite\n"
        elif case == "csv-atom-norm":
            (tmp_path / "atoms.csv").write_text("1e300,1\n1e300,0\n",
                                                encoding="utf-8")
            dictionary = {"kind": "csv", "path": "atoms.csv", "p": 2}
            code, err = 2, "config error: atom norm overflows in dictionary\n"
        else:
            objective = dict(LOGISTIC, design=[[1.7e308, 1.7e308], [0.0, 1.0]],
                             labels=[1.0, -1.0])
            code, err = 2, "config error: gamma must be positive and finite\n"
        cfg = tmp_path / "config.json"
        write_config(cfg, objective=objective, dictionary=dictionary)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == code
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == err
        assert not (tmp_path / "o").exists()

    # the update inf * 0 printed "invalid value encountered in multiply"
    # before "objective evaluation is not finite"
    def test_a_step_that_is_not_finite_exits_4_without_a_warning(
            self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "quadratic",
                                     "target": [0.3, 0.4]},
                     algorithm=SUBNORMAL_GAMMA_ADAPTIVE)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == \
            "numeric failure: step coefficient c_1 is not finite\n"
        assert not (tmp_path / "o").exists()

    # ran all 40 iterations to max-iter with exit 0, as if it were unset
    def test_a_negative_target_gap_exits_2_before_the_solve(self, tmp_path,
                                                             capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, stop={"max_iter": 40, "target_gap": -1.0})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "config error: target_gap must be nonnegative\n"
        assert not (tmp_path / "o").exists()

    def test_max_iter_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out),
                     "--max-iter", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["stop"]["max_iter"] == 3
        assert manifest["results"]["iterations"] <= 3

    def test_config_seed_is_ignored_and_has_no_flag(self, tmp_path):
        """A top-level seed changes nothing, so it is only echoed back with
        the config, and ``--seed`` is not an option."""
        config = write_config(tmp_path / "seeded.json", seed=7)
        del config["seed"]
        (tmp_path / "plain.json").write_text(json.dumps(config))
        outs = {}
        for name in ("seeded", "plain"):
            outs[name] = tmp_path / name
            assert main(["run", str(tmp_path / f"{name}.json"),
                         "--out", str(outs[name])]) == 0
        assert (outs["seeded"] / "trace.csv").read_bytes() == \
            (outs["plain"] / "trace.csv").read_bytes()
        seeded, plain = (json.loads((outs[n] / "manifest.json").read_text())
                         for n in ("seeded", "plain"))
        assert seeded["config"].pop("seed") == 7
        assert "seed" not in plain["config"]
        assert "seed" not in plain["run_config"]
        assert seeded == plain
        with pytest.raises(SystemExit) as exc:
            main(["run", str(tmp_path / "plain.json"), "--seed", "1"])
        assert exc.value.code == 2

    def test_sphere_p1_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, dictionary={"kind": "sphere", "p": 1.0})
        assert main(["run", str(cfg)]) == 2

    def test_rate_claim_verdict_lands_in_manifest(self, tmp_path):
        """A full rate-measurement config reports bound_satisfied=true."""
        from greedy_opt.instances import quadratic_geometric
        target = [float(t) for t in quadratic_geometric(64).minimizer]
        cfg = tmp_path / "config.json"
        write_config(
            cfg,
            objective={"kind": "quadratic", "target": target},
            dictionary={"kind": "coordinate", "dim": 64},
            algorithm={"kind": "GGA_FIXED", "tau": 1.0,
                       "coefficients": {"kind": "power-rule", "t": 1.0}},
            stop={"max_iter": 2000},
            diagnostics={"claims": [{"claim": "power-schedule-rate",
                                     "r": 0.3, "hull_radius": 1.0}]})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        verdict = manifest["results"]["verdicts"][0]
        assert verdict["claim"] == "power-schedule-rate"
        assert verdict["preconditions_met"] is True
        assert verdict["bound_satisfied"] is True

    def test_unknown_claim_exits_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, diagnostics={"claims": ["no-such-claim"]})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_csv_objective_inputs(self, tmp_path):
        np.savetxt(tmp_path / "design.csv",
                   np.array([[1.0, 0.2], [0.1, 1.0], [0.5, -0.4]]),
                   delimiter=",")
        np.savetxt(tmp_path / "response.csv", np.array([0.5, -0.2, 0.1]),
                   delimiter=",")
        cfg = tmp_path / "config.json"
        write_config(cfg,
                     objective={"kind": "p_power",
                                "design_csv": "design.csv",
                                "response_csv": "response.csv", "p": 1.5},
                     dictionary={"kind": "coordinate", "dim": 2},
                     algorithm={"kind": "GEGA", "tau": 1.0})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_csv_header_row_is_skipped_for_every_input(self, tmp_path):
        """Design and response CSVs take an optional header row, like the
        dictionary CSV; with one, the run writes the same trace."""
        design = np.array([[1.0, 0.2], [0.1, 1.0], [0.5, -0.4]])
        response = np.array([0.5, -0.2, 0.1])
        traces = []
        for header in ("", "a,b"):
            run_dir = tmp_path / (header.replace(",", "") or "bare")
            run_dir.mkdir()
            np.savetxt(run_dir / "design.csv", design, delimiter=",",
                       header=header, comments="")
            np.savetxt(run_dir / "response.csv", response, delimiter=",",
                       header=header and "y", comments="")
            cfg = run_dir / "config.json"
            write_config(cfg,
                         objective={"kind": "p_power",
                                    "design_csv": "design.csv",
                                    "response_csv": "response.csv", "p": 1.5},
                         dictionary={"kind": "coordinate", "dim": 2},
                         algorithm={"kind": "GEGA", "tau": 1.0})
            assert main(["run", str(cfg), "--out", str(run_dir / "out")]) == 0
            traces.append((run_dir / "out" / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("section", ["objective", "dictionary"])
    def test_manifest_of_csv_inputs_reruns(self, tmp_path, section):
        """A manifest names its CSV inputs relative to its own directory, as
        a config's paths resolve against the file that names them, so it
        reruns from anywhere to the same trace; an absolute path stays as
        written."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        rng = np.random.default_rng(26)
        np.savetxt(inputs / "design.csv", rng.standard_normal((12, 3)),
                   delimiter=",")
        np.savetxt(inputs / "labels.csv", np.tile([1.0, -1.0, -1.0], 4),
                   delimiter=",")
        np.savetxt(inputs / "atoms.csv", rng.standard_normal((3, 5)),
                   delimiter=",")
        fields = {"objective": {"kind": "logistic",
                                "design_csv": "inputs/design.csv",
                                "labels_csv": str(inputs / "labels.csv")},
                  "dictionary": {"kind": "csv", "path": "inputs/atoms.csv"}}
        spec = fields[section]
        objective = fields["objective"] if section == "objective" else \
            {"kind": "quadratic", "target": [0.2, -0.5, 0.3]}
        cfg = tmp_path / "config.json"
        write_config(cfg, objective=objective,
                     dictionary=spec if section == "dictionary" else
                     {"kind": "coordinate", "dim": 3},
                     algorithm={"kind": "GEGA", "tau": 1.0},
                     stop={"max_iter": 20})
        first, again = tmp_path / "runs" / "first", tmp_path / "again"
        assert main(["run", str(cfg), "--out", str(first)]) == 0
        written = json.loads((first / "manifest.json").read_text())["config"]
        key = "design_csv" if section == "objective" else "path"
        assert written[section][key] == f"../../{spec[key]}"
        if section == "objective":
            assert written[section]["labels_csv"] == spec["labels_csv"]
        assert main(["run", str(first / "manifest.json"), "--out",
                     str(again)]) == 0
        assert (first / "trace.csv").read_bytes() == \
            (again / "trace.csv").read_bytes()
        rerun = json.loads((again / "manifest.json").read_text())["config"]
        assert rerun[section][key] == f"../{spec[key]}"

    @pytest.mark.parametrize("overrides,message", REFUSED_CONFIGS.values(),
                             ids=REFUSED_CONFIGS.keys())
    def test_refused_config_exits_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch, overrides, message):
        _no_drivers(monkeypatch)
        cfg = tmp_path / "config.json"
        write_config(cfg, **overrides)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "absent.json"
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            f"config error: config file not found: {cfg}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides,verdict", BENCHMARK_SHAPED.values(),
                             ids=BENCHMARK_SHAPED.keys())
    def test_benchmark_shaped_runs_keep_their_verdicts(self, tmp_path,
                                                       overrides, verdict):
        cfg = tmp_path / "config.json"
        write_config(cfg, **overrides)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        manifest = strict_json((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["results"]["verdicts"] == [verdict]

    def test_missing_dictionary_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, dictionary={"kind": "csv", "path": "nope.csv"},
                     algorithm={"kind": "GEGA", "tau": 1.0})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_hull_check_reads_the_atoms_not_the_label(self, tmp_path):
        """A csv dictionary of 3 I_8 is the coordinate basis once normalised,
        so the minimizer's hull membership is checked, as for ``coordinate``."""
        from greedy_opt.instances import quadratic_geometric
        np.savetxt(tmp_path / "atoms.csv", 3.0 * np.eye(8), delimiter=",")
        target = [float(t) for t in quadratic_geometric(8).minimizer]
        cfg = tmp_path / "config.json"
        write_config(
            cfg,
            objective={"kind": "quadratic", "target": target},
            dictionary={"kind": "csv", "path": "atoms.csv"},
            algorithm={"kind": "GGA_FIXED", "tau": 1.0,
                       "coefficients": {"kind": "power-rule", "t": 1.0}},
            stop={"max_iter": 200},
            diagnostics={"claims": [{"claim": "power-schedule-rate",
                                     "r": 0.3, "hull_radius": 1.0}]})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["run_config"]["dictionary"]["identity"] is True
        verdict = manifest["results"]["verdicts"][0]
        assert verdict["details"]["hull_radius"] == 1.0
        assert not any("not verified" in note for note in verdict["notes"])


class TestSweepCommand:
    def test_grid_rows_in_deterministic_order(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"algorithm.tau.t": [0.25, 0.5, 1.0],
                                    "algorithm.b": [0.3, 0.6]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0].startswith("run,algorithm.tau.t,algorithm.b,status")
        assert len(lines) == 7
        ts = [json.loads(line.split(",")[1]) for line in lines[1:]]
        assert ts == [0.25, 0.25, 0.5, 0.5, 1.0, 1.0]
        for i in range(6):
            assert (out / f"run_{i:04d}" / "trace.csv").exists()

    def test_out_that_is_a_file_exits_2_before_any_run(self, tmp_path,
                                                         capsys, monkeypatch):
        import greedy_opt.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(cli, "execute_run", no_solve)
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"algorithm.b": [0.3, 0.6]}))
        out = tmp_path / "afile"
        out.write_text("keep me")
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err
        assert out.read_text() == "keep me"

    def test_a_point_whose_run_dir_is_a_file_gets_an_error_row(
            self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"algorithm.b": [0.3, 0.6, 0.9]}))
        out = tmp_path / "s"
        out.mkdir()
        (out / "run_0001").write_text("keep me")
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 0
        rows = [line.split(",")
                for line in (out / "summary.csv").read_text().splitlines()]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
        assert rows[2][2:] == ["error: ConfigError", "", "", "", ""]
        assert not rows[1][2].startswith("error") and rows[1][3]
        assert not rows[3][2].startswith("error") and rows[3][3]
        assert (out / "run_0001").read_text() == "keep me"
        assert (out / "run_0002" / "trace.csv").exists()
        assert "2/3 runs succeeded" in capsys.readouterr().out

    @pytest.mark.parametrize("grid, overrides, error", [
        ({"stop.target_gap": [0.5, -1.0]}, {}, "error: ConfigError"),
        ({"algorithm.mu.gamma": [1.0, 5e-324]},
         {"algorithm": SUBNORMAL_GAMMA_ADAPTIVE}, "error: NumericFailure")],
        ids=["target-gap", "step"])
    def test_a_refused_point_gets_an_error_row(self, tmp_path, capsys, grid,
                                               overrides, error):
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "quadratic",
                                     "target": [0.3, 0.4]}, **overrides)
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        out = tmp_path / "s"
        assert main(["sweep", str(cfg), "--grid", str(tmp_path / "grid.json"),
                     "--out", str(out)]) == 0
        rows = [line.split(",")
                for line in (out / "summary.csv").read_text().splitlines()]
        assert not rows[1][2].startswith("error") and rows[1][3]
        assert rows[2][2:] == [error, "", "", "", ""]
        assert "1/2 runs succeeded" in capsys.readouterr().out

    @pytest.mark.parametrize("literal", NON_FINITE.values(),
                             ids=NON_FINITE.keys())
    def test_non_finite_grid_value_exits_2_before_any_run(
            self, tmp_path, capsys, literal):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text('{"stop.target_gap": [0.5, %s]}' % literal)
        out = tmp_path / "s"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and literal in err
        assert not out.exists()

    def test_unreadable_config_or_grid_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"algorithm.b": [0.5]}))
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        out = tmp_path / "s"
        for args, message in (
                ((tmp_path, grid), "config file cannot be read: "),
                ((cfg, tmp_path), "config file cannot be read: "),
                ((deep, grid), "config is nested too deeply to read: "),
                ((cfg, deep), "config is nested too deeply to read: ")):
            config, grid_path = args
            assert main(["sweep", str(config), "--grid", str(grid_path),
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: " + message)
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[]", '"text"', "null", "3"])
    def test_config_that_is_not_an_object_exits_2_before_any_run(
            self, tmp_path, capsys, monkeypatch, text):
        import greedy_opt.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(cli, "execute_run", no_solve)
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"algorithm.b": [0.3, 0.6]}))
        out = tmp_path / "s"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config must be a JSON object")
        assert not out.exists()

    @pytest.mark.parametrize("path", ["stop.max_iterr", "seedd",
                                      "algorithm.tua.t", "objective.target.0"])
    def test_unknown_grid_path_exits_2_before_any_run(self, tmp_path, capsys,
                                                      monkeypatch, path):
        """A path SCHEMA does not list: ``stop.max_iterr`` ran two equal
        points and reported 2/2 runs succeeded."""
        import greedy_opt.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(cli, "execute_run", no_solve)
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"algorithm.b": [0.5], path: [2, 3]}))
        out = tmp_path / "s"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err == \
            f"config error: grid entry {path!r}: unknown path\n"
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("workload", ["sweep-gaussian", "run-objective"])
    def test_benchmark_workloads_run(self, tmp_path, capsys, workload):
        """The benchmark's own configs and grid, as ``perfbench`` writes
        them (a top-level ``seed``; GEGA points that carry GGA_ADAPTIVE's
        ``b`` and ``mu``), run at two steps, every sweep point included."""
        plan = _workloads().write_inputs(workload, 7, tmp_path / "in")
        for command in plan["commands"]:
            argv = [arg.replace("{out}", str(tmp_path / "out"))
                    for arg in command]
            assert main(argv + ["--max-iter", "2"]) == 0
        if workload == "sweep-gaussian":
            assert "sweep: 4/4 runs succeeded" in capsys.readouterr().out

    def test_empty_grid_exits_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text("{}")
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(tmp_path / "s")]) == 2

    def test_singleton_grid_matches_plain_run(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"algorithm.b": [0.5]}))
        _assert_points_match_plain_runs(tmp_path, cfg, grid)

    def test_points_sharing_inputs_match_plain_runs(self, tmp_path):
        _assert_points_match_plain_runs(tmp_path,
                                        *_shared_input_sweep(tmp_path))

    def test_each_distinct_input_is_built_once_per_sweep(self, tmp_path,
                                                          monkeypatch):
        import greedy_opt.cli as cli
        calls = {"build_objective": 0, "build_dictionary": 0}

        def counted(name):
            build = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return build(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        cfg, grid = _shared_input_sweep(tmp_path)
        for sweeps, out in ((1, "s1"), (2, "s2")):
            assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                         str(tmp_path / out)]) == 0
            # a second sweep in the same process builds again: no build
            # outlives the sweep that made it
            assert calls == {"build_objective": sweeps,
                             "build_dictionary": 2 * sweeps}

    def test_one_dictionary_is_alive_at_a_time(self, tmp_path, monkeypatch):
        import greedy_opt.cli as cli
        build = cli.build_dictionary
        refs, alive_at_build = [], []

        def tracked(*args, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in refs))
            dictionary = build(*args, **kwargs)
            refs.append(weakref.ref(dictionary))
            return dictionary
        monkeypatch.setattr(cli, "build_dictionary", tracked)
        cfg, grid = _shared_input_sweep(tmp_path)
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(tmp_path / "s")]) == 0
        assert alive_at_build == [0, 0]

    def test_failed_rows_are_recorded(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "quadratic",
                                     "target": [1.0, 2.0]})
        grid = tmp_path / "grid.json"
        # second point drives the run into a majorant violation
        grid.write_text(json.dumps(
            {"algorithm.mu": ["objective",
                              {"kind": "power", "gamma": 0.05, "q": 2.0}]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert "error: MajorantViolationError" in lines[2]

    def test_non_integer_max_iter_fails_its_row_only(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"stop.max_iter": [True, 3, 2.7]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 0
        rows = [line.split(",")
                for line in (out / "summary.csv").read_text().splitlines()]
        assert [row[2:4] for row in rows[1:]] == [
            ["error: ConfigError", ""], ["max-iter", "3"],
            ["error: ConfigError", ""]]

    def test_non_finite_grad_tol_fails_its_row_only(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"stop.grad_tol": ["nan", 0.0, True]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 0
        rows = [line.split(",")
                for line in (out / "summary.csv").read_text().splitlines()]
        assert [row[2] for row in rows[1:]] == [
            "error: ConfigError", "max-iter", "error: ConfigError"]

    def test_non_finite_list_entry_fails_its_row_only(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, stop={"max_iter": 5})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"objective.target": [
            ["0.5", True], [0.5, 0.25], [0.5, 10**400]]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert ["error: ConfigError" in row for row in rows] == \
            [True, False, True]
        assert not (out / "run_0000" / "trace.csv").exists()
        assert (out / "run_0001" / "trace.csv").exists()

    def test_bad_max_iter_flag_exits_2_before_any_run(self, tmp_path, capsys,
                                                     monkeypatch):
        """``--max-iter`` applies to every point, so it is checked once, with
        the message ``run`` gives, and no point runs."""
        import greedy_opt.cli as cli

        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["run", str(cfg), "--out", str(tmp_path / "r"),
                     "--max-iter", "-5"]) == 2
        message = capsys.readouterr().err
        assert message == "config error: max_iter must be at least 1\n"

        def no_solve(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(cli, "execute_run", no_solve)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"algorithm.b": [0.3, 0.6]}))
        out = tmp_path / "s"
        for flag in ("-5", "0"):
            assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                         str(out), "--max-iter", flag]) == 2
            assert capsys.readouterr().err == message
        assert not out.exists()

    def test_short_schedule_fails_its_row_only(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, algorithm=FIXED_SHORT_SCHEDULE)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"stop.max_iter": [2, 5]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "max-iter"
        assert lines[2].split(",")[2] == "error: ConfigError"

    def test_unreadable_dictionary_fails_its_row_only(self, tmp_path):
        np.savetxt(tmp_path / "atoms.csv", np.eye(2), delimiter=",")
        cfg = tmp_path / "config.json"
        write_config(cfg, dictionary={"kind": "csv", "path": "atoms.csv"})
        grid = tmp_path / "grid.json"
        # a build that raises is not kept: both points of its key fail
        grid.write_text(json.dumps({"dictionary.path": ["nope.csv",
                                                        "atoms.csv",
                                                        "nope.csv"]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        assert [line.split(",")[2] for line in lines[1:4:2]] == \
            ["error: ConfigError"] * 2
        assert not lines[2].split(",")[2].startswith("error")
        assert (out / "run_0001" / "trace.csv").exists()
        assert not (out / "run_0000").exists()
        assert not (out / "run_0002").exists()

    @pytest.mark.parametrize("output", BAD_OUTPUTS.values(),
                             ids=BAD_OUTPUTS.keys())
    def test_bad_output_names_fail_their_row_only(self, tmp_path, output):
        cfg = tmp_path / "config.json"
        write_config(cfg, stop={"max_iter": 5})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"output": [output, {}]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out",
                     str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].endswith("error: ConfigError,,,,")
        assert ",max-iter,5," in lines[2]
        assert not (out / "run_0000").exists()
        assert (out / "run_0001" / "trace.csv").is_file()


class TestVerifyCommand:
    def test_list_prints_without_running(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "01-gradient-method-equivalence" in out
        assert "12-trace-determinism" in out

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_at_or_under_a_file_exits_2_before_the_suite(
            self, tmp_path, capsys, monkeypatch, out):
        from greedy_opt import verification

        def no_suite(*args, **kwargs):
            raise AssertionError("the suite started")
        monkeypatch.setattr(verification, "run_all", no_suite)
        (tmp_path / "afile").write_text("keep me")
        assert main(["verify", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path / out) in err
