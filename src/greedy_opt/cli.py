"""Batch experiment runner: ``run`` a config, ``sweep`` a grid, ``verify`` the suite.

Configs are versioned JSON.  Exit codes: 0 success, 2 validation error,
3 energy-inequality (majorant) violation, 4 numeric failure.  Parameter ranges
are checked by the library constructors and drivers; ``execute_run`` turns any
of their errors into a ConfigError.  The CLI itself checks a config against
one table, ``SCHEMA``: each object's keys and each value's kind.  A key the
table does not list, and a value not of its kind, is exit 2 before the
solve, naming its path.  A field a config leaves out takes the library's
default, which lives only in the library's signatures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import Majorant, NormTag, NumericFailure
from .dictionaries import (
    FiniteDictionary,
    SphereDictionary,
    check_mode,
    read_csv_matrix,
)
from .diagnostics import ALL_CLAIMS, claim_verdict, fit_rate
from .greedy import (
    CoefficientSequence,
    MajorantViolationError,
    StopRule,
    WeaknessSequence,
    make_power_coefficients,
    run_ega,
    run_gbe,
    run_gega,
    run_gga_adaptive,
    run_gga_fixed,
)
from .objectives import logistic_objective, p_power_objective, quadratic_objective
from .traceio import atomic_write_text, write_manifest, write_trace_csv
from .verification import VerifyContext, criterion_names, run_all

SCHEMA_VERSION = 1

# The config schema.  A kind is a leaf kind, an object (a dict of its keys'
# kinds), a list of one kind ([kind]) or a choice (a tuple of kinds: its one
# leaf kind, if any, first, and None where null is allowed).  An object's
# keys are those of all its kinds: a sweep varies ``algorithm.kind`` over one
# config, so a key is refused only when no kind reads it, and a listed key is
# checked whether or not its kind reads it.  The top-level ``seed`` is
# echoed in the manifest and never read.
#
# The leaf kinds: a finite number read as a float, a finite number kept as
# written (an integer stays one in a verdict), an integer and a string.
FLOAT, NUMBER, INT, STR = "float", "number", "int", "str"
WEAKNESS = (FLOAT, {"kind": STR, "t": FLOAT, "values": [FLOAT]}, None)
MAJORANT = (STR, {"kind": STR, "gamma": FLOAT, "q": FLOAT}, None)
COEFFICIENTS = {"kind": STR, "c": FLOAT, "s": FLOAT, "t": FLOAT, "q": FLOAT,
                "gamma": FLOAT, "values": [FLOAT]}
CLAIM = {"claim": STR, "r": (NUMBER, None), "hull_radius": (NUMBER, None),
         "tolerance": FLOAT, "calibration": INT}
SCHEMA = {
    "schema": INT, "seed": INT,
    "objective": {"kind": STR, "target": [FLOAT], "scale": FLOAT, "p": FLOAT,
                  "region_radius": FLOAT, "design": [[FLOAT]],
                  "response": [FLOAT], "labels": [FLOAT], "design_csv": STR,
                  "response_csv": STR, "labels_csv": STR},
    "dictionary": {"kind": STR, "dim": INT, "count": INT, "seed": INT,
                   "path": STR, "p": FLOAT},
    "algorithm": {"kind": STR, "tau": WEAKNESS, "t": WEAKNESS, "mode": STR,
                  "b": FLOAT, "line_tol": FLOAT, "mu": MAJORANT,
                  "coefficients": COEFFICIENTS},
    "stop": ({"max_iter": INT, "grad_tol": (FLOAT, None),
              "target_gap": (FLOAT, None)}, None),
    "diagnostics": ({"fit_window": ([INT], None),
                     "claims": ([(STR, CLAIM)], None)}, None),
    "output": ({"trace": STR, "manifest": STR}, None),
}


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _finite_number(text):
    """A JSON number as a float; NaN, Infinity, -Infinity and numbers that
    overflow to one of them are not JSON and raise ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite_number,
                             parse_constant=_finite_number)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, no read permission
        raise ConfigError(f"config file cannot be read: {exc}")
    except RecursionError:
        raise ConfigError(f"config is nested too deeply to read: {path}")
    except ValueError as exc:  # JSONDecodeError, a non-finite number, bad UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}")


def _array(spec, key, base_dir, vector=False):
    """``spec[key]`` inline, a matrix's rows all as long as the first, or
    else read from the CSV file named by ``spec[key + "_csv"]`` and
    flattened when ``vector``."""
    if key not in spec:
        data = read_csv_matrix(Path(base_dir) / spec[key + "_csv"])
        return data.reshape(-1) if vector else data
    rows = spec[key]
    for index, row in enumerate([] if vector else rows):
        _require(len(row) == len(rows[0]), f"objective.{key}[{index}] must "
                 f"have {len(rows[0])} entries, as objective.{key}[0] has")
    return np.asarray(rows, dtype=float)


def _kind(spec, what):
    _require(isinstance(spec, dict) and "kind" in spec,
             f"{what} spec needs a 'kind'")
    return spec["kind"]


def build_objective(spec, base_dir="."):
    kind = _kind(spec, "objective")
    if kind == "quadratic":
        _require("target" in spec, "quadratic objective needs a target")
        return quadratic_objective(spec["target"], **_given(spec, "scale"))
    if kind == "p_power":
        design = _array(spec, "design", base_dir)
        response = _array(spec, "response", base_dir, vector=True)
        return p_power_objective(design, response, spec.get("p", 2.0))
    if kind == "logistic":
        design = _array(spec, "design", base_dir)
        labels = _array(spec, "labels", base_dir, vector=True)
        return logistic_objective(design, labels,
                                  **_given(spec, "region_radius"))
    raise ConfigError(f"unknown objective kind {kind!r}")


def build_dictionary(spec, base_dir="."):
    kind = _kind(spec, "dictionary")
    norm = NormTag(**_given(spec, "p"))
    if kind == "coordinate":
        _require("dim" in spec, "coordinate dictionary needs 'dim'")
        return FiniteDictionary.coordinate(spec["dim"], norm=norm)
    if kind == "gaussian":
        for key in ("dim", "count", "seed"):
            _require(key in spec, f"gaussian dictionary needs {key!r}")
        return FiniteDictionary.gaussian(spec["dim"], spec["count"],
                                         spec["seed"], norm=norm)
    if kind == "csv":
        _require("path" in spec, "csv dictionary needs 'path'")
        return FiniteDictionary.from_csv(Path(base_dir) / spec["path"],
                                         norm=norm)
    if kind == "sphere":
        return SphereDictionary(norm=norm)
    raise ConfigError(f"unknown dictionary kind {kind!r}")


def build_weakness(spec):
    """A number, an object or None for t = 1."""
    if not isinstance(spec, dict):
        return WeaknessSequence.constant(1.0 if spec is None else spec)
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return WeaknessSequence.constant(spec["t"])
    if kind == "explicit":
        return WeaknessSequence.explicit(spec["values"])
    raise ConfigError(f"unknown weakness kind {kind!r}")


def build_coefficients(spec, objective):
    kind = _kind(spec, "coefficient")
    if kind == "power":
        return CoefficientSequence.power(spec["c"], spec["s"])
    if kind == "explicit":
        return CoefficientSequence.explicit(spec["values"])
    if kind == "power-rule":
        mu = objective.majorant
        return make_power_coefficients(spec.get("t", 1.0), spec.get("q", mu.q),
                                       spec.get("gamma", mu.gamma))
    raise ConfigError(f"unknown coefficient kind {kind!r}")


def build_majorant(spec):
    if spec is None or spec == "objective":
        return None  # runner falls back to the objective's majorant
    _require(isinstance(spec, dict) and spec.get("kind") == "power",
             "majorant spec must be 'objective' or a power law")
    return Majorant.power(spec["gamma"], spec["q"])


def build_stop(spec, max_iter_override=None):
    spec = {"max_iter": 1000, **(spec or {})}
    if max_iter_override is not None:
        spec["max_iter"] = max_iter_override
    return StopRule(**spec)


def execute_run(config, base_dir=".", max_iter_override=None, out_dir=".",
                builds=None):
    """Build everything from a config, run it and write its trace and
    manifest under ``out_dir``; return ``(trace, manifest, paths)``, with
    the (trace, manifest) paths written.  ``builds``, a sweep's own dict,
    keeps the objective and dictionary for its next point (``_build``).

    The one validation boundary: the config is checked against ``SCHEMA``
    first, and then a ValueError, TypeError, KeyError,
    IndexError or OSError raised while building, running or writing (a
    parameter out of range, a schedule shorter than the run, a malformed
    value, an input file that cannot be read, an output that cannot be
    written) becomes a ConfigError.  The output paths are checked once,
    before the solve.  Majorant violations and numeric failures pass through
    unchanged; an overflow on the way to one prints no numpy warning.
    """
    try:
        with np.errstate(over="ignore"):  # exit 4 says it, not numpy
            return _execute_run(config, base_dir, max_iter_override, out_dir,
                                builds)
    except (ValueError, TypeError, KeyError, IndexError, OSError) as exc:
        message = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(message) from exc


def _build_key(spec, base_dir):
    """Points whose specs and base directory agree build equal inputs."""
    return str(base_dir), json.dumps(spec, sort_keys=True)


def _build(builds, name, builder, spec, base_dir):
    """``builder(spec, base_dir)``, kept in ``builds[name]`` while the key
    holds.  The old build is dropped before the new one is made, so at most
    one per name is alive; a build that raises is not kept."""
    if builds is None:
        return builder(spec, base_dir)
    key = _build_key(spec, base_dir)
    if name not in builds or builds[name][0] != key:
        builds.pop(name, None)
        builds[name] = (key, builder(spec, base_dir))
    return builds[name][1]


def _execute_run(config, base_dir, max_iter_override, out_dir, builds):
    _require(isinstance(config, dict) and _is_integer(config.get("schema"))
             and config["schema"] == SCHEMA_VERSION,
             f"config schema must be {SCHEMA_VERSION}")
    spec = _checked(config, SCHEMA, "")
    # the builders are looked up here, at call time, so wrappers see them
    objective = _build(builds, "objective", build_objective,
                       spec.get("objective"), base_dir)
    dictionary = _build(builds, "dictionary", build_dictionary,
                        spec.get("dictionary"), base_dir)
    algo = spec.get("algorithm")
    kind = _kind(algo, "algorithm")
    stop = build_stop(spec.get("stop"), max_iter_override)
    window, claims = _diagnostics(spec.get("diagnostics") or {})
    paths = _output_paths(spec.get("output") or {}, out_dir)

    if kind != "EGA":  # a weak-greedy selection: its weakness and mode
        key = "tau" if "tau" in algo else "t"
        tau = build_weakness(algo.get(key))
        mode = {"mode": check_mode(algo["mode"])} if "mode" in algo else {}
    if kind in ("GBE", "EGA", "GGA_FIXED"):  # a prescribed schedule
        coeffs = build_coefficients(algo.get("coefficients"), objective)
    if kind == "GBE":
        _require(tau.kind == "constant",
                 f"algorithm.{key} must be a constant weakness for GBE")
        trace = run_gbe(objective, dictionary, tau(1), coeffs, stop, **mode)
    elif kind == "EGA":
        trace = run_ega(objective, dictionary, coeffs, stop)
    elif kind == "GGA_FIXED":
        trace = run_gga_fixed(objective, dictionary, tau, coeffs, stop, **mode)
    elif kind == "GGA_ADAPTIVE":
        mu = build_majorant(algo.get("mu"))
        trace = run_gga_adaptive(objective, dictionary, tau,
                                 algo.get("b", 0.5), stop, majorant=mu, **mode)
    elif kind == "GEGA":
        trace = run_gega(objective, dictionary, tau, stop, **mode,
                         **_given(algo, "line_tol"))
    else:
        raise ConfigError(f"unknown algorithm kind {kind!r}")

    results = {"status": trace.status, "iterations": len(trace),
               "final_E": trace.final_E, "final_gap": trace.final_gap}
    if trace.infimum is not None and len(trace) >= 10:
        results["fit"] = fit_rate(trace, window=window).describe()
    if claims:
        results["verdicts"] = [claim_verdict(trace=trace, **spec).describe()
                               for spec in claims]
    resolved = dict(_relocated(config, base_dir, paths[1].parent),
                    stop=trace.config["stop"])
    manifest = {"schema": SCHEMA_VERSION, "config": resolved,
                "results": results, "run_config": trace.config}
    write_trace_csv(trace, paths[0])
    write_manifest(manifest, paths[1])
    return trace, manifest, paths


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(value, kind, path):
    """``value``, at config path ``path``, checked against ``kind`` (see
    ``SCHEMA``) as a copy whose FLOAT leaves are floats.  A choice takes the
    option of the value's type (an object, a list or null), or else its
    first option, its leaf kind where it has one.  A finite number is an
    integer or a float (not a boolean) at most the largest float in size;
    unlike ``math.isfinite``, the comparison cannot overflow on a huge
    integer."""
    if isinstance(kind, tuple):
        kind = next((k for k in kind if type(k) is type(value)), kind[0])
    if isinstance(kind, dict):
        _require(isinstance(value, dict), f"{path} must be an object")
        checked = {}
        for key, item in value.items():
            field = f"{path}.{key}" if path else key
            _require(key in kind, f"{field}: unknown key; keys {sorted(kind)}")
            checked[key] = _checked(item, kind[key], field)
        return checked
    if isinstance(kind, list):
        _require(isinstance(value, list), f"{path} must be a list")
        return [_checked(item, kind[0], f"{path}[{index}]")
                for index, item in enumerate(value)]
    if kind == INT:
        _require(_is_integer(value), f"{path} must be an integer")
    if kind == STR:
        _require(isinstance(value, str), f"{path} must be a string")
    if kind in (FLOAT, NUMBER):
        _require((_is_integer(value) or isinstance(value, float))
                 and abs(value) <= sys.float_info.max,
                 f"{path} must be a finite number")
        return float(value) if kind == FLOAT else value
    return value


def _paths(kind, prefix=""):
    """The dotted paths of the keys below ``kind`` that lie in no list, as a
    sweep grid names them (``algorithm.tau.t``)."""
    for option in kind if isinstance(kind, tuple) else (kind,):
        for key in option if isinstance(option, dict) else ():
            yield prefix + key
            yield from _paths(option[key], f"{prefix}{key}.")


def _given(spec, *keys):
    """The fields among ``keys`` that ``spec`` sets, as keyword arguments;
    one left out is not passed, so it takes the library's default."""
    return {key: spec[key] for key in keys if key in spec}


def _diagnostics(diag):
    """The checked ``diagnostics`` spec as ``(window, claims)``: its
    ``fit_window``, None for the default window (null or ``[]``), and each
    claim as ``claim_verdict``'s keyword arguments, a name as ``{"claim":
    name}``; a parameter left out takes ``claim_verdict``'s default.  A
    window outside the trace fails after the solve."""
    window = diag.get("fit_window") or None
    _require(window is None or len(window) == 2,
             "diagnostics.fit_window must be a list of two integers")
    claims = [{"claim": spec} if isinstance(spec, str) else spec
              for spec in diag.get("claims") or []]
    for index, spec in enumerate(claims):
        name = spec.get("claim")
        _require(name in ALL_CLAIMS,
                 f"diagnostics.claims[{index}].claim: unknown claim {name!r}; "
                 f"choose from {sorted(ALL_CLAIMS)}")
    return window, claims


def _output_paths(output, out_dir):
    """(trace, manifest) paths under ``out_dir`` for the ``output`` spec,
    checked before the solve: two distinct files, neither inside the other's
    path, neither a directory nor under a file."""
    names = (output.get("trace", "trace.csv"),
             output.get("manifest", "manifest.json"))
    for name in names:
        _require(os.path.basename(name) not in ("", ".", ".."),
                 f"output name {name!r} does not name a file")
    trace, manifest = (os.path.normpath(name) + os.sep for name in names)
    _require(not (trace.startswith(manifest) or manifest.startswith(trace)),
             "output trace and manifest must be distinct files")
    paths = [Path(out_dir) / name for name in names]
    for path in paths:
        _require(not path.is_dir(), f"output {path} is a directory")
        _no_file_on(path.parent, f"output {path}")
    return paths


# The config fields that name CSV files, by section.
_CSV_FIELDS = {"objective": ("design_csv", "response_csv", "labels_csv"),
               "dictionary": ("path",)}


def _relocated(config, base_dir, manifest_dir):
    """``config`` with each relative CSV path it names, written relative to
    ``base_dir``, rewritten relative to ``manifest_dir``: a path resolves
    against the directory of the file that names it, and the manifest is
    itself a config.  An absolute path, and a dictionary ``path`` that only
    the ``csv`` kind reads, stay as written."""
    config = dict(config)
    for section, fields in _CSV_FIELDS.items():
        spec = dict(config[section])
        if section == "dictionary" and spec["kind"] != "csv":
            continue
        for field in fields:
            if field in spec and not os.path.isabs(spec[field]):
                spec[field] = os.path.relpath(
                    os.path.realpath(Path(base_dir) / spec[field]),
                    os.path.realpath(manifest_dir))
        config[section] = spec
    return config


def _no_file_on(path, label):
    """Neither ``path`` nor a parent may exist as anything but a directory."""
    for part in (path, *path.parents):
        _require(part.is_dir() or not part.exists(),
                 f"{label}: {part} is not a directory")


def _out_dir(out):
    """``--out`` as a Path, checked before any solve (``_no_file_on``)."""
    path = Path(out)
    _no_file_on(path, f"--out {out}")
    return path


def _unwrap_manifest(payload):
    # a manifest is itself a runnable config (round-trip property)
    if isinstance(payload, dict) and isinstance(payload.get("config"), dict) \
            and "results" in payload:
        return payload["config"]
    return payload


def cmd_run(args):
    config = _unwrap_manifest(_load_json(args.config))
    trace, _, (trace_path, manifest_path) = execute_run(
        config, base_dir=Path(args.config).parent,
        max_iter_override=args.max_iter, out_dir=args.out)
    print(f"{trace.config['algorithm']}: {len(trace)} iterations, "
          f"status {trace.status}, final E {trace.final_E:.6g}"
          + (f", gap {trace.final_gap:.3e}" if trace.final_gap is not None
             else ""))
    print(f"trace: {trace_path}")
    print(f"manifest: {manifest_path}")
    return 0


def _set_by_path(config, dotted, value):
    node = config
    parts = dotted.split(".")
    for key in parts[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    node[parts[-1]] = value


_SUMMARY_COLUMNS = ["status", "iterations", "final_E", "final_gap",
                   "fit_exponent"]


def _sweep_one(index, config, base_dir, out_dir, max_iter, builds):
    """The point's summary cells, read from its manifest's results."""
    run_dir = Path(out_dir) / f"run_{index:04d}"
    try:
        _, manifest, _ = execute_run(config, base_dir=base_dir,
                                     max_iter_override=max_iter,
                                     out_dir=run_dir, builds=builds)
    except (ConfigError, MajorantViolationError, NumericFailure,
            OverflowError) as exc:
        return [f"error: {type(exc).__name__}"] + [""] * 4
    results = manifest["results"]
    values = [results[key] for key in _SUMMARY_COLUMNS[:4]]
    values.append((results.get("fit") or {}).get("exponent"))
    return ["" if v is None else format(v, ".17g") if isinstance(v, float)
            else str(v) for v in values]


def cmd_sweep(args):
    config = _unwrap_manifest(_load_json(args.config))
    _require(isinstance(config, dict), "config must be a JSON object")
    grid = _load_json(args.grid)
    _require(isinstance(grid, dict) and grid, "grid must be a nonempty object")
    names = list(grid.keys())
    for name in names:
        _require(isinstance(grid[name], list) and grid[name],
                 f"grid entry {name!r} must be a nonempty list")
        _require(name in _paths(SCHEMA), f"grid entry {name!r}: unknown path")
    if args.max_iter is not None:  # the flag would fail every point
        try:
            StopRule(max_iter=args.max_iter)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    points = list(itertools.product(*(grid[n] for n in names)))
    base_dir = Path(args.config).parent
    out = _out_dir(args.out)

    configs = [json.loads(json.dumps(config)) for _ in points]  # deep copies
    for point, values in zip(configs, points):
        for name, value in zip(names, values):
            _set_by_path(point, name, value)
    # points that share their inputs run back to back, one build serving all
    order = sorted(range(len(configs)), key=lambda i: tuple(
        _build_key(configs[i].get(part), base_dir)
        for part in ("objective", "dictionary")))
    builds, cells = {}, [None] * len(configs)
    for index in order:
        cells[index] = _sweep_one(index, configs[index], base_dir, out,
                                  args.max_iter, builds)
    succeeded = sum(not row[0].startswith("error") for row in cells)
    lines = [",".join(["run"] + names + _SUMMARY_COLUMNS)]
    for index, values in enumerate(points):
        lines.append(",".join([str(index)] + [json.dumps(v) for v in values]
                              + cells[index]))
    summary = out / "summary.csv"
    atomic_write_text(summary, "\n".join(lines) + "\n")
    print(f"sweep: {succeeded}/{len(points)} runs succeeded; summary {summary}")
    return 0 if succeeded else 1


def cmd_verify(args):
    if args.list:
        for name in criterion_names():
            print(name)
        return 0
    ctx = VerifyContext(out_dir=_out_dir(args.out),
                        fault_gamma_half=(args.inject_fault == "gamma-half"))
    results = run_all(ctx)
    width = max(len(r.name) for r in results)
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}}  {r.elapsed:5.2f}s  {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if failed:
        print("failed: " + ", ".join(r.name for r in failed))
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="greedy-opt",
        description="Greedy dictionary expansions for smooth convex "
                    "minimization: batch runs, sweeps, and the verification "
                    "suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("config", help="JSON config (or a manifest) to execute")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--max-iter", type=int, default=None,
                       help="override the stop rule's max_iter")

    p_sweep = sub.add_parser("sweep", help="grid of runs over config parameters")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True,
                         help="JSON file mapping dotted config paths to value lists")
    p_sweep.add_argument("--out", default="sweep-out")
    p_sweep.add_argument("--max-iter", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.add_argument("--list", action="store_true",
                          help="print the criteria without running them")
    p_verify.add_argument("--out", default="verify-out",
                          help="directory for the criteria's trace files")
    p_verify.add_argument("--inject-fault", choices=["gamma-half"],
                          default=None,
                          help="halve the declared quadratic majorants to "
                               "demonstrate violation detection")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MajorantViolationError as exc:
        print(f"MAJORANT_VIOLATION: {exc}", file=sys.stderr)
        return 3
    except (NumericFailure, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
