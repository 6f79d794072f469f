"""Batch experiment runner: ``run`` a config, ``sweep`` a grid, ``verify`` the suite.

Configs are versioned JSON.  Exit codes: 0 success, 2 validation error,
3 energy-inequality (majorant) violation, 4 numeric failure.  Parameter ranges
are checked by the library constructors and drivers; ``execute_run`` turns any
of their errors into a ConfigError, so the CLI itself checks only structure.
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
    ARGMAX,
    FIRST_ABOVE,
    FiniteDictionary,
    SphereDictionary,
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
    """``spec[key]`` inline, or else read from the CSV file named by
    ``spec[key + "_csv"]`` and flattened when ``vector``."""
    if key in spec:
        return np.asarray(spec[key], dtype=float)
    data = read_csv_matrix(Path(base_dir) / spec[key + "_csv"])
    return data.reshape(-1) if vector else data


def build_objective(spec, base_dir="."):
    _require(isinstance(spec, dict) and "kind" in spec,
             "objective spec needs a 'kind'")
    kind = spec["kind"]
    if kind == "quadratic":
        _require("target" in spec, "quadratic objective needs a target")
        return quadratic_objective(spec["target"],
                                   scale=spec.get("scale", 1.0))
    if kind == "p_power":
        design = _array(spec, "design", base_dir)
        response = _array(spec, "response", base_dir, vector=True)
        return p_power_objective(design, response, spec.get("p", 2.0))
    if kind == "logistic":
        design = _array(spec, "design", base_dir)
        labels = _array(spec, "labels", base_dir, vector=True)
        return logistic_objective(design, labels,
                                  region_radius=spec.get("region_radius", 10.0))
    raise ConfigError(f"unknown objective kind {kind!r}")


def build_dictionary(spec, base_dir="."):
    _require(isinstance(spec, dict) and "kind" in spec,
             "dictionary spec needs a 'kind'")
    kind = spec["kind"]
    norm = NormTag(spec.get("p", 2.0))
    if kind == "coordinate":
        _require("dim" in spec, "coordinate dictionary needs 'dim'")
        _require(_is_integer(spec["dim"]), "dictionary.dim must be an integer")
        return FiniteDictionary.coordinate(spec["dim"], norm=norm)
    if kind == "gaussian":
        for key in ("dim", "count", "seed"):
            _require(key in spec, f"gaussian dictionary needs {key!r}")
            _require(_is_integer(spec[key]),
                     f"dictionary.{key} must be an integer")
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
    if spec is None:
        return WeaknessSequence.constant(1.0)
    if isinstance(spec, (int, float)):
        spec = {"kind": "constant", "t": spec}
    _require(isinstance(spec, dict), "tau must be a number or an object")
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return WeaknessSequence.constant(spec["t"])
    if kind == "explicit":
        return WeaknessSequence.explicit(spec["values"])
    raise ConfigError(f"unknown weakness kind {kind!r}")


def build_coefficients(spec, objective):
    _require(isinstance(spec, dict) and "kind" in spec,
             "coefficient spec needs a 'kind'")
    kind = spec["kind"]
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
    spec = {} if spec is None else spec
    _require(isinstance(spec, dict), "stop must be an object")
    max_iter = (max_iter_override if max_iter_override is not None
                else spec.get("max_iter", 1000))
    _require(_is_integer(max_iter), "stop.max_iter must be an integer")
    grad_tol = spec.get("grad_tol")
    target_gap = spec.get("target_gap")
    return StopRule(max_iter=max_iter,
                    grad_tol=None if grad_tol is None else float(grad_tol),
                    target_gap=None if target_gap is None
                    else float(target_gap))


def _mode(spec):
    mode = spec.get("mode", ARGMAX)
    _require(mode in (ARGMAX, FIRST_ABOVE),
             f"mode must be {ARGMAX!r} or {FIRST_ABOVE!r}")
    return mode


def execute_run(config, base_dir=".", max_iter_override=None, out_dir=".",
                builds=None):
    """Build everything from a config and run it.  ``builds``, a sweep's own
    dict, keeps the objective and dictionary for its next point (``_build``).

    The one validation boundary: a ValueError, TypeError, KeyError,
    IndexError or OSError raised while building or running (a parameter out of
    range, a schedule shorter than the run, a malformed value, an input file
    that cannot be read) becomes a ConfigError, and so do output paths under
    ``out_dir`` that could not be written, checked before the solve.
    Majorant violations and numeric failures pass through unchanged.
    """
    try:
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
    _require(isinstance(config, dict)
             and config.get("schema") == SCHEMA_VERSION,
             f"config schema must be {SCHEMA_VERSION}")
    # the builders are looked up here, at call time, so wrappers see them
    objective = _build(builds, "objective", build_objective,
                       config.get("objective"), base_dir)
    dictionary = _build(builds, "dictionary", build_dictionary,
                        config.get("dictionary"), base_dir)
    algo = config.get("algorithm")
    _require(isinstance(algo, dict) and "kind" in algo,
             "algorithm spec needs a 'kind'")
    stop = build_stop(config.get("stop"), max_iter_override)
    diag = config.get("diagnostics") or {}
    _require(isinstance(diag, dict), "diagnostics must be an object")
    window = _fit_window(diag.get("fit_window"))
    claims = _claim_specs(diag.get("claims") or [])
    _output_paths(config, out_dir)
    kind = algo["kind"]

    if kind == "GBE":
        coeffs = build_coefficients(algo.get("coefficients"), objective)
        trace = run_gbe(objective, dictionary, algo.get("t", 1.0), coeffs,
                        stop, mode=_mode(algo))
    elif kind == "EGA":
        coeffs = build_coefficients(algo.get("coefficients"), objective)
        trace = run_ega(objective, dictionary, coeffs, stop)
    elif kind == "GGA_FIXED":
        tau = build_weakness(algo.get("tau", algo.get("t")))
        coeffs = build_coefficients(algo.get("coefficients"), objective)
        trace = run_gga_fixed(objective, dictionary, tau, coeffs, stop,
                              mode=_mode(algo))
    elif kind == "GGA_ADAPTIVE":
        tau = build_weakness(algo.get("tau", algo.get("t")))
        mu = build_majorant(algo.get("mu", "objective"))
        trace = run_gga_adaptive(objective, dictionary, tau,
                                 algo.get("b", 0.5), stop,
                                 majorant=mu, mode=_mode(algo))
    elif kind == "GEGA":
        tau = build_weakness(algo.get("tau", algo.get("t")))
        trace = run_gega(objective, dictionary, tau, stop, mode=_mode(algo),
                         line_tol=float(algo.get("line_tol", 1e-12)))
    else:
        raise ConfigError(f"unknown algorithm kind {kind!r}")

    results = {"status": trace.status, "iterations": len(trace),
               "final_E": trace.final_E, "final_gap": trace.final_gap}
    if trace.infimum is not None and len(trace) >= 10:
        results["fit"] = fit_rate(trace, window=window).describe()
    verdicts = []
    for claim_spec in claims:
        verdict = claim_verdict(
            claim_spec["claim"], trace,
            r=claim_spec.get("r"),
            hull_radius=claim_spec.get("hull_radius"),
            tolerance=float(claim_spec.get("tolerance", 1e-2)),
            calibration=claim_spec.get("calibration", 10))
        verdicts.append(verdict.describe())
    if verdicts:
        results["verdicts"] = verdicts
    resolved = dict(config)
    resolved["stop"] = trace.config["stop"]
    manifest = {"schema": SCHEMA_VERSION, "config": resolved,
                "results": results, "run_config": trace.config}
    return trace, manifest


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_integer(value) or isinstance(value, float)


def _fit_window(window):
    """``diagnostics.fit_window`` as (lo, hi), or None for the default window.

    Checked before the solve; a window outside the trace fails after it.
    """
    if window is None or window == []:
        return None
    _require(isinstance(window, list) and len(window) == 2
             and all(_is_integer(m) for m in window),
             "diagnostics.fit_window must be a list of two integers")
    return tuple(window)


def _claim_specs(claims):
    """``diagnostics.claims`` as objects, names and parameter types checked."""
    _require(isinstance(claims, list)
             and all(isinstance(c, (str, dict)) for c in claims),
             "diagnostics.claims must be a list of names or objects")
    specs = []
    for index, spec in enumerate(claims):
        spec = {"claim": spec} if isinstance(spec, str) else spec
        field = f"diagnostics.claims[{index}]"
        name = spec.get("claim")
        _require(name in ALL_CLAIMS, f"{field}.claim: unknown claim {name!r}; "
                                     f"choose from {sorted(ALL_CLAIMS)}")
        for key in ("r", "hull_radius"):
            _require(spec.get(key) is None or _is_number(spec[key]),
                     f"{field}.{key} must be a number or null")
        _require(_is_number(spec.get("tolerance", 1e-2)),
                 f"{field}.tolerance must be a number")
        _require(_is_integer(spec.get("calibration", 10)),
                 f"{field}.calibration must be an integer")
        specs.append(spec)
    return specs


def _output_names(config):
    """(trace, manifest) file names, two distinct files neither of which lies
    inside the other's path; checked before the solve starts."""
    output = config.get("output") or {}
    _require(isinstance(output, dict), "output must be an object")
    names = (output.get("trace", "trace.csv"),
             output.get("manifest", "manifest.json"))
    _require(all(isinstance(name, str) for name in names),
             "output file names must be strings")
    for name in names:
        _require(os.path.basename(name) not in ("", ".", ".."),
                 f"output name {name!r} does not name a file")
    trace, manifest = (os.path.normpath(name) + os.sep for name in names)
    _require(not (trace.startswith(manifest) or manifest.startswith(trace)),
             "output trace and manifest must be distinct files")
    return names


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


def _output_paths(config, out_dir):
    """(trace, manifest) paths under ``out_dir``, checked before the solve:
    neither may be a directory or lie under a file."""
    paths = [Path(out_dir) / name for name in _output_names(config)]
    for path in paths:
        _require(not path.is_dir(), f"output {path} is a directory")
        _no_file_on(path.parent, f"output {path}")
    return paths


def _write_outputs(trace, manifest, config, out_dir):
    trace_path, manifest_path = _output_paths(config, out_dir)
    try:
        write_trace_csv(trace, trace_path)
        write_manifest(manifest, manifest_path)
    except OSError as exc:
        raise ConfigError(f"cannot write the outputs: {exc}") from exc
    return trace_path, manifest_path


def _unwrap_manifest(payload):
    # a manifest is itself a runnable config (round-trip property)
    if isinstance(payload, dict) and isinstance(payload.get("config"), dict) \
            and "results" in payload:
        return payload["config"]
    return payload


def cmd_run(args):
    config = _unwrap_manifest(_load_json(args.config))
    base_dir = Path(args.config).parent
    out = _out_dir(args.out)
    trace, manifest = execute_run(config, base_dir=base_dir,
                                  max_iter_override=args.max_iter, out_dir=out)
    trace_path, manifest_path = _write_outputs(trace, manifest, config, out)
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
        trace, manifest = execute_run(config, base_dir=base_dir,
                                      max_iter_override=max_iter,
                                      out_dir=run_dir, builds=builds)
        _write_outputs(trace, manifest, config, run_dir)
    except (ConfigError, MajorantViolationError, NumericFailure,
            FloatingPointError, OverflowError) as exc:
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
    except (NumericFailure, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
