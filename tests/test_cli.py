"""CLI surface: configs, exit codes, file outputs, sweeps."""

import itertools
import json
import weakref

import numpy as np
import pytest

from greedy_opt.cli import main
from greedy_opt.diagnostics import ALL_CLAIMS, _power_series_sum
from greedy_opt.traceio import read_trace_csv


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

FIXED_SHORT_SCHEDULE = {"kind": "GGA_FIXED", "tau": 1.0,
                        "coefficients": {"kind": "explicit",
                                         "values": [0.5, 0.25]}}
LOGISTIC = {"kind": "logistic", "design": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            "labels": [1.0, -1.0, 1.0]}

# each config is rejected by a library constructor or driver, never by the CLI
# (but for max-iter-not-a-number, which the CLI's integer check now rejects)
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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_numeric_failure_exits_4(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, objective={"kind": "quadratic",
                                     "target": [1e160, 1e160],
                                     "scale": 1e60})
        assert main(["run", str(cfg), "--out", str(tmp_path / "n")]) == 4

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
        import greedy_opt.cli as cli

        def no_suite(*args, **kwargs):
            raise AssertionError("the suite started")
        monkeypatch.setattr(cli, "run_all", no_suite)
        (tmp_path / "afile").write_text("keep me")
        assert main(["verify", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path / out) in err
