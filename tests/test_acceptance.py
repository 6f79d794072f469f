"""Acceptance gate: every verification criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite reads as a checklist.  The
criteria come from the live ``verification.CRITERIA`` list, so a new one is
gated as soon as it is registered.  The final tests run the CLI ``verify`` end
to end.
"""

import filecmp
import multiprocessing
import os
import time
import types

import pytest

from greedy_opt import verification
from greedy_opt.cli import main
from greedy_opt.verification import CRITERIA, CriterionResult, VerifyContext


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[fn.__name__ for fn in CRITERIA])
def test_criterion(criterion, tmp_path):
    result = criterion(VerifyContext(out_dir=tmp_path))
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name} "
          f"{result.elapsed:.2f}s: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("limit_s,crash,passed", [
    pytest.param(0.5, None, False, id="0.5-False"),
    pytest.param(2.0, None, True, id="2.0-True"),
    pytest.param(2.0, RuntimeError("probe crashed"), False, id="raises"),
])
def test_criterion_time_limit(monkeypatch, limit_s, crash, passed):
    """The registering wrapper times each call once, on a clock that ticks
    1 s per reading here, turns a crash into a FAIL naming the exception, and
    fails a result at or over its limit; run_all reports that same time."""
    ticks = iter(range(100))
    monkeypatch.setattr(verification, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    saved = list(CRITERIA)
    try:
        CRITERIA.clear()

        @verification._criterion(limit_s=limit_s)
        def c99_probe(ctx):
            if crash is not None:
                raise crash
            return CriterionResult(True, "probe ran")

        results = verification.run_all()
    finally:
        CRITERIA[:] = saved
    assert CRITERIA == saved
    assert len(results) == 1
    result = results[0]
    assert (result.name, result.elapsed, result.passed) == ("99-probe", 1.0,
                                                            passed)
    assert result.detail.startswith("RuntimeError: probe crashed" if crash
                                    else "probe ran")
    assert (f"{limit_s:g} s time limit" in result.detail) is (limit_s <= 1.0)


def _same_files(first, second):
    """The names of the files in two directories, which must hold the same
    names with byte-identical contents."""
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, files,
                                               shallow=False)
    assert not mismatch and not errors
    return match


def test_verify_cli_is_byte_deterministic(tmp_path, capsys):
    """Two back-to-back ``verify`` invocations write identical trace files."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["verify", "--out", str(first)]) == 0
    assert main(["verify", "--out", str(second)]) == 0
    capsys.readouterr()
    match = _same_files(first, second)
    assert len(match) > 0
    print(f"PASS  verify determinism: {len(match)} files byte-identical")


def test_verify_cli_fault_injection_names_the_violation(tmp_path, capsys):
    """Halving the declared quadratic majorants must fail verify loudly."""
    code = main(["verify", "--out", str(tmp_path / "fault"),
                 "--inject-fault", "gamma-half"])
    out = capsys.readouterr().out
    assert code == 1
    assert "MAJORANT_VIOLATION" in out
    print("PASS  fault injection: verify exits 1 naming MAJORANT_VIOLATION")


def test_fault_reaches_the_runs(tmp_path):
    """The gamma-half fault reaches the runs, not only the audits: c05's
    schedule, solved from the halved majorant, misses its claim, and c08's
    adaptive steps, twice as long, reach the target in 2 iterations, where
    the run without the fault takes all 1000."""
    by_name = {fn.__name__: fn for fn in CRITERIA}
    rows = {}
    for fault in (True, False):
        out = tmp_path / str(fault)
        ctx = VerifyContext(out_dir=out, fault_gamma_half=fault)
        assert by_name["c05_fixed_schedule_convergence"](ctx).passed is not fault
        assert by_name["c08_adaptive_sphere_rate"](ctx).passed
        lines = (out / "c08_sphere_rate.csv").read_text().splitlines()
        rows[fault] = len(lines) - 1
    assert rows == {True: 2, False: 1000}


def test_every_manifest_reruns_to_its_trace(tmp_path, capsys):
    """Each manifest that ``verify`` writes is a config that ``greedy-opt
    run`` reruns to the criterion's trace, byte for byte."""
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out)]) == 0
    manifests = sorted(out.glob("*.json"))
    assert len(manifests) == len(list(out.glob("*.csv"))) == 13
    for manifest in manifests:
        rerun = tmp_path / "rerun" / manifest.stem
        assert main(["run", str(manifest), "--out", str(rerun)]) == 0
        trace = manifest.stem + ".csv"
        assert (rerun / trace).read_bytes() == (out / trace).read_bytes()
    capsys.readouterr()
    print(f"PASS  {len(manifests)} verify manifests rerun to their traces")


def test_pool_matches_direct_calls(monkeypatch, tmp_path):
    """run_all on the worker pool gives what calling the criteria one after
    another in this process gives: verdicts, details and files."""
    wanted = ("c01_gradient_method_equivalence",
              "c09_exact_line_search_two_step", "c12_trace_determinism",
              "inv_hoelder_duality")
    subset = [fn for fn in CRITERIA if fn.__name__ in wanted]
    assert len(subset) == len(wanted)
    monkeypatch.setattr(verification, "CRITERIA", subset)
    pooled = verification.run_all(VerifyContext(out_dir=tmp_path / "pool"))
    direct = [fn(VerifyContext(out_dir=tmp_path / "direct")) for fn in subset]
    assert ([(r.name, r.passed, r.detail) for r in pooled]
            == [(r.name, r.passed, r.detail) for r in direct])
    assert [r.name for r in pooled] == ["01-gradient-method-equivalence",
                                        "09-exact-line-search-two-step",
                                        "12-trace-determinism",
                                        "inv-hoelder-duality"]
    assert len(_same_files(tmp_path / "pool", tmp_path / "direct")) == 4


def test_pool_returns_results_in_registration_order(monkeypatch):
    """The first criterion finishes last, yet comes back first."""
    monkeypatch.setattr(verification, "CRITERIA", [])
    for name, seconds in (("c97_slow", 0.4), ("c98_medium", 0.2),
                          ("c99_fast", 0.0)):
        def sleeper(ctx, seconds=seconds):
            time.sleep(seconds)
            return CriterionResult(True, f"slept {seconds}")
        sleeper.__name__ = name
        verification._criterion(sleeper)
    results = verification.run_all()
    assert [(r.name, r.detail) for r in results] == [
        ("97-slow", "slept 0.4"), ("98-medium", "slept 0.2"),
        ("99-fast", "slept 0.0")]


def test_verify_leaves_no_worker_running(monkeypatch, tmp_path, capsys):
    """The pool's workers are gone when verify returns, also after a
    criterion raised."""
    monkeypatch.setattr(verification, "CRITERIA", [])

    @verification._criterion
    def c01_passes(ctx):
        return CriterionResult(True, "ran")

    @verification._criterion
    def c02_raises(ctx):
        raise RuntimeError("probe crashed")

    assert main(["verify", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  02-raises" in out and "RuntimeError: probe crashed" in out
    assert multiprocessing.active_children() == []


def test_verify_reports_a_dead_worker_as_a_fail(monkeypatch, tmp_path, capsys):
    """A criterion whose worker process ends abruptly fails; the result that
    did come back is still printed, verify exits 1 and no traceback shows.
    The dying criterion waits until the other one has passed, so that its
    result is sent before the pool breaks."""
    marker = tmp_path / "passed"
    monkeypatch.setattr(verification, "CRITERIA", [])

    @verification._criterion
    def c01_passes(ctx):
        marker.touch()
        return CriterionResult(True, "ran")

    @verification._criterion
    def c02_dies(ctx):
        deadline = time.monotonic() + 30.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)
        os._exit(3)

    assert main(["verify", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("PASS  01-passes")
    assert lines[1].startswith("FAIL  02-dies")
    assert lines[1].endswith("its worker process ended before it returned "
                             "a result")
    assert lines[2:] == ["1/2 criteria passed", "failed: 02-dies"]
    assert "Traceback" not in captured.out + captured.err
    assert multiprocessing.active_children() == []
