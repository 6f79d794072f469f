"""Acceptance gate: every verification criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite reads as a checklist.  The
criteria come from the live ``verification.CRITERIA`` list, so a new one is
gated as soon as it is registered.  The final tests run the CLI ``verify`` end
to end.
"""

import filecmp
import types

import pytest

from greedy_opt import verification
from greedy_opt.cli import main
from greedy_opt.verification import CRITERIA, CriterionResult, VerifyContext


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[fn.__name__ for fn in CRITERIA])
def test_criterion(criterion):
    result = criterion(VerifyContext(out_dir=None))
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


def test_verify_cli_is_byte_deterministic(tmp_path, capsys):
    """Two back-to-back ``verify`` invocations write identical trace files."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["verify", "--out", str(first)]) == 0
    assert main(["verify", "--out", str(second)]) == 0
    capsys.readouterr()
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    assert len(files) > 0
    match, mismatch, errors = filecmp.cmpfiles(first, second, files,
                                               shallow=False)
    assert not mismatch and not errors
    print(f"PASS  verify determinism: {len(match)} files byte-identical")


def test_verify_cli_fault_injection_names_the_violation(tmp_path, capsys):
    """Halving the declared quadratic majorants must fail verify loudly."""
    code = main(["verify", "--out", str(tmp_path / "fault"),
                 "--inject-fault", "gamma-half"])
    out = capsys.readouterr().out
    assert code == 1
    assert "MAJORANT_VIOLATION" in out
    print("PASS  fault injection: verify exits 1 naming MAJORANT_VIOLATION")
