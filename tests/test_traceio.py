"""Trace CSV: the writer against a per-cell oracle, and the reader's checks."""

import os

import pytest

from greedy_opt import (
    CoefficientSequence,
    FiniteDictionary,
    RunTrace,
    SphereDictionary,
    StopRule,
    quadratic_objective,
    run_gega,
    run_gga_adaptive,
    run_gga_fixed,
)
from greedy_opt.dictionaries import Atom
from greedy_opt.instances import logistic_20x5
from greedy_opt.traceio import (TRACE_COLUMNS, atomic_write_text,
                                manifest_text, read_trace_csv, trace_csv_text)


def oracle_csv(trace):
    """The trace CSV built cell by cell, with plain running sums from 0.0."""
    def fmt(x):
        return format(float(x), ".17g")

    lines = [",".join(TRACE_COLUMNS)]
    a_mass = sum_c = sum_ced = 0.0
    for m, (e, ed, c, atom, flags) in enumerate(
            zip(trace.E, trace.ED, trace.c, trace.atoms, trace.flags),
            start=1):
        a_mass += abs(c)
        sum_c += c
        sum_ced += c * ed
        gap = "" if trace.infimum is None else fmt(e - trace.infimum)
        lines.append(",".join([
            str(m), fmt(e), gap, fmt(ed), fmt(c), str(atom.index),
            str(atom.sign), fmt(a_mass), fmt(sum_c), fmt(sum_ced), flags]))
    return "\n".join(lines) + "\n"


def signed_steps():
    """Steps of both signs, which no driver takes, so A_m and sum_c differ."""
    c = [0.5, -0.25, -0.0, 1e-300, -3.0, 0.125]
    return RunTrace(algorithm="synthetic", status="max-iter", E0=2.0, ED0=1.0,
                    E=[1.5, 1.25, 1.25, 1.0, 0.75, 0.5],
                    ED=[0.9, -0.0, 0.7, 0.3, 1e-5, 0.25], c=c,
                    atoms=[Atom(index=k % 3, sign=(-1) ** k)
                           for k in range(len(c))],
                    flags=[""] * len(c), infimum=0.125)


def negative_zero_schedule():
    E = quadratic_objective([0.3, -0.4])
    return run_gga_fixed(E, FiniteDictionary.coordinate(2), 1.0,
                         CoefficientSequence.explicit([-0.0, 0.25, 0.0]),
                         StopRule(max_iter=3))


TRACES = {
    "gega-quadratic": lambda: run_gega(
        quadratic_objective([0.7, -1.2, 0.05]),
        FiniteDictionary.gaussian(3, 7, seed=4), 1.0, StopRule(max_iter=40)),
    "gega-logistic-no-infimum": lambda: run_gega(
        logistic_20x5(), FiniteDictionary.coordinate(5), 1.0,
        StopRule(max_iter=40)),
    "negative-zero-schedule": negative_zero_schedule,
    "sphere": lambda: run_gga_adaptive(
        quadratic_objective([0.3, 0.4, -0.2]), SphereDictionary(), 1.0, 0.5,
        StopRule(max_iter=40, grad_tol=0.0)),
    "signed-steps": signed_steps,
}


@pytest.mark.parametrize("make", TRACES.values(), ids=TRACES.keys())
def test_writer_matches_cell_oracle(make):
    trace = make()
    assert len(trace) > 0
    assert trace_csv_text(trace) == oracle_csv(trace)


def test_negative_zero_first_step_sums_to_positive_zero():
    row = trace_csv_text(negative_zero_schedule()).split("\n")[1].split(",")
    assert row[4] == "-0"
    assert row[7:10] == ["0", "0", "0"]


def test_logistic_trace_has_empty_gaps():
    trace = TRACES["gega-logistic-no-infimum"]()
    assert trace.infimum is None
    rows = trace_csv_text(trace).strip().split("\n")[1:]
    assert all(row.split(",")[2] == "" for row in rows)


# a sphere trace reads back without its atom vectors and writes out the same
@pytest.mark.parametrize("name", TRACES)
def test_reader_round_trips_the_writer(tmp_path, name):
    text = trace_csv_text(TRACES[name]())
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    assert trace_csv_text(read_trace_csv(path)) == text


def test_reader_rejects_a_signed_sphere_atom(tmp_path):
    lines = trace_csv_text(TRACES["sphere"]()).split("\n")
    cells = lines[1].split(",")
    assert cells[5:7] == ["-1", "1"]
    cells[6] = "-1"
    lines[1] = ",".join(cells)
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="sphere atom"):
        read_trace_csv(path)


@pytest.mark.parametrize("column", ["A_m", "sum_c", "sum_cED"])
def test_reader_rejects_sums_that_disagree_with_the_steps(tmp_path, column):
    lines = trace_csv_text(signed_steps()).split("\n")
    k = TRACE_COLUMNS.index(column)
    cells = lines[3].split(",")
    cells[k] = format(float(cells[k]) * (1.0 + 2.0**-40), ".17g")
    lines[3] = ",".join(cells)
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="running sums"):
        read_trace_csv(path)


def test_reader_rejects_a_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("m,E,gap\n1,0.5,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected trace header"):
        read_trace_csv(path)


def test_reader_rejects_a_short_row(tmp_path):
    lines = trace_csv_text(signed_steps()).split("\n")
    lines[2] = ",".join(lines[2].split(",")[:-1])
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="malformed trace row"):
        read_trace_csv(path)


def test_failed_write_removes_its_temp_file(tmp_path):
    """A write that fails re-raises its error, leaves the old file as it was
    and leaves no temp file behind."""
    path = tmp_path / "out.csv"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "a lone surrogate \ud800")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_failed_clean_up_keeps_the_first_error(tmp_path, monkeypatch):
    def refuse(*args):
        raise PermissionError("replace refused")

    def unremovable(*args):
        raise OSError("unlink refused")

    monkeypatch.setattr(os, "replace", refuse)
    monkeypatch.setattr(os, "unlink", unremovable)
    with pytest.raises(PermissionError, match="replace refused"):
        atomic_write_text(tmp_path / "out.csv", "text\n")
    assert not (tmp_path / "out.csv").exists()


def test_ragged_trace_raises():
    trace = RunTrace(algorithm="synthetic", status="max-iter", E0=1.0,
                     ED0=1.0, E=[0.5, 0.25], infimum=0.0)
    with pytest.raises(ValueError):
        trace_csv_text(trace)
    trace = signed_steps()
    trace.flags.pop()
    with pytest.raises(ValueError):
        trace_csv_text(trace)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_manifest_text_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        manifest_text({"results": {"final_gap": value}})
