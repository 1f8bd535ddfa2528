"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests -q``."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import uncertainty_lab
import uncertainty_lab.cli
import uncertainty_lab.state_sets
from perfbench import run
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

# Small traced prefixes and short scan calls keep these tests to seconds.
PREFIX = {"scan-qutrit": 2, "scan-d64": 1, "report-fresh": 20, "find-sweep": 6}
SCAN_ROWS = {"scan-qutrit": 50, "scan-d64": 10}


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    for attr in ("matrix", "amps"):  # Observable, StateVector
        if hasattr(x, attr):
            return _same(getattr(x, attr), getattr(y, attr, None))
    if hasattr(x, "__dict__") and not isinstance(x, type):
        return type(x) is type(y) and all(_same(v, getattr(y, k)) for k, v in vars(x).items())
    return x == y


def _requests(name, seed, workdir, count=6):
    wl = WORKLOADS[name](seed, str(workdir))
    return wl, [wl.request(k) for k in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_requests_are_a_pure_function_of_the_seed(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    wl1, first = _requests(name, 7, tmp_path / "a")
    wl2, again = _requests(name, 7, tmp_path / "b")
    wl3, other = _requests(name, 8, tmp_path / "c")
    assert all(_same(x, y) for x, y in zip(first, again))
    assert not all(_same(x, y) for x, y in zip(first, other))
    if hasattr(wl1, "mat_a"):
        assert np.array_equal(wl1.mat_a, wl2.mat_a) and np.array_equal(wl1.mat_b, wl2.mat_b)
    if hasattr(wl1, "n_pairs"):
        for index in (0, wl1.n_pairs - 1):
            (a1, b1), (a2, b2), (a3, _) = wl1.pair(index), wl2.pair(index), wl3.pair(index)
            assert np.array_equal(a1.matrix, a2.matrix) and np.array_equal(b1.matrix, b2.matrix)
        assert not np.array_equal(a1.matrix, a3.matrix)


def _traced(name, seed, workdir):
    wl = WORKLOADS[name](seed, str(workdir))
    wl.trace_requests = PREFIX[name]
    if name in SCAN_ROWS:
        wl.rows = SCAN_ROWS[name]
    return run.traced(wl, 0.0, str(workdir / "spans.tsv"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    metrics, info = _traced(name, 3, tmp_path)
    assert info["passes"] == 1 and info["attempted"] > 0
    assert info["output_mismatches"] == 0 and info["count_mismatches"] == 0
    assert info["failed"] == 0
    assert metrics["trace.overhead_ratio"] > 0
    assert (tmp_path / "spans.tsv").stat().st_size > 0
    # the originals are back in every namespace
    assert uncertainty_lab.cli.classify is uncertainty_lab.state_sets.classify
    assert uncertainty_lab.classify.__module__ == "uncertainty_lab.state_sets"
    assert not hasattr(uncertainty_lab.cli.main, "__wrapped__")


@pytest.mark.parametrize("name", ["scan-qutrit", "report-fresh", "find-sweep"])
def test_count_metrics_repeat_exactly(name, tmp_path):
    (tmp_path / "1").mkdir()
    (tmp_path / "2").mkdir()
    first = _traced(name, 5, tmp_path / "1")[0]
    second = _traced(name, 5, tmp_path / "2")[0]
    timed = ("_us_per_op", "_share")
    counts = [k for k in first if not k.endswith(timed) and not k.startswith("trace.")]
    assert counts and all(first[k] == second[k] for k in counts)


def test_scan_qutrit_call_counts(tmp_path):
    metrics = _traced("scan-qutrit", 1, tmp_path)[0]
    assert metrics["moments.deviation_vector.calls_per_op"] == 12
    assert metrics["core.commutator.calls_per_op"] == pytest.approx(1.0, abs=0.05)
    assert metrics["state_sets.membership_scan.self_us_per_op"] > 0
    assert metrics["cli.csv_bytes_per_row"] > 0
    assert 0 < metrics["cli.input_load_share"] < 1


def test_crashes_fail_and_non_convergence_does_not(tmp_path, monkeypatch):
    report = WORKLOADS["report-fresh"](2, str(tmp_path))

    def boom(req):
        raise ValueError("boom")

    monkeypatch.setattr(report, "run", boom)
    outcome = run.Runner(report).one(report.request(0))[2]
    assert (outcome.failed, outcome.unconverged) == (1, 0)

    scan = WORKLOADS["scan-qutrit"](2, str(tmp_path))
    req = scan.request(0)
    outcome = scan.finish(req, 2)  # CLI exit code 2
    assert outcome.failed == req.rows

    find = WORKLOADS["find-sweep"](2, str(tmp_path))
    req = find.request(0)
    raw = find.run(req)
    assert raw.converged
    outcome = find.finish(req, raw)
    assert (outcome.failed, outcome.unconverged) == (0, 0)
    outcome = find.finish(req, dataclasses.replace(raw, converged=False))
    assert (outcome.failed, outcome.unconverged) == (0, 1)
    # a non-converged result must still report its state's spreads
    bad = dataclasses.replace(raw, converged=False, delta_a=raw.delta_a * 1.01)
    outcome = find.finish(req, bad)
    assert (outcome.failed, outcome.unconverged) == (1, 0)


def test_tracer_wraps_every_namespace_and_restores():
    original = uncertainty_lab.state_sets.classify
    with Tracer():
        assert uncertainty_lab.cli.classify is uncertainty_lab.state_sets.classify
        assert uncertainty_lab.classify is uncertainty_lab.state_sets.classify
        assert uncertainty_lab.classify is not original
    assert uncertainty_lab.classify is original and uncertainty_lab.cli.classify is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        os.path.join(run.ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-qutrit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_end_to_end_run_reports_the_declared_metrics(tmp_path):
    wl = WORKLOADS["report-fresh"](2, str(tmp_path))
    metrics, info = run.measure(wl, 0.5)
    assert {k: run._unit(k) for k in metrics} == _declared("end_to_end")
    assert all(v > 0 for v in metrics.values())
    assert info["failed"] == 0 and info["reference_timings"] >= 1


def test_traced_run_reports_the_declared_metrics(tmp_path):
    metrics, _ = _traced("report-fresh", 2, tmp_path)
    assert {k: run._unit(k) for k in metrics} == _declared("per_layer")
