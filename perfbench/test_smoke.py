"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is reported with its
unit, that a corrupted output is counted as failed, that report bytes are
the same with tracing on and off, and that the benchmark refuses to run
without the package source.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from funcavg import simharness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(profile):
    """Same shape as ``profile``, a few milliseconds per call."""
    if isinstance(profile, workloads.HarnessProfile):
        return dataclasses.replace(
            profile, n_grid=tuple(500 + 20 * i for i in range(len(profile.n_grid))),
            replicates=20)
    return dataclasses.replace(profile, rows=2000, replicates=20)


@pytest.fixture
def tiny_workloads(monkeypatch):
    shrunk = {name: dataclasses.replace(w, focus=tuple(map(tiny, w.focus)),
                                        light=tuple(map(tiny, w.light)))
              for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", shrunk)
    return shrunk


def tiny_ops(tmp_path):
    profiles = tuple(map(tiny, (workloads.DESK, workloads.REFIT_CSV,
                                workloads.INGEST_CSV)))
    return workloads.build_ops(profiles, seed=3, workdir=tmp_path)


def test_workload_lists_agree():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace, tiny_workloads,
                                                monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_REPEATS", 1)
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        assert 0.98 < values["trace.self_share"] <= 1.0
        assert values["regression.refits.ok_ratio"] == 1.0
        assert values["bootstrap.range_checks.pass_ratio"] == 1.0
        assert values["distributions.treatment_redraws"] >= 0
    else:
        assert all(v > 0 for v in values.values())


def _truncate(report, workdir: Path):
    path = workdir / "table4_v0_report.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    return report


def _shift_estimates(report, workdir: Path):
    """A well-formed report whose estimates and intervals sit 50 off target."""
    def shift(value):
        return None if value is None else value + 50.0

    rows = tuple(dataclasses.replace(row, mean_estimate=row.mean_estimate + 50.0,
                                     mean_lower=shift(row.mean_lower),
                                     mean_upper=shift(row.mean_upper))
                 for row in report.rows)
    shifted = dataclasses.replace(report, rows=rows)
    simharness.write_report(shifted, str(workdir / "table2_v0_report"))
    return shifted


def _inflate_estimate(printed: str, workdir: Path):
    path = workdir / "estimate_MR_2000.csv"
    header, row = path.read_text().splitlines()
    fields = row.split(",")
    fields[2] = repr(float(fields[2]) + 100.0)
    path.write_text(f"{header}\n{','.join(fields)}\n")
    return printed


@pytest.mark.parametrize("metric, corrupt", [
    ("table4.ms_per_iter", _truncate),
    ("table2.ms_per_iter", _shift_estimates),
    ("estimate.MR_s", _inflate_estimate),
])
def test_corrupted_report_counts_as_failed(metric, corrupt, tmp_path):
    op = next(op for op in tiny_ops(tmp_path) if op.metric == metric)
    phase = worker.Phase("focus", [op])
    phase.call(0)
    assert (phase.attempted, phase.failed) == (1, 0)

    produce = op.run
    op.run = lambda: corrupt(produce(), tmp_path)
    phase.call(0)
    assert (phase.attempted, phase.failed) == (2, 1)
    assert phase.errors[0].startswith(f"{metric}: CheckFailed")


def test_report_bytes_do_not_depend_on_tracing(tmp_path):
    ops = tiny_ops(tmp_path)
    plain = worker.Phase("focus", ops)
    plain.round()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        traced = worker.Phase("focus", ops)
        traced.round(tracer)
    finally:
        installed.restore()

    assert plain.failed == traced.failed == 0
    assert traced.digests == plain.digests
    calls, _ = tracer.layer_totals()
    assert set(calls) == set(tracing.LAYERS)  # every wrapper was reached


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
