"""One workload in the calling process: generate inputs, warm up, measure.

``run.py`` calls :func:`run` after putting ``src`` on ``sys.path`` and
limiting BLAS to one thread.

Scheduling: after one warm-up call of every operation, the workload's
focus operations get ``FOCUS_SHARE`` of the measurement time and its light
operations the rest.  Calls alternate between the two lists so that each
takes its share throughout the run.  Within a list every metric gets an
equal share of the list's time, however long its calls are, and the
operations of one metric take turns.  So every metric's samples are spread
over the whole run rather than caught in one slow spell of a shared
machine, and the metrics with cheap calls are measured as long as the
others: over ten runs, a metric's quartile spread fell as its measured
time grew.  Every call's output is checked;
a failed call or check counts as failed and the run goes on.  A traced
run instead measures each list in whole rounds, alternately untraced and
traced.

A timing metric is the mean over its operations (the variants of a table)
of each operation's mean sample, so every variant weighs the same however
the end of the run cut its last round.  On a shared machine whose speed
flips between two states about 1.6x apart for seconds at a time, per-call
times are bimodal and their median jumps between the modes from run to
run, while the mean moves only with the share of time spent in each; over
ten runs per workload the mean's quartile spread was about half the
median's.  The median, the
sample count and the highest percentile with ten samples beyond it are
kept in the details file.
"""

from __future__ import annotations

import ctypes
import math
import platform
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import funcavg
import tracing
import workloads

# The focus operations are what the workload was chosen for, so they get
# most of the time; the light ones cover the remaining metrics.
FOCUS_SHARE = 0.75


class Phase:
    """Runner for one list of operations, with per-operation tallies."""

    def __init__(self, name: str, ops):
        self.name = name
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.by_metric: dict[str, list[int]] = {}
        for i, op in enumerate(ops):
            self.by_metric.setdefault(op.metric, []).append(i)
        self.spent = dict.fromkeys(self.by_metric, 0.0)
        self.digests = {op.metric: set() for op in ops}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def call(self, i: int, tracer=None, record=True) -> float:
        """Run and check operation ``i`` once; returns the timed seconds."""
        op = self.ops[i]
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.run_op(op.layer, op.run)
        except (Exception, SystemExit) as exc:  # a failing call is a measured failure
            out = exc
        elapsed = time.perf_counter() - start
        if record:
            self.samples[i].append(elapsed / op.units * op.scale)
            self.spent[op.metric] += elapsed
        if isinstance(out, BaseException):
            self._fail(op, f"{type(out).__name__}: {out}")
            return elapsed
        try:
            self.digests[op.metric].add(op.check(out))
        except Exception as exc:  # any check error means the output is wrong
            self._fail(op, f"{type(exc).__name__}: {exc}")
        return elapsed

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op.metric}: {message}")

    def next_op(self) -> int:
        """The least-called operation of the least-measured metric."""
        metric = min(self.spent, key=self.spent.get)
        return min(self.by_metric[metric], key=lambda i: len(self.samples[i]))

    def round(self, tracer=None, record=True) -> float:
        return sum(self.call(i, tracer, record) for i in range(len(self.ops)))

    def traced_rounds(self, budget_s: float, tracer) -> tuple[int, float, float]:
        """Alternate untraced and traced rounds until the next pair would
        overrun ``budget_s``; returns (pairs, untraced seconds, traced seconds).

        Alternating puts both sides of the overhead in the same spells of
        machine speed.
        """
        start = time.perf_counter()
        rounds, plain, traced = 0, 0.0, 0.0
        while True:
            plain += self.round(record=False)
            installed = tracing.install(tracer)
            try:
                traced += self.round(tracer, record=False)
            finally:
                installed.restore()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > budget_s:
                return rounds, plain, traced


def interleave(phases, seconds: float) -> list[int]:
    """Untraced measurement over ``seconds``; returns the calls per phase.

    The next call goes to whichever phase is behind its share of the time
    spent so far; the run ends once the time is up and every operation has
    a sample.
    """
    shares = (FOCUS_SHARE, 1.0 - FOCUS_SHARE)
    turns = [0, 0]
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or not all(s for phase in phases for s in phase.samples)):
        spent = [sum(phase.spent.values()) for phase in phases]
        g = 0 if spent[0] * shares[1] <= spent[1] * shares[0] else 1
        phases[g].call(phases[g].next_op())
        turns[g] += 1
    return turns


def highest_percentile(samples) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return {"percentile": pct, "value": sorted(samples)[rank - 1]}


def timing_summary(phases) -> dict:
    out = {}
    for phase in phases:
        for metric, indices in phase.by_metric.items():
            lists = [phase.samples[i] for i in indices]
            pooled = [s for samples in lists for s in samples]
            out[metric] = {
                "phase": phase.name, "n": len(pooled),
                "seconds": phase.spent[metric],
                "mean": statistics.fmean(statistics.fmean(s) for s in lists),
                "median": statistics.median(pooled),
                "high": highest_percentile(pooled), "samples": lists,
                "report_sha256": sorted(phase.digests[metric])}
    return out


def per_layer(totals: list) -> dict:
    """Per-pass layer metrics from the traced phases' tallies.

    A pass is one round of the focus operations plus one of the light
    operations; every figure is the sum over phases of its total divided
    by that phase's traced rounds, so counts repeat exactly run to run.
    """
    calls, self_s, counts = Counter(), Counter(), Counter()
    expected_redraws = 0.0
    for phase, rounds, phase_calls, phase_self, phase_counts in totals:
        for layer in tracing.LAYERS:
            calls[layer] += phase_calls[layer] / rounds
            self_s[layer] += phase_self[layer] / rounds
        for key, value in phase_counts.items():
            counts[key] += value / rounds
        expected_redraws += sum(op.two_arm_iterations for op in phase.ops)

    refits = calls["dataset.take"]
    ok_refits = counts["refits.completed"] - calls["regression.refits"]
    metrics = {
        "estimators.calls": calls["estimators"],
        "estimators.self_s": self_s["estimators"],
        "bootstrap.resample.calls": calls["bootstrap.resample"],
        "bootstrap.resample.self_s": self_s["bootstrap.resample"],
        "bootstrap.resample.index_cells": counts["resample.index_cells"],
        "bootstrap.intervals.self_s": self_s["bootstrap.intervals"],
        "bootstrap.range_checks.pass_ratio":
            counts["range_checks.passed"] / max(counts["range_checks.total"], 1),
        "regression.ols_fit.calls": calls["regression.ols_fit"],
        "regression.ols_fit.self_s": self_s["regression.ols_fit"],
        "regression.logistic_fit.calls": calls["regression.logistic_fit"],
        "regression.logistic_fit.self_s": self_s["regression.logistic_fit"],
        "regression.logistic_fit.irls_iters": counts["logistic_fit.irls_iters"],
        "regression.build_design.self_s": self_s["regression.build_design"],
        "regression.refits.self_s": self_s["regression.refits"],
        "regression.refits.ok_ratio": ok_refits / max(refits, 1),
        "dataset.take.calls": calls["dataset.take"],
        "dataset.take.self_s": self_s["dataset.take"],
        "distributions.calls": calls["distributions"],
        "distributions.self_s": self_s["distributions"],
        "distributions.treatment_redraws":
            counts["sample_bernoulli_probs.calls"] - expected_redraws,
        "rng.generator.calls": calls["rng.generator"],
        "rng.generator.self_s": self_s["rng.generator"],
        "simharness.self_s": self_s["simharness"],
        "simharness.emit_s": self_s["simharness.emit"],
        "cli.self_s": self_s["cli"],
        "cli.ingest_csv.self_s": self_s["cli.ingest_csv"],
        "cli.ingest_csv.rows": counts["ingest_csv.rows"],
        "diagnostics.calls": calls["diagnostics"],
        "diagnostics.self_s": self_s["diagnostics"],
    }
    return metrics


def blas_threads() -> dict:
    """BLAS libraries mapped into this process and their thread counts."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "funcavg": funcavg.__file__}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        spans: Path) -> dict:
    """Measure one workload; a traced run appends its spans to ``spans``.

    Returns the metrics, the attempted and failed operation counts, and
    the details that go into the details file.
    """
    source = Path(__file__).resolve().parent.parent / "src" / "funcavg"
    if Path(funcavg.__file__).resolve().parent != source:
        raise SystemExit(f"funcavg was imported from {funcavg.__file__}, not {source}")
    profiles = workloads.WORKLOADS[workload]
    t0 = time.perf_counter()
    focus = workloads.build_ops(profiles.focus, seed, workdir)
    light = workloads.build_ops(profiles.light, seed, workdir)
    phases = [Phase("focus", focus), Phase("light", light)]
    generate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for phase in phases:
        phase.round(record=False)  # warm-up: caches, lazy imports, allocator pools
    warmup_s = time.perf_counter() - t0

    result = {"generate_s": generate_s, "warmup_s": warmup_s}
    if trace:
        totals, untraced_s, traced_s, self_sum_s = [], 0.0, 0.0, 0.0
        budgets = (FOCUS_SHARE * seconds, (1 - FOCUS_SHARE) * seconds)
        for phase, budget in zip(phases, budgets):
            tracer = tracing.Tracer()
            rounds, plain, traced = phase.traced_rounds(budget, tracer)
            calls, self_s = tracer.layer_totals()
            totals.append((phase, rounds, calls, self_s, tracer.counts))
            untraced_s += plain / rounds
            traced_s += traced / rounds
            self_sum_s += sum(self_s.values()) / rounds
            tracer.write_tsv(spans, phase.name)
            result[f"{phase.name}_rounds"] = rounds
        metrics = per_layer(totals)
        # The layers' self times against the traced calls' own wall clock:
        # what the spans miss of each call shows as a share below 1.
        metrics.update({"trace.self_share": self_sum_s / traced_s,
                        "trace.overhead_s": traced_s - untraced_s,
                        "trace.overhead_share": (traced_s - untraced_s) / untraced_s})
    else:
        result["focus_calls"], result["light_calls"] = interleave(phases, seconds)
        timings = timing_summary(phases)
        result["timings"] = timings
        metrics = {name: timing["mean"] for name, timing in timings.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result.update({
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "errors": [e for p in phases for e in p.errors],
        "metrics": metrics,
        "environment": environment()})
    return result

