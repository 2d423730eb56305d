"""Benchmark workloads: generated inputs, timed operations, output checks.

Every workload reports every end-to-end metric, because each result line
carries all of them.  A workload therefore has *focus* operations, run at
the sizes where the layer it was chosen for does the work, and *light*
operations, run at small sizes so the remaining metrics are measured
cheaply.  The mapping is in :data:`WORKLOADS`.

Inputs come from the workload seed only: it is the ``ExperimentSpec`` seed
of every harness run, the ``--seed`` of every CLI call, and the seed of the
synthetic CSV files.  The program receives specs and files, nothing else.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from funcavg import cli, simharness

TABLES = ("table2", "table3", "table4", "table5", "table6")
ALPHA = 0.05

# Report rows per (variant, n) cell; the check compares the emitted row
# count against this, not against the report object it came from.
ROWS_PER_CELL = {"table2": 3, "table3": 4, "table4": 2, "table5": 5, "table6": 3}

# Estimators whose report rows must lie near their own target, and how
# near.  Each tolerance is 1.5 times the largest miss of a single-iteration
# estimate over 650 seeds at n=500 and 520, the smallest sizes the
# benchmark and its smoke test run (table2 1.70, table3 3.97, table4 14.5,
# table5 6.0, table6 0.63); at n=2500 the misses roughly halve.  The other
# rows (the confounded OLS slopes of table4 and table5) are biased by
# design and not checked.
TARGET_TOLERANCE = {
    "table2": (("midrange",), 2.5),
    "table3": (("midrange", "plugin"), 6.0),
    "table4": (("midrange",), 22.0),
    "table5": (("midrange", "plugin"), 9.0),
    "table6": (("ols",), 1.0),
}
# Interval recipes that need not contain the full-sample estimate: the
# percentile interval of sqrt(n)-out-of-n replicates missed it in 6 of 450
# rows at n=500 (B=100) and 60 of 1800 at n=100 and 120 (B=20).  Every other
# interval contained its estimate in all of those runs.
OFF_CENTRE_METHODS = ("percentile-m",)

# Planted contrast of the synthetic CSVs.  Over 40 seeds at 2k rows the
# largest miss was 0.54 for MR, S and PS and 0.78 for Av, whose extremes
# converge more slowly; the tolerance leaves about twice that.
DELTA = 10.0
DELTA_TOLERANCE = 1.5
COVARIATES = ("c", "x1", "x2")
ESTIMATE_HEADER = ["parameter", "method", "estimate", "lower", "upper", "alpha",
                   "interval_method"]


@dataclass(frozen=True)
class HarnessProfile:
    """Sizes of one ``run_experiment`` call per table."""

    n_grid: tuple[int, ...]
    replicates: int


@dataclass(frozen=True)
class CliProfile:
    """A synthetic CSV and the CLI calls made on it."""

    rows: int
    replicates: int
    methods: tuple[str, ...] = ("S", "PS", "Av", "MR")
    diagnose: bool = True


DESK = HarnessProfile(n_grid=(500, 2500), replicates=500)
LIGHT_HARNESS = HarnessProfile(n_grid=(500,), replicates=100)
REFIT_CSV = CliProfile(rows=20_000, replicates=100, methods=("S", "PS", "Av"),
                       diagnose=False)
INGEST_CSV = CliProfile(rows=200_000, replicates=100, methods=("MR",))
LIGHT_CSV = CliProfile(rows=2_000, replicates=50)


@dataclass(frozen=True)
class Workload:
    focus: tuple
    light: tuple


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "sim-desk": Workload(focus=(DESK,), light=(LIGHT_CSV,)),
    "cli": Workload(focus=(REFIT_CSV, INGEST_CSV), light=(LIGHT_HARNESS,)),
}


class CheckFailed(Exception):
    """An operation's output is missing, malformed or wrong."""


@dataclass
class Op:
    """One timed call into the program and the check of what it produced.

    ``units`` is the work a call covers: (n, iteration) cells of one
    variant for a harness run, 1 for a CLI call.  ``scale`` converts
    seconds per unit into the metric's unit.  Several operations may feed
    one metric.  ``layer`` names the span the call opens when traced.
    """

    metric: str
    scale: float
    layer: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], str]
    two_arm_iterations: int = 0


def _sha256(*paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def harness_op(table: str, variant: str, profile: HarnessProfile, seed: int,
               workdir: Path) -> Op:
    """One variant of one table: a sample of the table's ms per iteration.

    A variant's stream keys are its position among all the table's
    variants, so its rows equal those of a run over every variant.
    """
    spec = simharness.ExperimentSpec(
        experiment=table, n_grid=profile.n_grid, iterations=1,
        replicates=profile.replicates, alpha=ALPHA, seed=seed, variants=(variant,))
    units = len(profile.n_grid)
    index = simharness.variant_labels(table).index(variant)
    prefix = str(workdir / f"{table}_v{index}_report")

    def run():
        # Module attributes, not imported names, so a traced run can wrap them.
        report = simharness.run_experiment(spec)
        simharness.write_report(report, prefix)
        return report

    def check(report) -> str:
        rows = simharness.read_report_csv(f"{prefix}.csv")
        expected = ROWS_PER_CELL[table] * len(spec.n_grid)
        if len(rows) != expected:
            raise CheckFailed(f"{table}: {len(rows)} report rows, expected {expected}")
        if rows != report.rows:
            raise CheckFailed(f"{table}: report CSV does not round-trip")
        if report.range_checks_passed != report.range_checks_total:
            raise CheckFailed(f"{table}: {report.range_checks_passed} of "
                              f"{report.range_checks_total} range checks passed")
        check_report_values(table, rows)
        return _sha256(f"{prefix}.csv", f"{prefix}.txt")

    return Op(metric=f"{table}.ms_per_iter", scale=1000.0, layer="simharness",
              units=units, run=run, check=check,
              two_arm_iterations=units if table in ("table4", "table5") else 0)


def check_report_values(table: str, rows) -> None:
    """Estimates near their targets; intervals around their estimates."""
    estimators, tolerance = TARGET_TOLERANCE[table]
    for row in rows:
        where = f"{table} {row.variant} n={row.n} {row.estimator}/{row.method}"
        if (row.estimator in estimators
                and abs(row.mean_estimate - row.target) > tolerance):
            raise CheckFailed(f"{where}: estimate {row.mean_estimate} is not within "
                              f"{tolerance} of target {row.target}")
        if (row.mean_lower is not None and row.method not in OFF_CENTRE_METHODS
                and not row.mean_lower <= row.mean_estimate <= row.mean_upper):
            raise CheckFailed(f"{where}: interval ({row.mean_lower}, {row.mean_upper})"
                              f" misses estimate {row.mean_estimate}")


def call_cli(argv) -> str:
    """Run the ``funcavg`` entry point in-process; return what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main.main(list(argv), standalone_mode=False)
    return out.getvalue()


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite value {text!r}")
    return value


def estimate_op(method: str, data: Path, profile: CliProfile, seed: int,
                workdir: Path) -> Op:
    prefix = str(workdir / f"estimate_{method}_{profile.rows}")
    argv = ["estimate", str(data), "--outcome", "y", "--treatment", "t",
            "--covariates", ",".join(COVARIATES), "--method", method,
            "--b", str(profile.replicates), "--seed", str(seed), "--out", prefix]

    def check(_printed) -> str:
        with open(f"{prefix}.csv", encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        if len(records) != 2 or records[0] != ESTIMATE_HEADER:
            raise CheckFailed(f"{method}: estimate CSV has the wrong shape")
        row = dict(zip(ESTIMATE_HEADER, records[1]))
        if row["method"] != method:
            raise CheckFailed(f"{method}: CSV row is for method {row['method']!r}")
        point, lower, upper = (_finite(row[k]) for k in ("estimate", "lower", "upper"))
        if not lower <= point <= upper:
            raise CheckFailed(f"{method}: interval ({lower}, {upper}) misses {point}")
        if abs(point - DELTA) > DELTA_TOLERANCE:
            raise CheckFailed(f"{method}: estimate {point} is not near {DELTA}")
        return _sha256(f"{prefix}.csv")

    return Op(metric=f"estimate.{method}_s", scale=1.0, layer="cli", units=1,
              run=lambda: call_cli(argv), check=check)


def diagnose_op(data: Path, profile: CliProfile) -> Op:
    argv = ["diagnose", str(data), "--treatment", "t", "--outcome", "y",
            "--covariates", ",".join(COVARIATES)]

    def check(printed: str) -> str:
        lines = printed.splitlines()
        groups = {}
        for line in lines[2:]:
            if not line:
                break
            label, n, *numbers = line.split()
            if len(numbers) != 5:
                raise CheckFailed(f"diagnose: malformed group line {line!r}")
            groups[label] = int(n)
            for number in numbers:
                _finite(number)
        if sorted(groups) != ["0", "1"] or sum(groups.values()) != profile.rows:
            raise CheckFailed(f"diagnose: groups {groups} do not cover "
                              f"{profile.rows} rows")
        words = lines[-1].split() if lines else []
        if words[:3] != ["residual", "support:", "max"] or len(words) != 8:
            raise CheckFailed("diagnose: no residual support line")
        if not _finite(words[3]) > _finite(words[5]):
            raise CheckFailed("diagnose: residual max does not exceed min")
        return hashlib.sha256(printed.encode("utf-8")).hexdigest()

    return Op(metric="diagnose_s", scale=1.0, layer="cli", units=1,
              run=lambda: call_cli(argv), check=check)


def write_synthetic_csv(path: Path, rows: int, seed: int) -> None:
    """Two-arm data with a planted contrast of :data:`DELTA`.

    A binary confounder ``c`` raises both the outcome and the chance of
    treatment; ``x1`` and ``x2`` are continuous covariates of the outcome
    only.  ``c`` is 1 with probability 0.6, so the 40% propensity quantile
    falls between its two groups and PS quintile strata do not mix them.
    The noise is uniform on [-10, 10], so every arm's outcome support is a
    shifted copy of the other's and the midrange contrast targets DELTA as
    well.
    """
    gen = np.random.default_rng([seed, rows])
    c = (gen.random(rows) < 0.6).astype(np.int64)
    x1 = gen.random(rows)
    x2 = gen.random(rows)
    t = (gen.random(rows) < 0.3 + 0.4 * c).astype(np.int64)
    y = 100.0 + DELTA * t + 5.0 * c + 2.0 * x1 - x2 + gen.uniform(-10.0, 10.0, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,t,c,x1,x2\n")
        fh.writelines(f"{a:.6f},{b},{d},{e:.6f},{f:.6f}\n"
                      for a, b, d, e, f in zip(y, t, c, x1, x2))


def build_ops(profiles, seed: int, workdir: Path) -> list[Op]:
    """Operations for a tuple of profiles, generating CSV inputs as needed."""
    ops: list[Op] = []
    for profile in profiles:
        if isinstance(profile, HarnessProfile):
            ops.extend(harness_op(table, variant, profile, seed, workdir)
                       for table in TABLES
                       for variant in simharness.variant_labels(table))
            continue
        data = workdir / f"data_{profile.rows}.csv"
        if not data.exists():
            write_synthetic_csv(data, profile.rows, seed)
        ops.extend(estimate_op(m, data, profile, seed, workdir) for m in profile.methods)
        if profile.diagnose:
            ops.append(diagnose_op(data, profile))
    return ops
