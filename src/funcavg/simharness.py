"""Monte Carlo experiment runner for the five benchmark tables.

Each experiment is declared by an :class:`ExperimentSpec` and produces an
:class:`ExperimentReport` holding one row per (variant, sample size,
estimator, interval method) cell.  Every reported number is an
arithmetic average over iterations, including the confidence interval
endpoints, alongside empirical coverage of the true target and
empirical power against zero.

The experiments, one definitions-table entry each, all run by one loop:

* ``table2``: midrange estimation for three truncated normal laws,
  contrasting the full-sample Hoeffding interval with Hoeffding and
  percentile intervals built from sqrt(n)-out-of-n resampling.
* ``table3``: the same laws widened to [0, 40] and rounded to integers;
  distinct-value plug-in vs midrange, with range-doubling intervals.
* ``table4``: a confounded two-arm design where the midrange contrast
  stays consistent while the unadjusted regression slope does not.
* ``table5``: the discrete analogue of table4 with binomial noise.
* ``table6``: regression slope intervals (t, residual-range, bootstrap)
  under a bounded symmetric error; with a binary treatment the slope is
  the difference of arm means, so its bootstrap runs the same two-arm
  contrast as tables 4 and 5.

Determinism contract: every iteration draws from its own child stream
keyed by (experiment number, variant index, sample-size index, iteration
index) under the experiment's base seed, and per-iteration results land in
arrays indexed by iteration before any aggregation.  Reports are
therefore byte-reproducible and independent of execution order.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    hoeffding_ci,
    hoeffding_u_ci,
    percentile_ci,
    popoviciu_check,
    resample,
)
from .dataset import TwoArmSample
from .distributions import (
    BernoulliSpec,
    BinomialSpec,
    TruncatedNormalSpec,
    round_to_integers,
    sample_bernoulli,
    sample_bernoulli_probs,
    sample_binomial,
    sample_truncated_normal,
)
from .errors import (CsvParseError, ParameterError, SchemaError, check_alpha, check_count,
                     check_probability)
from .estimators import discrete_plugin_average, midrange, sample_mean
from .intervals import IntervalEstimate
from .regression import DesignMatrix, ols_fit, t_ci, u_concentration_ci
from .rng import RngStream

EXPERIMENTS = ("table2", "table3", "table4", "table5", "table6")

DESK_ITERATIONS = 200
DESK_GRID = (500, 2500)
FULL_ITERATIONS = 1000
FULL_GRID = (500, 2500, 5000, 10000)
DEFAULT_REPLICATES = 500


@dataclass(frozen=True)
class _Bootstrap:
    """One bootstrap per iteration and the intervals read off its replicates.

    Each ``recipe(dist, alpha)`` gives one interval, reported under its
    own ``IntervalEstimate.method``, with ``-m`` appended when the
    bootstrap resamples ``round(sqrt(n))`` rows.
    """

    estimator: str
    statistic: Callable[[np.ndarray], float]
    resample_size: str
    recipes: tuple[Callable, ...]


@dataclass(frozen=True)
class _Experiment:
    """One experiment: its variants, its data draw and what it estimates.

    ``variants`` holds ``(label, parameter, target)`` in stream-key order.
    ``draw(parameter, n, stream)`` returns the data to resample, one sample
    or a :class:`~funcavg.dataset.TwoArmSample`, and, for two-arm designs,
    the OLS fit of outcome on treatment, whose slope is
    reported as the ``ols`` estimate.  The draw uses the iteration
    stream's child 0, and ``bootstraps[k]`` draws its indices from child
    ``k + 1``.  ``fit_recipes`` are the ``recipe(fit, coefficient, alpha)``
    intervals read off that fit.
    """

    number: int
    variants: tuple[tuple[str, object, float], ...]
    draw: Callable
    bootstraps: tuple[_Bootstrap, ...]
    fit_recipes: tuple[Callable, ...] = ()


def variant_labels(experiment: str) -> tuple[str, ...]:
    """All variant labels an experiment can run, in stream-key order."""
    if experiment not in EXPERIMENTS:
        raise ParameterError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}")
    return _VARIANT_LABELS[experiment]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one simulation experiment.

    ``variants`` restricts the run to a subset of :func:`variant_labels`;
    the default ``None`` runs them all.  Stream keys are derived from a
    variant's position in the full label tuple, so a restricted run
    reproduces exactly the rows the unrestricted run would produce for
    those variants.
    """

    experiment: str
    n_grid: tuple[int, ...] = DESK_GRID
    iterations: int = DESK_ITERATIONS
    replicates: int = DEFAULT_REPLICATES
    alpha: float = 0.05
    seed: int = 0
    variants: tuple[str, ...] | None = None

    def __post_init__(self):
        labels = variant_labels(self.experiment)  # validates the id
        # 4 is the smallest size every interval recipe here accepts.
        grid = tuple(check_count(n, "each n_grid entry", 4) for n in self.n_grid)
        if not grid:
            raise ParameterError("n_grid must not be empty")
        object.__setattr__(self, "n_grid", grid)
        if len(set(grid)) != len(grid):
            raise ParameterError(f"n_grid has repeated sizes: {grid}")
        for name, minimum in (("iterations", 1), ("replicates", 2), ("seed", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, minimum))
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if self.variants is not None:
            chosen = tuple(self.variants)
            if not chosen:
                raise ParameterError("variants must not be empty; None runs them all")
            object.__setattr__(self, "variants", chosen)
            unknown = [v for v in chosen if v not in labels]
            if unknown:
                raise ParameterError(
                    f"unknown variants for {self.experiment}: {unknown}; "
                    f"available: {', '.join(labels)}")
            if len(set(chosen)) != len(chosen):
                raise ParameterError(f"variants listed twice: {chosen}")

    def selected_variants(self) -> tuple[tuple[int, str], ...]:
        """(stream index, label) pairs this spec will actually run."""
        labels = variant_labels(self.experiment)
        if self.variants is None:
            return tuple(enumerate(labels))
        return tuple((labels.index(v), v) for v in self.variants)


def desk_spec(experiment: str, seed: int = 0, **overrides) -> ExperimentSpec:
    """Minutes-scale profile: M=200, B=500, n in {500, 2500}."""
    return ExperimentSpec(experiment=experiment, seed=seed, **overrides)


def full_spec(experiment: str, seed: int = 0, **overrides) -> ExperimentSpec:
    """Full-scale profile: M=1000, n in {500, 2500, 5000, 10000}."""
    overrides.setdefault("n_grid", FULL_GRID)
    overrides.setdefault("iterations", FULL_ITERATIONS)
    return ExperimentSpec(experiment=experiment, seed=seed, **overrides)


@dataclass(frozen=True)
class ReportRow:
    """Aggregated result for one (variant, n, estimator, method) cell.

    ``mean_lower``/``mean_upper``/``coverage``/``power`` are ``None`` for
    point-only rows (an estimator reported without an interval).
    """

    experiment: str
    variant: str
    n: int
    estimator: str
    method: str
    target: float
    mean_estimate: float
    mean_lower: float | None = None
    mean_upper: float | None = None
    coverage: float | None = None
    power: float | None = None

    def __post_init__(self):
        check_count(self.n, "n", 1)
        if not math.isfinite(self.target):
            raise ParameterError(f"target is not finite: {self.target!r}")
        if not math.isfinite(self.mean_estimate):
            raise ParameterError(f"mean estimate is not finite: {self.mean_estimate!r}")
        interval_fields = (self.mean_lower, self.mean_upper, self.coverage, self.power)
        present = [x is not None for x in interval_fields]
        if any(present) and not all(present):
            raise ParameterError("interval fields must be all present or all absent")
        if self.mean_lower is not None:
            if not (math.isfinite(self.mean_lower) and math.isfinite(self.mean_upper)):
                raise ParameterError("mean interval endpoints must be finite")
            if self.mean_lower > self.mean_upper:
                raise ParameterError(
                    f"mean lower {self.mean_lower} exceeds mean upper {self.mean_upper}")
            check_probability(self.coverage, "coverage")
            check_probability(self.power, "power")


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a finished run knows, plus self-check tallies.

    ``range_checks_passed`` counts bootstrap distributions that pass
    :func:`~funcavg.bootstrap.popoviciu_check`, which holds for every valid
    distribution at every alpha, so a failure means a bookkeeping bug, not
    unusual data.
    """

    spec: ExperimentSpec
    rows: tuple[ReportRow, ...]
    range_checks_passed: int
    range_checks_total: int
    streams_used: int


def empirical_coverage(intervals, target: float) -> float:
    """Fraction of intervals containing the target; endpoints count as in."""
    cis = list(intervals)
    if not cis:
        raise ParameterError("empirical coverage needs at least one interval")
    return sum(1 for ci in cis if ci.contains(target)) / len(cis)


def empirical_power(intervals, null_value: float = 0.0) -> float:
    """Fraction of intervals excluding the null value."""
    cis = list(intervals)
    if not cis:
        raise ParameterError("empirical power needs at least one interval")
    return sum(1 for ci in cis if ci.excludes(null_value)) / len(cis)


class _CellTally:
    """Per-iteration results for one (variant, n) cell, indexed by iteration.

    Point estimates and intervals are stored in slots, not appended, so
    aggregation cannot depend on the order iterations finished in.
    """

    def __init__(self, iterations: int):
        self.iterations = iterations
        self.points: dict[str, list] = {}
        self.intervals: dict[tuple[str, str], list] = {}

    def record_point(self, estimator: str, iteration: int, value: float) -> None:
        self.points.setdefault(estimator, [None] * self.iterations)[iteration] = value

    def record_interval(self, estimator: str, iteration: int, ci: IntervalEstimate,
                        suffix: str = "") -> None:
        """File ``ci`` under its own method name plus ``suffix``."""
        key = (estimator, ci.method + suffix)
        self.intervals.setdefault(key, [None] * self.iterations)[iteration] = ci

    def rows(self, experiment: str, variant: str, n: int, target: float) -> list[ReportRow]:
        """Point-only rows (estimators without an interval) first, then intervals."""
        cell = dict(experiment=experiment, variant=variant, n=n, target=target)
        with_interval = {estimator for estimator, _ in self.intervals}
        out = [ReportRow(**cell, estimator=name, method="none",
                         mean_estimate=float(np.mean(points)))
               for name, points in self.points.items() if name not in with_interval]
        for (estimator, method), cis in self.intervals.items():
            out.append(ReportRow(
                **cell, estimator=estimator, method=method,
                mean_estimate=float(np.mean(self.points[estimator])),
                mean_lower=float(np.mean([ci.lower for ci in cis])),
                mean_upper=float(np.mean([ci.upper for ci in cis])),
                coverage=empirical_coverage(cis, target),
                power=empirical_power(cis, 0.0)))
        return out


def _draw_law(law, n, stream):
    return sample_truncated_normal(law, n, stream.child(0)), None


def _draw_rounded_law(law, n, stream):
    return round_to_integers(_draw_law(law, n, stream)[0]).astype(float), None


def _confounded_treatment(n: int, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Confounder and treatment of the design shared by table4 and table5.

    A Bernoulli(.5) confounder shifts both the outcome and the treatment
    probability (.3 + .5 C).  The treatment vector alone is redrawn until
    both arms have at least 2 units; the confounder and noise draws stay
    fixed so the redraw cannot tilt the outcome law.
    """
    confounder = sample_bernoulli(BernoulliSpec(0.5), n, stream.child(0, 0))
    probs = 0.3 + 0.5 * confounder
    attempt = 0
    while True:
        treated = sample_bernoulli_probs(probs, stream.child(0, 2, attempt))
        if 2 <= int(treated.sum()) <= n - 2:
            return confounder, treated
        attempt += 1


def _arms_with_fit(outcome: np.ndarray, treated: np.ndarray):
    """The two arms of ``outcome`` and the OLS fit of outcome on treatment."""
    design = DesignMatrix(
        np.column_stack([np.ones(outcome.size), treated]), ("intercept", "t"))
    return TwoArmSample.from_labels(outcome, treated), ols_fit(design, outcome)


def _draw_confounded_continuous(noise_law, n, stream):
    """Outcomes 100 + 10 T + 50 C + e, e truncated normal on [-50, 50]."""
    confounder, treated = _confounded_treatment(n, stream)
    noise = sample_truncated_normal(noise_law, n, stream.child(0, 1))
    return _arms_with_fit(100.0 + 10.0 * treated + 50.0 * confounder + noise, treated)


def _draw_confounded_discrete(noise_law, n, stream):
    """Outcomes 10 C + e + 5 T with binomial noise: a run of integers."""
    confounder, treated = _confounded_treatment(n, stream)
    noise = sample_binomial(noise_law, n, stream.child(0, 1)).astype(float)
    return _arms_with_fit(10.0 * confounder + noise + 5.0 * treated, treated)


def _draw_slope(error_law, n, stream):
    """Outcomes 100 + 20 T + U, T Bernoulli(.3), U bounded and symmetric."""
    treated = sample_bernoulli(BernoulliSpec(0.3), n, stream.child(0, 0))
    noise = sample_truncated_normal(error_law, n, stream.child(0, 1))
    return _arms_with_fit(100.0 + 20.0 * treated + noise, treated)


def _experiments() -> dict[str, _Experiment]:
    """The five experiments by name, built on each call so the functions
    they hold are whatever this module's names are bound to at run time."""
    u_recipes = (hoeffding_u_ci, functools.partial(hoeffding_u_ci, centered=False))
    hoeffding = (hoeffding_ci,)

    return {
        "table2": _Experiment(2, (
            ("TN(0,20,10,5)", TruncatedNormalSpec(0.0, 20.0, 10.0, 5.0), 10.0),
            ("TN(0,15,10,3)", TruncatedNormalSpec(0.0, 15.0, 10.0, 3.0), 7.5),
            ("TN(0,15,5,3)", TruncatedNormalSpec(0.0, 15.0, 5.0, 3.0), 7.5),
        ), _draw_law, (
            _Bootstrap("midrange", midrange, "full", hoeffding),
            _Bootstrap("midrange", midrange, "sqrt", (hoeffding_ci, percentile_ci)),
        )),
        "table3": _Experiment(3, (
            ("round(TN(0,40,20,5))", TruncatedNormalSpec(0.0, 40.0, 20.0, 5.0), 20.0),
            ("round(TN(0,40,25,8))", TruncatedNormalSpec(0.0, 40.0, 25.0, 8.0), 20.0),
            ("round(TN(0,40,15,8))", TruncatedNormalSpec(0.0, 40.0, 15.0, 8.0), 20.0),
        ), _draw_rounded_law, (
            _Bootstrap("plugin", discrete_plugin_average, "full", u_recipes),
            _Bootstrap("midrange", midrange, "full", u_recipes),
        )),
        "table4": _Experiment(4, (
            ("tau=5", TruncatedNormalSpec(-50.0, 50.0, 0.0, 5.0), 10.0),
            ("tau=25", TruncatedNormalSpec(-50.0, 50.0, 0.0, 25.0), 10.0),
        ), _draw_confounded_continuous, (
            _Bootstrap("midrange", midrange, "full", hoeffding),
        )),
        "table5": _Experiment(5, (
            ("tau=30", BinomialSpec(30, 0.5), 5.0),
            ("tau=50", BinomialSpec(50, 0.5), 5.0),
        ), _draw_confounded_discrete, (
            _Bootstrap("plugin", discrete_plugin_average, "full", u_recipes),
            _Bootstrap("midrange", midrange, "full", u_recipes),
        )),
        "table6": _Experiment(6, (
            ("slope", TruncatedNormalSpec(-10.0, 10.0, 0.0, 2.0), 20.0),
        ), _draw_slope, (
            _Bootstrap("ols", sample_mean, "full", hoeffding),
        ), fit_recipes=(t_ci, u_concentration_ci)),
    }


# Labels are plain data, so they are read once; callables are bound per run.
_VARIANT_LABELS = {name: tuple(v[0] for v in e.variants)
                   for name, e in _experiments().items()}


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every selected (variant, n) cell of ``spec`` and aggregate it.

    Per iteration: draw the data; when the draw carries a fit, record its
    slope as the ``ols`` estimate along with the fit's intervals; then run
    each bootstrap, record its statistic as its estimator's point (table6's
    ``ols`` bootstrap thus restates the slope as the difference of arm
    means) and read all of its recipes off the same replicates.
    """
    experiment = _experiments()[spec.experiment]
    passed = 0
    rows: list[ReportRow] = []
    for vi, label in spec.selected_variants():
        _, parameter, target = experiment.variants[vi]
        for ni, n in enumerate(spec.n_grid):
            tally = _CellTally(spec.iterations)
            for it in range(spec.iterations):
                stream = RngStream(spec.seed, (experiment.number, vi, ni, it))
                data, fit = experiment.draw(parameter, n, stream)
                if fit is not None:
                    tally.record_point("ols", it, fit.coefficient(1))
                    for recipe in experiment.fit_recipes:
                        tally.record_interval("ols", it, recipe(fit, 1, spec.alpha))
                for k, boot in enumerate(experiment.bootstraps):
                    config = BootstrapConfig(
                        spec.replicates, stream.child(k + 1), boot.resample_size)
                    dist = resample(data, config, boot.statistic)
                    passed += popoviciu_check(dist)
                    tally.record_point(boot.estimator, it, dist.statistic)
                    suffix = "-m" if boot.resample_size == "sqrt" else ""
                    for recipe in boot.recipes:
                        tally.record_interval(boot.estimator, it,
                                              recipe(dist, spec.alpha), suffix)
            rows.extend(tally.rows(spec.experiment, label, n, target))
    streams = len(spec.selected_variants()) * len(spec.n_grid) * spec.iterations
    return ExperimentReport(
        spec=spec, rows=tuple(rows),
        range_checks_passed=passed,
        range_checks_total=streams * len(experiment.bootstraps),
        streams_used=streams)


# Emission.  CSV carries exact shortest-round-trip floats so a report can
# be re-ingested losslessly; the text table rounds for reading.

CSV_COLUMNS = ("experiment", "variant", "n", "estimator", "method", "target",
               "mean_estimate", "mean_lower", "mean_upper", "coverage", "power")


def csv_text(header, rows) -> str:
    """``header`` then ``rows`` as CSV text with ``\\n`` line ends.  ``None`` is
    an empty field and a Python float its shortest round-trip form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, keeping its line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def report_csv(report: ExperimentReport) -> str:
    return csv_text(CSV_COLUMNS, ([getattr(row, name) for name in CSV_COLUMNS]
                                  for row in report.rows))


def aligned_table(lines) -> list[str]:
    """Rows of cells as left-aligned columns two spaces apart, trailing blanks
    stripped; the first row is the header, with a dashed rule under it."""
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    rendered = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                for line in lines]
    rendered.insert(1, "  ".join("-" * w for w in widths))
    return rendered


def report_text(report: ExperimentReport) -> str:
    """Aligned table plus the run's parameters and self-check tallies.

    It holds nothing that varies between runs, such as timings: the text
    file is part of the byte-for-byte reproducibility contract.
    """
    header = ("variant", "n", "estimator", "method", "estimate",
              "interval", "EC", "EP")
    lines = [header]
    for row in report.rows:
        if row.mean_lower is None:
            interval, ec, ep = "", "", ""
        else:
            interval = f"({row.mean_lower:.2f}, {row.mean_upper:.2f})"
            ec = f"{row.coverage:.3f}"
            ep = f"{row.power:.3f}"
        lines.append((row.variant, str(row.n), row.estimator, row.method,
                      f"{row.mean_estimate:.3f}", interval, ec, ep))
    rendered = aligned_table(lines)
    spec = report.spec
    rendered.append("")
    rendered.append(f"experiment={spec.experiment}  iterations={spec.iterations}  "
                    f"replicates={spec.replicates}  alpha={spec.alpha}  seed={spec.seed}")
    rendered.append(f"independent streams: {report.streams_used}")
    rendered.append(f"replicate-spread self-checks passed: "
                    f"{report.range_checks_passed} of {report.range_checks_total}")
    return "\n".join(rendered) + "\n"


def write_report(report: ExperimentReport, prefix: str) -> tuple[str, str]:
    """Write ``{prefix}.csv`` and ``{prefix}.txt``; returns both paths."""
    csv_path = f"{prefix}.csv"
    text_path = f"{prefix}.txt"
    write_text(csv_path, report_csv(report))
    write_text(text_path, report_text(report))
    return csv_path, text_path


def read_report_csv(path: str) -> tuple[ReportRow, ...]:
    """Parse a report CSV written by :func:`write_report` back into rows.

    Floats are emitted in shortest round-trip form, so the rows read back
    compare equal to the ones the report was written from.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a report header") from None
        if tuple(header) != CSV_COLUMNS:
            raise SchemaError(f"{path}: header {header!r} is not a report header")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(CSV_COLUMNS):
                raise CsvParseError(lineno, "", f"expected {len(CSV_COLUMNS)} fields, "
                                               f"got {len(record)}")
            raw = dict(zip(CSV_COLUMNS, record))
            try:
                rows.append(ReportRow(
                    experiment=raw["experiment"], variant=raw["variant"],
                    n=int(raw["n"]), estimator=raw["estimator"],
                    method=raw["method"], target=float(raw["target"]),
                    mean_estimate=float(raw["mean_estimate"]),
                    mean_lower=float(raw["mean_lower"]) if raw["mean_lower"] else None,
                    mean_upper=float(raw["mean_upper"]) if raw["mean_upper"] else None,
                    coverage=float(raw["coverage"]) if raw["coverage"] else None,
                    power=float(raw["power"]) if raw["power"] else None))
            except ValueError as exc:
                raise CsvParseError(lineno, "", str(exc)) from None
    return tuple(rows)
