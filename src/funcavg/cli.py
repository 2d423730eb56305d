"""Command-line front end: CSV in, estimates, diagnostics, simulations out.

Three subcommands:

* ``estimate``: treatment-contrast estimates from a CSV file, one row of
  output per requested method (LR, MR, S, PS, Av).
* ``simulate``: run one of the five benchmark experiments and emit its
  report.
* ``diagnose``: per-group distribution shape numbers and, when a model
  is given, the residual support-symmetry report.

Exit codes are a stable contract: 0 on success, 2 for usage errors
(unknown flags, out-of-range flag values, bad table ids, unknown method
names, a method the flags cannot serve), 1 when the data or a numerical
procedure is at fault.  The active seed is echoed to stderr on every
run; the ``FUNCAVG_SEED`` environment variable supplies a default, and an
explicit ``--seed`` beats it.
"""

from __future__ import annotations

import csv
import io
import os
import sys

import click
import numpy as np

from .bootstrap import BootstrapConfig, hoeffding_ci, resample
from .dataset import Dataset
from .diagnostics import ecdf, mean_midrange_distance, residual_support_symmetry, sum_symmetry_gap
from .errors import CsvParseError, DataError, FuncavgError, SchemaError
from .estimators import TwoArmSample, contrast, midrange
from .formula import ModelSpec, Term
from .intervals import IntervalEstimate
from .regression import (
    build_design,
    ols_fit,
    ps_stratified_contrast,
    standardization_bootstrap_se,
    t_ci,
)
from .rng import RngStream
from .simharness import (
    DEFAULT_REPLICATES,
    DESK_ITERATIONS,
    FULL_GRID,
    FULL_ITERATIONS,
    aligned_table,
    csv_text,
    desk_spec,
    full_spec,
    report_text,
    run_experiment,
    write_report,
    write_text,
)

# Every spelling ``float`` reads as NaN is missing, as are "" and "NA".
_MISSING_MARKERS = {"", "na", "nan", "-nan", "+nan"}
# The bytes a clean CSV body is made of.  Any other byte (a letter of NA,
# nan, inf or an ID, a quote, #, _) sends the file to the per-cell loop.
_NUMBER_BYTES = b"0123456789+-.eE, \t\r\n"
# Read with line ends as commas, an empty cell or a blank line shows as ",,".
_LINE_ENDS_AS_COMMAS = bytes.maketrans(b"\n", b",")
METHOD_NAMES = ("LR", "MR", "S", "PS", "Av")
_COVARIATE_METHODS = ("MR", "S", "PS")

# Flag ranges, checked by click so that an out-of-range value is a usage
# error (exit 2) before any work starts.  A bootstrap interval needs at
# least two replicates: one has a range of zero.
_REPLICATES = click.IntRange(min=2)
_ALPHA = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)
_SEED = click.IntRange(min=0)


def _reject_nan(ctx, param, value):
    # Every comparison with NaN is false, so NaN gets through a FloatRange.
    if np.isnan(value):
        raise click.BadParameter("nan is not in the range 0.0<x<1.0.")
    return value


def ingest_csv(path: str, columns=None) -> tuple[Dataset, int]:
    """Read a CSV with a header row into a Dataset of float columns.

    Only the referenced ``columns`` are parsed (all columns when None).
    Rows with a missing value (empty cell, NA, NaN, -NaN, +NaN) in any
    referenced column are dropped; the count of dropped rows is returned
    alongside the data.  Non-numeric text or a non-finite number (``inf``,
    ``1e999``) in a referenced column is a :class:`CsvParseError` naming the
    row and column, not a missing value, so typos fail loudly instead of
    shrinking the sample.  So is a blank line or a row whose field count
    differs from the header's.

    A clean file (every cell a finite number, no quotes) is parsed in one
    ``np.loadtxt`` pass.  Any other file goes through a per-cell loop,
    which is the only code that drops rows and locates faults, so both
    paths give the same columns, count and errors.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate column names in header: {header}")
        wanted = list(columns) if columns is not None else list(header)
        missing = [c for c in wanted if c not in header]
        if missing:
            raise SchemaError(
                f"{path}: no column named {', '.join(repr(c) for c in missing)}; "
                f"available: {', '.join(header)}")
        positions = [header.index(c) for c in wanted]
        matrix = _clean_matrix(fh, len(header), positions)
        if matrix is not None:
            return Dataset({name: matrix[:, j] for j, name in enumerate(wanted)}), 0
        fh.seek(0)
        next(reader)  # the header, read above
        kept: list[list[float]] = []
        dropped: list[int] = []  # line numbers of rows with a missing value
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise CsvParseError(lineno, "", f"expected {len(header)} fields, "
                                                f"got {len(record)}")
            parsed = []
            for name, pos in zip(wanted, positions):
                cell = record[pos].strip()
                if cell.lower() in _MISSING_MARKERS:
                    parsed = None
                    break
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CsvParseError(lineno, name,
                                        f"cannot parse {cell!r} as a number") from None
            if parsed is None:
                dropped.append(lineno)
            else:
                kept.append(parsed)
    if not kept:
        raise DataError(f"{path}: no complete rows for columns {', '.join(wanted)}")
    matrix = np.array(kept, dtype=float)
    # ``float`` accepts "inf" and overflows "1e999" to it.  One check on the
    # whole matrix keeps the per-cell loop lean; the kept rows' line numbers
    # are the ones not dropped.
    bad = ~np.isfinite(matrix)
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(wanted))
        lines = np.setdiff1d(np.arange(2, 2 + len(kept) + len(dropped)), dropped)
        raise CsvParseError(int(lines[row]), wanted[col],
                            f"{matrix[row, col]} is not a finite number")
    data = Dataset({name: matrix[:, j] for j, name in enumerate(wanted)})
    return data, len(dropped)


def _clean_matrix(fh, width: int, positions: list[int]) -> np.ndarray | None:
    """The ``positions`` columns of the data lines left in ``fh`` as one
    C-ordered matrix, or None when the per-cell loop must read them.

    Two byte scans hand a body holding text or an empty cell to the loop
    before ``np.loadtxt`` runs, so a file with missing values or an ID
    column is parsed once, by the loop, as it would be without this pass.
    ``np.loadtxt`` parses every other cell as ``float`` does or raises (on a
    bare sign, a lone CR inside a line or a changed field count); it skips
    blank lines, which the row count below catches; and it reads ``1e999``
    as inf, which the loop rejects.
    """
    try:
        body = fh.read()
    except UnicodeDecodeError:
        return None  # the loop raises where it meets the bytes
    if not body.isascii():
        return None  # float reads non-ASCII digits, loadtxt does not
    raw = body.encode("ascii")
    if raw.isspace() or not raw or raw.translate(None, _NUMBER_BYTES):
        return None  # no data line (loadtxt would warn), or text
    cells = raw.translate(_LINE_ENDS_AS_COMMAS, b"\r")
    if cells.startswith(b",") or b",," in cells:
        return None  # an empty cell or a blank line
    lines = body.count("\n") + (not body.endswith("\n"))
    try:
        full = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                          dtype=float, ndmin=2)
    except ValueError:
        return None
    if full.shape != (lines, width):
        return None
    matrix = full.take(positions, axis=1)  # C-ordered, as np.array(kept) is
    return matrix if np.isfinite(matrix).all() else None


def center_continuous(data: Dataset, names) -> tuple[Dataset, list[str]]:
    """Mean-center the named columns that take more than two values.

    Binary indicator columns are left alone so their coefficients keep
    their group-contrast reading.
    """
    centered = []
    for name in names:
        col = data.column(name)
        if np.unique(col).size > 2:
            data = data.with_column(name, col - col.mean())
            centered.append(name)
    return data, centered


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("FUNCAVG_SEED", "0")
    try:
        seed = int(env)
    except ValueError:
        seed = -1  # rejected below, with the text as given
    if seed < 0:
        raise click.UsageError(
            f"FUNCAVG_SEED must be a non-negative integer, got {env!r}")
    return seed


def _split_names(ctx, param, text):
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _normalize_methods(ctx, param, values):
    canon = {name.lower(): name for name in METHOD_NAMES}
    if not values:
        return ("Av",)
    out = []
    for value in values:
        try:
            out.append(canon[value.lower()])
        except KeyError:
            raise click.UsageError(
                f"unknown method {value!r}; choose from {', '.join(METHOD_NAMES)}")
    return tuple(out)


@click.group()
def main():
    """Functional average estimation toolkit."""


def _fail(exc: FuncavgError) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


def _load_csv(input_path: str, outcome: str, treatment: str,
              covariates: tuple[str, ...], center: bool) -> tuple[Dataset, list[str]]:
    """Ingest the referenced columns, noting dropped rows on stderr:
    ``(data, the covariates --center mean-centered)``."""
    data, dropped = ingest_csv(input_path,
                               tuple(dict.fromkeys((outcome, treatment) + covariates)))
    if dropped:
        click.echo(f"dropped {dropped} incomplete rows", err=True)
    centered = []
    if center:
        data, centered = center_continuous(data, covariates)
    return data, centered


def _adjusted_model(outcome: str, treatment: str, covariates) -> ModelSpec:
    """``outcome ~ treatment + covariates``, the model LR, MR, S and diagnose fit."""
    return ModelSpec(outcome, tuple(Term((name,)) for name in (treatment, *covariates)))


def _estimate_rows(data: Dataset, outcome: str, treatment: str, covariates,
                   methods, alpha: float, replicates: int,
                   seed: int) -> list[tuple[str, str, IntervalEstimate]]:
    """One (parameter, method, interval) triple per requested method.

    Bootstrap-based methods draw from disjoint child streams of the run
    seed keyed by the method's position in the canonical method tuple,
    so adding one method to a run never shifts another method's numbers.
    """
    parameter = f"{outcome}: {treatment}=1 vs {treatment}=0"
    model = _adjusted_model(outcome, treatment, covariates)
    base = RngStream(seed)
    rows = []
    for method in methods:
        stream = base.child(METHOD_NAMES.index(method))
        if method in ("LR", "MR"):
            fitted = model if method == "MR" else _adjusted_model(outcome, treatment, ())
            design, y = build_design(data, fitted)
            ci = t_ci(ols_fit(design, y), treatment, alpha)
        elif method == "S":
            ci = standardization_bootstrap_se(
                data, model, treatment, stream, replicates=replicates, alpha=alpha)
        elif method == "PS":
            ci = ps_stratified_contrast(
                data, outcome, treatment, covariates, stream,
                replicates=replicates, alpha=alpha)
        else:  # Av
            values = data.column(outcome)
            labels = data.column(treatment)
            TwoArmSample.from_labels(values, labels)  # validates the arms
            paired = np.column_stack([values, labels])
            dist = resample(paired, BootstrapConfig(replicates, stream), contrast(midrange))
            ci = hoeffding_ci(dist, alpha)
        rows.append((parameter, method, ci))
    return rows


def _check_methods(methods, covariates) -> None:
    """Reject methods the flags cannot serve, as usage errors before ingest."""
    needs_covariates = [m for m in methods if m in _COVARIATE_METHODS]
    if needs_covariates and not covariates:
        raise click.UsageError(f"method {needs_covariates[0]} needs --covariates")


def _estimate_text(rows, alpha: float) -> str:
    header = ("parameter", "method", "estimate", f"{100 * (1 - alpha):g}% interval")
    lines = [header]
    for parameter, method, ci in rows:
        lines.append((parameter, method, f"{ci.point:.4f}",
                      f"({ci.lower:.4f}, {ci.upper:.4f})"))
    return "\n".join(aligned_table(lines)) + "\n"


def _estimate_csv(rows) -> str:
    return csv_text(("parameter", "method", "estimate", "lower", "upper",
                     "alpha", "interval_method"),
                    [(parameter, method, ci.point, ci.lower, ci.upper, ci.alpha, ci.method)
                     for parameter, method, ci in rows])


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--outcome", required=True, help="Outcome column name.")
@click.option("--treatment", required=True, help="Binary treatment column name.")
@click.option("--covariates", default="", callback=_split_names,
              help="Comma-separated covariate columns.")
@click.option("--method", "methods", multiple=True, callback=_normalize_methods,
              help="LR, MR, S, PS, or Av; repeatable. Default Av.")
@click.option("--alpha", type=_ALPHA, callback=_reject_nan, default=0.05,
              show_default=True)
@click.option("--b", "replicates", type=_REPLICATES, default=DEFAULT_REPLICATES,
              show_default=True, help="Bootstrap replicates for S, PS, Av.")
@click.option("--center", is_flag=True,
              help="Mean-center continuous covariates first.")
@click.option("--seed", type=_SEED, default=None, help="Base seed (default 0 "
              "or FUNCAVG_SEED).")
@click.option("--out", default=None, help="Prefix: write {out}.csv and {out}.txt.")
def estimate(input_path, outcome, treatment, covariates, methods, alpha,
             replicates, center, seed, out):
    """Estimate the treatment contrast in INPUT_PATH by each method."""
    seed = _resolve_seed(seed)
    _check_methods(methods, covariates)
    click.echo(f"seed: {seed}", err=True)
    try:
        data, centered = _load_csv(input_path, outcome, treatment, covariates, center)
        if centered:
            click.echo(f"centered: {', '.join(centered)}", err=True)
        rows = _estimate_rows(data, outcome, treatment, covariates,
                              methods, alpha, replicates, seed)
    except FuncavgError as exc:
        _fail(exc)
    text = _estimate_text(rows, alpha)
    if out is not None:
        write_text(f"{out}.csv", _estimate_csv(rows))
        write_text(f"{out}.txt", text)
    click.echo(text, nl=False)


@main.command()
@click.option("--table", type=click.IntRange(2, 6), required=True,
              help="Which benchmark experiment to run (2 to 6).")
@click.option("--m-iterations", "--m", "iterations", type=click.IntRange(min=1),
              default=None, help=f"Monte Carlo iterations (default {DESK_ITERATIONS}, "
                                 f"{FULL_ITERATIONS} with --full).")
@click.option("--b", "replicates", type=_REPLICATES, default=DEFAULT_REPLICATES,
              show_default=True, help="Bootstrap replicates per iteration.")
@click.option("--alpha", type=_ALPHA, callback=_reject_nan, default=0.05,
              show_default=True)
@click.option("--full", is_flag=True,
              help=f"Full-scale profile: sample sizes {FULL_GRID}, "
                   f"M={FULL_ITERATIONS}.")
@click.option("--seed", type=_SEED, default=None, help="Base seed (default 0 "
              "or FUNCAVG_SEED).")
@click.option("--out", default=None, help="Prefix: write {out}.csv and {out}.txt.")
def simulate(table, iterations, replicates, alpha, full, seed, out):
    """Run one benchmark experiment and emit its report."""
    seed = _resolve_seed(seed)
    click.echo(f"seed: {seed}", err=True)
    overrides = dict(replicates=replicates, alpha=alpha)
    if iterations is not None:
        overrides["iterations"] = iterations
    try:
        spec = (full_spec if full else desk_spec)(f"table{table}", seed, **overrides)
        report = run_experiment(spec)
    except FuncavgError as exc:
        _fail(exc)
    if out is not None:
        csv_path, text_path = write_report(report, out)
        click.echo(f"wrote {csv_path} and {text_path}", err=True)
    click.echo(report_text(report), nl=False)


def _group_label(value: float) -> str:
    """``%g`` when it reads back as ``value``, else the exact ``repr``, so
    two groups never share a label or an ECDF file name."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--treatment", required=True,
              help="Grouping column; one report row per distinct value.")
@click.option("--outcome", required=True,
              help="Outcome column the per-group numbers describe.")
@click.option("--covariates", default="", callback=_split_names,
              help="If given, also fit outcome ~ treatment + covariates and "
                   "report residual support symmetry.")
@click.option("--center", is_flag=True,
              help="Mean-center continuous covariates before the fit.")
@click.option("--out", default=None,
              help="Prefix: write {out}.txt and {out}_ecdf_{group}.csv files.")
def diagnose(input_path, treatment, outcome, covariates, center, out):
    """Shape diagnostics per treatment group of INPUT_PATH."""
    try:
        data, _ = _load_csv(input_path, outcome, treatment, covariates, center)
        values = data.column(outcome)
        groups = data.column(treatment)
        distinct = np.unique(groups)
        if distinct.size > 10:
            raise DataError(f"column {treatment!r} has {distinct.size} distinct "
                            "values; too many to group by")
        lines = [("group", "n", "gap", "gap/range", "mean-midrange",
                  "area-below", "area-above")]
        curves = {}
        for g in distinct:
            sample = values[groups == g]
            label = _group_label(g)
            if sample.size < 2 or sample.min() == sample.max():
                click.echo(f"warning: group {treatment}={label} has no spread; "
                           "skipped", err=True)
                continue
            curve = ecdf(sample)
            curves[label] = curve
            gap = sum_symmetry_gap(sample)
            lines.append((label, str(sample.size), f"{gap:.4f}",
                          f"{gap / curve.observed_range:.4f}",
                          f"{mean_midrange_distance(sample):.4f}",
                          f"{curve.area_below():.4f}",
                          f"{curve.area_above():.4f}"))
        rendered = aligned_table(lines)
        if covariates:
            design, y = build_design(
                data, _adjusted_model(outcome, treatment, covariates))
            fit = ols_fit(design, y)
            sym = residual_support_symmetry(fit.residuals)
            rendered.append("")
            rendered.append(f"residual support: max {sym.max_residual:.4f}  "
                            f"min {sym.min_residual:.4f}  "
                            f"asymmetry {sym.asymmetry:.4f}")
        text = "\n".join(rendered) + "\n"
    except FuncavgError as exc:
        _fail(exc)
    if out is not None:
        write_text(f"{out}.txt", text)
        for label, curve in curves.items():
            write_text(f"{out}_ecdf_{label}.csv", csv_text(
                ("value", "cumulative_fraction"),
                zip(curve.values.tolist(), curve.heights.tolist())))
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
