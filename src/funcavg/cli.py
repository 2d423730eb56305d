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
names, a method the flags cannot serve, a column named by two column
flags, an ``--out`` prefix in a directory that does not exist), 1 when the
data or a numerical procedure is at fault or an output file cannot be
written.  The active
seed is echoed to stderr on every run; the ``FUNCAVG_SEED`` environment
variable supplies a default, and an explicit ``--seed`` beats it.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
import warnings
from array import array

import click
import numpy as np

from .bootstrap import BootstrapConfig, hoeffding_ci, resample
from .dataset import Dataset, TwoArmSample
# perfbench wraps sum_symmetry_gap and mean_midrange_distance here; cli calls neither.
from .diagnostics import (ecdf, mean_midrange_distance, residual_support_symmetry,
                          sum_symmetry_gap, support_areas)
from .errors import CsvParseError, DataError, FuncavgError, SchemaError, check_count
from .estimators import midrange
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
    differs from the header's.  A UTF-8 byte-order mark, as Excel writes, is
    read as part of the encoding, not as part of the first column's name.

    The file's bytes are read once, and a byte that is not UTF-8 is refused
    (naming its line) before anything else is read.  ``np.loadtxt`` parses
    the body first; when it refuses, a per-cell loop reads it, and that loop
    is the only code that drops rows and locates faults, so both give the
    same columns, count and errors.  The loop judges every referenced cell,
    also in a row it drops, and reports the first fault in file order.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    _check_utf8(raw)
    reader = csv.reader(_text(raw))
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
    matrix = _clean_matrix(raw, reader.line_num, len(header), positions)
    if matrix is not None:
        return Dataset({name: matrix[:, j] for j, name in enumerate(wanted)}), 0
    order = sorted(zip(positions, wanted))  # a row's cells in file order
    cells = array("d")  # the kept rows' cells, row after row
    dropped = 0
    for lineno, record in enumerate(reader, start=2):
        if len(record) != len(header):
            raise CsvParseError(lineno, "", f"expected {len(header)} fields, "
                                            f"got {len(record)}")
        row = []  # the row's numbers; a missing value leaves it short
        for pos, name in order:
            cell = record[pos].strip()
            if cell.lower() in _MISSING_MARKERS:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(lineno, name,
                                    f"cannot parse {cell!r} as a number") from None
            if not math.isfinite(value):  # ``float`` reads "inf", overflows "1e999"
                raise CsvParseError(lineno, name, f"{value} is not a finite number")
            row.append(value)
        if len(row) == len(order):
            cells.extend(row)
        else:
            dropped += 1
    if not cells:
        raise DataError(f"{path}: no complete rows for columns {', '.join(wanted)}")
    matrix = np.frombuffer(cells).reshape(-1, len(order))  # C-ordered
    by_name = {name: matrix[:, j] for j, (_, name) in enumerate(order)}
    return Dataset({name: by_name[name] for name in wanted}), dropped


def _text(raw: bytes):
    """``raw`` as a text stream split into lines as ``csv`` wants them."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")


def _check_utf8(raw: bytes) -> None:
    """Raise a :class:`CsvParseError` at the first byte of ``raw`` that is
    not UTF-8.  It names that byte's line as ``csv`` counts lines: the
    header is line 1, and a line ends at LF, CRLF or a lone CR."""
    if raw.isascii():
        return
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise CsvParseError(line, "", f"cannot decode byte 0x{raw[exc.start]:02x} "
                                      "as UTF-8") from None


def _clean_matrix(raw: bytes, header_lines: int, width: int,
                  positions: list[int]) -> np.ndarray | None:
    """The ``positions`` columns of the data lines after the header's
    ``header_lines`` lines as one C-ordered matrix, or None when the
    per-cell loop must read them.

    ``np.loadtxt`` parses every cell as ``float`` does or raises (on text,
    an empty cell, a quote, a bare sign, a non-ASCII character or a changed
    field count); it warns on a body without data, which is refused too.
    It reads the bytes themselves, decoding them as latin-1, with no text
    stream between: ``ingest_csv`` has refused any byte that is not UTF-8,
    and the first byte of a non-ASCII character decodes to a letter, ``×``
    or ``÷``, which no number holds, so a body row with one is the loop's
    to read.  It skips blank lines, which the line count below catches;
    and it reads ``nan``, ``inf`` and ``1e999``, which the loop drops or
    rejects.
    """
    if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n") + raw.endswith(b"\r"):
        return None  # a lone CR ends a line that the count below misses
    lines = raw.count(b"\n") + (not raw.endswith(b"\n")) - header_lines
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            full = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, dtype=float,
                              skiprows=header_lines, ndmin=2)
        except (ValueError, UserWarning):
            return None
    if full.shape != (lines, width):
        return None
    matrix = full.take(positions, axis=1)  # C-ordered, as the loop's matrix is
    return matrix if np.isfinite(matrix).all() else None


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("FUNCAVG_SEED", "0")
    try:
        return check_count(int(env), "FUNCAVG_SEED", 0)
    except ValueError:  # from int(), or check_count's ParameterError
        raise click.UsageError(
            f"FUNCAVG_SEED must be a non-negative integer, got {env!r}") from None


def _check_out_dir(ctx, param, prefix):
    # Output is written last, so a bad prefix is refused before the work.
    if prefix is None:
        return None
    folder, name = os.path.split(prefix)
    if name in ("", os.curdir, os.pardir):
        raise click.BadParameter(f"{prefix!r} names no file; give a file name prefix")
    if folder and not os.path.isdir(folder):
        raise click.BadParameter(f"directory {folder!r} does not exist")
    return prefix


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


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


def _load_csv(input_path: str, outcome: str, treatment: str,
              covariates: tuple[str, ...]) -> Dataset:
    """Ingest the referenced columns, noting dropped rows on stderr."""
    data, dropped = ingest_csv(input_path, (outcome, treatment) + covariates)
    if dropped:
        click.echo(f"dropped {dropped} incomplete rows", err=True)
    return data


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
            arms = TwoArmSample.from_labels(data.column(outcome), data.column(treatment))
            dist = resample(arms, BootstrapConfig(replicates, stream), midrange)
            ci = hoeffding_ci(dist, alpha)
        rows.append((parameter, method, ci))
    return rows


def _check_flags(outcome: str, treatment: str, covariates, methods=()) -> None:
    """Reject column flags that name a column twice, and methods the flags
    cannot serve, as usage errors before ingest."""
    names = (outcome, treatment, *covariates)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise click.UsageError(f"column {name!r} is named twice among --outcome, "
                                   "--treatment and --covariates")
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
              show_default=True, help="Bootstrap replicates for S, PS, Av. The Av "
              "interval widens with B, and its coverage rises with it: table 2's mean "
              "widths are 2.73 / 3.24 / 3.65 at B = 100 / 500 / 2000.")
@click.option("--seed", type=_SEED, default=None, help="Base seed (default 0 "
              "or FUNCAVG_SEED).")
@click.option("--out", default=None, callback=_check_out_dir,
              help="Prefix: write {out}.csv and {out}.txt.")
def estimate(input_path, outcome, treatment, covariates, methods, alpha,
             replicates, seed, out):
    """Estimate the treatment contrast in INPUT_PATH by each method."""
    seed = _resolve_seed(seed)
    _check_flags(outcome, treatment, covariates, methods)
    click.echo(f"seed: {seed}", err=True)
    try:
        data = _load_csv(input_path, outcome, treatment, covariates)
        rows = _estimate_rows(data, outcome, treatment, covariates,
                              methods, alpha, replicates, seed)
    except FuncavgError as exc:
        _fail(exc)
    text = _estimate_text(rows, alpha)
    if out is not None:
        try:
            write_text(f"{out}.csv", _estimate_csv(rows))
            write_text(f"{out}.txt", text)
        except OSError as exc:
            _fail(exc)
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
@click.option("--out", default=None, callback=_check_out_dir,
              help="Prefix: write {out}.csv and {out}.txt.")
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
        try:
            csv_path, text_path = write_report(report, out)
        except OSError as exc:
            _fail(exc)
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
@click.option("--out", default=None, callback=_check_out_dir,
              help="Prefix: write {out}.txt and {out}_ecdf_{group}.csv files.")
def diagnose(input_path, treatment, outcome, covariates, out):
    """Shape diagnostics per treatment group of INPUT_PATH."""
    _check_flags(outcome, treatment, covariates)
    try:
        data = _load_csv(input_path, outcome, treatment, covariates)
        values = data.column(outcome)
        groups = data.column(treatment)
        distinct = np.unique(groups)
        if distinct.size > 10:
            raise DataError(f"column {treatment!r} has {distinct.size} distinct "
                            "values; too many to group by")
        lines = [("group", "n", "gap", "gap/range", "mean-midrange",
                  "area-below", "area-above")]
        kept = {}
        for g in distinct:
            sample = values[groups == g]
            label = _group_label(g)
            width = sample.max() - sample.min()
            if width == 0.0:
                click.echo(f"warning: group {treatment}={label} has no spread; "
                           "skipped", err=True)
                continue
            kept[label] = sample
            # One call gives every gauge: the gap is sum_symmetry_gap's and
            # half its size mean_midrange_distance's.
            below, above = support_areas(sample)
            gap = below - above
            lines.append((label, str(sample.size), f"{gap:.4f}",
                          f"{gap / width:.4f}", f"{abs(gap) / 2.0:.4f}",
                          f"{below:.4f}", f"{above:.4f}"))
        rendered = aligned_table(lines)
        if covariates:
            design, y = build_design(
                data, _adjusted_model(outcome, treatment, covariates))
            fit = ols_fit(design, y)
            # An exact fit leaves residuals of rounding size, a few
            # eps * max|y|.  A range within 1e-10 * max|y| (about 4.5e5 eps,
            # room for an ill-conditioned design) is that rounding alone, and
            # an asymmetry read off its extremes would describe noise.
            spread = float(fit.residuals.max() - fit.residuals.min())
            if spread <= 1e-10 * float(np.abs(y).max()):
                raise DataError(f"{outcome!r} is fitted exactly by "
                                f"{', '.join((treatment, *covariates))}; "
                                "its residuals have no support to describe")
            sym = residual_support_symmetry(fit.residuals)
            rendered.append("")
            rendered.append(f"residual support: max {sym.max_residual:.4f}  "
                            f"min {sym.min_residual:.4f}  "
                            f"asymmetry {sym.asymmetry:.4f}")
        text = "\n".join(rendered) + "\n"
    except FuncavgError as exc:
        _fail(exc)
    if out is not None:
        try:
            write_text(f"{out}.txt", text)
            for label, sample in kept.items():
                curve = ecdf(sample)
                write_text(f"{out}_ecdf_{label}.csv", csv_text(
                    ("value", "cumulative_fraction"),
                    zip(curve.values.tolist(), curve.heights.tolist())))
        except OSError as exc:
            _fail(exc)
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
