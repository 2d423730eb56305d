import csv
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import funcavg
from funcavg import cli
from funcavg.bootstrap import BootstrapConfig, hoeffding_ci, resample
from funcavg.cli import METHOD_NAMES, ingest_csv, main
from funcavg.dataset import TwoArmSample
from funcavg.diagnostics import ecdf
from funcavg.errors import CsvParseError, DataError, SchemaError
from funcavg.estimators import midrange
from funcavg.rng import RngStream


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def two_arm_csv(path, seed=4, n=80, x_shift=0.0):
    rng = np.random.default_rng(seed)
    t = (rng.uniform(size=n) < 0.5).astype(float)
    x = rng.normal(size=n)
    y = 5.0 + 3.0 * t + 1.5 * x + rng.normal(scale=0.7, size=n)
    return write_csv(path, ["y", "t", "x"],
                     [[f"{yi:.6f}", f"{ti:g}", f"{xi + x_shift:.6f}"]
                      for yi, ti, xi in zip(y, t, x)])


# ingest_csv


def test_ingest_drops_rows_with_missing_markers(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t"],
                     [["1.5", "0"], ["", "1"], ["2.5", "1"], ["NaN", "0"]])
    data, dropped = ingest_csv(path)
    assert dropped == 2
    assert data.column("y").tolist() == [1.5, 2.5]
    assert data.column("t").tolist() == [0.0, 1.0]


def test_ingest_only_referenced_columns_can_drop_rows(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t", "junk"],
                     [["1", "0", "NA"], ["2", "1", "3"]])
    data, dropped = ingest_csv(path, ("y", "t"))
    assert dropped == 0
    assert data.column("y").tolist() == [1.0, 2.0]


def test_ingest_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        ingest_csv(str(path))


def test_ingest_rejects_header_only_file(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t"], [])
    with pytest.raises(DataError, match="no complete rows"):
        ingest_csv(path)


def test_ingest_rejects_duplicate_header(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "y"], [["1", "2"]])
    with pytest.raises(SchemaError, match="duplicate"):
        ingest_csv(path)


def test_ingest_names_missing_columns(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t"], [["1", "0"]])
    with pytest.raises(SchemaError) as excinfo:
        ingest_csv(path, ("y", "weight"))
    assert "'weight'" in str(excinfo.value)
    assert "available: y, t" in str(excinfo.value)


def test_ingest_locates_bad_cells(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t"],
                     [["1.0", "0"], ["oops", "1"]])
    with pytest.raises(CsvParseError) as excinfo:
        ingest_csv(path)
    assert excinfo.value.row == 3
    assert excinfo.value.column == "y"
    assert "'oops'" in str(excinfo.value)


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
def test_ingest_locates_non_finite_cells(tmp_path, cell):
    # The NA row before it is dropped, yet the error names the file's row.
    path = write_csv(tmp_path / "d.csv", ["y", "t"],
                     [["1.0", "0"], ["na", "1"], ["2.0", "1"], ["3.0", cell],
                      ["inf", "0"]])
    with pytest.raises(CsvParseError) as excinfo:
        ingest_csv(path)
    assert excinfo.value.row == 5
    assert excinfo.value.column == "t"
    assert "not a finite number" in str(excinfo.value)


def test_ingest_rejects_ragged_rows(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t"], [["1.0", "0", "9"]])
    with pytest.raises(CsvParseError) as excinfo:
        ingest_csv(path)
    assert excinfo.value.row == 2


@pytest.mark.parametrize("text, columns, row, column, message", [
    ("y,t\n1,0\ninf,NA\n2,1\n", None, 3, "y", "inf is not a finite number"),
    ("y,t\n1,0\ninf,NA\n2,1\n", ("t", "y"), 3, "y", "inf is not a finite number"),
    ("y,t\n1,0\nNA,oops\n2,1\n", None, 3, "t", "cannot parse 'oops' as a number"),
    ("y,t\ninf,0\n1,1\noops,1\n", None, 2, "y", "inf is not a finite number"),
    ("y,t\n1,0\ninf,oops\n", ("t", "y"), 3, "y", "inf is not a finite number"),
], ids=["inf-then-NA", "inf-then-NA-reversed", "NA-then-text", "inf-before-text",
        "first-cell-of-the-row"])
def test_ingest_reports_the_first_bad_cell_in_file_order(tmp_path, text, columns, row,
                                                         column, message):
    # Every referenced cell is judged, also in a row a missing value drops,
    # and the first fault in file order is the one reported.
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(CsvParseError) as excinfo:
        ingest_csv(str(path), columns)
    assert (excinfo.value.row, excinfo.value.column) == (row, column)
    assert str(excinfo.value) == f"row {row}, column {column!r}: {message}"


def fifty_rows(y_of_row_49, id_column=False):
    """A 50-row y,t file (with an ID column if asked) whose 49th row has
    ``y_of_row_49`` for y."""
    lines = ["y,t,id" if id_column else "y,t"]
    for i in range(50):
        y = y_of_row_49 if i == 48 else f"{i}.5"
        lines.append(f"{y},{i % 2}" + (f",p{i}" if id_column else ""))
    return "\n".join(lines) + "\n"


# (case id, file text or bytes, referenced columns or None, parsed in one pass).
# Every case must give what the per-cell loop alone gives; the last field
# pins which cases the one-pass parse keeps.
INGEST_CORPUS = [
    ("plain", "y,t\n1.5,0\n2.5,1\n", None, True),
    ("subset", "y,t,x\n1.5,0,7\n2.5,1,8\n", ("x", "y"), True),
    ("plus-dot", "y,t\n+.5,0\n2,1\n", None, True),
    ("trailing-dot", "y,t\n5.,0\n2,1\n", None, True),
    ("padded", "y,t\n 2.5 ,0\n2,1\n", None, True),
    ("crlf", "y,t\r\n1.5,0\r\n2.5,1\r\n", None, True),
    ("no-final-newline", "y,t\n1.5,0\n2.5,1", None, True),
    ("underscore", "y,t\n1_000,0\n2,1\n", None, False),
    ("hex", "y,t\n0x10,0\n2,1\n", None, False),
    ("fortran-exponent", "y,t\n1d3,0\n2,1\n", None, False),
    ("inf", "y,t\n1,0\ninf,1\n", None, False),
    ("minus-inf", "y,t\n1,0\n2,-inf\n", None, False),
    ("overflow", "y,t\n1,0\n1e999,1\n", None, False),
    ("nan", "y,t\nnan,0\n2,1\n", None, False),
    ("NaN", "y,t\n1,0\nNaN,1\n2,1\n", None, False),
    ("minus-nan", "y,t\n-nan,0\n2,1\n", None, False),
    ("plus-nan", "y,t\n1,+nan\n2,1\n", None, False),
    ("NA", "y,t\nNA,0\n2,1\n", None, False),
    ("empty-cell", "y,t\n,0\n2,1\n", None, False),
    ("empty-last-cell", "y,t\n1,0\n2,\n", None, False),
    ("empty-last-cell-crlf", "y,t\r\n1,0\r\n2,\r\n", None, False),
    ("space-only-cell", "y,t\n1,0\n ,1\n", None, False),
    ("bare-exponent", "y,t\n1,0\ne,1\n", None, False),
    ("id-unreferenced", "y,t,id\n1,0,p1\n2,1,p2\n", ("y", "t"), False),
    ("arabic-indic-digit", "y,t\n٣,0\n2,1\n", None, False),
    ("fullwidth-digit", "y,t\n１,0\n2,1\n", None, False),
    # loadtxt reads the bytes as latin-1, so a non-ASCII character in the
    # body is never part of a number to it.  The loop reads such a cell as
    # ``float`` does: it strips a no-break space and reads "1٣" as 13.
    ("no-break-space", "y,t\n2.5\u00a0,0\n\u00a02,1\n", None, False),
    ("non-ascii-digit-referenced", "y,t,x\n1,0,1٣\n2,1,4\n", ("x", "y"), False),
    # A non-ASCII column name ("Ņ" is the bytes C5 85) sits in the header,
    # which loadtxt skips by line count.
    ("non-ascii-header", "yŅ,t\n1,0\n2,1\n", None, True),
    ("quoted-number", 'y,t\n"2.5",0\n2,1\n', None, False),
    ("blank-line-middle", "y,t\n1,0\n\n2,1\n", None, False),
    ("blank-line-end", "y,t\n1,0\n2,1\n\n", None, False),
    ("blank-line-crlf", "y,t\r\n1,0\r\n\r\n2,1\r\n", None, False),
    ("short-row", "y,t\n1,0\n3\n", None, False),
    ("short-row-subset", "y,t\n1,0\n3\n", ("y",), False),
    ("long-row", "y,t\n1,0\n1,2,5\n", None, False),
    ("long-row-subset", "y,t\n1,0\n1,2,5\n", ("y",), False),
    ("hash-in-cell", "y,t\n1,0\n3,1#5\n", None, False),
    ("hash-unreferenced", "y,t,x\n1,0,2\n3,1,#5\n", ("y", "t"), False),
    ("quoted-comma-unreferenced", 'y,t,x\n1,0,"a,b"\n2,1,c\n', ("y", "t"), False),
    ("quoted-newline-unreferenced", 'y,t,x\n1,0,"a\nb"\n2,1,c\n', ("y", "t"), False),
    ("lone-cr", "y,t\r1,0\r2,1\r", None, False),
    ("lone-cr-at-end", "y,t\n1,0\n2,1\r", None, True),
    # A lone CR ends a line for csv and loadtxt alike, yet not for a count of LFs.
    ("cr-before-crlf", "y,t\n1,2\r\r\n3,4\n", None, False),
    ("lone-cr-header", "y,t\r1,0\n\n2,1\n", None, False),
    ("only-blank-lines", "y,t\n\n\r\n", None, False),
    ("only-spaces", "y\n \n", None, False),
    # Excel's "CSV UTF-8" starts the file with a byte-order mark.
    ("bom", "\ufeffy,t\n1.5,0\n2.5,1\n", ("y", "t"), True),
    ("bom-NA", "\ufeffy,t\n1.5,0\nNA,1\n2.5,1\n", ("y", "t"), False),
    # A byte that is not UTF-8 is reported before any bad cell, wherever it is.
    ("bad-cell-then-bad-byte", b"y,t\n1,0\noops,1\n" + b"2,1\n" * 3000 + b"\xff,1\n",
     None, False),
    ("bad-byte-header", b"y\xff,t\n1,0\n", None, False),
    ("bad-byte-referenced", b"y,t\n1,0\n\xff,1\n", None, False),
    ("bad-byte-unreferenced", b"y,t,x\n1,0,a\n2,1,\xff\n", ("y", "t"), False),
    ("bom-bad-byte", b"\xef\xbb\xbfy,t\n1,0\n2,\xff\n", None, False),
    # Survey-shaped files: a missing value or an ID column is the loop's to read.
    ("fifty-rows-NA", fifty_rows("NA"), ("y", "t"), False),
    ("fifty-rows-nan", fifty_rows("nan"), ("y", "t"), False),
    ("fifty-rows-empty-cell", fifty_rows(""), ("y", "t"), False),
    ("fifty-rows-id-column", fifty_rows("9.5", id_column=True), ("y", "t"), False),
]


def _ingest_outcome(path, columns):
    """What ingest_csv gives: every column's bytes and strides plus the
    dropped count, or the error's type, row, column and message."""
    try:
        data, dropped = ingest_csv(path, columns)
    except CsvParseError as exc:
        return type(exc), exc.row, exc.column, str(exc)
    except DataError as exc:
        return type(exc), str(exc)
    return {name: (col.tobytes(), col.strides) for name, col in data.columns.items()}, dropped


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case, text, columns, one_pass", INGEST_CORPUS,
                         ids=[case[0] for case in INGEST_CORPUS])
def test_ingest_matches_the_per_cell_loop(tmp_path, monkeypatch, case, text, columns,
                                          one_pass):
    path = tmp_path / "d.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    passes = []
    clean_matrix = cli._clean_matrix

    def spy(*args):
        passes.append(clean_matrix(*args))
        return passes[-1]

    monkeypatch.setattr(cli, "_clean_matrix", spy)
    got = _ingest_outcome(str(path), columns)
    # A byte that is not UTF-8 anywhere stops ingest before the parse.
    assert any(matrix is not None for matrix in passes) == one_pass
    monkeypatch.setattr(cli, "_clean_matrix", lambda *args: None)
    assert got == _ingest_outcome(str(path), columns)


@pytest.mark.parametrize("cell", ["nan", "NaN", "-nan", "+nan", "-NaN", "+NAN", " -nan "])
def test_ingest_drops_every_nan_spelling(tmp_path, cell):
    path = write_csv(tmp_path / "d.csv", ["y", "t"], [["1.0", "0"], [cell, "1"]])
    data, dropped = ingest_csv(path)
    assert dropped == 1
    assert data.column("y").tolist() == [1.0]


@pytest.mark.parametrize("cell", ["-", "+", "-na", "nana"])
def test_ingest_does_not_read_a_bare_sign_as_missing(tmp_path, cell):
    path = write_csv(tmp_path / "d.csv", ["y", "t"], [["1.0", "0"], [cell, "1"]])
    with pytest.raises(CsvParseError) as excinfo:
        ingest_csv(path)
    assert (excinfo.value.row, excinfo.value.column) == (3, "y")
    assert f"cannot parse {cell!r}" in str(excinfo.value)


@pytest.mark.parametrize("raw, columns, line", [
    (b"y\xff,t\n1,0\n", None, 1),
    (b"\xef\xbb\xbfy\xff,t\n1,0\n", None, 1),
    (b"y,t\n1,0\n\xff,1\n", None, 3),
    (b"y,t,x\r\n1,0,a\r\n2,1,\xc3\r\n", ("y", "t"), 3),
    (b"y,t\r1,0\r2,\xff\r", None, 3),
    # A bad byte is reported before a bad cell, however far apart they are.
    (b"y,t\noops,1\n\xff,1\n", None, 3),
    (b"y,t\n1,0\noops,1\n" + b"2,1\n" * 3000 + b"\xff,1\n", None, 3004),
], ids=["header", "header-after-bom", "referenced", "unreferenced-crlf", "lone-cr",
        "after-a-bad-cell", "far-after-a-bad-cell"])
def test_ingest_names_the_line_of_an_undecodable_byte(tmp_path, raw, columns, line):
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    message = rf"row {line}, column '': cannot decode byte 0x[0-9a-f]{{2}} as UTF-8"
    with pytest.raises(CsvParseError, match=f"^{message}$") as excinfo:
        ingest_csv(str(path), columns)
    assert (excinfo.value.row, excinfo.value.column) == (line, "")


FUZZ_NUMBERS = ["0", "1", "-2.5", "+.5", "5.", "1e3", "2E-3", "007", "-0", "12345.678"]
FUZZ_MISSING = ["", "NA", "na", "nan", "NaN", "-nan", "+NAN"]
FUZZ_BAD = ["inf", "-inf", "1e999",  # not finite
            "abc", "e", "-", "p7",  # text
            '"3"', '"a,b"', '"x\ny"', "1#5", "#", "1_000", "0x10", "1d3",
            "\u0663", "\uff11", " 4 ", "\t5", "6\t", " "]
FUZZ_OTHER = FUZZ_MISSING + FUZZ_BAD


def fuzz_csv(gen):
    """One small CSV file's bytes, its header and the columns to read (None
    for all)."""
    header = ["a", "b", "c"][:int(gen.integers(1, 4))]
    dirty = gen.random() < 0.5  # the other half holds numbers only
    rows = []
    for _ in range(int(gen.integers(0, 6))):
        pool = FUZZ_OTHER if dirty and gen.random() < 0.3 else FUZZ_NUMBERS
        rows.append([pool[gen.integers(len(pool))] for _ in header])
    if dirty and rows and len(header) > 1 and gen.random() < 0.3:
        # A missing value and a bad cell in one row, in either order.
        row = rows[gen.integers(len(rows))]
        missing, bad = gen.permutation(len(header))[:2]
        row[missing] = FUZZ_MISSING[gen.integers(len(FUZZ_MISSING))]
        row[bad] = FUZZ_BAD[gen.integers(len(FUZZ_BAD))]
    if rows and gen.random() < 0.1:  # a ragged row
        row = rows[gen.integers(len(rows))]
        row.append("1") if gen.random() < 0.5 else row.pop()
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if gen.random() < 0.1:
        lines.insert(int(gen.integers(1, len(lines) + 1)), "")
    end = ("\n", "\r\n", "\r")[gen.choice(3, p=[0.6, 0.35, 0.05])]
    text = end.join(lines) + (end if gen.random() < 0.8 else "")
    raw = (("\ufeff" if gen.random() < 0.1 else "") + text).encode("utf-8")
    if gen.random() < 0.05:
        at = int(gen.integers(len(raw) + 1))
        raw = raw[:at] + b"\xff" + raw[at:]
    columns = (tuple(gen.permutation(header)[:gen.integers(1, len(header) + 1)])
               if gen.random() < 0.5 else None)
    return raw, header, columns


def test_fuzzed_files_read_as_the_per_cell_loop_reads_them(tmp_path, monkeypatch):
    gen = np.random.default_rng(20261019)
    path = tmp_path / "d.csv"
    clean_matrix = cli._clean_matrix
    one_pass = 0

    def spy(*args):
        nonlocal one_pass
        if loop_only:
            return None
        matrix = clean_matrix(*args)
        one_pass += matrix is not None
        return matrix

    monkeypatch.setattr(cli, "_clean_matrix", spy)
    for _ in range(1000):
        raw, header, columns = fuzz_csv(gen)
        path.write_bytes(raw)
        loop_only = False
        got = _ingest_outcome(str(path), columns)
        loop_only = True
        assert got == _ingest_outcome(str(path), columns), (raw, columns)
        # The file alone decides: the order of the referenced columns changes
        # nothing but the column list that a DataError's message repeats.
        backwards = _ingest_outcome(str(path), (columns or header)[::-1])
        assert got == backwards or got[0] is backwards[0] is DataError, (raw, columns)
    assert 300 < one_pass < 700  # both paths get a fair share of the files


def traced_ingest(path):
    """``ingest_csv(path)``'s data and dropped count, and the peak of the
    memory traced while it ran."""
    tracemalloc.start()
    try:
        data, dropped = ingest_csv(str(path))
        return data, dropped, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_of_a_clean_file_holds_little_beyond_its_bytes_and_columns(tmp_path):
    # The file's bytes, the parsed matrix and the columns taken from it;
    # no decoded copy of the body.
    values = np.random.default_rng(7).normal(size=(20_000, 5))
    path = tmp_path / "d.csv"
    np.savetxt(path, values, fmt="%.6f", delimiter=",", header="a,b,c,d,e", comments="")
    data, dropped, peak = traced_ingest(path)
    assert data.n_rows == 20_000 and dropped == 0
    assert peak < 2.5 * (path.stat().st_size + values.nbytes)


def test_ingest_of_a_dirty_file_holds_little_beyond_its_bytes_and_columns(tmp_path):
    # The per-cell loop keeps the cells of the rows it keeps in one float
    # buffer, which becomes the matrix, not in a Python list per row.
    values = np.random.default_rng(7).normal(size=(20_000, 5))
    path = tmp_path / "d.csv"
    np.savetxt(path, values, fmt="%.6f", delimiter=",", header="a,b,c,d,e", comments="")
    lines = path.read_text().splitlines(keepends=True)
    for i in range(1, len(lines), 50):  # the first cell of every 50th row
        lines[i] = "NA" + lines[i][lines[i].index(","):]
    path.write_text("".join(lines))
    data, dropped, peak = traced_ingest(path)
    assert data.n_rows == 19_600 and dropped == 400
    assert peak < 2.5 * (path.stat().st_size + data.n_rows * 5 * 8)


def fresh_python(code, cwd=None):
    """Stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(funcavg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                            capture_output=True, text=True, check=True)
    return result.stdout


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.linalg", "scipy.special"])
def test_cli_import_leaves_scipy_stats_out(module):
    # The package alone, then the CLI on top of it.
    probe = (f"import sys, funcavg; print({module!r} in sys.modules)\n"
             f"import funcavg.cli; print({module!r} in sys.modules)")
    assert fresh_python(probe).splitlines()[-2:] == ["False", "False"]


# Only a command that builds a t interval or draws a truncated normal loads
# ``scipy.special``; the last two cases show the probe sees it when it does.
@pytest.mark.parametrize("argv, loads", [
    (["estimate", "d.csv", "--outcome", "y", "--treatment", "t", "--method", "Av"], False),
    (["estimate", "d.csv", "--outcome", "y", "--treatment", "t", "--covariates", "x",
      "--method", "S", "--b", "20"], False),
    (["estimate", "d.csv", "--outcome", "y", "--treatment", "t", "--covariates", "x",
      "--method", "PS", "--b", "20"], False),
    (["diagnose", "d.csv", "--outcome", "y", "--treatment", "t", "--covariates", "x"],
     False),
    (["--help"], False),
    (["estimate", "d.csv", "--outcome", "y", "--treatment", "t", "--covariates", "x",
      "--method", "MR"], True),
    (["simulate", "--table", "2", "--m", "1", "--b", "20"], True),
], ids=["Av", "S", "PS", "diagnose", "help", "MR", "simulate"])
def test_only_commands_that_use_scipy_special_load_it(tmp_path, argv, loads):
    two_arm_csv(tmp_path / "d.csv")
    probe = ("import sys\nfrom funcavg.cli import main\n"
             f"assert main({argv!r}, standalone_mode=False) in (0, None)\n"
             "print('scipy.special' in sys.modules)")
    assert fresh_python(probe, cwd=tmp_path).splitlines()[-1] == str(loads)


# Exit codes.


def test_unknown_method_is_a_usage_error(tmp_path):
    path = two_arm_csv(tmp_path / "d.csv")
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--method", "bogus"])
    assert result.exit_code == 2
    assert "unknown method 'bogus'" in result.stderr


def test_method_names_are_case_insensitive(tmp_path):
    path = two_arm_csv(tmp_path / "d.csv")
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--method", "lr", "--method", "AV", "--seed", "0"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    # Row tokens: the 4-token parameter phrase, method, estimate, then
    # the interval's two halves.
    assert [line.split()[-4] for line in lines[2:]] == ["LR", "Av"]


def test_simulate_requires_table():
    result = CliRunner().invoke(main, ["simulate"])
    assert result.exit_code == 2


def test_simulate_rejects_out_of_range_table():
    result = CliRunner().invoke(main, ["simulate", "--table", "9"])
    assert result.exit_code == 2


def test_mr_without_covariates_is_a_usage_error(tmp_path):
    path = two_arm_csv(tmp_path / "d.csv")
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--method", "MR"])
    assert result.exit_code == 2
    assert "needs --covariates" in result.stderr


def test_data_faults_exit_one(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t"],
                     [["1.0", "0"], ["abc", "1"]])
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t"])
    assert result.exit_code == 1
    assert result.stderr.splitlines()[-1].startswith("error: row 3")


def test_single_arm_data_exits_one(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t"],
                     [["1.0", "1"], ["2.0", "1"], ["3.0", "1"]])
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--method", "Av"])
    assert result.exit_code == 1
    assert result.stderr.rstrip().splitlines()[-1].startswith("error:")


# Seed resolution.


def test_env_seed_is_used_and_flag_wins(tmp_path):
    path = two_arm_csv(tmp_path / "d.csv")
    args = ["estimate", path, "--outcome", "y", "--treatment", "t",
            "--method", "LR"]
    runner = CliRunner()
    by_env = runner.invoke(main, args, env={"FUNCAVG_SEED": "7"})
    assert by_env.exit_code == 0
    assert "seed: 7" in by_env.stderr
    by_flag = runner.invoke(main, args + ["--seed", "3"],
                            env={"FUNCAVG_SEED": "7"})
    assert "seed: 3" in by_flag.stderr
    default = runner.invoke(main, args)
    assert "seed: 0" in default.stderr


def test_env_seed_matches_flag_seed_exactly(tmp_path):
    path = two_arm_csv(tmp_path / "d.csv")
    args = ["estimate", path, "--outcome", "y", "--treatment", "t",
            "--method", "Av", "--b", "60"]
    runner = CliRunner()
    by_env = runner.invoke(main, args, env={"FUNCAVG_SEED": "13"})
    by_flag = runner.invoke(main, args + ["--seed", "13"])
    assert by_env.exit_code == by_flag.exit_code == 0
    assert by_env.stdout == by_flag.stdout


def test_malformed_env_seed_is_a_usage_error(tmp_path):
    path = two_arm_csv(tmp_path / "d.csv")
    result = CliRunner().invoke(
        main, ["estimate", path, "--outcome", "y", "--treatment", "t"],
        env={"FUNCAVG_SEED": "soon"})
    assert result.exit_code == 2
    assert "FUNCAVG_SEED" in result.stderr


# Out-of-range flag values are usage errors, rejected before any work.


def four_row_csv(path):
    return write_csv(path, ["y", "t"],
                     [["1.0", "0"], ["2.0", "1"], ["3.0", "0"], ["4.0", "1"]])


@pytest.mark.parametrize("flags", [
    ["--b", "0"], ["--b", "1"], ["--alpha", "2"], ["--alpha", "0"], ["--alpha", "nan"],
    ["--seed", "-1"],
], ids=["b", "b-one", "alpha-above", "alpha-zero", "alpha-nan", "seed"])
def test_out_of_range_estimate_flags_are_usage_errors(tmp_path, flags):
    path = four_row_csv(tmp_path / "d.csv")
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--method", "Av", *flags])
    assert result.exit_code == 2
    assert flags[0] in result.stderr
    assert "seed:" not in result.stderr  # nothing ran


@pytest.mark.parametrize("flags", [
    ["--b", "0"], ["--b", "1"], ["--m", "0"], ["--alpha", "2"], ["--alpha", "nan"],
    ["--seed", "-1"],
], ids=["b", "b-one", "m", "alpha", "alpha-nan", "seed"])
def test_out_of_range_simulate_flags_are_usage_errors(flags):
    result = CliRunner().invoke(main, ["simulate", "--table", "2", *flags])
    assert result.exit_code == 2
    assert "seed:" not in result.stderr


@pytest.mark.parametrize("command, flags, message", [
    ("estimate", ["--method", "MR"], "method MR needs --covariates"),
    ("estimate", ["--covariates", "y", "--method", "MR"], "column 'y' is named twice"),
    ("estimate", ["--covariates", "y", "--method", "S"], "column 'y' is named twice"),
    ("estimate", ["--covariates", "t"], "column 't' is named twice"),
    ("estimate", ["--covariates", "x,x"], "column 'x' is named twice"),
    ("estimate", ["--treatment", "y", "--method", "LR"], "column 'y' is named twice"),
    ("diagnose", ["--covariates", "y"], "column 'y' is named twice"),
], ids=["MR-without-covariates", "MR-outcome-as-covariate", "S-outcome-as-covariate",
        "treatment-as-covariate", "covariate-twice", "outcome-as-treatment",
        "diagnose-outcome-as-covariate"])
def test_method_flag_faults_are_usage_errors_before_ingest(tmp_path, command, flags,
                                                           message):
    # Ingesting this file fails with exit 1 at its bad cell, so exit 2
    # shows that the flags were checked first.  A later --treatment wins.
    path = write_csv(tmp_path / "d.csv", ["y", "t", "x"],
                     [["1.0", "0", "0.5"], ["oops", "1", "0.2"]])
    result = CliRunner().invoke(main, [
        command, path, "--outcome", "y", "--treatment", "t", *flags])
    assert result.exit_code == 2
    assert message in result.stderr
    assert "seed:" not in result.stderr


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_negative_env_seed_is_a_usage_error(tmp_path, command):
    args = (["estimate", four_row_csv(tmp_path / "d.csv"), "--outcome", "y",
             "--treatment", "t"] if command == "estimate"
            else ["simulate", "--table", "2", "--m", "1", "--b", "2"])
    result = CliRunner().invoke(main, args, env={"FUNCAVG_SEED": "-2"})
    assert result.exit_code == 2
    assert "FUNCAVG_SEED" in result.stderr


def _command_args(command, path):
    if command == "simulate":
        return ["simulate", "--table", "2", "--m", "1", "--b", "2"]
    return [command, path, "--outcome", "y", "--treatment", "t"]


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_undecodable_bytes_exit_one(tmp_path, command):
    path = tmp_path / "d.csv"
    path.write_bytes(b"y,t\n1,0\n2,1\n3,\xe9\n")  # Latin-1, not UTF-8
    result = CliRunner().invoke(main, _command_args(command, str(path)))
    assert result.exit_code == 1
    assert result.stderr.splitlines()[-1] == (
        "error: row 4, column '': cannot decode byte 0xe9 as UTF-8")


@pytest.mark.parametrize("command", ["estimate", "simulate", "diagnose"])
def test_out_in_a_missing_directory_is_a_usage_error(tmp_path, monkeypatch, command):
    # The bad cell would fail ingest with exit 1, so exit 2 and no seed
    # echo show that the prefix was refused before any work.  A prefix
    # with no file name would write hidden files such as ``.csv`` or ``..csv``.
    monkeypatch.chdir(tmp_path)
    path = write_csv(tmp_path / "d.csv", ["y", "t"], [["1.0", "0"], ["oops", "1"]])
    cases = [(str(tmp_path / "missing" / "out"), "does not exist"),
             ("", "names no file"), (f"{tmp_path}{os.sep}", "names no file"),
             (".", "names no file")]
    for prefix, message in cases:
        result = CliRunner().invoke(main, [*_command_args(command, path), "--out", prefix])
        assert result.exit_code == 2
        assert message in result.stderr
        assert "seed:" not in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


@pytest.mark.parametrize("command", ["estimate", "simulate", "diagnose"])
def test_unwritable_output_exits_one(tmp_path, command):
    path = two_arm_csv(tmp_path / "d.csv")
    (tmp_path / "out.txt").mkdir()  # every command writes {out}.txt
    result = CliRunner().invoke(main, [*_command_args(command, path), "--out",
                                       str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.stderr.splitlines()[-1].startswith("error: ")
    assert "out.txt" in result.stderr


# estimate output.


def test_estimate_csv_matches_direct_library_call(tmp_path):
    # The CLI keys each method's stream by its fixed position in
    # METHOD_NAMES, so a direct library call with the same child stream
    # must reproduce the file to the last bit.
    path = two_arm_csv(tmp_path / "d.csv", seed=9)
    out = str(tmp_path / "est")
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--method", "Av", "--b", "80", "--seed", "13", "--out", out])
    assert result.exit_code == 0

    data, _ = ingest_csv(path, ("y", "t"))
    arms = TwoArmSample.from_labels(data.column("y"), data.column("t"))
    stream = RngStream(13).child(METHOD_NAMES.index("Av"))
    expected = hoeffding_ci(resample(arms, BootstrapConfig(80, stream), midrange), 0.05)

    with open(out + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["parameter", "method", "estimate", "lower", "upper",
                       "alpha", "interval_method"]
    [record] = rows[1:]
    assert record[0] == "y: t=1 vs t=0"
    assert record[1] == "Av"
    assert float(record[2]) == expected.point
    assert float(record[3]) == expected.lower
    assert float(record[4]) == expected.upper
    assert record[6] == expected.method


def test_estimate_av_bytes_match_pinned_digest(tmp_path):
    # sha256 of the written CSV then TXT, taken with numpy 2.4.6 and scipy
    # 1.17.1; pins the Av bootstrap's bytes across commits.
    path = two_arm_csv(tmp_path / "d.csv", seed=9)
    out = str(tmp_path / "est")
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--method", "Av", "--b", "80", "--seed", "13", "--out", out])
    assert result.exit_code == 0
    with open(out + ".csv", "rb") as fh_csv, open(out + ".txt", "rb") as fh_txt:
        body = fh_csv.read() + fh_txt.read()
    assert hashlib.sha256(body).hexdigest() == \
        "97625ba8ad7db18e888f764a8aa6f8a88569639daad2f732e1c449f717e51cf7"


@pytest.mark.parametrize("method, digest", [
    ("LR", "7a74f5b018d89d7695b5595d3e6ce906141ce99a873378f2620d45ce781c7f21"),
    ("MR", "26aad99ec935bb4a2ba597302d5637d27d787bd68dcde672d4617535f357101e"),
    ("S", "c0877bf41a37fb39b77646528e68394491431bcbecdd9307513673d11aa848a5"),
    ("PS", "3a41a750c655d8426c8ef44cc7880c5b46a9f529e17106bfda3842c868979de1"),
], ids=["LR", "MR", "S", "PS"])  # named by method, so a re-pin keeps the test ids
def test_estimate_refit_bytes_match_pinned_digest(tmp_path, method, digest):
    # As the Av digest above, for the methods that fit a model: LR and MR
    # once, PS on every bootstrap replicate, and S once plus one weighted
    # solve per replicate.
    path = two_arm_csv(tmp_path / "d.csv", seed=9)
    out = str(tmp_path / "est")
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--covariates", "x", "--method", method, "--b", "80", "--seed", "13",
        "--out", out])
    assert result.exit_code == 0
    with open(out + ".csv", "rb") as fh_csv, open(out + ".txt", "rb") as fh_txt:
        body = fh_csv.read() + fh_txt.read()
    assert hashlib.sha256(body).hexdigest() == digest


def test_estimate_streams_do_not_shift_when_methods_are_added(tmp_path):
    path = two_arm_csv(tmp_path / "d.csv", seed=9)
    runner = CliRunner()
    args = ["estimate", path, "--outcome", "y", "--treatment", "t",
            "--covariates", "x", "--b", "60", "--seed", "2"]
    solo = runner.invoke(main, args + ["--method", "Av"])
    both = runner.invoke(main, args + ["--method", "S", "--method", "Av"])
    assert solo.exit_code == both.exit_code == 0
    av_line = solo.stdout.splitlines()[-1]
    assert av_line in both.stdout.splitlines()


def test_mr_recovers_exact_coefficient_without_noise(tmp_path):
    rng = np.random.default_rng(3)
    t = np.tile([0.0, 1.0], 30)
    x = rng.normal(size=60)
    y = 2.0 + 3.0 * t + 0.5 * x  # exact linear signal
    path = write_csv(tmp_path / "d.csv", ["y", "t", "x"],
                     [[repr(float(a)), f"{b:g}", repr(float(c))]
                      for a, b, c in zip(y, t, x)])
    out = str(tmp_path / "fit")
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--covariates", "x", "--method", "MR", "--out", out])
    assert result.exit_code == 0
    with open(out + ".csv", newline="") as fh:
        [_, record] = list(csv.reader(fh))
    assert float(record[2]) == pytest.approx(3.0, abs=1e-9)
    assert float(record[4]) - float(record[3]) < 1e-7


def test_estimate_reports_dropped_rows(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t", "x"],
                     [["1.0", "0", "1.0"], ["2.0", "1", "4.0"],
                      ["", "1", "2.0"], ["3.0", "0", "2.5"],
                      ["4.0", "1", "0.5"]])
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--covariates", "x", "--method", "LR"])
    assert result.exit_code == 0
    assert "dropped 1 incomplete rows" in result.stderr


def scale_column(path, out, name, factor):
    """Copy a CSV with column ``name`` multiplied by ``factor``, written
    with ``repr``; a power-of-two factor makes the copy an exact rescale."""
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    j = records[0].index(name)
    for record in records[1:]:
        record[j] = repr(float(record[j]) * factor)
    return write_csv(out, records[0], records[1:])


@pytest.mark.parametrize("moved, n", [("shifted", 80), ("scaled", 2000)])
def test_estimates_do_not_move_when_a_covariate_is_moved(tmp_path, moved, n):
    # Every model here is an intercept plus main effects, so an affine map
    # of a covariate moves only its coefficients: the OLS contrasts and the
    # fitted propensities stay put, and so does every estimate.
    base = two_arm_csv(tmp_path / "base.csv", seed=9, n=n)
    if moved == "shifted":
        other = two_arm_csv(tmp_path / "other.csv", seed=9, n=n, x_shift=1e6)
    else:
        other = scale_column(base, tmp_path / "other.csv", "x", 2.0 ** 20)
    runner = CliRunner()
    estimates, residual_lines = [], []
    for path in (base, other):
        out = str(tmp_path / f"est-{Path(path).stem}")
        result = runner.invoke(main, [
            "estimate", path, "--outcome", "y", "--treatment", "t",
            "--covariates", "x", "--method", "MR", "--method", "S",
            "--method", "PS", "--b", "50", "--seed", "3", "--out", out])
        assert result.exit_code == 0, result.stderr
        with open(out + ".csv", newline="") as fh:
            estimates.append([[float(v) for v in record[2:5]]
                              for record in list(csv.reader(fh))[1:]])
        result = runner.invoke(main, [
            "diagnose", path, "--treatment", "t", "--outcome", "y",
            "--covariates", "x"])
        assert result.exit_code == 0, result.stderr
        residual_lines.append(result.stdout.splitlines()[-1])
    np.testing.assert_allclose(estimates[1], estimates[0], rtol=1e-9, atol=0)
    assert residual_lines[1] == residual_lines[0]


@pytest.mark.parametrize("outcome, treatment", [("stratum_2", "t"), ("y", "stratum_3")])
def test_ps_keeps_its_stratum_columns_apart_from_the_data(tmp_path, outcome, treatment):
    # PS adds a 0/1 column per propensity stratum; a data column whose name
    # such a column would take is still read as the data.
    base = two_arm_csv(tmp_path / "base.csv", seed=9)
    with open(base, newline="") as fh:
        records = list(csv.reader(fh))
    renamed = write_csv(tmp_path / "renamed.csv", [outcome, treatment, "x"], records[1:])
    runner = CliRunner()
    estimates = []
    for path, names in ((base, ("y", "t")), (renamed, (outcome, treatment))):
        out = str(tmp_path / f"est-{Path(path).stem}")
        result = runner.invoke(main, [
            "estimate", path, "--outcome", names[0], "--treatment", names[1],
            "--covariates", "x", "--method", "PS", "--b", "50", "--seed", "3",
            "--out", out])
        assert result.exit_code == 0, result.stderr
        with open(out + ".csv", newline="") as fh:
            estimates.append(list(csv.reader(fh))[1][1:])
    assert estimates[1] == estimates[0]


# simulate output.


def test_simulate_runs_are_byte_identical(tmp_path):
    runner = CliRunner()
    produced = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        result = runner.invoke(main, [
            "simulate", "--table", "6", "--m", "4", "--b", "30",
            "--seed", "9", "--out", out])
        assert result.exit_code == 0
        assert f"wrote {out}.csv and {out}.txt" in result.stderr
        with open(out + ".csv", "rb") as fh:
            csv_bytes = fh.read()
        with open(out + ".txt", "rb") as fh:
            text_bytes = fh.read()
        produced.append((csv_bytes, text_bytes, result.stdout))
    assert produced[0] == produced[1]

    other = runner.invoke(main, [
        "simulate", "--table", "6", "--m", "4", "--b", "30", "--seed", "10"])
    assert other.stdout != produced[0][2]


def test_simulate_iteration_alias(tmp_path):
    runner = CliRunner()
    long_form = runner.invoke(main, [
        "simulate", "--table", "6", "--m-iterations", "3", "--b", "25",
        "--seed", "1"])
    short_form = runner.invoke(main, [
        "simulate", "--table", "6", "--m", "3", "--b", "25", "--seed", "1"])
    assert long_form.exit_code == short_form.exit_code == 0
    assert long_form.stdout == short_form.stdout
    assert "iterations=3" in long_form.stdout


# diagnose output.


def test_diagnose_reports_per_group_shape(tmp_path):
    rng = np.random.default_rng(11)
    t = np.repeat([0.0, 1.0], 40)
    y = np.where(t == 1, rng.uniform(5, 9, size=80), rng.uniform(0, 4, size=80))
    path = write_csv(tmp_path / "d.csv", ["y", "t"],
                     [[repr(float(a)), f"{b:g}"] for a, b in zip(y, t)])
    out = str(tmp_path / "diag")
    result = CliRunner().invoke(main, [
        "diagnose", path, "--treatment", "t", "--outcome", "y",
        "--out", out])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["group", "n", "gap", "gap/range",
                                "mean-midrange", "area-below", "area-above"]
    assert [line.split()[0] for line in lines[2:]] == ["0", "1"]
    assert [line.split()[1] for line in lines[2:]] == ["40", "40"]
    with open(out + ".txt") as fh:
        assert fh.read() == result.stdout
    for label in ("0", "1"):
        with open(f"{out}_ecdf_{label}.csv", newline="") as fh:
            points = list(csv.reader(fh))
        assert points[0] == ["value", "cumulative_fraction"]
        assert len(points) == 41  # one per distinct sample value
        assert float(points[-1][1]) == 1.0


def test_diagnose_bytes_match_pinned_digest(tmp_path):
    # sha256 of the TXT, then the group 0 and group 1 ECDF CSVs, taken
    # with numpy 2.4.6 and scipy 1.17.1.
    path = two_arm_csv(tmp_path / "d.csv", seed=9)
    result = CliRunner().invoke(main, [
        "diagnose", path, "--treatment", "t", "--outcome", "y",
        "--covariates", "x", "--out", str(tmp_path / "diag")])
    assert result.exit_code == 0
    body = b"".join((tmp_path / name).read_bytes()
                    for name in ("diag.txt", "diag_ecdf_0.csv", "diag_ecdf_1.csv"))
    assert hashlib.sha256(body).hexdigest() == \
        "b192e3b8932ce4cde08fdfe3b93d01b82c50e675fb62b062a838de50792c4ef6"


def test_diagnose_is_translation_invariant(tmp_path):
    # Outcomes on a 1/8 grid stay exact in float after a shift by 1e13, so
    # every gauge, a difference or a spread, must print the same digits.
    rng = np.random.default_rng(29)
    t = rng.integers(0, 2, size=1001)
    y = np.floor(rng.beta(2.0, 5.0, size=t.size) * 80.0 + 8.0 * t) / 8.0
    gauges = []
    for offset in (0.0, 1e13):
        path = write_csv(tmp_path / f"d{offset:g}.csv", ["y", "t"],
                         [[repr(float(a + offset)), str(b)] for a, b in zip(y, t)])
        result = CliRunner().invoke(main, [
            "diagnose", path, "--treatment", "t", "--outcome", "y"])
        assert result.exit_code == 0
        gauges.append([line.split()[2:] for line in result.stdout.splitlines()[2:]])
    assert len(gauges[0]) == 2
    assert gauges[1] == gauges[0]


def test_diagnose_table_builds_no_ecdf(tmp_path, monkeypatch):
    path = write_csv(tmp_path / "d.csv", ["y", "t"],
                     [["1.0", "0"], ["2.0", "0"], ["4.0", "0"],
                      ["7.0", "1"], ["7.5", "2"], ["9.0", "2"]])
    argv = ["diagnose", path, "--treatment", "t", "--outcome", "y"]
    plain = CliRunner().invoke(main, argv)
    assert plain.exit_code == 0

    def refuse(sample):
        raise AssertionError("the table built an ECDF")

    monkeypatch.setattr(cli, "ecdf", refuse)
    patched = CliRunner().invoke(main, argv)
    assert patched.exit_code == 0
    assert patched.stdout == plain.stdout

    calls = []

    def counted(sample):
        calls.append(sample)
        return ecdf(sample)

    monkeypatch.setattr(cli, "ecdf", counted)
    written = CliRunner().invoke(main, argv + ["--out", str(tmp_path / "diag")])
    assert written.exit_code == 0
    assert written.stdout == plain.stdout
    assert [c.tolist() for c in calls] == [[1.0, 2.0, 4.0], [7.5, 9.0]]


def test_diagnose_keeps_close_groups_apart(tmp_path):
    # Both values print as 0.123456 under %g, which once merged their
    # labels and let the second ECDF file overwrite the first.
    rows = [[repr(float(y)), g] for g in ("0.1234561", "0.1234562") for y in range(3)]
    path = write_csv(tmp_path / "d.csv", ["y", "t"], rows)
    out = tmp_path / "diag"
    result = CliRunner().invoke(main, [
        "diagnose", path, "--treatment", "t", "--outcome", "y", "--out", str(out)])
    assert result.exit_code == 0
    assert [line.split()[0] for line in result.stdout.splitlines()[2:]] == \
        ["0.1234561", "0.1234562"]
    assert sorted(p.name for p in tmp_path.glob("diag_ecdf_*.csv")) == \
        ["diag_ecdf_0.1234561.csv", "diag_ecdf_0.1234562.csv"]


def test_diagnose_warns_on_degenerate_groups(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t"],
                     [["1.0", "0"], ["2.0", "0"], ["3.0", "0"],
                      ["7.0", "1"]])
    result = CliRunner().invoke(main, [
        "diagnose", path, "--treatment", "t", "--outcome", "y"])
    assert result.exit_code == 0
    assert "warning: group t=1 has no spread; skipped" in result.stderr
    assert [line.split()[0] for line in result.stdout.splitlines()[2:]] == ["0"]


def test_diagnose_rejects_too_many_groups(tmp_path):
    rows = [[repr(float(i)), repr(float(i))] for i in range(12)]
    path = write_csv(tmp_path / "d.csv", ["y", "g"], rows)
    result = CliRunner().invoke(main, [
        "diagnose", path, "--treatment", "g", "--outcome", "y"])
    assert result.exit_code == 1
    assert "distinct values" in result.stderr


def test_diagnose_rejects_an_exact_fit(tmp_path):
    # Residuals of y = 2x + 1 are rounding noise; an asymmetry of them
    # would describe nothing.
    x = np.random.default_rng(6).normal(size=300)
    path = write_csv(tmp_path / "d.csv", ["y", "t", "x"],
                     [[repr(float(2.0 * xi + 1.0)), str(i % 2), repr(float(xi))]
                      for i, xi in enumerate(x)])
    result = CliRunner().invoke(main, [
        "diagnose", path, "--treatment", "t", "--outcome", "y",
        "--covariates", "x"])
    assert result.exit_code == 1
    assert "fitted exactly" in result.stderr
    assert "residual support" not in result.stdout


def test_diagnose_covariates_add_residual_line(tmp_path):
    path = two_arm_csv(tmp_path / "d.csv")
    result = CliRunner().invoke(main, [
        "diagnose", path, "--treatment", "t", "--outcome", "y",
        "--covariates", "x"])
    assert result.exit_code == 0
    assert "residual support: max " in result.stdout.splitlines()[-1]
