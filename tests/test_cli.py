import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import funcavg
from funcavg import cli
from funcavg.bootstrap import BootstrapConfig, hoeffding_ci, resample
from funcavg.cli import METHOD_NAMES, center_continuous, ingest_csv, main
from funcavg.errors import CsvParseError, DataError, SchemaError
from funcavg.estimators import TwoArmSample, midrange
from funcavg.rng import RngStream


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def two_arm_csv(path, seed=4, n=80):
    rng = np.random.default_rng(seed)
    t = (rng.uniform(size=n) < 0.5).astype(float)
    x = rng.normal(size=n)
    y = 5.0 + 3.0 * t + 1.5 * x + rng.normal(scale=0.7, size=n)
    return write_csv(path, ["y", "t", "x"],
                     [[f"{yi:.6f}", f"{ti:g}", f"{xi:.6f}"]
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
    ("only-blank-lines", "y,t\n\n\r\n", None, False),
    ("only-spaces", "y\n \n", None, False),
    # The bad cell comes before the first undecodable byte, as the loop reads.
    ("bad-cell-then-bad-byte", b"y,t\n1,0\noops,1\n" + b"2,1\n" * 3000 + b"\xff,1\n",
     None, False),
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
    assert (passes[0] is not None) == one_pass
    monkeypatch.setattr(cli, "_clean_matrix", lambda *args: None)
    assert got == _ingest_outcome(str(path), columns)


@pytest.mark.parametrize("last_y, id_column",
                         [("NA", False), ("nan", False), ("", False), ("9.5", True)])
def test_missing_values_and_id_columns_skip_the_one_pass(tmp_path, monkeypatch, last_y,
                                                         id_column):
    # These files are the loop's to read, so a loadtxt pass before it is waste.
    header = ["y", "t"] + (["id"] if id_column else [])
    rows = [[f"{i}.5", str(i % 2)] + ([f"p{i}"] if id_column else []) for i in range(50)]
    rows[-2][0] = last_y
    path = write_csv(tmp_path / "d.csv", header, rows)
    monkeypatch.setattr(cli.np, "loadtxt", None)  # calling it raises TypeError
    data, dropped = ingest_csv(path, ("y", "t"))
    assert (len(data.column("y")), dropped) == ((50, 0) if id_column else (49, 1))


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


def test_cli_import_leaves_scipy_stats_out():
    src = str(Path(funcavg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, funcavg.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_center_continuous_skips_binary_columns():
    from funcavg.dataset import Dataset

    data = Dataset({"t": np.array([0.0, 1.0, 1.0, 0.0]),
                    "x": np.array([1.0, 2.0, 3.0, 6.0])})
    centered, names = center_continuous(data, ("t", "x"))
    assert names == ["x"]
    assert centered.column("t").tolist() == [0.0, 1.0, 1.0, 0.0]
    assert centered.column("x").mean() == pytest.approx(0.0, abs=1e-12)


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


@pytest.mark.parametrize("flags, message", [
    (["--method", "MR"], "method MR needs --covariates"),
], ids=["MR-without-covariates"])
def test_method_flag_faults_are_usage_errors_before_ingest(tmp_path, flags, message):
    # Ingesting this file fails with exit 1 at its bad cell, so exit 2
    # shows that the flags were checked first.
    path = write_csv(tmp_path / "d.csv", ["y", "t", "x"],
                     [["1.0", "0", "0.5"], ["oops", "1", "0.2"]])
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t", *flags])
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
    paired = np.column_stack([data.column("y"), data.column("t")])

    def contrast(rows):
        arms = TwoArmSample.from_labels(rows[:, 0], rows[:, 1])
        return midrange(arms.treated) - midrange(arms.control)

    stream = RngStream(13).child(METHOD_NAMES.index("Av"))
    expected = hoeffding_ci(
        resample(paired, BootstrapConfig(80, stream), contrast), 0.05)

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
        "386487114451fca02b889c536b847e5283d2200748c019e7e83de14f7458dcec"


@pytest.mark.parametrize("method, digest", [
    ("LR", "09e00af41268644724be16f2a74c8d3bb935f0282534648bbaf8b64b104c4d73"),
    ("MR", "c876cf02ba87fa8040544728c336cfa9058b00dcc1f9f1f325eebb3d0563e84e"),
    ("S", "774057f19a3b299b513feea1a4a47b85673e0dad722995675e30b00efafc7e4e"),
    ("PS", "b7a19e161247a7c757ca19da5d693c61b4a5c23fd496ef7dd20c1e29d1ce6a1b"),
])
def test_estimate_refit_bytes_match_pinned_digest(tmp_path, method, digest):
    # As the Av digest above, for the methods that fit a model: LR and MR
    # once, S and PS on every bootstrap replicate.
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


def test_estimate_reports_dropped_and_centered(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["y", "t", "x"],
                     [["1.0", "0", "1.0"], ["2.0", "1", "4.0"],
                      ["", "1", "2.0"], ["3.0", "0", "2.5"],
                      ["4.0", "1", "0.5"]])
    result = CliRunner().invoke(main, [
        "estimate", path, "--outcome", "y", "--treatment", "t",
        "--covariates", "x", "--center", "--method", "LR"])
    assert result.exit_code == 0
    assert "dropped 1 incomplete rows" in result.stderr
    assert "centered: x" in result.stderr


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


def test_diagnose_covariates_add_residual_line(tmp_path):
    path = two_arm_csv(tmp_path / "d.csv")
    result = CliRunner().invoke(main, [
        "diagnose", path, "--treatment", "t", "--outcome", "y",
        "--covariates", "x"])
    assert result.exit_code == 0
    assert "residual support: max " in result.stdout.splitlines()[-1]
