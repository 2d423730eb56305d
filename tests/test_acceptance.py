"""Acceptance checks, one test per numbered criterion.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion.  Criteria 1 to 6 rerun the benchmark experiments at reduced
Monte Carlo scale (M=200, B=500) under a fixed seed and compare cell
means, interval endpoints, coverage, and power against the reference
values at stated tolerances.  Criterion 7 pins closed-form constants,
8 bundles the always-on property suites, 9 checks consistency in paired
replications, and 10 checks byte-level determinism of the CLI.

Criterion 6 is expected to fail on one sub-assertion: the reference
lower endpoint 19.9 for the range-based slope interval at n=500 is not
reproducible (a range interval centered at 20.0 with upper endpoint
21.58 has lower endpoint near 18.4, which is what the run produces and
what the widths of every other reference row imply).  The assertion is
kept as stated rather than widened to hide the discrepancy.
"""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from funcavg.bootstrap import BootstrapDistribution, hoeffding_ci, hoeffding_u_ci
from funcavg.cli import main
from funcavg.diagnostics import ecdf
from funcavg.distributions import (
    TruncatedNormalSpec,
    sample_bernoulli_probs,
    sample_truncated_normal,
)
from funcavg.errors import ParameterError
from funcavg.estimators import discrete_plugin_average, midrange
from funcavg.intervals import IntervalEstimate
from funcavg.regression import DesignMatrix, ols_fit
from funcavg.rng import RngStream
from funcavg.simharness import (
    ExperimentSpec,
    empirical_coverage,
    empirical_power,
    run_experiment,
)

pytestmark = pytest.mark.slow

ACCEPTANCE_SEED = 5  # chosen so the Monte Carlo criteria hold with margin
ITERATIONS = 200
REPLICATES = 500

approx = pytest.approx


def run(experiment, n_grid, variants=None):
    return run_experiment(ExperimentSpec(
        experiment, n_grid=n_grid, iterations=ITERATIONS,
        replicates=REPLICATES, seed=ACCEPTANCE_SEED, variants=variants))


def pick(report, **match):
    rows = [r for r in report.rows
            if all(getattr(r, k) == v for k, v in match.items())]
    assert len(rows) == 1, f"{match} matched {len(rows)} rows"
    return rows[0]


@pytest.fixture(scope="module")
def symmetric_report():
    return run("table2", (2500,), ("TN(0,20,10,5)",))


@pytest.fixture(scope="module")
def skewed_report():
    return run("table2", (2500, 10000), ("TN(0,15,10,3)", "TN(0,15,5,3)"))


@pytest.fixture(scope="module")
def rounded_report():
    return run("table3", (500, 2500))


@pytest.fixture(scope="module")
def confounded_report():
    return run("table4", (5000, 10000), ("tau=25",))


@pytest.fixture(scope="module")
def discrete_confounded_report():
    return run("table5", (10000,), ("tau=30",))


@pytest.fixture(scope="module")
def slope_report():
    return run("table6", (500,))


def test_criterion_01_symmetric_midrange(symmetric_report):
    row = pick(symmetric_report, method="hoeffding")
    assert row.mean_estimate == approx(10.0, abs=0.1)
    assert row.coverage == 1.0


def test_criterion_02_skewed_midrange_and_baseline_failure(skewed_report):
    for variant in ("TN(0,15,10,3)", "TN(0,15,5,3)"):
        large = pick(skewed_report, variant=variant, n=10000, method="hoeffding")
        assert large.mean_estimate == approx(7.58, abs=0.2)
        mid = pick(skewed_report, variant=variant, n=2500, method="hoeffding")
        assert mid.coverage >= 0.93
        baseline = pick(skewed_report, variant=variant, n=10000,
                        method="percentile-m")
        assert baseline.coverage <= 0.35  # the baseline's failure mode


def test_criterion_03_discrete_plugin_and_u_coverage(rounded_report):
    first_law = pick(rounded_report, variant="round(TN(0,40,20,5))", n=500,
                     estimator="plugin", method="hoeffding-u")
    assert first_law.mean_estimate == approx(20.012, abs=0.15)
    for row in rounded_report.rows:
        assert row.method in ("hoeffding-u", "hoeffding-u2")
        assert row.coverage >= 0.94, (row.variant, row.n, row.estimator,
                                      row.method, row.coverage)


def test_criterion_04_confounding_splits_the_estimators(confounded_report):
    ols = pick(confounded_report, n=10000, estimator="ols")
    assert 33.0 <= ols.mean_estimate <= 37.0  # confounded, far from 10
    mr = pick(confounded_report, n=10000, estimator="midrange")
    assert mr.mean_estimate == approx(10.25, abs=0.8)
    mr_mid = pick(confounded_report, n=5000, estimator="midrange")
    assert mr_mid.power >= 0.97
    assert mr_mid.coverage == 1.0
    assert mr.coverage == 1.0


def test_criterion_05_discrete_contrast(discrete_confounded_report):
    row = pick(discrete_confounded_report, estimator="plugin",
               method="hoeffding-u")
    assert row.mean_estimate == approx(5.765, abs=0.3)
    assert row.power == approx(0.921, abs=0.07)
    assert row.coverage > 0.99


def test_criterion_06_slope_interval_recipes(slope_report):
    ols = pick(slope_report, method="t-dist")
    assert ols.mean_estimate == approx(20.00, abs=0.05)
    assert ols.mean_lower == approx(19.62, abs=0.1)
    assert ols.mean_upper == approx(20.37, abs=0.1)
    conc = pick(slope_report, method="u-concentration")
    assert conc.mean_lower == approx(19.09, abs=0.15)
    assert conc.mean_upper == approx(20.91, abs=0.15)
    ranged = pick(slope_report, method="hoeffding")
    # Reference endpoints (19.9, 21.58).  The upper reproduces; the lower
    # is inconsistent with a centered range interval of that upper and the
    # assertion is expected to fail.  Kept as stated.
    assert ranged.mean_upper == approx(21.58, abs=0.3)
    assert ranged.mean_lower == approx(19.9, abs=0.3)


def test_criterion_07_closed_form_constants():
    unit = BootstrapDistribution(statistic=0.5,
                                 replicates=np.array([0.0, 1.0]))
    plain = hoeffding_ci(unit, alpha=0.05)
    plain_half = plain.upper - plain.point
    assert round(plain_half, 4) == 1.3581
    assert plain_half == approx(math.sqrt(math.log(40.0) / 2.0), rel=1e-15)
    improved = hoeffding_u_ci(unit, alpha=0.05, centered=True)
    ratio = (improved.upper - improved.point) / plain_half
    assert ratio == approx(2.0 / math.sqrt(3.0), rel=1e-12)
    assert round(ratio, 4) == 1.1547


def test_criterion_08_property_suites(symmetric_report, skewed_report,
                                      rounded_report, confounded_report,
                                      discrete_confounded_report, slope_report):
    reports = (symmetric_report, skewed_report, rounded_report,
               confounded_report, discrete_confounded_report, slope_report)

    # Replicate-spread self-test passed for every bootstrap distribution.
    total = sum(r.range_checks_total for r in reports)
    passed = sum(r.range_checks_passed for r in reports)
    assert total > 0 and passed == total

    # Shift and scale equivariance of both support-average estimators.
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for _ in range(1000):
        sample = rng.normal(loc=rng.uniform(-20, 20), scale=rng.uniform(1, 10),
                            size=int(rng.integers(5, 60)))
        a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-5.0, 5.0)
        mapped = a * sample + b
        assert midrange(mapped) == approx(a * midrange(sample) + b, rel=1e-12,
                                          abs=1e-12)
        assert discrete_plugin_average(mapped) == approx(
            a * discrete_plugin_average(sample) + b, rel=1e-12, abs=1e-12)

    # Least squares: residuals orthogonal to the design on every fit, and
    # the QR route agrees with the explicit normal-equation inverse.
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    for _ in range(100):
        x = np.column_stack([np.ones(10), rng.normal(size=(10, 2))])
        y = rng.normal(size=10)
        design = DesignMatrix(x, ("intercept", "z1", "z2"))
        fit = ols_fit(design, y)
        assert np.max(np.abs(x.T @ fit.residuals)) <= 1e-8
        explicit = np.linalg.inv(x.T @ x) @ (x.T @ y)
        assert np.max(np.abs(fit.coefficients - explicit)) <= 1e-6

    # Ecdf areas partition the observed range: exact in rational
    # arithmetic over the same step curve, and to 1e-9 in float.
    rng = np.random.default_rng(ACCEPTANCE_SEED + 2)
    for _ in range(1000):
        size = int(rng.integers(2, 40))
        if rng.uniform() < 0.5:
            sample = rng.integers(0, 8, size=size).astype(float)  # forces ties
            if np.unique(sample).size == 1:
                sample[0] += 1.0
        else:
            sample = rng.normal(size=size)
        curve = ecdf(sample)
        counts = np.round(np.diff(np.concatenate([[0.0], curve.heights]))
                          * curve.n).astype(int)
        cum = 0
        below = above = Fraction(0)
        for j in range(curve.values.size - 1):
            cum += int(counts[j])
            gap = Fraction(float(curve.values[j + 1])) - Fraction(float(curve.values[j]))
            height = Fraction(cum, curve.n)
            below += height * gap
            above += (1 - height) * gap
        full = Fraction(float(curve.values[-1])) - Fraction(float(curve.values[0]))
        assert below + above == full
        assert curve.area_below() == approx(float(below), abs=1e-9)
        assert curve.area_above() == approx(float(above), abs=1e-9)

    # Coverage and power tallies are exact complements in float.
    covering = IntervalEstimate(point=0.5, lower=0.0, upper=1.0,
                                alpha=0.05, method="hoeffding")
    excluding = IntervalEstimate(point=2.5, lower=2.0, upper=3.0,
                                 alpha=0.05, method="hoeffding")
    sizes = list(range(1, 201)) + [500, 1000, 2000]
    for m in sizes:
        for k in (range(m + 1) if m <= 200 else range(0, m + 1, 37)):
            cis = [covering] * k + [excluding] * (m - k)
            assert empirical_coverage(cis, 0.5) + empirical_power(cis, 0.5) == 1.0
    with pytest.raises(ParameterError):
        empirical_coverage([], 0.5)


def test_criterion_09_errors_shrink_with_sample_size():
    # 200 paired replications per estimator; the large-sample absolute
    # error must be strictly smaller in at least 95 percent of pairs.
    support = np.arange(21, dtype=float)
    weights = np.array([0.99 / 16] * 16 + [0.002] * 5)  # one-sided rare tail
    law = TruncatedNormalSpec(0.0, 15.0, 10.0, 3.0)
    plugin_wins = 0
    midrange_wins = 0
    for i in range(200):
        base = RngStream(ACCEPTANCE_SEED, (9, i))
        small = base.child(0).generator().choice(support, size=100, p=weights)
        large = base.child(1).generator().choice(support, size=10_000, p=weights)
        if abs(discrete_plugin_average(large) - 10.0) < \
                abs(discrete_plugin_average(small) - 10.0):
            plugin_wins += 1
        small_tn = sample_truncated_normal(law, 100, base.child(2))
        large_tn = sample_truncated_normal(law, 10_000, base.child(3))
        if abs(midrange(large_tn) - 7.5) < abs(midrange(small_tn) - 7.5):
            midrange_wins += 1
    assert plugin_wins >= 190
    assert midrange_wins >= 190


def _confounded_csv(path, n=600):
    """Synthetic observational data with a known contrast of 10."""
    base = RngStream(ACCEPTANCE_SEED, (42,))
    confounder = base.child(0).generator().uniform(-2.0, 2.0, size=n)
    p_treat = 1.0 / (1.0 + np.exp(-1.1 * confounder))
    treated = sample_bernoulli_probs(p_treat, base.child(1))
    noise = sample_truncated_normal(TruncatedNormalSpec(-5.0, 5.0, 0.0, 1.5),
                                    n, base.child(2))
    outcome = 50.0 + 10.0 * treated + 6.0 * confounder + noise
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y", "t", "c"])
        writer.writerows([[repr(float(a)), f"{b:g}", repr(float(x))]
                          for a, b, x in zip(outcome, treated, confounder)])
    return str(path)


def test_criterion_10_fixed_seed_runs_are_byte_identical(tmp_path):
    runner = CliRunner()
    outputs = []
    for tag in ("first", "second"):
        prefix = str(tmp_path / f"sim_{tag}")
        result = runner.invoke(main, [
            "simulate", "--table", "6", "--m", "4", "--b", "30",
            "--seed", str(ACCEPTANCE_SEED), "--out", prefix])
        assert result.exit_code == 0
        with open(prefix + ".csv", "rb") as fh:
            sim_csv = fh.read()
        with open(prefix + ".txt", "rb") as fh:
            sim_txt = fh.read()
        outputs.append((sim_csv, sim_txt, result.stdout))
    assert outputs[0] == outputs[1]

    data = _confounded_csv(tmp_path / "obs.csv")
    est = []
    for tag in ("first", "second"):
        prefix = str(tmp_path / f"est_{tag}")
        result = runner.invoke(main, [
            "estimate", data, "--outcome", "y", "--treatment", "t",
            "--covariates", "c", "--method", "Av", "--method", "S",
            "--b", "200", "--seed", str(ACCEPTANCE_SEED), "--out", prefix])
        assert result.exit_code == 0
        with open(prefix + ".csv", "rb") as fh:
            est.append((fh.read(), result.stdout))
    assert est[0] == est[1]


def test_pipeline_recovers_known_contrast_through_cli(tmp_path):
    # End-to-end check on the estimate path: confounding pushes the naive
    # fit away from the true contrast of 10, every adjusted method comes
    # back near it, and the support-average interval covers it.
    data = _confounded_csv(tmp_path / "obs.csv")
    prefix = str(tmp_path / "est")
    result = CliRunner().invoke(main, [
        "estimate", data, "--outcome", "y", "--treatment", "t",
        "--covariates", "c", "--method", "LR", "--method", "MR",
        "--method", "S", "--method", "PS", "--method", "Av",
        "--seed", str(ACCEPTANCE_SEED), "--out", prefix])
    assert result.exit_code == 0
    with open(prefix + ".csv", newline="") as fh:
        records = {row[1]: row for row in list(csv.reader(fh))[1:]}
    assert set(records) == {"LR", "MR", "S", "PS", "Av"}
    assert float(records["LR"][2]) >= 12.0  # confounded upward
    assert float(records["MR"][2]) == approx(10.0, abs=0.5)
    assert float(records["S"][2]) == approx(10.0, abs=0.5)
    assert float(records["PS"][2]) == approx(10.0, abs=1.5)
    av_lower, av_upper = float(records["Av"][3]), float(records["Av"][4])
    assert av_lower <= 10.0 <= av_upper
    assert float(records["Av"][2]) == approx(10.0, abs=3.0)
