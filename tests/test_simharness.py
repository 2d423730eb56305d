import functools
import hashlib

import numpy as np
import pytest

from funcavg.bootstrap import BootstrapConfig, resample
from funcavg.distributions import TruncatedNormalSpec
from funcavg.errors import ParameterError
from funcavg.estimators import paired_contrast, sample_mean
from funcavg.intervals import IntervalEstimate
from funcavg.regression import DesignMatrix, ols_fit
from funcavg.rng import RngStream
from funcavg.simharness import (
    DESK_GRID,
    DESK_ITERATIONS,
    FULL_GRID,
    FULL_ITERATIONS,
    ExperimentSpec,
    ReportRow,
    _draw_slope,
    desk_spec,
    empirical_coverage,
    empirical_power,
    full_spec,
    read_report_csv,
    report_csv,
    report_text,
    run_experiment,
    variant_labels,
    write_report,
)


def interval(lower, upper, method="hoeffding"):
    mid = (lower + upper) / 2.0
    return IntervalEstimate(point=mid, lower=lower, upper=upper,
                            alpha=0.05, method=method)


# Coverage and power counters.

def test_coverage_all_containing():
    cis = [interval(0.0, 1.0)] * 4
    assert empirical_coverage(cis, 0.5) == 1.0


def test_coverage_counts_endpoints_as_covered():
    cis = [interval(0.0, 1.0)]
    assert empirical_coverage(cis, 0.0) == 1.0
    assert empirical_coverage(cis, 1.0) == 1.0


def test_coverage_half():
    cis = [interval(0.0, 1.0), interval(2.0, 3.0)]
    assert empirical_coverage(cis, 0.5) == 0.5


def test_power_all_excluding():
    assert empirical_power([interval(1.0, 2.0)] * 3, 0.0) == 1.0


def test_power_none_excluding():
    assert empirical_power([interval(-1.0, 1.0)] * 3, 0.0) == 0.0


def test_counters_reject_empty_lists():
    with pytest.raises(ParameterError):
        empirical_coverage([], 0.0)
    with pytest.raises(ParameterError):
        empirical_power([], 0.0)


def test_coverage_power_complement_is_float_exact():
    # At a shared evaluation point the two counters tally complementary
    # indicator sets, so their float sum is exactly 1 for every list
    # length used here (checked exhaustively per length).
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 7, 31, 200, 1000):
        lowers = rng.normal(size=m)
        cis = [interval(lo, lo + rng.uniform(0.5, 2.0)) for lo in lowers]
        for theta in (-0.3, 0.0, 0.4, cis[0].lower):
            assert empirical_coverage(cis, theta) + empirical_power(cis, theta) == 1.0


# Spec validation.

def test_spec_rejects_unknown_experiment():
    with pytest.raises(ParameterError):
        ExperimentSpec("table9")


def test_spec_rejects_bad_grid_and_counts():
    with pytest.raises(ParameterError):
        ExperimentSpec("table2", n_grid=())
    with pytest.raises(ParameterError):
        ExperimentSpec("table2", n_grid=(3,))
    with pytest.raises(ParameterError):
        ExperimentSpec("table2", n_grid=(100, 100))
    with pytest.raises(ParameterError):
        ExperimentSpec("table2", iterations=0)
    with pytest.raises(ParameterError):
        ExperimentSpec("table2", replicates=0)
    with pytest.raises(ParameterError, match="at least 2"):
        ExperimentSpec("table2", replicates=1)
    with pytest.raises(ParameterError):
        ExperimentSpec("table2", alpha=1.5)


def test_spec_rejects_unknown_variant():
    with pytest.raises(ParameterError):
        ExperimentSpec("table4", variants=("tau=99",))


def test_variant_labels_per_experiment():
    assert variant_labels("table2") == (
        "TN(0,20,10,5)", "TN(0,15,10,3)", "TN(0,15,5,3)")
    assert variant_labels("table4") == ("tau=5", "tau=25")
    assert len(variant_labels("table3")) == 3
    assert variant_labels("table6") == ("slope",)


def test_profiles():
    d = desk_spec("table2", seed=3)
    assert (d.n_grid, d.iterations) == (DESK_GRID, DESK_ITERATIONS)
    f = full_spec("table2", seed=3)
    assert (f.n_grid, f.iterations) == (FULL_GRID, FULL_ITERATIONS)


TINY = dict(n_grid=(60,), iterations=6, replicates=40, seed=11)


def tiny(experiment, **overrides):
    kwargs = {**TINY, **overrides}
    return run_experiment(ExperimentSpec(experiment, **kwargs))


# Report structure.

@pytest.mark.parametrize("experiment,methods_by_estimator", [
    ("table2", {"midrange": {"hoeffding", "hoeffding-m", "percentile-m"}}),
    ("table3", {"plugin": {"hoeffding-u", "hoeffding-u2"},
                "midrange": {"hoeffding-u", "hoeffding-u2"}}),
    ("table4", {"ols": {"none"}, "midrange": {"hoeffding"}}),
    ("table5", {"ols": {"none"},
                "plugin": {"hoeffding-u", "hoeffding-u2"},
                "midrange": {"hoeffding-u", "hoeffding-u2"}}),
    ("table6", {"ols": {"t-dist", "u-concentration", "hoeffding"}}),
])
def test_report_shape(experiment, methods_by_estimator):
    report = tiny(experiment)
    n_variants = len(variant_labels(experiment))
    for label in variant_labels(experiment):
        for estimator, methods in methods_by_estimator.items():
            seen = {r.method for r in report.rows
                    if r.variant == label and r.estimator == estimator}
            assert seen == methods
    expected_rows = n_variants * sum(len(m) for m in methods_by_estimator.values())
    assert len(report.rows) == expected_rows
    assert report.streams_used == n_variants * len(TINY["n_grid"]) * TINY["iterations"]
    assert report.range_checks_passed == report.range_checks_total
    for row in report.rows:
        if row.mean_lower is not None:
            # Each interval contains its own point, so the means nest too.
            assert row.mean_lower <= row.mean_estimate <= row.mean_upper
            assert 0.0 <= row.coverage <= 1.0
            assert 0.0 <= row.power <= 1.0


def test_reports_are_deterministic():
    a = tiny("table4")
    b = tiny("table4")
    assert a.rows == b.rows
    assert (a.range_checks_passed, a.streams_used) == \
        (b.range_checks_passed, b.streams_used)
    assert report_csv(a) == report_csv(b)
    assert report_text(a) == report_text(b)


def test_stream_keys_are_distinct_across_tables_under_one_seed(monkeypatch):
    # Every (variant, n, iteration) of every table draws from its own root
    # stream; record the keys run_experiment derives and check none repeats.
    keys = []

    def recording_stream(seed, key):
        keys.append((seed, key))
        return RngStream(seed, key)

    monkeypatch.setattr("funcavg.simharness.RngStream", recording_stream)
    spec = dict(n_grid=(50, 60), iterations=3, replicates=5, seed=11)
    expected = 0
    for experiment in ("table2", "table3", "table4", "table5", "table6"):
        report = run_experiment(ExperimentSpec(experiment, **spec))
        assert report.streams_used == \
            len(variant_labels(experiment)) * len(spec["n_grid"]) * spec["iterations"]
        expected += report.streams_used
    assert len(keys) == expected
    assert len(set(keys)) == len(keys)


def test_restricting_variants_reproduces_the_same_rows():
    # Streams are keyed by a variant's position in the full label tuple,
    # so running one variant alone cannot shift its numbers.
    full_run = tiny("table5")
    solo = tiny("table5", variants=("tau=50",))
    expected = tuple(r for r in full_run.rows if r.variant == "tau=50")
    assert solo.rows == expected


# sha256 of report_csv + report_text for each table at TINY, taken with
# numpy 2.4.6 and scipy 1.17.1.  Two runs of the same code agreeing cannot
# catch a refactor that moves numbers; these pin the bytes across commits.
# A change that alters the draws on purpose updates them and says so.
PINNED_DIGESTS = {
    "table2": "adcfda71cdbd0e7b682aa1974161a5f094e022947238739aef39f3ab310f3a38",
    "table3": "6d0ceccb1c47963a7e3b5f8dc90b0da82da6a8521418a86d8e5ebba3a636c976",
    "table4": "f2584392d962c840b961d0488fc1cfc8ebbf43efc527ddbf4476e95681bd007b",
    "table5": "73b0c7a0cd69408a7ad2f6418d208710d08194db0a762d7e40c6947e0081ad71",
    "table6": "fe2db39b671e720cde4b627924321f220408907f7fe41e3184150dd9eff8702f",
}


@pytest.mark.parametrize("experiment", sorted(PINNED_DIGESTS))
def test_report_bytes_match_pinned_digest(experiment):
    report = tiny(experiment)
    body = (report_csv(report) + report_text(report)).encode("utf-8")
    assert hashlib.sha256(body).hexdigest() == PINNED_DIGESTS[experiment]


def test_range_checks_all_pass_at_alpha_half():
    # The self-check is Popoviciu's inequality, which no valid bootstrap
    # distribution breaks; a normal-theory form failed 1 of these 36.
    report = tiny("table3", alpha=0.5)
    assert report.range_checks_passed == report.range_checks_total == 36


def _qr_slope(rows):
    """QR least-squares slope of outcome on an intercept and the treatment
    label, the reference for table 6's bootstrap statistic."""
    design = DesignMatrix(
        np.column_stack([np.ones(rows.shape[0]), rows[:, 1]]), ("intercept", "t"))
    return ols_fit(design, rows[:, 0]).coefficient(1)


def test_slope_bootstrap_is_the_difference_of_arm_means():
    # With a binary treatment and an intercept the OLS slope is the
    # treated mean minus the control mean, so table 6 bootstraps it with
    # the shared two-arm kernel.
    slope = functools.partial(paired_contrast, estimator=sample_mean)
    lone = np.array([[3.0, 0], [12.0, 1], [5.0, 0], [9.0, 0]])
    assert slope(lone) == pytest.approx(19.0 / 3.0, abs=1e-12)
    assert _qr_slope(lone) == pytest.approx(19.0 / 3.0, abs=1e-12)
    law = TruncatedNormalSpec(-10.0, 10.0, 0.0, 2.0)
    for n in (60, 500):
        for it in range(3):
            stream = RngStream(17, (6, 0, n, it))
            rows, fit = _draw_slope(law, n, stream)
            config = BootstrapConfig(200, stream.child(1))
            ref = resample(rows, config, _qr_slope)
            got = resample(rows, config, slope)
            assert got.statistic == pytest.approx(fit.coefficient(1), abs=1e-12, rel=0)
            assert got.statistic == pytest.approx(ref.statistic, abs=1e-12, rel=0)
            np.testing.assert_allclose(got.replicates, ref.replicates, rtol=0, atol=1e-12)


def test_seed_changes_results():
    a = tiny("table2")
    b = tiny("table2", seed=TINY["seed"] + 1)
    assert a.rows != b.rows


# Emission.

def test_csv_round_trip(tmp_path):
    report = tiny("table6")
    prefix = str(tmp_path / "report")
    csv_path, text_path = write_report(report, prefix)
    assert csv_path.endswith(".csv") and text_path.endswith(".txt")
    assert read_report_csv(csv_path) == report.rows


def test_text_report_excludes_wall_time():
    report = tiny("table2")
    text = report_text(report)
    assert "seed=11" in text
    assert "replicate-spread self-checks passed" in text
    assert "wall" not in text.lower()
    assert report.wall_time > 0.0


def test_point_only_rows_have_empty_interval_cells():
    report = tiny("table4")
    ols = [r for r in report.rows if r.estimator == "ols"]
    assert ols and all(r.method == "none" and r.mean_lower is None for r in ols)
    lines = report_csv(report).splitlines()
    ols_lines = [l for l in lines if ",ols,none," in l]
    assert ols_lines and all(l.endswith(",,,,") for l in ols_lines)


def test_report_row_validation():
    with pytest.raises(ParameterError):
        ReportRow("table2", "v", 10, "midrange", "hoeffding", 1.0,
                  mean_estimate=float("nan"))
    with pytest.raises(ParameterError):
        ReportRow("table2", "v", 10, "midrange", "hoeffding", 1.0,
                  mean_estimate=1.0, mean_lower=2.0, mean_upper=1.0,
                  coverage=0.5, power=0.5)
    with pytest.raises(ParameterError):
        ReportRow("table2", "v", 10, "midrange", "hoeffding", 1.0,
                  mean_estimate=1.0, mean_lower=0.0, mean_upper=2.0,
                  coverage=1.5, power=0.5)
    with pytest.raises(ParameterError):  # partially filled interval fields
        ReportRow("table2", "v", 10, "midrange", "hoeffding", 1.0,
                  mean_estimate=1.0, mean_lower=0.0)


# Cell-level anchors, run at a reduced but meaningful scale.  Bands are
# wide enough for Monte Carlo noise at these iteration counts; the
# acceptance suite pins tighter bands at larger scale.

def test_symmetric_law_midrange_is_centred():
    report = run_experiment(ExperimentSpec(
        "table2", n_grid=(500,), iterations=200, replicates=500, seed=5,
        variants=("TN(0,20,10,5)",)))
    by_method = {r.method: r for r in report.rows}
    assert 9.9 <= by_method["hoeffding"].mean_estimate <= 10.1
    assert by_method["hoeffding"].coverage == 1.0


def test_skewed_law_midrange_converges_slowly():
    report = run_experiment(ExperimentSpec(
        "table2", n_grid=(500,), iterations=100, replicates=300, seed=5,
        variants=("TN(0,15,10,3)",)))
    row = next(r for r in report.rows if r.method == "hoeffding")
    # Extremes pull toward the support midpoint from one side only, so the
    # midrange sits well above the target 7.5 at this n.
    assert 7.8 <= row.mean_estimate <= 8.4


def test_rounded_law_plugin_near_target():
    report = run_experiment(ExperimentSpec(
        "table3", n_grid=(500,), iterations=200, replicates=500, seed=5,
        variants=("round(TN(0,40,20,5))",)))
    plugin = next(r for r in report.rows
                  if r.estimator == "plugin" and r.method == "hoeffding-u")
    assert 19.9 <= plugin.mean_estimate <= 20.1
    assert plugin.coverage == 1.0
    # The general-constant interval is wider by the same factor everywhere,
    # so its coverage can only match or beat the concentrated form.
    plugin2 = next(r for r in report.rows
                   if r.estimator == "plugin" and r.method == "hoeffding-u2")
    assert plugin2.coverage >= plugin.coverage
    assert plugin2.mean_upper - plugin2.mean_lower > \
        plugin.mean_upper - plugin.mean_lower


def test_rounded_skewed_law_plugin_biased_up_at_small_n():
    report = run_experiment(ExperimentSpec(
        "table3", n_grid=(500,), iterations=100, replicates=300, seed=5,
        variants=("round(TN(0,40,25,8))",)))
    plugin = next(r for r in report.rows
                  if r.estimator == "plugin" and r.method == "hoeffding-u")
    assert 21.4 <= plugin.mean_estimate <= 22.4


def test_confounded_design_splits_ols_from_midrange():
    report = run_experiment(ExperimentSpec(
        "table4", n_grid=(500,), iterations=100, replicates=300, seed=5,
        variants=("tau=5",)))
    ols = next(r for r in report.rows if r.estimator == "ols")
    mr = next(r for r in report.rows if r.estimator == "midrange")
    assert 30.0 <= ols.mean_estimate <= 37.0
    assert 10.0 <= mr.mean_estimate <= 13.5
    assert mr.coverage == 1.0
    assert 0.5 <= mr.power <= 0.9


def test_discrete_confounded_design_anchor():
    report = run_experiment(ExperimentSpec(
        "table5", n_grid=(500,), iterations=100, replicates=300, seed=5,
        variants=("tau=30",)))
    plugin = next(r for r in report.rows
                  if r.estimator == "plugin" and r.method == "hoeffding-u")
    assert 5.6 <= plugin.mean_estimate <= 6.6
    assert plugin.coverage >= 0.99
    assert 0.4 <= plugin.power <= 0.9


def test_slope_interval_anchors():
    report = run_experiment(ExperimentSpec(
        "table6", n_grid=(500,), iterations=100, replicates=300, seed=5))
    rows = {r.method: r for r in report.rows}
    assert rows["t-dist"].mean_estimate == pytest.approx(20.0, abs=0.05)
    assert rows["t-dist"].mean_lower == pytest.approx(19.62, abs=0.1)
    assert rows["t-dist"].mean_upper == pytest.approx(20.37, abs=0.1)
    assert rows["u-concentration"].mean_lower == pytest.approx(19.09, abs=0.15)
    assert rows["u-concentration"].mean_upper == pytest.approx(20.91, abs=0.15)
    # Range-based interval is the widest of the three at this n.
    for method in ("t-dist", "u-concentration"):
        assert rows["hoeffding"].mean_upper - rows["hoeffding"].mean_lower > \
            rows[method].mean_upper - rows[method].mean_lower
