import dataclasses
import math

import numpy as np
import pytest
from scipy.special import expit, logit

from funcavg.dataset import Dataset
from funcavg.distributions import (
    BernoulliSpec,
    TruncatedNormalSpec,
    sample_bernoulli,
    sample_bernoulli_probs,
    sample_truncated_normal,
)
from funcavg.errors import (
    ConvergenceError,
    DataError,
    ParameterError,
    SingularDesignError,
    StratificationError,
)
from funcavg.formula import ModelSpec, Term
from funcavg.regression import (
    DesignMatrix,
    build_design,
    design_from_columns,
    logistic_fit,
    ols_fit,
    propensity_strata,
    ps_stratified_contrast,
    standardization_bootstrap_se,
    standardization_contrast,
    t_ci,
    u_concentration_ci,
)
from funcavg.rng import RngStream

U_SCALE = 0.7841002756996854  # sqrt(log(40) / 6)
ARM_MODEL = ModelSpec("y", (Term(("t",)),))  # y ~ t


def linear_arm_data(n, seed, effect=20.0, base=100.0, noise_sigma=2.0):
    """Binary-treatment outcome with symmetric truncated-normal noise."""
    t = sample_bernoulli(BernoulliSpec(0.3), n, RngStream(seed, (0,)))
    u = sample_truncated_normal(TruncatedNormalSpec(-10, 10, 0, noise_sigma), n,
                                RngStream(seed, (1,)))
    y = base + effect * t + u
    return Dataset({"y": y, "t": t.astype(float)})


def test_ols_exact_interpolation():
    design = DesignMatrix(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]),
                          ("intercept", "x"))
    fit = ols_fit(design, np.array([1.0, 3.0, 5.0, 7.0]))
    assert fit.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-24)
    # Zero residual variance propagates to a zero-width t interval.
    assert t_ci(fit, "x").width == pytest.approx(0.0, abs=1e-12)
    assert u_concentration_ci(fit, "x").width == pytest.approx(0.0, abs=1e-12)


def test_ols_residual_orthogonality_and_oracle_agreement():
    gen = np.random.Generator(np.random.Philox(12))
    for _ in range(20):
        x = np.column_stack([np.ones(10), gen.normal(size=(10, 2))])
        y = gen.normal(size=10)
        design = DesignMatrix(x, ("intercept", "a", "b"))
        fit = ols_fit(design, y)
        # Normal equations by brute force: explicit inverse as the oracle.
        oracle = np.linalg.inv(x.T @ x) @ x.T @ y
        assert np.allclose(fit.coefficients, oracle, atol=1e-6)
        assert np.max(np.abs(x.T @ fit.residuals)) < 1e-8 * max(1.0, np.abs(y).max())
        oracle_se = np.sqrt(fit.residual_variance * np.diag(np.linalg.inv(x.T @ x)))
        assert np.allclose(fit.standard_errors, oracle_se, rtol=1e-8)


def test_ols_rejects_rank_deficiency_naming_column():
    x = np.column_stack([np.ones(6), np.arange(6.0), 2.0 * np.arange(6.0)])
    with pytest.raises(SingularDesignError) as err:
        ols_fit(DesignMatrix(x, ("intercept", "x", "x_doubled")), np.ones(6))
    assert err.value.column == "x_doubled"


def test_ols_requires_more_rows_than_columns():
    with pytest.raises(DataError):
        ols_fit(DesignMatrix(np.ones((2, 2)), ("intercept", "x")), np.ones(2))


def test_ols_recovers_treatment_coefficient():
    ds = linear_arm_data(2500, seed=31)
    fit = ols_fit(*build_design(ds, ARM_MODEL))
    assert fit.coefficient("t") == pytest.approx(20.0, abs=0.2)


def test_t_and_u_interval_means_match_reference_values():
    """Mean endpoints over 1000 fits at n=500 land on the frozen targets."""
    lowers_t, uppers_t, lowers_u, uppers_u, wider = [], [], [], [], 0
    reps = 1000
    for i in range(reps):
        ds = linear_arm_data(500, seed=40_000 + i)
        fit = ols_fit(*build_design(ds, ARM_MODEL))
        tci = t_ci(fit, "t")
        uci = u_concentration_ci(fit, "t")
        lowers_t.append(tci.lower)
        uppers_t.append(tci.upper)
        lowers_u.append(uci.lower)
        uppers_u.append(uci.upper)
        wider += uci.width > tci.width
    assert np.mean(lowers_t) == pytest.approx(19.62, abs=0.1)
    assert np.mean(uppers_t) == pytest.approx(20.37, abs=0.1)
    assert np.mean(lowers_u) == pytest.approx(19.09, abs=0.15)
    assert np.mean(uppers_u) == pytest.approx(20.91, abs=0.15)
    # The residual-range interval is the wider one essentially always.
    assert wider / reps >= 0.99


def test_u_concentration_hand_instance():
    # Intercept-only fit: each response weight is 1/n, so sum w^2 = 1/4,
    # and y = {0,1,1,2} leaves residuals {-1,0,0,1} with range 2.
    design = DesignMatrix(np.ones((4, 1)), ("intercept",))
    fit = ols_fit(design, np.array([0.0, 1.0, 1.0, 2.0]))
    ci = u_concentration_ci(fit, "intercept")
    assert ci.point == pytest.approx(1.0)
    half = 2.0 * 0.5 * U_SCALE
    assert ci.width / 2 == pytest.approx(half, rel=1e-12)
    assert half == pytest.approx(0.7841, abs=1e-4)
    assert ci.method == "u-concentration"


def test_t_interval_width_monotone_in_alpha():
    ds = linear_arm_data(200, seed=9)
    fit = ols_fit(*build_design(ds, ARM_MODEL))
    widths = [t_ci(fit, "t", alpha=a).width for a in (0.01, 0.05, 0.2, 0.8)]
    assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 30, 198, 497, 998, 10_000, 19_995,
                                199_995, 10**7])
def test_t_critical_value_matches_scipy_stats_bit_for_bit(df):
    from scipy.stats import t as student_t

    ds = linear_arm_data(50, seed=3)
    fit = ols_fit(*build_design(ds, ARM_MODEL))
    # A zero coefficient with a unit standard error puts the critical value
    # itself at the upper endpoint.
    unit = dataclasses.replace(fit, coefficients=np.zeros(2), standard_errors=np.ones(2),
                               df_residual=df)
    for alpha in (1e-6, 0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9, 0.999):
        expected = float(student_t.ppf(1.0 - alpha / 2.0, df))
        assert t_ci(unit, "t", alpha=alpha).upper == expected


def test_logistic_intercept_only_matches_logit_of_mean():
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    fit = logistic_fit(DesignMatrix(np.ones((10, 1)), ("intercept",)), y)
    assert fit.coefficients[0] == pytest.approx(float(logit(y.mean())), abs=1e-8)
    assert fit.score_norm < 1e-8


def test_logistic_recovers_analytic_log_odds():
    n = 100_000
    c = sample_bernoulli(BernoulliSpec(0.5), n, RngStream(2, (0,)))
    t = sample_bernoulli_probs(0.3 + 0.5 * c, RngStream(2, (1,)))
    ds = Dataset({"t": t.astype(float), "c": c.astype(float)})
    fit = logistic_fit(design_from_columns(ds, ["c"]), ds.column("t"))
    target = float(logit(0.8) - logit(0.3))
    assert target == pytest.approx(2.2336, abs=5e-4)
    assert fit.coefficients[1] == pytest.approx(target, abs=0.05)
    assert fit.coefficients[0] == pytest.approx(float(logit(0.3)), abs=0.05)


def test_logistic_flags_separation_with_trace():
    x = np.column_stack([np.ones(8), np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])])
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ConvergenceError) as err:
        logistic_fit(DesignMatrix(x, ("intercept", "x")), y)
    assert len(err.value.trace) >= 1
    assert all(isinstance(i, int) for i, _ in err.value.trace)


def test_logistic_rejects_non_binary_response():
    with pytest.raises(DataError):
        logistic_fit(DesignMatrix(np.ones((4, 1)), ("intercept",)),
                     np.array([0.0, 1.0, 2.0, 1.0]))


def test_propensity_strata_even_spread():
    probs = np.arange(0.1, 1.05, 0.1)[:10]
    labels = propensity_strata(probs)
    assert np.bincount(labels).tolist() == [0, 2, 2, 2, 2, 2]


def test_propensity_strata_constant_probs_error():
    with pytest.raises(StratificationError):
        propensity_strata(np.full(100, 0.4))


def test_propensity_strata_continuous_scores_fill_every_bin():
    n = 5000
    l = RngStream(77, (0,)).generator().uniform(0, 1, n)
    t = sample_bernoulli_probs(expit(-1 + 2 * l), RngStream(77, (1,)))
    ds = Dataset({"t": t.astype(float), "l": l})
    fit = logistic_fit(design_from_columns(ds, ["l"]), ds.column("t"))
    counts = np.bincount(propensity_strata(fit.fitted_probabilities))[1:]
    assert counts.size == 5 and (counts >= n / 10).all()


def test_propensity_strata_determinism_and_validation():
    probs = RngStream(3, (0,)).generator().uniform(0.05, 0.95, 200)
    a = propensity_strata(probs)
    b = propensity_strata(probs)
    assert np.array_equal(a, b)
    with pytest.raises(DataError):
        propensity_strata(probs[:3])


def test_standardization_equals_slope_without_interactions():
    ds = linear_arm_data(400, seed=21)
    fit = ols_fit(*build_design(ds, ARM_MODEL))
    contrast = standardization_contrast(ds, ARM_MODEL, "t")
    # Algebraic identity, exact up to summation rounding in the row mean.
    assert contrast == pytest.approx(fit.coefficient("t"), rel=1e-14)


def test_standardization_with_interaction_centered_covariate():
    n = 4000
    t = sample_bernoulli(BernoulliSpec(0.5), n, RngStream(15, (0,)))
    l = sample_truncated_normal(TruncatedNormalSpec(-3, 3, 0, 1), n, RngStream(15, (1,)))
    l = l - l.mean()
    noise = sample_truncated_normal(TruncatedNormalSpec(-1, 1, 0, 0.25), n,
                                    RngStream(15, (2,)))
    y = 1.0 + 3.0 * t + 2.0 * l + 1.5 * t * l + noise
    ds = Dataset({"y": y, "t": t.astype(float), "l": l})
    model = ModelSpec("y", (Term(("t",)), Term(("l",)), Term(("t", "l"))))
    fit = ols_fit(*build_design(ds, model))
    contrast = standardization_contrast(ds, model, "t")
    # With L mean-centered the interaction contributes nothing on average.
    assert contrast == pytest.approx(fit.coefficient("t"), abs=1e-9)
    assert contrast == pytest.approx(3.0, abs=0.1)
    # Direct two-prediction oracle.
    hi_lo_diff = fit.coefficient("t") + fit.coefficient("t:l") * ds.column("l")
    assert contrast == pytest.approx(float(hi_lo_diff.mean()), rel=1e-12)


def test_standardization_bootstrap_zero_noise_zero_width():
    t = np.tile([0.0, 1.0], 25)
    ds = Dataset({"y": 2.0 + 5.0 * t, "t": t})
    ci = standardization_bootstrap_se(ds, ARM_MODEL, "t",
                                      RngStream(4, (0,)), replicates=100)
    assert ci.point == pytest.approx(5.0, abs=1e-10)
    assert ci.width == pytest.approx(0.0, abs=1e-10)


def test_standardization_bootstrap_determinism():
    ds = linear_arm_data(300, seed=8)
    a = standardization_bootstrap_se(ds, ARM_MODEL, "t", RngStream(6, (1,)), replicates=50)
    b = standardization_bootstrap_se(ds, ARM_MODEL, "t", RngStream(6, (1,)), replicates=50)
    assert (a.lower, a.upper, a.point) == (b.lower, b.upper, b.point)
    assert a.method == "percentile"


@pytest.mark.slow
def test_standardization_bootstrap_coverage():
    """Percentile interval covers the true effect in most outer replications."""
    covered = 0
    reps = 200
    for i in range(reps):
        ds = linear_arm_data(2500, seed=50_000 + i)
        ci = standardization_bootstrap_se(ds, ARM_MODEL, "t",
                                          RngStream(51_000, (i,)), replicates=1000)
        covered += ci.contains(20.0)
    assert covered / reps >= 0.93


def ps_pipeline_data(n, seed, effect=10.0):
    l = RngStream(seed, (0,)).generator().uniform(0, 1, n)
    t = sample_bernoulli_probs(expit(-1 + 2 * l), RngStream(seed, (1,)))
    e = sample_truncated_normal(TruncatedNormalSpec(-5, 5, 0, 1), n, RngStream(seed, (2,)))
    y = 100.0 + effect * t + 30.0 * l + e
    return Dataset({"y": y, "t": t.astype(float), "l": l})


def test_ps_stratified_contrast_removes_most_confounding():
    ds = ps_pipeline_data(10_000, seed=111)
    ci = ps_stratified_contrast(ds, "y", "t", ["l"], RngStream(112, (0,)),
                                replicates=50)
    # Crude unadjusted difference is pushed up by the confounder.
    unadjusted = ds.column("y")[ds.column("t") == 1].mean() - \
        ds.column("y")[ds.column("t") == 0].mean()
    assert unadjusted > 13.0
    assert ci.point == pytest.approx(10.0, abs=1.0)


def test_ps_stratified_contrast_no_confounding_matches_unadjusted():
    n = 4000
    l = RngStream(61, (0,)).generator().uniform(0, 1, n)
    t = sample_bernoulli(BernoulliSpec(0.5), n, RngStream(61, (1,)))
    e = sample_truncated_normal(TruncatedNormalSpec(-5, 5, 0, 1), n, RngStream(61, (2,)))
    y = 50.0 + 4.0 * t + 2.0 * l + e
    ds = Dataset({"y": y, "t": t.astype(float), "l": l})
    ci = ps_stratified_contrast(ds, "y", "t", ["l"], RngStream(62, (0,)),
                                replicates=50)
    unadjusted = y[t == 1].mean() - y[t == 0].mean()
    assert ci.point == pytest.approx(unadjusted, abs=0.15)


def test_ps_stratified_contrast_determinism():
    ds = ps_pipeline_data(1000, seed=71)
    a = ps_stratified_contrast(ds, "y", "t", ["l"], RngStream(72, (0,)), replicates=40)
    b = ps_stratified_contrast(ds, "y", "t", ["l"], RngStream(72, (0,)), replicates=40)
    assert (a.point, a.lower, a.upper) == (b.point, b.lower, b.upper)


def test_ps_stratified_requires_covariates():
    ds = ps_pipeline_data(500, seed=81)
    with pytest.raises(ParameterError):
        ps_stratified_contrast(ds, "y", "t", [], RngStream(0))


def test_ps_refits_drop_failures_within_the_budget(monkeypatch):
    # Coarse covariate values tie the propensity scores, so some resamples
    # cannot fill five strata: 2 of these 100 refits fail, within the 5%
    # budget, and the interval is read off the other 98.
    import funcavg.regression as regression

    g = np.random.default_rng([4, 40, 1])
    x = np.round(g.normal(size=40), 1)
    t = (g.random(40) < 1 / (1 + np.exp(-2 * x))).astype(float)
    y = 1 + 2 * t + x + g.normal(size=40)
    completed = []
    contrast = regression.standardization_contrast
    monkeypatch.setattr(regression, "standardization_contrast",
                        lambda *a, **k: completed.append(1) or contrast(*a, **k))
    ci = ps_stratified_contrast(Dataset({"y": y, "t": t, "x": x}), "y", "t", ["x"],
                                RngStream(4, (1,)), replicates=100)
    assert len(completed) == 1 + 98  # the point estimate, then the refits
    assert (ci.point, ci.lower, ci.upper) == \
        (1.7220673047341317, 0.679108841891804, 3.0211546612886235)


def test_bootstrap_se_errors_when_refits_keep_failing():
    # A two-valued covariate makes propensity quintiles degenerate in every
    # replicate, so the failure budget is blown immediately.
    n = 200
    c = sample_bernoulli(BernoulliSpec(0.5), n, RngStream(91, (0,)))
    t = sample_bernoulli_probs(0.3 + 0.5 * c, RngStream(91, (1,)))
    y = 10.0 + 5.0 * t + c.astype(float)
    ds = Dataset({"y": y, "t": t.astype(float), "c": c.astype(float)})
    with pytest.raises((DataError, StratificationError)):
        ps_stratified_contrast(ds, "y", "t", ["c"], RngStream(92, (0,)),
                               replicates=40)


def test_refit_point_is_the_fit_on_the_dataset_as_given():
    # CSV ingest hands over columns that are strided views of one array.
    # BLAS takes another path for those than for contiguous row copies,
    # which can move a fit in the last bits; the reported point must be
    # the plain fit on the dataset as given.
    g = np.random.default_rng(5)
    n = 20_000
    t = (g.uniform(size=n) < 0.5).astype(float)
    x = g.normal(size=n)
    block = np.column_stack([5.0 + 3.0 * t + 1.5 * x + g.normal(scale=0.7, size=n),
                             t, x])
    ds = Dataset({"y": block[:, 0], "t": block[:, 1], "x": block[:, 2]})
    model = ModelSpec("y", (Term(("t",)), Term(("x",))))
    expected = standardization_contrast(ds, model, "t")
    ci = standardization_bootstrap_se(ds, model, "t", RngStream(13, (2,)), replicates=2)
    assert ci.point == expected
