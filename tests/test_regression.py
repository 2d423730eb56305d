import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from funcavg.bootstrap import row_chunks
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
    _empty_strata,
    _percentile_over_refits,
    _qr_solve,
    _r_factor,
    _stratum_cuts,
    _stratum_labels,
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
        # The range interval's half-width: residual range times ||w_j||_2,
        # which is sqrt([(X^T X)^-1]_jj).
        spread = fit.residuals.max() - fit.residuals.min()
        oracle_norms = np.sqrt(np.diag(np.linalg.inv(x.T @ x)))
        for j in range(3):
            ci = u_concentration_ci(fit, j, alpha=0.05)
            expected = spread * oracle_norms[j] * np.sqrt(np.log(2 / 0.05) / 6)
            assert ci.width / 2 == pytest.approx(expected, rel=1e-8)


def test_ols_rejects_rank_deficiency_naming_column():
    x = np.column_stack([np.ones(6), np.arange(6.0), 2.0 * np.arange(6.0)])
    with pytest.raises(SingularDesignError) as err:
        ols_fit(DesignMatrix(x, ("intercept", "x", "x_doubled")), np.ones(6))
    assert err.value.column == "x_doubled"


def test_ols_requires_more_rows_than_columns():
    with pytest.raises(DataError, match="need more observations"):
        ols_fit(DesignMatrix(np.ones((2, 2)), ("intercept", "x")), np.ones(2))
    # The contrast solves the same least squares without ols_fit.
    ds = Dataset({"y": np.array([1.0, 2.0]), "t": np.array([0.0, 1.0])})
    with pytest.raises(DataError, match="need more observations"):
        standardization_contrast(ds, ARM_MODEL, "t")


def _exact_least_squares(rows, response):
    """Least-squares coefficients in exact rational arithmetic: the normal
    equations of ``Fraction`` entries, by Gaussian elimination."""
    p = len(rows[0])
    a = [[sum(r[i] * r[j] for r in rows) for j in range(p)]
         + [sum(r[i] * y for r, y in zip(rows, response))] for i in range(p)]
    for c in range(p):
        for r in range(c + 1, p):
            factor = a[r][c] / a[c][c]
            a[r] = [u - factor * v for u, v in zip(a[r], a[c])]
    b = [Fraction(0)] * p
    for i in reversed(range(p)):
        b[i] = (a[i][p] - sum(a[i][j] * b[j] for j in range(i + 1, p))) / a[i][i]
    return b


def test_ols_keeps_its_digits_on_an_ill_conditioned_design():
    # 1, x, x^2 at x = 1000 + k/8: every entry, and every response on its
    # 1/64 grid, is exact in binary, and the design's condition number is
    # about 5e11.  An orthogonal factorization keeps about 3e-11 relative
    # error here; the normal equations X^T X b = X^T y, which square the
    # condition number, lose about 5e-5.
    xs = [Fraction(8000 + k, 8) for k in range(40)]
    ys = [Fraction((k * k) % 17 - 5 * (k % 3), 64) for k in range(40)]
    rows = [[Fraction(1), x, x * x] for x in xs]
    exact = np.array([float(b) for b in _exact_least_squares(rows, ys)])
    design = DesignMatrix(np.array(rows, dtype=float), ("intercept", "x", "x^2"))
    assert np.linalg.cond(design.matrix) > 1e11
    fit = ols_fit(design, np.array(ys, dtype=float))
    np.testing.assert_allclose(fit.coefficients, exact, rtol=1e-8)


def test_ols_recovers_treatment_coefficient():
    ds = linear_arm_data(2500, seed=31)
    fit = ols_fit(*build_design(ds, ARM_MODEL))
    assert fit.coefficient("t") == pytest.approx(20.0, abs=0.2)


def _block_rows(width):
    """Rows per :func:`_r_factor` block of a matrix ``width`` columns wide."""
    _, step = next(row_chunks(1 << 30, width))
    return step


def _tall_design(n, p, seed):
    """An intercept and ``p - 1`` normal columns, and a response on them."""
    g = np.random.default_rng([seed, n, p])
    x = np.empty((n, p), order="F")
    x[:, 0] = 1.0
    x[:, 1:] = g.normal(size=(n, p - 1))
    return x, x @ g.normal(size=p) + g.normal(size=n)


def _sign_normalised(r):
    return r * np.sign(np.diag(r))[:, None]


@pytest.mark.parametrize("p", range(2, 8))
@pytest.mark.parametrize("rows", ["one-block", "one-block-plus-1", "short-last", "200k"])
def test_blocked_r_factor_matches_one_qr(rows, p):
    # [X | y] is p + 1 wide.  "short-last" leaves a last block of one row,
    # fewer than p, whose factor is a single row.
    step = _block_rows(p + 1)
    n = {"one-block": step, "one-block-plus-1": step + 1, "short-last": 3 * step + 1,
         "200k": 200_000}[rows]
    x, y = _tall_design(n, p, seed=5)
    augmented = np.column_stack([x, y])
    reference = np.linalg.qr(augmented, mode="r")
    r = _r_factor(x, y)
    assert r.shape == (p + 1, p + 1)
    scale = np.abs(np.diag(reference)).max()
    assert np.abs(_sign_normalised(r) - _sign_normalised(reference)).max() <= 1e-12 * scale
    # The coefficients read off the blocked factor are least squares, to
    # 1e-12 of the largest (about 2e-15 on these designs).
    beta, _ = _qr_solve(x, y, tuple(f"x{j}" for j in range(p)))
    expected = np.linalg.lstsq(x, y, rcond=None)[0]
    assert np.abs(beta - expected).max() <= 1e-12 * np.abs(expected).max()
    if rows == "one-block":
        # One block is exactly the one QR, with no second factorisation.
        assert np.array_equal(r, reference)
        assert np.array_equal(_r_factor(x), np.linalg.qr(x, mode="r"))


def test_blocked_r_factor_names_the_dependent_column_of_a_tall_design():
    # 50,000 rows are several blocks; the column that is the sum of two
    # others is still named, as one QR of the whole design names it.
    x, y = _tall_design(50_000, 4, seed=9)
    x = np.column_stack([x, x[:, 1] + x[:, 2]])
    assert len(list(row_chunks(50_000, x.shape[1] + 1))) > 1
    names = ("intercept", "a", "b", "c", "a_plus_b")
    with pytest.raises(SingularDesignError) as err:
        ols_fit(DesignMatrix(x, names), y)
    assert err.value.column == "a_plus_b"
    with pytest.raises(SingularDesignError) as err:
        logistic_fit(DesignMatrix(x, names), (y > np.median(y)).astype(float))
    assert err.value.column == "a_plus_b"


def test_ols_fit_of_a_tall_design_copies_no_whole_matrix():
    # Factored by row blocks, the fit's largest temporaries are two
    # n-vectors (the fitted values and the residuals), 3.2 MB here.  A QR of
    # the whole [X | y] would hold it and numpy's copy of it, 19.2 MB,
    # beside the 8 MB design.
    import tracemalloc

    x, y = _tall_design(200_000, 5, seed=3)
    design = DesignMatrix(x, ("intercept", "a", "b", "c", "d"))
    ols_fit(design, y)
    tracemalloc.start()
    try:
        ols_fit(design, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2


def test_coefficient_index_is_a_count_below_p():
    ds = linear_arm_data(60, seed=31)
    fit = ols_fit(*build_design(ds, ARM_MODEL))
    assert fit.coefficient(1) == fit.coefficient(np.int64(1)) == fit.coefficient("t")
    # A float or a bool used to be truncated to a valid index.
    for bad in (1.7, True, -1, 2):
        with pytest.raises(ParameterError, match=r"^coefficient index must be an integer "
                                                 r"in \[0, 2\), got "):
            fit.coefficient(bad)
    with pytest.raises(ParameterError, match="coefficient index"):
        t_ci(fit, 1.0)
    with pytest.raises(ParameterError, match="no coefficient named 'x'"):
        fit.coefficient("x")


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
    assert fit.decrement < 1e-8


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


AFFINE_MAPS = [(1.0, 1e6), (1.0, 1e8), (1e-6, 0.0), (1e6, 0.0), (1e9, 0.0), (1e6, 1e9)]


def _affine_case(scale, offset):
    """Intercept and ``scale * x + offset`` for x on a 1/1024 grid, with a
    logistic response in x: 2,000 rows."""
    g = np.random.default_rng(12)
    x = np.round(g.normal(size=2000) * 1024) / 1024
    t = (g.uniform(size=2000) < expit(x)).astype(float)
    return np.column_stack([np.ones(2000), scale * x + offset]), t


@pytest.mark.parametrize("scale, offset", AFFINE_MAPS)
def test_logistic_fit_does_not_depend_on_an_affine_map_of_a_covariate(scale, offset):
    # Newton's method is affine invariant, and so is its stopping rule, the
    # Newton decrement: an absolute score tolerance sat below the score's
    # rounding floor at offsets of 1e6 and scales of 1e6 on 2,000 rows.
    # An offset makes each log-odds a difference of terms near
    # offset * slope, which no fit resolves more finely than a few of
    # their ulps; that is the only slack granted beyond rtol 1e-9.
    names = ("intercept", "x")
    x, t = _affine_case(1.0, 0.0)
    base = logistic_fit(DesignMatrix(x, names), t)
    moved = logistic_fit(DesignMatrix(_affine_case(scale, offset)[0], names), t)
    resolution = 4 * np.finfo(float).eps * abs(offset * moved.coefficients[1])
    np.testing.assert_allclose(moved.fitted_probabilities, base.fitted_probabilities,
                               rtol=1e-9, atol=resolution)
    assert moved.coefficients[1] * scale == pytest.approx(
        base.coefficients[1], rel=1e-9, abs=resolution)
    assert moved.coefficients[0] + offset * moved.coefficients[1] == pytest.approx(
        base.coefficients[0], rel=1e-9, abs=resolution)


def _weighted_qr_logistic_fit(x, y):
    """Reference Newton loop: refactor the weighted n-by-p design by QR at
    every step, ``step = R^-1 Q^T ((y - p) / sqrt(w))`` with ``sqrt(w) X = QR``,
    and stop on the decrement ``||R step||^2``.  Returns the probabilities,
    the iteration count and the trace."""
    beta, decrement, trace = np.zeros(x.shape[1]), math.inf, []
    for iteration in range(1, 51):
        eta = x @ beta
        assert np.abs(eta).max() <= 30.0
        probs = expit(eta)
        if decrement < 1e-8:
            return probs, iteration, trace
        sqrt_w = np.sqrt(probs * (1.0 - probs))
        q, r = np.linalg.qr(x * sqrt_w[:, None])
        step = np.linalg.solve(r, q.T @ ((y - probs) / sqrt_w))
        decrement = float(np.sum((r @ step) ** 2))
        trace.append((iteration, decrement))
        beta = beta + step
    raise AssertionError("the reference fit did not converge")


def _benchmark_resample():
    # The shape of the benchmark's synthetic CSV (a binary confounder and two
    # uniform covariates written to 6 decimals, 20,000 rows), rows resampled.
    g = np.random.default_rng([1, 20_000])
    n = 20_000
    c = (g.random(n) < 0.6).astype(float)
    x1, x2 = np.round(g.random(n), 6), np.round(g.random(n), 6)
    t = (g.random(n) < 0.3 + 0.4 * c).astype(float)
    rows = g.integers(0, n, n)
    return np.column_stack([np.ones(n), c, x1, x2])[rows], t[rows]


def _near_collinear_case(digits):
    # Two covariates 10^-digits apart: condition number about 2 * 10^digits.
    g = np.random.default_rng(digits)
    z = g.normal(size=2000)
    t = (g.uniform(size=2000) < expit(0.5 * z)).astype(float)
    return np.column_stack([np.ones(2000), z, z + 10.0 ** -digits * g.normal(size=2000)]), t


REFERENCE_CASES = {
    "benchmark-resample": _benchmark_resample,
    **{f"scale-{s:g}-offset-{o:g}": functools.partial(_affine_case, s, o)
       for s, o in AFFINE_MAPS},
    "intercept-only": lambda: (np.ones((10, 1)),
                               np.array([1.0, 0, 1, 1, 0, 0, 1, 0, 1, 1])),
    **{f"collinear-1e-{d}": functools.partial(_near_collinear_case, d)
       for d in (3, 4, 5, 6, 7)},
}


@pytest.mark.parametrize("case", REFERENCE_CASES.values(), ids=list(REFERENCE_CASES))
def test_logistic_fit_matches_the_weighted_qr_reference(case):
    # Both loops take the same Newton steps in exact arithmetic; they round
    # differently, by at most a few ulps times the condition number of the
    # column-scaled design (measured: up to 1.0 of cond * eps, at cond 1).
    x, y = case()
    probs, iterations, trace = _weighted_qr_logistic_fit(x, y)
    fit = logistic_fit(DesignMatrix(x, tuple(f"x{j}" for j in range(x.shape[1]))), y)
    assert fit.iterations == iterations
    assert len(trace) == iterations - 1
    cond = np.linalg.cond(x / np.linalg.norm(x, axis=0))
    np.testing.assert_allclose(fit.fitted_probabilities, probs, rtol=0,
                               atol=8 * cond * np.finfo(float).eps)


def test_logistic_names_a_repeated_column_before_any_step(monkeypatch):
    steps = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: steps.append(1) or cholesky(a))
    x, y = _affine_case(1.0, 0.0)
    design = DesignMatrix(np.column_stack([x, x[:, 1]]), ("intercept", "x", "x_again"))
    with pytest.raises(SingularDesignError) as err:
        logistic_fit(design, y)
    assert err.value.column == "x_again"
    assert steps == []


@pytest.mark.parametrize("pivot", [0.0, 1e-15])
def test_logistic_stops_when_the_weighted_gram_turns_singular(monkeypatch, pivot):
    # The second step's Gram factor gets a last pivot that is zero, or
    # nonzero but below the rank test's n * eps relative tolerance (2000 rows:
    # 4.4e-13).
    cholesky = np.linalg.cholesky
    calls = []

    def degenerate(a):
        factor = cholesky(a)
        calls.append(1)
        if len(calls) == 2:
            factor[-1, -1] = pivot * np.abs(np.diag(factor)).max()
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", degenerate)
    x, y = _affine_case(1.0, 0.0)
    with pytest.raises(ConvergenceError, match="became singular") as err:
        logistic_fit(DesignMatrix(x, ("intercept", "x")), y)
    assert [i for i, _ in err.value.trace] == [1]


def test_logistic_stops_when_the_weighted_gram_cannot_be_factored(monkeypatch):
    cholesky = np.linalg.cholesky
    calls = []

    def failing(a):
        calls.append(1)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    x, y = _affine_case(1.0, 0.0)
    with pytest.raises(ConvergenceError, match="became singular") as err:
        logistic_fit(DesignMatrix(x, ("intercept", "x")), y)
    assert [i for i, _ in err.value.trace] == [1, 2]


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


@settings(max_examples=200, deadline=None)
@given(n=st.integers(5, 2000), distinct=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
@example(n=6, distinct=2000, seed=0)    # every cut is a score itself
@example(n=11, distinct=3, seed=1)      # ties, and scores on the cuts
def test_propensity_strata_match_the_left_searchsorted_rank(n, distinct, seed):
    # Scores drawn from `distinct` values: heavy ties for small counts, and
    # cuts that land exactly on a score whenever n - 1 is a multiple of 5 or
    # a cut falls inside a run of ties.
    g = np.random.default_rng(seed)
    probs = g.choice(g.uniform(0.01, 0.99, distinct), size=n)
    cuts = np.quantile(probs, np.arange(1, 5) / 5)
    expected = np.searchsorted(cuts, probs, side="left") + 1
    if np.unique(expected).size < 5:
        with pytest.raises(StratificationError):
            propensity_strata(probs)
        return
    labels = propensity_strata(probs)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, expected)


def test_standardization_equals_slope_without_interactions():
    ds = linear_arm_data(400, seed=21)
    fit = ols_fit(*build_design(ds, ARM_MODEL))
    contrast = standardization_contrast(ds, ARM_MODEL, "t")
    # Algebraic identity, exact up to summation rounding in the row mean.
    assert contrast == pytest.approx(fit.coefficient("t"), rel=1e-14)


def test_standardization_needs_a_term_with_the_treatment():
    # Such a model's contrast is 0 whatever the data, and its bootstrap
    # would report a (0, 0) interval; the point fit raises before any refit.
    ds = Dataset({"y": np.arange(10.0), "t": np.tile([0.0, 1.0], 5),
                  "x": np.linspace(0.0, 1.0, 10)})
    model = ModelSpec("y", (Term(("x",)),))
    with pytest.raises(ParameterError, match="no model term mentions the treatment 't'"):
        standardization_contrast(ds, model, "t")
    with pytest.raises(ParameterError, match="treatment 't'"):
        standardization_bootstrap_se(ds, model, "t", RngStream(3), replicates=20)


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


def _contrast_on_counterfactual_copies(ds, model, treatment):
    """The contrast as once computed: every treatment-bearing term evaluated
    on copies of the dataset with the treatment set to 1 and to 0."""
    fit = ols_fit(*build_design(ds, model))
    ds_hi = Dataset({**ds.columns, treatment: np.ones(ds.n_rows)})
    ds_lo = Dataset({**ds.columns, treatment: np.zeros(ds.n_rows)})
    diff = np.zeros(ds.n_rows)
    for j, term in enumerate(model.terms):
        if term.mentions(treatment):
            diff += fit.coefficients[j + 1] * (term.evaluate(ds_hi) - term.evaluate(ds_lo))
    return float(np.mean(diff))


@pytest.mark.parametrize("factors", [
    (("t",),),
    (("t",), ("l",), ("t", "l")),
    (("t",), ("t", "t")),
    (("t",), ("l", "t", "m")),
], ids=["t", "t+l+t:l", "t+t:t", "t+l:t:m"])
def test_standardization_matches_counterfactual_copies_bit_for_bit(factors):
    # Multiplying by 1.0 and subtracting a signed zero are exact, so the
    # shift read off the other factors equals the difference of the two
    # counterfactual evaluations to the last bit.  The treatment is a dose
    # (0, 1, 2), so t and t:t are not collinear; l holds negatives and zeros.
    g = np.random.default_rng(8)
    n = 200
    t = g.integers(0, 3, size=n).astype(float)
    l = np.round(g.normal(size=n))
    m = g.normal(size=n)
    y = 1.0 + 2.0 * t + l - 0.5 * t * l * m + 0.3 * t * t + g.normal(size=n)
    ds = Dataset({"y": y, "t": t, "l": l, "m": m})
    assert (l < 0).any() and (l == 0).any()
    model = ModelSpec("y", tuple(Term(f) for f in factors))
    assert standardization_contrast(ds, model, "t") == \
        _contrast_on_counterfactual_copies(ds, model, "t")


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
        (1.7220673047341317, 0.6791088418918034, 3.021154661288625)


def _qr_modes(monkeypatch):
    """The ``mode`` of every ``np.linalg.qr`` call made from here on."""
    modes = []
    qr = np.linalg.qr

    def recorded(a, mode="reduced"):
        modes.append(mode)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    return modes


def test_ps_refits_factor_one_outcome_design_per_replicate(monkeypatch):
    # The point factors three designs: the logistic fit's covariates, the
    # outcome fit's [X | y], and the covariates again for the basis every
    # replicate's propensity fit runs in.  Each replicate then factors only
    # its outcome design.  Each keeps only its triangular factor.  That
    # counts one QR per factorisation only while a design fits in one row
    # block: above one block a factorisation makes (blocks + 1) calls.  The
    # widest matrix factored here is the outcome fit's [X | y], 7 columns
    # at n = 2,000.
    assert len(list(row_chunks(2000, 7))) == 1
    modes = _qr_modes(monkeypatch)
    ci = ps_stratified_contrast(ps_pipeline_data(2000, seed=71), "y", "t", ["l"],
                                RngStream(72, (0,)), replicates=20)
    assert math.isfinite(ci.point)
    assert modes == ["r"] * (3 + 20)


def test_standardization_refits_factor_each_design_once(monkeypatch):
    # Two R-only QRs whatever B: one of [X | y] for the point, one of X for
    # the basis every replicate is solved in.  Each is one QR because n = 300
    # fits in one row block; above one block a factorisation makes
    # (blocks + 1) calls.
    assert len(list(row_chunks(300, 3))) == 1
    modes = _qr_modes(monkeypatch)
    for replicates in (20, 200):
        modes.clear()
        ci = standardization_bootstrap_se(linear_arm_data(300, seed=8), ARM_MODEL, "t",
                                          RngStream(6, (1,)), replicates=replicates)
        assert math.isfinite(ci.point)
        assert modes == ["r", "r"]


def _refit_on_every_resample(ds, model, stream):
    """The S interval as a refit on each of 200 resamples gives it."""
    return _percentile_over_refits(ds, stream, 200, 0.05,
                                   lambda d: standardization_contrast(d, model, "t"))


def _outcome(fit):
    """``fit()``'s interval, or the error it raises."""
    try:
        return fit()
    except Exception as exc:
        return exc


@pytest.mark.parametrize("zeros", [2, 4])
@pytest.mark.parametrize("seed", range(40))
def test_standardization_drops_the_replicates_a_refit_drops(seed, zeros):
    # c is 1 except on the first rows, so a resample that misses them all
    # makes c a copy of the intercept.  Such a Gram's Cholesky pivot sits
    # near sqrt(eps) of the largest, not near eps, so a screen at eps keeps
    # singular replicates: it drops fewer than the refits at most seeds.
    # With two such rows about 13% of resamples are singular and the 5%
    # budget is blown; with four, about 1.6% are dropped and the interval
    # is read off the rest.
    g = np.random.default_rng(seed)
    n = 60
    c = np.ones(n)
    c[:zeros] = 0.0
    t = (g.random(n) < 0.5).astype(float)
    x = g.uniform(size=n)
    y = 1 + 2 * t + c + x + g.normal(size=n)
    ds = Dataset({"y": y, "t": t, "c": c, "x": x})
    model = ModelSpec("y", (Term(("t",)), Term(("c",)), Term(("x",))))
    expected = _outcome(lambda: _refit_on_every_resample(ds, model, RngStream(seed, (1,))))
    got = _outcome(lambda: standardization_bootstrap_se(ds, model, "t", RngStream(seed, (1,)),
                                                        replicates=200))
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert got.point == expected.point
        assert got.lower == pytest.approx(expected.lower, abs=1e-10)
        assert got.upper == pytest.approx(expected.upper, abs=1e-10)


@pytest.mark.parametrize("n, offset, scale, factors, rel", [
    (500, 1e6, 1.0, (("t",), ("x",)), 1e-8),
    (500, 1e6, 1.0, (("t",), ("x",), ("t", "x")), 1e-8),
    (500, 0.0, 1.0, (("t",), ("x",), ("t", "x")), 1e-12),
    (500, 0.0, 4e-13, (("t",), ("x",)), 1e-12),
    (25_000, 1e6, 1.0, (("t",), ("x",)), 1e-8),
], ids=["offset", "offset-interaction", "interaction", "tiny-scale", "offset-blocks"])
def test_standardization_batched_replicates_match_refits_on_hard_designs(
        n, offset, scale, factors, rel):
    # A covariate offset by 1e6 costs both paths digits: against the same
    # resamples of the unshifted column, each interval moves by about 1e-10
    # relative (2e-9 for the refits with the interaction).  The t:x term's
    # shift column is x, so its contrast weights every replicate's counts.
    # At scale 4e-13 the design just passes the rank test, and a refit
    # drops the resamples whose x pivot falls below it, though their
    # pivots in the basis Q are healthy: S must drop them too.  That scale
    # is tied to the rank tolerance at n = 500, max(n, p) * eps, so the case
    # stays at that n.  At n = 25,000 both the basis and every refit factor
    # their design by row blocks.
    if n > 500:
        assert len(list(row_chunks(n, len(factors) + 1))) > 1
    g = np.random.default_rng(7)
    t = (g.random(n) < 0.5).astype(float)
    x = g.uniform(size=n)
    y = 1 + 2 * t + 3 * x + 1.5 * t * x + g.normal(size=n)
    ds = Dataset({"y": y, "t": t, "x": offset + scale * x})
    model = ModelSpec("y", tuple(Term(f) for f in factors))
    expected = _refit_on_every_resample(ds, model, RngStream(3, (3,)))
    got = standardization_bootstrap_se(ds, model, "t", RngStream(3, (3,)), replicates=200)
    assert got.point == expected.point
    assert got.lower == pytest.approx(expected.lower, rel=rel)
    assert got.upper == pytest.approx(expected.upper, rel=rel)


STRATUM_NAMES = tuple(f"stratum_{s}" for s in range(2, 6))
PS_MODEL = ModelSpec("y", tuple(Term((name,)) for name in ("t", *STRATUM_NAMES)))


def _ps_pipeline(ds, covariates):
    """The PS pipeline on one dataset: propensity fit, quintile strata, then
    the standardized contrast of the outcome on treatment and strata."""
    fit = logistic_fit(design_from_columns(ds, covariates), ds.column("t"))
    labels = propensity_strata(fit.fitted_probabilities)
    dummies = {name: (labels == s).astype(float) for s, name in enumerate(STRATUM_NAMES, 2)}
    return standardization_contrast(
        Dataset({"y": ds.column("y"), "t": ds.column("t"), **dummies}), PS_MODEL, "t")


def _tied_score_data():
    """The failure-budget fixture: coarse covariate values tie the scores,
    and 2 of its 100 resamples at seed 4 separate the classes."""
    g = np.random.default_rng([4, 40, 1])
    x = np.round(g.normal(size=40), 1)
    t = (g.random(40) < 1 / (1 + np.exp(-2 * x))).astype(float)
    y = 1 + 2 * t + x + g.normal(size=40)
    return Dataset({"y": y, "t": t, "x": x})


def _coarse_level_data(levels, repeats, seed):
    """A covariate of ``levels`` values, each on ``repeats`` rows: a tie
    block can span a whole quintile, so some resamples leave a stratum
    empty (about 5% at 8 levels of 10 rows, 1% at 12 of 5)."""
    g = np.random.default_rng(seed)
    x = np.repeat(np.arange(levels, dtype=float), repeats)
    t = (g.random(x.size) < expit((x - levels / 2) / levels)).astype(float)
    y = 1 + 2 * t + x + g.normal(size=x.size)
    return Dataset({"y": y, "t": t, "x": x})


def _rare_level_data(seed):
    """c is 1 except on 3 rows, so about 5% of resamples make it a copy of
    the intercept and a refit of the propensity design is singular."""
    g = np.random.default_rng(seed)
    n = 60
    c = np.ones(n)
    c[:3] = 0.0
    x = g.uniform(size=n)
    t = (g.random(n) < expit(-1 + 2 * x)).astype(float)
    y = 1 + 2 * t + c + 3 * x + g.normal(size=n)
    return Dataset({"y": y, "t": t, "c": c, "x": x})


def _shifted_data(offset, scale):
    ds = ps_pipeline_data(500, seed=91)
    return Dataset({"y": ds.column("y"), "t": ds.column("t"),
                    "l": offset + scale * ds.column("l")})


@pytest.mark.parametrize("make, covariates, seed", [
    (_tied_score_data, ["x"], 4),
    (functools.partial(_coarse_level_data, 8, 10, 0), ["x"], 0),
    (functools.partial(_coarse_level_data, 12, 5, 2), ["x"], 2),
    *[(functools.partial(_rare_level_data, seed), ["c", "x"], seed)
      for seed in range(10)],
    (functools.partial(_shifted_data, 1e6, 1.0), ["l"], 5),
    (functools.partial(_shifted_data, 1e8, 1.0), ["l"], 5),
    (functools.partial(_shifted_data, 0.0, 4e-13), ["l"], 5),
], ids=["tied-scores", "empty-strata-8", "empty-strata-12",
        *[f"rare-level-{seed}" for seed in range(10)],
        "offset-1e6", "offset-1e8", "tiny-scale"])
def test_ps_drops_the_replicates_a_refit_drops(make, covariates, seed):
    # A replicate's propensity fit runs in the rows of the point fit's
    # basis, and its strata are cut with its chunk's.  A resample the rank
    # screen rejects, whose Newton iterations fail, that leaves a stratum
    # empty or whose outcome fit fails is refit through the whole pipeline.
    # So the interval, or the error, is that of a refit on every resample.
    # At scale 4e-13 the covariate just passes the rank test at n = 500.
    ds = make()
    expected = _outcome(lambda: _percentile_over_refits(
        ds, RngStream(seed, (1,)), 100, 0.05, lambda d: _ps_pipeline(d, covariates)))
    got = _outcome(lambda: ps_stratified_contrast(ds, "y", "t", covariates,
                                                  RngStream(seed, (1,)), replicates=100))
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert got == expected


@pytest.mark.parametrize("ds, covariates", [
    (_tied_score_data(), ["x"]),
    (ps_pipeline_data(2000, seed=71), ["l"]),
], ids=["tied-scores", "continuous"])
def test_ps_chunking_does_not_change_results(monkeypatch, ds, covariates):
    # Seven replicates a chunk instead of all of them at once.  The chunk
    # size also bounds the row blocks of a factorisation; at 7 * n cells
    # every design here, 7 columns at most, still fits in one block.
    import funcavg.bootstrap as bs

    def run():
        return ps_stratified_contrast(ds, "y", "t", covariates, RngStream(4, (1,)),
                                      replicates=100)

    whole = run()
    monkeypatch.setattr(bs, "_CHUNK_CELLS", 7 * ds.n_rows)
    assert len(list(row_chunks(100, ds.n_rows))) == 15
    assert run() == whole


def test_chunk_strata_cuts_match_each_row_alone():
    # One quantile call over a chunk's (k, n) scores gives each row the
    # cuts it gets alone, tied scores and empty strata included.
    g = np.random.default_rng(12)
    scores = np.concatenate([g.uniform(size=(4, 50)),
                             np.round(g.uniform(size=(8, 50)), 1),
                             np.where(g.random((4, 50)) < 0.7, 0.25, 0.75)])
    cuts = _stratum_cuts(scores)
    assert cuts.shape == (4, len(scores))
    for row, row_cuts in zip(scores, cuts.T):
        labels = _stratum_labels(row, row_cuts)
        try:
            expected = propensity_strata(row)
        except StratificationError:
            assert _empty_strata(labels).size
        else:
            assert np.array_equal(labels, expected)
            assert not _empty_strata(labels).size


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
