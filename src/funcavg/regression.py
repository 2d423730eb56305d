"""Regression fits and coefficient intervals, classical and range-based.

OLS runs through a thin QR factorization.  Coefficients are linear in the
response, ``beta_s = w_s . y``, and the weight rows ``w_s`` are kept on the
fit because the range-based coefficient interval needs their squared norms.
Alongside the Student-t interval this module provides one driven entirely
by the residual extremes: valid for symmetric bounded errors, no variance
estimate involved.

The causal helpers (standardization, propensity-score stratification)
re-run their whole pipeline inside each bootstrap replicate, so their
interval reflects every estimated stage.  :func:`standardization_contrast`
owns both the fit and the contrast: it takes a dataset and a model built
from :class:`~funcavg.formula.Term` objects, fits the model by OLS and
standardizes the treatment contrast over the fitted predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import expit, stdtrit

from .bootstrap import BootstrapConfig, percentile_ci, resample
from .dataset import Dataset
from .errors import (ConvergenceError, DataError, ParameterError, SingularDesignError,
                     StratificationError)
from .formula import ModelSpec, Term
from .intervals import IntervalEstimate, check_alpha
from .rng import RngStream

__all__ = [
    "DesignMatrix",
    "RegressionFit",
    "LogisticFit",
    "build_design",
    "design_from_columns",
    "ols_fit",
    "t_ci",
    "u_concentration_ci",
    "logistic_fit",
    "propensity_strata",
    "standardization_contrast",
    "standardization_bootstrap_se",
    "ps_stratified_contrast",
]


@dataclass(frozen=True)
class DesignMatrix:
    """Dense design matrix with named columns."""

    matrix: np.ndarray = field(repr=False)
    column_names: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
            raise DataError(f"design matrix must be 2-D and non-empty, "
                            f"got shape {m.shape}")
        if len(self.column_names) != m.shape[1]:
            raise DataError(f"{len(self.column_names)} names for {m.shape[1]} columns")
        if not np.all(np.isfinite(m)):
            raise DataError("design matrix contains non-finite values")


def _evaluate_terms(dataset: Dataset, terms: Sequence[Term]) -> DesignMatrix:
    cols = [np.ones(dataset.n_rows)]
    names = ["intercept"]
    for term in terms:
        cols.append(term.evaluate(dataset))
        names.append(term.label)
    return DesignMatrix(matrix=np.column_stack(cols), column_names=tuple(names))


def build_design(dataset: Dataset, model: ModelSpec) -> tuple[DesignMatrix, np.ndarray]:
    """Evaluate a parsed model against a dataset: (design, response)."""
    return _evaluate_terms(dataset, model.terms), dataset.column(model.outcome)


def design_from_columns(dataset: Dataset, names: Sequence[str]) -> DesignMatrix:
    """Design of plain columns in the given order, intercept first."""
    return _evaluate_terms(dataset, [Term((name,)) for name in names])


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares fit with the response-weight rows kept for intervals."""

    design: DesignMatrix
    coefficients: np.ndarray
    residuals: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)   # (p, n); coefficients = weights @ y
    residual_variance: float
    standard_errors: np.ndarray
    df_residual: int

    def coefficient_index(self, coefficient: int | str) -> int:
        if isinstance(coefficient, str):
            try:
                return self.design.column_names.index(coefficient)
            except ValueError:
                raise ParameterError(
                    f"no coefficient named {coefficient!r}; available: "
                    f"{', '.join(self.design.column_names)}") from None
        idx = int(coefficient)
        if not 0 <= idx < len(self.coefficients):
            raise ParameterError(f"coefficient index {idx} out of range")
        return idx

    def coefficient(self, coefficient: int | str) -> float:
        return float(self.coefficients[self.coefficient_index(coefficient)])


def _qr_or_raise(matrix: np.ndarray, names: tuple[str, ...]):
    q, r = np.linalg.qr(matrix)
    diag = np.abs(np.diag(r))
    tol = max(matrix.shape) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    bad = np.flatnonzero(diag <= tol)
    if bad.size:
        raise SingularDesignError(names[int(bad[0])])
    return q, r


def ols_fit(design: DesignMatrix, response) -> RegressionFit:
    """Ordinary least squares via thin QR.

    Requires strictly more rows than columns so the residual variance has
    at least one degree of freedom.  A rank-deficient design raises
    :class:`~funcavg.errors.SingularDesignError` naming the first column
    that adds no new direction.
    """
    y = np.asarray(response, dtype=float)
    x = design.matrix
    n, p = x.shape
    if y.shape != (n,):
        raise DataError(f"response shape {y.shape} does not match design rows {n}")
    if not np.all(np.isfinite(y)):
        raise DataError("response contains non-finite values")
    if n <= p:
        raise DataError(f"need more observations than design columns, "
                        f"got n={n}, p={p}")
    q, r = _qr_or_raise(x, design.column_names)
    beta = solve_triangular(r, q.T @ y)
    weights = solve_triangular(r, q.T)
    residuals = y - x @ beta
    df = n - p
    s2 = float(residuals @ residuals) / df
    se = np.sqrt(s2 * np.sum(weights * weights, axis=1))
    return RegressionFit(design=design, coefficients=beta,
                         residuals=residuals, weights=weights,
                         residual_variance=s2, standard_errors=se, df_residual=df)


def t_ci(fit: RegressionFit, coefficient: int | str = 1,
         alpha: float = 0.05) -> IntervalEstimate:
    """Classical Student-t interval for one coefficient."""
    alpha = check_alpha(alpha)
    j = fit.coefficient_index(coefficient)
    # The Student-t quantile; ``scipy.stats.t.ppf`` computes it with this
    # same function, without the cost of importing ``scipy.stats``.
    crit = float(stdtrit(fit.df_residual, 1.0 - alpha / 2.0))
    half = crit * float(fit.standard_errors[j])
    b = float(fit.coefficients[j])
    return IntervalEstimate(point=b, lower=b - half, upper=b + half,
                            alpha=alpha, method="t-dist")


def u_concentration_ci(fit: RegressionFit, coefficient: int | str = 1,
                       alpha: float = 0.05) -> IntervalEstimate:
    """Coefficient interval from the residual range alone.

    ``beta_s`` is the weighted response sum ``w_s . y``, so when the errors
    are bounded and symmetrically concentrated, their span pins down how
    far the sum can wander:

        beta_s +/- (max residual - min residual)
                   * ||w_s||_2 * sqrt(log(2 / alpha) / 6)

    The observed residual extremes stand in for the unknown error support.
    No variance estimate and no normality enter; the price is width.
    """
    alpha = check_alpha(alpha)
    j = fit.coefficient_index(coefficient)
    spread = float(fit.residuals.max() - fit.residuals.min())
    scale = math.sqrt(float(np.sum(fit.weights[j] ** 2)))
    half = spread * scale * math.sqrt(math.log(2.0 / alpha) / 6.0)
    b = float(fit.coefficients[j])
    return IntervalEstimate(point=b, lower=b - half, upper=b + half,
                            alpha=alpha, method="u-concentration")


@dataclass(frozen=True)
class LogisticFit:
    """Converged logistic regression fit."""

    coefficients: np.ndarray
    fitted_probabilities: np.ndarray = field(repr=False)
    iterations: int
    score_norm: float


_LOGIT_TOL = 1e-8
_LOGIT_MAX_ITER = 50
_LOGIT_ETA_LIMIT = 30.0
_N_STRATA = 5  # propensity-score quintiles


def logistic_fit(design: DesignMatrix, response) -> LogisticFit:
    """Logistic regression by Newton iterations on the log-likelihood.

    Stops when the score's max-norm drops below ``1e-8``; gives up with a
    :class:`~funcavg.errors.ConvergenceError` carrying the iteration trace
    after 50 iterations or when fitted log-odds diverge, the signature of
    separated classes.
    """
    y = np.asarray(response, dtype=float)
    x = design.matrix
    n, p = x.shape
    if y.shape != (n,):
        raise DataError(f"response shape {y.shape} does not match design rows {n}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("logistic response must be coded 0/1")
    if n <= p:
        raise DataError(f"need more observations than design columns, "
                        f"got n={n}, p={p}")

    beta = np.zeros(p)
    trace: list[tuple[int, float]] = []
    for iteration in range(1, _LOGIT_MAX_ITER + 1):
        eta = x @ beta
        if np.abs(eta).max() > _LOGIT_ETA_LIMIT:
            raise ConvergenceError(
                "fitted log-odds diverged; the classes appear separable", trace)
        probs = expit(eta)
        score = x.T @ (y - probs)
        norm = float(np.abs(score).max())
        trace.append((iteration, norm))
        if norm < _LOGIT_TOL:
            return LogisticFit(coefficients=beta, fitted_probabilities=probs,
                               iterations=iteration, score_norm=norm)
        w = probs * (1.0 - probs)
        sqrt_w = np.sqrt(w)
        try:
            qw, rw = _qr_or_raise(x * sqrt_w[:, None], design.column_names)
        except SingularDesignError:
            if iteration == 1:
                raise
            raise ConvergenceError(
                "weighted design became singular during iteration; "
                "the classes appear separable", trace) from None
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sqrt_w > 0, (y - probs) / sqrt_w, 0.0)
        beta = beta + solve_triangular(rw, qw.T @ z)

    raise ConvergenceError(
        f"no convergence after {_LOGIT_MAX_ITER} iterations", trace)


def propensity_strata(scores) -> np.ndarray:
    """Stratum labels 1..5: the quintile of each row's propensity ``scores``.

    Cut points are the ``j/5`` quantiles (linear interpolation).  A score
    exactly equal to a cut point goes to the lower stratum, deterministic
    for every input ordering.  If heavy ties leave any stratum empty, a
    :class:`~funcavg.errors.StratificationError` is raised rather than
    silently fitting with fewer strata.
    """
    probs = np.asarray(scores, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise DataError("propensity scores must form a non-empty 1-D array")
    if probs.size < _N_STRATA:
        raise DataError(f"cannot form {_N_STRATA} strata from {probs.size} rows")
    cuts = np.quantile(probs, np.arange(1, _N_STRATA) / _N_STRATA)
    labels = np.searchsorted(cuts, probs, side="left").astype(np.int64) + 1
    empty = np.flatnonzero(np.bincount(labels, minlength=_N_STRATA + 1)[1:] == 0) + 1
    if empty.size:
        raise StratificationError(
            f"strata {', '.join(map(str, empty))} are empty; "
            "tied propensity scores cannot fill every quantile bin")
    return labels


def standardization_contrast(dataset: Dataset, model: ModelSpec, treatment: str) -> float:
    """Fit ``model`` by OLS, then average the predicted outcome shift when
    everyone moves from treatment 0 to 1.

    Predictions are rebuilt from the model terms with the treatment column
    set to 1 and then to 0, so squares and interactions involving the
    treatment update with it.  For a model with no treatment interactions
    this is exactly ``beta_treatment``.
    """
    dataset.column(treatment)
    fit = ols_fit(*build_design(dataset, model))
    involved = [j for j, term in enumerate(model.terms) if term.mentions(treatment)]
    if not involved:
        return 0.0
    # Terms without the treatment cancel in the prediction difference, so
    # only the treatment-bearing columns need re-evaluation.
    ds_hi = dataset.with_column(treatment, 1.0)
    ds_lo = dataset.with_column(treatment, 0.0)
    diff = np.zeros(dataset.n_rows)
    for j in involved:
        term = model.terms[j]
        diff += fit.coefficients[j + 1] * (term.evaluate(ds_hi) - term.evaluate(ds_lo))
    return float(np.mean(diff))


def _percentile_over_refits(dataset: Dataset, rng: RngStream, replicates: int,
                            alpha: float, point_fn: Callable[[Dataset], float]
                            ) -> IntervalEstimate:
    """Percentile interval of ``point_fn`` over bootstrap row resamples,
    dropping refits that fail as long as no more than 5% of them do."""
    alpha = check_alpha(alpha)
    every_row = np.arange(dataset.n_rows, dtype=float)

    def refit(rows: np.ndarray) -> float:
        # resample passes ``every_row`` itself for the original sample, which
        # is fitted on the dataset as given: a row copy makes strided CSV
        # columns contiguous, and that can move a fit in the last bits.
        if rows is every_row:
            return point_fn(dataset)
        return point_fn(dataset.take(rows.astype(np.intp)))

    config = BootstrapConfig(replicates, rng, max_failure_share=0.05)
    return percentile_ci(resample(every_row, config, refit), alpha)


def standardization_bootstrap_se(dataset: Dataset, model: ModelSpec, treatment: str,
                                 rng: RngStream, replicates: int = 1000,
                                 alpha: float = 0.05) -> IntervalEstimate:
    """Percentile interval for the standardized 1 vs 0 contrast under row
    resampling.

    Each replicate refits the model from scratch on a resampled dataset,
    through :func:`~funcavg.bootstrap.resample`.  Replicates whose refit
    raises a package error are dropped; more than 5% of them failing
    aborts with an error instead of quietly reporting a fragile interval.

    The name is older than the return value, which is an interval and not
    a standard error; it stays because perfbench's tracer wraps this
    function by name.
    """

    def point_fn(ds: Dataset) -> float:
        return standardization_contrast(ds, model, treatment)

    return _percentile_over_refits(dataset, rng, replicates, alpha, point_fn)


def ps_stratified_contrast(dataset: Dataset, outcome: str, treatment: str,
                           covariates: Sequence[str], rng: RngStream,
                           replicates: int = 1000,
                           alpha: float = 0.05) -> IntervalEstimate:
    """Treatment contrast adjusted by propensity-score quintile strata.

    Pipeline, repeated inside every bootstrap replicate: logistic
    propensity fit on the plain covariate columns, quintile strata from
    the fitted scores, OLS of the outcome on treatment plus stratum
    indicators, then standardization of the treatment contrast.
    """
    if not covariates:
        raise ParameterError("propensity stratification needs at least one covariate")

    # Stratum 1 is the baseline; strata 2..5 each get a 0/1 column.
    strata = range(2, _N_STRATA + 1)
    model = ModelSpec(outcome, tuple(Term((name,)) for name in
                                     (treatment, *(f"stratum_{s}" for s in strata))))

    def point_fn(ds: Dataset) -> float:
        logit_design = design_from_columns(ds, covariates)
        pfit = logistic_fit(logit_design, ds.column(treatment))
        labels = propensity_strata(pfit.fitted_probabilities)
        for s in strata:
            ds = ds.with_column(f"stratum_{s}", (labels == s).astype(float))
        return standardization_contrast(ds, model, treatment)

    return _percentile_over_refits(dataset, rng, replicates, alpha, point_fn)
