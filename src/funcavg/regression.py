"""Regression fits and coefficient intervals, classical and range-based.

OLS factors the augmented matrix ``[X | y]`` once, keeping only its
triangular factor: the leading p-by-p block is the ``R`` of ``X = QR`` and
the last column above the diagonal is ``Q^T y``, so the coefficients solve
``R b = Q^T y`` without ``Q`` ever being formed (Bjorck 1996, *Numerical
Methods for Least Squares Problems*).  Every R factor here comes from row
blocks (TSQR): each block of at most ``2**16`` cells is reduced to its own
``R``, and one QR of the stacked block factors gives the ``R`` of the
whole, so factoring a tall matrix never copies it whole (Demmel, Grigori,
Hoemmen & Langou 2012, SIAM J. Sci. Comput. 34:A206-A239).  Coefficients
are linear in the response, ``beta_s = w_s . y`` with ``w_s`` row ``s`` of
``R^-1 Q^T``; the intervals need only ``||w_s||_2``, which are the row
norms of ``R^-1`` as ``Q`` has orthonormal columns, so the fit keeps just
those.
Alongside the Student-t interval this module provides one driven entirely
by the residual extremes: valid for symmetric bounded errors, no variance
estimate involved.

The logistic fit factors its design once as well, ``X = QR``, and takes
its Newton steps for the coefficients of the orthonormal basis ``Q``:
each step solves a p-by-p system in the weighted Gram matrix ``Q^T W Q``
instead of factoring an n-by-p weighted copy of the design.

The causal helpers bootstrap every estimated stage.
:func:`standardization_contrast` owns both the fit and the contrast: it
takes a dataset and a model built from :class:`~funcavg.formula.Term`
objects, fits the model by OLS and standardizes the treatment contrast
over the fitted predictions.  Its bootstrap does not refit a resampled
dataset: a row resample is the dataset weighted by row counts, so each
replicate is a p-by-p weighted solve in the basis ``Q`` of the design,
factored once.  Propensity-score stratification factors its covariate
design once as well: each replicate runs the logistic fit's Newton
iterations in its rows of that basis, the strata of a chunk of replicates
are cut together, and only the outcome model is refit per replicate.  A
replicate that either shortcut cannot vouch for is refit on its resampled
rows, so both bootstraps drop the replicates a refit on every resample
drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bootstrap import BootstrapDistribution, index_blocks, percentile_ci, row_chunks
from .dataset import Dataset
from .errors import (ConvergenceError, DataError, FuncavgError, ParameterError, ResampleError,
                     SingularDesignError, StratificationError, check_alpha, check_count,
                     finite_array)
from .formula import ModelSpec, Term
from .intervals import IntervalEstimate
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
        m = finite_array(self.matrix, "design matrix", ndims=(2,))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if len(self.column_names) != m.shape[1]:
            raise DataError(f"{len(self.column_names)} names for {m.shape[1]} columns")


def _evaluate_terms(dataset: Dataset, terms: Sequence[Term]) -> DesignMatrix:
    # Column-major: each column is written contiguously, and each row block
    # the least-squares solve copies out of it is one slice per column.
    matrix = np.empty((dataset.n_rows, 1 + len(terms)), order="F")
    matrix[:, 0] = 1.0
    for j, term in enumerate(terms, start=1):
        matrix[:, j] = term.evaluate(dataset)
    return DesignMatrix(matrix=matrix,
                        column_names=("intercept", *(term.label for term in terms)))


def build_design(dataset: Dataset, model: ModelSpec) -> tuple[DesignMatrix, np.ndarray]:
    """Evaluate a parsed model against a dataset: (design, response)."""
    return _evaluate_terms(dataset, model.terms), dataset.column(model.outcome)


def design_from_columns(dataset: Dataset, names: Sequence[str]) -> DesignMatrix:
    """Design of plain columns in the given order, intercept first."""
    return _evaluate_terms(dataset, [Term((name,)) for name in names])


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares fit with the response-weight norms kept for intervals."""

    design: DesignMatrix
    coefficients: np.ndarray
    residuals: np.ndarray = field(repr=False)
    weight_norms: np.ndarray   # (p,); ||w_s||_2, where coefficients[s] = w_s . y
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
        return check_count(coefficient, "coefficient index", 0, len(self.coefficients))

    def coefficient(self, coefficient: int | str) -> float:
        return float(self.coefficients[self.coefficient_index(coefficient)])


def _r_factor(matrix: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """Triangular factor of ``[matrix | rhs]`` (of ``matrix`` alone when
    ``rhs`` is None), factored by row blocks (TSQR).

    Each :func:`~funcavg.bootstrap.row_chunks` block of at most ``2**16``
    cells is copied into one small Fortran-ordered buffer and reduced to
    its own R; the R of the stacked block factors is the R of the whole,
    up to the signs of its rows, and as backward stable as one Householder
    QR (Demmel, Grigori, Hoemmen & Langou 2012).  So the factorisation
    never copies the whole matrix.  A matrix that fits in one block gets
    exactly the one QR of it, with no second factorisation.
    """
    n, p = matrix.shape
    width = p + (rhs is not None)
    chunks = list(row_chunks(n, width))
    block = np.empty((chunks[0][1], width), order="F")
    factors = []
    for start, stop in chunks:
        rows = block[:stop - start]
        rows[:, :p] = matrix[start:stop]
        if rhs is not None:
            rows[:, p] = rhs[start:stop]
        factors.append(np.linalg.qr(rows, mode="r"))
    if len(factors) == 1:
        return factors[0]
    return np.linalg.qr(np.concatenate(factors), mode="r")


def _qr_solve(matrix: np.ndarray, rhs: np.ndarray, names: tuple[str, ...]):
    """``(b, R)``: least squares ``matrix @ b ~ rhs`` from the triangular
    factor of ``[matrix | rhs]`` (:func:`_r_factor`, by row blocks), whose
    leading block is ``R`` and whose last column holds ``Q^T rhs``.

    Requires strictly more rows than columns, and raises
    :class:`~funcavg.errors.SingularDesignError` at the first dependent
    column.
    """
    n, p = matrix.shape
    if n <= p:
        raise DataError(f"need more observations than design columns, "
                        f"got n={n}, p={p}")
    r = _r_factor(matrix, rhs)
    r_x = r[:p, :p]
    _check_rank(r_x, (n, p), names)
    return np.linalg.solve(r_x, r[:p, p]), r_x


def _rank_tolerance(shape: tuple[int, int]) -> float:
    """``max(shape) * eps``: the smallest share of the largest pivot that a
    pivot of a full-rank matrix of ``shape`` may hold."""
    return max(shape) * np.finfo(float).eps


def _check_rank(r: np.ndarray, shape: tuple[int, int], names: tuple[str, ...]) -> None:
    """Raise :class:`~funcavg.errors.SingularDesignError` at the first column
    whose pivot in ``r``, the triangular factor of a matrix of ``shape``, is
    at most :func:`_rank_tolerance` times the largest pivot."""
    diag = np.abs(np.diag(r))
    tol = _rank_tolerance(shape) * (diag.max() if diag.size else 0.0)
    bad = np.flatnonzero(diag <= tol)
    if bad.size:
        raise SingularDesignError(names[int(bad[0])])


def _orthonormal_basis(design: DesignMatrix):
    """``(Q, R)`` with ``X = QR``: ``R`` from :func:`_r_factor` of the
    design, rank-checked by :func:`_check_rank`, and ``Q = X R^-1``."""
    x = design.matrix
    r = _r_factor(x)
    _check_rank(r, x.shape, design.column_names)
    return x @ np.linalg.inv(r), r


def ols_fit(design: DesignMatrix, response) -> RegressionFit:
    """Ordinary least squares from the R factor of ``[X | y]``, factored by
    row blocks (:func:`_r_factor`), so the fit copies no more than one
    block of the design at a time.

    The residuals are ``y - X b``; the weight norms are the row norms of
    ``R^-1`` and the residual variance is read off the residuals.
    Requires strictly more rows than columns so the residual variance has
    at least one degree of freedom.  A rank-deficient design raises
    :class:`~funcavg.errors.SingularDesignError` naming the first column
    that adds no new direction.
    """
    y = finite_array(response, "response")
    x = design.matrix
    n, p = x.shape
    if y.shape != (n,):
        raise DataError(f"response shape {y.shape} does not match design rows {n}")
    beta, r = _qr_solve(x, y, design.column_names)
    r_inv = np.linalg.solve(r, np.eye(p))
    squared_norms = np.sum(r_inv * r_inv, axis=1)
    residuals = y - x @ beta
    df = n - p
    s2 = float(residuals @ residuals) / df
    return RegressionFit(design=design, coefficients=beta, residuals=residuals,
                         weight_norms=np.sqrt(squared_norms), residual_variance=s2,
                         standard_errors=np.sqrt(s2 * squared_norms), df_residual=df)


def t_ci(fit: RegressionFit, coefficient: int | str = 1,
         alpha: float = 0.05) -> IntervalEstimate:
    """Classical Student-t interval for one coefficient."""
    alpha = check_alpha(alpha)
    j = fit.coefficient_index(coefficient)
    # The Student-t quantile, the function ``scipy.stats.t.ppf`` uses.  Its
    # ``scipy.special`` import is deferred to the first call, so commands
    # that never build a t interval never pay for it.
    from scipy.special import stdtrit

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
    half = spread * float(fit.weight_norms[j]) * math.sqrt(math.log(2.0 / alpha) / 6.0)
    b = float(fit.coefficients[j])
    return IntervalEstimate(point=b, lower=b - half, upper=b + half,
                            alpha=alpha, method="u-concentration")


@dataclass(frozen=True)
class LogisticFit:
    """Converged logistic regression fit."""

    coefficients: np.ndarray
    fitted_probabilities: np.ndarray = field(repr=False)
    iterations: int
    decrement: float


_LOGIT_TOL = 1e-8
_LOGIT_MAX_ITER = 50
_LOGIT_ETA_LIMIT = 30.0
_N_STRATA = 5  # propensity-score quintiles


def logistic_fit(design: DesignMatrix, response) -> LogisticFit:
    """Logistic regression by Newton iterations on the log-likelihood.

    The design is factored once, ``X = Q R``, and Newton runs on the
    coefficients ``g = R beta`` of the orthonormal basis ``Q``.  Each
    step then solves a p-by-p system in the weighted Gram matrix
    ``Q^T W Q`` rather than refactoring an n-by-p weighted copy of the
    design; Newton's method is affine invariant, so the iterates are those
    of the fit on ``X`` itself.  A rank-deficient design raises
    :class:`~funcavg.errors.SingularDesignError` naming the first column
    that adds no new direction, before any step.

    Stops once the Newton decrement of the last step, ``score . step``,
    drops below ``1e-8``: the log-likelihood gain that step predicted.
    The decrement is unchanged by any affine map of the design columns,
    so one tolerance serves covariates of every scale and offset.  Gives
    up with a :class:`~funcavg.errors.ConvergenceError` carrying the
    iteration trace after 50 iterations, when fitted log-odds diverge,
    the signature of separated classes, or when the weighted Gram matrix
    turns numerically singular.

    The columns are used as given, not centred.  A covariate with a large
    offset enters every log-odds through ``X R^-1``, whose entries are
    then differences of terms near ``offset`` over the column's spread,
    and costs digits past an offset of about ``1e7``: at ``1e8`` on 2,000
    rows the fitted probabilities differ from those of the unshifted
    covariate by up to about ``5e-9``.  A BLAS whose kernels fuse
    multiply-add rounds each entry of that product once, which leaves only
    the rounding of the stored column ``x + offset`` itself: about
    ``2e-9`` at ``1e8``, and nothing when the column holds its values
    exactly.  Subtract such an offset from the column before fitting when
    the probabilities themselves are read.
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

    q, r0 = _orthonormal_basis(design)
    g, probs, iterations, decrement = _logit_newton(q, y)
    return LogisticFit(coefficients=np.linalg.solve(r0, g), fitted_probabilities=probs,
                       iterations=iterations, decrement=decrement)


def _logit_newton(q: np.ndarray, y: np.ndarray):
    """``(g, probs, iterations, decrement)``: Newton's iterations for the
    logistic coefficients ``g`` of the columns of ``q``, started from zero,
    with the stopping rule and failures :func:`logistic_fit` documents."""
    g, decrement = np.zeros(q.shape[1]), math.inf
    tolerance = _rank_tolerance(q.shape)
    trace: list[tuple[int, float]] = []
    for iteration in range(1, _LOGIT_MAX_ITER + 1):
        eta = q @ g
        if np.abs(eta).max() > _LOGIT_ETA_LIMIT:
            raise ConvergenceError(
                "fitted log-odds diverged; the classes appear separable", trace)
        probs = 1.0 / (1.0 + np.exp(-eta))
        if decrement < _LOGIT_TOL:
            return g, probs, iteration, decrement
        # |eta| <= 30 keeps every weight p(1 - p) above 9e-14.
        w = probs * (1.0 - probs)
        score = q.T @ (y - probs)
        # The Cholesky factor of Q^T W Q is the R factor of sqrt(W) Q, so
        # its diagonal takes the rank test that a weighted QR would
        # (:func:`_check_rank`'s).
        try:
            chol = np.linalg.cholesky((q.T * w) @ q)
            pivots = np.diagonal(chol)
            singular = pivots.min() <= tolerance * pivots.max()
        except np.linalg.LinAlgError:
            singular = True
        if singular:
            raise ConvergenceError(
                "weighted design became singular during iteration; "
                "the classes appear separable", trace)
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, score))
        decrement = float(score @ step)
        trace.append((iteration, decrement))
        g = g + step

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
    probs = finite_array(scores, "propensity scores")
    if probs.size < _N_STRATA:
        raise DataError(f"cannot form {_N_STRATA} strata from {probs.size} rows")
    labels = _stratum_labels(probs, _stratum_cuts(probs))
    empty = _empty_strata(labels)
    if empty.size:
        raise StratificationError(
            f"strata {', '.join(map(str, empty))} are empty; "
            "tied propensity scores cannot fill every quantile bin")
    return labels


def _stratum_cuts(scores: np.ndarray) -> np.ndarray:
    """The ``j/5`` quantiles of ``scores`` along its last axis, first axis
    ``j``: each row of a 2-D ``scores`` gets the cuts it gets alone."""
    return np.quantile(scores, np.arange(1, _N_STRATA) / _N_STRATA, axis=-1)


def _stratum_labels(scores: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """1 + the number of ``cuts`` strictly below each score: searchsorted's
    side="left" rank, from four vectorized comparisons instead of a binary
    search per row."""
    return 1 + (scores > cuts[:, None]).sum(axis=0)


def _empty_strata(labels: np.ndarray) -> np.ndarray:
    """The strata 1..5 that no label falls in."""
    return np.flatnonzero(np.bincount(labels, minlength=_N_STRATA + 1)[1:] == 0) + 1


def _treatment_shifts(dataset: Dataset, model: ModelSpec, treatment: str):
    """``(j, shift)`` for each term that mentions ``treatment``: ``j`` indexes
    its coefficient, and ``shift``, its value with the treatment at 1 minus
    its value at 0, is the product of its other factors (1.0 if none)."""
    for j, term in enumerate(model.terms, start=1):
        if term.mentions(treatment):
            others = tuple(name for name in term.factors if name != treatment)
            yield j, (Term(others).evaluate(dataset) if others else 1.0)


def standardization_contrast(dataset: Dataset, model: ModelSpec, treatment: str) -> float:
    """Fit ``model`` by OLS, then average the predicted outcome shift when
    everyone moves from treatment 0 to 1 (the g-formula contrast).

    A term's value with the treatment at 1 minus its value at 0 is the
    product of its other factors, read from ``dataset`` as given (1.0 for
    a term with no other factor); terms without the treatment cancel.  So
    squares and interactions involving the treatment shift with it, and
    for a model with no treatment interactions this is exactly
    ``beta_treatment``.  A model with no term that mentions the treatment
    is a :class:`~funcavg.errors.ParameterError`, as its contrast would be
    0 whatever the data.  Only the coefficients are computed, not the
    residuals or variances of :func:`ols_fit`.
    """
    dataset.column(treatment)
    if not any(term.mentions(treatment) for term in model.terms):
        raise ParameterError(f"no model term mentions the treatment {treatment!r}")
    design, y = build_design(dataset, model)
    coefficients, _ = _qr_solve(design.matrix, y, design.column_names)
    diff = np.zeros(dataset.n_rows)
    for j, shift in _treatment_shifts(dataset, model, treatment):
        diff += coefficients[j] * shift
    return float(np.mean(diff))


# Share of the refits that may raise a package error and be dropped.
_MAX_FAILED_REFITS = 0.05


def _refit(k: int, point_fn: Callable[[Dataset], float], dataset: Dataset,
           rows: np.ndarray) -> float | None:
    """Replicate ``k``: ``point_fn`` on the resample ``dataset.take(rows)``,
    or ``None`` when it raises a package error, which drops the replicate.
    Any other exception, or a non-finite value, is a
    :class:`~funcavg.errors.ResampleError` naming the replicate."""
    try:
        value = point_fn(dataset.take(rows))
    except FuncavgError:
        return None
    except Exception as exc:
        raise ResampleError(k, str(exc)) from exc
    if not math.isfinite(value):
        raise ResampleError(k, "statistic returned a non-finite value")
    return value


def _refit_interval(point: float, kept: list[float], b: int,
                    alpha: float) -> IntervalEstimate:
    """Percentile interval of the ``kept`` values of ``b`` replicates, or a
    :class:`~funcavg.errors.DataError` if more than 5% were dropped."""
    failed = b - len(kept)
    if failed > _MAX_FAILED_REFITS * b:
        raise DataError(
            f"{failed} of {b} bootstrap replicates failed, more than the "
            f"{_MAX_FAILED_REFITS:.0%} tolerated; the statistic is too fragile on "
            "this data to bootstrap")
    return percentile_ci(BootstrapDistribution(point, np.array(kept)), alpha)


def _kept_values(dataset: Dataset, rng: RngStream, b: int,
                 point_fn: Callable[[Dataset], float],
                 batch: Callable[[np.ndarray], np.ndarray] | None = None) -> list[float]:
    """The values of the ``b`` replicates that are kept, in order.

    Replicate ``k`` resamples row ``k`` of the :func:`index_blocks` draw.
    ``batch(idx)`` gives the values of a chunk's replicates at once, NaN
    for any it leaves to a refit; every replicate without a finite batched
    value, all of them when ``batch`` is None, is refit on its rows
    (:func:`_refit`) and dropped if that raises a package error.
    """
    n = dataset.n_rows
    kept = []
    for start, idx in index_blocks(rng.generator(), n, b, n):
        values = batch(idx) if batch is not None else np.full(len(idx), np.nan)
        # No view of ``idx`` outlives the chunk, so the next chunk's batch
        # does not hold two index blocks.
        for k, value in enumerate(values, start):
            if not math.isfinite(value):
                value = _refit(k, point_fn, dataset, idx[k - start])
            if value is not None:
                kept.append(value)
    return kept


def _percentile_over_refits(dataset: Dataset, rng: RngStream, replicates: int,
                            alpha: float, point_fn: Callable[[Dataset], float]
                            ) -> IntervalEstimate:
    """Percentile interval of ``point_fn`` refit on every bootstrap row
    resample: the reference the batched bootstraps reproduce.

    The point is fitted on the dataset as given: a row copy makes strided
    CSV columns contiguous, and that can move a fit in the last bits.
    The interval is read off the kept refits (:func:`_refit_interval`).
    """
    alpha = check_alpha(alpha)
    b = check_count(replicates, "replicates", 2)
    point = point_fn(dataset)
    return _refit_interval(point, _kept_values(dataset, rng, b, point_fn), b, alpha)


def _stacked_cholesky(grams: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a ``(k, p, p)`` stack; a matrix that
    cannot be factored gets zeros, whose pivots pass no rank screen."""
    try:
        return np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        factors = np.zeros_like(grams)
        for i, gram in enumerate(grams):
            try:
                factors[i] = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                pass
        return factors


def _passes_rank_screen(pivots: np.ndarray, r_pivots: np.ndarray,
                        tolerance: float) -> np.ndarray:
    """Whether each resample keeps every direction of the design, from the
    Cholesky ``pivots`` (last axis) of its Gram matrix in the basis ``Q``.

    A resample that loses a direction leaves a pivot near ``sqrt(eps)`` of
    the largest, not near ``eps``.  So every pivot must exceed
    ``sqrt(tolerance)`` times the largest, and the pivots they imply for
    the resampled ``X``, those times ``r_pivots = |diag R|``, must pass a
    refit's own rank test at ``tolerance``.
    """
    def full_rank(values: np.ndarray, share: float) -> np.ndarray:
        return (values > share * values.max(axis=-1, keepdims=True)).all(axis=-1)

    return full_rank(pivots, math.sqrt(tolerance)) & full_rank(pivots * r_pivots, tolerance)


def standardization_bootstrap_se(dataset: Dataset, model: ModelSpec, treatment: str,
                                 rng: RngStream, replicates: int = 1000,
                                 alpha: float = 0.05) -> IntervalEstimate:
    """Percentile interval for the standardized 1 vs 0 contrast under row
    resampling.

    The point is :func:`standardization_contrast` on the dataset as given.
    The replicates do not refit a resampled dataset.  A row resample is
    the dataset weighted by how often it draws each row, so the design is
    factored once, ``X = QR``, and replicate ``b`` with row counts ``c_b``
    solves the weighted normal equations in the basis ``Q``:
    ``G_b g_b = Q^T diag(c_b) y``, where ``G_b = Q^T diag(c_b) Q`` is the
    Gram matrix of ``sqrt(c_b) Q``, near-orthogonal for any resample that
    keeps every direction.  Then ``beta_b = R^-1 g_b``, and the contrast
    is ``sum_j beta_bj (c_b . D_j) / n`` over the treatment terms' shift
    columns ``D_j``.  Each :func:`index_blocks` chunk of ``k`` replicates
    takes ``p`` products of its ``(k, n)`` row counts, one per column of
    ``Q``, and one stacked Cholesky factorisation, and its draws are those
    of a refit per replicate.  The largest temporary is a weighted copy of
    the counts, ``k * n`` doubles: at most ``2**16``, or ``n`` once a
    replicate has more rows.

    A replicate keeps its batched value only if its Gram matrix passes
    :func:`_passes_rank_screen` and the value is finite.  Any other
    replicate is refit on its rows (:func:`_kept_values`), as are
    :func:`ps_stratified_contrast`'s rejected replicates.  So the
    replicates dropped, the 5% budget and the errors raised are those of a
    refit on every resample.

    The name is older than the return value, which is an interval and not
    a standard error; it stays because perfbench's tracer wraps this
    function by name.
    """
    alpha = check_alpha(alpha)
    b = check_count(replicates, "replicates", 2)
    point = standardization_contrast(dataset, model, treatment)
    design, y = build_design(dataset, model)
    q, r = _orthonormal_basis(design)
    n, p = q.shape
    terms, columns = zip(*_treatment_shifts(dataset, model, treatment))
    shifts = np.stack([np.broadcast_to(column, n) for column in columns], axis=1)
    # The columns of Q, then y, as contiguous rows to weight the counts by;
    # the transpose is ``[Q | y]`` in Fortran order, the faster operand.
    q_y = np.empty((p + 1, n))
    q_y[:p], q_y[p] = q.T, y
    tolerance = _rank_tolerance((n, p))
    r_pivots = np.abs(np.diag(r))

    def point_fn(ds: Dataset) -> float:
        return standardization_contrast(ds, model, treatment)

    def batch(idx: np.ndarray) -> np.ndarray:
        offsets = n * np.arange(len(idx))[:, None]
        counts = np.bincount((idx + offsets).ravel(),
                             minlength=idx.size).reshape(idx.shape).astype(float)
        # Row j of every replicate's [G_b | Q^T diag(c_b) y] at once, so the
        # one temporary is a weighted copy of the counts, not of k Q's.
        products = np.empty((len(idx), p, p + 1))
        for j in range(p):
            products[:, j] = (counts * q_y[j]) @ q_y.T
        chol = _stacked_cholesky(products[:, :, :p])
        pivots = np.diagonal(chol, axis1=1, axis2=2)
        ok = np.flatnonzero(_passes_rank_screen(pivots, r_pivots, tolerance))
        values = np.full(len(idx), np.nan)
        if ok.size:
            lower = chol[ok]
            g = np.linalg.solve(lower.transpose(0, 2, 1),
                                np.linalg.solve(lower, products[ok, :, p:]))[:, :, 0]
            beta = np.linalg.solve(r, g.T)[list(terms)]
            values[ok] = np.sum(beta.T * (counts[ok] @ shifts), axis=1) / n
        return values

    return _refit_interval(point, _kept_values(dataset, rng, b, point_fn, batch), b, alpha)


def _resample_scores(q_rows: np.ndarray, y: np.ndarray,
                     r_pivots: np.ndarray) -> np.ndarray | None:
    """Fitted probabilities of a resample's logistic model by
    :func:`_logit_newton` in its rows ``q_rows`` of the basis ``Q`` of
    ``X = QR``, ``r_pivots = |diag R|``; None when its Gram matrix in
    ``Q`` fails :func:`_passes_rank_screen` or Newton fails."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(q_rows.T @ q_rows))
        if _passes_rank_screen(pivots, r_pivots, _rank_tolerance(q_rows.shape)):
            return _logit_newton(q_rows, y)[1]
    except (np.linalg.LinAlgError, ConvergenceError):
        pass
    return None


def ps_stratified_contrast(dataset: Dataset, outcome: str, treatment: str,
                           covariates: Sequence[str], rng: RngStream,
                           replicates: int = 1000,
                           alpha: float = 0.05) -> IntervalEstimate:
    """Treatment contrast adjusted by propensity-score quintile strata.

    Pipeline: logistic propensity fit on the plain covariate columns,
    quintile strata from the fitted scores, OLS of the outcome on
    treatment plus stratum indicators, then standardization of the
    treatment contrast.  The point runs it on the dataset as given.

    The replicates refit only the outcome model from scratch.  The
    covariate design is factored once, ``X = QR``, and replicate ``b``
    fits its propensity model by :func:`logistic_fit`'s Newton iterations
    from zero in the rows ``Q[rows_b]`` of that basis, which span the
    columns of ``X[rows_b]``: Newton's method is affine invariant, so the
    iterates are those of a refit.  The strata of a whole
    :func:`index_blocks` chunk are cut by one quantile call over its
    ``(k, n)`` scores, the cuts each row gets alone, and each replicate's
    outcome model is fitted by :func:`standardization_contrast` on its
    rows of the outcome and treatment columns.

    A replicate is refit through its whole pipeline instead
    (:func:`_kept_values`) when its Gram matrix ``Q[rows_b]^T Q[rows_b]``
    fails :func:`_passes_rank_screen`, when Newton fails (a log-odds past
    30 on a drawn row, a singular weighted Gram, 50 iterations), when a
    stratum is empty, or when the outcome fit raises a package error.  So
    the replicates dropped, the 5% budget and the errors raised are those
    of a refit on every resample.
    """
    if not covariates:
        raise ParameterError("propensity stratification needs at least one covariate")

    # Stratum 1 is the baseline; strata 2..5 each get a 0/1 column, named
    # apart from the outcome and the treatment.
    strata = range(2, _N_STRATA + 1)
    prefix = "stratum_"
    while {outcome, treatment} & {f"{prefix}{s}" for s in strata}:
        prefix = "_" + prefix
    dummy_names = [f"{prefix}{s}" for s in strata]
    model = ModelSpec(outcome, tuple(Term((name,)) for name in
                                     (treatment, *dummy_names)))

    def stratified(ds: Dataset, labels: np.ndarray) -> float:
        dummies = {name: (labels == s).astype(float)
                   for name, s in zip(dummy_names, strata)}
        return standardization_contrast(
            Dataset({outcome: ds.column(outcome), treatment: ds.column(treatment),
                     **dummies}), model, treatment)

    def point_fn(ds: Dataset) -> float:
        pfit = logistic_fit(design_from_columns(ds, covariates), ds.column(treatment))
        return stratified(ds, propensity_strata(pfit.fitted_probabilities))

    alpha = check_alpha(alpha)
    b = check_count(replicates, "replicates", 2)
    point = point_fn(dataset)
    q, r = _orthonormal_basis(design_from_columns(dataset, covariates))
    r_pivots = np.abs(np.diag(r))
    # Q's columns as contiguous rows: a resample's rows of Q are then one
    # gather per column and a Fortran-ordered view, whose products in the
    # Newton steps run faster than those of a row-major copy.
    q_columns = q.T.copy()
    del q
    t = dataset.column(treatment)
    outcome_rows = Dataset({outcome: dataset.column(outcome), treatment: t})

    def batch(idx: np.ndarray) -> np.ndarray:
        values = np.full(len(idx), np.nan)
        # A row whose fit failed keeps a constant, which the chunk's one
        # quantile call cuts like any other row and no label reads.
        scores = np.full(idx.shape, 0.5)
        fitted = []
        for i, rows in enumerate(idx):
            probs = _resample_scores(q_columns.take(rows, axis=1).T, t[rows], r_pivots)
            if probs is not None:
                scores[i] = probs
                fitted.append(i)
        cuts = _stratum_cuts(scores)
        for i in fitted:
            labels = _stratum_labels(scores[i], cuts[:, i])
            if _empty_strata(labels).size:
                continue
            try:
                values[i] = stratified(outcome_rows.take(idx[i]), labels)
            except FuncavgError:
                pass
        return values

    return _refit_interval(point, _kept_values(dataset, rng, b, point_fn, batch), b, alpha)
