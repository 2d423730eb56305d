"""Point estimators for the functional average of a bounded outcome.

The target is the uniform average of the outcome's support, not its
expectation, so the natural estimators are built from observed distinct
values and observed extremes rather than from sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ResampleError

__all__ = [
    "as_sample",
    "TwoArmSample",
    "discrete_plugin_average",
    "midrange",
    "sample_mean",
    "paired_contrast",
    "contrast",
]

_EMPTY_ARM = "both treatment arms must be non-empty"


def as_sample(values) -> np.ndarray:
    """Validate and return a 1-D float sample array.

    Raises :class:`~funcavg.errors.DataError` when the input is empty,
    not one-dimensional, or contains non-finite entries.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise DataError(f"sample must be 1-D, got shape {x.shape}")
    if x.size == 0:
        raise DataError("sample must contain at least one value")
    if not np.all(np.isfinite(x)):
        raise DataError("sample contains non-finite values")
    return x


def discrete_plugin_average(values, tolerance: float = 0.0) -> float:
    """Mean of the distinct observed values.

    Duplicates carry no extra weight: each distinct value counts once, so
    the estimate tracks the support rather than the probability mass on it.
    Support points that never appear in the sample contribute nothing;
    consistency rests on every value eventually being observed.

    Parameters
    ----------
    values : array-like
        Observed outcomes.
    tolerance : float, optional
        Distinctness threshold for continuous-ish data.  After sorting,
        neighbours closer than this are merged into one group represented
        by its group mean.  The default ``0.0`` treats only exact
        duplicates as equal, the right choice for integer outcomes.
    """
    x = as_sample(values)
    if tolerance < 0:
        raise ParameterError(f"tolerance must be non-negative, got {tolerance}")
    if tolerance == 0.0:
        return float(np.unique(x).mean())
    sx = np.sort(x)
    # Groups are maximal runs of sorted values whose consecutive gaps stay
    # within the tolerance.
    boundaries = np.flatnonzero(np.diff(sx) > tolerance) + 1
    groups = np.split(sx, boundaries)
    return float(np.mean([g.mean() for g in groups]))


def midrange(values) -> float:
    """Midpoint of the observed extremes, ``(min + max) / 2``."""
    x = as_sample(values)
    return float((x.min() + x.max()) / 2.0)


def sample_mean(values) -> float:
    """Arithmetic mean, included for side-by-side comparisons."""
    return float(as_sample(values).mean())


@dataclass(frozen=True)
class TwoArmSample:
    """Outcomes split by a binary treatment label."""

    treated: np.ndarray
    control: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "treated", as_sample(self.treated))
        object.__setattr__(self, "control", as_sample(self.control))

    @classmethod
    def from_labels(cls, values, labels) -> "TwoArmSample":
        """Split ``values`` by a 0/1 label array of the same length."""
        y = as_sample(values)
        t = np.asarray(labels)
        if t.shape != y.shape:
            raise DataError(
                f"labels shape {t.shape} does not match values shape {y.shape}")
        if not np.isin(t, (0, 1)).all():
            raise DataError("labels must contain only 0 and 1")
        mask = t == 1
        if mask.all() or not mask.any():
            raise DataError(_EMPTY_ARM)
        return cls(treated=y[mask], control=y[~mask])


def paired_contrast(rows: np.ndarray, estimator) -> float:
    """Treated-minus-control ``estimator`` on ``(outcome, label)`` rows.

    Rows with label 1 form the treated arm, all others the control arm.
    This is the per-replicate kernel for bootstrapping a contrast, so it
    assumes what :meth:`TwoArmSample.from_labels` checks once on the full
    columns: 0/1 labels and finite outcomes.  The one fault a resample
    can introduce, an empty arm, raises :class:`~funcavg.errors.DataError`.
    With :func:`sample_mean` it is the least-squares slope of outcome on
    an intercept and the label.
    """
    mask = rows[:, 1] == 1
    treated = rows[mask, 0]
    control = rows[~mask, 0]
    if treated.size == 0 or control.size == 0:
        raise DataError(_EMPTY_ARM)
    return estimator(treated) - estimator(control)


def contrast(estimator):
    """:func:`paired_contrast` bound to ``estimator``, as a resample statistic.

    When ``estimator`` carries a two-arm kernel factory (``midrange`` and
    ``discrete_plugin_average`` do), the statistic's ``batch`` attribute
    exposes it to :func:`~funcavg.bootstrap.resample`; any other estimator
    keeps the per-replicate loop.
    """
    statistic = functools.partial(paired_contrast, estimator=estimator)
    two_arm = getattr(estimator, "contrast_batch", None)
    if two_arm is not None:
        statistic.batch = two_arm
    return statistic


# Batch kernels.  Each factory takes the array ``resample`` draws rows from
# (after the statistic has succeeded on it) and returns either a kernel
# ``kernel(idx, first) -> (k,)`` that evaluates replicates ``first ..
# first + k - 1`` from their ``(k, m)`` index block, bit-identical to the
# per-replicate call, or ``None`` when the data do not qualify.

def _has_negative_zero(y: np.ndarray) -> bool:
    # A -0.0 can tie with 0.0 in a min, max or np.unique, and which of the
    # two comes out depends on the evaluation order.
    return bool(np.any(np.signbit(y) & (y == 0)))


def _integer_codes(y: np.ndarray):
    """``(distinct values, code per value)`` when every value is an integer
    small enough that all sums of distinct values are exact, else ``None``.

    Exact sums do not depend on the summation order, so the sum of a
    row's distinct values over a presence matrix equals the one
    ``np.unique(x).mean()`` forms.
    """
    if _has_negative_zero(y):
        return None
    uniq, codes = np.unique(y, return_inverse=True)
    if not np.array_equal(uniq, np.round(uniq)) or np.abs(uniq).max() * uniq.size >= 2.0**52:
        return None
    return uniq, codes


def _distinct_totals(codes: np.ndarray, uniq: np.ndarray, arms: int):
    """Sum and count of the distinct values in each row of ``codes``, per arm.

    Arm ``a`` owns codes ``a * K .. a * K + K - 1`` with ``K = uniq.size``;
    both results have shape ``(rows, arms)``.  Rows pass through the
    presence matrix in blocks of about ``codes.size`` cells (one row at
    least), which keeps its memory near the gather's even when there are
    more distinct values than draws per row.
    """
    width = arms * uniq.size
    step = max(1, codes.size // width)
    sums, counts = [], []
    for start in range(0, len(codes), step):
        block = codes[start:start + step]
        present = np.zeros((len(block), width), dtype=bool)
        present.reshape(-1)[block + width * np.arange(len(block))[:, None]] = True
        present = present.reshape(len(block), arms, uniq.size)
        sums.append(present @ uniq)
        counts.append(present.sum(axis=2))
    return np.concatenate(sums), np.concatenate(counts)


def _raise_on_empty_arm(empty: np.ndarray, first: int) -> None:
    if empty.any():
        raise ResampleError(first + int(np.argmax(empty)), _EMPTY_ARM)


def _midrange_batch(values: np.ndarray):
    if _has_negative_zero(values):
        return None

    def kernel(idx, first):
        block = values[idx]
        return (block.min(axis=1) + block.max(axis=1)) / 2.0
    return kernel


def _plugin_batch(values: np.ndarray):
    coded = _integer_codes(values)
    if coded is None:
        return None
    uniq, codes = coded

    def kernel(idx, first):
        sums, counts = _distinct_totals(codes[idx], uniq, 1)
        return sums[:, 0] / counts[:, 0]
    return kernel


def _midrange_contrast_batch(rows: np.ndarray):
    y, treated = rows[:, 0], rows[:, 1] == 1
    if _has_negative_zero(y):
        return None
    # Each arm's extremes come from copies in which the other arm's rows
    # cannot win; an arm missing from a replicate leaves its minimum at +inf.
    t_lo, t_hi = np.where(treated, y, np.inf), np.where(treated, y, -np.inf)
    c_lo, c_hi = np.where(treated, np.inf, y), np.where(treated, -np.inf, y)

    def kernel(idx, first):
        lo_t, lo_c = t_lo[idx].min(axis=1), c_lo[idx].min(axis=1)
        _raise_on_empty_arm(np.isinf(lo_t) | np.isinf(lo_c), first)
        hi_t, hi_c = t_hi[idx].max(axis=1), c_hi[idx].max(axis=1)
        return (lo_t + hi_t) / 2.0 - (lo_c + hi_c) / 2.0
    return kernel


def _plugin_contrast_batch(rows: np.ndarray):
    coded = _integer_codes(rows[:, 0])
    if coded is None:
        return None
    uniq, codes = coded
    codes = codes + uniq.size * (rows[:, 1] == 1)  # arm 0 control, arm 1 treated

    def kernel(idx, first):
        sums, counts = _distinct_totals(codes[idx], uniq, 2)
        _raise_on_empty_arm((counts == 0).any(axis=1), first)
        means = sums / counts
        return means[:, 1] - means[:, 0]
    return kernel


midrange.batch = _midrange_batch
midrange.contrast_batch = _midrange_contrast_batch
discrete_plugin_average.batch = _plugin_batch
discrete_plugin_average.contrast_batch = _plugin_contrast_batch
