"""Point estimators for the functional average of a bounded outcome.

The target is the uniform average of the outcome's support, not its
expectation, so the natural estimators are built from observed distinct
values and observed extremes rather than from sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ResampleError

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


def discrete_plugin_average(values) -> float:
    """Mean of the distinct observed values.

    Duplicates carry no extra weight: each distinct value counts once, so
    the estimate tracks the support rather than the probability mass on it.
    Only exact duplicates are equal, the right choice for integer outcomes.
    Support points that never appear in the sample contribute nothing;
    consistency rests on every value eventually being observed.
    """
    return float(np.unique(as_sample(values)).mean())


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

    It forwards ``estimator.batch`` when there is one, so
    :func:`~funcavg.bootstrap.resample` can batch the contrast.
    """
    statistic = functools.partial(paired_contrast, estimator=estimator)
    batch = getattr(estimator, "batch", None)
    if batch is not None:
        statistic.batch = batch
    return statistic


# Batch kernels.  Each factory takes the array ``resample`` draws rows from
# (after the statistic has succeeded on it), a 1-D sample or ``(outcome,
# label)`` rows, and returns either a kernel ``kernel(idx, first) -> (k,)``
# that evaluates replicates ``first .. first + k - 1`` from their ``(k, m)``
# index block, or ``None`` when the data do not qualify.  The midrange and
# plug-in kernels are bit-identical to the per-replicate call; the mean
# kernel sums each arm in another order, which moves a replicate by about
# 1e-13.

def _arm_codes(arr: np.ndarray):
    """``(sorted distinct outcomes, code per row)``; treated rows (label 1)
    are offset by ``K``, the number of distinct outcomes, so arm ``a`` owns
    codes ``a * K .. a * K + K - 1``.  The narrowest unsigned type that
    holds ``2 * K`` keeps the per-chunk gathers small.  ``None`` for data
    holding a -0.0, which can tie with 0.0 in an order-dependent way.
    """
    y = arr if arr.ndim == 1 else arr[:, 0]
    if np.any(np.signbit(y) & (y == 0)):
        return None
    uniq, codes = np.unique(y, return_inverse=True)
    if arr.ndim == 2:
        codes = codes + uniq.size * (arr[:, 1] == 1)
    return uniq, codes.astype(np.min_scalar_type(2 * uniq.size))


def _distinct_totals(codes: np.ndarray, uniq: np.ndarray, arms: int):
    """Sum and count of the distinct values in each row of ``codes``, per arm.

    Both results have shape ``(rows, arms)``.  Rows pass through the
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


def _midrange_batch(arr: np.ndarray):
    coded = _arm_codes(arr)
    if coded is None:
        return None
    uniq, codes = coded
    k = uniq.size

    def midpoint(lo, hi):
        return (uniq[lo] + uniq[hi % k]) / 2.0

    if arr.ndim == 1:
        def kernel(idx, first):
            block = codes[idx]
            return midpoint(block.min(axis=1), block.max(axis=1))
        return kernel
    # Treated codes sit above control codes, so a row's smallest code is the
    # control minimum and its largest the treated maximum; the arm-swapped
    # copy gives the other two extremes.
    swapped = np.where(codes < k, codes + k, codes - k)

    def kernel(idx, first):
        block, flipped = codes[idx], swapped[idx]
        lo_c, hi_t = block.min(axis=1), block.max(axis=1)
        _raise_on_empty_arm((lo_c >= k) | (hi_t < k), first)
        return midpoint(flipped.min(axis=1), hi_t) - midpoint(lo_c, flipped.max(axis=1))
    return kernel


def _plugin_batch(arr: np.ndarray):
    coded = _arm_codes(arr)
    if coded is None:
        return None
    uniq, codes = coded
    # Integers only, small enough that every sum of distinct values is exact:
    # then no summation order matters, and a row's sum over the presence
    # matrix equals the one ``np.unique(x).mean()`` forms.
    if not np.array_equal(uniq, np.round(uniq)) or np.abs(uniq).max() * uniq.size >= 2.0**52:
        return None
    arms = arr.ndim

    def kernel(idx, first):
        sums, counts = _distinct_totals(codes[idx], uniq, arms)
        _raise_on_empty_arm((counts == 0).any(axis=1), first)
        means = sums / counts
        return means[:, 0] if arms == 1 else means[:, 1] - means[:, 0]
    return kernel


def _mean_batch(arr: np.ndarray):
    if arr.ndim == 1:
        return None  # no caller bootstraps a plain mean
    # Each arm's outcomes with zeros in the other arm's rows, masked once per
    # resample, so a chunk costs two float gathers and one bool gather.
    treated = arr[:, 1] == 1
    y1 = np.where(treated, arr[:, 0], 0.0)
    y0 = np.where(treated, 0.0, arr[:, 0])

    def kernel(idx, first):
        m = idx.shape[1]
        n1 = np.count_nonzero(treated[idx], axis=1)
        _raise_on_empty_arm((n1 == 0) | (n1 == m), first)
        return y1[idx].sum(axis=1) / n1 - y0[idx].sum(axis=1) / (m - n1)
    return kernel


midrange.batch = _midrange_batch
discrete_plugin_average.batch = _plugin_batch
sample_mean.batch = _mean_batch
