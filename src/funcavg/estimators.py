"""Point estimators for the functional average of a bounded outcome.

The target is the uniform average of the outcome's support, not its
expectation, so the natural estimators are built from observed distinct
values and observed extremes rather than from sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bootstrap import row_chunks
from .errors import DataError, ResampleError, finite_array

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
    return finite_array(values, "sample")


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
    It gives a bootstrapped contrast its point, and the tests a reference
    to check the samplers against, so it assumes what
    :meth:`TwoArmSample.from_labels` checks once on the full columns: 0/1
    labels and finite outcomes.  An empty arm raises
    :class:`~funcavg.errors.DataError`.  With :func:`sample_mean` it is
    the least-squares slope of outcome on an intercept and the label.
    """
    mask = rows[:, 1] == 1
    treated = rows[mask, 0]
    control = rows[~mask, 0]
    if treated.size == 0 or control.size == 0:
        raise DataError(_EMPTY_ARM)
    return estimator(treated) - estimator(control)


def contrast(estimator):
    """:func:`paired_contrast` bound to ``estimator``, as a resample statistic.

    It forwards ``estimator.batch`` when there is one: the sampler
    :func:`~funcavg.bootstrap.resample` draws the contrast's replicates from.
    Its ``__name__`` is ``contrast(<estimator name>)``, for messages.
    """
    statistic = functools.partial(paired_contrast, estimator=estimator)
    name = getattr(estimator, "__name__", type(estimator).__name__)
    statistic.__name__ = f"contrast({name})"
    batch = getattr(estimator, "batch", None)
    if batch is not None:
        statistic.batch = batch
    return statistic


# Samplers.  Each ``batch`` factory takes the array ``resample`` draws rows
# from (after the statistic has succeeded on it), a 1-D sample or
# ``(outcome, label)`` rows, and returns ``sampler(gen, b, m) -> (b,)``, the
# values of ``b`` replicates of ``m`` draws, or ``None`` where it has none.
# The midrange and the plug-in draw each replicate from its exact law, not
# from row indices.  The midrange reads only the ranks ``I <= J`` of the
# extremes of ``m`` draws from ``n`` sorted values, with ``P(I >= i, J <= j)
# = ((j - i + 1) / n) ** m`` (Hutson & Ernst 2000): the floors of ``n`` times
# the least of ``m`` uniforms and the greatest of the other ``m - 1``, which
# are uniform above it.  The plug-in reads only which values were drawn, from
# multinomial counts over the distinct (arm, value) cells (Efron 1979).  A
# midrange or mean contrast splits the draws first: the treated count is
# Binomial(m, n1 / n), and given it each arm's draws are uniform over that
# arm's rows.  The mean sampler draws each arm's row indices as one flat
# array and sums each replicate's run of them, in another order than
# ``np.mean`` (about 1e-13 apart).


def _arms(arr: np.ndarray) -> list:
    """The sample, or the control (label not 1) and treated outcomes."""
    if arr.ndim == 1:
        return [arr]
    treated = arr[:, 1] == 1
    return [arr[~treated, 0], arr[treated, 0]]


def _raise_on_empty_arm(empty: np.ndarray, first: int) -> None:
    if empty.any():
        raise ResampleError(first + int(np.argmax(empty)), _EMPTY_ARM)


def _extreme_ranks(gen, n: int, m, b: int):
    """Ranks of the least and greatest of ``m`` draws (at least 1, an int or
    one per replicate) from ``n`` sorted values, for ``b`` replicates."""
    v = gen.random((2, b))
    low = -np.expm1(np.log1p(-v[0]) / m)
    high = low + (1.0 - low) * np.where(m > 1, v[1] ** (1.0 / np.maximum(m - 1, 1)), 0.0)
    # Rounding can carry n * u up to n; the greatest rank is n - 1.
    return (np.minimum((n * low).astype(np.intp), n - 1),
            np.minimum((n * high).astype(np.intp), n - 1))


def _two_arm_split(gen, b: int, m: int, share: float) -> list:
    """Draw counts ``[m - n1, n1]`` of the control and treated arms for
    ``b`` replicates of ``m`` draws, with ``n1 ~ Binomial(m, share)``."""
    n1 = gen.binomial(m, share, size=b)
    _raise_on_empty_arm((n1 == 0) | (n1 == m), 0)
    return [m - n1, n1]


def _midrange_sampler(arr: np.ndarray):
    arms = [np.sort(y) for y in _arms(arr)]

    def sampler(gen, b, m):
        draws = [m]
        if len(arms) == 2:
            draws = _two_arm_split(gen, b, m, arms[1].size / arr.shape[0])
        mids = []
        for y, k in zip(arms, draws):
            lo, hi = _extreme_ranks(gen, y.size, k, b)
            mids.append((y[lo] + y[hi]) / 2.0)
        return mids[-1] - mids[0] if len(mids) == 2 else mids[0]
    return sampler


def _plugin_sampler(arr: np.ndarray):
    cells = [np.unique(y, return_counts=True) for y in _arms(arr)]
    values = np.concatenate([uniq for uniq, _ in cells])
    share = np.concatenate([counts for _, counts in cells]) / arr.shape[0]
    starts = np.cumsum([0] + [uniq.size for uniq, _ in cells[:-1]])

    def sampler(gen, b, m):
        out = np.empty(b)
        for start, stop in row_chunks(b, values.size):
            present = gen.multinomial(m, share, size=stop - start) > 0
            counts = np.add.reduceat(present, starts, axis=1, dtype=np.intp)
            _raise_on_empty_arm((counts == 0).any(axis=1), start)
            means = np.add.reduceat(np.where(present, values, 0.0), starts, axis=1) / counts
            out[start:stop] = means[:, -1] - means[:, 0] if len(cells) == 2 else means[:, 0]
        return out
    return sampler


def _mean_sampler(arr: np.ndarray):
    if arr.ndim == 1:
        return None  # no caller bootstraps a plain mean; resample refuses it
    arms = _arms(arr)
    share = arms[1].size / arr.shape[0]

    def sampler(gen, b, m):
        means = []
        for y, k in zip(arms, _two_arm_split(gen, b, m, share)):
            sums = np.empty(b)
            for start, stop in row_chunks(b, m):
                # Each replicate sums its own run of draws; no run is empty.
                counts = k[start:stop]
                idx = gen.integers(0, y.size, size=counts.sum())
                sums[start:stop] = np.add.reduceat(y[idx], np.cumsum(counts) - counts)
            means.append(sums / k)
        return means[1] - means[0]
    return sampler


midrange.batch = _midrange_sampler
discrete_plugin_average.batch = _plugin_sampler
sample_mean.batch = _mean_sampler
