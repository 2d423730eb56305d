"""Point estimators for the functional average of a bounded outcome.

The target is the uniform average of the outcome's support, not its
expectation, so the natural estimators are built from observed distinct
values and observed extremes rather than from sums.
"""

from __future__ import annotations

import numpy as np

from .bootstrap import row_chunks
from .dataset import EMPTY_ARM, TwoArmSample
from .errors import ResampleError, finite_array

__all__ = [
    "discrete_plugin_average",
    "midrange",
    "sample_mean",
]


def discrete_plugin_average(values) -> float:
    """Mean of the distinct observed values.

    Duplicates carry no extra weight: each distinct value counts once, so
    the estimate tracks the support rather than the probability mass on it.
    Only exact duplicates are equal, the right choice for integer outcomes.
    Support points that never appear in the sample contribute nothing;
    consistency rests on every value eventually being observed.
    """
    return float(np.unique(finite_array(values, "sample")).mean())


def midrange(values) -> float:
    """Midpoint of the observed extremes, ``(min + max) / 2``."""
    x = finite_array(values, "sample")
    return float((x.min() + x.max()) / 2.0)


def sample_mean(values) -> float:
    """Arithmetic mean, included for side-by-side comparisons."""
    return float(finite_array(values, "sample").mean())


# Samplers.  Each ``batch`` factory takes the sample ``resample`` draws from
# (after the statistic has succeeded on it), a 1-D array or a
# :class:`~funcavg.dataset.TwoArmSample`, and returns ``sampler(gen, b, m)
# -> (b,)``, the values of ``b`` replicates of ``m`` draws, or ``None`` where
# it has none.  Of two arms, each replicate is the treated value minus the
# control value.  The midrange and the plug-in draw each replicate from its
# exact law, not from row indices.  The midrange reads only the ranks ``I <=
# J`` of the extremes of ``m`` draws from ``n`` sorted values, with ``P(I >=
# i, J <= j) = ((j - i + 1) / n) ** m`` (Hutson & Ernst 2000): the floors of
# ``n`` times the least of ``m`` uniforms and the greatest of the other ``m -
# 1``, which are uniform above it.  The plug-in reads only which values were
# drawn, from multinomial counts over the distinct (arm, value) cells (Efron
# 1979).  A midrange or mean contrast splits the draws first: the treated
# count is Binomial(m, n1 / n), and given it each arm's draws are uniform
# over that arm's rows.  The mean sampler draws each arm's row indices as one
# flat array and sums each replicate's run of them, in another order than
# ``np.mean`` (about 1e-13 apart).


def _arms(sample) -> list:
    """The 1-D sample, or the control and treated arms."""
    if isinstance(sample, TwoArmSample):
        return [sample.control, sample.treated]
    return [sample]


def _raise_on_empty_arm(empty: np.ndarray, first: int) -> None:
    if empty.any():
        raise ResampleError(first + int(np.argmax(empty)), EMPTY_ARM)


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


def _midrange_sampler(sample):
    arms = [np.sort(y) for y in _arms(sample)]

    def sampler(gen, b, m):
        draws = [m]
        if len(arms) == 2:
            draws = _two_arm_split(gen, b, m, arms[1].size / len(sample))
        mids = []
        for y, k in zip(arms, draws):
            lo, hi = _extreme_ranks(gen, y.size, k, b)
            mids.append((y[lo] + y[hi]) / 2.0)
        return mids[-1] - mids[0] if len(mids) == 2 else mids[0]
    return sampler


def _plugin_sampler(sample):
    cells = [np.unique(y, return_counts=True) for y in _arms(sample)]
    values = np.concatenate([uniq for uniq, _ in cells])
    share = np.concatenate([counts for _, counts in cells]) / len(sample)
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


def _mean_sampler(sample):
    if not isinstance(sample, TwoArmSample):
        return None  # no caller bootstraps a plain mean; resample refuses it
    arms = _arms(sample)
    share = arms[1].size / len(sample)

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
