"""Bootstrap machinery and range-based confidence intervals.

The constructions here lean on one fact only: the statistic being
resampled is bounded, with a range the replicates themselves reveal.  That
buys distribution-free intervals for estimators, such as the midrange,
whose sampling law is far from normal and for which the standard
percentile bootstrap can collapse.

Interval recipes, for a statistic ``T0`` and replicate values ``T*``:

* ``hoeffding_ci``: ``T0 +/- R * sqrt(log(2/alpha) / 2)`` where ``R`` is
  the range of the replicates pooled with ``T0`` itself;
* ``hoeffding_u_ci``: ``T0 +/- 2 * R* * sqrt(log(2/alpha) / c)`` where
  ``R*`` is the replicate-only range, ``c = 6`` when the statistic
  concentrates symmetrically about the centre of its range and ``c = 2``
  in general;
* ``percentile_ci``: empirical quantiles of the replicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataset import TwoArmSample
from .errors import (DataError, ParameterError, ResampleError, check_alpha, check_count,
                     finite_array)
from .intervals import IntervalEstimate
from .rng import RngStream

__all__ = [
    "BootstrapConfig",
    "BootstrapDistribution",
    "sqrt_resample_size",
    "resample",
    "hoeffding_ci",
    "hoeffding_u_ci",
    "percentile_ci",
    "popoviciu_check",
]

# Cap on cells per chunk of replicates: an int64 index block and each gather
# from it, or a block of multinomial counts, stay about 512 KB for any n and
# B, so a block and its gather fit together in a 2 MB L2 cache.
_CHUNK_CELLS = 1 << 16


def sqrt_resample_size(n: int) -> int:
    """Resample size ``round(sqrt(n))``, ties rounded away from zero."""
    if n < 1:
        raise DataError(f"need at least one observation, got {n}")
    return int(math.floor(math.sqrt(n) + 0.5))


@dataclass(frozen=True)
class BootstrapConfig:
    """How :func:`resample` draws: how many replicates, how large, from
    which stream.

    Parameters
    ----------
    replicates : int
        Number of bootstrap replicates ``B``, at least 2: the intervals
        read a spread off them, and one replicate has none.
    rng : RngStream
        Stream the sampler draws from.
    resample_size : {"full", "sqrt"}
        ``"full"`` draws ``n`` rows per replicate, ``"sqrt"`` draws
        ``round(sqrt(n))``.
    """

    replicates: int
    rng: RngStream
    resample_size: str = "full"

    def __post_init__(self):
        check_count(self.replicates, "replicates", 2)
        if self.resample_size not in ("full", "sqrt"):
            raise ParameterError(
                f"resample_size must be 'full' or 'sqrt', got {self.resample_size!r}")

    def size_for(self, n: int) -> int:
        """Resolve the per-replicate draw count for a sample of size ``n``."""
        return n if self.resample_size == "full" else sqrt_resample_size(n)


@dataclass(frozen=True)
class BootstrapDistribution:
    """A statistic on the original sample plus its bootstrap replicates."""

    statistic: float
    replicates: np.ndarray = field(repr=False)

    def __post_init__(self):
        finite_array(self.statistic, "statistic", ndims=(0,))
        object.__setattr__(self, "replicates", finite_array(self.replicates, "replicates"))

    @property
    def pooled_min(self) -> float:
        """Smallest value seen, the original statistic included."""
        return float(min(self.replicates.min(), self.statistic))

    @property
    def pooled_max(self) -> float:
        """Largest value seen, the original statistic included."""
        return float(max(self.replicates.max(), self.statistic))

    @property
    def pooled_range(self) -> float:
        return self.pooled_max - self.pooled_min

    @property
    def replicate_range(self) -> float:
        """Range of the replicates alone, original statistic excluded."""
        return float(self.replicates.max() - self.replicates.min())


def row_chunks(b: int, width: int):
    """``(start, stop)`` over ``b`` replicates of ``width`` cells, at most
    ``_CHUNK_CELLS`` cells (and at least one replicate) per chunk."""
    step = max(1, min(b, _CHUNK_CELLS // width))
    for start in range(0, b, step):
        yield start, min(start + step, b)


def index_blocks(gen: np.random.Generator, n: int, b: int, m: int):
    """``(start, idx)``: the ``(k, m)`` row indices below ``n`` of replicates
    ``start .. start + k - 1``, drawn in order, so chunking changes none.
    The S and PS bootstraps draw their rows here."""
    for start, stop in row_chunks(b, m):
        yield start, gen.integers(0, n, size=(stop - start, m))


def resample(sample, config: BootstrapConfig,
             statistic: Callable[[np.ndarray], float]) -> BootstrapDistribution:
    """Evaluate ``statistic`` on the sample and draw its bootstrap replicates
    from the statistic's sampler.

    ``sample`` is a 1-D array, or a :class:`~funcavg.dataset.TwoArmSample`,
    whose statistic is the contrast ``statistic(treated) -
    statistic(control)``.  Each replicate draws
    ``config.size_for(len(sample))`` rows, over both arms together.  After
    the statistic succeeded on the sample, ``statistic.batch(sample)`` is
    called once; it returns a sampler ``sampler(gen, b, m) -> (b,)`` that
    draws all ``b`` replicate values of ``m`` rows each from ``gen``, off the
    stream in one order however chunked.  Where the statistic would raise,
    the sampler raises :class:`~funcavg.errors.ResampleError` with the first
    failing replicate's index and the statistic's message.  The samplers of
    ``midrange``, ``discrete_plugin_average`` and, of two arms only,
    ``sample_mean`` are described in :mod:`funcavg.estimators`.

    Raises
    ------
    DataError
        If ``sample`` is neither a two-arm sample nor a non-empty, finite
        1-D array.
    ParameterError
        If the statistic has no ``batch``, or its ``batch`` returns ``None``
        for this input.
    ResampleError
        If the sampler returns a non-finite value; the first such replicate
        is reported.
    """
    if isinstance(sample, TwoArmSample):
        t0 = float(statistic(sample.treated) - statistic(sample.control))
    else:
        sample = finite_array(sample, "resample input")
        t0 = float(statistic(sample))
    batch = getattr(statistic, "batch", None)
    sampler = batch(sample) if batch is not None else None
    if sampler is None:
        name = getattr(statistic, "__name__", type(statistic).__name__)
        kind = "two-arm" if isinstance(sample, TwoArmSample) else "1-D"
        raise ParameterError(f"{name} has no bootstrap sampler for {kind} input")
    reps = sampler(config.rng.generator(), config.replicates, config.size_for(len(sample)))
    bad = np.flatnonzero(~np.isfinite(reps))
    if bad.size:
        raise ResampleError(int(bad[0]), "statistic returned a non-finite value")
    return BootstrapDistribution(statistic=t0, replicates=reps)


def hoeffding_ci(dist: BootstrapDistribution, alpha: float = 0.05) -> IntervalEstimate:
    """Range-based interval ``T0 +/- R * sqrt(log(2/alpha) / 2)``.

    ``R`` is the pooled range: the original statistic participates in the
    max and min alongside the replicates.  Validity needs only that the
    statistic is bounded, with the replicates standing in for the unknown
    extremes of its sampling distribution.
    """
    alpha = check_alpha(alpha)
    half = dist.pooled_range * math.sqrt(math.log(2.0 / alpha) / 2.0)
    return IntervalEstimate(point=dist.statistic, lower=dist.statistic - half,
                            upper=dist.statistic + half, alpha=alpha,
                            method="hoeffding")


def hoeffding_u_ci(dist: BootstrapDistribution, alpha: float = 0.05,
                   centered: bool = True) -> IntervalEstimate:
    """Interval ``T0 +/- 2 * R* * sqrt(log(2/alpha) / c)`` from replicate range.

    ``R*`` is the range of the replicates alone.  Doubling it covers the
    worst case in which the observed replicates straddle only half of the
    statistic's true range.  With ``centered=True`` the constant ``c = 6``
    applies, valid when the statistic's sampling mean coincides with the
    midpoint of its range (as for symmetric-support extremes); otherwise
    the general ``c = 2`` is used.  At ``alpha = 0.05`` the centered
    variant is wider than :func:`hoeffding_ci` by the factor
    ``2/sqrt(3) ~ 1.1547`` when the two ranges agree.
    """
    alpha = check_alpha(alpha)
    c = 6.0 if centered else 2.0
    half = 2.0 * dist.replicate_range * math.sqrt(math.log(2.0 / alpha) / c)
    return IntervalEstimate(point=dist.statistic, lower=dist.statistic - half,
                            upper=dist.statistic + half, alpha=alpha,
                            method="hoeffding-u" if centered else "hoeffding-u2")


def percentile_ci(dist: BootstrapDistribution, alpha: float = 0.05) -> IntervalEstimate:
    """Equal-tailed quantiles of the replicates (linear interpolation)."""
    alpha = check_alpha(alpha)
    lo, hi = np.quantile(dist.replicates, [alpha / 2.0, 1.0 - alpha / 2.0])
    return IntervalEstimate(point=dist.statistic, lower=float(lo), upper=float(hi),
                            alpha=alpha, method="percentile")


def popoviciu_check(dist: BootstrapDistribution) -> bool:
    """Self-test of Popoviciu's inequality: ``sd(replicates) <= R / 2``.

    Values confined to an interval of length ``R`` have a standard
    deviation of at most ``R / 2``, and the replicates lie inside their
    pooled range ``R``, so the check holds for every bootstrap
    distribution at every alpha; a failure indicates a bookkeeping bug
    rather than unusual data.  The comparison allows a slack of ``1e-12``
    times the largest magnitude among the pooled values, which absorbs the
    rounding of ``np.std``: two-point replicates sit on the bound and
    constant ones have ``R = 0``, and for both the computed standard
    deviation can exceed ``R / 2`` by a few ulps of the values.
    """
    sd = float(np.std(dist.replicates))
    scale = max(abs(dist.pooled_min), abs(dist.pooled_max))
    return bool(sd <= dist.pooled_range / 2.0 + 1e-12 * scale)
