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

from .errors import DataError, FuncavgError, ParameterError, ResampleError
from .intervals import IntervalEstimate, check_alpha
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

# Cap on index cells drawn per chunk: the int64 index block, and each gather
# a batch kernel makes from it, stay near 2 MB for any n and B.
_CHUNK_CELLS = 1 << 18


def sqrt_resample_size(n: int) -> int:
    """Resample size ``round(sqrt(n))``, ties rounded away from zero."""
    if n < 1:
        raise DataError(f"need at least one observation, got {n}")
    return int(math.floor(math.sqrt(n) + 0.5))


@dataclass(frozen=True)
class BootstrapConfig:
    """How to resample: how many replicates, how large, from which stream.

    Parameters
    ----------
    replicates : int
        Number of bootstrap replicates ``B``, at least 2: the intervals
        read a spread off them, and one replicate has none.
    rng : RngStream
        Stream all index draws come from.
    resample_size : {"full", "sqrt"}
        ``"full"`` draws ``n`` rows per replicate, ``"sqrt"`` draws
        ``round(sqrt(n))``.
    max_failure_share : float
        Share of replicates, in ``[0, 1)``, whose statistic may raise a
        :class:`~funcavg.errors.FuncavgError` and be dropped.  At the
        default of 0 every failure is an error.
    """

    replicates: int
    rng: RngStream
    resample_size: str = "full"
    max_failure_share: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.replicates, (int, np.integer)) and self.replicates >= 2):
            raise ParameterError(
                f"replicates must be an integer of at least 2, got {self.replicates!r}")
        if self.resample_size not in ("full", "sqrt"):
            raise ParameterError(
                f"resample_size must be 'full' or 'sqrt', got {self.resample_size!r}")
        if not 0.0 <= self.max_failure_share < 1.0:
            raise ParameterError(f"max_failure_share must lie in [0, 1), "
                                 f"got {self.max_failure_share!r}")

    def size_for(self, n: int) -> int:
        """Resolve the per-replicate draw count for a sample of size ``n``."""
        return n if self.resample_size == "full" else sqrt_resample_size(n)


@dataclass(frozen=True)
class BootstrapDistribution:
    """A statistic on the original sample plus its bootstrap replicates."""

    statistic: float
    replicates: np.ndarray = field(repr=False)

    def __post_init__(self):
        reps = np.asarray(self.replicates, dtype=float)
        object.__setattr__(self, "replicates", reps)
        if reps.ndim != 1 or reps.size == 0:
            raise DataError("replicates must form a non-empty 1-D array")
        if not (np.isfinite(self.statistic) and np.all(np.isfinite(reps))):
            raise DataError("statistic and replicates must all be finite")

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


def _as_resample_input(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[0] == 0:
        raise DataError(f"resample input must be a non-empty 1-D or 2-D array, "
                        f"got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("resample input contains non-finite values")
    return arr


def resample(values, config: BootstrapConfig,
             statistic: Callable[[np.ndarray], float]) -> BootstrapDistribution:
    """Evaluate ``statistic`` on the sample and on bootstrap resamples of it.

    ``values`` may be 1-D (a plain sample) or 2-D (rows resampled jointly,
    for paired outcome/treatment data); rows are drawn with replacement.
    For the original sample a float array is passed to the statistic as
    itself.  Replicate ``k`` consumes a fixed slice of the index stream,
    so results do not depend on internal chunk sizes and replicate values
    can be aggregated by index.

    A replicate whose statistic raises a
    :class:`~funcavg.errors.FuncavgError` is dropped while no more than
    ``config.max_failure_share`` of the replicates fail.

    A statistic may carry a ``batch`` attribute to skip the per-replicate
    calls.  With ``config.max_failure_share == 0``, ``resample`` calls
    ``statistic.batch(arr)`` once, after the statistic succeeded on the
    sample, with the float array it draws rows from.  It returns ``None``
    when the data do not qualify, and the loop runs as usual, or a kernel
    ``kernel(idx, first) -> (k,)`` that is called once per chunk with the
    chunk's ``(k, m)`` index block and the index of its first replicate.
    The kernel returns the ``k`` replicate values, bit-identical to
    calling the statistic row by row, so the draws and the results do not
    depend on which path runs.  Where the statistic would raise, the
    kernel raises :class:`~funcavg.errors.ResampleError` with the first
    failing replicate's index and the statistic's message.  ``midrange``
    and ``discrete_plugin_average`` (on integer values) each carry one
    ``batch``, which reads a plain sample or ``(outcome, label)`` rows,
    and :func:`~funcavg.estimators.contrast` forwards it; any other
    statistic keeps the loop.

    Raises
    ------
    ResampleError
        If the statistic raises on a replicate that may not be dropped,
        raises anything other than a ``FuncavgError``, or returns a
        non-finite value; the replicate index is reported.
    DataError
        If more replicates fail than ``config.max_failure_share`` allows.
    """
    arr = _as_resample_input(values)
    n = arr.shape[0]
    m = config.size_for(n)
    b = config.replicates

    t0 = float(statistic(arr))
    batch = getattr(statistic, "batch", None)
    kernel = batch(arr) if batch is not None and not config.max_failure_share else None
    gen = config.rng.generator()
    reps = np.empty(b, dtype=float)
    dropped = np.zeros(b, dtype=bool)
    chunk = max(1, min(b, _CHUNK_CELLS // m))
    for start in range(0, b, chunk):
        idx = gen.integers(0, n, size=(min(chunk, b - start), m))
        if kernel is not None:
            reps[start:start + len(idx)] = kernel(idx, start)
            continue
        for k, rows in enumerate(idx, start):
            try:
                reps[k] = statistic(arr[rows])
            except Exception as exc:
                if not (config.max_failure_share and isinstance(exc, FuncavgError)):
                    raise ResampleError(k, str(exc)) from exc
                dropped[k] = True

    bad = np.flatnonzero(~(np.isfinite(reps) | dropped))
    if bad.size:
        raise ResampleError(int(bad[0]), "statistic returned a non-finite value")
    failed = int(dropped.sum())
    if failed > config.max_failure_share * b:
        raise DataError(
            f"{failed} of {b} bootstrap replicates failed, more than the "
            f"{config.max_failure_share:.0%} tolerated; the statistic is too "
            "fragile on this data to bootstrap")
    return BootstrapDistribution(statistic=t0, replicates=reps[~dropped])


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
