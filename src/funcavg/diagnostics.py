"""Empirical checks for support symmetry and estimator sanity.

The range-based intervals upstream are sharpest when the outcome's
probability mass is arranged so that the distribution function leaves
equal areas below and above itself over the observed range.  These
diagnostics measure how far a sample, or a fit's residuals, sit from that
ideal; none of them is a hypothesis test, they are descriptive gauges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .estimators import as_sample

__all__ = [
    "EcdfCurve",
    "SupportSymmetryReport",
    "ecdf",
    "sum_symmetry_gap",
    "mean_midrange_distance",
    "residual_support_symmetry",
]


@dataclass(frozen=True)
class EcdfCurve:
    """Right-continuous empirical distribution function.

    ``values`` holds the sorted distinct sample values, ``heights`` the
    cumulative fraction at each, ending at exactly 1.
    """

    values: np.ndarray = field(repr=False)
    heights: np.ndarray = field(repr=False)
    n: int

    def evaluate(self, x) -> np.ndarray:
        """F(x): fraction of the sample at or below ``x``."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.values, x, side="right")
        padded = np.concatenate([[0.0], self.heights])
        return padded[idx]

    @property
    def observed_range(self) -> float:
        return float(self.values[-1] - self.values[0])

    def area_below(self) -> float:
        """Integral of F over the observed range, exact for the step curve."""
        if self.values.size < 2:
            return 0.0
        gaps = np.diff(self.values)
        return float(np.sum(self.heights[:-1] * gaps))

    def area_above(self) -> float:
        """Integral of the survival curve 1 - F over the observed range."""
        if self.values.size < 2:
            return 0.0
        gaps = np.diff(self.values)
        return float(np.sum((1.0 - self.heights[:-1]) * gaps))


def ecdf(sample) -> EcdfCurve:
    x = as_sample(sample)
    values, counts = np.unique(x, return_counts=True)
    heights = np.cumsum(counts) / x.size
    heights[-1] = 1.0  # guard the top step against accumulated rounding
    return EcdfCurve(values=values, heights=heights, n=x.size)


def sum_symmetry_gap(sample) -> float:
    """Area below the ECDF minus area above it, over the observed range.

    Zero for distributions that put mass symmetrically around the middle
    of their support; positive when mass piles up near the minimum (the
    curve rises early), negative when it piles up near the maximum.
    Algebraically the gap equals ``2 * (midrange - mean)``, but it is
    computed here from the step function itself.  Divided by the observed
    range it is a scale-free number in ``[-1, 1]``.
    """
    curve = ecdf(sample)
    if curve.observed_range == 0.0:
        raise DataError("sum-symmetry gap needs a nondegenerate observed range")
    return curve.area_below() - curve.area_above()


def mean_midrange_distance(sample) -> float:
    """Absolute distance between the sample mean and the midrange.

    Large values flag laws whose support midpoint and expectation
    genuinely differ, exactly the situation in which mean-targeting and
    support-targeting estimators answer different questions.
    """
    x = as_sample(sample)
    return float(abs(x.mean() - (x.min() + x.max()) / 2.0))


@dataclass(frozen=True)
class SupportSymmetryReport:
    """Extremes of a residual sample and their asymmetry ratio."""

    max_residual: float
    min_residual: float
    asymmetry: float


def residual_support_symmetry(residuals) -> SupportSymmetryReport:
    """How symmetric about zero the support of a fit's ``residuals`` looks.

    ``asymmetry`` is ``|max + min| / (max - min)``: zero when the extremes
    mirror each other, towards one when all residuals share a sign.  The
    range-based coefficient interval assumes symmetric errors, so values
    well away from zero argue against using it.
    """
    r = as_sample(residuals)
    hi, lo = float(r.max()), float(r.min())
    if hi == lo:
        raise DataError("residual support symmetry needs a nondegenerate range")
    return SupportSymmetryReport(max_residual=hi, min_residual=lo,
                                 asymmetry=abs(hi + lo) / (hi - lo))
