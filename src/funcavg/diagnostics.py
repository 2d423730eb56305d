"""Empirical checks for support symmetry and estimator sanity.

The range-based intervals upstream are sharpest when the outcome's
probability mass is arranged so that the distribution function leaves
equal areas below and above itself over the observed range.  These
diagnostics measure how far a sample, or a fit's residuals, sit from that
ideal; none of them is a hypothesis test, they are descriptive gauges.
Both areas have closed forms, ``mean(max - x)`` and ``mean(x - min)``
(:func:`support_areas`), so every gauge reads off the mean and the two
extremes; :func:`ecdf` builds the step curve itself only to write it out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, finite_array

__all__ = [
    "EcdfCurve",
    "SupportSymmetryReport",
    "ecdf",
    "support_areas",
    "sum_symmetry_gap",
    "mean_midrange_distance",
    "residual_support_symmetry",
]


@dataclass(frozen=True)
class EcdfCurve:
    """Points of the right-continuous empirical distribution function.

    ``values`` holds the sorted distinct sample values, ``heights`` the
    cumulative fraction at each, ending at exactly 1.
    """

    values: np.ndarray = field(repr=False)
    heights: np.ndarray = field(repr=False)
    n: int


def ecdf(sample) -> EcdfCurve:
    x = finite_array(sample, "sample")
    values, counts = np.unique(x, return_counts=True)
    heights = np.cumsum(counts) / x.size
    heights[-1] = 1.0  # guard the top step against accumulated rounding
    return EcdfCurve(values=values, heights=heights, n=x.size)


def support_areas(sample) -> tuple[float, float]:
    """Areas below the ECDF and above it, over the observed range.

    Since ``E[X] = min + integral of (1 - F)``, the area below F is
    ``mean(max - x)`` and the area above it ``mean(x - min)``.  Measured
    from an extreme, the differences lose no digits to a common offset,
    and no sort is needed.  Both areas are 0 when every value is equal.
    """
    x = finite_array(sample, "sample")
    return float(np.mean(x.max() - x)), float(np.mean(x - x.min()))


def sum_symmetry_gap(sample) -> float:
    """Area below the ECDF minus area above it, over the observed range.

    Zero for distributions that put mass symmetrically around the middle
    of their support; positive when mass piles up near the minimum (the
    curve rises early), negative when it piles up near the maximum.
    The gap equals ``2 * (midrange - mean)``; divided by the observed
    range it is a scale-free number in ``[-1, 1]``.
    """
    x = finite_array(sample, "sample")
    if x.min() == x.max():
        raise DataError("sum-symmetry gap needs a nondegenerate observed range")
    below, above = support_areas(x)
    return below - above


def mean_midrange_distance(sample) -> float:
    """Absolute distance between the sample mean and the midrange.

    Large values flag laws whose support midpoint and expectation
    genuinely differ, exactly the situation in which mean-targeting and
    support-targeting estimators answer different questions.  It is half
    the absolute sum-symmetry gap, read off :func:`support_areas`.
    """
    below, above = support_areas(sample)
    return abs(below - above) / 2.0


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
    r = finite_array(residuals, "residuals")
    hi, lo = float(r.max()), float(r.min())
    if hi == lo:
        raise DataError("residual support symmetry needs a nondegenerate range")
    return SupportSymmetryReport(max_residual=hi, min_residual=lo,
                                 asymmetry=abs(hi + lo) / (hi - lo))
