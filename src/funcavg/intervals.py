"""Interval estimates tagged by construction method."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_alpha


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate together with a two-sided confidence interval.

    Endpoints are closed: ``contains`` uses ``lower <= theta <= upper``.
    """

    point: float
    lower: float
    upper: float
    alpha: float
    method: str

    def __post_init__(self):
        check_alpha(self.alpha)
        if not (np.isfinite(self.point) and np.isfinite(self.lower)
                and np.isfinite(self.upper)):
            raise ParameterError("interval endpoints and point must be finite")
        if self.lower > self.upper:
            raise ParameterError(
                f"interval endpoints out of order: ({self.lower}, {self.upper})")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, theta: float) -> bool:
        return bool(self.lower <= theta <= self.upper)

    def excludes(self, value: float) -> bool:
        """True when ``value`` falls strictly outside the closed interval."""
        return not self.contains(value)
