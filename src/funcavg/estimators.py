"""Point estimators for the functional average of a bounded outcome.

The target is the uniform average of the outcome's support, not its
expectation, so the natural estimators are built from observed distinct
values and observed extremes rather than from sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError

__all__ = [
    "as_sample",
    "TwoArmSample",
    "discrete_plugin_average",
    "midrange",
    "sample_mean",
    "paired_contrast",
]


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
    sx = np.sort(x)
    if tolerance == 0.0:
        return float(np.unique(sx).mean())
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
            raise DataError("both treatment arms must be non-empty")
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
        raise DataError("both treatment arms must be non-empty")
    return estimator(treated) - estimator(control)
