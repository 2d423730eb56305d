"""The data shapes passed between ingestion, fitting and the bootstrap:
rectangular all-numeric datasets and two-arm samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError, finite_array


@dataclass(frozen=True)
class Dataset:
    """Named float columns of equal length with no missing values.

    Construction validates rectangularity and finiteness, so every function
    downstream can rely on clean arrays.
    """

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.columns:
            raise DataError("dataset needs at least one column")
        clean = {name: finite_array(values, f"column {name!r}")
                 for name, values in self.columns.items()}
        length = next(iter(clean.values())).size
        for name, arr in clean.items():
            if arr.size != length:
                raise SchemaError(
                    f"column {name!r} has {arr.size} rows, expected {length}")
        object.__setattr__(self, "columns", clean)

    @property
    def n_rows(self) -> int:
        return next(iter(self.columns.values())).size

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}; "
                              f"available: {', '.join(self.columns)}") from None

    def take(self, indices) -> "Dataset":
        """Row subset (or bootstrap resample) by integer indices."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu" or idx.ndim != 1 or idx.size == 0:
            raise DataError("row indices must form a non-empty 1-D integer array")
        # Rows of already-validated columns skip __post_init__, which would
        # rescan every column in each bootstrap replicate.
        subset = object.__new__(Dataset)
        object.__setattr__(subset, "columns",
                           {name: arr[idx] for name, arr in self.columns.items()})
        return subset


EMPTY_ARM = "both treatment arms must be non-empty"


@dataclass(frozen=True)
class TwoArmSample:
    """Outcomes split by a binary treatment label, the one form of two-arm
    data: :func:`~funcavg.bootstrap.resample` bootstraps the contrast
    ``estimator(treated) - estimator(control)`` from it."""

    treated: np.ndarray
    control: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "treated", finite_array(self.treated, "treated arm"))
        object.__setattr__(self, "control", finite_array(self.control, "control arm"))

    def __len__(self) -> int:
        """Rows in both arms together."""
        return self.treated.size + self.control.size

    @classmethod
    def from_labels(cls, values, labels) -> "TwoArmSample":
        """Split ``values`` by a 0/1 label array of the same length; label 1
        is treated.  Any other label, or an empty arm, is a
        :class:`~funcavg.errors.DataError`."""
        y = finite_array(values, "sample")
        t = np.asarray(labels)
        if t.shape != y.shape:
            raise DataError(
                f"labels shape {t.shape} does not match values shape {y.shape}")
        if not np.isin(t, (0, 1)).all():
            raise DataError("labels must contain only 0 and 1")
        mask = t == 1
        if mask.all() or not mask.any():
            raise DataError(EMPTY_ARM)
        return cls(treated=y[mask], control=y[~mask])
