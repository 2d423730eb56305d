"""Rectangular, all-numeric datasets passed between ingestion and fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError


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
        clean: dict[str, np.ndarray] = {}
        length = None
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1:
                raise DataError(f"column {name!r} must be 1-D, got shape {arr.shape}")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise SchemaError(
                    f"column {name!r} has {arr.size} rows, expected {length}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"column {name!r} contains non-finite values")
            clean[name] = arr
        if length == 0:
            raise DataError("dataset has zero rows")
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
