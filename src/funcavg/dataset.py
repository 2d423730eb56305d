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

    @classmethod
    def _from_validated(cls, columns: dict[str, np.ndarray]) -> "Dataset":
        # Internal fast path for row subsets of already-validated data;
        # bootstrap loops would otherwise rescan every column per replicate.
        obj = object.__new__(cls)
        object.__setattr__(obj, "columns", columns)
        return obj

    def take(self, indices) -> "Dataset":
        """Row subset (or bootstrap resample) by integer indices."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu" or idx.ndim != 1 or idx.size == 0:
            raise DataError("row indices must form a non-empty 1-D integer array")
        return Dataset._from_validated(
            {name: arr[idx] for name, arr in self.columns.items()})

    def with_column(self, name: str, values) -> "Dataset":
        """Copy of the dataset with one column added or replaced."""
        arr = np.broadcast_to(np.asarray(values, dtype=float), (self.n_rows,)).copy()
        if not np.all(np.isfinite(arr)):
            raise DataError(f"column {name!r} contains non-finite values")
        merged = dict(self.columns)
        merged[name] = arr
        return Dataset._from_validated(merged)
