"""Rectangular, all-numeric datasets passed between ingestion and fitting."""

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
