"""Exception types shared across the package, and the checks that raise them.

Everything raised on bad input or a failed numerical procedure derives from
:class:`FuncavgError`, so callers (the CLI in particular) can distinguish
"your data or parameters are wrong" from genuine bugs.

The rules every module shares are stated here once, next to the exception
each raises: :func:`check_count` for counts and seeds, :func:`check_alpha`
and :func:`check_probability` for levels and probabilities, and
:func:`finite_array` for the arrays estimators and fits take.
"""

from __future__ import annotations

import numpy as np


class FuncavgError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(FuncavgError, ValueError):
    """A distribution or configuration parameter is out of its legal range."""


class DataError(FuncavgError, ValueError):
    """A data array violates a precondition (empty, non-finite, wrong shape)."""


def check_count(value, name: str, minimum: int, below: int | None = None) -> int:
    """``value`` as an ``int``, if it is an integer of at least ``minimum``
    and, given ``below``, less than that; else :class:`ParameterError`.

    A ``bool`` is refused, though Python counts it as an ``int``, and so
    are floats and strings, whole or not.
    """
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and minimum <= value and (below is None or value < below)):
        return int(value)
    bounds = f"of at least {minimum}" if below is None else f"in [{minimum}, {below})"
    raise ParameterError(f"{name} must be an integer {bounds}, got {value!r}")


def _real(value) -> float | None:
    """``value`` as a float if it is a real number, else ``None``.  As in
    :func:`check_count`, a ``bool`` is refused, and so are strings, ``None``
    and sequences."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    return None


def check_alpha(alpha) -> float:
    """``alpha`` as a float, if it is a number strictly inside (0, 1); else
    :class:`ParameterError`.  NaN fails the comparison, so it is refused."""
    value = _real(alpha)
    if value is None or not 0.0 < value < 1.0:
        raise ParameterError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return value


def check_probability(p, name: str) -> float:
    """``p`` as a float, if it is a number in [0, 1]; else :class:`ParameterError`."""
    value = _real(p)
    if value is None or not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {p!r}")
    return value


def finite_array(values, name: str, ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    """``values`` as a float array, if it has one of ``ndims`` dimensions, at
    least one entry and only finite ones; else :class:`DataError` naming
    ``name``."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in ndims:
        raise DataError(f"{name} must be {' or '.join(f'{d}-D' for d in ndims)}, "
                        f"got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{name} must not be empty, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        raise DataError(f"{name} must be finite, got {arr.flat[np.argmin(finite)]}")
    return arr


class SingularDesignError(FuncavgError):
    """The design matrix is numerically rank deficient.

    ``column`` names the offending design column.
    """

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"design matrix is singular: column {column!r} "
                         "is linearly dependent on the preceding columns")


class ConvergenceError(FuncavgError):
    """An iterative fit failed to converge.

    ``trace`` holds one ``(iteration, decrement)`` pair per Newton step
    taken, the log-likelihood gain that step predicted, so the failure
    mode is inspectable.
    """

    def __init__(self, message: str, trace: list[tuple[int, float]]):
        self.trace = trace
        super().__init__(f"{message} (last iterations: "
                         + ", ".join(f"{i}: {s:.3e}" for i, s in trace[-5:]) + ")")


class StratificationError(FuncavgError):
    """Propensity strata could not be formed (an empty stratum, usually ties)."""


class ResampleError(FuncavgError):
    """The statistic failed on a bootstrap replicate.

    ``replicate`` is the index of the failing replicate.
    """

    def __init__(self, replicate: int, message: str):
        self.replicate = replicate
        super().__init__(f"replicate {replicate}: {message}")


class CsvParseError(FuncavgError):
    """A CSV cell could not be parsed; names the row and column."""

    def __init__(self, row: int, column: str, message: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {message}")


class SchemaError(FuncavgError):
    """A referenced column is missing or the file layout is not rectangular."""
