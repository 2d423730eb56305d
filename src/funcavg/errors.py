"""Exception types shared across the package.

Everything raised on bad input or a failed numerical procedure derives from
:class:`FuncavgError`, so callers (the CLI in particular) can distinguish
"your data or parameters are wrong" from genuine bugs.
"""

from __future__ import annotations


class FuncavgError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(FuncavgError, ValueError):
    """A distribution or configuration parameter is out of its legal range."""


class DataError(FuncavgError, ValueError):
    """A data array violates a precondition (empty, non-finite, wrong shape)."""


class SingularDesignError(FuncavgError):
    """The design matrix is numerically rank deficient.

    ``column`` names the offending design column.
    """

    def __init__(self, column: str, message: str | None = None):
        self.column = column
        super().__init__(message or f"design matrix is singular: column {column!r} "
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
