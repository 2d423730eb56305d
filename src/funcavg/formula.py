"""Model terms: an outcome ~ intercept + products of columns.

A :class:`Term` is a product of named columns (one column alone is a
plain term; a column repeated is its square), and a :class:`ModelSpec`
is an outcome name plus ordered terms.  An intercept is always included.
Terms know how to evaluate themselves against a
:class:`~funcavg.dataset.Dataset`, which is what lets counterfactual
predictions rebuild product columns after the treatment column is
overridden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ParameterError


@dataclass(frozen=True)
class Term:
    """Product of named columns; a column repeated twice is its square."""

    factors: tuple[str, ...]

    def __post_init__(self):
        if not self.factors:
            raise ParameterError("a term needs at least one factor")

    @property
    def label(self) -> str:
        return ":".join(self.factors)

    def evaluate(self, dataset: Dataset) -> np.ndarray:
        out = dataset.column(self.factors[0]).copy()
        for name in self.factors[1:]:
            out *= dataset.column(name)
        return out

    def mentions(self, name: str) -> bool:
        return name in self.factors


@dataclass(frozen=True)
class ModelSpec:
    """An outcome name plus ordered design terms."""

    outcome: str
    terms: tuple[Term, ...]

    def __post_init__(self):
        labels = [t.label for t in self.terms]
        dupes = {l for l in labels if labels.count(l) > 1}
        if dupes:
            raise ParameterError(f"duplicate model terms: {', '.join(sorted(dupes))}")
