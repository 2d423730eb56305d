"""Tiny model-formula language: ``outcome ~ a + b + I(a^2) + a:b``.

Deliberately small: plain column terms, squared terms written ``I(col^2)``,
and products written ``a:b``.  An intercept is always included.  Terms know
how to evaluate themselves against a :class:`~funcavg.dataset.Dataset`, which
is what lets counterfactual predictions rebuild interaction and square
columns after the treatment column is overridden.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ParameterError

_IDENT = r"[A-Za-z_][A-Za-z0-9_.]*"
_SQUARE_RE = re.compile(rf"^I\(\s*({_IDENT})\s*\^\s*2\s*\)$")
_IDENT_RE = re.compile(rf"^{_IDENT}$")


@dataclass(frozen=True)
class Term:
    """Product of named columns; a column repeated twice is its square."""

    factors: tuple[str, ...]

    def __post_init__(self):
        if not self.factors:
            raise ParameterError("a term needs at least one factor")

    @property
    def label(self) -> str:
        if len(self.factors) == 2 and self.factors[0] == self.factors[1]:
            return f"I({self.factors[0]}^2)"
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
    """Parsed formula: an outcome name plus ordered design terms."""

    outcome: str
    terms: tuple[Term, ...]

    def __post_init__(self):
        labels = [t.label for t in self.terms]
        dupes = {l for l in labels if labels.count(l) > 1}
        if dupes:
            raise ParameterError(f"duplicate model terms: {', '.join(sorted(dupes))}")

    @classmethod
    def parse(cls, text: str) -> "ModelSpec":
        if text.count("~") != 1:
            raise ParameterError(
                f"model must contain exactly one '~', got {text!r}")
        left, right = (part.strip() for part in text.split("~"))
        if not _IDENT_RE.match(left):
            raise ParameterError(f"bad outcome name {left!r}")
        terms = []
        for raw in right.split("+"):
            token = raw.strip()
            if token in ("", "1"):
                continue  # the intercept is always present
            terms.append(parse_term(token))
        return cls(outcome=left, terms=tuple(terms))


def parse_term(token: str) -> Term:
    square = _SQUARE_RE.match(token)
    if square:
        name = square.group(1)
        return Term((name, name))
    if ":" in token:
        factors = tuple(part.strip() for part in token.split(":"))
        if not all(_IDENT_RE.match(f) for f in factors):
            raise ParameterError(f"bad interaction term {token!r}")
        return Term(factors)
    if _IDENT_RE.match(token):
        return Term((token,))
    raise ParameterError(f"cannot parse model term {token!r}")
