"""Seedable samplers for every generating process used by the simulations.

Supports are always bounded and known, because the estimands downstream are
functionals of the support rather than of moments.  Each sampler takes an
explicit :class:`~funcavg.rng.RngStream` so that simulation runs are
reproducible draw for draw.

The truncated-normal sampler imports ``scipy.special`` on its first call,
so importing this module costs no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count, check_probability
from .rng import RngStream

__all__ = [
    "TruncatedNormalSpec",
    "BernoulliSpec",
    "BinomialSpec",
    "sample_truncated_normal",
    "sample_bernoulli",
    "sample_bernoulli_probs",
    "sample_binomial",
    "round_to_integers",
]


# Farthest a one-sided support's nearer cut point may lie from mu, in
# standard deviations, for inversion to resolve the draws.
_MAX_TAIL_CUT = 1e6


@dataclass(frozen=True)
class TruncatedNormalSpec:
    """Normal distribution restricted to the closed interval [lower, upper].

    Parameters
    ----------
    lower, upper : float
        Support endpoints, ``lower < upper``.
    mu, sigma : float
        Location and scale of the parent normal before truncation.

    When the support lies on one side of ``mu``, its nearer standardized
    cut point ``|cut - mu| / sigma`` may be at most ``1e6``.  Further out
    ``mu + sigma * z`` cancels: with [0, 1] and sigma 1, ``mu = 1e8`` gives
    a handful of distinct draws, ``mu = 1e16`` only the wrong bound and
    ``mu = 1e160`` NaN, so such laws raise :class:`ParameterError`.
    """

    lower: float
    upper: float
    mu: float
    sigma: float

    def __post_init__(self):
        vals = (self.lower, self.upper, self.mu, self.sigma)
        if not all(np.isfinite(v) for v in vals):
            raise ParameterError(f"truncated normal parameters must be finite, got {vals}")
        if not self.lower < self.upper:
            raise ParameterError(
                f"truncation requires lower < upper, got [{self.lower}, {self.upper}]")
        if self.sigma <= 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        a = (self.lower - self.mu) / self.sigma
        b = (self.upper - self.mu) / self.sigma
        if (a >= 0 or b <= 0) and min(abs(a), abs(b)) > _MAX_TAIL_CUT:
            raise ParameterError(
                f"support [{self.lower}, {self.upper}] lies {min(abs(a), abs(b)):.7g} "
                f"standard deviations from mu; at most {_MAX_TAIL_CUT:g} can be sampled")

    @property
    def support(self) -> tuple[float, float]:
        return (self.lower, self.upper)


@dataclass(frozen=True)
class BernoulliSpec:
    """Coin flip with success probability ``p``."""

    p: float

    def __post_init__(self):
        check_probability(self.p, "p")


@dataclass(frozen=True)
class BinomialSpec:
    """Number of successes in ``trials`` flips with success probability ``p``."""

    trials: int
    p: float

    def __post_init__(self):
        check_count(self.trials, "trials", 1)
        check_probability(self.p, "p")

    @property
    def support(self) -> tuple[int, int]:
        return (0, self.trials)


def sample_truncated_normal(spec: TruncatedNormalSpec, n, rng: RngStream) -> np.ndarray:
    """Draw ``n`` values from a truncated normal by CDF inversion.

    Uniform variates are mapped through the inverse of the truncated CDF.
    When the support straddles the parent mean the plain normal CDF is
    inverted.  When both standardized cut points lie on one side of it,
    the inversion runs on the log CDF of that tail (mirrored for the upper
    tail), which keeps full relative precision however deep the tail is:
    the plain CDF underflows to 0 beyond about 37.5 standard deviations.
    The spec keeps such a tail within 1e6 standard deviations of the mean.

    Returns
    -------
    numpy.ndarray
        Float array of shape ``(n,)`` with every value inside
        ``[spec.lower, spec.upper]``.
    """
    from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

    n = check_count(n, "n", 1)
    u = rng.generator().random(n)
    a = (spec.lower - spec.mu) / spec.sigma
    b = (spec.upper - spec.mu) / spec.sigma
    if a < 0 < b:
        pa = ndtr(a)
        pb = ndtr(b)
        z = ndtri(pa + u * (pb - pa))
    else:
        # One tail: mirror the upper one onto the lower, then invert
        # log(Phi(lo) (1-u) + Phi(hi) u), taken as log Phi(hi) plus the log
        # of a weighted sum of positive terms.
        sign = -1.0 if a >= 0 else 1.0
        lo, hi = sorted((sign * a, sign * b))
        log_lo, log_hi = log_ndtr(lo), log_ndtr(hi)
        z = sign * ndtri_exp(log_hi + np.log(u + (1.0 - u) * np.exp(log_lo - log_hi)))
    out = spec.mu + spec.sigma * z
    return np.clip(out, spec.lower, spec.upper)


def sample_bernoulli(spec: BernoulliSpec, n, rng: RngStream) -> np.ndarray:
    """Draw ``n`` Bernoulli(p) values as an integer 0/1 array."""
    n = check_count(n, "n", 1)
    return (rng.generator().random(n) < spec.p).astype(np.int64)


def sample_bernoulli_probs(probs, rng: RngStream) -> np.ndarray:
    """Draw one Bernoulli value per entry of ``probs``.

    Used for treatment assignment whose probability depends on a covariate.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ParameterError("probs must be a non-empty 1-D array")
    if not np.all(np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise ParameterError("every probability must lie in [0, 1]")
    return (rng.generator().random(p.size) < p).astype(np.int64)


def sample_binomial(spec: BinomialSpec, n, rng: RngStream) -> np.ndarray:
    """Draw ``n`` Binomial(trials, p) counts as an integer array."""
    n = check_count(n, "n", 1)
    return rng.generator().binomial(spec.trials, spec.p, size=n).astype(np.int64)


def round_to_integers(values) -> np.ndarray:
    """Round to the nearest integer, ties away from zero.

    ``2.5`` becomes ``3`` and ``-2.5`` becomes ``-3``, matching the
    convention used to build integer-valued outcomes from continuous draws.
    """
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ParameterError("cannot round non-finite values")
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)
