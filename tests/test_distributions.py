import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from funcavg.distributions import (
    BernoulliSpec,
    BinomialSpec,
    TruncatedNormalSpec,
    round_to_integers,
    sample_bernoulli,
    sample_bernoulli_probs,
    sample_binomial,
    sample_truncated_normal,
)
from funcavg.errors import ParameterError
from funcavg.rng import RngStream


def test_truncated_normal_spec_validation():
    with pytest.raises(ParameterError):
        TruncatedNormalSpec(5, 5, 0, 1)
    with pytest.raises(ParameterError):
        TruncatedNormalSpec(0, 10, 5, 0.0)
    with pytest.raises(ParameterError):
        TruncatedNormalSpec(0, 10, 5, -1)
    with pytest.raises(ParameterError):
        TruncatedNormalSpec(0, float("inf"), 5, 1)
    assert TruncatedNormalSpec(0, 20, 10, 5).support == (0, 20)


@pytest.mark.parametrize("mu", [1e8, 1e15, 1e16, -1e16, 1e160])
def test_truncated_normal_rejects_tails_inversion_cannot_resolve(mu):
    # mu + sigma * z cancels this far out: a few distinct draws at 1e8,
    # only 0.875 at 1e15, only the wrong bound at +-1e16, NaN at 1e160.
    with pytest.raises(ParameterError, match="standard deviations"):
        TruncatedNormalSpec(0, 1, mu, 1)
    TruncatedNormalSpec(0, 1, math.copysign(1e6, mu), 1)  # the bound is allowed


def test_truncated_normal_sample_bounds_and_mean():
    spec = TruncatedNormalSpec(0, 20, 10, 5)
    x = sample_truncated_normal(spec, 100_000, RngStream(42, (1,)))
    assert x.shape == (100_000,)
    assert x.min() >= 0 and x.max() <= 20
    # Symmetric truncation keeps the parent location as the mean.
    assert abs(x.mean() - 10.0) < 0.1


@pytest.mark.parametrize("law", [
    TruncatedNormalSpec(0, 20, 10, 5),
    TruncatedNormalSpec(0, 15, 10, 3),
    TruncatedNormalSpec(10, 20, 0, 4),   # support entirely above the parent mean
    TruncatedNormalSpec(-6, -2, 0, 1),   # support entirely below it
])
def test_truncated_normal_matches_reference_cdf(law):
    """Empirical CDF stays inside a DKW band around the analytic CDF."""
    n, alpha = 100_000, 0.01
    x = np.sort(sample_truncated_normal(law, n, RngStream(7, (2,))))
    a = (law.lower - law.mu) / law.sigma
    b = (law.upper - law.mu) / law.sigma
    ref = stats.truncnorm(a, b, loc=law.mu, scale=law.sigma)
    band = math.sqrt(math.log(2 / alpha) / (2 * n))
    # Parent quartiles when they land inside the support, else the law's own.
    points = [law.mu - 0.6745 * law.sigma, law.mu, law.mu + 0.6745 * law.sigma]
    if not all(law.lower < q < law.upper for q in points):
        points = list(ref.ppf([0.25, 0.5, 0.75]))
    for q in points:
        empirical = np.searchsorted(x, q, side="right") / n
        assert abs(empirical - ref.cdf(q)) < band


ENDPOINT = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(ENDPOINT, ENDPOINT)
@example(-100.0, -99.0)   # support [0, 1] under mu=100: mass next to 1
@example(50.0, 51.0)      # support [0, 1] under mu=-50: mass next to 0
@example(-1e3, -999.0)
@example(999.0, 1e3)
def test_truncated_normal_mean_matches_scipy_over_deep_tails(x, y):
    """Draws stay in the support and their mean matches scipy's truncnorm."""
    a, b = min(x, y), max(x, y)
    assume(b - a > 1e-6)
    n = 2000
    draws = sample_truncated_normal(TruncatedNormalSpec(a, b, 0.0, 1.0), n,
                                    RngStream(21))
    assert draws.min() >= a and draws.max() <= b
    # scipy's variance cancels to nan deep in a tail, so bound the sd
    # instead: by 1, by half the width, and by 1/c for a one-sided
    # support whose nearer endpoint sits c > 0 from the parent mean.
    c = max(a, -b, 0.0)
    sd = min(1.0, (b - a) / 2.0, 1.0 / c if c > 0 else 1.0)
    tolerance = 6.0 * sd / math.sqrt(n) + 1e-9 * max(1.0, abs(a), abs(b))
    assert abs(draws.mean() - stats.truncnorm(a, b).mean()) <= tolerance


def test_symmetric_spec_mean_agrees_with_midrange():
    spec = TruncatedNormalSpec(0, 20, 10, 5)
    x = sample_truncated_normal(spec, 100_000, RngStream(11, (0,)))
    mid = (x.min() + x.max()) / 2
    assert abs(x.mean() - mid) < 0.06


def test_truncated_normal_determinism():
    spec = TruncatedNormalSpec(0, 15, 10, 3)
    a = sample_truncated_normal(spec, 50, RngStream(9, (3,)))
    b = sample_truncated_normal(spec, 50, RngStream(9, (3,)))
    c = sample_truncated_normal(spec, 50, RngStream(9, (4,)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bernoulli_degenerate_and_range():
    assert sample_bernoulli(BernoulliSpec(0.0), 200, RngStream(1)).sum() == 0
    assert sample_bernoulli(BernoulliSpec(1.0), 200, RngStream(1)).sum() == 200
    x = sample_bernoulli(BernoulliSpec(0.3), 100_000, RngStream(2, (5,)))
    assert set(np.unique(x)) <= {0, 1}
    assert abs(x.mean() - 0.3) < 0.01


def test_bernoulli_probs_per_unit():
    p = np.array([0.0, 1.0, 0.5])
    x = sample_bernoulli_probs(np.tile(p, 1000), RngStream(3, (1,)))
    x = x.reshape(1000, 3)
    assert x[:, 0].sum() == 0
    assert x[:, 1].sum() == 1000
    assert 300 < x[:, 2].sum() < 700
    with pytest.raises(ParameterError):
        sample_bernoulli_probs([0.5, 1.2], RngStream(0))


def test_binomial_moments_and_support():
    spec = BinomialSpec(30, 0.5)
    x = sample_binomial(spec, 100_000, RngStream(4, (0,)))
    assert x.min() >= 0 and x.max() <= 30
    assert x.dtype == np.int64
    assert abs(x.mean() - 15.0) < 0.05
    assert spec.support == (0, 30)
    with pytest.raises(ParameterError):
        BinomialSpec(0, 0.5)
    with pytest.raises(ParameterError):
        BinomialSpec(10, 1.5)


def test_round_to_integers_half_away_from_zero():
    out = round_to_integers([2.5, -2.5, 1.2, -0.5, 0.0, 3.7])
    assert out.tolist() == [3, -3, 1, -1, 0, 4]
    assert out.dtype == np.int64
    with pytest.raises(ParameterError):
        round_to_integers([1.0, float("nan")])


def test_sample_size_validation():
    spec = BernoulliSpec(0.5)
    with pytest.raises(ParameterError):
        sample_bernoulli(spec, 0, RngStream(0))
    with pytest.raises(ParameterError):
        sample_truncated_normal(TruncatedNormalSpec(0, 1, 0.5, 1), -3, RngStream(0))
