"""Bootstrap replicates against the closed-form laws they must follow.

Each test draws many replicates from a small sample and compares what it
sees with the exact bootstrap law of the statistic: the law of the ranks
of the two bootstrap extremes, the chance that a distinct value is drawn,
the binomial split of the draws between two arms, and the first two
moments of a difference of arm means.  None of them looks at how the
replicates are drawn, so they hold for any correct way of drawing them.

Every seed below was fixed before the test first ran.  Each docstring
states the test's false-alarm rate; a failure is a finding about the
program, not a reason to re-seed or to widen a bound.
"""

import itertools

import numpy as np
import pytest
from scipy import stats

from funcavg.bootstrap import BootstrapConfig, resample
from funcavg.dataset import TwoArmSample
from funcavg.estimators import discrete_plugin_average, midrange, sample_mean
from funcavg.rng import RngStream

ALPHA = 1e-3  # false-alarm rate of each test


def chi_square_p(observed, expected):
    """Chi-square p-value of ``observed`` counts against ``expected`` ones.

    Cells expected below 5 are pooled into one, so the statistic's
    chi-square approximation holds.
    """
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    small = expected < 5.0
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(statistic, observed.size - 1))


def decode(replicates, table):
    """Index into ``table`` of the key nearest each replicate; every
    replicate must match a key to within rounding."""
    keys = np.array(list(table), dtype=float)
    gap = np.abs(replicates[:, None] - keys[None, :])
    nearest = gap.argmin(axis=1)
    assert gap[np.arange(replicates.size), nearest].max() < 1e-9
    return nearest


def extreme_rank_law(n, m):
    """``{(i, j): P(I = i, J = j)}`` for the ranks ``I <= J`` of the smallest
    and largest of ``m`` draws with replacement from ``n`` sorted values,
    from ``P(I >= i, J <= j) = ((j - i + 1) / n) ** m``."""
    def tail(i, j):
        return (max(j - i + 1, 0) / n) ** m
    return {(i, j): tail(i, j) - tail(i + 1, j) - tail(i, j - 1) + tail(i + 1, j - 1)
            for i in range(n) for j in range(i, n)}


@pytest.mark.parametrize("size, seed", [("full", 1), ("sqrt", 2)])
def test_midrange_extreme_ranks_follow_the_exact_law(size, seed):
    """Ranks of the bootstrap extremes against their closed-form joint law.

    The sample is ``2 ** i`` for ``i < 8``, so a replicate midrange names
    its pair of extreme ranks.  A chi-square test over all pairs (rare
    ones pooled) rejects at p < 1e-3: a false alarm in at most 1 run in
    1,000, up to the chi-square approximation.
    """
    n, b = 8, 40_000
    x = 2.0 ** np.arange(n)
    config = BootstrapConfig(b, RngStream(9101, (seed,)), size)
    law = extreme_rank_law(n, config.size_for(n))
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    table = {(x[i] + x[j]) / 2.0: p for (i, j), p in law.items()}
    assert len(table) == len(law)
    cells = decode(resample(x, config, midrange).replicates, table)
    observed = np.bincount(cells, minlength=len(table))
    assert chi_square_p(observed, b * np.array(list(table.values()))) > ALPHA


@pytest.mark.parametrize("size, seed", [("full", 1), ("sqrt", 2)])
def test_plugin_presence_follows_the_exact_law(size, seed):
    """Each distinct value appears in a replicate with chance ``1 - (1 - f/n)^m``.

    The sample holds 0, 1, 3 and 10 with frequencies 1, 2, 3 and 6; the
    15 subsets of these values have distinct means, so a replicate plug-in
    names the values it saw.  An exact binomial test per value, each at
    1e-3 / 4 (Bonferroni), gives a false alarm in at most 1 run in 1,000.
    """
    values = np.array([0.0, 1.0, 3.0, 10.0])
    freq = np.array([1, 2, 3, 6])
    x = np.repeat(values, freq)
    n, b = x.size, 20_000
    config = BootstrapConfig(b, RngStream(9102, (seed,)), size)
    m = config.size_for(n)
    subsets = [s for k in range(1, 5) for s in itertools.combinations(range(4), k)]
    table = {discrete_plugin_average(values[list(s)]): s for s in subsets}
    assert len(table) == len(subsets)
    cells = decode(resample(x, config, discrete_plugin_average).replicates, table)
    seen = np.array([[v in s for v in range(4)] for s in table.values()])[cells]
    for v in range(4):
        p = 1.0 - (1.0 - freq[v] / n) ** m
        test = stats.binomtest(int(seen[:, v].sum()), b, p)
        assert test.pvalue > ALPHA / 4, (values[v], seen[:, v].mean(), p)


# Two arms: 40 treated rows (one of them 1, the rest 0) and 80 control rows
# (one of them 1e6, the rest 0).  Whether each arm's marked row is drawn
# depends on how many of the m draws the arm received.
N_TREATED, N_CONTROL, MARK = 40, 80, 1e6


def two_arms():
    treated = np.zeros(N_TREATED)
    treated[0] = 1.0
    control = np.zeros(N_CONTROL)
    control[0] = MARK
    return TwoArmSample(treated=treated, control=control)


def marked_row_law(m):
    """Chances that neither marked row, only the treated one, only the
    control one, or both are drawn, with the treated draw count
    ``K ~ Binomial(m, n1 / n)`` given that neither arm is empty."""
    k = np.arange(1, m)
    weight = stats.binom.pmf(k, m, N_TREATED / (N_TREATED + N_CONTROL))
    weight /= weight.sum()
    t_missed = (1.0 - 1.0 / N_TREATED) ** k
    c_missed = (1.0 - 1.0 / N_CONTROL) ** (m - k)
    neither = float(weight @ (t_missed * c_missed))
    only_t = float(weight @ c_missed) - neither
    only_c = float(weight @ t_missed) - neither
    return np.array([neither, only_t, only_c, 1.0 - neither - only_t - only_c])


@pytest.mark.parametrize("estimator, seed", [
    (midrange, 1), (discrete_plugin_average, 2), (sample_mean, 3)])
def test_two_arm_split_is_binomial(estimator, seed):
    """The treated draw count of a contrast replicate is Binomial(m, n1/n).

    The chance of drawing each arm's marked row is a closed-form mixture
    over that count.  For the midrange and the plug-in, the contrast names
    which marked rows were drawn; for the mean it is negative exactly when
    the control one was, and otherwise positive exactly when the treated
    one was, so those cells are merged.  A chi-square test rejects at
    p < 1e-3: a false alarm in at most 1 run in 1,000, up to the
    chi-square approximation.
    """
    arms = two_arms()
    b = 20_000
    config = BootstrapConfig(b, RngStream(9103, (seed,)))
    law = b * marked_row_law(config.size_for(len(arms)))
    reps = resample(arms, config, estimator).replicates
    if estimator is sample_mean:
        c_seen = reps < 0.0
        t_seen = reps > 0.0
        observed = [np.sum(~c_seen & ~t_seen), np.sum(t_seen), np.sum(c_seen)]
        expected = [law[0], law[1], law[2] + law[3]]
    else:
        # The control part is 0, MARK / 2 or MARK; the treated part lies in [0, 1].
        treated_part = reps - np.round(reps / (MARK / 2.0)) * (MARK / 2.0)
        c_seen = reps < -1.0
        t_seen = treated_part > 0.0
        observed = [np.sum(~t_seen & ~c_seen), np.sum(t_seen & ~c_seen),
                    np.sum(~t_seen & c_seen), np.sum(t_seen & c_seen)]
        expected = law
    assert chi_square_p(observed, expected) > ALPHA


def test_mean_contrast_moments_follow_the_exact_law():
    """Replicate mean and variance of the difference of arm means.

    Given ``K`` treated draws, the treated mean has bootstrap mean ȳ₁ and
    variance σ̂₁²/K, and the control mean ȳ₀ and σ̂₀²/(m − K) (σ̂² with
    divisor n), with ``K ~ Binomial(m, n1/n)`` given that neither arm is
    empty.  Two z-tests, on the replicate mean and on the replicate
    variance (its standard error from the replicates' fourth moment), each
    at 1e-3 / 2 two-sided (Bonferroni), give a false alarm in at most 1
    run in 1,000, up to the normal approximation.
    """
    treated = np.arange(20.0) ** 1.5
    control = (np.arange(40.0) % 7.0) * 3.0
    arms = TwoArmSample(treated=treated, control=control)
    n, b = len(arms), 100_000
    config = BootstrapConfig(b, RngStream(9104))
    m = config.size_for(n)
    k = np.arange(1, m)
    weight = stats.binom.pmf(k, m, treated.size / n)
    weight /= weight.sum()
    mean = treated.mean() - control.mean()
    variance = treated.var() * float(weight @ (1.0 / k)) \
        + control.var() * float(weight @ (1.0 / (m - k)))
    reps = resample(arms, config, sample_mean).replicates
    z = stats.norm.isf(ALPHA / 4)
    assert abs(reps.mean() - mean) <= z * np.sqrt(variance / b)
    centred = reps - reps.mean()
    s2 = float(np.mean(centred ** 2))
    s2_se = np.sqrt((np.mean(centred ** 4) - s2 ** 2) / b)
    assert abs(s2 - variance) <= z * s2_se
