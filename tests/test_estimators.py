import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from funcavg.bootstrap import BootstrapConfig, BootstrapDistribution, index_blocks, resample
from funcavg.dataset import EMPTY_ARM, Dataset, TwoArmSample
from funcavg.errors import DataError, ParameterError, ResampleError
from funcavg.rng import RngStream
from funcavg.estimators import discrete_plugin_average, midrange, sample_mean
from funcavg.regression import DesignMatrix, ols_fit, propensity_strata


def test_plugin_average_counts_each_distinct_value_once():
    assert discrete_plugin_average([1, 2, 2, 3]) == 2.0
    assert discrete_plugin_average([0, 0, 1]) == 0.5
    assert discrete_plugin_average([7]) == 7.0
    # Heavy duplication moves the mean but not the plug-in value.
    assert discrete_plugin_average([0] * 999 + [10]) == 5.0


def test_midrange_examples():
    assert midrange([0, 10]) == 5.0
    assert midrange([3]) == 3.0
    assert midrange([2, 9, 4, 4]) == 5.5


def test_sample_mean():
    assert sample_mean([1, 2, 3, 6]) == 3.0


def _fit_of(response):
    x = np.arange(6.0)
    return ols_fit(DesignMatrix(np.column_stack([np.ones(6), x]), ("intercept", "x")),
                   response)


_NAN = float("nan")

# Every site of the one finite-array rule: the name its DataError gives, the
# call, and an empty, a wrong-dimension and a non-finite input.  A NaN score
# used to be blamed on tied propensity scores.
ARRAY_SITES = [
    ("sample", midrange, ([], [[1, 2]], [1.0, _NAN], [1.0, float("inf")])),
    ("treated arm", lambda v: TwoArmSample(treated=v, control=[1.0]), ([], [[1.0]], [_NAN])),
    ("control arm", lambda v: TwoArmSample(treated=[1.0], control=v), ([], [[1.0]], [_NAN])),
    # (outcome, label) rows are not two-arm data: only a TwoArmSample is.
    ("resample input", lambda v: resample(v, BootstrapConfig(10, RngStream(0)), midrange),
     ([], [[1.0, 0.0], [2.0, 1.0]], np.ones((2, 2, 2)), [1.0, _NAN])),
    ("replicates", lambda v: BootstrapDistribution(1.0, v), ([], [[1.0, 2.0]], [1.0, _NAN])),
    ("statistic", lambda v: BootstrapDistribution(v, [1.0, 2.0]), ([], [1.0], _NAN)),
    ("design matrix", lambda v: DesignMatrix(v, ("a", "b")),
     (np.empty((0, 2)), [1.0, 2.0], [[1.0, 2.0], [_NAN, 1.0]])),
    ("response", _fit_of, ([], np.ones((6, 1)), [1.0, 2.0, _NAN, 4.0, 5.0, 6.0])),
    ("propensity scores", propensity_strata,
     ([], [[0.1, 0.2]], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, _NAN])),
    ("column 'y'", lambda v: Dataset({"y": v}), ([], [[1.0, 2.0]], [1.0, _NAN])),
]


def test_sample_validation():
    for name, call, bad_inputs in ARRAY_SITES:
        for bad in bad_inputs:
            with pytest.raises(DataError, match=f"^{re.escape(name)} must "):
                call(bad)


@given(
    values=st.lists(st.integers(min_value=-2000, max_value=2000), min_size=1,
                    max_size=40),
    scale_tenths=st.integers(min_value=-50, max_value=50).filter(lambda a: a != 0),
    shift=st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_estimators_are_shift_and_scale_equivariant(values, scale_tenths, shift):
    # Half-integer grids keep distinct values distinct after the affine map,
    # so the plug-in estimator sees the same grouping before and after.
    x = np.asarray(values, dtype=float) / 2.0
    a, b = scale_tenths / 10.0, float(shift)
    for est in (discrete_plugin_average, midrange, sample_mean):
        assert est(a * x + b) == pytest.approx(a * est(x) + b, rel=1e-9, abs=1e-9)


def test_two_arm_from_labels():
    two = TwoArmSample.from_labels([5.0, 1.0, 7.0, 3.0], [1, 0, 1, 0])
    assert two.treated.tolist() == [5.0, 7.0]
    assert two.control.tolist() == [1.0, 3.0]
    assert two.treated.size == 2 and two.control.size == 2
    assert len(two) == 4


def test_two_arm_rejects_empty_or_bad_labels():
    with pytest.raises(DataError):
        TwoArmSample.from_labels([1.0, 2.0], [1, 1])
    with pytest.raises(DataError):
        TwoArmSample.from_labels([1.0, 2.0], [0, 0])
    with pytest.raises(DataError):
        TwoArmSample.from_labels([1.0, 2.0], [0, 2])
    with pytest.raises(DataError):
        TwoArmSample.from_labels([1.0, 2.0], [0])


def test_two_arm_resample_is_the_arm_contrast_drawn_over_all_rows():
    # Ten copies of each row, so that no replicate leaves an arm empty.
    two = TwoArmSample.from_labels(np.tile([5.0, 1.0, 7.0, 3.0, 2.0], 10),
                                   np.tile([1, 0, 1, 0, 0], 10))
    for est in (midrange, discrete_plugin_average, sample_mean):
        got = resample(two, BootstrapConfig(20, RngStream(0)), est)
        assert got.statistic == est(two.treated) - est(two.control)
    # Each replicate draws round(sqrt(n0 + n1)) rows, not per-arm sizes:
    # sqrt(30 + 6) = 6, against round(sqrt(30)) + round(sqrt(6)) = 7.
    two = TwoArmSample(treated=np.arange(6.0), control=np.arange(30.0))
    assert len(two) == 36
    seen = []

    def recorded(values):
        return float(np.max(values))

    def batch(sample):
        def sampler(gen, b, m):
            seen.append((len(sample), m))
            return np.zeros(b)
        return sampler

    recorded.batch = batch
    for size, m in (("sqrt", 6), ("full", 36)):
        resample(two, BootstrapConfig(5, RngStream(0), size), recorded)
        assert seen.pop() == (36, m)
    # One treated row among 40: some resample leaves the arm empty, and
    # resample names that replicate.
    lone = TwoArmSample(treated=[0.0], control=np.arange(1.0, 40.0))
    for est in (midrange, sample_mean):
        with pytest.raises(ResampleError, match="replicate"):
            resample(lone, BootstrapConfig(50, RngStream(3)), est)


# Samplers.  Each draws from the exact bootstrap law, not from row indices
# (tests/test_bootstrap_law.py checks the law).

def _looped(sample, config, estimator):
    """Reference replicates: ``estimator`` on the rows of each replicate of
    the index draw (of two arms, on its treated rows minus on its control
    rows), and the first failure as a ResampleError naming it."""
    if isinstance(sample, TwoArmSample):
        values = np.concatenate([sample.treated, sample.control])
        treated = np.arange(len(sample)) < sample.treated.size
    else:
        values, treated = np.asarray(sample, dtype=float), None

    def statistic(rows):
        if treated is None:
            return estimator(values[rows])
        arm = treated[rows]
        if arm.all() or not arm.any():
            raise DataError(EMPTY_ARM)
        return estimator(values[rows[arm]]) - estimator(values[rows[~arm]])

    reps = np.empty(config.replicates)
    m = config.size_for(len(sample))
    for start, idx in index_blocks(config.rng.generator(), len(sample), config.replicates, m):
        for k, rows in enumerate(idx, start):
            try:
                reps[k] = statistic(rows)
            except DataError as exc:
                raise ResampleError(k, str(exc)) from exc
    return reps


def _kernel_cases():
    rng = np.random.default_rng(11)
    n = 400
    continuous = rng.normal(5.0, 3.0, n)
    integers = rng.binomial(30, 0.4, n) + 10.0 * rng.integers(0, 2, n)
    # Half the rows are treated, so that a 20-draw resample leaves an arm
    # empty with chance about 2e-6: with a third treated it is 3e-4, and
    # 2,000 replicates would likely hit one.
    labels = rng.choice([0.0, 1.0, 2.0], size=n, p=[0.25, 0.5, 0.25])

    def arms(y):
        return TwoArmSample(treated=y[labels == 1], control=y[labels != 1])

    return [
        pytest.param(continuous, midrange, id="midrange"),
        pytest.param(integers, discrete_plugin_average, id="plugin"),
        pytest.param(arms(continuous), midrange, id="midrange-contrast"),
        pytest.param(arms(integers), discrete_plugin_average, id="plugin-contrast"),
        pytest.param(arms(continuous), sample_mean, id="mean-contrast"),
    ]


@pytest.mark.parametrize("cells", [1 << 18, 900, 5])  # 5 is less than one row
@pytest.mark.parametrize("size", ["full", "sqrt"])
@pytest.mark.parametrize("values,statistic", _kernel_cases())
def test_batch_kernels_match_the_per_row_loop(monkeypatch, cells, size, values, statistic):
    """The sampler's replicates follow the law of the reference loop's.

    The two draw differently, so they agree in law, not bit for bit.  A
    two-sample Kolmogorov-Smirnov test of 2,000 sampler replicates against
    2,000 loop replicates rejects at p < 1e-3; the test is conservative on
    discrete laws, so a false alarm comes in at most 1 run in 1,000.
    """
    import funcavg.bootstrap as bs
    monkeypatch.setattr(bs, "_CHUNK_CELLS", cells)
    assert statistic.batch(values) is not None
    drawn = resample(values, BootstrapConfig(2000, RngStream(4), size), statistic)
    looped = _looped(values, BootstrapConfig(2000, RngStream(5), size), statistic)
    assert stats.ks_2samp(drawn.replicates, looped).pvalue >= 1e-3


@pytest.mark.parametrize("estimator", [midrange, discrete_plugin_average, sample_mean])
@pytest.mark.parametrize("lone_label", [1.0, 0.0])
def test_batched_contrast_reports_an_empty_arm_like_the_loop(estimator, lone_label):
    # The sampler and the reference loop both raise a ResampleError with the
    # statistic's message for the first replicate that leaves an arm empty.  The samplers draw from the
    # exact law, not the loop's indices, so the replicates they name differ;
    # test_sampler_names_the_first_replicate_with_an_empty_arm checks theirs.
    labels = np.full(40, 1.0 - lone_label)
    labels[0] = lone_label
    arms = TwoArmSample.from_labels(np.arange(40.0), labels)
    config = BootstrapConfig(50, RngStream(3))
    assert estimator.batch(arms) is not None
    with pytest.raises(ResampleError) as batched:
        resample(arms, config, estimator)
    with pytest.raises(ResampleError) as looped:
        _looped(arms, config, estimator)
    for err in (batched.value, looped.value):
        assert str(err) == f"replicate {err.replicate}: both treatment arms must be non-empty"


# Sampler edge cases.

class _TopUniforms:
    """A generator whose uniforms are all the largest double below 1, the
    draws that push the rank of a bootstrap maximum towards ``n``."""

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.Philox(seed))

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))

    def binomial(self, n, p, size):
        return self._gen.binomial(n, p, size=size)


EXACT = [midrange, discrete_plugin_average]
CONTRASTS = EXACT + [sample_mean]


@pytest.mark.parametrize("estimator", EXACT)
def test_sampler_on_one_value_and_one_draw(estimator):
    one = resample(np.array([4.5]), BootstrapConfig(20, RngStream(1)), estimator)
    assert np.all(one.replicates == 4.5)
    # round(sqrt(2)) = 1: each replicate is one of the two values.
    pair = np.array([2.0, 7.0])
    got = resample(pair, BootstrapConfig(400, RngStream(2), "sqrt"), estimator).replicates
    assert set(got) == {2.0, 7.0}


@pytest.mark.parametrize("estimator", CONTRASTS)
def test_sampler_with_an_arm_holding_one_row(estimator):
    # Treated holds one row: every replicate that keeps it is 9 - 2.
    arms = TwoArmSample(treated=[9.0], control=np.full(30, 2.0))
    kept = 0
    for seed in range(20):
        with pytest.raises(ResampleError) as err:
            resample(arms, BootstrapConfig(60, RngStream(seed)), estimator)
        first = err.value.replicate
        if first >= 2:
            got = resample(arms, BootstrapConfig(first, RngStream(seed)), estimator)
            assert np.all(got.replicates == 7.0)
            kept += 1
    assert kept > 0


@pytest.mark.parametrize("cells", [1 << 18, 600])  # 600: ten plug-in rows a chunk
@pytest.mark.parametrize("estimator", CONTRASTS)
def test_sampler_names_the_first_replicate_with_an_empty_arm(monkeypatch, estimator, cells):
    # Two treated rows in 60: about one replicate in nine draws neither.
    # Replicate k's arm split does not depend on how many replicates follow
    # it, so the first k replicates run clean and replicate k fails.
    import funcavg.bootstrap as bs
    monkeypatch.setattr(bs, "_CHUNK_CELLS", cells)
    arms = TwoArmSample(treated=np.arange(2.0), control=np.arange(2.0, 60.0))
    firsts = []
    for seed in range(5):
        with pytest.raises(ResampleError, match="non-empty") as err:
            resample(arms, BootstrapConfig(400, RngStream(seed)), estimator)
        first = err.value.replicate
        firsts.append(first)
        if first >= 2:
            resample(arms, BootstrapConfig(first, RngStream(seed)), estimator)
        with pytest.raises(ResampleError) as again:
            resample(arms, BootstrapConfig(max(first + 1, 2), RngStream(seed)), estimator)
        assert again.value.replicate == first
    assert max(firsts) >= 2


@pytest.mark.parametrize("estimator", CONTRASTS)
def test_sampler_on_constant_samples(estimator):
    x = np.full(50, -3.25)
    if estimator is sample_mean:
        with pytest.raises(ParameterError, match="no bootstrap sampler"):
            resample(x, BootstrapConfig(30, RngStream(4)), estimator)
    else:
        assert np.all(resample(x, BootstrapConfig(30, RngStream(4)), estimator).replicates
                      == -3.25)
    arms = TwoArmSample(treated=np.full(20, 6.0), control=np.full(30, 1.5))
    got = resample(arms, BootstrapConfig(30, RngStream(4)), estimator)
    assert np.all(got.replicates == 4.5)


@pytest.mark.parametrize("estimator", EXACT)
def test_sampler_treats_signed_zeros_as_one_value(estimator):
    # -0.0 and 0.0 tie in any sort: the replicates equal those of the same
    # sample with every zero unsigned, and are values the statistic can take.
    signed = np.array([-0.0, 0.0, 1.0, 4.0, -0.0, 4.0])
    labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    possible = {estimator(np.array(s)) for s in
                ([0.0], [1.0], [4.0], [0.0, 1.0], [0.0, 4.0], [1.0, 4.0], [0.0, 1.0, 4.0])}
    config = BootstrapConfig(200, RngStream(5))
    got = resample(signed, config, estimator).replicates
    assert np.array_equal(got, resample(np.abs(signed), config, estimator).replicates)
    assert set(got) <= possible
    # Ten copies of each row, so that no replicate leaves an arm empty.
    signed_arms = TwoArmSample.from_labels(np.tile(signed, 10), np.tile(labels, 10))
    plain_arms = TwoArmSample(np.abs(signed_arms.treated), np.abs(signed_arms.control))
    config = BootstrapConfig(200, RngStream(6))
    assert np.array_equal(resample(signed_arms, config, estimator).replicates,
                          resample(plain_arms, config, estimator).replicates)


def test_midrange_sampler_keeps_the_top_rank_inside_the_sample():
    # With every uniform at 1 - 2**-53 the largest draw's rank n * u rounds
    # up to n; the sampler must still read the largest value, and the
    # smallest draw's rank must stay below n too.
    x = np.random.default_rng(3).permutation(500).astype(float)
    for m in (1, 2, 500):
        got = midrange.batch(x)(_TopUniforms(0), 40, m)
        assert np.all(got == got[0])
        assert 2.0 * got[0] - x.max() in x
    arms = TwoArmSample.from_labels(x, (np.arange(500) % 3 == 0).astype(float))
    treated, control = arms.treated, arms.control
    got = midrange.batch(arms)(_TopUniforms(1), 40, 500)
    possible = ((treated + treated.max()) / 2.0)[:, None] \
        - ((control + control.max()) / 2.0)[None, :]
    assert np.isin(got, possible).all()


@pytest.mark.parametrize("cells", [900, 5])
@pytest.mark.parametrize("estimator", [midrange, discrete_plugin_average, sample_mean])
def test_samplers_do_not_depend_on_the_chunk_size(monkeypatch, cells, estimator):
    import funcavg.bootstrap as bs
    rng = np.random.default_rng(13)
    y = rng.binomial(40, 0.4, 300).astype(float)
    labels = rng.integers(0, 3, 300)
    cases = [(TwoArmSample(treated=y[labels == 1], control=y[labels != 1]), estimator)]
    if estimator is not sample_mean:
        cases.append((y, estimator))
    config = BootstrapConfig(70, RngStream(14))
    whole = [resample(data, config, statistic).replicates for data, statistic in cases]
    monkeypatch.setattr(bs, "_CHUNK_CELLS", cells)
    split = [resample(data, config, statistic).replicates for data, statistic in cases]
    for a, b in zip(whole, split):
        assert np.array_equal(a, b)
