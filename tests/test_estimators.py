import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcavg.bootstrap import BootstrapConfig, resample
from funcavg.errors import DataError, ResampleError
from funcavg.rng import RngStream
from funcavg.estimators import (
    TwoArmSample,
    _arm_codes,
    as_sample,
    contrast,
    discrete_plugin_average,
    midrange,
    paired_contrast,
    sample_mean,
)


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


def test_sample_validation():
    for bad in ([], [[1, 2]], [1.0, float("nan")], [1.0, float("inf")]):
        with pytest.raises(DataError):
            as_sample(bad)


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


def test_two_arm_rejects_empty_or_bad_labels():
    with pytest.raises(DataError):
        TwoArmSample.from_labels([1.0, 2.0], [1, 1])
    with pytest.raises(DataError):
        TwoArmSample.from_labels([1.0, 2.0], [0, 0])
    with pytest.raises(DataError):
        TwoArmSample.from_labels([1.0, 2.0], [0, 2])
    with pytest.raises(DataError):
        TwoArmSample.from_labels([1.0, 2.0], [0])


def test_paired_contrast_matches_the_arm_split_and_rejects_an_empty_arm():
    rows = np.array([[5.0, 1], [1.0, 0], [7.0, 1], [3.0, 0], [2.0, 0]])
    two = TwoArmSample.from_labels(rows[:, 0], rows[:, 1])
    for est in (midrange, discrete_plugin_average, sample_mean):
        assert paired_contrast(rows, est) == est(two.treated) - est(two.control)
    with pytest.raises(DataError, match="non-empty"):
        paired_contrast(rows[rows[:, 1] == 0], midrange)
    # One treated row among 40: some resample leaves the arm empty, and
    # resample names that replicate.
    lone = np.column_stack([np.arange(40.0), np.eye(40)[0]])
    for est in (midrange, sample_mean):
        with pytest.raises(ResampleError, match="replicate"):
            resample(lone, BootstrapConfig(50, RngStream(3)),
                     functools.partial(paired_contrast, estimator=est))


# Batch kernels: ``resample`` must give the same replicates, bit for bit,
# whether it evaluates a statistic's index block at once or row by row.

def _per_row_replicates(values, config, statistic):
    """The replicates ``resample`` should return, one statistic call per row.

    Draws the whole index block at once, which gives the same indices as
    ``resample``'s chunked draws (see test_resample_chunking_does_not_change_results).
    """
    arr = np.asarray(values, dtype=float)
    n = arr.shape[0]
    idx = config.rng.generator().integers(0, n, size=(config.replicates, config.size_for(n)))
    return np.array([statistic(arr[rows]) for rows in idx])


def _loop_only(statistic):
    """``statistic`` without its ``batch`` attribute."""
    return lambda rows: statistic(rows)


def _kernel_cases():
    rng = np.random.default_rng(11)
    n = 400
    continuous = rng.normal(5.0, 3.0, n)
    integers = rng.binomial(30, 0.4, n) + 10.0 * rng.integers(0, 2, n)
    # Any label other than 1 counts as control, as in paired_contrast.
    labels = rng.integers(0, 3, n).astype(float)
    return [
        pytest.param(continuous, midrange, id="midrange"),
        pytest.param(integers, discrete_plugin_average, id="plugin"),
        pytest.param(np.column_stack([continuous, labels]), contrast(midrange),
                     id="midrange-contrast"),
        pytest.param(np.column_stack([integers, labels]),
                     contrast(discrete_plugin_average), id="plugin-contrast"),
    ]


@pytest.mark.parametrize("cells", [1 << 18, 900, 5])  # 5 is less than one row
@pytest.mark.parametrize("size", ["full", "sqrt"])
@pytest.mark.parametrize("values,statistic", _kernel_cases())
def test_batch_kernels_match_the_per_row_loop(monkeypatch, cells, size, values, statistic):
    import funcavg.bootstrap as bs
    monkeypatch.setattr(bs, "_CHUNK_CELLS", cells)
    assert statistic.batch(values) is not None
    config = BootstrapConfig(60, RngStream(4), size)
    got = resample(values, config, statistic).replicates
    assert np.array_equal(got, _per_row_replicates(values, config, statistic))


@pytest.mark.parametrize("estimator", [midrange, discrete_plugin_average])
@pytest.mark.parametrize("lone_label", [1.0, 0.0])
def test_batched_contrast_reports_an_empty_arm_like_the_loop(estimator, lone_label):
    labels = np.full(40, 1.0 - lone_label)
    labels[0] = lone_label
    rows = np.column_stack([np.arange(40.0), labels])
    config = BootstrapConfig(50, RngStream(3))
    statistic = contrast(estimator)
    assert statistic.batch(rows) is not None
    with pytest.raises(ResampleError) as batched:
        resample(rows, config, statistic)
    with pytest.raises(ResampleError) as looped:
        resample(rows, config, _loop_only(statistic))
    assert batched.value.replicate == looped.value.replicate
    assert str(batched.value) == str(looped.value)
    assert "non-empty" in str(batched.value)


@pytest.mark.parametrize("estimator", [midrange, discrete_plugin_average])
def test_contrast_with_a_failure_share_still_drops_replicates(estimator):
    labels = np.zeros(40)
    labels[:2] = 1.0
    rows = np.column_stack([np.arange(40.0), labels])
    config = BootstrapConfig(50, RngStream(3), max_failure_share=0.5)
    got = resample(rows, config, contrast(estimator)).replicates
    assert 0 < got.size < 50  # some replicates lost the treated arm
    assert np.array_equal(got, resample(rows, config, _loop_only(contrast(estimator))).replicates)


def test_plugin_kernels_decline_data_they_cannot_reproduce_exactly():
    rng = np.random.default_rng(5)
    non_integer = rng.normal(size=200)
    labels = (np.arange(200) % 2).astype(float)
    assert discrete_plugin_average.batch(non_integer) is None
    assert contrast(discrete_plugin_average).batch(
        np.column_stack([non_integer, labels])) is None
    assert discrete_plugin_average.batch(np.array([2.0**60, 1.0])) is None
    assert midrange.batch(np.array([-0.0, 0.0, 1.0])) is None
    config = BootstrapConfig(40, RngStream(6))
    got = resample(non_integer, config, discrete_plugin_average).replicates
    assert np.array_equal(got, _per_row_replicates(non_integer, config,
                                                   discrete_plugin_average))


@pytest.mark.parametrize("integer_valued", [False, True])
def test_batch_kernels_match_the_loop_with_wide_codes(integer_valued):
    # More than 32,768 distinct outcomes: 2K no longer fits in uint16, so
    # the codes widen to uint32.
    rng = np.random.default_rng(8)
    n = 33_000
    values = rng.permutation(n).astype(float) if integer_valued \
        else rng.normal(0.0, 50.0, n)
    rows = np.column_stack([values, rng.integers(0, 2, n).astype(float)])
    assert _arm_codes(values)[1].dtype == np.uint32
    assert _arm_codes(rows)[1].dtype == np.uint32
    estimators = [midrange, discrete_plugin_average] if integer_valued else [midrange]
    config = BootstrapConfig(3, RngStream(9))
    for estimator in estimators:
        for data, statistic in ((values, estimator), (rows, contrast(estimator))):
            assert statistic.batch(data) is not None
            got = resample(data, config, statistic).replicates
            assert np.array_equal(got, _per_row_replicates(data, config, statistic))
