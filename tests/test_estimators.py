import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcavg.bootstrap import BootstrapConfig, resample
from funcavg.errors import DataError, ParameterError, ResampleError
from funcavg.rng import RngStream
from funcavg.estimators import (
    TwoArmSample,
    as_sample,
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


def test_plugin_average_tolerance_merges_near_duplicates():
    # 1.0, 1.004, 1.008 chain together under tol=0.005; 2.0 stands alone.
    got = discrete_plugin_average([1.0, 1.004, 1.008, 2.0], tolerance=0.005)
    assert got == pytest.approx((1.004 + 2.0) / 2, abs=1e-12)
    with pytest.raises(ParameterError):
        discrete_plugin_average([1.0], tolerance=-0.1)


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


def test_arm_contrast_forwards_tolerance():
    rows = np.array([[1.0, 1], [1.004, 1], [0.0, 0]])
    plugin = functools.partial(discrete_plugin_average, tolerance=0.01)
    assert paired_contrast(rows, plugin) == pytest.approx(1.002)


def test_paired_contrast_matches_arm_contrast_and_rejects_an_empty_arm():
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
