from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcavg.dataset import Dataset
from funcavg.diagnostics import (
    ecdf,
    mean_midrange_distance,
    residual_support_symmetry,
    sum_symmetry_gap,
    support_areas,
)
from funcavg.distributions import (
    BernoulliSpec,
    TruncatedNormalSpec,
    sample_bernoulli,
    sample_truncated_normal,
)
from funcavg.errors import DataError
from funcavg.formula import ModelSpec, Term
from funcavg.regression import build_design, ols_fit
from funcavg.rng import RngStream


def test_ecdf_step_values():
    curve = ecdf([3.0, 1.0, 2.0])
    assert curve.values.tolist() == [1.0, 2.0, 3.0]
    assert curve.heights.tolist() == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]
    assert curve.n == 3


def test_ecdf_single_value_and_duplicates():
    curve = ecdf([4.0, 4.0, 4.0])
    assert curve.values.tolist() == [4.0]
    assert curve.heights.tolist() == [1.0]
    assert curve.n == 3
    dup = ecdf([0.0, 0.0, 1.0])
    assert dup.values.tolist() == [0.0, 1.0]
    assert dup.heights.tolist() == [pytest.approx(2 / 3), 1.0]


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_ecdf_heights_monotone_to_one(values):
    curve = ecdf(values)
    assert curve.heights[-1] == 1.0
    assert np.all(np.diff(curve.heights) > 0) or curve.heights.size == 1
    assert curve.heights[0] > 0


def test_sum_symmetry_gap_hand_instances():
    assert sum_symmetry_gap([0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    # Two thirds of the mass below the midpoint: area below the curve is
    # 2/3, above is 1/3.
    below, above = support_areas([0.0, 0.0, 1.0])
    assert below == pytest.approx(2 / 3)
    assert above == pytest.approx(1 / 3)
    assert sum_symmetry_gap([0.0, 0.0, 1.0]) == pytest.approx(1 / 3)
    assert sum_symmetry_gap([0.0, 1.0, 1.0]) == pytest.approx(-1 / 3)


def test_sum_symmetry_gap_degenerate_range():
    with pytest.raises(DataError):
        sum_symmetry_gap([2.0, 2.0, 2.0])


@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=50)
       .filter(lambda v: max(v) > min(v)))
@settings(max_examples=150, deadline=None)
def test_area_partition_identity_is_exact(values):
    """Below-area plus above-area equals the observed range, exactly.

    Verified in rational arithmetic: every float is an exact fraction, so
    the step-function areas can be recomputed with no rounding at all.
    The closed-form areas match them under a large common offset too.
    """
    for offset in (0.0, 1e6, 1e9, 1e12):
        shifted = np.asarray(values, dtype=float) + offset
        if shifted.max() == shifted.min():
            continue  # the offset rounded every value to one float
        below, above = support_areas(shifted)
        uniq, counts = np.unique(shifted, return_counts=True)
        vals = [Fraction(float(v)) for v in uniq]
        n = Fraction(shifted.size)
        heights = []
        running = Fraction(0)
        for c in counts:
            running += Fraction(int(c))
            heights.append(running / n)
        exact_below = sum(h * (v2 - v1)
                          for h, v1, v2 in zip(heights[:-1], vals[:-1], vals[1:]))
        exact_above = sum((1 - h) * (v2 - v1)
                          for h, v1, v2 in zip(heights[:-1], vals[:-1], vals[1:]))
        exact_range = vals[-1] - vals[0]
        assert exact_below + exact_above == exact_range
        scale = max(1.0, float(exact_range))
        assert below == pytest.approx(float(exact_below), abs=1e-9 * scale)
        assert above == pytest.approx(float(exact_above), abs=1e-9 * scale)
        assert below + above == pytest.approx(float(exact_range), abs=1e-9 * scale)


def test_gap_tracks_midrange_minus_mean_identity():
    x = sample_truncated_normal(TruncatedNormalSpec(0, 15, 10, 3), 5000,
                                RngStream(21, (0,)))
    gap = sum_symmetry_gap(x)
    identity = 2.0 * ((x.min() + x.max()) / 2.0 - x.mean())
    assert gap == pytest.approx(identity, rel=1e-9)


def test_symmetric_law_has_small_gap():
    x = sample_truncated_normal(TruncatedNormalSpec(0, 20, 10, 5), 100_000,
                                RngStream(22, (0,)))
    assert abs(sum_symmetry_gap(x)) < 0.05


def test_skewed_law_has_large_negative_gap():
    # Mass concentrated near the top of the support: the mean exceeds the
    # midrange once the slow lower tail is finally observed.
    x = sample_truncated_normal(TruncatedNormalSpec(0, 15, 10, 3), 10_000,
                                RngStream(23, (0,)))
    assert sum_symmetry_gap(x) < -1.0
    assert sum_symmetry_gap(x) / (x.max() - x.min()) < -0.1


def test_mean_midrange_distance_values():
    assert mean_midrange_distance([0.0, 1.0]) == 0.0
    assert mean_midrange_distance([0.0, 0.0, 1.0]) == pytest.approx(1 / 6)
    x = sample_truncated_normal(TruncatedNormalSpec(0, 15, 10, 3), 10_000,
                                RngStream(24, (0,)))
    assert mean_midrange_distance(x) > 1.0


def test_residual_support_symmetry_report():
    report = residual_support_symmetry(np.array([-2.0, -1.0, 0.5, 2.0]))
    assert report.max_residual == 2.0
    assert report.min_residual == -2.0
    assert report.asymmetry == 0.0
    skew = residual_support_symmetry(np.array([-0.5, 1.0, 3.5]))
    assert skew.asymmetry == pytest.approx(3.0 / 4.0)
    with pytest.raises(DataError):
        residual_support_symmetry(np.array([1.0, 1.0]))


def test_residual_support_symmetry_names_its_input():
    with pytest.raises(DataError, match="^residuals must be finite"):
        residual_support_symmetry([1.0, float("nan")])


def test_residual_symmetry_on_arm_model_fits():
    """Symmetric-noise fits stay below 0.15 asymmetry almost always.

    Monte Carlo calibration over 1000 replications puts the 95th
    percentile of the asymmetry ratio near 0.13 at n=2500; the 0.15
    threshold then holds with margin while 0.1 would fail a visible
    fraction of honest fits.
    """
    model = ModelSpec("y", (Term(("t",)),))
    below = 0
    reps = 200
    for i in range(reps):
        t = sample_bernoulli(BernoulliSpec(0.3), 2500, RngStream(2500 + i, (0,)))
        u = sample_truncated_normal(TruncatedNormalSpec(-10, 10, 0, 2), 2500,
                                    RngStream(2500 + i, (1,)))
        ds = Dataset({"y": 100 + 20 * t + u, "t": t.astype(float)})
        fit = ols_fit(*build_design(ds, model))
        below += residual_support_symmetry(fit.residuals).asymmetry < 0.15
    assert below / reps >= 0.95
