import math

import numpy as np
import pytest

from funcavg.bootstrap import (
    BootstrapConfig,
    BootstrapDistribution,
    hoeffding_ci,
    hoeffding_u_ci,
    percentile_ci,
    popoviciu_check,
    resample,
    sqrt_resample_size,
)
from funcavg.distributions import TruncatedNormalSpec, sample_truncated_normal
from funcavg.errors import DataError, ParameterError, ResampleError
from funcavg.estimators import midrange
from funcavg.rng import RngStream

# Frozen closed-form multipliers at alpha = 0.05.
HOEFFDING_MULT = 1.3581015157406195      # sqrt(log(40) / 2)
U_CENTERED_MULT = 1.5682005513993709     # 2 * sqrt(log(40) / 6)


def dist(statistic, replicates):
    return BootstrapDistribution(statistic=statistic,
                                 replicates=np.asarray(replicates, dtype=float))


def test_hoeffding_ci_hand_instance():
    # Pooled range max(8,12,10) - min(8,12,10) = 4, so the half-width is
    # 4 * 1.3581015.
    ci = hoeffding_ci(dist(10.0, [8.0, 12.0]), alpha=0.05)
    assert ci.point == 10.0
    assert ci.lower == pytest.approx(4.5676, abs=1e-4)
    assert ci.upper == pytest.approx(15.4324, abs=1e-4)
    assert ci.method == "hoeffding"


def test_statistic_outside_replicates_extends_pooled_range():
    d = dist(100.0, [0.0, 1.0])
    assert d.pooled_range == 100.0
    assert d.replicate_range == 1.0


def test_u_variant_multipliers_and_ratio():
    d = dist(0.5, [0.0, 1.0])
    plain = hoeffding_ci(d, alpha=0.05)
    centered = hoeffding_u_ci(d, alpha=0.05, centered=True)
    general = hoeffding_u_ci(d, alpha=0.05, centered=False)
    assert plain.width == pytest.approx(2 * HOEFFDING_MULT, rel=1e-12)
    assert centered.width == pytest.approx(2 * U_CENTERED_MULT, rel=1e-12)
    # The centered variant widens the plain interval by exactly 2/sqrt(3)
    # whenever the pooled and replicate ranges coincide.
    assert centered.width / plain.width == pytest.approx(2 / math.sqrt(3), rel=1e-12)
    assert general.width == pytest.approx(2 * 2 * HOEFFDING_MULT, rel=1e-12)
    assert centered.method == "hoeffding-u"
    assert general.method == "hoeffding-u2"


def test_width_ordering_on_shared_distribution():
    gen = np.random.Generator(np.random.Philox(1234))
    reps = gen.normal(5.0, 2.0, size=200)
    d = dist(float(np.median(reps)), reps)  # statistic inside the replicate hull
    widths = [percentile_ci(d).width, hoeffding_ci(d).width,
              hoeffding_u_ci(d, centered=True).width,
              hoeffding_u_ci(d, centered=False).width]
    assert widths == sorted(widths)


def test_width_shrinks_as_alpha_grows():
    d = dist(0.0, np.linspace(-1, 1, 50))
    for ci_fn in (hoeffding_ci, hoeffding_u_ci, percentile_ci):
        widths = [ci_fn(d, alpha=a).width for a in (0.01, 0.05, 0.10, 0.25)]
        assert all(w1 >= w2 for w1, w2 in zip(widths, widths[1:]))


def test_percentile_ci_linear_interpolation():
    d = dist(50.0, np.arange(1.0, 101.0))
    ci = percentile_ci(d, alpha=0.10)
    assert ci.lower == pytest.approx(5.95)
    assert ci.upper == pytest.approx(95.05)


def test_sqrt_resample_size_rounds_half_away():
    assert sqrt_resample_size(2500) == 50
    assert sqrt_resample_size(500) == 22
    assert sqrt_resample_size(10_000) == 100
    assert sqrt_resample_size(5000) == 71
    assert sqrt_resample_size(6) == 2
    assert sqrt_resample_size(7) == 3


def test_resample_determinism_and_stream_separation():
    x = sample_truncated_normal(TruncatedNormalSpec(0, 20, 10, 5), 200,
                                RngStream(3, (0,)))
    cfg = BootstrapConfig(replicates=64, rng=RngStream(3, (1,)))
    d1 = resample(x, cfg, midrange)
    d2 = resample(x, cfg, midrange)
    d3 = resample(x, BootstrapConfig(replicates=64, rng=RngStream(3, (2,))), midrange)
    assert np.array_equal(d1.replicates, d2.replicates)
    assert not np.array_equal(d1.replicates, d3.replicates)
    assert d1.statistic == midrange(x)


def test_resample_is_equivariant_under_affine_maps():
    x = sample_truncated_normal(TruncatedNormalSpec(0, 15, 10, 3), 150,
                                RngStream(5, (0,)))
    cfg = BootstrapConfig(replicates=100, rng=RngStream(5, (1,)))
    base = resample(x, cfg, midrange)
    moved = resample(3.0 * x - 7.0, cfg, midrange)
    assert np.allclose(moved.replicates, 3.0 * base.replicates - 7.0, rtol=1e-12)
    ci0, ci1 = hoeffding_ci(base), hoeffding_ci(moved)
    assert ci1.lower == pytest.approx(3.0 * ci0.lower - 7.0, rel=1e-12)
    assert ci1.upper == pytest.approx(3.0 * ci0.upper - 7.0, rel=1e-12)


def test_resample_chunking_does_not_change_results(monkeypatch):
    import funcavg.bootstrap as bs
    x = sample_truncated_normal(TruncatedNormalSpec(0, 20, 10, 5), 300,
                                RngStream(8, (0,)))
    cfg = BootstrapConfig(replicates=40, rng=RngStream(8, (1,)))
    whole = resample(x, cfg, midrange)
    monkeypatch.setattr(bs, "_CHUNK_CELLS", 900)  # forces many small chunks
    split = resample(x, cfg, midrange)
    assert np.array_equal(whole.replicates, split.replicates)


def test_resample_rows_jointly_for_two_column_data():
    rows = np.column_stack([np.arange(50.0), np.arange(50.0) * 2.0])
    cfg = BootstrapConfig(replicates=30, rng=RngStream(2, (0,)))
    # Row pairing must survive resampling: column 1 is exactly twice column 0.
    def paired_gap(block):
        return float(np.max(np.abs(block[:, 1] - 2.0 * block[:, 0])))
    d = resample(rows, cfg, paired_gap)
    assert np.all(d.replicates == 0.0)


def test_resample_reports_failing_replicate():
    calls = {"n": 0}

    def flaky(sample):
        calls["n"] += 1
        if calls["n"] == 5:  # original + replicates 0..2 fine, replicate 3 fails
            raise ValueError("boom")
        return float(sample.mean())

    with pytest.raises(ResampleError) as err:
        resample(np.arange(20.0), BootstrapConfig(replicates=10, rng=RngStream(0)),
                 flaky)
    assert err.value.replicate == 3


def test_resample_rejects_non_finite_statistic():
    with pytest.raises(ResampleError):
        resample(np.arange(8.0), BootstrapConfig(replicates=4, rng=RngStream(0)),
                 lambda s: float("nan"))


def test_resample_row_draws_match_one_draw_per_replicate():
    # The reference loop: one integers(0, n, size=n) call per replicate.
    # Philox spends one 32-bit word per index for n < 2**32, so the
    # engine's (rows, n) blocks give the same indices.
    n, b = 37, 25
    drawn = []
    resample(np.arange(float(n)), BootstrapConfig(b, RngStream(5, (2,))),
             lambda rows: drawn.append(rows.astype(np.intp)) or 0.0)
    gen = RngStream(5, (2,)).generator()
    expected = [gen.integers(0, n, size=n) for _ in range(b)]
    assert np.array_equal(np.array(drawn[1:]), np.array(expected))


def fails_on(replicates, error):
    """Sample mean that raises ``error`` on the given replicate indices, or
    returns NaN there when ``error`` is None."""
    calls = {"n": -1}  # the first call is the original sample

    def statistic(sample):
        k = calls["n"]
        calls["n"] += 1
        if k in replicates:
            if error is None:
                return float("nan")
            raise error
        return float(sample.mean())

    return statistic


def test_resample_drops_package_errors_within_the_failure_share():
    x = np.arange(20.0)
    plain = resample(x, BootstrapConfig(40, RngStream(3)), fails_on((), None))
    tolerant = BootstrapConfig(40, RngStream(3), max_failure_share=0.05)
    d = resample(x, tolerant, fails_on((3, 17), DataError("degenerate")))
    assert np.array_equal(d.replicates, np.delete(plain.replicates, [3, 17]))
    assert d.statistic == plain.statistic
    # At the default share of 0 the same failure names its replicate.
    with pytest.raises(ResampleError) as err:
        resample(x, BootstrapConfig(40, RngStream(3)),
                 fails_on((3,), DataError("degenerate")))
    assert err.value.replicate == 3


def test_resample_failure_share_limits():
    x = np.arange(20.0)
    tolerant = BootstrapConfig(40, RngStream(3), max_failure_share=0.05)
    with pytest.raises(DataError, match="3 of 40"):
        resample(x, tolerant, fails_on((1, 2, 30), DataError("degenerate")))
    # Anything but a package error is a bug, never dropped.
    with pytest.raises(ResampleError) as err:
        resample(x, tolerant, fails_on((6,), ZeroDivisionError("bug")))
    assert err.value.replicate == 6
    assert isinstance(err.value.__cause__, ZeroDivisionError)
    # A non-finite value is not a failure the share covers.
    with pytest.raises(ResampleError, match="non-finite") as err:
        resample(x, tolerant, fails_on((5,), None))
    assert err.value.replicate == 5
    for share in (-0.1, 1.0, float("nan")):
        with pytest.raises(ParameterError):
            BootstrapConfig(40, RngStream(3), max_failure_share=share)


def test_config_validation():
    with pytest.raises(ParameterError):
        BootstrapConfig(replicates=0, rng=RngStream(0))
    with pytest.raises(ParameterError, match="at least 2"):
        BootstrapConfig(replicates=1, rng=RngStream(0))
    with pytest.raises(ParameterError):
        BootstrapConfig(replicates=10, rng=RngStream(0), resample_size="half")
    with pytest.raises(ParameterError):
        BootstrapConfig(replicates=10, rng=RngStream(0), resample_size=700)


def test_popoviciu_check_hand_instance_and_random_sweep():
    # sd of {0,1} is 0.5, so 1.96 * 0.5 = 0.98 against a bound of 1.3581.
    assert popoviciu_check(dist(0.5, [0.0, 1.0]))
    gen = np.random.Generator(np.random.Philox(99))
    for _ in range(100):
        reps = gen.normal(gen.uniform(-5, 5), gen.uniform(0.1, 3), size=80)
        assert popoviciu_check(dist(float(reps[0]), reps))


def test_popoviciu_check_holds_on_two_point_replicates_at_any_alpha():
    # Half 0 and half 1: sd = 0.5 = R / 2, Popoviciu's bound with equality.
    # A normal-theory comparison, 1.96 * sd against the alpha = 0.5
    # Hoeffding half-width 0.833, rejected this valid distribution; the
    # check reads no alpha.
    d = dist(0.5, [0.0, 1.0] * 20)
    assert popoviciu_check(d)
    with pytest.raises(TypeError):
        popoviciu_check(d, alpha=0.5)
    # Two-point and constant replicates sit on the bound, where np.std
    # can exceed R / 2 by a few ulps; the slack absorbs that.
    gen = np.random.Generator(np.random.Philox(7))
    for _ in range(2000):
        a, b = gen.normal(size=2) * 10.0 ** gen.uniform(-3, 3)
        k = int(gen.integers(1, 40))
        assert popoviciu_check(dist(a, [a, b] * k))
        assert popoviciu_check(dist(a, [a] * k))


def test_hoeffding_coverage_for_midrange_symmetric_law():
    """Range-based intervals cover the support midpoint essentially always."""
    law = TruncatedNormalSpec(0, 20, 10, 5)
    theta = 10.0
    covered = 0
    reps = 200
    for i in range(reps):
        x = sample_truncated_normal(law, 500, RngStream(606, (i, 0)))
        d = resample(x, BootstrapConfig(replicates=500, rng=RngStream(606, (i, 1))),
                     midrange)
        covered += hoeffding_ci(d, alpha=0.05).contains(theta)
    assert covered / reps >= 0.99


def test_small_resample_percentile_underscovers_asymmetric_midpoint():
    """At n = 10^4 the percentile interval collapses around a biased midrange."""
    law = TruncatedNormalSpec(0, 15, 10, 3)
    theta = 7.5
    covered = 0
    reps = 200
    for i in range(reps):
        x = sample_truncated_normal(law, 10_000, RngStream(707, (i, 0)))
        config = BootstrapConfig(500, RngStream(707, (i, 1)), "sqrt")
        ci = percentile_ci(resample(x, config, midrange), alpha=0.05)
        covered += ci.contains(theta)
    assert covered / reps <= 0.35
