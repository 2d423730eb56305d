"""The shared count and level rules at every site that takes a count, a
seed, a level or a probability."""

import numpy as np
import pytest

from funcavg.bootstrap import BootstrapConfig
from funcavg.distributions import (
    BernoulliSpec,
    BinomialSpec,
    TruncatedNormalSpec,
    sample_bernoulli,
    sample_binomial,
    sample_truncated_normal,
)
from funcavg.errors import ParameterError, check_alpha, check_count, check_probability
from funcavg.rng import RngStream
from funcavg.simharness import ExperimentReport, ExperimentSpec, report_text

_LAW = TruncatedNormalSpec(0.0, 1.0, 0.5, 1.0)


@pytest.mark.parametrize("make", [
    pytest.param(lambda v: ExperimentSpec("table2", iterations=v), id="spec-iterations"),
    pytest.param(lambda v: ExperimentSpec("table2", replicates=v), id="spec-replicates"),
    pytest.param(lambda v: ExperimentSpec("table2", seed=v), id="spec-seed"),
    pytest.param(lambda v: ExperimentSpec("table2", n_grid=(500, v)), id="spec-n_grid"),
    pytest.param(lambda v: BootstrapConfig(v, RngStream(0)), id="bootstrap-replicates"),
    pytest.param(lambda v: RngStream(v), id="stream-seed"),
    pytest.param(lambda v: RngStream(0, (1, v)), id="stream-key-part"),
    pytest.param(lambda v: RngStream(0, v), id="stream-scalar-key"),
    pytest.param(lambda v: sample_truncated_normal(_LAW, v, RngStream(0)), id="tn-n"),
    pytest.param(lambda v: sample_bernoulli(BernoulliSpec(0.5), v, RngStream(0)),
                 id="bernoulli-n"),
    pytest.param(lambda v: sample_binomial(BinomialSpec(3, 0.5), v, RngStream(0)),
                 id="binomial-n"),
    pytest.param(lambda v: BinomialSpec(v, 0.5), id="binomial-trials"),
])
def test_a_bool_is_not_a_count(make):
    # True == 1 passes every ``value >= 1`` test, so it has to be refused
    # by type; np.True_ is not an integer type at all.
    for flag in (True, np.True_):
        with pytest.raises(ParameterError, match=r"must be an integer .*, got "):
            make(flag)


def test_a_spec_stores_its_counts_as_ints_and_prints_them_plainly():
    spec = ExperimentSpec("table2", n_grid=np.array([500, 2500]),
                          iterations=np.int64(200), replicates=np.int32(500),
                          seed=np.uint8(3))
    for value in (*spec.n_grid, spec.iterations, spec.replicates, spec.seed):
        assert type(value) is int
    report = ExperimentReport(spec=spec, rows=(), range_checks_passed=0,
                              range_checks_total=0, streams_used=0)
    assert ("experiment=table2  iterations=200  replicates=500  alpha=0.05  seed=3"
            in report_text(report).splitlines())


def test_check_count_bounds_and_message():
    assert check_count(np.int64(4), "n", 4) == 4
    assert type(check_count(np.int64(4), "n", 4)) is int
    assert check_count(2**32 - 1, "part", 0, 2**32) == 2**32 - 1
    for value, below in ((3, None), (2**32, 2**32), (4.0, None), ("4", None)):
        with pytest.raises(ParameterError):
            check_count(value, "n", 4, below)
    with pytest.raises(ParameterError) as err:
        check_count(3.5, "n", 4)
    assert str(err.value) == "n must be an integer of at least 4, got 3.5"
    with pytest.raises(ParameterError) as err:
        check_count(-1, "part", 0, 8)
    assert str(err.value) == "part must be an integer in [0, 8), got -1"


@pytest.mark.parametrize("make", [
    pytest.param(check_alpha, id="check_alpha"),
    pytest.param(lambda v: check_probability(v, "p"), id="check_probability"),
    pytest.param(lambda v: ExperimentSpec("table2", alpha=v), id="spec-alpha"),
    pytest.param(BernoulliSpec, id="bernoulli-p"),
    pytest.param(lambda v: BinomialSpec(3, v), id="binomial-p"),
])
def test_a_level_or_probability_must_be_a_number(make):
    # A string, None or a sequence used to raise a raw TypeError, and True
    # passed as 1.0.
    for bad in ("0.05", None, [0.05], (0.5,), True, np.True_, False):
        with pytest.raises(ParameterError, match=r"must lie .*, got "):
            make(bad)


def test_levels_and_probabilities_come_back_as_floats():
    for value in (0.05, np.float32(0.25), np.float64(0.5)):
        assert type(check_alpha(value)) is float
        assert type(check_probability(value, "p")) is float
    assert check_probability(np.int64(1), "p") == 1.0
    spec = ExperimentSpec("table2", alpha=np.float64(0.1))
    assert type(spec.alpha) is float and spec.alpha == 0.1
    for bad in (0.0, 1.0, float("nan")):
        with pytest.raises(ParameterError, match="alpha must lie strictly inside"):
            check_alpha(bad)
    with pytest.raises(ParameterError) as err:
        check_probability("1", "coverage")
    assert str(err.value) == "coverage must lie in [0, 1], got '1'"
