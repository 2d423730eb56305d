import numpy as np
import pytest

from funcavg.errors import ParameterError
from funcavg.rng import RngStream


def test_streams_reproduce_and_separate_by_key():
    a = RngStream(3, (1, 2)).generator().integers(0, 1000, 5)
    assert np.array_equal(a, RngStream(3, (1, 2)).generator().integers(0, 1000, 5))
    assert not np.array_equal(a, RngStream(3, (1, 3)).generator().integers(0, 1000, 5))
    assert RngStream(3, (1, 2)).child(4) == RngStream(3, (1, 2, 4))


@pytest.mark.parametrize("seed,key", [
    (1.5, ()), (1, (1.5,)), ("3", ()), (1, ("0",)), (-1, ()), (1, (2**32,)),
])
def test_bad_seeds_and_key_parts_are_rejected_at_construction(seed, key):
    # Rejected when the stream is made, as a ParameterError, rather than
    # later in generator() as a TypeError from SeedSequence.
    with pytest.raises(ParameterError):
        RngStream(seed, key)


def test_numpy_integer_seeds_and_keys_are_accepted():
    stream = RngStream(np.int64(3), np.int64(4))
    assert stream.key == (4,)
    assert np.array_equal(stream.generator().integers(0, 1000, 5),
                          RngStream(3, (4,)).generator().integers(0, 1000, 5))
