"""Seedable, splittable random number streams.

All randomness in the package flows through :class:`RngStream`, a frozen
(seed, key) pair mapped onto a counter-based Philox generator through
``numpy.random.SeedSequence``.  Two properties matter:

* identical ``(seed, key)`` always reproduces the same draws, on any
  platform and regardless of what other streams were used before;
* streams with distinct keys are statistically independent, so replicate
  and iteration streams can be derived by index with no sequential
  dependence between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_count

_KEY_BOUND = 2 ** 32


@dataclass(frozen=True)
class RngStream:
    """Identifier for one reproducible stream of random draws.

    Parameters
    ----------
    seed : int
        Non-negative base seed shared by a whole family of streams.
    key : tuple of int, optional
        Derivation path distinguishing this stream from its siblings.
        The empty tuple is the root stream for ``seed``.
    """

    seed: int
    key: tuple[int, ...] = field(default=())

    def __post_init__(self):
        try:
            key = tuple(self.key)
        except TypeError:  # a single key part
            key = (self.key,)
        # Checked here, so that a bad value is a ParameterError at the call
        # that made it, not a TypeError from SeedSequence in generator().
        object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))
        object.__setattr__(self, "key", tuple(
            [check_count(part, "stream key part", 0, _KEY_BOUND) for part in key]))

    def child(self, *indices: int) -> "RngStream":
        """Derive a sub-stream by extending the key path."""
        return RngStream(self.seed, self.key + indices)

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator positioned at the start of this stream."""
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.key))
        )
