"""Counter-based random streams for reproducible parallel Monte Carlo.

Every consumer derives its Philox key from ``(seed, *tags)``, so the
realized randomness is a pure function of seed, purpose tag and trial index
— independent of scheduling, worker count and call order.  Per-trial
streams are counter blocks of one key (:class:`TrialStreams`), the
counter-based design of Salmon et al., "Parallel random numbers: as easy as
1, 2, 3" (SC'11).
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_key(seed: int, *tags) -> np.ndarray:
    """Derive a 128-bit Philox key from the seed and an arbitrary tag tuple.

    A numpy scalar keys as the Python number it equals (numpy 2 writes
    ``repr(np.float64(0.5))`` as ``'np.float64(0.5)'``)."""
    parts = tuple(x.item() if isinstance(x, np.generic) else x for x in (seed,) + tags)
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


class TrialStreams:
    """Per-trial streams of one key: trial i starts at counter ``[0, 0, i, 0]``.

    ``at(i)`` resets one shared Philox to trial i's block and returns its
    generator, so the stream of trial i is that of a fresh
    ``Philox(key, counter=[0, 0, i, 0])`` whatever order trials are visited
    in, and ``at(0)`` is the plain ``Philox(key)`` stream.  The returned
    generator is valid until the next ``at`` call.
    """

    __slots__ = ("key", "_bitgen", "_gen", "_state")

    def __init__(self, seed: int, *tags) -> None:
        self.key = stream_key(seed, *tags)
        self._bitgen = np.random.Philox(key=self.key)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state

    def at(self, trial: int) -> np.random.Generator:
        state = self._state
        state["state"]["counter"][2] = trial
        self._bitgen.state = state
        return self._gen
