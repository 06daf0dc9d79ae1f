"""Per-trial indicators read off the coupled draw that ``scan`` runs, and a
scripted stream.

The scan's trial (``estimators._pn_trial``) draws one rate-t_max collection
on the ``"pn"`` stream and thins it to every lower t from the top down; the
indicator fixtures read that coupling trial by trial, as (trials, len(ts))
boolean arrays with ts strictly ascending.
"""

import functools

import numpy as np
import pytest

import stirtree.estimators as estimators
from stirtree.bars import LazyPoissonBars
from stirtree.rng import TrialStreams


def _hit_indicators(shape, ts, trials, seed):
    # a one-trial chunk's tally holds the trial's deepest level at each rate,
    # so the depth-n hit is its count at (t, n)
    down = tuple(reversed(ts))
    trial = functools.partial(estimators._pn_trial, down)
    rows = []
    for i in range(trials):
        tally = estimators._count_chunk((trial, "pn", shape, down[0], seed, i, i + 1))
        rows.append([tally[t, shape.n] for t in ts])
    return np.array(rows, dtype=bool)


def _percolation_indicators(shape, ts, trials, seed):
    t_max = ts[-1]
    streams = TrialStreams(seed, "pn", shape.d, shape.n, t_max)
    out = np.zeros((trials, len(ts)), dtype=bool)
    for i in range(trials):
        bars = LazyPoissonBars(shape, t_max, streams.at(i))
        for j in reversed(range(len(ts))):
            out[i, j] = estimators.bar_cluster_reaches_boundary(bars.thinned(ts[j]))
    return out


class _ScriptedStream:
    """Hands out the given values, one per draw, and logs each draw's kind."""

    def __init__(self, *values):
        self.values = list(values)
        self.draws = []

    def _next(self, kind):
        self.draws.append(kind)
        return self.values.pop(0)

    def integers(self, lo, hi):
        return self._next("integers")

    def random(self):
        return self._next("random")

    def poisson(self, lam, size):
        return np.array(self._next("poisson"))


@pytest.fixture
def scripted_stream():
    """A stand-in for a random stream whose every draw is given in advance."""
    return _ScriptedStream


@pytest.fixture
def hit_indicators():
    """Depth-n hit indicator of each trial of the scan's coupled draw."""
    return _hit_indicators


@pytest.fixture
def percolation_indicators():
    """Percolation proxy on each trial's thinnings of the scan's draw."""
    return _percolation_indicators
