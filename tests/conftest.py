"""Per-trial indicators read off the coupled draw that ``scan`` runs, and a
scripted stream.

``estimators._pn_batch`` draws one rate-t_max collection per trial on the
``"pn"`` stream and thins it to every lower t from the top down; the
indicator fixtures read that coupling trial by trial, as (trials, len(ts))
boolean arrays with ts strictly ascending.
"""

import numpy as np
import pytest

import stirtree.estimators as estimators
from stirtree.bars import LazyPoissonBars
from stirtree.rng import TrialStreams


def _hit_indicators(shape, ts, trials, seed):
    # a one-trial chunk's histograms are one-hot at the trial's deepest
    # level, so the depth-n hit is each histogram's last entry
    rows = [
        [hist[-1] for hist in estimators._pn_batch((shape, tuple(ts), seed, i, i + 1))]
        for i in range(trials)
    ]
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
