"""Permutation-level view: oracle identities, cycles, boundary truncation."""

import math

import pytest

from stirtree.bars import Bar, BarCollection, LazyPoissonBars
from stirtree.estimators import estimate_pn
from stirtree.meander import SpaceTimePoint, hit_level, run
from stirtree.rng import TrialStreams
from stirtree.stirring import (
    Permutation,
    orbit,
    stirring_permutation,
    transposition_oracle,
)
from stirtree.tree import ROOT, TreeShape

S22 = TreeShape(2, 2)
S23 = TreeShape(2, 3)


def test_oracle_trivial_cases():
    assert transposition_oracle(BarCollection(S22, {})) == Permutation()
    assert stirring_permutation(BarCollection(S22, {})) == Permutation()
    one = transposition_oracle(BarCollection.from_bars(S22, [Bar(b"\x01", 0.4)]))
    assert one(ROOT) == b"\x01" and one(b"\x01") == ROOT and one(b"\x00") == b"\x00"
    # a transposition composed with itself cancels
    two = transposition_oracle(
        BarCollection.from_bars(S22, [Bar(b"\x00", 0.2), Bar(b"\x00", 0.7)])
    )
    assert two == Permutation()


def test_figure_one_cycle_has_three_elements():
    bars = BarCollection.from_bars(S22, [Bar(b"\x00", 0.3), Bar(b"\x01", 0.6)])
    cycle = orbit(bars, ROOT)
    assert len(cycle) == 3
    assert set(cycle) == {ROOT, b"\x00", b"\x01"}
    assert cycle[0] == ROOT


def test_engine_equals_oracle_on_random_instances():
    gen = TrialStreams(111, "orc").at(0)
    for trial in range(2000):
        d, n, tau = [(2, 3, 1.0), (3, 2, 2.0), (3, 3, 0.5)][trial % 3]
        bars = LazyPoissonBars(TreeShape(d, n), tau / d, gen).realize()
        assert stirring_permutation(bars) == transposition_oracle(bars), trial


def test_orbit_is_the_oracle_cycle_read_off_one_run():
    gen = TrialStreams(117, "orbit").at(0)
    for trial in range(300):
        d, n, tau = [(2, 3, 1.0), (3, 2, 2.0)][trial % 2]
        bars = LazyPoissonBars(TreeShape(d, n), tau / d, gen).realize()
        sigma = transposition_oracle(bars)
        for v in sorted(sigma.support() | {ROOT}):
            cyc = orbit(bars, v)
            assert cyc[0] == v and len(set(cyc)) == len(cyc), trial
            assert [sigma(w) for w in cyc] == list(cyc[1:] + cyc[:1]), trial
            # the run wraps once per cycle vertex and returns at that time
            out = run(bars, SpaceTimePoint(v, 0.0)).outcome
            assert out == ("returned", float(len(cyc)), (v, 0.0)), trial


def test_cycles_partition_support():
    gen = TrialStreams(113, "cyc").at(0)
    for _ in range(200):
        bars = LazyPoissonBars(S23, 0.8, gen).realize()
        sigma = transposition_oracle(bars)
        cycles = sigma.cycles()
        flat = [v for c in cycles for v in c]
        assert len(flat) == len(set(flat)) == len(sigma.support())
        for c in cycles:
            for i, v in enumerate(c):
                assert sigma(v) == c[(i + 1) % len(c)]


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation({b"": b"\x00", b"\x01": b"\x00"})  # not injective
    with pytest.raises(ValueError):
        Permutation({b"": b"\x00"})  # support not closed


def test_cycle_report_trivial_cases():
    assert orbit(BarCollection(S22, {}), ROOT) == (ROOT,)
    single = BarCollection.from_bars(S22, [Bar(b"\x00", 0.9)])
    assert orbit(single, ROOT) == (ROOT, b"\x00")
    assert not hit_level(single).reached


def test_truncation_flag_matches_hit_and_pn():
    shape = TreeShape(2, 3)
    t = 0.6
    gen = TrialStreams(127, "trunc").at(0)
    trials = 20_000
    hits = 0
    for _ in range(trials):
        # verify's path: a realized collection and one root-origin run,
        # whose hit flag agrees with the deepest level the estimators read
        bars = LazyPoissonBars(shape, t, gen).realize()
        traj = hit_level(bars)
        truncated = traj.reached
        assert truncated == (traj.deepest >= shape.n)
        hits += truncated
    p_cycle = hits / trials
    est = estimate_pn(shape, t, trials, 222)
    se = math.sqrt(est.stderr**2 + p_cycle * (1 - p_cycle) / trials)
    assert abs(p_cycle - est.mean) < 4 * se
