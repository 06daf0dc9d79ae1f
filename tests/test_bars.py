"""Bar sampling laws, location-set measure, and serialization round-trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stirtree.bars import (
    Bar,
    BarCollection,
    LazyPoissonBars,
    LocationSet,
    merge_intervals,
    normalized_position,
    sample_added,
    sample_uniform_on,
)
from stirtree.meander import hit_level
from stirtree.rng import substream
from stirtree.tree import TreeShape, edge_from_index

SHAPE22 = TreeShape(2, 2)


def test_zero_intensity_empty():
    bars = BarCollection.sample_poisson(SHAPE22, 0.0, substream(1, "t0"))
    assert bars.count == 0
    assert bars.heights_on(b"\x00") == ()


def test_poisson_mean_and_void_probability():
    # mean total count t*|E| = 0.5*6 = 3, and P(no bar on a fixed edge) = e^-t
    trials = 100_000
    t = 0.5
    total = 0
    void = 0
    gen = substream(17, "poisson-mean")
    for _ in range(trials):
        bars = BarCollection.sample_poisson(SHAPE22, t, gen)
        total += bars.count
        if not bars.heights_on(b"\x00"):
            void += 1
    mean = total / trials
    se_mean = math.sqrt(3.0 / trials)  # Poisson variance equals the mean
    assert abs(mean - 3.0) < 4 * se_mean
    p_void = void / trials
    expected = math.exp(-t)
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(p_void - expected) < 4 * se


def test_heights_strictly_increasing_and_open():
    gen = substream(3, "inc")
    for _ in range(200):
        bars = BarCollection.sample_poisson(TreeShape(2, 3), 1.5, gen)
        for e in bars.edges_with_bars():
            hs = bars.heights_on(e)
            assert all(0.0 < h < 1.0 for h in hs)
            assert all(hs[i] < hs[i + 1] for i in range(len(hs) - 1))


def test_sample_added_marginals():
    trials = 100_000
    gen = substream(23, "added")
    hits = 0
    hsum = 0.0
    for _ in range(trials):
        bar = sample_added(SHAPE22, gen)
        hits += len(bar.edge) == 1
        hsum += bar.height
    p = hits / trials
    expected = 2 / 6  # d / |E| root-layer mass
    assert abs(p - expected) < 4 * math.sqrt(expected * (1 - expected) / trials)
    assert abs(hsum / trials - 0.5) < 4 * math.sqrt(1 / 12 / trials)


def test_reproducibility_bit_identical():
    a = BarCollection.sample_poisson(TreeShape(3, 3), 0.7, substream(99, "rep"))
    b = BarCollection.sample_poisson(TreeShape(3, 3), 0.7, substream(99, "rep"))
    assert a == b
    c = BarCollection.sample_poisson(TreeShape(3, 3), 0.7, substream(100, "rep"))
    assert a != c


def test_json_roundtrip_exact():
    bars = BarCollection.sample_poisson(TreeShape(3, 3), 0.9, substream(5, "json"))
    again = BarCollection.from_json(bars.to_json())
    assert again == bars
    payload = json.loads(bars.to_json())
    assert payload["schema"] == 1


def test_with_added_and_duplicate_rejection():
    bars = BarCollection.from_bars(SHAPE22, [Bar(b"\x00", 0.5)])
    more = bars.with_added(Bar(b"\x00", 0.25))
    assert more.heights_on(b"\x00") == (0.25, 0.5)
    assert bars.heights_on(b"\x00") == (0.5,)  # original untouched
    with pytest.raises(ValueError):
        bars.with_added(Bar(b"\x00", 0.5))


def test_measure_examples():
    empty = LocationSet(SHAPE22, {})
    assert empty.measure() == 0.0
    full_root = LocationSet(
        SHAPE22, {b"\x00": ((0.0, 1.0),), b"\x01": ((0.0, 1.0),)}
    )
    assert full_root.measure() == 2.0  # d full poles
    six = LocationSet(
        SHAPE22,
        {e: ((0.0, 1.0),) for e in [b"\x00", b"\x01", b"\x00\x00", b"\x00\x01", b"\x01\x00", b"\x01\x01"]},
    )
    assert six.measure() == 6.0


def test_measure_additive_over_disjoint_union():
    a = LocationSet(SHAPE22, {b"\x00": ((0.0, 0.25), (0.5, 0.75))})
    b = LocationSet(SHAPE22, {b"\x00": ((0.25, 0.5),), b"\x01": ((0.1, 0.2),)})
    u = a.union(b)
    assert abs(u.measure() - (a.measure() + b.measure())) < 1e-12


def test_location_set_invariant_violations():
    with pytest.raises(ValueError):
        LocationSet(SHAPE22, {b"\x00": ((0.5, 0.4),)})
    with pytest.raises(ValueError):
        LocationSet(SHAPE22, {b"\x00": ((0.0, 0.5), (0.4, 0.8))})


def test_merge_intervals_fuses_adjacent():
    assert merge_intervals([(0.5, 1.0), (0.0, 0.5)]) == ((0.0, 1.0),)
    assert merge_intervals([(0.0, 0.3), (0.4, 0.6)]) == ((0.0, 0.3), (0.4, 0.6))


def test_sample_uniform_on_single_edge():
    s = LocationSet(SHAPE22, {b"\x01": ((0.0, 1.0),)})
    gen = substream(31, "uni")
    for _ in range(50):
        bar = sample_uniform_on(s, gen)
        assert bar.edge == b"\x01"
        assert 0.0 <= bar.height < 1.0


def test_sample_uniform_length_proportional():
    s = LocationSet(
        SHAPE22, {b"\x00": ((0.0, 0.25),), b"\x01": ((0.1, 0.85),)}
    )
    gen = substream(37, "prop")
    trials = 100_000
    first = 0
    for _ in range(trials):
        bar = sample_uniform_on(s, gen)
        assert s.contains(bar.edge, bar.height)
        first += bar.edge == b"\x00"
    p = first / trials
    assert abs(p - 0.25) < 4 * math.sqrt(0.25 * 0.75 / trials)


def test_sample_uniform_matches_added_on_root_layer():
    # uniform on the full root layer agrees with the added-bar law given E_0
    s = LocationSet(SHAPE22, {b"\x00": ((0.0, 1.0),), b"\x01": ((0.0, 1.0),)})
    gen = substream(41, "cmp")
    trials = 50_000
    direct = sum(sample_uniform_on(s, gen).edge == b"\x00" for _ in range(trials))
    gen2 = substream(41, "cmp2")
    rej = 0
    got = 0
    while got < trials:
        bar = sample_added(SHAPE22, gen2)
        if len(bar.edge) == 1:
            got += 1
            rej += bar.edge == b"\x00"
    diff = direct / trials - rej / trials
    assert abs(diff) < 4 * math.sqrt(2 * 0.25 / trials)


def test_normalized_position_uniform():
    s = LocationSet(SHAPE22, {b"\x00": ((0.2, 0.4),), b"\x01": ((0.5, 0.9),)})
    gen = substream(43, "pos")
    xs = [normalized_position(s, sample_uniform_on(s, gen)) for _ in range(20_000)]
    assert 0.0 <= min(xs) and max(xs) < 1.0
    assert abs(np.mean(xs) - 0.5) < 4 * math.sqrt(1 / 12 / len(xs))


def test_lazy_poisson_matches_law_and_replays():
    shape = TreeShape(16, 4)
    t = 1 / 16
    # same substream and same access order reproduce identical counts
    a = LazyPoissonBars(shape, t, substream(7, "lazy", 0))
    b = LazyPoissonBars(shape, t, substream(7, "lazy", 0))
    edges = [bytes((i,)) for i in range(16)]
    assert [a.count_on(e) for e in edges] == [b.count_on(e) for e in edges]
    assert a.heights_on(b"\x05") == b.heights_on(b"\x05")
    # per-edge counts are Poisson(t): check the mean over many substreams
    total = 0
    trials = 20_000
    for i in range(trials):
        lazy = LazyPoissonBars(shape, t, substream(11, "lazy-law", i))
        total += lazy.count_on(b"\x03")
    mean = total / trials
    assert abs(mean - t) < 4 * math.sqrt(t / trials)


@settings(max_examples=80, deadline=None)
@example(d=2, n=2, t=1.5, seed=1, pick=0, h=0.5, on_barred=True)
@given(
    d=st.integers(2, 4),
    n=st.integers(1, 3),
    t=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32),
    pick=st.integers(0, 10**6),
    h=st.floats(0.0, 1.0, exclude_max=True),
    on_barred=st.booleans(),
)
def test_with_added_overlay_same_on_lazy_and_materialized(
    d, n, t, seed, pick, h, on_barred
):
    shape = TreeShape(d, n)
    lazy = LazyPoissonBars(shape, t, substream(seed, "overlay"))
    edges = [edge_from_index(shape, i) for i in range(shape.edge_count)]
    dense = BarCollection(
        shape, {e: lazy.heights_on(e) for e in edges if lazy.count_on(e)}
    )
    assert lazy.count == dense.count
    barred = [e for e in edges if lazy.count_on(e)]
    pool = barred if on_barred and barred else edges
    added = Bar(pool[pick % len(pool)], h)
    assume(h not in lazy.heights_on(added.edge))
    # build some base poles first: the overlay must reuse them unchanged
    assert hit_level(lazy).reached == hit_level(dense).reached
    rebuilt = BarCollection.from_bars(shape, list(dense.iter_bars()) + [added])
    runs = [
        hit_level(bars, record=True)
        for bars in (lazy.with_added(added), dense.with_added(added), rebuilt)
    ]
    assert runs[0] == runs[1] == runs[2]
    assert lazy.with_added(added).count == dense.count + 1
