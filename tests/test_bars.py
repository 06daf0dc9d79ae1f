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
from stirtree.rng import TrialStreams
from stirtree.tree import ROOT, CapacityError, TreeShape, edge_from_index

SHAPE22 = TreeShape(2, 2)


def test_zero_intensity_empty():
    bars = LazyPoissonBars(SHAPE22, 0.0, TrialStreams(1, "t0").at(0)).realize()
    assert bars.count == 0
    assert bars.heights_on(b"\x00") == ()


def test_poisson_mean_and_void_probability():
    # mean total count t*|E| = 0.5*6 = 3, and P(no bar on a fixed edge) = e^-t
    trials = 100_000
    t = 0.5
    total = 0
    void = 0
    gen = TrialStreams(17, "poisson-mean").at(0)
    for _ in range(trials):
        bars = LazyPoissonBars(SHAPE22, t, gen).realize()
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
    gen = TrialStreams(3, "inc").at(0)
    for _ in range(200):
        bars = LazyPoissonBars(TreeShape(2, 3), 1.5, gen).realize()
        for e in bars.edges_with_bars():
            hs = bars.heights_on(e)
            assert all(0.0 < h < 1.0 for h in hs)
            assert all(hs[i] < hs[i + 1] for i in range(len(hs) - 1))


def test_sample_added_marginals():
    trials = 100_000
    gen = TrialStreams(23, "added").at(0)
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
    a = LazyPoissonBars(TreeShape(3, 3), 0.7, TrialStreams(99, "rep").at(0)).realize()
    b = LazyPoissonBars(TreeShape(3, 3), 0.7, TrialStreams(99, "rep").at(0)).realize()
    assert a == b
    c = LazyPoissonBars(TreeShape(3, 3), 0.7, TrialStreams(100, "rep").at(0)).realize()
    assert a != c


def test_json_roundtrip_exact():
    bars = LazyPoissonBars(TreeShape(3, 3), 0.9, TrialStreams(5, "json").at(0)).realize()
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
    a = {b"\x00": ((0.0, 0.25), (0.5, 0.75))}
    b = {b"\x00": ((0.25, 0.5),), b"\x01": ((0.1, 0.2),)}
    u = {e: merge_intervals(list(a.get(e, ())) + list(b.get(e, ()))) for e in a | b}
    assert u[b"\x00"] == ((0.0, 0.75),)  # the adjacent pieces fuse
    total = LocationSet(SHAPE22, a).measure() + LocationSet(SHAPE22, b).measure()
    assert abs(LocationSet(SHAPE22, u).measure() - total) < 1e-12


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
    gen = TrialStreams(31, "uni").at(0)
    for _ in range(50):
        bar = sample_uniform_on(s, gen)
        assert bar.edge == b"\x01"
        assert 0.0 <= bar.height < 1.0


def test_sample_uniform_length_proportional():
    s = LocationSet(
        SHAPE22, {b"\x00": ((0.0, 0.25),), b"\x01": ((0.1, 0.85),)}
    )
    gen = TrialStreams(37, "prop").at(0)
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
    gen = TrialStreams(41, "cmp").at(0)
    trials = 50_000
    direct = sum(sample_uniform_on(s, gen).edge == b"\x00" for _ in range(trials))
    gen2 = TrialStreams(41, "cmp2").at(0)
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
    gen = TrialStreams(43, "pos").at(0)
    xs = [normalized_position(s, sample_uniform_on(s, gen)) for _ in range(20_000)]
    assert 0.0 <= min(xs) and max(xs) < 1.0
    assert abs(np.mean(xs) - 0.5) < 4 * math.sqrt(1 / 12 / len(xs))


def test_lazy_poisson_matches_law_and_replays():
    shape = TreeShape(16, 4)
    t = 1 / 16
    # same stream and same access order reproduce identical counts
    a = LazyPoissonBars(shape, t, TrialStreams(7, "lazy", 0).at(0))
    b = LazyPoissonBars(shape, t, TrialStreams(7, "lazy", 0).at(0))
    edges = [bytes((i,)) for i in range(16)]
    assert [a.count_on(e) for e in edges] == [b.count_on(e) for e in edges]
    assert a.heights_on(b"\x05") == b.heights_on(b"\x05")
    # per-edge counts are Poisson(t): check the mean over many streams
    total = 0
    trials = 20_000
    for i in range(trials):
        lazy = LazyPoissonBars(shape, t, TrialStreams(11, "lazy-law", i).at(0))
        total += lazy.count_on(b"\x03")
    mean = total / trials
    assert abs(mean - t) < 4 * math.sqrt(t / trials)


def _lazy_reference(shape, t, rng):
    """count_on over every edge in index order, then heights_on over them."""
    lazy = LazyPoissonBars(shape, t, rng)
    edges = [edge_from_index(shape, i) for i in range(shape.edge_count)]
    counts = [lazy.count_on(e) for e in edges]
    by_edge = {e: lazy.heights_on(e) for e, k in zip(edges, counts) if k}
    return BarCollection(shape, by_edge)


@pytest.mark.parametrize(
    "d, n, t, seed",
    [
        (2, 2, 0.25, 1),
        (3, 3, 0.7, 2),
        (8, 2, 0.145, 3),
        (2, 2, 12.0, 4),
        (8, 4, 0.145, 5),
        (3, 1, 0.9, 6),
    ],
)
def test_realize_is_the_lazy_law_queried_in_edge_order(d, n, t, seed):
    # one vector draw of the counts equals count_on edge by edge in index
    # order (t=12 takes numpy's other Poisson algorithm), then the heights;
    # both generators end at the same stream position
    shape = TreeShape(d, n)
    gen = TrialStreams(seed, "realize").at(0)
    full = LazyPoissonBars(shape, t, gen).realize()
    after_full = gen.random()
    ref_gen = TrialStreams(seed, "realize").at(0)
    ref = _lazy_reference(shape, t, ref_gen)
    assert full == ref
    assert full.count == ref.count > 0
    assert after_full == ref_gen.random()


class _ScriptedGen:
    """Stand-in generator: Poisson counts and uniform doubles from two scripts.

    Both scripts are read as one sequence each, as a counter-based stream's
    draws are, whether one value or a vector is asked for at a time.
    """

    def __init__(self, counts, doubles):
        self._counts = list(counts)
        self._doubles = list(doubles)
        self.calls = []

    def _take(self, script, size):
        if size is None:
            return script.pop(0)
        out = np.array(script[:size])
        del script[:size]
        return out

    def poisson(self, lam, size=None):
        self.calls.append("poisson")
        return self._take(self._counts, size)

    def random(self, size=None):
        self.calls.append("random")
        return self._take(self._doubles, size)


def test_realize_redraws_as_the_lazy_path_does():
    # edges in index order on T_2(2): counts 1, 0, 2, 0, 0, 1.  Edge 0
    # draws an exact 0.0 and redraws; edge 2 draws a tie and redraws; edge
    # 5, the last, draws 0.0 and redraws
    shape = TreeShape(2, 2)
    counts = [1, 0, 2, 0, 0, 1]
    doubles = [0.0, 0.5, 0.3, 0.3, 0.9, 0.2, 0.0, 0.7, 0.25, 0.75]
    gen = _ScriptedGen(counts, doubles)
    full = LazyPoissonBars(shape, 1.0, gen).realize()
    ref_gen = _ScriptedGen(counts, doubles)
    assert full == _lazy_reference(shape, 1.0, ref_gen)
    assert full.heights_on(b"\x00") == (0.5,)
    assert full.heights_on(b"\x00\x00") == (0.2, 0.9)
    assert full.heights_on(b"\x01\x01") == (0.7,)
    # the counts, then per barred edge one draw of k doubles and one per redraw
    assert gen.calls == ["poisson"] + ["random"] * 6
    assert gen.random() == ref_gen.random() == 0.25


def test_draw_budget_checked_before_any_draw():
    # (2, 20, 0.19) asks for 2.496e6 counts and heights and is drawn, (2, 20,
    # 0.2) for 2.517e6 and is refused first; the scripted stream's draws are
    # empty, so neither allocates
    gen = _ScriptedGen([], [])
    assert LazyPoissonBars(TreeShape(2, 20), 0.19, gen).realize().count == 0
    assert gen.calls == ["poisson"]
    gen = _ScriptedGen([], [])
    with pytest.raises(CapacityError, match="realize"):
        LazyPoissonBars(TreeShape(2, 20), 0.2, gen).realize()
    LazyPoissonBars(TreeShape(2, 1), 833_333, gen)  # (d + 1)·t = 2 499 999
    with pytest.raises(CapacityError, match="lazy pole"):  # 2 500 002
        LazyPoissonBars(TreeShape(2, 1), 833_334, gen)
    assert gen.calls == []


@pytest.mark.parametrize("query", ["pole", "count_on"])
def test_lazy_heights_checked_against_the_budget_before_they_are_drawn(query):
    # a run draws a pole per vertex it visits, so the heights a collection
    # holds are checked after each count draw: the root pole's counts sum to
    # one over the budget, and its heights are never drawn
    gen = _ScriptedGen([2_000_000, 500_001], [])
    lazy = LazyPoissonBars(TreeShape(2, 2), 1.0, gen)
    with pytest.raises(CapacityError, match="one lazy collection"):
        if query == "pole":
            lazy.pole(ROOT)
        else:
            lazy.count_on(b"\x01")
    assert "random" not in gen.calls


@pytest.mark.parametrize("query", ["pole", "count_on"])
def test_lazy_budget_charges_counts_as_well_as_heights(query):
    # every drawn value counts, as in realize(): the root's two counts and
    # the 2 499 998 heights of edge 0 fill the budget exactly, and the next
    # child list, edge 0's, is over it; edge 0's heights are never drawn
    gen = _ScriptedGen([2_499_998, 0, 0, 0], [])
    lazy = LazyPoissonBars(TreeShape(2, 2), 1.0, gen)
    with pytest.raises(CapacityError, match="one lazy collection"):
        if query == "pole":
            lazy.pole(b"\x00")
        else:
            assert lazy.count_on(b"\x00") == 2_499_998
            assert lazy.count_on(b"\x01") == 0
            lazy.count_on(b"\x00\x00")
    assert gen.calls == ["poisson", "poisson"]


def test_realize_refuses_an_edge_count_past_float_range_before_any_draw():
    # |E| of (255, 200) is about 10**481: compared as an int, never scaled
    gen = _ScriptedGen([], [])
    with pytest.raises(CapacityError, match="realize"):
        LazyPoissonBars(TreeShape(255, 200), 0.004, gen).realize()
    assert gen.calls == []


def test_realize_needs_a_fresh_collection():
    lazy = LazyPoissonBars(SHAPE22, 0.5, TrialStreams(2, "fresh").at(0))
    lazy.count_on(b"\x00")  # one count read draws the root's child list
    with pytest.raises(ValueError, match="nothing realized"):
        lazy.realize()
    lazy = LazyPoissonBars(SHAPE22, 0.5, TrialStreams(2, "fresh").at(0))
    lazy.pole(ROOT)
    with pytest.raises(ValueError, match="nothing realized"):
        lazy.realize()


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_intensity_must_be_finite_and_nonnegative(t):
    with pytest.raises(ValueError, match="finite and >= 0"):
        LazyPoissonBars(SHAPE22, t, TrialStreams(1, "bad-t").at(0))


@pytest.mark.parametrize("t", [0.8, -0.1, math.nan])
def test_thinning_rate_must_lie_in_zero_to_the_base_rate(t):
    lazy = LazyPoissonBars(SHAPE22, 0.2, TrialStreams(3, "thin-t").at(0))
    with pytest.raises(ValueError, match="thinning rate"):
        lazy.thinned(t)
    assert lazy.thinned(0.2) is lazy and lazy.thinned(0.0).heights_on(b"\x00") == ()


@pytest.mark.parametrize(
    "d, n, t, v",
    [
        (3, 3, 0.8, b""),
        (3, 3, 1.2, b"\x01"),
        (3, 3, 1.2, b"\x01\x02\x00"),
        (2, 4, 1.5, b"\x00\x01"),
    ],
)
def test_lazy_pole_draws_parent_then_children(d, n, t, v):
    # a pole built first (parent edge unknown too) draws what count_on over
    # the parent edge and the children by symbol, then heights_on over them,
    # would draw; afterwards both streams stand at the same position
    shape = TreeShape(d, n)
    gen = TrialStreams(3, "pole-order").at(0)
    pole = LazyPoissonBars(shape, t, gen).pole(v)
    ref_gen = TrialStreams(3, "pole-order").at(0)
    ref = LazyPoissonBars(shape, t, ref_gen)
    incident = ([v] if v else []) + [v + bytes((i,)) for i in range(d) if len(v) < n]
    counts = [ref.count_on(e) for e in incident]
    dense = BarCollection(shape, {e: ref.heights_on(e) for e in incident})
    assert sum(counts) > 0
    assert pole == dense.pole(v)
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize(
    "d, n, t, v, first",
    [
        (3, 3, 1.2, b"\x01", [b"\x01\x02"]),  # v's own child list
        (3, 3, 1.2, b"\x01", [b"\x01\x00\x02"]),  # a child's child list
        (3, 3, 1.2, b"\x01", [b"\x01"]),  # the list of v's parent edge
        (3, 3, 1.5, b"", [b"\x02", b"\x00"]),
        (2, 4, 1.5, b"\x00\x01", [b"\x00\x01\x01\x00"]),
    ],
)
def test_lazy_pole_after_child_counts_read_first(d, n, t, v, first):
    # counts read first, as an added bar's edge is: each read draws its
    # vertex's whole child list, and the pole then draws only the lists it
    # still lacks, as count_on over its edges would
    shape = TreeShape(d, n)
    gen = TrialStreams(4, "pole-after").at(0)
    lazy = LazyPoissonBars(shape, t, gen)
    for e in first:
        lazy.count_on(e)
    pole = lazy.pole(v)
    ref_gen = TrialStreams(4, "pole-after").at(0)
    ref = LazyPoissonBars(shape, t, ref_gen)
    for e in first:
        ref.count_on(e)
    incident = ([v] if v else []) + [v + bytes((i,)) for i in range(d) if len(v) < n]
    counts = [ref.count_on(e) for e in incident]
    dense = BarCollection(shape, {e: ref.heights_on(e) for e in incident})
    assert sum(counts) > 0
    assert pole == dense.pole(v)
    assert [lazy.count_on(e) for e in incident] == counts
    assert lazy.count == ref.count
    assert gen.random() == ref_gen.random()


def test_count_on_draws_the_whole_child_list_once():
    # a vertex's d child counts are one draw: the first count read makes one
    # poisson call, its siblings read without a draw, and the parent's pole
    # draws only the heights of the barred children
    gen = _ScriptedGen([0, 2, 0], [0.6, 0.4])
    lazy = LazyPoissonBars(TreeShape(3, 2), 1.0, gen)
    assert lazy.count_on(b"\x01") == 2
    assert gen.calls == ["poisson"]
    assert [lazy.count_on(bytes((s,))) for s in range(3)] == [0, 2, 0]
    assert gen.calls == ["poisson"]
    assert lazy.pole(ROOT) == ((0.4, 0.6), ((b"\x01", b"\x01"),) * 2)
    assert gen.calls == ["poisson", "random"]
    assert lazy.count == 2


def test_pole_keeps_the_edge_order_of_tied_heights():
    # a height shared by the parent edge and two children: the joints keep
    # the edges' order, as sorting (height, (edge, dest)) pairs would
    shape = TreeShape(3, 2)
    v = b"\x01"
    by_edge = {
        v: (0.25, 0.5),
        v + b"\x02": (0.5, 0.75),
        v + b"\x00": (0.1, 0.5),
        v + b"\x01": (0.3,),
    }
    pole = BarCollection(shape, by_edge).pole(v)
    pairs = sorted(
        (h, (e, e[:-1] if e == v else e)) for e, hs in by_edge.items() for h in hs
    )
    assert pole == (tuple(h for h, _ in pairs), tuple(hop for _, hop in pairs))
    assert [hop[0] for hop in pole[1][3:6]] == [v, v + b"\x00", v + b"\x02"]


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
    lazy = LazyPoissonBars(shape, t, TrialStreams(seed, "overlay").at(0))
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
        hit_level(bars)
        for bars in (lazy.with_added(added), dense.with_added(added), rebuilt)
    ]
    assert runs[0] == runs[1] == runs[2]
    assert lazy.with_added(added).count == dense.count + 1
