"""Event detectors: crossings, bottlenecks, clusters, viable sets, routes."""

import math

from stirtree.bars import Bar, BarCollection, LazyPoissonBars, sample_added
from stirtree.events import (
    crossed_bars,
    crossing_without_bottleneck,
    detect,
    escape_routes,
    multibar_cluster,
    root_stats,
    untouched_locations,
    viable_locations,
)
from stirtree.meander import hit_level
from stirtree.rng import TrialStreams
from stirtree.tree import TreeShape, path_to_root
from stirtree.verify import inclusion_violations

S22 = TreeShape(2, 2)


def test_detect_empty_collection_case_split():
    bars = BarCollection(S22, {})
    # added on the root layer: the bare-pole circuit covers its parent joint
    rec = detect(bars, Bar(b"\x00", 0.4), hit_level(bars))
    assert rec.crossed and rec.bottleneck_edge is None
    assert rec.pivot == "neither"  # n=2: one added bar cannot reach depth 2
    # added deeper: never met
    rec2 = detect(bars, Bar(b"\x00\x01", 0.4), hit_level(bars))
    assert not rec2.crossed and rec2.pivot == "neither"


def test_detect_single_bar_example():
    bars = BarCollection.from_bars(S22, [Bar(b"\x00", 0.5)])
    rec = detect(bars, Bar(b"\x00", 0.2), hit_level(bars))
    assert rec.crossed
    assert rec.bottleneck_edge is None  # path to the added parent is empty
    assert rec.added_depth_index == 2 - 1


def test_detect_bottleneck_and_no_escape_fields():
    # bar on the root edge plus added bar below it: bottleneck is the root edge
    shape = TreeShape(2, 3)
    bars = BarCollection.from_bars(shape, [Bar(b"\x00", 0.5)])
    rec = detect(bars, Bar(b"\x00\x01", 0.7), hit_level(bars))
    assert rec.crossed
    assert rec.bottleneck_edge == b"\x00"
    assert rec.bottleneck_height == 0.5
    assert rec.no_escape is True  # bare upper tree: straight back to the origin
    assert rec.bottleneck_zone == "far"  # child endpoint level 1 <= n - 2*n1 = 1
    assert rec.added_depth_index == 3 - 2  # n minus the added child level


def test_bottleneck_zone_cutoff():
    shape = TreeShape(2, 4)
    bars = BarCollection.from_bars(shape, [Bar(b"\x00", 0.5)])
    rec = detect(bars, Bar(b"\x00\x01", 0.7), hit_level(bars), n1=1)
    assert rec.bottleneck_zone == "far"  # level 1 <= 4 - 2
    deep = BarCollection.from_bars(
        shape, [Bar(b"\x00", 0.1), Bar(b"\x00\x00", 0.2), Bar(b"\x00\x00\x00", 0.3)]
    )
    rec2 = detect(deep, Bar(b"\x00\x00\x00\x01", 0.35), hit_level(deep), n1=1)
    assert rec2.crossed and rec2.bottleneck_edge == b"\x00\x00\x00"
    assert rec2.bottleneck_zone == "close"  # level 3 > 4 - 2


def test_multibar_cluster_examples():
    bars = BarCollection(S22, {})
    rep = multibar_cluster(bars)
    assert rep.size == 0 and len(rep.boundary) == 2  # d examined candidates
    two = BarCollection.from_bars(
        S22, [Bar(b"\x00", 0.1), Bar(b"\x00", 0.6), Bar(b"\x01", 0.3)]
    )
    rep2 = multibar_cluster(two)
    assert rep2.cluster == frozenset({b"\x00"})
    assert len(rep2.boundary) == 2 * 2 - 1
    assert rep2.single_bar_boundary_count == 1
    assert not rep2.truncated


def test_multibar_cluster_truncation_and_boundary_bound():
    shape = TreeShape(2, 2)
    deep = BarCollection.from_bars(
        shape,
        [Bar(b"\x00", 0.1), Bar(b"\x00", 0.2), Bar(b"\x00\x00", 0.3), Bar(b"\x00\x00", 0.4)],
    )
    rep = multibar_cluster(deep)
    assert rep.truncated  # cluster reaches depth n
    gen = TrialStreams(131, "bd").at(0)
    for _ in range(300):
        bars = LazyPoissonBars(TreeShape(3, 3), 0.9, gen).realize()
        r = multibar_cluster(bars)
        assert len(r.boundary) <= 3 + (3 - 1) * r.size


def test_viable_locations_bar_free_collection():
    empty = BarCollection(S22, {})
    vl = viable_locations(empty, hit_level(empty), multibar_cluster(empty))
    assert vl.measure() == 2.0
    assert set(vl.intervals) == {b"\x00", b"\x01"}
    assert all(vl.intervals[e] == ((0.0, 1.0),) for e in vl.intervals)


def test_viable_locations_full_trace_measure_six():
    # both root edges multi-covered, orbit sweeps all six candidate edges
    bars = BarCollection.from_bars(
        S22,
        [
            Bar(b"\x00", 0.016231073819621966),
            Bar(b"\x00", 0.4271290593740088),
            Bar(b"\x00", 0.7671663649554772),
            Bar(b"\x01", 0.19171606972754918),
            Bar(b"\x01", 0.33019283232497376),
            Bar(b"\x01", 0.535440588283793),
        ],
    )
    rep = multibar_cluster(bars)
    assert rep.cluster == frozenset({b"\x00", b"\x01"})
    vl = viable_locations(bars, hit_level(bars), rep)
    assert vl.measure() == 6.0
    assert len(vl.intervals) == 6


def test_root_stats_trivial_and_laws():
    empty = BarCollection(S22, {})
    rs = root_stats(empty, hit_level(empty), multibar_cluster(empty))
    assert rs.bar_free and rs.low_gap and rs.single_bar_edges == 0
    assert rs.confined_clusterless

    # P(bar-free root layer) = e^{-tau}; lone-bar count mean = d t e^{-t}
    d, n, t = 3, 2, 0.3
    shape = TreeShape(d, n)
    gen = TrialStreams(139, "roots").at(0)
    trials = 30_000
    free = 0
    lone = 0
    gap = 0
    for _ in range(trials):
        bars = LazyPoissonBars(shape, t, gen).realize()
        s = root_stats(bars, hit_level(bars), multibar_cluster(bars))
        free += s.bar_free
        lone += s.single_bar_edges
        gap += s.low_gap
    tau = d * t
    p_free = math.exp(-tau)
    assert abs(free / trials - p_free) < 4 * math.sqrt(p_free * (1 - p_free) / trials)
    mean_lone = d * t * math.exp(-t)
    var_lone = d * t * math.exp(-t) * (1 - t * math.exp(-t))
    assert abs(lone / trials - mean_lone) < 4 * math.sqrt(var_lone / trials)
    p_gap = math.exp(-tau * d**-0.5)
    assert abs(gap / trials - p_gap) < 4 * math.sqrt(p_gap * (1 - p_gap) / trials)


def test_escape_routes_constructed_path_all_static():
    # one bar per path edge, ascending, siblings bar-free, windows clear
    shape = TreeShape(3, 3)
    path = path_to_root(b"\x00\x00\x00")
    heights = [0.1, 0.35, 0.6]
    bars = BarCollection.from_bars(
        shape, [Bar(e, h) for e, h in zip(path, heights)]
    )
    traj = hit_level(bars)
    assert traj.outcome.kind == "hit_level"
    sets = list(escape_routes(bars, traj))
    # one set per crossing, each crossing one step down the path
    assert len(sets) == len(traj.steps) == 3
    assert [w for w, _ in traj.steps.values()] == list(path)
    # after crossing k the tip sits below path edge k, with k + 1 routes
    for k, routes in enumerate(sets):
        assert routes.static == frozenset(path[: k + 1])
        # witnesses exclude the root-layer edge by definition
        assert routes.witnessed == frozenset(path[1 : k + 1])
    # the last set is the one for the whole run, ended on that crossing
    routes = sets[-1]
    for edge, esc in routes.escape_vertices:
        assert esc[:-1] == edge[:-1]
        assert esc not in traj.coverage()


def test_escape_routes_empty_for_bare_collection():
    bars = BarCollection(S22, {})
    traj = hit_level(bars)
    assert list(escape_routes(bars, traj)) == []  # no crossing, no route set


def test_inclusions_zero_violations_small():
    shape = TreeShape(3, 4)
    for t in (0.2, 0.5):
        for i in range(800):
            gen = TrialStreams(149, "incl", t, i).at(0)
            bars = LazyPoissonBars(shape, t, gen).realize()
            added = sample_added(bars, gen)
            assert inclusion_violations(bars, added) == [], (t, i)


def test_inclusions_hold_in_truncation_heavy_regimes():
    # high rates on shallow trees make clusters touch the boundary often
    for d, n, t in [(2, 2, 0.9), (2, 3, 1.2), (4, 3, 0.5), (3, 2, 1.0)]:
        shape = TreeShape(d, n)
        for i in range(1500):
            gen = TrialStreams(4242, "sweep", d, n, t, i).at(0)
            bars = LazyPoissonBars(shape, t, gen).realize()
            added = sample_added(bars, gen)
            assert inclusion_violations(bars, added) == [], (d, n, t, i)


def test_crossing_without_bottleneck_equals_viable_membership():
    shape = TreeShape(2, 3)
    gen = TrialStreams(151, "ek2").at(0)
    for _ in range(2000):
        bars = LazyPoissonBars(shape, 0.7, gen).realize()
        added = sample_added(bars, gen)
        traj = hit_level(bars)
        lhs = crossing_without_bottleneck(bars, added, traj)
        vl = viable_locations(bars, traj, multibar_cluster(bars))
        rhs = vl.contains(added.edge, added.height)
        assert lhs == rhs


def test_untouched_locations_consistency():
    shape = TreeShape(2, 3)
    gen = TrialStreams(157, "unt").at(0)
    for _ in range(200):
        bars = LazyPoissonBars(shape, 0.7, gen).realize()
        traj = hit_level(bars)
        found = crossed_bars(traj)
        unt = untouched_locations(bars, traj)
        end_vertex, end_height = traj.outcome.point
        for b in bars.iter_bars():
            if b not in found:
                # every uncrossed bar stays inside the untouched region
                assert unt.contains(b.edge, b.height)
            else:
                # crossed bars leave it, except at the zero-mass terminal point
                terminal = end_height == b.height and end_vertex in (b.edge, b.edge[:-1])
                assert terminal or not unt.contains(b.edge, b.height)
        assert found <= set(bars.iter_bars())
