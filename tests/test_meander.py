"""Engine behaviour: hand-traced trajectories, stop rules, and the M-invariants."""

import math

import pytest

import stirtree.meander as meander
from stirtree.bars import Bar, BarCollection, LazyPoissonBars
from stirtree.meander import (
    EngineError,
    SpaceTimePoint,
    hit_level,
    return_time,
    run,
)
from stirtree.rng import TrialStreams
from stirtree.stirring import orbit, transposition_oracle
from stirtree.tree import ROOT, CapacityError, TreeShape, path_to_root

S22 = TreeShape(2, 2)
S23 = TreeShape(2, 3)


def test_bare_pole_full_wrap():
    bars = BarCollection(S22, {})
    traj = run(bars, SpaceTimePoint(ROOT, 0.0), level=1)
    assert traj.outcome.kind == "returned"
    assert traj.outcome.time == 1.0
    assert traj.steps == {(ROOT, 0.0): (ROOT, 0.0)}  # one wrap, no crossing


def test_single_bar_hits_level_one():
    shape = TreeShape(2, 1)
    bars = BarCollection.from_bars(shape, [Bar(b"\x00", 0.5)])
    traj = hit_level(bars)
    assert traj.reached and traj.outcome.time == 0.5
    assert traj.steps == {(ROOT, 0.0): (b"\x00", 0.5)}  # one crossing


def test_figure_one_three_unit_circuit():
    # one bar on each root edge, nothing below: three unit laps, 3-cycle
    bars = BarCollection.from_bars(S22, [Bar(b"\x00", 0.3), Bar(b"\x01", 0.6)])
    assert return_time(bars, SpaceTimePoint(ROOT, 0.0)) == 3.0


def test_recorded_run_keeps_at_most_the_draw_budget_of_crossings(monkeypatch):
    # the three-unit circuit crosses its two bars twice each; every run keeps
    # its record, so under a budget of three crossings every entry point
    # refuses it, and at four it runs
    bars = BarCollection.from_bars(S22, [Bar(b"\x00", 0.3), Bar(b"\x01", 0.6)])
    steps = run(bars, SpaceTimePoint(ROOT, 0.0)).steps
    assert sum(v != w for (v, _), (w, _) in steps.items()) == 4
    monkeypatch.setattr(meander, "_DRAW_BUDGET", 3)
    for entry in (
        lambda: run(bars, SpaceTimePoint(ROOT, 0.0)),
        lambda: return_time(bars, SpaceTimePoint(ROOT, 0.0)),
        lambda: orbit(bars, ROOT),
    ):
        with pytest.raises(CapacityError, match="over 3 crossings"):
            entry()
    monkeypatch.setattr(meander, "_DRAW_BUDGET", 4)
    assert return_time(bars, SpaceTimePoint(ROOT, 0.0)) == 3.0


def test_single_bar_return_time_two():
    bars = BarCollection.from_bars(S22, [Bar(b"\x00", 0.5)])
    assert return_time(bars, SpaceTimePoint(ROOT, 0.0)) == 2.0


def test_right_continuity_start_on_joint():
    # starting exactly at a joint must not cross it at time zero
    bars = BarCollection.from_bars(S22, [Bar(b"\x00", 0.5)])
    traj = run(bars, SpaceTimePoint(ROOT, 0.5), level=2)
    # the first successor is not the start's joint: a wrap, not a crossing
    assert next(iter(traj.steps.values())) == (ROOT, 0.0)
    # crossed only after a full lap back into the joint
    assert list(traj.steps.items())[1] == ((ROOT, 0.0), (b"\x00", 0.5))
    assert traj.outcome.kind == "returned"
    assert traj.outcome.time == 2.0


def test_return_time_matches_cycle_length_oracle():
    # from (v, 0) the return time equals the cycle length of v in the
    # unit-time permutation: an independent permutation-algebra oracle
    gen = TrialStreams(71, "cyclen").at(0)
    for _ in range(300):
        bars = LazyPoissonBars(S23, 0.6, gen).realize()
        sigma = transposition_oracle(bars)
        ret = return_time(bars, SpaceTimePoint(ROOT, 0.0))
        if ret is None:
            continue
        k = 1
        w = sigma(ROOT)
        while w != ROOT:
            k += 1
            w = sigma(w)
        assert ret == float(k)


def test_return_time_height_shift_exact():
    # running from (root, h) among B equals running from (root, 0) among the
    # height-shifted collection: determinism makes the symmetry exact
    gen = TrialStreams(73, "shift-exact").at(0)
    for _ in range(200):
        bars = LazyPoissonBars(S23, 0.5, gen).realize()
        h = float(gen.random())
        shifted = BarCollection.from_bars(
            S23, [Bar(b.edge, (b.height - h) % 1.0) for b in bars.iter_bars()]
        )
        a = return_time(bars, SpaceTimePoint(ROOT, h))
        b = return_time(shifted, SpaceTimePoint(ROOT, 0.0))
        assert a == b  # None on both sides when truncated


def test_hit_level_single_bar_path_construction():
    shape = TreeShape(3, 3)
    path = path_to_root(b"\x00\x00\x00")
    bars = BarCollection.from_bars(
        shape, [Bar(e, 0.1 + 0.2 * i) for i, e in enumerate(path)]
    )
    assert hit_level(bars).reached


def test_hit_level_probability_level_one():
    # reached iff some root edge carries a bar: P = 1 - e^{-dt}
    shape = TreeShape(3, 1)
    t = 0.4
    gen = TrialStreams(79, "p1").at(0)
    trials = 20_000
    hits = sum(hit_level(LazyPoissonBars(shape, t, gen).realize()).reached for _ in range(trials))
    p = hits / trials
    expected = 1 - math.exp(-3 * t)
    assert abs(p - expected) < 4 * math.sqrt(expected * (1 - expected) / trials)


def test_orbit_basics():
    bars = BarCollection(S22, {})
    assert orbit(bars, ROOT) == (ROOT,)
    one = BarCollection.from_bars(S22, [Bar(b"\x01", 0.3)])
    assert orbit(one, ROOT) == (ROOT, b"\x01")
    assert orbit(one, b"\x01") == (b"\x01", ROOT)
    assert orbit(one, b"\x00") == (b"\x00",)
    # one run from (v, 0): it returns to its start at time len(cycle)
    traj = run(one, SpaceTimePoint(ROOT, 0.0))
    assert traj.outcome == ("returned", 2.0, (ROOT, 0.0)) and traj.wraps == 2


def test_double_bar_same_edge_identity():
    bars = BarCollection.from_bars(S22, [Bar(b"\x00", 0.2), Bar(b"\x00", 0.7)])
    assert orbit(bars, ROOT) == (ROOT,)
    assert orbit(bars, b"\x00") == (b"\x00",)


def test_three_way_stop_rule_orbit_avoiding_root_origin():
    # orbit from the bottleneck parent joint that returns to its start
    # without touching (root, 0) or the boundary: counts as escape failure
    bars = BarCollection.from_bars(
        S22, [Bar(b"\x00", 0.5), Bar(b"\x01", 0.3), Bar(b"\x01", 0.9)]
    )
    traj = run(
        bars,
        SpaceTimePoint(ROOT, 0.5),
        level=2,
        origin=True,
    )
    assert traj.outcome.kind == "returned"


def test_coverage_measure_equals_elapsed():
    gen = TrialStreams(83, "cov").at(0)
    for _ in range(200):
        bars = LazyPoissonBars(S23, 0.8, gen).realize()
        traj = run(bars, SpaceTimePoint(ROOT, 0.0), level=3)
        total = sum(b - a for ivs in traj.coverage().values() for a, b in ivs)
        assert abs(total - traj.outcome.time) < 1e-9
        assert traj.outcome.time <= S23.vertex_count


def test_dichotomy_every_run_hits_or_returns():
    gen = TrialStreams(89, "dicho").at(0)
    for _ in range(500):
        bars = LazyPoissonBars(S23, 1.0, gen).realize()
        traj = hit_level(bars)
        assert traj.outcome.kind in ("hit_level", "returned")
        assert traj.reached == (traj.outcome.kind == "hit_level")


def test_elapsed_time_is_wrap_count_on_return():
    gen = TrialStreams(97, "laps").at(0)
    for _ in range(200):
        bars = LazyPoissonBars(S23, 0.7, gen).realize()
        ret = return_time(bars, SpaceTimePoint(ROOT, 0.0))
        if ret is not None:
            assert ret == float(int(ret))  # whole laps exactly


def test_fault_injection_breaks_engine():
    bars = BarCollection.from_bars(S22, [Bar(b"\x00", 0.5)])
    meander._joint_search_inclusive = True
    try:
        with pytest.raises(EngineError):
            run(bars, SpaceTimePoint(ROOT, 0.0), level=2)
    finally:
        meander._joint_search_inclusive = False


def test_run_is_pure():
    bars = LazyPoissonBars(S23, 0.8, TrialStreams(101, "pure").at(0)).realize()
    a = run(bars, SpaceTimePoint(ROOT, 0.0), level=3)
    b = run(bars, SpaceTimePoint(ROOT, 0.0), level=3)
    assert a.outcome == b.outcome
    assert list(a.steps.items()) == list(b.steps.items())


def test_trajectory_debug_json():
    import json

    bars = BarCollection.from_bars(S22, [Bar(b"\x00", 0.5)])
    traj = run(bars, SpaceTimePoint(ROOT, 0.0), level=2)
    payload = json.loads(json.dumps(traj.to_json_dict()))
    assert payload["outcome"]["kind"] == "returned"
    # root -> 0 at the bar, a wrap, 0 -> root at the bar, a wrap home
    assert payload["steps"] == [
        ["ε", 0.0, "0", 0.5],
        ["0", 0.5, "0", 0.0],
        ["0", 0.0, "ε", 0.5],
        ["ε", 0.5, "ε", 0.0],
    ]


def test_start_height_validation():
    bars = BarCollection(S22, {})
    with pytest.raises(ValueError):
        run(bars, SpaceTimePoint(ROOT, 1.0), level=2)
    with pytest.raises(ValueError):
        run(bars, SpaceTimePoint(b"\x00\x00", 0.0), level=2)


def test_crossing_guard_armed_on_lazy_collections():
    class Undercounting(LazyPoissonBars):
        __slots__ = ()

        def pole(self, v):
            built = super().pole(v)
            self.count = 0
            return built

    honest = hit_level(LazyPoissonBars(S23, 2.0, TrialStreams(5, "undercount").at(0)))
    # the run below has a crossing to count
    assert any(v != w for (v, _), (w, _) in honest.steps.items())
    with pytest.raises(EngineError, match="crossing count"):
        hit_level(Undercounting(S23, 2.0, TrialStreams(5, "undercount").at(0)))
