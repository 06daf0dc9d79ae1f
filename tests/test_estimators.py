"""Estimator laws: analytic anchors, reproducibility, bounds, couplings."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import stirtree.bars as bars_mod
import stirtree.estimators as estimators
from stirtree.estimators import (
    Estimate,
    bar_cluster_reaches_boundary,
    cluster_size_bound,
    critical_scan,
    critical_window,
    depth_profiles,
    estimate_pn,
    generation_survival,
    gw_extinction,
    bare_root_gain_check,
    russo_check,
    tail_checks,
    z_bracket,
    z_estimate,
)
from stirtree.bars import Bar, BarCollection, LazyPoissonBars, sample_added
from stirtree.meander import hit_level
from stirtree.rng import TrialStreams, stream_key
from stirtree.tree import TreeShape, edge_from_index


def _multinomial_collection(shape, t, gen):
    """Independent law reference for the package's sampler: a Poisson(t|E|)
    total count placed uniformly on the edges, uniform heights."""
    total = int(gen.poisson(t * shape.edge_count))
    idx = gen.integers(0, shape.edge_count, size=total)
    idx, counts = np.unique(idx, return_counts=True)
    return BarCollection(
        shape,
        {
            edge_from_index(shape, int(i)): tuple(np.sort(gen.random(k)).tolist())
            for i, k in zip(idx, counts)
        },
    )


def test_pn_zero_intensity_exact():
    est = estimate_pn(TreeShape(3, 2), 0.0, 1000, 5)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_pn_level_one_analytic():
    # reaching depth one needs a bar on some root edge: p_1 = 1 - e^{-dt}
    for d, t in [(2, 0.3), (3, 0.4)]:
        est = estimate_pn(TreeShape(d, 1), t, 30_000, 13)
        expected = 1 - math.exp(-d * t)
        assert abs(est.mean - expected) < 4 * est.stderr


def test_pn_nonincreasing_in_depth():
    t = 0.5
    ests = [estimate_pn(TreeShape(2, n), t, 40_000, 17) for n in (2, 3, 4)]
    for a, b in zip(ests, ests[1:]):
        slack = 3 * math.hypot(a.stderr, b.stderr)
        assert b.mean <= a.mean + slack


def test_pn_reproducible_and_worker_invariant():
    shape = TreeShape(2, 3)
    a = estimate_pn(shape, 0.5, 9000, 23)
    b = estimate_pn(shape, 0.5, 9000, 23)
    assert a == b
    c = estimate_pn(shape, 0.5, 9000, 23, workers=2)
    assert a == c


def test_pn_lazy_path_matches_materialized_law():
    # the lazy per-trial source against the independent multinomial sampler
    shape = TreeShape(3, 3)
    t = 0.4
    trials = 20_000
    lazy = estimate_pn(shape, t, trials, 31)
    gen = TrialStreams(29, "materialized-pn").at(0)
    hits = sum(
        hit_level(_multinomial_collection(shape, t, gen)).reached
        for _ in range(trials)
    )
    dense = hits / trials
    se = math.hypot(lazy.stderr, math.sqrt(dense * (1 - dense) / trials))
    assert abs(dense - lazy.mean) < 4 * se


S22 = TreeShape(2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: estimate_pn(S22, 0.5, 0, 1),
        lambda: estimate_pn(S22, 0.0, 0, 1),
        lambda: critical_scan([S22], [0.5], 0, 1),
        lambda: russo_check(S22, 0.5, 0.05, 0, 1),
        lambda: z_estimate(S22, 0.5, 0, 1),
        lambda: tail_checks(TreeShape(16, 2), 1 / 16, 0, 1, level_trials=0),
        lambda: tail_checks(S22, 0.5, 0, 1),  # cluster part skipped
        lambda: bare_root_gain_check(S22, 0.5, 0, 1),
    ],
    ids=[
        "pn", "pn-rate-0", "scan", "russo", "z", "tails", "tails-no-cluster",
        "bare-root-gain",
    ],
)
def test_trials_below_one_rejected(call):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        call()


def test_russo_small_scale():
    rc = russo_check(TreeShape(2, 2), 0.5, 0.05, 120_000, 37)
    assert abs(rc.zscore) < 4.0
    assert rc.lhs.stderr > 0 and rc.rhs.stderr > 0
    assert rc.p_on > rc.p_off > 0


def test_russo_worker_invariant(monkeypatch):
    a = russo_check(S22, 0.5, 0.05, 2000, 11)
    # small chunks so that two workers really split the trials
    monkeypatch.setattr(estimators, "_CHUNK", 500)
    b = russo_check(S22, 0.5, 0.05, 2000, 11, workers=2)
    assert a == b


def test_russo_coupled_rhs_matches_independent_difference():
    h = 0.05
    rc = russo_check(S22, 0.5, h, 40_000, 19)
    plus = estimate_pn(S22, 0.5 + h, 40_000, 20)
    minus = estimate_pn(S22, 0.5 - h, 40_000, 21)
    ref = (plus.mean - minus.mean) / (2 * h)
    ref_se = math.hypot(plus.stderr, minus.stderr) / (2 * h)
    assert abs(rc.rhs.mean - ref) <= 4 * math.hypot(rc.rhs.stderr, ref_se)
    # the coupled second difference is second order in h (about h^2 p''); a
    # middle collection at the wrong rate would make it first order, ~2h p'
    assert rc.bias_allowance < h * abs(rc.rhs.mean)


def test_russo_added_bar_redrawn_only_on_rate_t_collision(scripted_stream):
    # the added bar's first height 0.5 ties the one bar on its edge at the
    # top rate 0.6; Russo draws it off the rate-0.3 view, so it keeps that
    # height when the bar is thinned out (mark above 0.3 / 0.6) and is
    # redrawn when the bar is kept
    for mark, height in [(0.9, 0.5), (0.1, 0.25)]:
        # edge 0, height 0.5, the root's child counts, the bar's height and
        # mark, then a redrawn height
        gen = scripted_stream(0, 0.5, [1, 0], 0.5, mark, 0.25)
        top = LazyPoissonBars(S22, 0.6, gen)
        assert sample_added(top.thinned(0.3), gen) == Bar(b"\x00", height)


def test_russo_rejects_bad_step():
    with pytest.raises(ValueError):
        russo_check(TreeShape(2, 2), 0.5, 0.5, 100, 1)


def test_russo_runs_outside_dilute_regime():
    # far above the window the sign of the difference is unconstrained;
    # the check still runs and reports values
    rc = russo_check(TreeShape(4, 2), 1.25, 0.05, 2000, 3)
    assert math.isfinite(rc.lhs.mean) and math.isfinite(rc.rhs.mean)
    assert math.isfinite(rc.zscore)


def test_bare_root_gain_channel():
    gain, ref, z = bare_root_gain_check(TreeShape(2, 3), 0.45, 20_000, 41)
    assert abs(z) < 4.0
    assert 0 < gain.mean < 1


@pytest.mark.parametrize("seed, z", [(2, math.inf), (7, -math.inf), (0, 0.0)])
def test_bare_root_gain_z_with_zero_stderr(seed, z):
    # one trial has no spread: a gap between the rates is infinitely many
    # standard errors, and no gap is none
    assert bare_root_gain_check(TreeShape(2, 3), 0.45, 1, seed)[2] == z


def test_z_zero_intensity_exact():
    est = z_estimate(TreeShape(3, 2), 0.0, 500, 43)
    assert est.mean == 3.0 and est.stderr == 0.0


def test_z_bracket_small():
    est = z_estimate(TreeShape(16, 3), 1 / 16, 4000, 47)
    lo, hi = z_bracket(16, 1.0)
    assert lo - 4 * est.stderr <= est.mean <= hi + 4 * est.stderr


def test_z_reproducible():
    assert z_estimate(TreeShape(16, 3), 1 / 16, 600, 53) == z_estimate(
        TreeShape(16, 3), 1 / 16, 600, 53
    )


def test_z_and_tails_worker_invariant():
    shape = TreeShape(16, 3)
    assert z_estimate(shape, 1 / 16, 5000, 57) == z_estimate(
        shape, 1 / 16, 5000, 57, workers=2
    )
    # two chunks of level trials: the level rows come through the pool too
    a = tail_checks(shape, 1 / 16, 9000, 58, level_trials=5000)
    b = tail_checks(shape, 1 / 16, 9000, 58, workers=2, level_trials=5000)
    assert a.cluster_rows == b.cluster_rows
    assert len(a.level_rows) == 3 and a.level_rows == b.level_rows


def test_tail_checks_bounds_and_skip_notice():
    rep = tail_checks(TreeShape(16, 4), 1 / 16, 100_000, 59, level_trials=3000)
    assert rep.notes == ()
    assert all(r.ok for r in rep.cluster_rows)
    assert all(r.ok for r in rep.level_rows)
    # tau too large for the cluster bound: skipped with a notice
    rep2 = tail_checks(TreeShape(4, 2), 1.25, 100, 61, level_trials=100)
    assert rep2.notes == (  # the cluster notice first, then the level pairs
        "cluster tail skipped: d=4 < 11*tau^2=275",
        "level pair (2,2) skipped: n-i < 1",
    )
    assert rep2.cluster_rows == ()


def test_tails_zero_rate_all_empty():
    rep = tail_checks(TreeShape(4, 2), 0.0, 2000, 3, level_trials=0)
    assert all(r.empirical == 0.0 for r in rep.cluster_rows)


def test_pn_decays_with_depth_below_percolation_threshold():
    # t below -log(1 - 1/d): the bar percolation is subcritical and the
    # hit probability falls visibly with depth
    d, t = 8, 0.10
    assert t < -math.log(1 - 1 / d)
    shallow = estimate_pn(TreeShape(d, 2), t, 20_000, 61)
    deep = estimate_pn(TreeShape(d, 4), t, 20_000, 61)
    assert deep.mean < shallow.mean - 3 * math.hypot(shallow.stderr, deep.stderr)


def test_cluster_bound_value():
    # 1.1 e^{-1} (e/16) at the first threshold
    assert abs(cluster_size_bound(16, 1.0, 1) - 1.1 * math.exp(-1) * math.e / 16) < 1e-15


def test_cluster_tail_matches_direct_sampling():
    # the batched lazy exploration agrees with full collections at small d
    shape = TreeShape(5, 3)
    t = 0.1
    rep = tail_checks(shape, t, 40_000, 67, level_trials=0)
    gen = TrialStreams(71, "direct-cluster").at(0)
    trials = 40_000
    from stirtree.events import multibar_cluster

    direct = sum(
        multibar_cluster(_multinomial_collection(shape, t, gen)).size >= 1
        for _ in range(trials)
    ) / trials
    row = rep.cluster_rows[0]
    se = math.sqrt(direct * (1 - direct) / trials + row.stderr**2)
    assert abs(row.empirical - direct) < 4 * se


def test_gw_extinction_cases():
    # zero rate: no offspring ever, extinction certain
    gw0 = gw_extinction(5, 0.0)
    assert gw0.q_ext == 1.0 and gw0.p_upper == 0.0
    gw = gw_extinction(10, 0.12)
    assert gw.p_upper <= 0.6
    for d in (6, 10, 20):
        g = gw_extinction(d, 1 / d + 2 / d**2)
        assert g.p_upper <= 6 / d + 1e-9


def _bisect_fixed_point(d, t):
    p = 1 - math.exp(-t)
    q = 1 - p

    def g(s):
        return (p * s + q) ** d - s

    prev_s, prev_v = 0.0, g(0.0)
    for k in range(1, 100_001):
        s = k / 100_000
        v = g(s)
        if prev_v > 0 and v <= 0:
            lo, hi = prev_s, s
            break
        prev_s, prev_v = s, v
    else:
        return 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_gw_fixed_point_against_bisection():
    for d, t in [(6, 1 / 6 + 2 / 36), (10, 0.12), (20, 0.055), (3, 0.9)]:
        assert abs(gw_extinction(d, t).q_ext - _bisect_fixed_point(d, t)) < 1e-9


def test_generation_survival_dominates_infinite_bound():
    for d, t in [(6, 0.2222), (10, 0.12), (20, 0.055)]:
        assert generation_survival(d, t, 8) >= gw_extinction(d, t).p_upper - 1e-12


def test_pn_below_generation_survival():
    # reaching depth n requires an occupied path: survival to generation n
    d, n, t = 6, 4, 1 / 6 + 2 / 36
    est = estimate_pn(TreeShape(d, n), t, 20_000, 73)
    assert est.mean <= generation_survival(d, t, n) + 4 * est.stderr


def test_critical_scan_table():
    shapes = [TreeShape(8, 2)]
    grid = [0.10, 0.12, 0.14, 0.16]
    table = critical_scan(shapes, grid, 3000, 79)
    assert [r[2] for r in table.rows] == grid
    lo, hi = critical_window(8)
    assert lo == 0.1328125 and hi == 0.15625
    assert all(r[5] == lo and r[6] == hi for r in table.rows)
    # hit probability grows with the rate on this grid (3 sigma per pair)
    for a, b in zip(table.rows, table.rows[1:]):
        assert b[3] >= a[3] - 3 * math.hypot(a[4], b[4])


def test_critical_scan_zero_rows():
    table = critical_scan([TreeShape(2, 2)], [0.0, 0.1], 500, 83)
    assert table.rows[0][3] == 0.0


def test_scan_rows_are_shallow_runs_on_the_deepest_stream():
    # each row's hits, recounted with one run per trial on T_n itself, drawn
    # from the stream of the deepest depth: the lazy draw order makes that
    # run the prefix of the run on the deepest tree
    d, t, trials, seed = 3, 0.4, 400, 41
    table = critical_scan([TreeShape(d, n) for n in (5, 2, 4)], [t], trials, seed)
    streams = TrialStreams(seed, "pn", d, 5, t)
    assert [r[1] for r in table.rows] == [2, 4, 5]
    for _d, n, _t, p_hat, *_bracket in table.rows:
        shape = TreeShape(d, n)
        hits = sum(
            hit_level(LazyPoissonBars(shape, t, streams.at(i))).reached
            for i in range(trials)
        )
        assert p_hat == hits / trials
    assert table.rows[-1][3] == estimate_pn(TreeShape(d, 5), t, trials, seed).mean


def test_scan_shallow_row_golden():
    # seed -> value pin; the n=6 row is test_golden_values' estimate_pn pin
    table = critical_scan([TreeShape(8, 6), TreeShape(8, 4)], [0.145], 1500, 3)
    assert [row[3] for row in table.rows] == [533 / 1500, 417 / 1500]


COUPLED_SHAPES = [TreeShape(3, 4), TreeShape(3, 2)]
COUPLED_GRID = [0.3, 0.2, 0.4]  # out of order: rows follow it, t_max is 0.4


def test_coupled_scan_worker_and_chunk_invariant(monkeypatch):
    table = critical_scan(COUPLED_SHAPES, COUPLED_GRID, 1500, 47)
    monkeypatch.setattr(estimators, "_CHUNK", 400)
    assert critical_scan(COUPLED_SHAPES, COUPLED_GRID, 1500, 47, workers=2) == table


def test_coupled_scan_top_rows_are_the_single_rate_runs():
    # the rate-t_max collection runs before any thinning draws its marks
    trials, seed = 1500, 53
    table = critical_scan(COUPLED_SHAPES, COUPLED_GRID, trials, seed)
    top = [r for r in table.rows if r[2] == 0.4]
    assert top == list(critical_scan(COUPLED_SHAPES, [0.4], trials, seed).rows)
    assert top[-1][3] == estimate_pn(TreeShape(3, 4), 0.4, trials, seed).mean


def test_coupled_scan_lower_rows_have_the_independent_law():
    # a thinning that keeps the wrong share of bars, or none at all, moves
    # these rows by many standard errors
    trials = 4000
    table = critical_scan(COUPLED_SHAPES, COUPLED_GRID, trials, 59)
    lower = [r for r in table.rows if r[2] < 0.4]
    assert len(lower) == 4
    for d, n, t, p_hat, se, *_bracket in lower:
        ref = estimate_pn(TreeShape(d, n), t, trials, 61)
        assert abs(p_hat - ref.mean) <= 4 * math.hypot(se, ref.stderr)


def test_coupled_scan_rejects_bad_rates():
    with pytest.raises(ValueError, match="finite and >= 0"):
        critical_scan([S22], [-0.1, 0.4], 10, 1)


def test_depth_profile_worker_invariant():
    shape = TreeShape(3, 4)
    profiles = depth_profiles(shape, (0.3, 0.4), 9000, 43)
    assert [len(p) for p in profiles] == [shape.n + 1] * 2
    assert [sum(p) for p in profiles] == [9000] * 2
    assert depth_profiles(shape, (0.3, 0.4), 9000, 43, workers=2) == profiles


# Shapes and rates where thinned runs are sometimes skipped and sometimes
# made: a rate scale c puts t_max = c / d around each d's critical window.
SKIP_SHAPES = st.sampled_from([TreeShape(2, 2), TreeShape(3, 4), TreeShape(8, 6)])
RATE_SCALES = st.floats(0.6, 2.5)


@settings(max_examples=120, deadline=None)
@given(
    shape=SKIP_SHAPES,
    scale=RATE_SCALES,
    shares=st.lists(st.floats(0.05, 0.99), min_size=2, max_size=4, unique=True),
    seed=st.integers(0, 2**32),
)
def test_skipped_thinned_runs_are_the_runs_they_stand_for(shape, scale, shares, seed):
    # each trial's levels and the stream position it leaves equal those of
    # running the engine on every thinning, from the top rate down
    t_max = scale / shape.d
    ts = sorted({t_max * f for f in shares} | {t_max}, reverse=True)
    assume(len(ts) >= 3)  # shares 1 ulp apart can round to one rate
    gen = TrialStreams(seed, "skip").at(0)
    bars = LazyPoissonBars(shape, t_max, gen)
    runs = estimators._thinning_runs(bars, map(bars.thinned, ts))
    levels = [traj.deepest for traj, _poles in runs]
    ref_gen = TrialStreams(seed, "skip").at(0)
    ref = LazyPoissonBars(shape, t_max, ref_gen)
    assert levels == [hit_level(ref.thinned(t)).deepest for t in ts]
    assert gen.random() == ref_gen.random()


def _russo_trial_running_every_run(shape, t, h, gen):
    # the added bar is drawn inline, not through sample_added: an edge
    # index, a height, then the edge's heights on B0
    edge = edge_from_index(shape, int(gen.integers(0, shape.edge_count)))
    height = float(gen.random())
    while height == 0.0:
        height = float(gen.random())
    top = LazyPoissonBars(shape, t + h, gen)
    mid = top.thinned(t)
    while height in mid.heights_on(edge):
        height = float(gen.random())
    added = Bar(edge, height)
    plus = hit_level(top).reached
    center = hit_level(mid).reached
    a = hit_level(mid.with_added(added)).reached - center
    minus = hit_level(top.thinned(t - h)).reached
    return plus, center, minus, a


@settings(max_examples=120, deadline=None)
@given(
    shape=SKIP_SHAPES,
    scale=RATE_SCALES,
    step=st.floats(0.02, 0.5),
    seed=st.integers(0, 2**32),
)
def test_skipped_russo_runs_are_the_runs_they_stand_for(shape, scale, step, seed):
    t = scale / shape.d
    h = t * step
    gen = TrialStreams(seed, "skip-russo").at(0)
    got = estimators._russo_trial(shape, t, h, gen)
    ref_gen = TrialStreams(seed, "skip-russo").at(0)
    assert got == _russo_trial_running_every_run(shape, t, h, ref_gen)
    assert gen.random() == ref_gen.random()


def _counting_engine_runs(monkeypatch):
    runs = []

    def counted(bars):
        runs.append(bars)
        return hit_level(bars)

    monkeypatch.setattr(estimators, "hit_level", counted)
    return runs


def test_scan_skips_thinned_runs_on_unchanged_poles(monkeypatch):
    # three rates would take three runs per trial with no skipping
    runs = _counting_engine_runs(monkeypatch)
    depth_profiles(TreeShape(8, 8), (0.13, 0.145, 0.16), 500, 5)
    assert len(runs) < 3 * 500


def test_russo_skips_runs_on_unchanged_poles(monkeypatch):
    # B+, B0, B0 + A and B- would take four runs per trial with no skipping
    runs = _counting_engine_runs(monkeypatch)
    russo_check(TreeShape(2, 2), 0.5, 0.05, 500, 5)
    assert len(runs) < 4 * 500
    # B0 + A runs only where B0's run visited a pole of A
    assert sum(isinstance(b, bars_mod._WithAdded) for b in runs) < 500


def test_russo_builds_the_overlay_only_for_its_run(monkeypatch):
    runs = _counting_engine_runs(monkeypatch)
    with_added = bars_mod._PoleIndexMixin.with_added
    built = []

    def spy(self, bar):
        built.append(bar)
        return with_added(self, bar)

    monkeypatch.setattr(bars_mod._PoleIndexMixin, "with_added", spy)
    russo_check(TreeShape(2, 2), 0.5, 0.05, 500, 5)
    overlay_runs = sum(isinstance(b, bars_mod._WithAdded) for b in runs)
    assert 0 < len(built) == overlay_runs


@pytest.mark.parametrize("grid", [(0.2, 0.0, 0.4), (0.4, 0.2), (0.2, 0.2, 0.4)])
def test_depth_profiles_reject_a_grid_not_strictly_ascending(grid):
    # out of order, t = 0 would read an empty profile, silently
    with pytest.raises(ValueError, match="strictly ascending"):
        depth_profiles(TreeShape(3, 2), grid, 10, 1)


def test_per_trial_hits_sum_to_the_depth_profiles(hit_indicators):
    # one-trial chunks of the scan's batch are the trials of its profiles
    shape, ts = TreeShape(3, 4), (0.2, 0.3, 0.4)
    ind = hit_indicators(shape, ts, 2000, 97)
    profiles = depth_profiles(shape, ts, 2000, 97)
    assert ind.sum(axis=0).tolist() == [p[-1] for p in profiles]


@pytest.mark.parametrize(
    "shapes, grid",
    [([S22, S22], [0.5]), ([S22], [0.5, 0.5]), ([S22, TreeShape(3, 2)], [0.3, 0.3])],
)
def test_critical_scan_rejects_duplicates(shapes, grid):
    with pytest.raises(ValueError, match="duplicate"):
        critical_scan(shapes, grid, 10, 1)


def test_coupled_percolation_monotone_exact(percolation_indicators):
    ind = percolation_indicators(TreeShape(3, 4), [0.2, 0.3, 0.4], 4000, 97)
    diffs = np.diff(ind.astype(np.int8), axis=1)
    assert (diffs >= 0).all()  # bar addition can only grow the bar cluster


def test_coupled_hit_indicator_not_monotone(hit_indicators):
    # the meander hit indicator genuinely drops on some seeds when bars are
    # added: the off-pivotal mechanism at work (this is why the derivative
    # identity is needed at all)
    ind = hit_indicators(TreeShape(3, 4), [0.2, 0.3, 0.4], 4000, 97)
    diffs = np.diff(ind.astype(np.int8), axis=1)
    assert (diffs < 0).any()
    # the rate-wise averages still increase over this range
    means = ind.mean(axis=0)
    assert means[0] < means[1] < means[2]


def test_percolation_reach_helper():
    shape = TreeShape(2, 2)
    from stirtree.bars import Bar

    bars = BarCollection.from_bars(shape, [Bar(b"\x00", 0.5), Bar(b"\x00\x01", 0.4)])
    assert bar_cluster_reaches_boundary(bars)
    assert not bar_cluster_reaches_boundary(
        BarCollection.from_bars(shape, [Bar(b"\x00", 0.5)])
    )


def test_estimate_serialization():
    est = Estimate("x", 0.5, 0.01, 100, 7)
    d = est.to_dict()
    assert d["schema"] == 1 and d["mean"] == 0.5


def test_numpy_scalars_key_as_the_python_numbers_they_equal():
    # numpy 2 writes repr(np.float64(0.145)) as 'np.float64(0.145)'
    assert np.array_equal(
        stream_key(np.int64(3), "pn", np.int64(8), 4, np.float64(0.145)),
        stream_key(3, "pn", 8, 4, 0.145),
    )
    numpy_pn = estimate_pn(TreeShape(np.int64(8), 4), np.float64(0.145), 2000, 3)
    assert numpy_pn.mean == estimate_pn(TreeShape(8, 4), 0.145, 2000, 3).mean
    grid = np.linspace(0.13, 0.16, 3)
    shapes = [TreeShape(8, 3), TreeShape(8, 4)]
    table = critical_scan(shapes, grid, 300, 5)
    assert table == critical_scan(shapes, grid.tolist(), 300, 5)
