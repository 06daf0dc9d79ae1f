"""Property tests over small random trees: the pole index and the engine.

Every pole index (the lazy collection's own one-pass build, the shared build
of materialized collections and thinnings, the one-bar overlay) must agree
with a materialized collection holding the same bars, and the engine must
agree with the transposition oracle.  Runs started exactly on a joint check
the right-continuity rule, and runs that stop at the root origin are the
plain runs cut at their first wrap on the root pole.  The deepest level a
run on T_N lands on decides the hit event on every shallower tree T_n.  The
heights a run touched on an edge are its two endpoint poles' coverage, and
a run's rises are its coverage, its time and its crossings.  Turning a
collection around the time circle and back is exact.
"""

from hypothesis import assume, example, given, settings, strategies as st

from stirtree.bars import Bar, BarCollection, LazyPoissonBars, merge_intervals
from stirtree.events import _crossed, escape_routes
from stirtree.meander import SpaceTimePoint, hit_level, run
from stirtree.rng import TrialStreams
from stirtree.stirring import stirring_permutation, transposition_oracle
from stirtree.tree import ROOT, TreeShape, edge_from_index
from stirtree.verify import turned

shapes = st.builds(TreeShape, st.integers(2, 4), st.integers(1, 4))
rates = st.floats(0.01, 1.5)
seeds = st.integers(0, 2**32)


def _edges(shape):
    return [edge_from_index(shape, i) for i in range(shape.edge_count)]


def _materialized(bars, edges) -> BarCollection:
    """A collection holding every bar of ``bars``; realizes all of them."""
    by_edge = {e: hs for e in edges if (hs := bars.heights_on(e))}
    return BarCollection(bars.shape, by_edge)


def _visited(traj) -> set:
    return {v for v, _h in traj.steps}


def _restricted(bars: BarCollection, n: int) -> BarCollection:
    """The bars on edges of length <= n, as a collection on T_n."""
    by_edge = {e: bars.heights_on(e) for e in bars.edges_with_bars() if len(e) <= n}
    return BarCollection(TreeShape(bars.shape.d, n), by_edge)


@settings(max_examples=80, deadline=None)
@example(shape=TreeShape(2, 4), t=0.9, seed=4)  # deepest level 2 of 4
@example(shape=TreeShape(3, 4), t=0.5, seed=3)  # deepest level 2 of 4
@given(shape=shapes, t=rates, seed=seeds)
def test_deepest_level_decides_every_shallower_hit(shape, t, seed):
    bars = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-profile").at(0)).realize()
    deepest = hit_level(bars).deepest
    assert 0 <= deepest <= shape.n
    for n in range(1, shape.n + 1):
        assert (deepest >= n) == hit_level(_restricted(bars, n)).reached


@settings(max_examples=60, deadline=None)
@given(shape=shapes, t=rates, seed=seeds)
def test_lazy_poles_equal_materialized_poles(shape, t, seed):
    lazy = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-lazy").at(0))
    traj = hit_level(lazy)
    built = {v: lazy.pole(v) for v in _visited(traj)}  # cache hits, no draws
    dense = _materialized(lazy, _edges(shape))
    assert lazy.count == dense.count
    assert built == {v: dense.pole(v) for v in built}
    traj.coverage()  # a filled coverage cache is not part of the value
    assert hit_level(dense) == traj


@settings(max_examples=60, deadline=None)
@example(shape=TreeShape(2, 2), t=1.5, seed=1, pick=0, h=0.5)
@given(
    shape=shapes,
    t=rates,
    seed=seeds,
    pick=st.integers(0, 10**6),
    h=st.floats(0.0, 1.0, exclude_max=True),
)
def test_overlay_poles_equal_rebuilt_poles(shape, t, seed, pick, h):
    lazy = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-overlay").at(0))
    hit_level(lazy)  # some base poles exist before the overlay
    edges = _edges(shape)
    added = Bar(edges[pick % len(edges)], h)
    assume(h not in lazy.heights_on(added.edge))
    over = lazy.with_added(added)
    poles = {v: over.pole(v) for v in [ROOT] + edges}
    dense = _materialized(lazy, edges)
    rebuilt = BarCollection.from_bars(shape, list(dense.iter_bars()) + [added])
    assert poles == {v: rebuilt.pole(v) for v in poles}
    assert over.count == rebuilt.count


@settings(max_examples=60, deadline=None)
@given(shape=shapes, t=rates, seed=seeds, keep=st.floats(0.0, 1.0))
def test_thinned_poles_equal_rebuilt_poles(shape, t, seed, keep):
    lazy = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-thin").at(0))
    thin = lazy.thinned(t * keep)
    traj = hit_level(thin)
    edges = _edges(shape)
    poles = {v: thin.pole(v) for v in [ROOT] + edges}
    rebuilt = _materialized(thin, edges)
    assert poles == {v: rebuilt.pole(v) for v in poles}
    assert hit_level(rebuilt) == traj
    base = _materialized(lazy, edges)
    assert all(set(rebuilt.heights_on(e)) <= set(base.heights_on(e)) for e in edges)


@settings(max_examples=60, deadline=None)
@given(shape=shapes, t=rates, seed=seeds, keep=st.floats(0.0, 1.0))
def test_thinned_pole_is_the_base_pole_filtered_by_marks(shape, t, seed, keep):
    lazy = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-thin-filter").at(0))
    thin = lazy.thinned(t * keep)
    hit_level(thin)
    edges = _edges(shape)
    poles = {v: thin.pole(v) for v in [ROOT] + edges}
    ratio = t * keep / t
    for v, (heights, hops) in poles.items():
        kept = [
            (h, hop)
            for h, hop in zip(*lazy.pole(v))
            if lazy.marks_on(hop[0])[lazy.heights_on(hop[0]).index(h)] <= ratio
        ]
        assert (list(heights), list(hops)) == ([h for h, _ in kept], [x for _, x in kept])


@settings(max_examples=60, deadline=None)
@given(shape=shapes, t=rates, seed=seeds, h0=st.floats(0.0, 1.0, exclude_max=True))
def test_steps_chain_the_states_from_the_start(shape, t, seed, h0):
    bars = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-steps").at(0)).realize()
    for traj in (hit_level(bars), run(bars, SpaceTimePoint(ROOT, h0))):
        keys, values = list(traj.steps), list(traj.steps.values())
        assert keys[0] == traj.start
        assert values[:-1] == keys[1:]  # each successor is the next state left
        assert values[-1] == traj.outcome.point
        # no state is entered twice; the run stops on a new state or the start
        assert len(set(values)) == len(values)
        assert values[-1] not in traj.steps or values[-1] == keys[0]
        crossings = sum(v != w for (v, _), (w, _) in traj.steps.items())
        assert crossings <= 2 * bars.count


@settings(max_examples=60, deadline=None)
@given(shape=shapes, t=rates, seed=seeds)
def test_engine_equals_oracle(shape, t, seed):
    gen = TrialStreams(seed, "prop-oracle").at(0)
    bars = LazyPoissonBars(shape, t, gen).realize()
    assert stirring_permutation(bars) == transposition_oracle(bars)


@settings(max_examples=60, deadline=None)
@example(shape=TreeShape(2, 1), t=1.5, seed=0, pick=0, upper=False)
@given(
    shape=shapes, t=rates, seed=seeds, pick=st.integers(0, 10**6), upper=st.booleans()
)
def test_run_started_on_a_joint(shape, t, seed, pick, upper):
    gen = TrialStreams(seed, "prop-joint").at(0)
    bars = LazyPoissonBars(shape, t, gen).realize()
    joints = list(bars.iter_bars())
    assume(joints)
    edge, h0 = joints[pick % len(joints)]
    v0 = edge[:-1] if upper else edge
    other = edge if upper else edge[:-1]  # the joint's far endpoint
    traj = run(bars, SpaceTimePoint(v0, h0))
    # right-continuity: the start's own joint is not crossed at time zero;
    # the run comes back to it through that same joint, after whole laps
    assert next(iter(traj.steps.values())) != (other, h0)
    assert traj.outcome.kind == "returned"
    assert traj.outcome.time == float(traj.wraps)
    (last_v, _), last_w = list(traj.steps.items())[-1]
    assert (last_v, last_w) == (other, (v0, h0))
    covered = sum(b - a for ivs in traj.coverage().values() for a, b in ivs)
    assert abs(covered - traj.outcome.time) < 1e-9


@settings(max_examples=80, deadline=None)
@example(shape=TreeShape(2, 2), t=1.5, seed=1, pick=0, h0=0.0, deep=False)
@example(shape=TreeShape(2, 2), t=1.5, seed=1, pick=0, h0=0.0, deep=True)
@example(shape=TreeShape(2, 2), t=0.5, seed=3, pick=0, h0=0.5, deep=True)
@given(
    shape=shapes,
    t=rates,
    seed=seeds,
    pick=st.integers(0, 10**6),
    h0=st.floats(0.0, 1.0, exclude_max=True),
    deep=st.booleans(),
)
def test_origin_stop_cuts_the_run_at_its_first_root_wrap(shape, t, seed, pick, h0, deep):
    bars = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-origin").at(0)).realize()
    # a start below depth n: the root, or the parent endpoint of some edge
    starts = [ROOT] + [e[:-1] for e in _edges(shape)]
    start = SpaceTimePoint(starts[pick % len(starts)], h0)
    level = shape.n if deep else None
    plain = run(bars, start, level=level)
    stop = run(bars, start, level=level, origin=True)
    plain_steps = list(plain.steps.items())
    # bar heights are > 0, so only a wrap on the root pole moves to (ROOT, 0)
    root_wraps = [k for k, (_, succ) in enumerate(plain_steps) if succ == (ROOT, 0.0)]
    if start == (ROOT, 0.0):
        # return-to-start is tested first: the origin is the start itself
        assert stop == plain and stop.outcome.kind != "hit_point"
        if level is None:
            assert stop.outcome.kind == "returned"
    elif root_wraps:
        first = root_wraps[0] + 1
        assert stop.outcome.kind == "hit_point"
        assert stop.outcome.point == (ROOT, 0.0)
        assert list(stop.steps.items()) == plain_steps[:first]
        assert stop.outcome.time == stop.wraps - h0
    else:
        assert stop == plain


@settings(max_examples=60, deadline=None)
@given(shape=shapes, t=rates, seed=seeds, h=st.floats(0.0, 1.0, exclude_max=True))
def test_touched_heights_are_the_two_endpoint_poles_coverage(shape, t, seed, h):
    bars = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-touched").at(0)).realize()
    traj = hit_level(bars)
    cov = traj.coverage()
    for e in _edges(shape):
        up, down = cov.get(e[:-1], ()), cov.get(e, ())
        assert traj.touched(e) == merge_intervals(list(up) + list(down))
        # the interval ends test the half-open rule; h is a point anywhere
        for x in [h, *(end for iv in up + down for end in iv)]:
            inside = any(a <= x < b for a, b in up + down)
            assert _crossed(traj, Bar(e, x)) == inside


@settings(max_examples=60, deadline=None)
@given(shape=shapes, t=rates, seed=seeds, pick=st.integers(0, 10**6))
def test_rises_make_the_coverage_the_time_and_the_crossings(shape, t, seed, pick):
    bars = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-rises").at(0)).realize()
    # the root origin, or a bar joint above depth n, where return_time starts
    joints = [
        SpaceTimePoint(v, b.height)
        for b in bars.iter_bars()
        for v in (b.edge[:-1], b.edge)
        if len(v) < shape.n
    ]
    starts = [SpaceTimePoint(ROOT, 0.0), *joints]
    traj = run(bars, starts[pick % len(starts)], level=shape.n)
    rises = list(traj.rises())
    # one rise per state, each of positive length: the engine keeps no empty one
    assert len(rises) == len(traj.steps)
    assert all(0.0 <= lo < hi <= 1.0 for _v, lo, hi, _w in rises)
    per_pole: dict = {}
    for v, lo, hi, _w in rises:
        per_pole.setdefault(v, []).append((lo, hi))
    assert {v: merge_intervals(ivs) for v, ivs in per_pole.items()} == traj.coverage()
    assert abs(sum(hi - lo for _v, lo, hi, _w in rises) - traj.outcome.time) < 1e-9
    crossings = sum(w != v for v, _lo, _hi, w in rises)
    assert len(list(escape_routes(bars, traj))) == crossings


@settings(max_examples=60, deadline=None)
@example(shape=TreeShape(2, 4), t=0.5, seed=12, k=2**51)  # h = 1/4, as verify turns
@given(shape=shapes, t=rates, seed=seeds, k=st.integers(1, 2**53 - 1))
def test_turning_by_h_then_by_one_minus_h_gives_back_the_collection(
    shape, t, seed, k
):
    # the sampler's heights and h are multiples of 2**-53: both turns are exact
    h = k / 2**53
    bars = LazyPoissonBars(shape, t, TrialStreams(seed, "prop-turn").at(0)).realize()
    once = turned(bars, h)
    counts = {e: bars.count_on(e) for e in bars.edges_with_bars()}
    assert {e: once.count_on(e) for e in once.edges_with_bars()} == counts
    assert all(0.0 < b.height < 1.0 for b in once.iter_bars())
    assert turned(once, 1.0 - h) == bars
