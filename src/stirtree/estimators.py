"""Monte Carlo estimators: boundary-hit probability, the derivative identity,
viable-location mass, cluster and level-visit tails, and the branching bound.

Every estimator is a pure function of its parameters and a seed.  Each
trial draws its bars lazily (:class:`LazyPoissonBars`) from its own counter
block of one Philox key per (seed, purpose, shape, t), so results are
bit-identical for any worker count; failing checks can always be replayed
from (seed, trial).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from stirtree.bars import BarCollection, LazyPoissonBars, check_rate, sample_added
from stirtree.events import multibar_cluster, viable_locations
from stirtree.meander import EngineError, hit_level
from stirtree.rng import TrialStreams
from stirtree.tree import ROOT, TreeShape, child_edges


@dataclass(frozen=True)
class Estimate:
    label: str
    mean: float
    stderr: float
    trials: int
    seed: int

    def to_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}


def _bernoulli(label: str, successes: int, trials: int, seed: int) -> Estimate:
    p = successes / trials
    return Estimate(label, p, math.sqrt(p * (1.0 - p) / trials), trials, seed)


def _mean_se(s: float, s2: float, trials: int) -> tuple[float, float]:
    """Mean and standard error from the sum and the sum of squares."""
    mean = s / trials
    return mean, math.sqrt(max(s2 / trials - mean * mean, 0.0) / trials)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")


# Trials are split into chunks of this size for the process pool; the values
# drawn never depend on the chunking.
_CHUNK = 4096


def _map_batches(
    fn, shape: TreeShape, t: float, seed: int, trials: int, workers: int
) -> list:
    """``fn((shape, t, seed, lo, hi))`` over fixed chunks of ``range(trials)``.

    The jobs are made as they are run, and the pool is fed a window of a few
    jobs per worker at a time, so a huge ``trials`` starts work at once.  One
    worker (the default), or one job, runs in process: the process pool and
    the modules behind it are imported only when a pool is built.  The pool
    spawns its workers, since forking a process that runs more than one
    thread (numpy's BLAS starts one) can deadlock the child.
    """
    _check_trials(trials)
    starts = range(0, trials, _CHUNK)
    jobs = ((shape, t, seed, lo, min(lo + _CHUNK, trials)) for lo in starts)
    workers = min(workers, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(fn, jobs))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    parts = []
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        while window := list(itertools.islice(jobs, 4 * workers)):
            parts += pool.map(fn, window)
    return parts


# --- boundary-hit probability ------------------------------------------------


def _thinning_runs(bars: LazyPoissonBars, views):
    """Per view, the root-origin run on it and the poles that run visited.

    ``views`` are ``bars`` itself, then thinnings of it in descending rate.
    The run on ``bars`` is made first.  A thinning is run only where it
    differs from the last run's view on a pole that run visited
    (:meth:`LazyPoissonBars.thinnings_differ`); elsewhere it is that same
    run, which is yielded again.  Each run is made only when its view is
    asked for, so a caller may draw between two views, and the stream ends
    where running every view would leave it.
    """
    traj = None
    for view in views:
        if traj is None or bars.thinnings_differ(poles, view.t, t_ref):
            traj = hit_level(view)
            poles = view.built_poles()
        t_ref = view.t
        yield traj, poles


def _pn_batch(job) -> list[list[int]]:
    """Per t of the ascending grid, the deepest-level histogram of trials
    lo..hi-1.  Each trial draws one collection at the top rate t_max, on
    the stream of a single-t run at t_max, and reads every t > 0 off its
    thinnings (:func:`_thinning_runs`)."""
    shape, ts, seed, lo, hi = job
    hists = [[0] * (shape.n + 1) for _ in ts]
    if ts[0] == 0.0:  # no bars: every run wraps once at the root and returns
        hists[0][0] = hi - lo
    runs = [(hist, t) for hist, t in zip(hists, ts) if t > 0.0][::-1]
    if runs:
        down = [t for _, t in runs]
        streams = TrialStreams(seed, "pn", shape.d, shape.n, down[0])
        for i in range(lo, hi):
            bars = LazyPoissonBars(shape, down[0], streams.at(i))
            views = map(bars.thinned, down)
            for (hist, _), (traj, _) in zip(runs, _thinning_runs(bars, views)):
                hist[traj.deepest] += 1
    return hists


def depth_profiles(
    shape: TreeShape, t_grid: Sequence[float], trials: int, seed: int, workers: int = 1
) -> list[list[int]]:
    """Per t of a strictly ascending grid, the trials whose root-origin run
    on T_n lands at deepest level k, k = 0..n.

    Until a run first lands on level m < n it visits only poles above m,
    whose edges and draw order are the same on T_m as on T_n; so
    ``_reached(profile, m)`` is the depth-m hit count, on depth n's stream.
    All t share one rate-t_max draw per trial (common random numbers), so
    the profiles are correlated across t, and differences between them
    have far less variance than independent profiles would give.  Each
    one still has the exact law of a one-point grid at its t, and the
    t_max profile is bit-identical to it.  A lower t is run only where its
    thinning differs on a pole that the run one rate up visited; the
    profiles are those of running every t, to the bit.
    """
    ts = tuple(t_grid)
    for t in ts:  # a negative t below t_max would thin to no bars, silently
        check_rate(t)
    if any(a >= b for a, b in zip(ts, ts[1:])):  # _pn_batch reads t_max as ts[-1]
        raise ValueError("t grid must be strictly ascending")
    parts = _map_batches(_pn_batch, shape, ts, seed, trials, workers)
    return [[sum(level) for level in zip(*hists)] for hists in zip(*parts)]


def _reached(profile: list[int], n: int) -> int:
    """Trials of a depth profile that reached depth n: deepest level >= n."""
    return sum(profile[n:])


def estimate_pn(
    shape: TreeShape, t: float, trials: int, seed: int, workers: int = 1
) -> Estimate:
    """Probability that the meander from the root origin reaches depth n."""
    hits = _reached(depth_profiles(shape, (t,), trials, seed, workers)[0], shape.n)
    return _bernoulli(f"pn(d={shape.d},n={shape.n},t={t or 0})", hits, trials, seed)


# --- derivative identity ------------------------------------------------------


@dataclass(frozen=True)
class RussoCheck:
    lhs: Estimate  # |E(T_n)| * (P(on-pivotal) - P(off-pivotal))
    rhs: Estimate  # central finite difference of the hit probability
    zscore: float
    bias_allowance: float
    p_on: float
    p_off: float


def _russo_trial(shape: TreeShape, t: float, fd_step: float, gen) -> tuple[int, ...]:
    """One paired trial of :func:`russo_check`: the depth-n hit indicators
    (plus, center, minus) of B+, B0 and B-, and a = I(B0 + A) - I(B0).

    B+, B0 and B- come off the scan's thinning ladder
    (:func:`_thinning_runs`), so each is run only where it differs from
    the rate above it on the poles that rate's run visited.  B0 + A runs
    between B0 and B-, and only when B0's run visited an endpoint pole of
    A: otherwise it is B0's run, and a = 0.
    """
    top = LazyPoissonBars(shape, t + fd_step, gen)
    mid = top.thinned(t)
    added = sample_added(mid, gen)
    runs = _thinning_runs(top, (top, mid, top.thinned(t - fd_step)))
    plus = next(runs)[0].reached
    traj, poles = next(runs)
    center = traj.reached
    a = 0
    if added.edge in poles or added.edge[:-1] in poles:
        a = hit_level(mid.with_added(added)).reached - center
    minus = next(runs)[0].reached
    return plus, center, minus, a


def _russo_batch(fd_step: float, job) -> tuple[int, ...]:
    """Paired trials lo..hi-1; the integer tallies of :func:`russo_check`:
    (on, off, sum b, sum b^2, sum a*b, sum of I(B+) - 2 I(B0) + I(B-))."""
    shape, t, seed, lo, hi = job
    streams = TrialStreams(seed, "russo", shape.d, shape.n, t)
    on = off = sb = sbb = sab = second = 0
    for i in range(lo, hi):
        plus, center, minus, a = _russo_trial(shape, t, fd_step, streams.at(i))
        b = plus - minus
        on += a == 1
        off += a == -1
        sb += b
        sbb += b * b
        sab += a * b
        second += plus - 2 * center + minus
    return on, off, sb, sbb, sab, second


def russo_check(
    shape: TreeShape,
    t: float,
    fd_step: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> RussoCheck:
    """Compare the pivotal-difference form of dp_n/dt with a finite difference.

    Both sides share each trial's draw: the added bar A and one rate-(t+h)
    collection B+, thinned to B0 at rate t and to B- at t-h.  With I the
    depth-n hit indicator, a = I(B0 + A) - I(B0) and b = I(B+) - I(B-), the
    paired X = |E| a - b / (2h) has mean lhs - rhs and se(X) holds the
    covariance of the two sides exactly.  The bias allowance is the
    three-point rule, |mean of I(B+) - 2 I(B0) + I(B-)| (an estimate of
    h^2 p''), charged in quadrature with se(X).  A run whose poles are
    those of a run already made is not made again (:func:`_russo_trial`);
    the tallies are those of making all four runs per trial, to the bit.
    """
    if not 0.0 < fd_step < t:
        raise ValueError("fd_step must lie in (0, t)")
    batch = functools.partial(_russo_batch, fd_step)
    parts = _map_batches(batch, shape, t, seed, trials, workers)
    on, off, sb, sbb, sab, second = map(sum, zip(*parts))
    ecount = shape.edge_count
    scale = 2.0 * fd_step
    ma, se_a = _mean_se(on - off, on + off, trials)
    mb, se_b = _mean_se(sb, sbb, trials)
    mx, se_x = _mean_se(
        ecount * (on - off) - sb / scale,
        ecount**2 * (on + off) + sbb / scale**2 - 2.0 * ecount * sab / scale,
        trials,
    )
    lhs = Estimate(f"russo-lhs(t={t})", ecount * ma, ecount * se_a, trials, seed)
    rhs_label = f"russo-rhs(t={t},h={fd_step})"
    rhs = Estimate(rhs_label, mb / scale, se_b / scale, trials, seed)
    bias = abs(second) / trials
    denom = math.hypot(se_x, bias)
    z = mx / denom if denom > 0 else 0.0
    return RussoCheck(lhs, rhs, z, bias, on / trials, off / trials)


# --- viable-location mass -----------------------------------------------------


def _z_batch(job) -> tuple[float, float]:
    shape, t, seed, lo, hi = job
    streams = TrialStreams(seed, "z", shape.d, shape.n, t)
    s = s2 = 0.0
    for i in range(lo, hi):
        bars = LazyPoissonBars(shape, t, streams.at(i))
        # the run draws before the cluster: a seed's values depend on that order
        traj = hit_level(bars)
        m = viable_locations(bars, traj, multibar_cluster(bars)).measure()
        s += m
        s2 += m * m
    return s, s2


def z_estimate(
    shape: TreeShape, t: float, trials: int, seed: int, workers: int = 1
) -> Estimate:
    """Mean Lebesgue mass of the viable-location set under Poisson-t bars."""
    parts = _map_batches(_z_batch, shape, t, seed, trials, workers)
    mean, se = _mean_se(*map(sum, zip(*parts)), trials)
    return Estimate(f"z(d={shape.d},n={shape.n},t={t})", mean, se, trials, seed)


def z_bracket(d: int, tau: float) -> tuple[float, float]:
    """Analytic bracket for the viable-location mass, valid for d >= 15 tau^2."""
    return d * math.exp(-tau), 1.2 * d


_SLACK_SE = 4  # sampling slack, in standard errors, of the z verdict and tail flags


def within_z_bracket(est: Estimate, lo: float, hi: float) -> bool:
    """The z verdict: the mean lies in [lo, hi] widened by the slack."""
    return lo - _SLACK_SE * est.stderr <= est.mean <= hi + _SLACK_SE * est.stderr


# --- tail checks ----------------------------------------------------------------


@dataclass(frozen=True)
class TailRow:
    label: str
    threshold: int
    empirical: float
    stderr: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class TailReport:
    cluster_rows: tuple
    level_rows: tuple
    notes: tuple  # why rows are missing: the cluster notice first, then level pairs


_CLUSTER_SIZES = (1, 2, 3, 4)  # thresholds of the cluster tail rows


def cluster_size_bound(d: int, tau: float, ell: int) -> float:
    """Tail bound for the root cluster size, valid for d >= 11 tau^2."""
    return 1.1 * math.exp(-1.0) * (math.e * tau * tau / d) ** ell


def _cluster_tail_batch(job) -> list[int]:
    """Trials lo..hi-1 with root cluster size >= 1, 2, 3, 4; root layer
    first, deeper lazily."""
    shape, t, seed, lo, hi = job
    streams = TrialStreams(seed, "tails-deep", shape.d, shape.n, t)
    at_least = [0] * len(_CLUSTER_SIZES)
    for i in range(lo, hi):
        gen = streams.at(i)
        counts = gen.poisson(t, size=shape.d).tolist()
        if max(counts) >= 2:
            bars = LazyPoissonBars(shape, t, gen)
            bars.prefill_root(counts)
            size = multibar_cluster(bars).size
            for k, ell in enumerate(_CLUSTER_SIZES):
                at_least[k] += size >= ell
    return at_least


_LEVEL_PAIRS = ((1, 2), (1, 3), (2, 2))  # (level i, visits k) of the level tail rows


def _level_tail_batch(job) -> list[int]:
    """Trials lo..hi-1 whose root-origin run visits at least k level-i
    poles, per (i, k) of ``_LEVEL_PAIRS``."""
    shape, t, seed, lo, hi = job
    streams = TrialStreams(seed, "tails-level", shape.d, shape.n, t)
    at_least = [0] * len(_LEVEL_PAIRS)
    for j in range(lo, hi):
        bars = LazyPoissonBars(shape, t, streams.at(j))
        visits = Counter(map(len, hit_level(bars).coverage()))
        for m, (i, k) in enumerate(_LEVEL_PAIRS):
            at_least[m] += visits[i] >= k
    return at_least


def tail_checks(
    shape: TreeShape,
    t: float,
    trials: int,
    seed: int,
    workers: int = 1,
    level_trials: Optional[int] = None,
) -> TailReport:
    """Empirical cluster-size and level-visit tails against their bounds.

    The cluster part needs d >= 11 tau^2 and is otherwise skipped with a
    notice.  The level-visit part plugs independently seeded estimates of
    the deeper hit probabilities, read from one depth profile, into the
    bound and widens the flag by the propagated plug-in error.
    """
    _check_trials(trials)
    check_rate(t)  # NaN would slip past the d < 11 tau^2 test below
    d = shape.d
    tau = t * d
    notes = []

    cluster_rows: list[TailRow] = []
    if d < 11 * tau * tau:
        notes.append(f"cluster tail skipped: d={d} < 11*tau^2={11 * tau * tau:.3g}")
    else:
        parts = _map_batches(_cluster_tail_batch, shape, t, seed, trials, workers)
        for ell, count in zip(_CLUSTER_SIZES, map(sum, zip(*parts))):
            label = f"P(cluster>= {ell})"
            emp = _bernoulli(label, count, trials, seed)
            bound = cluster_size_bound(d, tau, ell)
            ok = emp.mean <= bound + _SLACK_SE * emp.stderr
            cluster_rows.append(TailRow(label, ell, emp.mean, emp.stderr, bound, ok))

    level_rows: list[TailRow] = []
    lv_trials = level_trials if level_trials is not None else min(trials, 20_000)
    if lv_trials > 0:
        parts = _map_batches(_level_tail_batch, shape, t, seed, lv_trials, workers)
        if shape.n > 1:  # one profile on T_{n-1} holds each depth-(n-i) plug-in
            shallow = TreeShape(d, shape.n - 1)
            profile = depth_profiles(shallow, (t,), lv_trials, seed + 101, workers)[0]
        for (i, k), count in zip(_LEVEL_PAIRS, map(sum, zip(*parts))):
            if shape.n - i < 1:
                notes.append(f"level pair ({i},{k}) skipped: n-i < 1")
                continue
            p = _bernoulli("plug-in", _reached(profile, shape.n - i), lv_trials, seed)
            label = f"P(level-{i} visits >= {k})"
            emp = _bernoulli(label, count, lv_trials, seed)
            base = 1.0 - p.mean * math.exp(-t)
            bound = base ** (k - 1)
            dslope = (k - 1) * base ** max(k - 2, 0) * math.exp(-t)
            ok = emp.mean <= bound + _SLACK_SE * (emp.stderr + dslope * p.stderr)
            level_rows.append(TailRow(label, k, emp.mean, emp.stderr, bound, ok))

    return TailReport(tuple(cluster_rows), tuple(level_rows), tuple(notes))


# --- branching bound -------------------------------------------------------------


@dataclass(frozen=True)
class GwBound:
    q_ext: float
    p_upper: float
    iterations: int


def generation_survival(d: int, t: float, generations: int) -> float:
    """Probability the bar-occupancy branching process reaches a generation.

    The depth-n hit probability is dominated by survival to generation n
    (reaching depth n needs an occupied path), making this the finite-depth
    companion of :func:`gw_extinction`.
    """
    p_occ = -math.expm1(-t)
    q = 1.0 - p_occ
    s = 0.0
    for _ in range(generations):
        s = (p_occ * s + q) ** d
    return 1.0 - s


def gw_extinction(d: int, t: float) -> GwBound:
    """Extinction probability of the bar-occupancy branching process.

    Offspring are Binomial(d, 1 - e^-t); the smallest fixed point of its
    generating function is found by monotone iteration from zero.  The
    complement upper-bounds the never-return probability, and for d >= 6
    with t inside the critical window it is checked against 6/d.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    check_rate(t)
    p_occ = -math.expm1(-t)  # 1 - e^-t
    q = 1.0 - p_occ
    s = 0.0
    for iterations in range(1, 10_000_001):
        prev, s = s, (p_occ * s + q) ** d
        if abs(s - prev) < 1e-12:
            break
    p_upper = 1.0 - s
    if d >= 6 and t <= 1.0 / d + 2.0 / d**2 and p_upper > 6.0 / d + 1e-9:
        raise EngineError("branching bound violated; fixed-point solver is wrong")
    return GwBound(s, p_upper, iterations)


# --- critical window scan ---------------------------------------------------------


@dataclass(frozen=True)
class ScanTable:
    rows: tuple  # (d, n, t, p_hat, stderr, bracket_lo, bracket_hi)
    trials: int
    seed: int

    def to_dicts(self) -> list[dict]:
        keys = ("d", "n", "t", "p_hat", "stderr", "bracket_lo", "bracket_hi")
        return [dict(zip(keys, row), schema=1) for row in self.rows]


def critical_window(d: int) -> tuple[float, float]:
    """Bracket for the transition rate: [1/d + 1/(2 d^2), 1/d + 2/d^2]."""
    return 1.0 / d + 0.5 / d**2, 1.0 / d + 2.0 / d**2


def critical_scan(
    shapes: Sequence[TreeShape],
    t_grid: Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
) -> ScanTable:
    """Descriptive table of hit probabilities over a (shape, t) grid.

    Per d, every row reads one coupled set of depth profiles on d's deepest
    tree: each trial draws one collection at the grid's largest t and
    thins it to every other t.  The rows of one d are therefore correlated
    across t and across depth, and each ``stderr`` is marginal.  The rows
    at the largest t equal :func:`estimate_pn` on the deepest tree, and
    every row has the marginal law of an independent estimate at its t."""
    if len(t_grid) == 0:
        raise ValueError("empty t grid")
    if len(set(t_grid)) < len(t_grid) or len(set(shapes)) < len(shapes):
        raise ValueError("duplicate depths or t grid points")
    ts = sorted(t_grid)
    profiles = {}
    for deepest in {s.d: s for s in sorted(shapes, key=lambda s: s.n)}.values():
        coupled = depth_profiles(deepest, ts, trials, seed, workers)
        profiles.update(((deepest.d, t), p) for t, p in zip(ts, coupled))
    rows = []
    for shape in sorted(shapes, key=lambda s: (s.d, s.n)):
        lo, hi = critical_window(shape.d)
        for t in t_grid:
            hits = _reached(profiles[shape.d, t], shape.n)
            est = _bernoulli("scan", hits, trials, seed)
            rows.append((shape.d, shape.n, t, est.mean, est.stderr, lo, hi))
    return ScanTable(tuple(rows), trials, seed)


# --- percolation proxy ---------------------------------------------------------------


def bar_cluster_reaches_boundary(bars) -> bool:
    """Percolation proxy: >=1-bar edges connect the root to depth n.

    Monotone under bar addition, unlike the meander hit indicator.
    """
    shape = bars.shape
    stack = child_edges(ROOT, shape.d)
    while stack:
        e = stack.pop()
        if bars.count_on(e) == 0:
            continue
        if len(e) == shape.n:
            return True
        stack.extend(child_edges(e, shape.d))
    return False


# --- gain-channel check --------------------------------------------------------------


def bare_root_gain_check(
    shape: TreeShape, t: float, trials: int, seed: int
) -> tuple[Estimate, Estimate, float]:
    """On-pivotal rate with a bar-free root layer versus the depth-(n-1) rate.

    Samples the conditional law directly (Poisson bars off the root edges,
    none on them), places the added bar uniformly on the root layer, and
    compares the on-pivotal frequency with an independent estimate of the
    one-level-shallower hit probability.
    """
    if shape.n < 2:
        raise ValueError("needs depth >= 2")
    _check_trials(trials)
    d = shape.d
    streams = TrialStreams(seed, "bare-root-gain", d, shape.n, t)
    # the bar-free root layer: the added bar's edge is uniform on it
    root_layer = BarCollection(TreeShape(d, 1), {})
    hits = 0
    for i in range(trials):
        gen = streams.at(i)
        added = sample_added(root_layer, gen)
        bars = LazyPoissonBars(shape, t, gen)
        bars.prefill_root([0] * d)
        if hit_level(bars).reached:
            raise EngineError("bar-free root layer cannot reach depth n unaided")
        hits += hit_level(bars.with_added(added)).reached
    gain = _bernoulli(f"on-pivotal|bar-free-root(t={t})", hits, trials, seed)
    ref = estimate_pn(TreeShape(d, shape.n - 1), t, trials, seed + 7)
    denom = math.hypot(gain.stderr, ref.stderr)
    z = (gain.mean - ref.mean) / denom if denom else 0.0
    return gain, ref, z
