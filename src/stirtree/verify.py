"""Invariant suite: the exact per-sample inclusions and the statistical laws.

Each check returns a :class:`CheckResult`; a failing stochastic check always
carries enough replay data (seed plus trial coordinates) to rerun the exact
offending sample.  The shift check is exact per sample: a run from a start
height h is the run from height 0 among the bars turned down by h.  The
conditional and exploration checks test their pooled positions against
U[0, 1) by the one-sample KS test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from stirtree.bars import (
    BarCollection,
    LazyPoissonBars,
    normalized_position,
    sample_added,
)
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
from stirtree.meander import EngineError, SpaceTimePoint, hit_level, return_time
from stirtree.rng import TrialStreams
from stirtree.stirring import stirring_permutation, transposition_oracle
from stirtree.tree import ROOT, TreeShape, child_edges
from stirtree import estimators, ks


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    replay: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: {self.detail}"
        if not self.passed and self.replay:
            text += f" (replay: {self.replay})"
        return text


# The KS checks (conditional, exploration) fail at p-values up to this.
_KS_P_FLOOR = 1e-3

ORACLE_GRID = tuple(
    (d, n, tau / d) for d in (2, 3) for n in (2, 3) for tau in (0.5, 1.0, 2.0)
)


def check_oracle_equivalence(instances: int, seed: int) -> CheckResult:
    """Engine-vs-algebra agreement of the unit-time permutation, exactly."""
    streams = {p: TrialStreams(seed, "oracle", *p) for p in ORACLE_GRID}
    mismatches = []
    for i in range(instances):
        d, n, t = ORACLE_GRID[i % len(ORACLE_GRID)]
        bars = LazyPoissonBars(TreeShape(d, n), t, streams[d, n, t].at(i)).realize()
        try:
            ok = stirring_permutation(bars) == transposition_oracle(bars)
        except (EngineError, ValueError) as exc:  # ValueError: not a bijection
            mismatches.append({"d": d, "n": n, "t": t, "trial": i, "error": str(exc)})
            continue
        if not ok:
            mismatches.append({"d": d, "n": n, "t": t, "trial": i})
    detail = f"{instances} instances, {len(mismatches)} mismatches"
    replay = {"seed": seed, "first_failure": mismatches[0]} if mismatches else {}
    return CheckResult("oracle-equivalence", not mismatches, detail, replay)


def inclusion_violations(bars, added) -> list[str]:
    """Names of violated per-sample inclusions for one (B, A) draw."""
    d = bars.shape.d
    traj = hit_level(bars)
    rec = detect(bars, added, traj)
    cluster = multibar_cluster(bars)
    vl = viable_locations(bars, traj, cluster)
    rstats = root_stats(bars, traj, cluster)
    out = []

    if rec.pivot != "neither" and not rec.crossed:
        out.append("pivot-subset-crossing")
    if rec.pivot != "neither" and rec.bottleneck_edge is not None:
        if not (rec.crossed and rec.no_escape):
            out.append("pivot-bottleneck-no-escape")
    cnb = rec.crossed and rec.bottleneck_edge is None
    if cnb != vl.contains(added.edge, added.height):
        out.append("crossing-no-bottleneck-matches-viable-set")
    closure = cluster.cluster | cluster.boundary
    if any(e not in closure for e in vl.intervals):
        out.append("viable-set-inside-cluster-closure")
    mass = vl.measure()
    k = 1
    while mass > d * k + 1e-9:  # 1e-9 absorbs interval-sum rounding only
        if cluster.size < k:
            out.append("viable-mass-forces-cluster-size")
            break
        k += 1
    for routes in escape_routes(bars, traj):
        static_above_root = {e for e in routes.static if len(e) > 1}
        if not static_above_root <= routes.witnessed:
            out.append("static-routes-subset-witnessed")
            break
    if rstats.confined_clusterless:
        full = ((0.0, 1.0),)
        root_edges = set(child_edges(ROOT, d))
        if set(vl.intervals) != root_edges or any(
            vl.intervals[e] != full for e in root_edges
        ):
            out.append("clusterless-confined-full-root-layer")
    if bars.count_on(added.edge) == 0 and rec.pivot == "off":
        out.append("bare-added-edge-never-off-pivotal")
    return out


def check_inclusions(samples: int, seed: int) -> CheckResult:
    """Zero-tolerance event inclusions over random (B, A) samples."""
    shape = TreeShape(3, 4)
    ts = (0.2, 0.33, 0.5)
    per_t = (samples + len(ts) - 1) // len(ts)
    violations = []
    total = 0
    for t in ts:
        streams = TrialStreams(seed, "inclusions", shape.d, shape.n, t)
        for i in range(per_t):
            gen = streams.at(i)
            bars = LazyPoissonBars(shape, t, gen).realize()
            added = sample_added(bars, gen)
            total += 1
            bad = inclusion_violations(bars, added)
            if bad:
                violations.append({"t": t, "trial": i, "violated": bad})
    detail = f"{total} samples over t={ts}, {len(violations)} violations"
    replay = {"seed": seed, "first_failure": violations[0]} if violations else {}
    return CheckResult("event-inclusions", not violations, detail, replay)


def turned(bars: BarCollection, h: float) -> BarCollection:
    """``bars`` with every height turned down by h around the time circle.

    A height x > h goes to x - h, one below it to x - h + 1.0; for heights
    and h on the sampler's 2**-53 grid both are exact, so the turned bars
    keep their order around the circle.  A bar at exactly h would turn to
    0.0, a height the sampler never draws, and is left out.
    """
    by_edge = {}
    for e in bars.edges_with_bars():
        hs = bars.heights_on(e)
        above = tuple(x - h for x in hs if x > h)
        by_edge[e] = above + tuple(x - h + 1.0 for x in hs if x < h)
    return BarCollection(bars.shape, by_edge, validate=False)


def check_shift_invariance(trials: int, seed: int) -> CheckResult:
    """The run from (root, h) is the run from the root origin, turned.

    Per realized collection B and start height h, the return time from
    (root, h) among B must equal the one from (root, 0) among B turned down
    by h, exactly; a run that hits depth n first (None) must match None.
    An ``EngineError`` on either side counts as a mismatch.
    """
    shape = TreeShape(2, 4)
    t = 0.5
    heights = (0.25, 0.5, 0.75)
    streams = TrialStreams(seed, "shift", shape.d, shape.n, t)
    origin = SpaceTimePoint(ROOT, 0.0)
    mismatches = []
    for i in range(trials):
        bars = LazyPoissonBars(shape, t, streams.at(i)).realize()
        for h in heights:
            moved = turned(bars, h)
            if moved.count < bars.count:
                continue  # a bar sat at exactly h: no turned start to compare
            try:
                start = SpaceTimePoint(ROOT, h)
                ok = return_time(bars, start) == return_time(moved, origin)
            except EngineError as exc:
                mismatches.append({"trial": i, "height": h, "error": str(exc)})
                continue
            if not ok:
                mismatches.append({"trial": i, "height": h})
    detail = (
        f"{trials} collections x start heights {heights},"
        f" {len(mismatches)} mismatches"
    )
    replay = {"seed": seed, "first_failure": mismatches[0]} if mismatches else {}
    return CheckResult("shift-invariance", not mismatches, detail, replay)


def check_conditional_sampler(
    instances: int, per_instance: int, seed: int
) -> CheckResult:
    """Rejection-conditioned added bars are uniform on the viable set.

    For each fixed collection, rejection sampling accepts uniform added bars
    on crossing-without-bottleneck (decided by the event detector); their
    positions, normalized by the viable-location set's inverse CDF, pool
    into one one-sample KS test against U[0, 1).  An accepted bar outside
    the set is a violation: the detector and the set disagree.
    """
    shape = TreeShape(3, 4)
    t = 0.4
    cond_b, cond_rej = (
        TrialStreams(seed, purpose, shape.d, shape.n, t)
        for purpose in ("cond-b", "cond-rej")
    )
    rej, outside = [], []
    tries_total = 0
    for b_i in range(instances):
        bars = LazyPoissonBars(shape, t, cond_b.at(b_i)).realize()
        traj = hit_level(bars)
        vl = viable_locations(bars, traj, multibar_cluster(bars))
        if vl.measure() <= 0.0:
            continue  # not reachable; cannot happen from the root pole
        gen_r = cond_rej.at(b_i)
        got = tries = 0
        while got < per_instance and tries < 500_000:
            a = sample_added(bars, gen_r)
            tries += 1
            if crossing_without_bottleneck(bars, a, traj):
                got += 1
                if vl.contains(a.edge, a.height):
                    rej.append(normalized_position(vl, a))
                else:  # replay: the try-th bar drawn on the cond-rej stream
                    outside.append({"instance": b_i, "try": tries})
        tries_total += tries
    p = ks.uniform_pvalue(rej) if rej else 0.0
    passed = bool(not outside and p > _KS_P_FLOOR)
    efficiency = (len(rej) + len(outside)) / tries_total if tries_total else 0.0
    detail = (
        f"pooled KS p={p:.4g} over {instances} collections x {per_instance},"
        f" rejection efficiency {efficiency:.3f}"
    )
    replay = {"seed": seed} if not passed else {}
    if outside:
        detail += f", {len(outside)} accepted bars outside the viable set"
        replay["first_failure"] = outside[0]
    return CheckResult("conditional-sampler", passed, detail, replay)


def check_exploration_law(trials: int, seed: int) -> CheckResult:
    """Bars off the trajectory stay Poisson-t on the untouched region.

    Exact part: every uncrossed bar's joints avoid the trajectory.  Statistical
    part: the uncrossed counts match a Poisson with the untouched mass, and
    their positions are uniform within the region.
    """
    shape = TreeShape(2, 3)
    t = 0.7
    count_excess = 0.0
    mu_total = 0.0
    positions = []
    exact_bad = 0
    streams = TrialStreams(seed, "explore", shape.d, shape.n, t)
    for i in range(trials):
        bars = LazyPoissonBars(shape, t, streams.at(i)).realize()
        traj = hit_level(bars)
        found = crossed_bars(traj)
        unt = untouched_locations(bars, traj)
        leftover = [b for b in bars.iter_bars() if b not in found]
        for b in leftover:
            if not unt.contains(b.edge, b.height):
                exact_bad += 1
            else:
                positions.append(normalized_position(unt, b))
        mu = t * unt.measure()
        count_excess += len(leftover) - mu
        mu_total += mu
    z = count_excess / math.sqrt(mu_total) if mu_total > 0 else 0.0
    p_ks = ks.uniform_pvalue(positions) if positions else 1.0
    passed = bool(exact_bad == 0 and abs(z) < 4.0 and p_ks > _KS_P_FLOOR)
    detail = (
        f"{exact_bad} touched leftovers, count z={z:.2f}, position KS p={p_ks:.4g}"
    )
    return CheckResult(
        "exploration-law", passed, detail, {"seed": seed} if not passed else {}
    )


def check_russo(trials: int, seed: int, workers: int = 1) -> CheckResult:
    rc = estimators.russo_check(TreeShape(2, 2), 0.5, 0.05, trials, seed, workers)
    passed = abs(rc.zscore) < 3.0
    detail = (
        f"lhs={rc.lhs.mean:.4f}±{rc.lhs.stderr:.4f} rhs={rc.rhs.mean:.4f}"
        f"±{rc.rhs.stderr:.4f} bias={rc.bias_allowance:.4f} z={rc.zscore:.2f}"
    )
    return CheckResult(
        "russo-derivative", passed, detail, {"seed": seed} if not passed else {}
    )


def check_tails(trials: int, seed: int, workers: int = 1) -> CheckResult:
    rep = estimators.tail_checks(
        TreeShape(16, 4), 1.0 / 16, trials, seed, workers, level_trials=4000
    )
    rows = rep.cluster_rows + rep.level_rows
    bad = [r for r in rows if not r.ok]
    detail = f"{len(rows)} tail rows, {len(bad)} beyond bound+4se"
    if rep.notes:
        detail += f" ({'; '.join(rep.notes)})"
    return CheckResult(
        "tail-bounds",
        not bad,
        detail,
        {"seed": seed, "rows": [r.label for r in bad]} if bad else {},
    )


def check_z_bracket(trials: int, seed: int, workers: int = 1) -> CheckResult:
    shape, t = TreeShape(16, 4), 1.0 / 16
    est = estimators.z_estimate(shape, t, trials, seed, workers)
    lo, hi = estimators.z_bracket(shape.d, t * shape.d)
    passed = estimators.within_z_bracket(est, lo, hi)
    detail = f"mean={est.mean:.3f}±{est.stderr:.3f} bracket [{lo:.3f}, {hi:.3f}]"
    return CheckResult(
        "viable-mass-bracket", passed, detail, {"seed": seed} if not passed else {}
    )


# name -> check(seed, trial-count override or None, workers), run at its
# suite-default scale unless overridden; "conditional" ignores the override
# and keeps its 40 collections x 25 bars; the check is looked up at call
# time, so a patched module attribute takes effect
_SUITE_CHECKS = {
    "oracle": lambda s, k, w: check_oracle_equivalence(k or 2400, s),
    "inclusions": lambda s, k, w: check_inclusions(k or 3000, s),
    "shift": lambda s, k, w: check_shift_invariance(k or 2000, s),
    "russo": lambda s, k, w: check_russo(k or 150_000, s, workers=w),
    "tails": lambda s, k, w: check_tails(k or 200_000, s, workers=w),
    "z": lambda s, k, w: check_z_bracket(k or 20_000, s, workers=w),
    "conditional": lambda s, k, w: check_conditional_sampler(40, 25, s),
    "exploration": lambda s, k, w: check_exploration_law(k or 600, s),
}
SUITE = tuple(_SUITE_CHECKS)


def run_suite(
    seed: int,
    trials: int | None = None,
    only: tuple[str, ...] | None = None,
    workers: int = 1,
) -> list[CheckResult]:
    """Run the named checks at suite-default scales, or all at ``trials`` but
    ``conditional``, which keeps its fixed 40 collections x 25 added bars.
    An empty list, and an unknown or repeated name, are refused before any
    check runs."""
    chosen = SUITE if only is None else only
    if not chosen:
        raise ValueError(f"no check named; choose from {SUITE}")
    unknown = [name for name in chosen if name not in _SUITE_CHECKS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}; choose from {SUITE}")
    repeated = [name for i, name in enumerate(chosen) if name in chosen[:i]]
    if repeated:
        raise ValueError(f"check {repeated[0]!r} is named twice")
    return [_SUITE_CHECKS[name](seed, trials, workers) for name in chosen]
