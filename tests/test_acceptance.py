"""Acceptance suite, one verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the full module takes several minutes.  Two checks are kept in formulations
that cannot hold and are marked xfail so the measured gaps stay visible:
the depth-n hit indicator is not pathwise monotone under bar addition
(adding a bar can curtail the meander, which is precisely the off-pivotal
mechanism), and the never-return branching bound caps the deep limit rather
than any fixed depth.  Their corrected companions pass.
"""

import bisect
import math
import time

import numpy as np
import pytest

import stirtree.meander as meander
from stirtree.bars import LazyPoissonBars
from stirtree.estimators import (
    estimate_pn,
    generation_survival,
    gw_extinction,
    russo_check,
    tail_checks,
    z_bracket,
    z_estimate,
)
from stirtree.rng import TrialStreams
from stirtree.tree import TreeShape
from stirtree.verify import (
    check_conditional_sampler,
    check_inclusions,
    check_oracle_equivalence,
    check_shift_invariance,
)

SEED = 20250810


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"\n[C{num:02d}] [{'PASS' if ok else 'FAIL'}] {desc}: {detail}")


def test_c01_oracle_equivalence():
    t0 = time.perf_counter()
    res = check_oracle_equivalence(10_000, SEED)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 30
    _report(1, "engine equals transposition oracle", ok, f"{res.detail}, {elapsed:.1f}s")
    assert res.passed, res.replay
    assert elapsed < 30


def test_c02_analytic_p1():
    t0 = time.perf_counter()
    details = []
    ok = True
    for d, t in [(2, 0.3), (3, 0.4), (5, 0.2)]:
        est = estimate_pn(TreeShape(d, 1), t, 100_000, SEED)
        expected = 1 - math.exp(-d * t)
        good = abs(est.mean - expected) <= 4 * est.stderr
        ok = ok and good
        details.append(f"(d={d},t={t}): {est.mean:.5f} vs {expected:.5f}")
    elapsed = time.perf_counter() - t0
    _report(2, "depth-1 hit probability analytic", ok and elapsed < 30,
            "; ".join(details) + f", {elapsed:.1f}s")
    assert ok
    assert elapsed < 30


def test_c03_derivative_identity():
    t0 = time.perf_counter()
    rc = russo_check(TreeShape(2, 2), 0.5, 0.05, 1_000_000, SEED)
    elapsed = time.perf_counter() - t0
    ok = abs(rc.zscore) < 3 and elapsed < 300
    _report(
        3, "pivotal-difference derivative identity", ok,
        f"lhs={rc.lhs.mean:.4f}±{rc.lhs.stderr:.4f} rhs={rc.rhs.mean:.4f}"
        f"±{rc.rhs.stderr:.4f} bias={rc.bias_allowance:.4f} z={rc.zscore:.2f},"
        f" {elapsed:.0f}s",
    )
    assert abs(rc.zscore) < 3
    assert elapsed < 300


def test_c04_exact_inclusions():
    t0 = time.perf_counter()
    res = check_inclusions(100_000, SEED)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 300
    _report(4, "exact event inclusions", ok, f"{res.detail}, {elapsed:.0f}s")
    assert res.passed, res.replay
    assert elapsed < 300


def test_c05_cluster_tail():
    t0 = time.perf_counter()
    rep = tail_checks(TreeShape(16, 4), 1 / 16, 1_000_000, SEED, level_trials=0)
    elapsed = time.perf_counter() - t0
    rows = rep.cluster_rows[:3]
    ok = all(r.ok for r in rows) and elapsed < 120
    detail = "; ".join(
        f"l={r.threshold}: {r.empirical:.5f} <= {r.bound:.5f}+4se" for r in rows
    )
    _report(5, "root-cluster size tail", ok, detail + f", {elapsed:.0f}s")
    assert rep.notes == ()
    assert all(r.ok for r in rows)
    assert elapsed < 120


def test_c06_viable_mass_bracket():
    t0 = time.perf_counter()
    est = z_estimate(TreeShape(16, 4), 1 / 16, 100_000, SEED)
    elapsed = time.perf_counter() - t0
    lo, hi = z_bracket(16, 1.0)
    ok = lo - 4 * est.stderr <= est.mean <= hi + 4 * est.stderr and elapsed < 60
    _report(
        6, "viable-location mass bracket", ok,
        f"{est.mean:.3f}±{est.stderr:.3f} in [{lo:.3f}, {hi:.1f}], {elapsed:.0f}s",
    )
    assert lo - 4 * est.stderr <= est.mean <= hi + 4 * est.stderr
    assert elapsed < 60


def test_c07_shift_invariance():
    res = check_shift_invariance(10_000, SEED)
    _report(7, "return-time start-height invariance", res.passed, res.detail)
    assert res.passed


def test_c08_conditional_sampler():
    res = check_conditional_sampler(100, 40, SEED)
    _report(8, "conditioned added-bar law", res.passed, res.detail)
    assert res.passed


C09_DEGREES = (6, 10, 20)


@pytest.fixture(scope="module")
def c09_depth8():
    """The n=8 estimates both C09 tests read, computed once per module."""
    return {
        d: estimate_pn(TreeShape(d, 8), 1 / d + 2 / d**2, 100_000, SEED)
        for d in C09_DEGREES
    }


def test_c09_branching_bound(c09_depth8):
    details = []
    ok = True
    for d in C09_DEGREES:
        t = 1 / d + 2 / d**2
        gw = gw_extinction(d, t)
        p_occ = 1 - math.exp(-t)
        residual = abs((p_occ * gw.q_ext + 1 - p_occ) ** d - gw.q_ext)
        ok = ok and gw.p_upper <= 6 / d + 1e-9 and residual < 1e-9
        # the never-return bound caps the deep limit, not any finite depth:
        # check the depth trend toward the bound plus the generation cap,
        # which does apply at fixed depth
        ests = {n: estimate_pn(TreeShape(d, n), t, 100_000, SEED) for n in (4, 6)}
        ests[8] = c09_depth8[d]
        trend = all(
            ests[b].mean - ests[a].mean <= 3 * math.hypot(ests[a].stderr, ests[b].stderr)
            for a, b in ((4, 6), (6, 8))
        )
        cap8 = generation_survival(d, t, 8)
        capped = ests[8].mean <= cap8 + 4 * ests[8].stderr
        ok = ok and trend and capped
        details.append(
            f"d={d}: p_up={gw.p_upper:.4f}<=~{6 / d:.3f}, p8={ests[8].mean:.4f}"
            f"<=cap8={cap8:.4f}, trend {ests[4].mean:.3f}>{ests[6].mean:.3f}"
            f">{ests[8].mean:.3f}"
        )
    _report(9, "branching bound and depth trend", ok, "; ".join(details))
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as formulated: the depth-n hit indicator is not "
    "pathwise monotone under bar addition (off-pivotal curtailment)",
)
def test_c10_per_seed_monotonicity_as_stated(hit_indicators):
    # the scan's own coupling: one rate-0.4 draw per trial, thinned down
    ind = hit_indicators(TreeShape(3, 4), [0.2, 0.3, 0.4], 10_000, SEED)
    diffs = np.diff(ind.astype(np.int8), axis=1)
    violations = int((diffs < 0).sum())
    _report(
        10, "per-seed rate monotonicity of the hit indicator (as stated)",
        violations == 0, f"{violations} violations over 10000 seeds",
    )
    assert violations == 0


def test_c10_companion_percolation_monotone(percolation_indicators):
    # what the thinning coupling does make exactly monotone per seed
    ind = percolation_indicators(TreeShape(3, 4), [0.2, 0.3, 0.4], 10_000, SEED)
    diffs = np.diff(ind.astype(np.int8), axis=1)
    violations = int((diffs < 0).sum())
    _report(
        10, "companion: per-seed monotone percolation proxy", violations == 0,
        f"{violations} violations over 10000 seeds",
    )
    assert violations == 0


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as formulated: the never-return bound caps the deep "
    "limit, and finite-depth hit probabilities sit above it; the gap is real",
)
def test_c09_literal_finite_depth_clause(c09_depth8):
    bad = []
    for d in C09_DEGREES:
        t = 1 / d + 2 / d**2
        gw = gw_extinction(d, t)
        est = c09_depth8[d]
        if est.mean > gw.p_upper + 4 * est.stderr:
            bad.append(f"d={d}: p8={est.mean:.4f} > p_up={gw.p_upper:.4f}")
    _report(9, "literal finite-depth clause (stale form)", not bad, "; ".join(bad) or "held")
    assert not bad


def test_c11_engine_bounds_always_on():
    # the step/dichotomy guards have no bypass switch; show they are armed
    assert meander.bisect_right is bisect.bisect_right
    shape = TreeShape(3, 4)
    gen = TrialStreams(SEED, "c11").at(0)
    outcomes = set()
    for _ in range(2_000):
        bars = LazyPoissonBars(shape, 0.5, gen).realize()
        traj = meander.hit_level(bars)
        outcomes.add(traj.outcome.kind)
        assert traj.outcome.kind in ("hit_level", "returned")
        assert sum(v != w for (v, _), (w, _) in traj.steps.items()) <= 2 * bars.count
        assert traj.wraps <= shape.vertex_count
        covered = sum(b - a for ivs in traj.coverage().values() for a, b in ivs)
        assert abs(covered - traj.outcome.time) < 1e-9
    ok = outcomes == {"hit_level", "returned"}
    _report(
        11, "engine step bound and dichotomy armed on every run", ok,
        f"outcomes seen: {sorted(outcomes)}; guards raise EngineError when broken",
    )
    assert ok
