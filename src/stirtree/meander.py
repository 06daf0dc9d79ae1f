"""Deterministic cyclic-time meander over a bar collection.

The state rises at unit speed on the pole of its current vertex, wraps from
height 1 to 0 on the same pole, and on reaching a bar joint from below jumps
to the joint on the neighbouring pole.  The process is right-continuous:
joint search is strictly-above, so a run that starts exactly on a joint does
not cross it at time zero, and a jump landing never re-triggers its own bar.

Height equals elapsed time modulo one along every trajectory, which gives
two exact bookkeeping rules used throughout:

* elapsed time at an event is ``wraps + (event_height - start_height)``,
  with no accumulated float error;
* a run started at ``(v, 0)`` wraps at whole times only, the k-th time on
  the pole of ``sigma^k(v)`` with ``sigma`` the unit-time stirring map, which
  is how one run reads off the cycle of ``v``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import stirtree.bars
from stirtree.bars import merge_intervals
from stirtree.tree import ROOT, CapacityError, vertex_to_str


class EngineError(RuntimeError):
    """Internal inconsistency: a trajectory revisited a state or broke a bound."""


class SpaceTimePoint(NamedTuple):
    vertex: bytes
    height: float


class Outcome(NamedTuple):
    kind: str  # "hit_level" | "returned" | "hit_point"
    time: float
    point: tuple[bytes, float]


@dataclass
class Trajectory:
    """The engine's one result type: how a run ended, and its record."""

    start: SpaceTimePoint
    outcome: Outcome
    wraps: int
    # deepest level the run landed on; a root-origin run reached depth n
    # on T_n exactly when its deepest level on a deeper tree is >= n
    deepest: int
    # each state (vertex, h) the run leaves, in order from the start, to
    # the state it moves to next: the landing (w, hb) of a crossed bar,
    # (vertex, 0.0) after a wrap, or the start when the run ends inside a
    # rise; the keys are the run's states, each visited once
    steps: dict
    # cache of coverage(); not part of the trajectory's value
    _coverage: Optional[dict] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def reached(self) -> bool:
        """The run stopped on first landing at its stop level."""
        return self.outcome.kind == "hit_level"

    def rises(self) -> Iterator[tuple[bytes, float, float, bytes]]:
        """Each state's rise ``(pole, lo, hi, next vertex)``, in run order: a
        rise ends at its successor's height, or at 1.0 for a wrap (bar
        heights are > 0)."""
        for (v, lo), (w, hi) in self.steps.items():
            yield v, lo, hi or 1.0, w

    def coverage(self) -> dict[bytes, tuple[tuple[float, float], ...]]:
        """Per-pole union of the rises, merged half-open intervals."""
        if self._coverage is None:
            per_pole: dict[bytes, list[tuple[float, float]]] = {}
            for v, lo, hi, _w in self.rises():
                per_pole.setdefault(v, []).append((lo, hi))
            for v, ivs in per_pole.items():
                ivs.sort()
                for i in range(len(ivs) - 1):
                    if ivs[i + 1][0] < ivs[i][1]:
                        raise EngineError(f"overlapping coverage on pole {v!r}")
                per_pole[v] = merge_intervals(ivs)
            self._coverage = per_pole
        return self._coverage

    def touched(self, edge: bytes) -> tuple[tuple[float, float], ...]:
        """Heights at which the run touched ``edge``'s joints: the merged
        coverage of the edge's two endpoint poles."""
        cov = self.coverage()
        up, down = cov.get(edge[:-1], ()), cov.get(edge, ())
        if up and down:
            return merge_intervals([*up, *down])
        return up or down

    def to_json_dict(self) -> dict:
        """Debug serialization; not a stable format."""
        return {
            "start": [vertex_to_str(self.start.vertex, 36), self.start.height],
            "outcome": {
                "kind": self.outcome.kind,
                "time": self.outcome.time,
                "vertex": vertex_to_str(self.outcome.point[0], 36),
                "height": self.outcome.point[1],
            },
            "steps": [
                [vertex_to_str(v, 36), h, vertex_to_str(w, 36), hw]
                for (v, h), (w, hw) in self.steps.items()
            ],
        }


def run(
    bars,
    start: SpaceTimePoint,
    *,
    level: Optional[int] = None,
    origin: bool = False,
) -> Trajectory:
    """Simulate from ``start`` until a stop target or the return to start.

    The stop targets: the first landing on a level-``level`` pole
    (``hit_level``), and with ``origin`` the root origin ``(ROOT, 0.0)``
    (``hit_point``); bar heights are > 0, so only a wrap on the root pole
    reaches the origin.  Return to start is always a stop (``returned``).

    Engine invariants enforced on every run: no state is ever visited twice
    (each bar is crossed at most twice, each pole covered at most once), the
    crossing count stays within twice the bar count (for lazy collections,
    the bars realized so far) and the wrap count within the vertex count.
    The record ``steps`` is the revisit guard: a state is new exactly when
    it is not yet a key.  It keeps one entry per state, so every run is
    bounded by the sampler's draw budget too: past ``bars._DRAW_BUDGET``
    crossings it raises ``CapacityError``.
    """
    v0, h0 = start
    if not 0.0 <= h0 < 1.0:
        raise ValueError(f"start height {h0} outside [0,1)")
    if level is not None and len(v0) >= level:
        raise ValueError("run started at or beyond the stop level")

    search = bisect_right  # strictly above: the right-continuity rule
    max_wraps = bars.shape.vertex_count
    pole = bars.pole
    budget = stirtree.bars._DRAW_BUDGET

    v, h = v0, h0
    heights, hops = pole(v)
    wraps = 0
    deepest = len(v0)
    ncross = 0
    state = (v0, h0)
    steps: dict = {}

    while True:
        i = search(heights, h)
        crossing = i < len(heights)
        boundary = heights[i] if crossing else 1.0

        # The start point strictly inside the rise (h, boundary).
        if v == v0 and h < h0 < boundary:
            steps[state] = (v0, h0)
            outcome = Outcome("returned", float(wraps), (v0, h0))
            break

        if crossing:  # cross the bar at height `boundary`
            if ncross == budget:
                raise CapacityError(f"a recorded run would keep over {budget} crossings")
            ncross += 1
            if ncross > 2 * bars.count:
                raise EngineError("crossing count exceeded twice the bar count")
            w = hops[i][1]
            nxt = (w, boundary)
            steps[state] = nxt
            if w == v0 and boundary == h0:
                outcome = Outcome("returned", float(wraps), (v0, h0))
                break
            lw = len(w)
            if lw > deepest:  # only a child crossing can go deeper
                deepest = lw
                if lw == level:
                    outcome = Outcome("hit_level", wraps + (boundary - h0), nxt)
                    break
            v, h = w, boundary
            heights, hops = pole(v)
        else:  # wrap 1 -> 0 on the current pole
            wraps += 1
            if wraps > max_wraps:
                raise EngineError("wrap count exceeded the vertex count")
            nxt = (v, 0.0)
            steps[state] = nxt
            if v == v0 and h0 == 0.0:
                outcome = Outcome("returned", float(wraps), (v0, 0.0))
                break
            if origin and v == ROOT:
                outcome = Outcome("hit_point", wraps - h0, nxt)
                break
            h = 0.0
        if nxt in steps:
            raise EngineError(f"trajectory revisited state {nxt!r}")
        state = nxt

    return Trajectory(
        start=start, outcome=outcome, wraps=wraps, deepest=deepest, steps=steps
    )


_ORIGIN = SpaceTimePoint(ROOT, 0.0)


def hit_level(bars) -> Trajectory:
    """Whether the meander from the root origin reaches the depth-n poles.

    The run ends either at the first depth-n pole (``reached``) or back at
    the root origin; on the finite tree this dichotomy is exhaustive, and a
    return decides non-reaching exactly (the continuation is periodic).
    """
    traj = run(bars, _ORIGIN, level=bars.shape.n)
    kind = traj.outcome.kind
    if kind not in ("hit_level", "returned"):
        raise EngineError(f"hit_level run ended with unexpected outcome {kind!r}")
    return traj


def return_time(bars, start: SpaceTimePoint) -> Optional[float]:
    """Time of first return to ``start``; None when the depth-n poles come first."""
    traj = run(bars, start, level=bars.shape.n)
    return None if traj.reached else traj.outcome.time
