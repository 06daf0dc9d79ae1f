"""Bar collections: Poisson sampling, the uniform added bar, and interval sets.

A bar is a point ``(edge, height)`` with height in the unit circle; a
collection stores, per edge, the strictly increasing tuple of heights it
supports.  Heights are kept in the open interval (0, 1) with exact-duplicate
resampling, so joint comparisons in the meander engine can be exact float
equality rather than tolerance-based.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple

import numpy as np

from stirtree.tree import (
    CapacityError,
    TreeShape,
    edge_from_index,
    edge_index,
    is_valid_edge,
    vertex_from_str,
    vertex_to_str,
)


class Bar(NamedTuple):
    edge: bytes
    height: float


# Most values (Poisson counts plus heights) one collection may draw; the one
# memory rule of the package, charged alike on both sampler paths.  Checked
# before any draw: (1 + t)·|E| for realize(), and the mean (d + 1)·t of one
# lazy pole's heights.  A lazy run draws one pole per vertex it visits, so
# the counts and heights a lazy collection holds are checked too, after each
# child list's draw and before any heights: every count drawn is charged
# once, zero or not.  An engine run keeps one record entry per state, so
# meander.run bounds every run's crossings by this budget too.  Measured
# peak RSS of the whole command at the budget on 2 vCPU with numpy 2.4.6:
# lazy `sim --d 36 --n 1 --n1 0 --t 67000`, 2.4e6 heights, 0.33 to 0.46 GB
# over seeds 1-8 (five stop at the record's bound and exit 3).  Heights are kept
# per barred edge, keyed by n-byte addresses, so they cost most on deep
# trees: a (2, 256) collection at t = 0.5 filled to the budget with leaf
# then parent poles peaked at 0.98 GB above the import, and at 1.55 GB at
# depth 512 (the bound patched out), which sets tree._MAX_DEPTH at 256.
# Child-count lists stay small: the same fill at (255, 256), t = 0.004,
# peaks at 30 MB.
_DRAW_BUDGET = 2_500_000


def _check_budget(values: float, what: str) -> None:
    if values > _DRAW_BUDGET:
        raise CapacityError(
            f"{what} would draw about {values:.3g} values,"
            f" over the budget of {_DRAW_BUDGET}"
        )


# One-byte child symbols: the children of v are ``v + s`` for the first d.
_SYMBOLS = tuple(bytes((i,)) for i in range(256))


def check_rate(t: float) -> None:
    """Reject a Poisson rate that is not finite and >= 0 (NaN included)."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"intensity t must be finite and >= 0, got {t!r}")


def _usable(hs: list[float]) -> bool:
    """Heights all > 0 and pairwise distinct: sorted, strictly increasing."""
    return min(hs) > 0.0 and len(set(hs)) == len(hs)


def _distinct_heights(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    """k i.i.d. heights, sorted, all distinct and strictly inside (0, 1)."""
    if k == 0:  # rng.random(0) would consume nothing
        return ()
    if k == 1:  # fast path; draws exactly what rng.random(1) would
        h = rng.random()
        if h > 0.0:
            return (h,)
    while True:
        hs = sorted(rng.random(k).tolist())
        if _usable(hs):
            return tuple(hs)
        # exact collision or exact 0.0: astronomically rare, redraw


# A pole: its ascending joint heights and, per joint, (edge, dest).
_Pole = tuple[tuple[float, ...], tuple[tuple[bytes, bytes], ...]]


def _pole_of(v: bytes, groups: list[tuple[tuple[float, ...], bytes]]) -> _Pole:
    """Merge the ``(heights, edge)`` groups of the barred edges at v into a pole.

    The parent edge v leads up to ``v[:-1]``, a child edge down to itself.
    Each group's heights ascend already, so one group needs no sort.  The
    groups come in ascending edge order (the parent edge v is a prefix of
    every child edge), and a height tied across edges keeps that order.
    """
    if len(groups) == 1:
        hs, e = groups[0]
        return hs, ((e, e[:-1] if e == v else e),) * len(hs)
    if not groups:
        return (), ()
    # Sort the heights alone, then put each edge's hop (one tuple shared by
    # its joints) at its heights' places: no per-joint object is built.
    heights = [h for hs, _ in groups for h in hs]
    heights.sort()
    hops: list = [None] * len(heights)
    for hs, e in groups:
        hop = (e, e[:-1] if e == v else e)
        for h in hs:
            i = bisect_left(heights, h)
            while hops[i] is not None:  # a tie taken by an earlier edge
                i += 1
            hops[i] = hop
    return tuple(heights), tuple(hops)


class _PoleIndexMixin:
    """Lazily built per-pole index of incident joints.

    Each collection's ``pole(v)`` returns ``(heights, hops)`` where heights
    is the ascending tuple of joint heights on the pole at v and
    ``hops[i] = (edge, dest)`` names the supporting edge and the vertex at
    the other joint.  Built on first visit and cached in ``_poles``;
    collections are immutable afterwards, so sharing across concurrent runs
    is safe once built.
    """

    shape: TreeShape
    _poles: dict[bytes, _Pole]

    def heights_on(self, edge: bytes) -> tuple[float, ...]:  # pragma: no cover
        raise NotImplementedError

    def count_on(self, edge: bytes) -> int:
        return len(self.heights_on(edge))

    def built_poles(self) -> list[bytes]:
        """The vertices whose poles are built, in build order.  On a fresh
        collection these are the poles its first run queried, in first-query
        order."""
        return list(self._poles)

    def with_added(self, bar: Bar) -> "_WithAdded":
        """This collection plus one bar (the two-level coupling B, B∪A)."""
        if not is_valid_edge(self.shape, bar.edge):
            raise ValueError(f"added bar edge {bar.edge!r} outside the tree")
        if bar.height in self.heights_on(bar.edge):
            raise ValueError("added bar coincides with an existing bar")
        return _WithAdded(self, bar)


class _WithAdded(_PoleIndexMixin):
    """Overlay of one added bar on a base collection.

    Shares the base's realized bars and pole index; only the two poles the
    added bar touches are rebuilt, by inserting its joint.
    """

    __slots__ = ("shape", "_base", "_bar", "_poles")

    def __init__(self, base, bar: Bar) -> None:
        self.shape = base.shape
        self._base = base
        self._bar = bar
        self._poles = {}

    @property
    def count(self) -> int:
        return self._base.count + 1

    def heights_on(self, edge: bytes) -> tuple[float, ...]:
        hs = self._base.heights_on(edge)
        if edge != self._bar.edge:
            return hs
        pos = bisect_left(hs, self._bar.height)
        return hs[:pos] + (self._bar.height,) + hs[pos:]

    def pole(self, v: bytes) -> _Pole:
        e, h = self._bar
        if v == e:
            dest = e[:-1]
        elif v == e[:-1]:
            dest = e
        else:
            return self._base.pole(v)
        cached = self._poles.get(v)
        if cached is None:
            heights, hops = self._base.pole(v)
            i = bisect_left(heights, h)
            cached = (
                heights[:i] + (h,) + heights[i:],
                hops[:i] + ((e, dest),) + hops[i:],
            )
            self._poles[v] = cached
        return cached


class BarCollection(_PoleIndexMixin):
    """Immutable, fully materialized bar collection on the depth-n tree."""

    __slots__ = ("shape", "_by_edge", "count", "_poles")

    def __init__(
        self,
        shape: TreeShape,
        by_edge: dict[bytes, tuple[float, ...]],
        validate: bool = True,
    ) -> None:
        self.shape = shape
        self._by_edge = by_edge
        self.count = sum(map(len, by_edge.values()))
        self._poles = {}
        if validate:
            self._validate()

    def _validate(self) -> None:
        for e, hs in self._by_edge.items():
            if not is_valid_edge(self.shape, e):
                raise ValueError(f"edge {e!r} not in the depth-{self.shape.n} tree")
            if any(not 0.0 <= h < 1.0 for h in hs):
                raise ValueError(f"height outside [0,1) on edge {e!r}")
            if any(hs[i] >= hs[i + 1] for i in range(len(hs) - 1)):
                raise ValueError(f"heights on edge {e!r} not strictly increasing")

    @classmethod
    def from_bars(cls, shape: TreeShape, bars: Iterable[Bar]) -> "BarCollection":
        by_edge: dict[bytes, list[float]] = {}
        for b in bars:
            by_edge.setdefault(b.edge, []).append(b.height)
        packed = {e: tuple(sorted(hs)) for e, hs in by_edge.items()}
        for e, hs in packed.items():
            if len(set(hs)) != len(hs):
                raise ValueError(f"duplicate heights on edge {e!r}")
        return cls(shape, packed)

    def heights_on(self, edge: bytes) -> tuple[float, ...]:
        return self._by_edge.get(edge, ())

    def pole(self, v: bytes) -> _Pole:
        built = self._poles.get(v)
        if built is not None:
            return built
        edges = [v] if v else []  # the parent edge, then the children
        if len(v) < self.shape.n:
            edges += [v + s for s in _SYMBOLS[: self.shape.d]]
        by_edge = self._by_edge
        groups = [(hs, e) for e in edges if (hs := by_edge.get(e))]
        built = self._poles[v] = _pole_of(v, groups)
        return built

    def edges_with_bars(self) -> Iterable[bytes]:
        return self._by_edge.keys()

    def iter_bars(self) -> Iterable[Bar]:
        """All bars in (edge-index, height) order; a stable serialization order."""
        for e in sorted(self._by_edge, key=lambda e: edge_index(self.shape, e)):
            for h in self._by_edge[e]:
                yield Bar(e, h)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BarCollection)
            and self.shape == other.shape
            and self._by_edge == other._by_edge
        )

    def to_json(self) -> str:
        d = self.shape.d
        rows = [
            {"edge": vertex_to_str(b.edge, d), "h": b.height} for b in self.iter_bars()
        ]
        return json.dumps(
            {"schema": 1, "d": d, "n": self.shape.n, "bars": rows}
        )

    @classmethod
    def from_json(cls, text: str) -> "BarCollection":
        obj = json.loads(text)
        shape = TreeShape(obj["d"], obj["n"])
        bars = [Bar(vertex_from_str(r["edge"], shape.d), r["h"]) for r in obj["bars"]]
        return cls.from_bars(shape, bars)


class LazyPoissonBars(_PoleIndexMixin):
    """Poisson-t collection realized on demand from a counter-based stream.

    The package's one Poisson sampler: the estimators and ``sim`` query it
    lazily, and :meth:`realize` reads every edge in index order where a
    check needs the full collection.  Counts are drawn per vertex: the
    first need of any child count of v (:meth:`count_on` or a pole) draws
    all d of them in one call and keeps them as v's child list.  An edge's
    heights are drawn the first time they are needed, and only a barred
    edge gets an address and a heights entry; at dilute rates most children
    have none.  Query order is a deterministic function of the realized
    bars, so a fixed (seed, trial) stream reproduces the same collection;
    the joint law over every touched edge is exactly Poisson-t.  ``count``
    is the number of bars realized so far, which bounds every run that only
    visits realized poles.
    """

    __slots__ = (
        "shape", "t", "count", "_drawn", "_rng", "_kids", "_heights", "_marks",
        "_pole_marks", "_poles",
    )

    def __init__(self, shape: TreeShape, t: float, rng: np.random.Generator) -> None:
        check_rate(t)
        _check_budget((shape.d + 1) * t, "one lazy pole")
        self.shape = shape
        self.t = t
        self.count = 0
        self._drawn = 0  # counts held, drawn or prefilled; charged to the budget
        self._rng = rng
        self._kids: dict[bytes, list[int]] = {}  # v -> its d child counts
        self._heights: dict[bytes, tuple[float, ...]] = {}
        self._marks: dict[bytes, list[float]] = {}
        self._pole_marks: dict[bytes, list[float]] = {}
        self._poles = {}

    def realize(self) -> BarCollection:
        """Every edge's bars at once, as an immutable :class:`BarCollection`.

        Draws what ``count_on`` then ``heights_on`` over all edges in index
        order would: the counts in one vector draw, then each barred edge's
        heights in index order.  Needs a collection with nothing realized
        yet, and spends its stream, so query the returned collection
        afterwards.
        """
        if self._drawn:
            raise ValueError("realize() needs a collection with nothing realized yet")
        shape = self.shape
        if shape.edge_count > _DRAW_BUDGET:  # an int test: |E| may be past float range
            raise CapacityError(
                f"realize() would draw a count for each edge of the ({shape.d},"
                f" {shape.n}) tree, over the budget of {_DRAW_BUDGET} values"
            )
        _check_budget((1 + self.t) * shape.edge_count, "realize()")
        by_edge: dict[bytes, tuple[float, ...]] = {}
        if self.t > 0:  # rate-0 counts consume no draws; skip the |E| zeros
            rng = self._rng
            counts = rng.poisson(self.t, size=shape.edge_count)
            barred = counts.nonzero()[0]
            for i, k in zip(barred.tolist(), counts[barred].tolist()):
                by_edge[edge_from_index(shape, i)] = _distinct_heights(rng, k)
        return BarCollection(self.shape, by_edge, validate=False)

    def _keep(self, v: bytes, kids: list[int]) -> list[int]:
        """Keep v's d child counts, charged to the budget before any heights."""
        self._kids[v] = kids
        self.count += sum(kids)
        self._drawn += len(kids)
        _check_budget(self.count + self._drawn, "one lazy collection")
        return kids

    def _kids_of(self, v: bytes) -> list[int]:
        """v's d child counts, drawn in one call on first need."""
        kids = self._kids.get(v)
        if kids is None:
            kids = self._keep(v, self._rng.poisson(self.t, size=self.shape.d).tolist())
        return kids

    def prefill_root(self, counts: list[int]) -> None:
        """Adopt externally sampled root-layer counts (e.g. a conditioned
        root layer), one per root edge by symbol."""
        self._keep(b"", list(counts))

    def count_on(self, edge: bytes) -> int:
        return self._kids_of(edge[:-1])[edge[-1]]

    def heights_on(self, edge: bytes) -> tuple[float, ...]:
        hs = self._heights.get(edge)
        if hs is None:
            k = self.count_on(edge)
            if not k:
                return ()
            hs = self._heights[edge] = _distinct_heights(self._rng, k)
        return hs

    def marks_on(self, edge: bytes) -> list[float]:
        """Uniform [0, 1) thinning marks, one per bar in height order."""
        ms = self._marks.get(edge)
        if ms is None:
            k = self.count_on(edge)
            if not k:  # rng.random(0) would consume nothing
                return []
            rng = self._rng  # one mark draws what rng.random(1) would, at less cost
            ms = [rng.random()] if k == 1 else rng.random(k).tolist()
            self._marks[edge] = ms
        return ms

    def thinned(self, t: float) -> "LazyPoissonBars | _Thinned":
        """The bars whose mark is at most t / self.t: a Poisson-t collection,
        nested across t on one realization (the thinning coupling).  At
        t = self.t every bar is kept, so that is the collection itself and
        draws no marks.  A rate outside [0, self.t] (NaN included) raises
        ``ValueError``: thinning cannot add bars."""
        if not 0 <= t <= self.t:
            raise ValueError(f"thinning rate {t!r} outside [0, {self.t!r}]")
        return self if t == self.t else _Thinned(self, t)

    def pole_marks(self, v: bytes) -> list[float]:
        """The marks of pole v's joints, in pole order; every thinning reads it.

        An edge's marks are drawn on its first appearance in the pole's
        height order.  An edge's joints ascend as its heights do, so its
        j-th joint here is its j-th bar and carries mark j.
        """
        ms = self._pole_marks.get(v)
        if ms is None:
            seen: dict[bytes, int] = {}
            ms = []
            for e, _dest in self.pole(v)[1]:
                j = seen.get(e, 0)
                seen[e] = j + 1
                ms.append(self.marks_on(e)[j])
            self._pole_marks[v] = ms
        return ms

    def thinnings_differ(self, poles: Iterable[bytes], t: float, t_ref: float) -> bool:
        """Whether the thinnings to t and to t_ref > t differ on some pole of
        ``poles``: a joint there has its mark in (t, t_ref] / self.t.

        Reads :meth:`pole_marks` pole by pole in the given order and stops
        at the first pole that differs.  When ``poles`` are the poles a
        root-origin run on the rate-t_ref thinning visited, in first-visit
        order, those are the marks a run on the rate-t thinning draws
        first, in the same order; so when no pole differs that run is the
        same run and need not be made, and when one does, running it draws
        nothing more than it would have.  An empty band (t >= t_ref) draws
        nothing.
        """
        lo, hi = t / self.t, t_ref / self.t
        if lo < hi:
            for v in poles:
                for m in self.pole_marks(v):
                    if lo < m <= hi:
                        return True
        return False

    def pole(self, v: bytes) -> _Pole:
        built = self._poles.get(v)
        if built is not None:
            return built
        # Counts, then heights, are drawn in incident-edge order (the parent
        # edge, then the children by symbol), as count_on then heights_on
        # edge by edge would draw them.  A root-origin run reaches v from its
        # parent's pole, so the parent edge's count is known already and only
        # v's child list is drawn.  At dilute rates most counts are zero and
        # draw no heights.
        up = self.count_on(v) if v else 0
        barred = [(v, up)] if up else []
        if len(v) < self.shape.n:
            kids = self._kids_of(v)
            barred += [(v + _SYMBOLS[s], k) for s, k in enumerate(kids) if k]
        heights, rng = self._heights, self._rng
        groups = []
        for e, k in barred:
            hs = heights.get(e)
            if hs is None:
                hs = heights[e] = _distinct_heights(rng, k)
            groups.append((hs, e))
        built = self._poles[v] = _pole_of(v, groups)
        return built


class _Thinned(_PoleIndexMixin):
    """Rate-t thinning of a lazy collection; see :meth:`LazyPoissonBars.thinned`."""

    __slots__ = ("shape", "_base", "_keep", "_poles")

    def __init__(self, base: LazyPoissonBars, t: float) -> None:
        self.shape = base.shape
        self._base = base
        self._keep = t / base.t  # thinned() builds this for 0 <= t < base.t only
        self._poles = {}

    @property
    def count(self) -> int:
        return self._base.count

    def heights_on(self, edge: bytes) -> tuple[float, ...]:
        hs = self._base.heights_on(edge)
        if not hs:
            return ()
        marks = self._base.marks_on(edge)
        return tuple(h for h, m in zip(hs, marks) if m <= self._keep)

    def pole(self, v: bytes) -> _Pole:
        """The base's pole at v, less the joints whose mark is above keep.

        The base draws the pole's counts and heights, and its marks
        (:meth:`LazyPoissonBars.pole_marks`), which every thinning shares.
        """
        built = self._poles.get(v)
        if built is not None:
            return built
        base = self._base
        heights, hops = base.pole(v)
        keep = self._keep
        kept = [i for i, m in enumerate(base.pole_marks(v)) if m <= keep]
        if len(kept) < len(heights):
            heights = tuple([heights[i] for i in kept])
            hops = tuple([hops[i] for i in kept])
        built = self._poles[v] = heights, hops
        return built


# Largest edge count the added bar's int64 index draw, integers(0, |E|), takes.
_INDEX_RANGE = 2**63


def sample_added(shape: TreeShape, stream: np.random.Generator) -> Bar:
    """Uniform bar on E(T_n) x [0,1): uniform edge, independent uniform height."""
    if shape.edge_count > _INDEX_RANGE:
        raise CapacityError(
            f"the added bar's edge index on the ({shape.d}, {shape.n}) tree"
            f" is past the 2**63 range of its draw"
        )
    idx = int(stream.integers(0, shape.edge_count))
    h = float(stream.random())
    while h == 0.0:
        h = float(stream.random())
    return Bar(edge_from_index(shape, idx), h)


class LocationSet:
    """Per-edge disjoint unions of half-open height intervals.

    ``intervals`` is kept in edge-index order, the order :meth:`measure`
    sums in and the sampler concatenates in, whatever order it was built in.
    """

    __slots__ = ("shape", "intervals", "_measure")

    def __init__(
        self,
        shape: TreeShape,
        intervals: dict[bytes, tuple[tuple[float, float], ...]],
        validate: bool = True,
    ) -> None:
        self.shape = shape
        self.intervals = {
            e: intervals[e]
            for e in sorted(intervals, key=lambda e: edge_index(shape, e))
            if intervals[e]
        }
        self._measure: float | None = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        for e, ivs in self.intervals.items():
            lo_prev = None
            for a, b in ivs:
                if not (0.0 <= a < b <= 1.0):
                    raise ValueError(f"bad interval ({a}, {b}) on edge {e!r}")
                if lo_prev is not None and a < lo_prev:
                    raise ValueError(f"overlapping intervals on edge {e!r}")
                lo_prev = b

    def measure(self) -> float:
        """Total length of the set; the [0,1) factor carries Lebesgue measure."""
        if self._measure is None:
            self._measure = sum(
                b - a for ivs in self.intervals.values() for a, b in ivs
            )
        return self._measure

    def contains(self, edge: bytes, h: float) -> bool:
        ivs = self.intervals.get(edge)
        if not ivs:
            return False
        starts = [a for a, _ in ivs]
        i = bisect_right(starts, h) - 1
        return i >= 0 and h < ivs[i][1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LocationSet)
            and self.shape == other.shape
            and self.intervals == other.intervals
        )


def merge_intervals(ivs: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort half-open intervals and fuse exactly adjacent or overlapping ones."""
    if not ivs:
        return ()
    ivs = sorted(ivs)
    out = [ivs[0]]
    for a, b in ivs[1:]:
        la, lb = out[-1]
        if a <= lb:
            if b > lb:
                out[-1] = (la, b)
        else:
            out.append((a, b))
    return tuple(out)


def sample_uniform_on(s: LocationSet, stream: np.random.Generator) -> Bar:
    """Bar with normalized-Lebesgue law on the set, via inverse CDF over the
    concatenated intervals (edges in index order, intervals ascending)."""
    total = s.measure()
    if total <= 0.0:
        raise ValueError("cannot sample from a measure-zero location set")
    u = float(stream.random()) * total
    acc = 0.0
    for e, ivs in s.intervals.items():
        for a, b in ivs:
            width = b - a
            if u < acc + width:
                h = a + (u - acc)
                if h >= b:  # float guard at the right endpoint
                    h = b - (b - a) * 1e-16
                return Bar(e, h)
            acc += width
    # u == total up to rounding: return the last point
    e, ivs = next(reversed(s.intervals.items()))
    a, b = ivs[-1]
    return Bar(e, a + (b - a) * 0.5)


def normalized_position(s: LocationSet, bar: Bar) -> float:
    """Position of a bar inside the set's concatenated intervals, in [0, 1).

    Uniform bars on the set map to uniform positions; used to pool
    Kolmogorov-Smirnov comparisons across different conditioning sets.
    """
    total = s.measure()
    acc = 0.0
    for e, ivs in s.intervals.items():
        for a, b in ivs:
            if e == bar.edge and a <= bar.height < b:
                return (acc + (bar.height - a)) / total
            acc += b - a
    raise ValueError("bar does not lie inside the location set")
