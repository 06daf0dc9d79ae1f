"""Detectors for the event family driving the pivotality analysis.

Everything here is a pure function of a bar collection (plus the added bar
and, where relevant, the root-origin trajectory): the crossing and bottleneck
events, pivotality of the added bar, the viable-location set, the root
multibar cluster and its boundary, root-edge statistics, and the two
escape-route edge sets after each crossing of a trajectory.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from stirtree.bars import Bar, LocationSet, merge_intervals
from stirtree.meander import EngineError, SpaceTimePoint, Trajectory, hit_level, run
from stirtree.tree import edge_from_index, path_to_root, vertex_to_str


@dataclass(frozen=True)
class EventRecord:
    """Per-(B, A) trial outcome of the crossing/bottleneck/pivot detectors."""

    crossed: bool
    bottleneck_edge: Optional[bytes]
    bottleneck_height: Optional[float]
    no_escape: Optional[bool]  # present only with a bottleneck
    pivot: str  # "on" | "off" | "neither"
    bottleneck_zone: Optional[str]  # "far" | "close", relative to depth n - 2*n1
    added_depth_index: int  # n minus the level of the added edge's child endpoint
    reached_plain: bool  # depth-n poles reached without the added bar
    reached_added: bool  # ... and with it

    CSV_FIELDS = (
        "crossed",
        "bottleneck_edge",
        "bottleneck_height",
        "no_escape",
        "pivot",
        "bottleneck_zone",
        "added_depth_index",
        "reached_plain",
        "reached_added",
    )

    def to_row(self, d: int) -> list:
        return [
            int(self.crossed),
            "" if self.bottleneck_edge is None else vertex_to_str(self.bottleneck_edge, d),
            "" if self.bottleneck_height is None else repr(self.bottleneck_height),
            "" if self.no_escape is None else int(self.no_escape),
            self.pivot,
            self.bottleneck_zone or "",
            self.added_depth_index,
            int(self.reached_plain),
            int(self.reached_added),
        ]


@dataclass(frozen=True)
class ClusterReport:
    """Root-connected cluster of edges carrying at least two bars."""

    cluster: frozenset
    boundary: frozenset  # examined candidates that fell short of two bars
    size: int
    single_bar_boundary_count: int
    truncated: bool  # the cluster reached depth n, so exploration was cut


@dataclass(frozen=True)
class RootStats:
    bar_free: bool  # no bar on any root edge
    low_gap: bool  # no root bar below height d**-0.5
    single_bar_edges: int  # root edges carrying exactly one bar
    confined_clusterless: bool  # empty root cluster and depth-n poles unreached


@dataclass(frozen=True)
class EscapeRoutes:
    static: frozenset  # structurally escape-ready path edges
    witnessed: frozenset  # trajectory-aware witnesses (parent not the root)
    escape_vertices: tuple  # (edge, lowest unvisited offspring of its parent)


def _crossed(traj: Trajectory, added: Bar) -> bool:
    return traj.covers(added.edge[:-1], added.height) or traj.covers(
        added.edge, added.height
    )


def _bottleneck(bars, added: Bar) -> Optional[Bar]:
    """Deepest root-path edge (to the added edge's parent) with a single bar.

    Only called when the crossing occurred, in which case every edge of that
    path carries at least one bar; a bare edge indicates an engine bug.
    """
    found = None
    for e in path_to_root(added.edge[:-1]):
        k = bars.count_on(e)
        if k == 0:
            raise EngineError(
                f"crossing occurred but path edge {e!r} carries no bar"
            )
        if k == 1:
            found = e
    if found is None:
        return None
    return Bar(found, bars.heights_on(found)[0])


def crossing_without_bottleneck(bars, added: Bar, traj: Trajectory) -> bool:
    """The crossing event with every path edge multiply covered."""
    if not _crossed(traj, added):
        return False
    return _bottleneck(bars, added) is None


def detect(bars, added: Bar, traj: Trajectory, n1: int = 1) -> EventRecord:
    """Classify one (B, A) sample, given the root trajectory of B.

    Reads the plain hit and the crossing from the root trajectory, runs
    the meander with the added bar, locates the bottleneck on the occupied
    root path, and decides the non-escape event by an explicit run from the
    bottleneck's parent joint with the three-way stop rule (root origin,
    depth-n poles, return to start); a plain return counts as escape failure.
    """
    shape = bars.shape
    n = shape.n
    reached_plain = traj.reached
    reached_added = hit_level(bars.with_added(added)).reached

    crossed = _crossed(traj, added)
    bn = _bottleneck(bars, added) if crossed else None

    no_escape = None
    zone = None
    if bn is not None:
        esc = run(
            bars,
            SpaceTimePoint(bn.edge[:-1], bn.height),
            level=n,
            origin=True,
        )
        no_escape = esc.outcome.kind == "hit_point"
        zone = "far" if len(bn.edge) <= n - 2 * n1 else "close"

    if not reached_plain and reached_added:
        pivot = "on"
    elif reached_plain and not reached_added:
        pivot = "off"
    else:
        pivot = "neither"

    return EventRecord(
        crossed=crossed,
        bottleneck_edge=None if bn is None else bn.edge,
        bottleneck_height=None if bn is None else bn.height,
        no_escape=no_escape,
        pivot=pivot,
        bottleneck_zone=zone,
        added_depth_index=n - len(added.edge),
        reached_plain=reached_plain,
        reached_added=reached_added,
    )


def multibar_cluster(bars) -> ClusterReport:
    """Breadth-first candidate exploration of the root's >=2-bar cluster.

    Candidates start as the root edges; an accepted candidate enlists its
    child edges.  The boundary is every examined candidate that carried
    fewer than two bars.
    """
    shape = bars.shape
    d, n = shape.d, shape.n
    queue: deque = deque(bytes((i,)) for i in range(d))
    accepted: list[bytes] = []
    rejected: list[bytes] = []
    singles = 0
    truncated = False
    while queue:
        e = queue.popleft()
        k = bars.count_on(e)
        if k >= 2:
            accepted.append(e)
            if len(e) < n:
                queue.extend(e + bytes((i,)) for i in range(d))
            else:
                truncated = True
        else:
            rejected.append(e)
            if k == 1:
                singles += 1
    return ClusterReport(
        cluster=frozenset(accepted),
        boundary=frozenset(rejected),
        size=len(accepted),
        single_bar_boundary_count=singles,
        truncated=truncated,
    )


def viable_locations(
    bars, trajectory: Trajectory, cluster: ClusterReport
) -> LocationSet:
    """Bar locations at which the added bar would realize
    crossing-without-bottleneck.

    An edge can contribute only if its root path consists of >=2-bar edges
    (it lies in the root cluster or on its boundary); it then contributes
    the visited heights of its two endpoint poles along the root
    trajectory.  ``cluster`` is ``multibar_cluster(bars)``.
    """
    cov = trajectory.coverage()
    out: dict[bytes, tuple[tuple[float, float], ...]] = {}
    for e in cluster.cluster | cluster.boundary:
        ivs = list(cov.get(e[:-1], ())) + list(cov.get(e, ()))
        if ivs:
            out[e] = merge_intervals(ivs)
    return LocationSet(bars.shape, out, validate=False)


def root_stats(bars, trajectory: Trajectory, cluster: ClusterReport) -> RootStats:
    """Root-edge statistics; ``cluster`` is ``multibar_cluster(bars)``."""
    shape = bars.shape
    root_edges = [bytes((i,)) for i in range(shape.d)]
    counts = [bars.count_on(e) for e in root_edges]
    cutoff = shape.d**-0.5
    low_gap = all(
        h >= cutoff for e in root_edges for h in bars.heights_on(e)
    )
    return RootStats(
        bar_free=not any(counts),
        low_gap=low_gap,
        single_bar_edges=sum(1 for k in counts if k == 1),
        confined_clusterless=cluster.size == 0 and not trajectory.reached,
    )


# --- escape-route edges ----------------------------------------------------


def _any_height_in_cyclic(heights, a: float, b: float) -> bool:
    """Any sorted height inside the open height-circle interval (a, b)?"""
    if b <= 1.0:
        i = bisect_right(heights, a)
        return i < len(heights) and heights[i] < b
    if bisect_right(heights, a) < len(heights):
        return True
    return bool(heights) and heights[0] < b - 1.0


def _coverage_overlaps_cyclic(ivs, a: float, b: float) -> bool:
    """Does a union of half-open intervals meet the open circle arc (a, b)?"""
    if b <= 1.0:
        return any(lo < b and a < hi for lo, hi in ivs)
    w = b - 1.0
    return any(a < hi or lo < w for lo, hi in ivs)


def _eval_routes(bars, cov: dict, tip: bytes) -> EscapeRoutes:
    """Evaluate both route sets along the root path to ``tip``.

    ``static`` needs no trajectory: a single bar, a bar-free sibling edge,
    and no joint on the parent pole within 1/d above the bar.  ``witnessed``
    replaces the joint condition by trajectory conditions: the parent pole
    unvisited in that window, the grandparent edge bar-free there, and some
    offspring pole of the parent never visited.  Edges whose parent is the
    root cannot witness.
    """
    shape = bars.shape
    d = shape.d
    window = 1.0 / d
    static: list[bytes] = []
    witnessed: list[bytes] = []
    escapes: list[tuple[bytes, bytes]] = []
    for e in path_to_root(tip):
        hs = bars.heights_on(e)
        if len(hs) != 1:
            continue
        s = hs[0]
        ep = e[:-1]
        hi = s + window
        sibling_free = any(
            bars.count_on(ep + bytes((i,))) == 0
            for i in range(d)
            if ep + bytes((i,)) != e
        )
        if sibling_free:
            pole_heights, _ = bars.pole(ep)
            if not _any_height_in_cyclic(pole_heights, s, hi):
                static.append(e)
        if ep:  # witnesses are defined only above the root edges
            if _coverage_overlaps_cyclic(cov.get(ep, ()), s, hi):
                continue
            if _any_height_in_cyclic(bars.heights_on(ep), s, hi):
                continue
            esc_vertex = None
            for i in range(d):
                c = ep + bytes((i,))
                # the tip pole holds the trajectory's current point, so it
                # counts as visited even with zero covered length
                if not cov.get(c) and c != tip:
                    esc_vertex = c
                    break
            if esc_vertex is None:
                continue
            witnessed.append(e)
            escapes.append((e, esc_vertex))
    return EscapeRoutes(frozenset(static), frozenset(witnessed), tuple(escapes))


def escape_routes(bars, trajectory: Trajectory) -> Iterator[EscapeRoutes]:
    """Yield both route sets after each bar crossing of a trajectory.

    Each set is evaluated on the coverage up to that crossing and along the
    root path to its landing vertex.  The coverage grows in place, keeping
    a scan of every crossing linear in the trajectory size.
    """
    cov: dict[bytes, list[tuple[float, float]]] = {}
    for (v, lo), (w, hi) in trajectory.steps.items():
        hi = hi or 1.0  # a rise ends at its successor's height, a wrap at 1
        if hi > lo:
            cov.setdefault(v, []).append((lo, hi))
        if w != v:  # a crossing: the tip is its landing vertex
            yield _eval_routes(bars, cov, w)


# --- conditional-law helpers ------------------------------------------------


def crossed_bars(trajectory: Trajectory) -> set[Bar]:
    """The bars the trajectory crossed: a crossing's edge is its longer
    endpoint."""
    return {
        Bar(max(v, w, key=len), h)
        for (v, _), (w, h) in trajectory.steps.items()
        if w != v
    }


def untouched_locations(bars, trajectory: Trajectory) -> LocationSet:
    """Bar locations none of whose joints lie on the trajectory.

    Computed from the half-open coverage, so the trajectory's terminal
    point (zero mass) is not excised; every uncrossed bar of the
    collection lies inside the set.  Iterates the whole edge set, so this
    is meant for small trees (statistical checks of the exploration law).
    """
    shape = bars.shape
    cov = trajectory.coverage()
    out: dict[bytes, tuple[tuple[float, float], ...]] = {}
    for i in range(shape.edge_count):
        e = edge_from_index(shape, i)
        touched = merge_intervals(list(cov.get(e[:-1], ())) + list(cov.get(e, ())))
        holes: list[tuple[float, float]] = []
        lo = 0.0
        for a, b in touched:
            if a > lo:
                holes.append((lo, a))
            lo = b
        if lo < 1.0:
            holes.append((lo, 1.0))
        if holes:
            out[e] = tuple(holes)
    return LocationSet(shape, out, validate=False)
