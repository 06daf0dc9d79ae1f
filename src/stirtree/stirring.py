"""Permutation view of the bar collection after unit time.

Two independent routes compute the same permutation: the meander engine,
one run per cycle read at its wraps, and a pure-algebra oracle that
composes the bar transpositions in increasing height order.  Their exact
agreement on random instances is the primary correctness check for the
engine; the two paths deliberately share no trajectory code.  The oracle is
the engine's reference only: the root's cycle is read from the engine.
"""

from __future__ import annotations

from stirtree.meander import SpaceTimePoint, run


class Permutation:
    """Sparse bijection on vertices; identity outside the stored support."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[bytes, bytes] | None = None) -> None:
        self._map = {v: w for v, w in (mapping or {}).items() if v != w}
        if len(set(self._map.values())) != len(self._map):
            raise ValueError("mapping is not injective")
        if set(self._map.values()) != set(self._map):
            raise ValueError("support is not closed under the mapping")

    def __call__(self, v: bytes) -> bytes:
        return self._map.get(v, v)

    def support(self) -> frozenset:
        return frozenset(self._map)

    def cycles(self) -> list[tuple[bytes, ...]]:
        """Nontrivial cycles, each starting at its least vertex."""
        seen = set()
        out = []
        for v in sorted(self._map):
            if v in seen:
                continue
            cyc = [v]
            w = self._map[v]
            while w != v:
                seen.add(w)
                cyc.append(w)
                w = self._map[w]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._map == other._map


def transposition_oracle(bars) -> Permutation:
    """Compose the transpositions (parent child) of all bars, lowest first.

    Pure permutation algebra over the height-sorted bar list; the composition
    order matches the meander's single upward sweep of the unit of time.
    """
    items = []
    for e in bars.edges_with_bars():
        for h in bars.heights_on(e):
            items.append((h, e))
    items.sort()
    forward: dict[bytes, bytes] = {}  # current permutation sigma
    inverse: dict[bytes, bytes] = {}
    for _, e in items:
        a, b = e[:-1], e  # parent, child endpoints
        va = inverse.get(a, a)
        vb = inverse.get(b, b)
        forward[va], forward[vb] = b, a
        inverse[a], inverse[b] = vb, va
    return Permutation(forward)


def orbit(bars, v: bytes) -> tuple[bytes, ...]:
    """Cycle of v under the stirring permutation, starting at v.

    One engine run from (v, 0) with no stop target ends only on its
    return to the start.  It wraps at whole times only, the k-th time onto
    (sigma^k(v), 0), and bar heights are > 0, so the cycle is the run's
    states at height 0: the start, then each wrap's successor but the
    last, which is the start again.  The engine's revisit, crossing-count
    and wrap-count guards bound the run.
    """
    steps = run(bars, SpaceTimePoint(v, 0.0)).steps
    return tuple(w for w, h in steps if h == 0.0)


def stirring_permutation(bars) -> Permutation:
    """Unit-time stirring permutation computed through the meander engine.

    Reads one :func:`orbit` per cycle, from each vertex incident to a bar
    that no earlier orbit mapped; untouched vertices are fixed points.  Must
    equal the oracle exactly.
    """
    support = set()
    for e in bars.edges_with_bars():
        support.add(e)
        support.add(e[:-1])
    mapping: dict[bytes, bytes] = {}
    for v in sorted(support):
        if v not in mapping:
            cyc = orbit(bars, v)
            mapping.update(zip(cyc, cyc[1:] + cyc[:1]))
    return Permutation(mapping)
