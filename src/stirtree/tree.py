"""Addressing and geometry of the rooted d-ary tree of finite depth.

Vertices are immutable byte strings over the alphabet ``{0, ..., d-1}``;
the root is the empty string.  An edge is addressed by its child vertex,
so ``e[:-1]`` is the parent endpoint and ``e`` itself the child endpoint.
The tree is never materialized: every operation is arithmetic on
addresses (Python ints, so |E| has no fixed range), which keeps trees far
past 2**64 vertices usable.  Memory is bounded where it is spent, by the
sampler's draw budget (``bars._DRAW_BUDGET``); the shape itself bounds only
the degree, by the byte-address format, and the depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

ROOT: bytes = b""

# Deepest tree accepted, checked before any power of d.  A lazy collection
# keeps its heights per barred edge, keyed by n-byte addresses, so filled to
# the draw budget with poles this deep (d = 2) it peaks near 1 GB, under the
# 1.5 GB a command may use, and at twice the depth over it; see
# bars._DRAW_BUDGET.
_MAX_DEPTH = 256

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

# One-byte child symbols: the children of v are ``v + s`` for the first d.
_SYMBOLS = tuple(bytes((i,)) for i in range(256))


class CapacityError(ValueError):
    """Raised when a shape is past the byte-address degree (255) or the depth
    bound (``_MAX_DEPTH``), when one collection's draws would go over the
    sampler's budget (``bars._DRAW_BUDGET``), or when the uniform added bar
    needs an edge index past the 2**63 range of its draw."""


@dataclass(frozen=True)
class TreeShape:
    """Parameters of the depth-n tree with offspring degree d."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"offspring degree must be >= 2, got {self.d}")
        if self.n < 1:
            raise ValueError(f"depth must be >= 1, got {self.n}")
        if self.d > 255:
            raise CapacityError("byte addressing supports degree <= 255")
        if self.n > _MAX_DEPTH:
            raise CapacityError(f"depth {self.n} is over the bound of {_MAX_DEPTH}")

    @cached_property
    def vertex_count(self) -> int:
        return (self.d ** (self.n + 1) - 1) // (self.d - 1)

    @cached_property
    def edge_count(self) -> int:
        """Total number of edges of the depth-n tree."""
        return self.d * (self.d**self.n - 1) // (self.d - 1)


def is_valid_edge(shape: TreeShape, e: bytes) -> bool:
    return 1 <= len(e) <= shape.n and all(sym < shape.d for sym in e)


def path_to_root(v: bytes) -> tuple[bytes, ...]:
    """Edges of the path from the root to v, ordered from the root outward."""
    return tuple(v[: k + 1] for k in range(len(v)))


def child_edges(v: bytes, d: int) -> list[bytes]:
    """The d edges below v, in symbol order, which is :func:`edge_key` order."""
    return [v + s for s in _SYMBOLS[:d]]


def edge_key(e: bytes) -> tuple[int, bytes]:
    """Sort key of the edge order: level-major, then byte order within a
    level, which is base-d order of the symbols."""
    return len(e), e


def edge_from_index(shape: TreeShape, idx: int) -> bytes:
    """The edge at position ``idx`` of the order :func:`edge_key` sorts by."""
    if not 0 <= idx < shape.edge_count:
        raise ValueError(f"edge index {idx} out of range")
    d = shape.d
    lvl = 1
    layer = d
    rem = idx
    while rem >= layer:
        rem -= layer
        layer *= d
        lvl += 1
    syms = bytearray(lvl)
    for k in range(lvl - 1, -1, -1):
        rem, syms[k] = divmod(rem, d)
    return bytes(syms)


def vertex_to_str(v: bytes, d: int) -> str:
    """Serialize an address as a separator-free digit string; root is 'ε'."""
    if d > len(_DIGITS):
        raise CapacityError("string serialization supports degree <= 36")
    if not v:
        return "ε"
    return "".join(_DIGITS[sym] for sym in v)


def vertex_from_str(s: str, d: int) -> bytes:
    if s == "ε":
        return ROOT
    out = bytes(_DIGITS.index(ch) for ch in s)
    if any(sym >= d for sym in out):
        raise ValueError(f"address {s!r} has symbols outside base {d}")
    return out
