"""Tree addressing: counts, paths, the edge order, serialization."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from stirtree.bars import LocationSet
from stirtree.tree import (
    ROOT,
    CapacityError,
    TreeShape,
    child_edges,
    edge_from_index,
    edge_key,
    is_valid_edge,
    path_to_root,
    vertex_from_str,
    vertex_to_str,
)


def test_edge_count_examples():
    assert TreeShape(2, 1).edge_count == 2
    # closed form d/(d-1)(d^n - 1) at (2, 2)
    assert TreeShape(2, 2).edge_count == 6
    # independent oracle: enumerate level sizes d^(i+1)
    assert TreeShape(3, 2).edge_count == sum(3 ** (i + 1) for i in range(2)) == 12


def test_vertex_count_and_level_partition():
    for d, n in [(2, 3), (3, 2), (5, 4)]:
        shape = TreeShape(d, n)
        assert shape.vertex_count == (d ** (n + 1) - 1) // (d - 1)
        # level i holds d**i vertices; edge layer i (parent at level i) d**(i+1)
        assert sum(d**i for i in range(n + 1)) == shape.vertex_count
        assert sum(d ** (i + 1) for i in range(n)) == shape.edge_count


def test_capacity_guard():
    with pytest.raises(CapacityError):
        TreeShape(2, 257)  # one past the depth bound
    with pytest.raises(CapacityError):
        TreeShape(256, 3)  # past the one-byte address symbols
    with pytest.raises(ValueError):
        TreeShape(1, 3)
    with pytest.raises(ValueError):
        TreeShape(3, 0)
    assert TreeShape(255, 256).edge_count > 2**2000  # the deepest, widest shape


def test_path_to_root_examples():
    assert path_to_root(ROOT) == ()
    assert path_to_root(b"\x00") == (b"\x00",)
    assert path_to_root(b"\x00\x01") == (b"\x00", b"\x00\x01")


@given(st.lists(st.integers(0, 2), min_size=0, max_size=6))
@settings(max_examples=100, deadline=None)
def test_path_structure(symbols):
    v = bytes(symbols)
    path = path_to_root(v)
    assert len(path) == len(v)
    for i, e in enumerate(path):
        assert len(e) - 1 == i  # the parent endpoint of path edge i is at level i
        assert e[:-1] == (ROOT if i == 0 else path[i - 1])
    if v:
        assert path[-1] == v and path_to_root(v[:-1]) == path[:-1]


@pytest.mark.parametrize("d, n", [(2, 1), (2, 6), (3, 4), (6, 3)])
def test_edge_from_index_lists_every_edge_in_key_order(d, n):
    shape = TreeShape(d, n)
    edges = [edge_from_index(shape, i) for i in range(shape.edge_count)]
    # every address once: level by level, each level in lexicographic order
    every = [
        bytes(syms)
        for lvl in range(1, n + 1)
        for syms in itertools.product(range(d), repeat=lvl)
    ]
    assert edges == every
    assert edges == sorted(edges, key=edge_key)
    # each level lists the children of the level above, parent by parent
    levels = [[ROOT]] + [[e for e in edges if len(e) == lvl] for lvl in range(1, n + 1)]
    for lvl in range(n):
        assert levels[lvl + 1] == [c for v in levels[lvl] for c in child_edges(v, d)]
    assert all(is_valid_edge(shape, e) for e in edges)
    shuffled = edges[:]
    random.Random(d * n).shuffle(shuffled)
    locs = LocationSet(shape, {e: ((0.0, 0.5),) for e in shuffled})
    assert list(locs.intervals) == edges


def test_vertex_serialization():
    assert vertex_to_str(ROOT, 2) == "ε"
    assert vertex_to_str(b"\x00\x01", 2) == "01"
    assert vertex_from_str("ε", 2) == ROOT
    assert vertex_from_str("01", 2) == b"\x00\x01"
    # degrees above ten use base-36 digits, still separator-free
    assert vertex_to_str(bytes([15, 3]), 16) == "f3"
    assert vertex_from_str("f3", 16) == bytes([15, 3])
    with pytest.raises(ValueError):
        vertex_from_str("3", 2)
