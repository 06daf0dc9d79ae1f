"""Exact seed -> value pins for every estimator that draws lazily.

``GOLDEN_SIM_ROW`` pins one lazy draw of ``sim``; these pin the lazy draw
order of every estimator: which edges are queried, in which order, and from
which counter block.  Any change to that order changes at least one of these
values, so a change that claims bit-identical draws must leave them alone.
The trial counts are small; the whole module runs in about a second.
"""

import functools

import pytest

from stirtree.estimators import (
    _count,
    _russo_count,
    _russo_sums,
    bare_root_gain_check,
    critical_scan,
    estimate_pn,
    russo_check,
    tail_checks,
    z_estimate,
)
from stirtree.tree import TreeShape


@pytest.mark.parametrize(
    "d, n, t, trials, seed, hits",
    [(8, 6, 0.145, 1500, 3, 417), (2, 2, 0.5, 4000, 5, 1598)],
)
def test_estimate_pn_hit_counts(d, n, t, trials, seed, hits):
    est = estimate_pn(TreeShape(d, n), t, trials, seed)
    assert est.mean == hits / trials


def test_russo_pivotal_frequencies():
    res = russo_check(TreeShape(2, 2), 0.5, 0.05, 2000, 6)
    assert (res.p_on, res.p_off) == (353 / 2000, 73 / 2000)


def test_russo_tallies():
    # on, off, sum b, sum b^2, sum a*b and the second difference: the minus
    # run enters through b and the second difference only
    trial = functools.partial(_russo_count, 0.05)
    tally = _count(trial, "russo", TreeShape(2, 2), 0.5, 6, 2000, 1)
    assert _russo_sums(tally) == (353, 73, 159, 223, 14, 17)


def test_scan_rows():
    # every row of a coupled three-rate scan: the rates below t_max are read
    # off thinnings of each trial's one draw
    shapes = [TreeShape(8, n) for n in (4, 6, 8)]
    table = critical_scan(shapes, [0.13, 0.145, 0.16], 1500, 3)
    hits = [452, 542, 638, 327, 424, 532, 231, 337, 466]
    assert [row[3] for row in table.rows] == [k / 1500 for k in hits]


def test_z_estimate_mean():
    est = z_estimate(TreeShape(16, 4), 1 / 16, 600, 8)
    assert est.mean == 13.695596077543687


def test_bare_root_gain():
    gain, ref, _z = bare_root_gain_check(TreeShape(3, 4), 0.3, 1000, 9)
    assert (gain.mean, ref.mean) == (238 / 1000, 225 / 1000)


def test_cluster_tail_counts():
    rep = tail_checks(TreeShape(16, 4), 1 / 16, 100_000, 10, level_trials=0)
    emp = [row.empirical for row in rep.cluster_rows]
    assert emp == [k / 100_000 for k in (2921, 122, 2, 0)]
