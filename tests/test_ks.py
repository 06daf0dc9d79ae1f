"""The in-package KS p-values against scipy, and verify's KS checks without it.

scipy is the reference here only: the package itself needs numpy alone.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import stirtree
from stirtree import ks

RTOL = 1e-9


def _samples(seed, n1, n2, shift=0.0):
    rng = np.random.default_rng(seed)
    return rng.exponential(size=n1), rng.exponential(size=n2) + shift


def _with_ties(a, b):
    return np.round(a, 1), np.round(b, 1)


def _truncated(a, b):
    # the shift check's runs that hit depth n first enter as +inf
    return np.where(a > 1.5, np.inf, a), np.where(b > 1.5, np.inf, b)


TWO_SAMPLE = {
    "equal sizes": _samples(1, 60, 60, 0.3),
    "equal sizes, large": _samples(2, 2000, 2000, 0.05),
    "sizes over 10 000": _samples(5, 12_000, 12_000, 0.02),
    "ties": _with_ties(*_samples(6, 90, 90, 0.1)),
    "+inf entries": _truncated(*_samples(8, 500, 500, 0.05)),
    "one in each": ([0.5], [0.25]),
}


@pytest.mark.parametrize("name", TWO_SAMPLE)
def test_two_sample_pvalue_matches_scipy(name):
    stats = pytest.importorskip("scipy.stats")
    a, b = TWO_SAMPLE[name]
    want = stats.ks_2samp(a, b).pvalue
    assert ks.two_sample_pvalue(a, b) == pytest.approx(want, rel=RTOL, abs=0)


# (n, d) per region of P(D_n >= d), in _kolmogorov_sf's order of tests
ONE_SAMPLE = {
    "n·d <= 1/2": [(10, 0.04), (1000, 0.0004)],
    "d >= 1": [(10, 1.0)],
    # n!/n^n (2n·d - 1)^n underflows past n = 140, where scipy takes its log
    "n·d <= 1": [(5, 0.19), (10, 0.08), (1000, 0.0008), (200_000, 4e-6)],
    "n·d >= n - 1": [(10, 0.92), (500, 0.999)],
    "d >= 0.5": [(10, 0.6), (1000, 0.5)],
    "n <= 140, Durbin": [(50, 0.1), (140, 0.07)],
    "n <= 140, Pomeranz in scipy": [(50, 0.2), (140, 0.16), (20, 0.44)],
    "n <= 140, Smirnov": [(50, 0.35), (140, 0.3)],
    "n·d² >= 370": [(10_000, 0.2)],
    "n·d² >= 2.2": [(1000, 0.05), (200_000, 0.01)],
    "n > 140, Durbin": [(1000, 0.01), (100_000, 0.0005)],
    "Pelz–Good": [(1000, 0.03), (150_000, 0.003), (200_000, 0.002)],
}


@pytest.mark.parametrize("region", ONE_SAMPLE)
def test_kolmogorov_sf_matches_scipy(region):
    stats = pytest.importorskip("scipy.stats")
    for n, d in ONE_SAMPLE[region]:
        want = stats.kstwo.sf(d, n)
        assert ks._kolmogorov_sf(d, n) == pytest.approx(want, rel=RTOL, abs=0), (n, d)


# P(D_n < d) where the p-value is 1 - it: past n = 140 the p-value is near
# 1, so the cdf itself is compared
CDF_METHODS = [
    (ks._durbin_cdf, ONE_SAMPLE["n <= 140, Durbin"]),
    (ks._durbin_cdf, ONE_SAMPLE["n <= 140, Pomeranz in scipy"]),
    (ks._durbin_cdf, ONE_SAMPLE["n > 140, Durbin"]),
    (ks._pelz_good_cdf, ONE_SAMPLE["Pelz–Good"] + [(150_000, 0.0004)]),
]


@pytest.mark.parametrize("method, points", CDF_METHODS)
def test_cdf_methods_match_scipy(method, points):
    stats = pytest.importorskip("scipy.stats")
    for n, d in points:
        want = stats.kstwo.cdf(d, n)
        assert method(n, d) == pytest.approx(want, rel=RTOL, abs=0), (n, d)


@pytest.mark.parametrize("n", [1, 7, 140, 600, 2000, 200_000])
@pytest.mark.parametrize("power", [1.0, 1.05])
def test_uniform_pvalue_matches_scipy(n, power):
    stats = pytest.importorskip("scipy.stats")
    x = np.random.default_rng(n).random(n) ** power
    want = stats.kstest(x, "uniform").pvalue
    assert ks.uniform_pvalue(x) == pytest.approx(want, rel=RTOL, abs=0)


def test_empty_sample_is_refused():
    with pytest.raises(ValueError):
        ks.two_sample_pvalue([], [1.0])


def test_unequal_sizes_are_refused():
    with pytest.raises(ValueError):
        ks.two_sample_pvalue([0.5, 0.25], [1.0])


_SCIPY_BLOCKED = textwrap.dedent(
    """
    import sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")

    sys.meta_path.insert(0, NoScipy())
    from stirtree.verify import run_suite

    results = run_suite(1, trials=200, only=("shift", "conditional", "exploration"))
    for res in results:
        print(res.line())
    assert all(res.passed for res in results)
    assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
    """
)


def test_ks_checks_run_with_scipy_blocked():
    src = str(Path(stirtree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("[PASS]") == 3
