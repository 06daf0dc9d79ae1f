"""The two-sided one-sample Kolmogorov–Smirnov p-value with numpy alone.

``uniform_pvalue`` gives the p-value of scipy 1.17.1's
``kstest(x, "uniform")``: the same statistic and the same choice of method
per input.  It serves ``verify``'s conditional and exploration checks,
whose pooled positions are U[0, 1) under their laws.  It reads the
distribution of the statistic D_n, dispatched as in Simard & L'Ecuyer,
"Computing the two-sided Kolmogorov-Smirnov distribution", J. Stat. Softw.
39(11) (2011): the Ruben–Gambino ends, twice the one-sided Smirnov tail,
the Durbin matrix in the form of Marsaglia, Tsang & Wang, "Evaluating
Kolmogorov's distribution", J. Stat. Softw. 8(18) (2003), and the
Pelz–Good expansion.  Durbin's matrix also covers the small-n region where
scipy runs the Pomeranz recursion; both are exact.  The methods follow
scipy's ``stats/_ksstats.py`` (BSD-3-Clause).
"""

from __future__ import annotations

import math

import numpy as np

# rescaling step of the Durbin matrix power, 2**128
_SCALE_EXP = 128
_SCALE = 2.0**_SCALE_EXP


def uniform_pvalue(x) -> float:
    """p-value of the two-sided one-sample KS test of ``x`` against U[0, 1)."""
    x = np.clip(np.sort(np.asarray(x, dtype=float)), 0.0, 1.0)
    n = len(x)
    d_plus = float(np.max(np.arange(1.0, n + 1) / n - x))
    d_minus = float(np.max(x - np.arange(0.0, n) / n))
    return _kolmogorov_sf(max(d_plus, d_minus), n)


def _kolmogorov_sf(d: float, n: int) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic D_n."""
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:  # Ruben–Gambino: P(D_n < d) = n!/n^n (2t - 1)^n
        return _clip(1.0 - np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1)))
    if t >= n - 1:  # Ruben–Gambino
        return _clip(2 * (1.0 - d) ** n)
    if d >= 0.5:
        return _clip(2 * _smirnov_sf(n, d))
    nd2 = t * d
    if n <= 140:
        if nd2 <= 4:
            return _clip(1.0 - _durbin_cdf(n, d))
        return _clip(2 * _smirnov_sf(n, d))
    if nd2 >= 370.0:
        return 0.0
    if nd2 >= 2.2:
        return _clip(2 * _smirnov_sf(n, d))
    if n <= 100_000 and n * d**1.5 <= 1.4:
        return _clip(1.0 - _durbin_cdf(n, d))
    return _clip(1.0 - _pelz_good_cdf(n, d))


def _clip(p: float) -> float:
    return float(min(max(p, 0.0), 1.0))


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) from the k-th diagonal entry of n!/n^n · H^n (Durbin).

    With d = (k - e)/n, 0 <= e < 1, H is the (2k-1)-square matrix of
    Marsaglia, Tsang & Wang; its power is taken by squaring, rescaled by
    2**128 whenever the entry grows past it.
    """
    k = math.ceil(n * d)
    e = k - n * d
    m = 2 * k - 1
    powers = np.arange(1, m + 1)
    v = 1.0 - e**powers
    w = np.empty(m)  # w[j] = 1/j!
    fac = 1.0
    for j in powers:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tail = max(2 * e - 1.0, 0) ** m - 2 * e**m
    v[-1] = (1.0 + tail) * fac
    H = np.zeros((m, m))
    for i in range(1, m):
        H[i - 1 :, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = v[::-1]
    power = np.eye(m)
    expo = h_expo = 0
    left = n
    while left:
        if left % 2:
            power = power @ H
            expo += h_expo
        H = H @ H
        h_expo *= 2
        if abs(H[k - 1, k - 1]) > _SCALE:
            H /= _SCALE
            h_expo += _SCALE_EXP
        left //= 2
    p = float(power[k - 1, k - 1])
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if abs(p) < 1.0 / _SCALE:
            p *= _SCALE
            expo -= _SCALE_EXP
    return _clip(math.ldexp(p, expo))


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_n < d) by the Pelz–Good expansion of the Li-Chien/Korolyuk series."""
    z = math.sqrt(n) * d
    z2, z3, z4, z6 = z**2, z**3, z**4, z**6
    qlog = -math.pi**2 / 8 / z2
    if qlog < -708:
        return 0.0
    q = math.exp(qlog)
    pi2, pi4, pi6 = math.pi**2, math.pi**4, math.pi**6
    k1a, k1b = -z2, pi2 / 4
    k2a = 6 * z6 + 2 * z4
    k2b = (2 * z4 - 5 * z2) * pi2 / 4
    k2c = pi4 * (1 - 2 * z2) / 16
    k3d = pi6 * (5 - 30 * z2) / 64
    k3c = pi4 * (-60 * z2 + 212 * z4) / 16
    k3b = pi2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z**8
    terms = np.zeros(4)
    kmax = math.ceil(16 * z / math.pi)
    for k in range(kmax, 0, -1):  # Horner in q^8k over the odd m = 2k - 1
        m2 = (2 * k - 1) ** 2
        terms *= q ** (8 * k)
        terms += (
            1.0,
            k1a + k1b * m2,
            k2a + k2b * m2 + k2c * m2**2,
            k3a + k3b * m2 + k3c * m2**2 + k3d * m2**3,
        )
    sqrt2pi = math.sqrt(2 * math.pi)
    terms *= q
    terms *= sqrt2pi
    terms /= (z, 6 * z4, 72 * z**7, 6480 * z**10)
    q = math.exp(-pi2 / 2 / z2)
    k_all = np.arange(kmax, 0, -1)
    k2 = k_all**2
    qk = q**k2
    terms[2] += np.sum(k2 * qk) * (pi2 * sqrt2pi / (-36 * z3))
    r3z, kpi = math.sqrt(3) * z, math.pi * k_all
    k3 = np.sum((r3z + kpi) * (r3z - kpi) * k2 * qk)
    terms[3] += k3 * (pi2 * sqrt2pi / (216 * z6))
    return float(sum(terms / np.power(float(n), np.arange(4) / 2.0)))


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d), the one-sided tail, by the Birnbaum–Tingey sum.

    d·Σ_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1) over j <= n(1 - d):
    every term is positive, and each is taken in log space as a binomial
    probability in Loader's saddle-point form, so no large logs cancel.
    """
    j = np.arange(1, math.floor(n * (1 - d)) + 1, dtype=float)
    rest = (n - j) - n * d  # n(1 - d - j/n), the mean count of the n - j
    j, rest = j[rest > 0], rest[rest > 0]
    log_terms = (
        0.5 * np.log(n / (2 * math.pi * j * (n - j)))
        + _stirlerr(np.float64(n)) - _stirlerr(j) - _stirlerr(n - j)
        - _bd0(j, n * d + j) - _bd0(n - j, rest)
        - np.log(d + j / n)
    )
    log_terms = np.append(log_terms, n * math.log1p(-d) - math.log(d))  # j = 0
    top = log_terms.max()
    return d * math.exp(top) * math.fsum(np.exp(log_terms - top))


_STIRLERR_SMALL = np.array(
    [0.0] + [
        math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
        for k in range(1, 16)
    ]
)


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """log(k!) - log(√(2π k) (k/e)^k), for integer-valued k >= 1."""
    k = np.asarray(k, dtype=float)
    k2 = k * k
    series = (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / k2) / k2) / k2) / k2
    ) / k
    small = k <= 15
    return np.where(small, _STIRLERR_SMALL[np.where(small, k, 0).astype(int)], series)


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """x·log(x/mean) + mean - x, by its series where x is near the mean."""
    near = np.abs(x - mean) < 0.1 * (x + mean)
    v = (x - mean) / (x + mean)
    series = (x - mean) * v
    term = 2 * x * v
    for i in range(1, 12):  # |v| < 0.1: the terms shrink by 100 a step
        term = term * v * v
        series = series + term / (2 * i + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = x * np.log(x / mean) + mean - x
    return np.where(near, series, direct)
