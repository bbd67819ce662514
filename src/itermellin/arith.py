"""Exact integer and rational arithmetic shared by theta constructors and oracles.

Everything here returns Python ints or fractions.Fraction; nothing is ever
rounded.  Coefficient tables are memoized and extended on demand.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

_lock = threading.Lock()


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
    row = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        binom = 1  # C(m+1, j) built incrementally
        for j in range(m):
            acc += binom * row[j]
            binom = binom * (m + 1 - j) // (j + 1)
        row.append(-acc / (m + 1))
    return row[n]


@lru_cache(maxsize=None)
def divisor_sigma(power: int, n: int) -> int:
    """sigma_power(n) = sum of d**power over divisors d of n; 0 for n <= 0."""
    if n <= 0:
        return 0
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**power
            e = n // d
            if e != d:
                total += e**power
        d += 1
    return total


def euler_product_coeffs(nmax: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n) up to q^nmax (pentagonal numbers)."""
    coeffs = [0] * (nmax + 1)
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > nmax and g2 > nmax:
            break
        sign = -1 if k % 2 else 1
        if g1 <= nmax:
            coeffs[g1] = sign
        if g2 <= nmax:
            coeffs[g2] = sign
        k += 1
    return coeffs


def _poly_mul(a: list[int], b: list[int], nmax: int) -> list[int]:
    out = [0] * (nmax + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        top = min(len(b), nmax + 1 - i)
        for j in range(top):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


_tau_cache: list[int] = []


def ramanujan_tau(n: int) -> int:
    """tau(n) from the product expansion q * prod (1-q^m)^24, exact integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with _lock:
        if n > len(_tau_cache):
            nmax = max(2 * n, 64)
            eta = euler_product_coeffs(nmax)
            e2 = _poly_mul(eta, eta, nmax)
            e4 = _poly_mul(e2, e2, nmax)
            e8 = _poly_mul(e4, e4, nmax)
            e16 = _poly_mul(e8, e8, nmax)
            e24 = _poly_mul(e16, e8, nmax)
            _tau_cache.clear()
            _tau_cache.extend(e24[m - 1] for m in range(1, nmax + 1))
    return _tau_cache[n - 1]
