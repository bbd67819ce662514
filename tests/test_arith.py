"""Exact coefficient arithmetic."""

from fractions import Fraction

import pytest

from itermellin.arith import (
    bernoulli,
    divisor_sigma,
    euler_product_coeffs,
    ramanujan_tau,
)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(3) == 0


def test_divisor_sigma():
    assert divisor_sigma(1, 6) == 12
    assert divisor_sigma(3, 4) == 1 + 8 + 64
    assert divisor_sigma(0, 12) == 6
    assert divisor_sigma(1, 0) == 0


def test_tau_against_direct_product():
    """Expand q prod (1-q^n)^24 to order 10 by direct polynomial
    multiplication, independently of the pentagonal-number route."""
    nmax = 10
    poly = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        # multiply by (1 - q^n)^24 term by term
        for _ in range(24):
            nxt = poly[:]
            for i in range(nmax + 1 - n):
                nxt[i + n] -= poly[i]
            poly = nxt
    direct = [poly[m - 1] for m in range(1, nmax + 1)]
    assert direct == [ramanujan_tau(n) for n in range(1, nmax + 1)]
    assert ramanujan_tau(2) == -24


def test_tau_multiplicativity():
    assert ramanujan_tau(6) == ramanujan_tau(2) * ramanujan_tau(3)
    assert ramanujan_tau(4) == ramanujan_tau(2) ** 2 - 2**11


def test_euler_product_pentagonal():
    coeffs = euler_product_coeffs(12)
    assert coeffs[:13] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_tau_rejects_nonpositive():
    with pytest.raises(ValueError):
        ramanujan_tau(0)
