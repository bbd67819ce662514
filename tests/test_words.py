"""Shuffle algebra and regularization."""

import math

import numpy as np
import pytest

from itermellin.ratfun import AffineForm
from itermellin.theta import make_builtin_theta
from itermellin.words import Letter, regularize, shuffle


def letters(n, theta=None, part="full"):
    theta = theta or make_builtin_theta("riemann")
    return tuple(Letter(theta, part, AffineForm.slot(i, n)) for i in range(n))


def random_word(rng, length, nslots=4):
    pool = [make_builtin_theta("riemann"), make_builtin_theta("eisenstein", 4)]
    return tuple(
        Letter(pool[int(rng.integers(0, 2))], "full", AffineForm.slot(int(rng.integers(0, nslots)), nslots))
        for _ in range(length)
    )


def combine(*scaled):
    """Formal sum of (coefficient, word sum) pairs; cancelled words drop out."""
    out = {}
    for k, ws in scaled:
        for w, c in ws.items():
            out[w] = out.get(w, 0) + k * c
    return {w: c for w, c in out.items() if c}


def total_terms(ws):
    return sum(abs(c) for c in ws.values())


def regularize_closed(word):
    """Closed shuffle form of the regularization, for cross-checking:
    sum over i of (-1)^(r-i) ((L1..L(i-1)) sh (Lr_poly..L(i+1)_poly)) . Li_tail."""
    word = tuple(word)
    if not word:
        return {(): 1}
    r = len(word)
    blocks = []
    for i in range(1, r + 1):
        prefix = word[: i - 1]
        suffix = tuple(l.with_part("poly") for l in reversed(word[i:]))
        tailed = word[i - 1].with_part("tail")
        block = {w + (tailed,): c for w, c in shuffle(prefix, suffix).items()}
        blocks.append(((-1) ** (r - i), block))
    return combine(*blocks)


class TestShuffle:
    def test_two_singletons(self):
        a, b = letters(2)
        ws = shuffle((a,), (b,))
        assert ws == {(a, b): 1, (b, a): 1}

    def test_one_two(self):
        a, b, c = letters(3)
        ws = shuffle((a,), (b, c))
        assert ws == {(a, b, c): 1, (b, a, c): 1, (b, c, a): 1}

    def test_unit(self):
        v = letters(2)
        assert shuffle((), v) == {v: 1}

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    def test_term_count_binomial(self, p, q):
        word = letters(p + q)
        ws = shuffle(word[:p], word[p:])
        assert total_terms(ws) == math.comb(p + q, p)

    def test_commutative_associative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_word(rng, int(rng.integers(0, 3)))
            v = random_word(rng, int(rng.integers(1, 3)))
            w = random_word(rng, int(rng.integers(1, 3)))
            assert shuffle(u, v) == shuffle(v, u)
            lhs = combine(*((c, shuffle(word, w)) for word, c in shuffle(u, v).items()))
            rhs = combine(*((c, shuffle(u, word)) for word, c in shuffle(v, w).items()))
            assert lhs == rhs

    def test_repeated_letters_merge(self):
        a, b = letters(2)
        assert shuffle((a,), (a,)) == {(a, a): 2}
        assert shuffle((a, b), (a,)) == {(a, b, a): 1, (a, a, b): 2}

    def test_multiplicities_sum_to_binomial(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            # two slots and two thetas: letters repeat often
            u = random_word(rng, int(rng.integers(0, 4)), nslots=2)
            v = random_word(rng, int(rng.integers(0, 4)), nslots=2)
            assert total_terms(shuffle(u, v)) == math.comb(len(u) + len(v), len(u))


class TestRegularize:
    def test_single_letter(self):
        (a,) = letters(1)
        assert regularize((a,)) == {(a.with_part("tail"),): 1}

    def test_two_letters(self):
        a, b = letters(2)
        got = regularize((a, b))
        want = {
            (a, b.with_part("tail")): 1,
            (b.with_part("poly"), a.with_part("tail")): -1,
        }
        assert got == want

    def test_three_letters_four_terms(self):
        a, b, c = letters(3)
        got = regularize((a, b, c))
        want = {
            (a, b, c.with_part("tail")): 1,
            (a, c.with_part("poly"), b.with_part("tail")): -1,
            (c.with_part("poly"), a, b.with_part("tail")): -1,
            (c.with_part("poly"), b.with_part("poly"), a.with_part("tail")): 1,
        }
        assert got == want

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_recursion_matches_closed_form(self, length):
        rng = np.random.default_rng(length)
        for _ in range(5):
            word = random_word(rng, length)
            assert regularize(word) == regularize_closed(word)

    def test_every_word_ends_in_tail(self):
        rng = np.random.default_rng(9)
        for length in (1, 2, 3, 4):
            word = random_word(rng, length)
            for w in regularize(word):
                assert w[-1].part == "tail"
                assert all(l.part in ("full", "poly") for l in w[:-1])

    def test_rejects_non_full(self):
        (a,) = letters(1)
        with pytest.raises(ValueError):
            regularize((a.with_part("tail"),))

    def test_coefficient_sums(self):
        """Of r distinct letters, the cut at i gives C(r-1, i-1) distinct
        shuffles of sign (-1)^(r-i): the coefficients sum to 1 at r = 1 and
        to 0 above, and their absolute values to 2^(r-1)."""
        for r in range(1, 7):
            coeffs = regularize(letters(r)).values()
            assert sum(coeffs) == (1 if r == 1 else 0)
            assert sum(abs(c) for c in coeffs) == 2 ** (r - 1)
