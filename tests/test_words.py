"""Shuffle algebra and regularization."""

import numpy as np
import pytest

from itermellin.ratfun import AffineForm
from itermellin.theta import make_builtin_theta
from itermellin.words import (
    Letter,
    WordSum,
    regularize,
    regularize_closed,
    shuffle,
)


def letters(n, theta=None, part="full"):
    theta = theta or make_builtin_theta("riemann")
    return tuple(Letter(theta, part, AffineForm.slot(i, n)) for i in range(n))


def random_word(rng, length, nslots=4):
    pool = [make_builtin_theta("riemann"), make_builtin_theta("eisenstein", 4)]
    return tuple(
        Letter(pool[int(rng.integers(0, 2))], "full", AffineForm.slot(int(rng.integers(0, nslots)), nslots))
        for _ in range(length)
    )


class TestShuffle:
    def test_two_singletons(self):
        a, b = letters(2)
        ws = shuffle((a,), (b,))
        assert ws == WordSum({(a, b): 1, (b, a): 1})

    def test_one_two(self):
        a, b, c = letters(3)
        ws = shuffle((a,), (b, c))
        assert ws == WordSum({(a, b, c): 1, (b, a, c): 1, (b, c, a): 1})

    def test_unit(self):
        v = letters(2)
        assert shuffle((), v) == WordSum.single(v)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    def test_term_count_binomial(self, p, q):
        from itermellin.arith import binomial

        word = letters(p + q)
        ws = shuffle(word[:p], word[p:])
        assert ws.total_terms() == binomial(p + q, p)

    def test_commutative_associative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_word(rng, int(rng.integers(0, 3)))
            v = random_word(rng, int(rng.integers(1, 3)))
            w = random_word(rng, int(rng.integers(1, 3)))
            assert shuffle(u, v) == shuffle(v, u)
            lhs = WordSum()
            for word, c in shuffle(u, v).terms.items():
                lhs = lhs + shuffle(word, w).scale(c)
            rhs = WordSum()
            for word, c in shuffle(v, w).terms.items():
                rhs = rhs + shuffle(u, word).scale(c)
            assert lhs == rhs

    def test_repeated_letters_merge(self):
        a, b = letters(2)
        assert shuffle((a,), (a,)) == WordSum({(a, a): 2})
        assert shuffle((a, b), (a,)) == WordSum({(a, b, a): 1, (a, a, b): 2})

    def test_multiplicities_sum_to_binomial(self):
        from itermellin.arith import binomial

        rng = np.random.default_rng(11)
        for _ in range(20):
            # two slots and two thetas: letters repeat often
            u = random_word(rng, int(rng.integers(0, 4)), nslots=2)
            v = random_word(rng, int(rng.integers(0, 4)), nslots=2)
            assert shuffle(u, v).total_terms() == binomial(len(u) + len(v), len(u))


class TestRegularize:
    def test_single_letter(self):
        (a,) = letters(1)
        assert regularize((a,)) == WordSum.single((a.with_part("tail"),))

    def test_two_letters(self):
        a, b = letters(2)
        got = regularize((a, b))
        want = WordSum(
            {
                (a, b.with_part("tail")): 1,
                (b.with_part("poly"), a.with_part("tail")): -1,
            }
        )
        assert got == want

    def test_three_letters_four_terms(self):
        a, b, c = letters(3)
        got = regularize((a, b, c))
        want = WordSum(
            {
                (a, b, c.with_part("tail")): 1,
                (a, c.with_part("poly"), b.with_part("tail")): -1,
                (c.with_part("poly"), a, b.with_part("tail")): -1,
                (c.with_part("poly"), b.with_part("poly"), a.with_part("tail")): 1,
            }
        )
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
            for w, _ in regularize(word).terms.items():
                assert w[-1].part == "tail"
                assert all(l.part in ("full", "poly") for l in w[:-1])

    def test_rejects_non_full(self):
        (a,) = letters(1)
        with pytest.raises(ValueError):
            regularize((a.with_part("tail"),))

    def test_linearity(self):
        a, b = letters(2)
        lhs = regularize((a, b)) + regularize((b, a)).scale(2)
        rhs = regularize((a, b)) + regularize((b, a)) + regularize((b, a))
        assert lhs == rhs
