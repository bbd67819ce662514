"""Panel quadrature of iterated integrals over [1, infinity)."""

import math

import numpy as np
import pytest
from scipy.special import gammaincc, gamma as gamma_fn

from itermellin.quadrature import (
    EvalParams,
    QuadratureError,
    composition_split,
    doubling_edges,
    letter_exponents,
    tail_word_integral,
    tail_word_integrals,
    truncation_horizon,
    word_integral_on_interval,
)
from itermellin.ratfun import AffineForm
from itermellin.theta import make_builtin_theta
from itermellin.words import Letter


def slot(i, n):
    return AffineForm.slot(i, n)


# single-term tails cannot satisfy an inversion law, so build with the
# broken-inversion flag instead of the validated file path
def make_single_exp(rate: float):
    from fractions import Fraction

    from itermellin.theta import GrowthBound, TailSeries, ThetaFunction

    tail = TailSeries(
        lambda n: (rate, ((1.0, 0.0),)) if n == 1 else None, GrowthBound(1.0, 0.0, rate)
    )
    return ThetaFunction(
        f"exp{rate}", Fraction(1), +1, 1, [], tail, inversion_ok=False, validate=False
    )


class TestHorizon:
    def test_riemann_tail_small_horizon(self):
        rie = make_builtin_theta("riemann")
        word = (Letter(rie, "tail", slot(0, 1)),)
        t = truncation_horizon(word, (2.0,), EvalParams())
        assert t <= 8.0  # a bit above the analytic ~3.2

    def test_eisenstein_larger_horizon(self):
        e4 = make_builtin_theta("eisenstein", 4)
        word = (Letter(e4, "tail", slot(0, 1)),)
        t_small = truncation_horizon(word, (2.0,), EvalParams())
        t_large = truncation_horizon(word, (10.0,), EvalParams())
        assert t_large >= t_small

    def test_monotone_in_tolerance(self):
        rie = make_builtin_theta("riemann")
        word = (Letter(rie, "full", slot(0, 2)), Letter(rie, "tail", slot(1, 2)))
        prev = None
        for tol in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8):
            t = truncation_horizon(word, (2.0, 3.0), EvalParams(abs_tol=tol))
            if prev is not None:
                assert t <= prev
            prev = t

    def test_requires_tail_final(self):
        rie = make_builtin_theta("riemann")
        word = (Letter(rie, "full", slot(0, 1)),)
        with pytest.raises(QuadratureError):
            truncation_horizon(word, (2.0,), EvalParams())


class TestSingleLetters:
    def test_pure_exponential_closed_form(self):
        th = make_single_exp(2 * math.pi)
        word = (Letter(th, "tail", AffineForm.constant(1, 0)),)
        val, err = tail_word_integral(word, (), EvalParams())
        target = math.exp(-2 * math.pi) / (2 * math.pi)
        assert abs(val - target) < 1e-10
        assert abs(val - target) <= err + 1e-13
        assert err < 1e-9

    @pytest.mark.parametrize("s", [1.0, 2.5, 4.0])
    def test_incomplete_gamma_closed_form(self, s):
        # integral_1^inf exp(-c t) t^(s-1) dt = Gamma(s, c) / c^s (upper)
        c = 2 * math.pi
        th = make_single_exp(c)
        word = (Letter(th, "tail", slot(0, 1)),)
        val, _ = tail_word_integral(word, (s,), EvalParams())
        target = gammaincc(s, c) * gamma_fn(s) / c**s
        assert abs(val - target) < 1e-11

    def test_complex_exponent_against_dense_quadrature(self):
        c = 2 * math.pi
        s = 4.0 + 1.5j
        th = make_single_exp(c)
        word = (Letter(th, "tail", slot(0, 1)),)
        val, _ = tail_word_integral(word, (s,), EvalParams())
        from numpy.polynomial.legendre import leggauss

        xs, ws = leggauss(2000)
        t = 0.5 * (xs + 1.0) * 39.0 + 1.0
        ref = np.dot(ws, np.exp(-c * t) * t ** (s - 1.0)) * 39.0 / 2.0
        assert abs(val - ref) < 1e-11

    def test_empty_word_is_unit(self):
        assert tail_word_integral((), (2.0,), EvalParams()) == (1.0 + 0.0j, 0.0)


class TestIteratedWords:
    def test_composition_of_paths(self):
        rie = make_builtin_theta("riemann")
        word = (Letter(rie, "full", slot(0, 2)), Letter(rie, "tail", slot(1, 2)))
        p = EvalParams()
        direct, _ = tail_word_integral(word, (2.0, 2.0), p)
        split = composition_split(word, (2.0, 2.0), 2.0, p)
        assert abs(direct - split) < 1e-9

    @pytest.mark.parametrize("cut", [1.5, 2.0, 3.7])
    def test_composition_various_cuts(self, cut):
        rie = make_builtin_theta("riemann")
        e4 = make_builtin_theta("eisenstein", 4)
        word = (
            Letter(e4, "poly", slot(0, 3)),
            Letter(rie, "full", slot(1, 3)),
            Letter(rie, "tail", slot(2, 3)),
        )
        p = EvalParams()
        s = (1.5, 2.0 + 0.5j, 2.5)
        direct, _ = tail_word_integral(word, s, p)
        assert abs(direct - composition_split(word, s, cut, p)) < 1e-9

    def test_refinement_convergence_random_corpus(self):
        rng = np.random.default_rng(5)
        pool = [make_builtin_theta("riemann"), make_builtin_theta("eisenstein", 4),
                make_builtin_theta("theta_plus")]
        p = EvalParams()
        for _ in range(20):
            length = int(rng.integers(1, 4))
            letters = []
            for j in range(length):
                th = pool[int(rng.integers(0, len(pool)))]
                part = "tail" if j == length - 1 else ("full", "poly")[int(rng.integers(0, 2))]
                letters.append(Letter(th, part, slot(j, length)))
            word = tuple(letters)
            s = tuple(complex(rng.uniform(-2, 3), rng.uniform(-2, 2)) for _ in range(length))
            v1, est = tail_word_integral(word, s, p)
            stronger = EvalParams(abs_tol=1e-12, quad_order=64)
            v2, _ = tail_word_integral(word, s, stronger)
            assert abs(v1 - v2) <= max(est, 1e-12) * 1.5 + 1e-13

    def test_conjugation_symmetry(self):
        rie = make_builtin_theta("riemann")
        word = (Letter(rie, "full", slot(0, 2)), Letter(rie, "tail", slot(1, 2)))
        p = EvalParams()
        s = (1.2 + 0.8j, 2.0 - 0.4j)
        sbar = tuple(x.conjugate() for x in s)
        va, _ = tail_word_integral(word, s, p)
        vb, _ = tail_word_integral(word, sbar, p)
        assert abs(va.conjugate() - vb) < 1e-12

    def test_interval_integral_refines(self):
        rie = make_builtin_theta("riemann")
        word = (Letter(rie, "tail", slot(0, 1)),)
        val, err = word_integral_on_interval(word, (2.0,), (1.0, 2.0, 4.0), EvalParams())
        assert err <= 1e-10
        # compare against the [1,inf) value minus the [4,inf) remainder bound
        full, _ = tail_word_integral(word, (2.0,), EvalParams())
        assert abs(val - full) < 1e-8  # tail beyond 4 is ~1e-20

    def test_tolerance_failure_raises(self):
        rie = make_builtin_theta("riemann")
        word = (Letter(rie, "tail", slot(0, 1)),)
        with pytest.raises(QuadratureError):
            tail_word_integral(word, (2.0,), EvalParams(abs_tol=1e-16, max_refine=1, quad_order=4))


class TestBatchedWords:
    def test_rows_match_one_point_calls_exactly(self):
        """Each point of a batch is integrated bit for bit as on its own, so
        horizons, refinement depths and failures never depend on batching."""
        rie = make_builtin_theta("riemann")
        j3 = make_builtin_theta("jacobi3")
        word = (Letter(j3, "full", slot(0, 2)), Letter(rie, "tail", slot(1, 2)))
        points = [(2.0, 1.5), (0.3 + 2.1j, -1.2 + 0.4j), (1.1 - 3j, 2.5 + 1j), (2.0, 1.5)]
        exps = np.vstack([letter_exponents(word, s) for s in points])
        values, errs = tail_word_integrals(word, exps, EvalParams())
        for s, v, e in zip(points, values, errs):
            assert (complex(v), float(e)) == tail_word_integral(word, s, EvalParams())


class TestMesh:
    def test_doubling_edges(self):
        assert doubling_edges(1.0, 5.0) == (1.0, 2.0, 4.0, 8.0)
        assert doubling_edges(1.0, 8.0) == (1.0, 2.0, 4.0, 8.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalParams(abs_tol=0.0)
        with pytest.raises(ValueError):
            EvalParams(quad_order=2)
        p = EvalParams()
        assert p.abs_tol == 1e-10 and p.max_terms == 4000
        assert p.quad_order == 32 and p.max_refine == 8
