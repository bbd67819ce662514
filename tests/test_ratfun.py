"""Exact rational combinations, simplex integrals, poles and residues."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from itermellin.ratfun import (
    AffineForm,
    MultiplePoleError,
    PoleSignal,
    RationalCombination,
    simplex_monomial,
    tangent_word_integral,
)
from itermellin.theta import make_builtin_theta
from itermellin.words import Letter


def s(i, n):
    return AffineForm.slot(i, n)


def brute_simplex(exponents, npts=80):
    """Nested Gauss-Legendre quadrature of prod t_i^(b_i - 1) over the
    ordered simplex 0 <= t_1 <= ... <= t_k <= 1 (independent oracle)."""
    xs, ws = leggauss(npts)

    def level(k, upper):
        if k < 0:
            return 1.0
        t = 0.5 * (xs + 1.0) * upper
        vals = np.array([level(k - 1, ti) for ti in t])
        return float(np.dot(ws, t ** (exponents[k] - 1.0) * vals)) * upper / 2.0

    return level(len(exponents) - 1, 1.0)


class TestAffineForm:
    def test_arithmetic_and_eval(self):
        f = s(0, 2) + s(1, 2) - 2
        assert f(( Fraction(3), Fraction(1))) == 2
        assert complex(f((1.0 + 1j, 1.0))) == 1j

    def test_proportionality(self):
        f = AffineForm.make(-2, (1, 1))
        g = AffineForm.make(1, (-1, -1))  # 1 - s1 - s2, not proportional
        assert f.proportional_factor(g) is None
        h = AffineForm.make(-4, (2, 2))
        assert f.proportional_factor(h) == Fraction(1, 2)

    def test_canonical(self):
        f = AffineForm.make(2, (-2, -2))
        c = f.canonical()
        assert c == AffineForm.make(-1, (1, 1))

    def test_distance(self):
        f = AffineForm.make(0, (1, 1))
        assert abs(f.distance((1.0, -1.0 + 1j)) - 1 / math.sqrt(2)) < 1e-15
        assert AffineForm.make(3, (0, 0)).distance((0, 0)) == math.inf


class TestSimplexMonomial:
    def test_paper_double_pole_shape(self):
        """b = (s2, s1) integrates to 1/(s2 (s1+s2))."""
        rc = simplex_monomial([s(1, 2), s(0, 2)])
        assert rc((Fraction(1), Fraction(1))) == Fraction(1, 2)
        assert rc((Fraction(3), Fraction(2))) == Fraction(1, 10)

    def test_single_letter(self):
        rc = simplex_monomial([s(0, 1)])
        assert rc((Fraction(4),)) == Fraction(1, 4)

    def test_empty_product_is_unit(self):
        assert simplex_monomial([])((1.0,)) == 1.0

    def test_numeric_against_brute_force(self):
        # constant forms b = (2, 3): 1/(2*(2+3)) = 1/10
        rc = simplex_monomial([AffineForm.constant(2, 0), AffineForm.constant(3, 0)])
        assert rc(()) == Fraction(1, 10)
        assert abs(brute_simplex([2.0, 3.0]) - 0.1) < 1e-12

    @pytest.mark.parametrize("bs", [(1.5, 2.0), (2.0, 1.0, 3.0), (1.0,)])
    def test_matches_quadrature(self, bs):
        forms = [AffineForm.constant(b, 0) for b in bs]
        exact = float(Fraction(simplex_monomial(forms)(())))
        assert abs(exact - brute_simplex(list(bs))) < 1e-6


class TestTangentWordIntegral:
    def test_double_riemann_tangent(self):
        rie = make_builtin_theta("riemann")
        word = (Letter(rie, "poly", s(1, 2)), Letter(rie, "poly", s(0, 2)))
        rc = tangent_word_integral(word)
        assert rc((Fraction(3), Fraction(2))) == Fraction(1, 10)

    def test_constant_scaling_linearity(self):
        e4 = make_builtin_theta("eisenstein", 4)
        word = (Letter(e4, "poly", s(0, 1)),)
        rc = tangent_word_integral(word)
        assert rc((Fraction(2),)) == Fraction(1, 480)

    def test_eisenstein_against_quadrature(self):
        # (1/240) * t^(s-1) integrated over [0,1] at s=2 -> 1/480
        val = brute_simplex([2.0]) / 240.0
        assert abs(val - 1.0 / 480) < 1e-12

    def test_empty_poly_part_gives_zero(self):
        delta = make_builtin_theta("delta")
        word = (Letter(delta, "poly", s(0, 1)),)
        assert tangent_word_integral(word).is_zero()


def incremental_tangent_word_integral(word) -> RationalCombination:
    """The former tangent_word_integral, merging after every monomial."""
    choices = []
    for letter in word:
        if letter.part == "mono":
            choices.append([(letter.coeff, letter.exponent)])
        else:
            choices.append([(c, letter.exponent.shift(e)) for c, e in letter.theta.poly_part])
    total = RationalCombination.zero()
    stack = [(0, Fraction(1), [])]
    while stack:
        depth, coeff, forms = stack.pop()
        if depth == len(choices):
            total = total + simplex_monomial(forms).scale(coeff)
            continue
        for c, f in choices[depth]:
            stack.append((depth + 1, coeff * c, forms + [f]))
    return total.merged()


def as_pairs(rc: RationalCombination) -> set:
    return {(c, tuple(sorted((f.const, f.coeffs) for f in forms))) for c, forms in rc.terms}


class TestTangentMergedOnce:
    @pytest.mark.parametrize(
        "names",
        [("riemann",) * r for r in range(1, 5)] + [(("eisenstein", 4), ("delta",))],
    )
    def test_same_combination_as_incremental_merge(self, names, monkeypatch):
        from itermellin import engine

        thetas = tuple(
            make_builtin_theta(n) if isinstance(n, str) else make_builtin_theta(*n)
            for n in names
        )
        words = []
        monkeypatch.setattr(
            engine, "tangent_word_integral", lambda w: words.append(w) or tangent_word_integral(w)
        )
        engine.build_expression(thetas)
        assert words
        for word in words:
            got = tangent_word_integral(word)
            assert as_pairs(got) == as_pairs(incremental_tangent_word_integral(word))
            assert len(got.terms) == len(as_pairs(got))


class TestEvalAndPoles:
    def test_eval_examples(self):
        rc = simplex_monomial([s(1, 2), s(0, 2)])
        assert rc((Fraction(1), Fraction(1))) == Fraction(1, 2)
        with pytest.raises(PoleSignal) as exc:
            rc((Fraction(1), Fraction(-1)))
        assert exc.value.form.canonical() == AffineForm.make(0, (1, 1))

    def test_float_pole_detection(self):
        rc = simplex_monomial([s(0, 1)])
        with pytest.raises(PoleSignal):
            rc((1e-14 + 0j,))

    def test_residues(self):
        rc = simplex_monomial([s(1, 2), s(0, 2)])  # 1/(s2(s1+s2))
        h = AffineForm.make(0, (1, 1))
        assert rc.residue(h).terms == ((1, (s(1, 2),)),)  # 1/s2 on s1+s2 = 0
        assert abs(rc.residue(h)((3.0, -3.0)) - (1 / -3.0)) < 1e-15
        h2 = AffineForm.make(0, (0, 1))
        assert abs(rc.residue(h2)((5.0, 0.0)) - 1 / 5.0) < 1e-15
        one_over_s = simplex_monomial([s(0, 1)])
        assert one_over_s.residue(AffineForm.make(0, (1,)))((0.0,)) == 1.0

    def test_residue_scaling_with_normalization(self):
        # residue is the coefficient of 1/h: writing the hyperplane as
        # 2*(s1+s2) = 0 doubles it relative to s1+s2 = 0
        rc = simplex_monomial([s(1, 2), s(0, 2)])
        h = AffineForm.make(0, (2, 2))
        assert abs(rc.residue(h)((3.0, -3.0)) - (2 / -3.0)) < 1e-15

    def test_residue_vs_numeric_limit(self):
        rc = simplex_monomial([s(1, 2), s(0, 2)])
        h = AffineForm.make(0, (1, 1))
        target = rc.residue(h)((3.0, -3.0))
        eps_vals = [1e-3, 5e-4, 2.5e-4]
        nums = []
        for eps in eps_vals:
            pt = (3.0 + eps / 2, -3.0 + eps / 2)
            nums.append(complex(h(pt)) * complex(rc(pt)))
        # Richardson on the two smallest steps
        extrap = 2 * nums[2] - nums[1]
        assert abs(extrap - target) < 1e-8

    def test_multiplicity_unsupported(self):
        f = s(0, 1)
        rc = RationalCombination.of(1, (f, f))
        with pytest.raises(MultiplePoleError):
            rc.residue(f)

    def test_scaled_multiples_of_h(self):
        """Forms that are multiples of h other than h itself: one gives
        coeff / c over the other forms, two raise MultiplePoleError."""
        f = AffineForm.make(-1, (1, 1))
        g, h = -(f + f), AffineForm.make(-3, (3, 3))
        rc = RationalCombination.of(1, (s(0, 2), g))
        assert rc.residue(h) == RationalCombination.of(Fraction(-3, 2), (s(0, 2),))
        with pytest.raises(MultiplePoleError):
            RationalCombination.of(1, (s(0, 2), f, g)).residue(h)

    def test_intersection_rejected(self):
        rc = simplex_monomial([s(1, 2), s(0, 2)])
        h = AffineForm.make(0, (0, 1))
        with pytest.raises(PoleSignal):
            rc.residue(h)((0.0, 0.0))  # also on s1+s2 = 0


class TestShuffleCompatibility:
    def test_product_equals_shuffle_sum(self):
        """rc(u) * rc(v) = sum over shuffles rc(w) at random pole-free
        points (iterated-integral shuffle identity on [0,1])."""
        from itermellin.words import shuffle

        rie = make_builtin_theta("riemann")
        rng = np.random.default_rng(11)
        u = (Letter(rie, "poly", s(0, 3)),)
        v = (Letter(rie, "poly", s(1, 3)), Letter(rie, "poly", s(2, 3)))
        left = tangent_word_integral(u)
        right = tangent_word_integral(v)
        for _ in range(5):
            pt = tuple(complex(rng.uniform(0.5, 3), rng.uniform(-1, 1)) for _ in range(3))
            total = 0j
            for word, c in shuffle(u, v).items():
                total += c * complex(tangent_word_integral(word)(pt))
            assert abs(complex(left(pt)) * complex(right(pt)) - total) < 1e-12
