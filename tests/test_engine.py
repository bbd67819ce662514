"""Compiled multiple L-functions: values, poles, residues, identities."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from itermellin import engine, oracles, quadrature
from itermellin.engine import (
    build_expression,
    build_tail_expression,
    lambda_direct,
    lambda_eval,
    lambda_eval_many,
    lambda_eval_several,
    lstar_eval,
    poles,
    residue,
)
from itermellin.quadrature import EvalParams
from itermellin.ratfun import (
    AffineForm,
    MultiplePoleError,
    PoleSignal,
    RationalCombination,
    tangent_word_integral,
)
from itermellin.theta import (
    builtin_registry,
    differentiate,
    make_builtin_theta,
    mul_monomial,
    parse_theta_text,
    parse_theta_token,
    rescale,
)
from itermellin.words import Letter

PI = math.pi
P = EvalParams()


def theta(name, weight=None):
    return make_builtin_theta(name, weight)


def canon_set(forms):
    return {str(h.canonical()) for h in forms}


class TestBuildExpression:
    def test_r1_riemann_structure(self):
        expr = build_expression((theta("riemann"),))
        # two numeric tail integrals plus the rational parts -1/s, -1/(1-s)
        numeric = [t for t in expr.terms if t.left or t.right]
        rational = [t for t in expr.terms if not (t.left or t.right)]
        assert len(numeric) == 2 and len(rational) == 2
        for t in numeric:
            assert len([w for w in (t.left, t.right) if w]) == 1
            assert (t.left or t.right)[-1].part == "tail"
        vals = sorted(t.coeff * t.tangent((Fraction(3),)) for t in rational)
        # -1/s at s=3 is -1/3; -1/(1-s) at s=3 is 1/2
        assert vals == [Fraction(-1, 3), Fraction(1, 2)]

    def test_r2_riemann_hyperplanes(self):
        expr = build_expression((theta("riemann"),) * 2)
        assert canon_set(expr.pole_forms) == {"s1-1", "s2", "s1+s2", "s1+s2-2"}

    def test_r3_riemann_hyperplanes(self):
        expr = build_expression((theta("riemann"),) * 3)
        assert canon_set(expr.pole_forms) == {
            "s1-1", "s1+s2-2", "s1+s2+s3-3", "s1+s2+s3", "s2+s3", "s3",
        }

    def test_delta_entire(self):
        expr = build_expression((theta("delta"),))
        assert poles(expr) == []

    def test_eisenstein_poles(self):
        expr = build_expression((theta("eisenstein", 4),))
        assert canon_set(expr.pole_forms) == {"s1", "s1-4"}
        # Lambda(G4;s)*s*(s-4) stays bounded near both poles
        for s0, h in ((1e-4, "s1"), (4 + 1e-4, "s1-4")):
            val, _ = lambda_eval(expr, (s0,), P)
            assert abs(val * s0 * (s0 - 4)) < 1.0


class TestValues:
    def test_xi_2(self):
        val, err = lambda_eval(build_expression((theta("riemann"),)), (2.0,), P)
        assert abs(val - PI / 6) < 1e-12
        assert err < 1e-9

    def test_xi_22(self):
        val, _ = lambda_eval(build_expression((theta("riemann"),) * 2), (2.0, 2.0), P)
        assert abs(val - PI**2 / 72) < 1e-12

    def test_theta_plus_critical(self):
        val, _ = lambda_eval(build_expression((theta("theta_plus"),)), (1.0,), P)
        assert abs(PI * val + 8 * math.log(2)) < 1e-12

    def test_xi_half_against_alternating_series(self):
        from scipy.special import gamma

        mpmath = pytest.importorskip("mpmath")
        target = PI**-0.25 * gamma(0.25) * float(mpmath.zeta(0.5))
        val, _ = lambda_eval(build_expression((theta("riemann"),)), (0.5,), P)
        assert abs(val - target) < 1e-11

    def test_huge_slot_value_raises_without_warnings(self):
        expr = build_expression((theta("riemann"),) * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(quadrature.QuadratureError, match="no horizon"):
                lambda_eval(expr, (1e308, 2.0), P)

    def test_overflowing_word_integral_raises_without_warnings(self):
        """t^(s-1) overflows at the mesh nodes before the theta factor makes
        the integrand tiny: the word fails at once, naming the overflow."""
        expr = build_expression((theta("riemann"),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (300.0, 400.0, 1e3, 1e6):
                with pytest.raises(quadrature.QuadratureError, match="word integral overflows"):
                    lambda_eval(expr, (s,), P)

    def test_pole_signal(self):
        expr = build_expression((theta("riemann"),))
        with pytest.raises(PoleSignal):
            lambda_eval(expr, (1.0,), P)

    def test_numpy_scalar_slot_values(self):
        """A numpy scalar is one slot value, exactly as a Python scalar is."""
        expr = build_expression((theta("riemann"),))
        want = lambda_eval(expr, 2, P)
        assert lambda_eval(expr, np.int64(2), P) == want
        assert lambda_eval(expr, np.float32(2), P) == want
        assert lambda_eval_many(expr, np.arange(2, 5), P) == lambda_eval_many(expr, [2, 3, 4], P)

    def test_conjugation_symmetry(self):
        expr = build_expression((theta("riemann"), theta("eisenstein", 4)))
        s = (1.1 + 0.7j, 2.3 - 0.4j)
        va, _ = lambda_eval(expr, s, P)
        vb, _ = lambda_eval(expr, tuple(x.conjugate() for x in s), P)
        assert abs(va.conjugate() - vb) < 1e-12


class TestFunctionalEquation:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_riemann_reflection(self, r):
        rng = np.random.default_rng(40 + r)
        thetas = (theta("riemann"),) * r
        expr = build_expression(thetas)
        for _ in range(5):
            pt = tuple(
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(r)
            )
            if any(h.distance(pt) < 0.1 for h in expr.pole_forms):
                continue
            refl = engine.reflected_point(thetas, pt)
            if any(h.distance(refl) < 0.1 for h in expr.pole_forms):
                continue
            lhs, _ = lambda_eval(expr, pt, P)
            rhs, _ = lambda_eval(expr, refl, P)
            assert abs(lhs - rhs) < 1e-9

    @staticmethod
    def riemann_within_error_bars(r, rng, points):
        thetas = (theta("riemann"),) * r
        expr = build_expression(thetas)
        checked = 0
        while checked < points:
            pt = tuple(complex(rng.uniform(-2, 3), rng.uniform(-2, 2)) for _ in range(r))
            refl = engine.reflected_point(thetas, pt)
            if any(min(h.distance(pt), h.distance(refl)) < 0.1 for h in expr.pole_forms):
                continue
            (lhs, lhs_err), (rhs, rhs_err) = lambda_eval_many(expr, [pt, refl], P)
            assert abs(lhs - rhs) <= lhs_err + rhs_err
            checked += 1

    def test_riemann_r5_within_error_bars(self):
        self.riemann_within_error_bars(5, np.random.default_rng(55), 2)

    @pytest.mark.parametrize("r", [7, 8])
    def test_riemann_at_the_depth_cap_within_error_bars(self, r):
        """Up to cli.MAX_TUPLE slots: at r = 8, 2,304 pair terms over 1,005
        words."""
        self.riemann_within_error_bars(r, np.random.default_rng(50 + r), 1)

    def test_reflection_maps_the_pole_set_onto_itself(self):
        """The reversed dual tuple's pole hyperplanes, pulled back through
        s -> (w_r - s_r, ..., w_1 - s_1), are the tuple's own, for all 584
        tuples of r <= 3 over the functional suite's pool: a point off the
        one set is as far off the other."""
        pool = [theta(*name) for name in (("riemann",), ("eisenstein", 4), ("delta",),
                                           ("theta_plus",), ("theta_minus",), ("jacobi2",),
                                           ("jacobi3",), ("jacobi4",))]
        for r in (1, 2, 3):
            for thetas in itertools.product(pool, repeat=r):
                pulled = set()
                for h in build_expression(engine.reversed_dual_tuple(thetas)).pole_forms:
                    # h(w_r - s_r, ..., w_1 - s_1) as a form in s
                    const, coeffs = h.const, [0] * r
                    for i, c in enumerate(h.coeffs):
                        const += c * thetas[r - 1 - i].weight
                        coeffs[r - 1 - i] = -c
                    pulled.add(AffineForm.make(const, coeffs).canonical())
                assert pulled == set(build_expression(thetas).pole_forms), thetas

    def test_mixed_tuple(self):
        g4, delta = theta("eisenstein", 4), theta("delta")
        a = build_expression((g4, delta))
        b = build_expression((delta, g4))
        pt = (1.7 + 0.3j, 5.5 - 1.0j)
        lhs, _ = lambda_eval(a, pt, P)
        rhs, _ = lambda_eval(b, (12 - pt[1], 4 - pt[0]), P)
        assert abs(lhs - rhs) < 1e-10


class TestShuffleIdentity:
    def test_small_products(self):
        rng = np.random.default_rng(17)
        rie, g4 = theta("riemann"), theta("eisenstein", 4)
        e_r = build_expression((rie,))
        e_g = build_expression((g4,))
        e_rg = build_expression((rie, g4))
        e_gr = build_expression((g4, rie))
        for _ in range(5):
            s1 = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            s2 = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            pt = (s1, s2)
            ok = all(h.distance((s1,)) > 0.15 for h in e_r.pole_forms)
            ok = ok and all(h.distance((s2,)) > 0.15 for h in e_g.pole_forms)
            ok = ok and all(h.distance(pt) > 0.15 for h in e_rg.pole_forms)
            ok = ok and all(h.distance((s2, s1)) > 0.15 for h in e_gr.pole_forms)
            if not ok:
                continue
            lhs = lambda_eval(e_r, (s1,), P)[0] * lambda_eval(e_g, (s2,), P)[0]
            rhs = lambda_eval(e_rg, pt, P)[0] + lambda_eval(e_gr, (s2, s1), P)[0]
            assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("names", [("riemann",) * 3, ("theta_plus", "riemann", "jacobi3")])
    def test_half_word_products(self, names):
        """A pair term multiplies the integrals of its two half words, which
        equals integrating the words of their shuffle: I(w1) * I(w2) is
        the sum of mult * I(w) over w1 sh w2, within the summed bars, for
        seeded pairs the compile emits, at radius-3 points."""
        from itermellin.words import shuffle

        expr = build_expression(tuple(theta(n) for n in names))
        pairs = list(dict.fromkeys((t.left, t.right) for t in expr.terms if t.left and t.right))
        rng = np.random.default_rng(12)
        picked = [pairs[i] for i in rng.choice(len(pairs), size=min(6, len(pairs)), replace=False)]
        sums = [shuffle(w1, w2) for w1, w2 in picked]
        words = tuple(dict.fromkeys([w for pair in picked for w in pair]
                                    + [w for ws in sums for w in ws]))
        letters = quadrature._Letters(words)
        pts = [tuple(complex(*rng.uniform(-3, 3, 2)) for _ in names) for _ in range(3)]
        exps = np.vstack([letters.exponents_at(pt) for pt in pts])
        values, errs = quadrature.integrate_words(letters, exps, P)
        at = {w: k for k, w in enumerate(words)}
        assert any(len(w1) + len(w2) > 2 for w1, w2 in picked)
        for i in range(len(pts)):
            v, e = values[i], errs[i]
            for (w1, w2), ws in zip(picked, sums):
                a, b = at[w1], at[w2]
                lhs = v[a] * v[b]
                rhs = sum(mult * v[at[w]] for w, mult in ws.items())
                bar = abs(v[a]) * e[b] + abs(v[b]) * e[a] + e[a] * e[b]
                bar += sum(abs(mult) * e[at[w]] for w, mult in ws.items())
                assert abs(lhs - rhs) <= bar, (w1, w2, pts[i])


class TestResidues:
    def test_res_s2(self):
        e2 = build_expression((theta("riemann"),) * 2)
        e1 = build_expression((theta("riemann"),))
        h = AffineForm.make(0, (0, 1))
        res, _ = residue(e2, h, (3.0, 0.0), P)
        assert abs(res + lambda_eval(e1, (3.0,), P)[0]) < 1e-11

    def test_res_diagonal(self):
        e2 = build_expression((theta("riemann"),) * 2)
        h = AffineForm.make(0, (1, 1))
        assert abs(residue(e2, h, (3.0, -3.0), P)[0] + 1.0 / 3) < 1e-13

    def test_r3_recursion_vs_limit(self):
        e3 = build_expression((theta("riemann"),) * 3)
        e1 = build_expression((theta("riemann"),))
        h = AffineForm.make(0, (0, 1, 1))
        pt = (2.5, 1.5, -1.5)
        res, _ = residue(e3, h, pt, P)
        closed = lambda_eval(e1, (2.5,), P)[0] / (-1.5)
        assert abs(res - closed) < 1e-11
        num = oracles.residue_numeric(e3, h, pt, P)
        assert abs(res - num) < 1e-7

    def test_values_within_their_bars(self):
        """At 40 seeded points on each of four hyperplanes the residue is
        within its error bar, plus roundoff, of its closed form: -xi(s1) on
        s2 = 0 and 1/s2 on s1 + s2 = 0 for riemann^2, xi(s1)/s3 on
        s2 + s3 = 0 and -1/((s2+s3)s3) on s1 + s2 + s3 = 0 for riemann^3."""
        mpmath = pytest.importorskip("mpmath")

        def xi(s):
            s = mpmath.mpc(s.real, s.imag)
            return complex(mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s))

        rng = np.random.default_rng(21)

        def z():
            return complex(rng.uniform(-3.0, 4.0), rng.uniform(-3.0, 3.0))

        e2 = build_expression((theta("riemann"),) * 2)
        e3 = build_expression((theta("riemann"),) * 3)
        # (expression, hyperplane, point on it from two draws, closed form)
        cases = (
            (e2, (0, 1), lambda a, b: (a, 0j), lambda p: -xi(p[0])),
            (e2, (1, 1), lambda a, b: (a, -a), lambda p: 1 / p[1]),
            (e3, (0, 1, 1), lambda a, b: (a, b, -b), lambda p: xi(p[0]) / p[2]),
            (e3, (1, 1, 1), lambda a, b: (-a - b, a, b), lambda p: -1 / ((p[1] + p[2]) * p[2])),
        )
        eps = np.finfo(float).eps
        for expr, coeffs, on_h, truth in cases:
            h = AffineForm.make(0, coeffs)
            others = [f for f in expr.pole_forms if f != h]
            for _ in range(40):
                pt = on_h(z(), z())
                while min(f.distance(pt) for f in others) < 0.25:
                    pt = on_h(z(), z())
                value, err = residue(expr, h, pt, P)
                want = truth(pt)
                assert err >= 0.0
                assert abs(value - want) <= err + 8 * eps * abs(want), (h, pt)

    def test_no_hit_words_give_zero(self):
        """A hyperplane that is no pole leaves no term to evaluate."""
        e2 = build_expression((theta("riemann"),) * 2)
        h = AffineForm.make(-7, (1, 0))
        assert all(t.tangent.residue(h).is_zero() for t in e2.terms)
        assert residue(e2, h, (7.0, 0.5 + 1j), P) == (0j, 0.0)

    def test_double_pole_raises(self):
        """A one-term expression with tangent 1/s1^2 has no simple residue."""
        s1 = AffineForm.slot(0, 1)
        term = engine.LambdaTerm(Fraction(1), (), (), RationalCombination.of(1, (s1, s1)))
        expr = engine.LambdaExpression((theta("riemann"),), (term,), (s1,))
        with pytest.raises(MultiplePoleError):
            residue(expr, s1, (0.0,), P)

    def test_point_off_hyperplane_rejected(self):
        e2 = build_expression((theta("riemann"),) * 2)
        h = AffineForm.make(0, (0, 1))
        with pytest.raises(ValueError):
            residue(e2, h, (3.0, 0.5), P)

    def test_point_on_a_second_hyperplane_is_a_pole(self):
        e2 = build_expression((theta("riemann"),) * 2)
        h = AffineForm.make(0, (0, 1))
        with pytest.raises(PoleSignal) as exc:
            residue(e2, h, (1.0, 0.0), P)
        assert str(exc.value.form) == "s1-1"


class TestDirect:
    def test_xi_34(self):
        thetas = (theta("riemann"),) * 2
        d = lambda_direct(thetas, (3.0, 4.0), P)
        e, _ = lambda_eval(build_expression(thetas), (3.0, 4.0), P)
        assert abs(d - e) < 1e-8

    def test_delta_11(self):
        d = lambda_direct((theta("delta"),), (11.0,), P)
        e, _ = lambda_eval(build_expression((theta("delta"),)), (11.0,), P)
        assert abs(d - e) < 1e-9

    def test_r1_riemann_is_plain_mellin(self):
        # at s = 6 the direct evaluation is the integral of
        # (theta(t) - 1) t^6 dt/t over (0, inf)
        d = lambda_direct((theta("riemann"),), (6.0,), P)
        from numpy.polynomial.legendre import leggauss

        rie = theta("riemann")
        xs, ws = leggauss(64)
        total = 0.0
        edges = np.concatenate((np.geomspace(1e-4, 1.0, 24), np.geomspace(1.25, 8.0, 12)))
        for a, b in zip(edges[:-1], edges[1:]):
            t = 0.5 * (xs + 1) * (b - a) + a
            total += np.dot(ws, rie.eval_array(t, "tail", 1e-14) * t**5) * (b - a) / 2
        assert abs(d - total) < 1e-9

    # bound: |d - e| when each word ran over its own [cutoff, horizon] mesh
    # alone, rounded up; one mesh from the smallest cutoff to the largest
    # horizon runs every word over at least that interval
    @pytest.mark.parametrize("names,point,bound", [
        (("riemann",) * 2, (3.0, 4.0), 5.6e-14),
        (("delta",), (11.0,), 2.0e-12),
        (("riemann",) * 2, (2.3, 1.1), 1.1e-12),
        (("delta", "theta_minus"), (6 + 2j, 1.3 - 0.4j), 3.2e-17),
        (("riemann",) * 3, (5.0, 4.5 + 1j, 3.0), 5.0e-15),
    ])
    def test_one_integrate_words_call(self, monkeypatch, names, point, bound):
        thetas = tuple(theta(n) for n in names)
        calls = []
        integrate = engine.integrate_words
        monkeypatch.setattr(engine, "integrate_words",
                            lambda *a, **kw: calls.append(a) or integrate(*a, **kw))
        d = lambda_direct(thetas, point, P)
        assert len(calls) == 1
        e, _ = lambda_eval(build_expression(thetas), point, P)
        assert abs(d - e) <= bound

    def test_no_horizon_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(quadrature.QuadratureError,
                               match="^no horizon satisfies the truncation bound$"):
                lambda_direct((theta("riemann"),), (1e308,), P)

    def test_divergent_point_rejected(self):
        with pytest.raises(engine.DirectConvergenceError):
            lambda_direct((theta("riemann"),) * 2, (0.4, 4.0), P)

    def test_random_points_in_overlap_region(self):
        rng = np.random.default_rng(23)
        combos = [
            (theta("riemann"),) * 2,
            (theta("eisenstein", 4), theta("riemann")),
            (theta("delta"),),
        ]
        for thetas in combos:
            expr = build_expression(thetas)
            lo = 2.0 + sum(float(t.weight) for t in thetas)
            for _ in range(2):
                pt = tuple(
                    complex(rng.uniform(lo, lo + 2), rng.uniform(-1, 1))
                    for _ in thetas
                )
                d = lambda_direct(thetas, pt, P)
                e, _ = lambda_eval(expr, pt, P)
                assert abs(d - e) < 1e-8


class TestDirectCutoff:
    """The lower cutoff is the one the corner bound asks for, down to
    DIRECT_DELTA_FLOOR; below it lambda_direct raises."""

    @pytest.mark.parametrize("names,point", [
        (("riemann", "riemann"), (2.3, 1.1)),  # was 1.3e-5 off at a 1e-4 cutoff
        (("delta", "theta_minus"), (6 + 2j, 1.3 - 0.4j)),  # was 5.7e-9 off
    ])
    def test_matches_lambda_eval(self, names, point):
        thetas = tuple(theta(n) for n in names)
        d = lambda_direct(thetas, point, P)
        e, _ = lambda_eval(build_expression(thetas), point, P)
        assert abs(d - e) < 1e-9

    def test_cutoff_below_floor_raises(self):
        # the word P[theta_minus;s2].T[delta;s1] asks for a 5e-19 cutoff
        thetas = (theta("delta"), theta("theta_minus"))
        with pytest.raises(engine.DirectConvergenceError, match=r"P\[theta_minus;s2\]"):
            lambda_direct(thetas, (6 + 2j, 0.8 - 0.4j), P)


class TestLstar:
    def test_unit_conductor(self):
        expr = build_expression((theta("riemann"),))
        assert lstar_eval(expr, (2.0,), P)[0] == lambda_eval(expr, (2.0,), P)[0]

    def test_level11_scaling(self):
        text = """
name f11s
weight 2
sign +1
dual self
kernel exp scale 1.8944516501989659
poly 0 0
coeffs 1 -2 -1 2 1 2 -2 0 -2 -2 1 -2 4 4 -1 -4 -2 4 0 2
growth 8 2
conductor 11
"""
        th = parse_theta_text(text)
        expr = build_expression((th,))
        plain, _ = lambda_eval(expr, (1.0,), P)
        scaled, _ = lstar_eval(expr, (1.0,), P)
        assert abs(scaled - math.sqrt(11) * plain) < 1e-12
        # generic slot value: N^(s/2) factor
        v2, _ = lstar_eval(expr, (2.0,), P)
        p2, _ = lambda_eval(expr, (2.0,), P)
        assert abs(v2 - 11 * p2) < 1e-12


class TestEisensteinIdentity:
    @pytest.mark.parametrize("k", [2, 3])
    def test_factorization(self, k):
        rng = np.random.default_rng(60 + k)
        w = 2 * k
        eg = build_expression((theta("eisenstein", w),))
        e1 = build_expression((theta("riemann"),))
        done = 0
        while done < 10:
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(s - c) for c in (0, 1, w - 1, w)) < 0.2:
                continue
            lhs, _ = lambda_eval(eg, (s,), P)
            pref = 1.0 + 0j
            for j in range(1, w, 2):
                pref *= s - j
            pref /= 2 * (2 * PI) ** k
            rhs = pref * lambda_eval(e1, (s,), P)[0] * lambda_eval(e1, (s - w + 1,), P)[0]
            assert abs(lhs - rhs) < 1e-8
            done += 1

    def test_spot_value(self):
        eg = build_expression((theta("eisenstein", 4),))
        assert abs(lambda_eval(eg, (2.0,), P)[0] + 1.0 / 288) < 1e-13


class TestDeltaEntire:
    def test_symmetry_ten_points(self):
        rng = np.random.default_rng(71)
        ed = build_expression((theta("delta"),))
        assert ed.pole_forms == ()
        for _ in range(10):
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            a, _ = lambda_eval(ed, (s,), P)
            b, _ = lambda_eval(ed, (12 - s,), P)
            assert abs(a - b) < 1e-9


class TestTailExpression:
    def test_d_identity_at_34(self):
        rie = theta("riemann")
        td = build_tail_expression((rie, rie))
        e2 = build_expression((rie, rie))
        e1 = build_expression((rie,))
        d, _ = lambda_eval(td, (3.0, 4.0), P)
        xi2, _ = lambda_eval(e2, (3.0, 4.0), P)
        xi7, _ = lambda_eval(e1, (7.0,), P)
        assert abs(xi2 - (d + (1 / 3 - 1 / 4) * xi7)) < 1e-10

    def test_d22_equals_q11(self):
        td = build_tail_expression((theta("riemann"),) * 2)
        d, _ = lambda_eval(td, (2.0, 2.0), P)
        assert abs(PI**2 * d - oracles.q_sum((1, 1), 1e-8)) < 1e-9

    def test_tail_words_end_in_tail(self):
        td = build_tail_expression((theta("riemann"),) * 2)
        for term in td.terms:
            assert term.right == ()
            if term.left:
                assert term.left[-1].part == "tail"


# The compile as it was before each piece of symbolic work was done once:
# recursive regularization over formal sums rebuilt word by word, and the
# right half expanded again for every left expansion.  ref_shuffle, the
# recursive shuffle, expands pair terms back into single words.  A formal
# sum is a dict {word: coefficient}; ref_add keeps the first sum's words
# first, in order, then the second's new ones, as the compile does.


def ref_add(a, b, scale=1):
    """a + scale * b; words whose coefficient cancels drop out."""
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + scale * c
    return {w: c for w, c in out.items() if c}


def ref_map_words(ws, fn):
    out = {}
    for w, c in ws.items():
        out = ref_add(out, fn(w), c)
    return out


def ref_shuffle(u, v):
    u, v = tuple(u), tuple(v)
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    left = ref_map_words(ref_shuffle(u[1:], v), lambda w: {(u[0],) + w: 1})
    right = ref_map_words(ref_shuffle(u, v[1:]), lambda w: {(v[0],) + w: 1})
    return ref_add(left, right)


def ref_regularize(word):
    if not word:
        return {(): 1}
    if len(word) == 1:
        return {(word[0].with_part("tail"),): 1}
    head, last = word[0], word[-1]
    left = ref_map_words(ref_regularize(word[1:]), lambda w: {(head,) + w: 1})
    right = ref_map_words(
        ref_regularize(word[:-1]), lambda w: {(last.with_part("poly"),) + w: 1}
    )
    return ref_add(left, right, -1)


def ref_expand_boundary(letters):
    m = len(letters)
    out = []
    for i in range(m, -1, -1):
        tangent_word = tuple(l.with_part("poly") for l in reversed(letters[i:]))
        if any(not l.theta.poly_part for l in tangent_word):
            continue
        rc = tangent_word_integral(tangent_word)
        if rc.is_zero():
            continue
        for word, c in ref_regularize(letters[:i]).items():
            out.append(((-1) ** (m - i) * c, word, rc))
    return out


def ref_poles(terms):
    seen = {}
    for term in terms:
        for _, forms in term.tangent.terms:
            for f in forms:
                canon = f.canonical()
                seen.setdefault((canon.const, canon.coeffs), canon)
    return tuple(sorted(seen.values(), key=str))


def ref_build_expression(thetas, shuffled=False):
    """Pair terms; shuffled, the words of each pair's shuffle instead, one
    term each, as the compile emitted them before it kept pairs."""
    r = len(thetas)
    slots = [AffineForm.slot(i, r) for i in range(r)]
    terms = []
    for k in range(r + 1):
        eps = Fraction(1)
        for th in thetas[:k]:
            eps *= th.sign
        left = tuple(
            Letter(thetas[j].dual, "full", AffineForm.constant(thetas[j].weight, r) - slots[j])
            for j in range(k - 1, -1, -1)
        )
        right = tuple(Letter(thetas[j], "full", slots[j]) for j in range(k, r))
        for c1, w1, rc1 in ref_expand_boundary(left):
            for c2, w2, rc2 in ref_expand_boundary(right):
                if not shuffled:
                    terms.append(engine.LambdaTerm(eps * c1 * c2, w1, w2, rc1 * rc2))
                    continue
                for word, mult in ref_shuffle(w1, w2).items():
                    terms.append(engine.LambdaTerm(eps * c1 * c2 * mult, word, (), rc1 * rc2))
    return terms, ref_poles(terms)


BENCHMARK_POOL = (
    "riemann", "eisenstein:4", "eisenstein:6", "delta", "theta+", "theta-",
    "jacobi:2", "jacobi:3", "jacobi:4",
)


def compile_cases():
    pool = [parse_theta_token(t) for t in BENCHMARK_POOL]
    rng = np.random.default_rng(2024)
    cases = [(theta("riemann"),) * r for r in range(1, 6)]
    cases += [(a, b) for a in pool for b in pool]
    for r, count in ((3, 20), (4, 5)):
        cases += [tuple(pool[i] for i in rng.integers(0, len(pool), r)) for _ in range(count)]
    # constants in halves and thirds: forms over the denominator 6
    r3 = mul_monomial(theta("riemann"), Fraction(1, 3))
    j3 = mul_monomial(theta("jacobi3"), Fraction(1, 2))
    cases += [(r3,), (j3,), (r3, theta("riemann")), (j3, r3), (r3, theta("delta"), j3)]
    return cases


def term_rows(terms):
    """(coefficient, words, tangent terms) of each term; the plan evaluates
    equal tangents once, whichever objects hold them."""
    return [(t.coeff, t.left, t.right, t.tangent.terms) for t in terms]


class TestCompileOnce:
    """The compile gives the reference's terms, in order, and its pole forms."""

    def test_build_expression(self):
        """Each pair term, its words shuffled, gives the single-word terms
        of the shuffling reference, in order: the same algebra."""
        for thetas in compile_cases():
            expr = build_expression(thetas)
            want_terms, want_poles = ref_build_expression(thetas)
            assert term_rows(expr.terms) == term_rows(want_terms), thetas
            assert expr.pole_forms == want_poles, thetas
            expanded = [engine.LambdaTerm(t.coeff * mult, word, (), t.tangent)
                        for t in expr.terms
                        for word, mult in ref_shuffle(t.left, t.right).items()]
            want_shuffled, _ = ref_build_expression(thetas, shuffled=True)
            assert term_rows(expanded) == term_rows(want_shuffled), thetas

    @pytest.mark.parametrize(
        "names",
        [("riemann",) * r for r in (1, 2, 3)]
        + [("theta+", "jacobi:2"), ("jacobi:4", "riemann", "theta-")],
    )
    def test_build_tail_expression(self, names, monkeypatch):
        thetas = tuple(parse_theta_token(n) for n in names)
        expr = build_tail_expression(thetas)
        monkeypatch.setattr(engine, "shuffle", ref_shuffle)
        want = build_tail_expression(thetas)
        assert term_rows(expr.terms) == term_rows(want.terms)
        assert expr.pole_forms == ref_poles(want.terms)


class TestPoleGuard:
    @pytest.mark.parametrize("thetas", [
        (theta("riemann"),) * 3,
        (theta("eisenstein", 4), theta("delta")),
        (theta("jacobi3"), theta("riemann")),
        (mul_monomial(theta("riemann"), Fraction(1, 3)), theta("riemann")),
    ], ids=["riemann3", "g4-delta", "jacobi3-riemann", "riemann-t13-riemann"])
    def test_guard_blocks_every_small_denominator(self, thetas):
        """A tangent denominator f has integer slot coefficients and is a
        multiple of its guard form, so |f(s)| >= dist(s, {f = 0}): where
        |f(s)| = 1e-14 the guard, the only pole test, reports f's
        hyperplane."""
        expr = build_expression(thetas)
        plan = expr.plan
        forms = list(dict.fromkeys(
            f for t in expr.terms for _, fs in t.tangent.terms for f in fs))
        # the plan's tangent denominator rows are these forms
        rows = plan.rows[len(plan.guard) : plan.first_exponent - 1].tolist()
        assert sorted(map(tuple, rows)) == sorted((f.num / f.den, *f.coeffs) for f in forms)
        rng = np.random.default_rng(14)
        for f in forms:
            grad = np.array(f.coeffs, dtype=float)
            p = rng.uniform(-1, 1, len(thetas)) + 1j * rng.uniform(-1, 1, len(thetas))
            # p moved along the gradient to where f = 1e-14
            s = tuple(p + (1e-14 - f(p)) * grad / (grad @ grad))
            assert abs(abs(f(s)) - 1e-14) < 2e-15
            (result,) = lambda_eval_many(expr, [s], P)
            assert isinstance(result, PoleSignal) and result.form == f.canonical(), f


class TestNumericPlan:
    def test_equal_tangents_lowered_once(self):
        """Terms share tangents by value: riemann r = 4 has 80 terms but
        15 distinct tangents, each lowered to its own parts once."""
        expr = build_expression((theta("riemann"),) * 4)
        plan = expr.plan
        distinct = {t.tangent.terms for t in expr.terms}
        assert len(expr.terms) == 80 and len(distinct) == 15
        assert plan.part_tangent.shape == (sum(len(t) for t in distinct), 15)
        for term, t in zip(expr.terms, plan.term_tangent):
            parts = plan.part_tangent[:, t].astype(bool)
            assert plan.part_coeffs[parts].tolist() == [complex(c) for c, _ in term.tangent.terms]

    def test_letter_table_built_once(self, monkeypatch):
        """The plan holds its words' letter table: evaluations on one
        expression build it once, not once per call."""
        built = []
        init = quadrature._Letters.__init__
        monkeypatch.setattr(quadrature._Letters, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        expr = build_expression((theta("riemann"),) * 2)
        for points in ([(2.0, 2.0)], [(1.7, 2.4), (0.5 + 1j, 1.5)]):
            lambda_eval_many(expr, points, P)
        assert len(built) == 1

    def test_several_expressions_lower_into_one_plan(self, monkeypatch):
        """lambda_eval_several builds one letter table and integrates once,
        through none of the expressions' own plans."""
        built, integrated = [], []
        init = quadrature._Letters.__init__
        monkeypatch.setattr(quadrature._Letters, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        integrate = engine.integrate_words
        monkeypatch.setattr(engine, "integrate_words",
                            lambda *args, **kw: integrated.append(args) or integrate(*args, **kw))
        exprs = [build_expression(tuple(parse_theta_token(n) for n in pair))
                 for pair in (("riemann", "riemann"), ("eisenstein:4", "delta"),
                              ("jacobi:4", "riemann"))]
        lambda_eval_several(exprs, (2.5 + 0.3j, 3.0 - 0.7j), P)
        assert len(built) == 1 and len(integrated) == 1
        assert all("plan" not in expr.__dict__ for expr in exprs)

    def test_several_expressions_keep_their_plan(self, monkeypatch):
        """A second call on the same expressions, in a new list, builds no
        letter table; a call on other expressions builds one, and then only
        its plan is kept."""
        built = []
        init = quadrature._Letters.__init__
        monkeypatch.setattr(quadrature._Letters, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        engine._several_plan.cache_clear()
        first = [build_expression((theta("riemann"),) * 2),
                 build_expression((theta("eisenstein", 4), theta("delta")))]
        other = [first[1], build_expression((theta("jacobi4"), theta("riemann")))]
        point = (2.5 + 0.3j, 3.0 - 0.7j)
        want = {id(e): lambda_eval(e, point, P) for e in first + other}
        built.clear()
        for exprs, want_built in ((first, 1), (list(first), 1), (other, 2), (first, 3)):
            got = lambda_eval_several(exprs, point, P)
            assert len(built) == want_built
            assert got == [want[id(e)] for e in exprs]

    def test_plans_number_by_value(self):
        """Compiled expressions compare by identity, and lowering numbers
        words, letters, exponents and tangents by value.  Two compiles of
        one tuple are unequal, and lowered together their letter table holds
        each distinct word once; a copy of riemann r = 3 made of equal but
        distinct objects lowers to the compile's tables and values."""
        thetas = (theta("riemann"),) * 3
        a, b = build_expression(thetas), build_expression(thetas)
        assert a != b
        point = (2.5 + 0.3j, 1.5, 3.0 - 0.7j)
        assert lambda_eval_several([a, b], point, P) == [lambda_eval(a, point, P),
                                                         lambda_eval(b, point, P)]
        words = {w for t in a.terms for w in (t.left, t.right)}
        letters = engine._several_plan((a, b)).letters
        assert len(letters.words) == len(words) and set(letters.words) == words

        def form(f):
            return AffineForm(f.num, f.den, tuple(list(f.coeffs)))

        def word(w):
            return tuple(Letter(l.theta, l.part, form(l.exponent)) for l in w)

        copy = engine.LambdaExpression(thetas, tuple(
            engine.LambdaTerm(t.coeff, word(t.left), word(t.right), RationalCombination(
                tuple((c, tuple(map(form, fs))) for c, fs in t.tangent.terms), t.tangent.den))
            for t in a.terms), a.pole_forms)

        def ids(expr):
            return {id(l) for t in expr.terms for l in t.left + t.right}

        assert ids(a) and not ids(copy) & ids(a)
        for field in ("term_left", "term_right", "term_tangent", "rows"):
            assert np.array_equal(getattr(copy.plan, field), getattr(a.plan, field)), field
        points = [point, (0.5 + 1j, 2.5, 1.25), (3.0, -0.5 + 0.2j, 2.0)]
        assert ([result_bits(r) for r in lambda_eval_many(copy, points, P)]
                == [result_bits(r) for r in lambda_eval_many(a, points, P)])

    def test_several_slot_counts_raise(self):
        exprs = [build_expression((theta("riemann"),)),
                 build_expression((theta("riemann"),) * 2)]
        with pytest.raises(ValueError, match=r"slot counts \[1, 2\]"):
            lambda_eval_several(exprs, (2.0,), P)


POOL = (("riemann",), ("eisenstein", 4), ("eisenstein", 6), ("delta",), ("theta_plus",),
        ("theta_minus",), ("jacobi2",), ("jacobi3",), ("jacobi4",))


def result_bits(result):
    value, err = result
    return np.array([value]).tobytes() + np.array([err]).tobytes()


class TestBatchIndependence:
    """A point's value and bar are the same bits in every batch: alone
    (lambda_eval), among other points (lambda_eval_many, as table
    evaluates), and beside other expressions (lambda_eval_several)."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_batch_equals_one_point(self, r):
        rng = np.random.default_rng(50 + r)
        for _ in range(2):
            exprs = [build_expression(tuple(theta(*POOL[i]) for i in rng.integers(0, len(POOL), r)))
                     for _ in range(2)]
            # imaginary parts keep every prefix and suffix sum off the poles
            points = [tuple(complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 1.5)) for _ in range(r))
                      for _ in range(int(rng.integers(1, 41)))]
            # a point whose refinement runs out would fail the whole batch
            one = {}
            for point in points:
                try:
                    one[point] = result_bits(lambda_eval(exprs[0], point, P))
                except quadrature.QuadratureError:
                    pass
            assert len(one) >= 0.8 * len(points)
            batch = lambda_eval_many(exprs[0], list(one), P)
            assert [result_bits(got) for got in batch] == list(one.values())
            for point in list(one)[:3]:
                try:
                    want = [result_bits(lambda_eval(e, point, P)) for e in exprs]
                except quadrature.QuadratureError:
                    continue
                assert [result_bits(x) for x in lambda_eval_several(exprs, point, P)] == want


class TestUnresolvedHalfWords:
    """A half word can be too large to meet abs_tol on its own and still
    weigh little in the value: it serves when its error times what
    multiplies it meets abs_tol (a word that weighs more still fails, as in
    test_quadrature.TestMeshMajor.test_radius8_request_fails_as_before)."""

    def test_large_half_word_of_small_weight_evaluates(self, monkeypatch):
        # P[theta_plus; -s1+2] is 2.7e5 here and stops at 1.2e-9
        names = ("theta+", "jacobi:4", "jacobi:2", "delta")
        point = (-2.206799 + 7.584042j, -5.832883 - 0.063652j,
                 1.374138 + 6.349638j, -7.184181 + 0.769870j)
        expr = build_expression(tuple(parse_theta_token(n) for n in names))
        judged = []
        check = engine._check_unresolved
        monkeypatch.setattr(engine, "_check_unresolved",
                            lambda *args: judged.append(args) or check(*args))
        value, err = lambda_eval(expr, point, P)
        (_, _, reach, werrs, unresolved, _), = judged
        (ks, rows, level), = unresolved
        assert level == P.max_refine
        assert (werrs[rows, ks] > P.abs_tol).all() and (reach[rows, ks] > 1e5).all()
        # other meshes, whose words all meet their tolerance
        other, other_err = lambda_eval(expr, point, EvalParams(quad_order=48, abs_tol=1e-9))
        assert len(judged) == 1
        assert abs(value - other) <= err + other_err


class TestThetaIdentity:
    """A file theta named like a builtin must not share its cached values."""

    DOUBLE_RIEMANN = (
        "name riemann\nweight 1\nsign +1\ndual self\n"
        "kernel gauss scale 3.141592653589793\npoly 2 0\nfreq default\n"
        "coeffs" + " 4" * 12 + "\ngrowth 4 0\n"
    )

    @pytest.mark.parametrize("file_first,order", [(True, 22), (False, 23)])
    def test_file_theta_named_riemann(self, file_first, order):
        # a quadrature order no other test uses gives meshes with empty caches
        params = EvalParams(quad_order=order)
        doubled = build_expression((parse_theta_text(self.DOUBLE_RIEMANN),))
        builtin = build_expression((theta("riemann"),))
        exprs = (doubled, builtin) if file_first else (builtin, doubled)
        values = [lambda_eval(e, (2.0,), params)[0] for e in exprs]
        if not file_first:
            values.reverse()
        assert abs(values[0] - math.pi / 3) < 1e-9
        assert abs(values[1] - math.pi / 6) < 1e-9


class TestConcurrency:
    def test_parallel_evaluations_are_deterministic(self):
        import concurrent.futures
        import sys

        rie = theta("riemann")
        j2 = theta("jacobi2")
        e2 = build_expression((rie, rie))
        ej = build_expression((j2,))
        jobs = [(e2, (2.0, 2.0), P), (ej, (0.9,), P), (e2, (1.7, 2.4), P), (ej, (1.3,), P)] * 4
        # lowered first inside the threads, which then share their letter
        # tables; their meshes hold several words each
        e3 = build_expression((rie,) * 3)
        jobs += [(e3, (0.5 + 0.3j * k, 1.5 - 0.2j * k, 2.0 + 0.25 * k), P) for k in range(1, 9)]
        # on a coarse node set these words leave refinement at levels 1 and
        # 2, so the prefixes a mesh integrates change between its levels
        names = ("theta_plus", "riemann", "jacobi3")
        mixed = build_expression(tuple(theta(n) for n in names))
        coarse = EvalParams(quad_order=8)
        points = [(-1.6 + 0.3j, -0.8 + 0.6j, 0.8 - 2.6j), (2.0 - 0.1j, 0.8 - 2.1j, 0.8 + 2.2j),
                  (-5.5 + 4.5j, 3.2 - 6.1j, -2.5 + 5.5j), (1.3 + 2.5j, -0.6 + 1.8j, -0.3 + 2.6j)]
        jobs += [(mixed, pt, coarse) for pt in points] * 2
        twins = {id(e3): build_expression((rie,) * 3),
                 id(mixed): build_expression(tuple(theta(n) for n in names))}
        serial = [lambda_eval(twins.get(id(expr), expr), pt, params)[0]
                  for expr, pt, params in jobs]
        # runs of three calls that alternate between two lists race for the
        # one kept several-expression plan: later calls of a run may find
        # their list kept while the first is still lowering its plan
        lists = ([e2, build_expression((j2, rie))],
                 [build_expression((theta("eisenstein", 4), theta("delta"))), e2])
        several = [(lists[k // 3 % 2], (2.5 + 0.1j * k, 3.0 - 0.2j * k), P) for k in range(12)]
        serial += [[lambda_eval(e, pt, params)[0] for e in exprs] for exprs, pt, params in several]

        def run(job):
            if isinstance(job[0], list):
                return [value for value, _ in lambda_eval_several(*job)]
            return lambda_eval(*job)[0]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads interleave often
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                parallel = list(pool.map(run, jobs + several))
        finally:
            sys.setswitchinterval(switch)
        assert serial == parallel


class TestHalfIntegerExponents:
    def test_monomial_shift_of_jacobi3(self):
        """sqrt(t) * jacobi3 has a t^(1/2) polynomial part and weight -1/2;
        its completed transform is the shifted jacobi3 one: 2 xi(2s+1)."""
        from itermellin.theta import mul_monomial

        j3 = theta("jacobi3")
        shifted = mul_monomial(j3, Fraction(1, 2))
        assert shifted.weight == Fraction(-1, 2)
        assert shifted.poly_part == ((Fraction(1), Fraction(1, 2)),)
        expr = build_expression((shifted,))
        e1 = build_expression((theta("riemann"),))
        for s in (0.8, 1.6 + 0.5j):
            a, _ = lambda_eval(expr, (s,), P)
            b, _ = lambda_eval(e1, (2 * s + 1,), P)
            assert abs(a - 2 * b) < 1e-9
        # poles line up with those of 2 xi(2s+1): s = -1/2 and s = 0
        assert {str(h.canonical()) for h in expr.pole_forms} == {"2*s1+1", "s1"}

    @pytest.mark.parametrize("names", [("r3",), ("r3", "riemann"), ("riemann", "r3"),
                                       ("r3", "delta", "riemann")])
    def test_monomial_shift_by_a_third(self, names):
        """t^(1/3) * riemann has weight 1/3 and a t^(1/3) polynomial part, so
        its forms' constants are thirds: Lambda with it in slot j equals
        Lambda with riemann there at s_j + 1/3, within the summed bars."""
        r3 = mul_monomial(theta("riemann"), Fraction(1, 3))
        assert r3.weight == Fraction(1, 3) and r3.poly_part == ((1, Fraction(1, 3)),)
        shifted = build_expression(tuple(r3 if n == "r3" else theta(n) for n in names))
        plain = build_expression(tuple(theta("riemann" if n == "r3" else n) for n in names))
        for s in ((0.8 + 0.3j, 1.7 - 0.4j, 2.2 + 0.6j), (2.4 - 1.1j, -0.6 + 0.9j, 1.3 + 1.2j)):
            s = s[: len(names)]
            a, erra = lambda_eval(shifted, s, P)
            b, errb = lambda_eval(plain, [x + (n == "r3") / 3 for x, n in zip(s, names)], P)
            assert abs(a - b) <= erra + errb


class TestJacobi:
    def test_bridge_scaling(self):
        ej3 = build_expression((theta("jacobi3"),))
        e1 = build_expression((theta("riemann"),))
        for s in (1.0, 1.7):
            a, _ = lambda_eval(ej3, (s,), P)
            b, _ = lambda_eval(e1, (2 * s,), P)
            assert abs(a - 2 * b) < 1e-9

    def test_transforms_of_a_non_self_dual_theta(self):
        """Lambda(d_w theta; s) = s(w - s) Lambda(theta; s) and
        Lambda(t theta; s) = Lambda(theta; s + 1), within the summed bars."""
        from itermellin.theta import d_w, mul_monomial

        for th in (theta("jacobi2"), theta("jacobi4")):
            e0, w = build_expression((th,)), float(th.weight)
            edw = build_expression((d_w(th),))
            emul = build_expression((mul_monomial(th, 1),))
            for s in (2.3 + 0.4j, 0.9 - 1.1j):
                v, err = lambda_eval(e0, (s,), P)
                v1, err1 = lambda_eval(e0, (s + 1,), P)
                a, erra = lambda_eval(edw, (s,), P)
                assert abs(a - s * (w - s) * v) <= erra + abs(s * (w - s)) * err
                b, errb = lambda_eval(emul, (s,), P)
                assert abs(b - v1) <= errb + err1

    def test_non_self_dual_reflection(self):
        ej2 = build_expression((theta("jacobi2"),))
        ej4 = build_expression((theta("jacobi4"),))
        for s in (0.9, 1.6 + 0.4j, -0.8 + 1.0j, 2.2, 0.75 - 0.6j):
            a, _ = lambda_eval(ej2, (s,), P)
            b, _ = lambda_eval(ej4, (0.5 - s,), P)
            assert abs(a - b) < 1e-9


class TestTransforms:
    """Rescaled and differentiated thetas carry their inversion law, so the
    engine evaluates them; their values follow from the Mellin transform."""

    @pytest.mark.parametrize("names,point", [
        (("riemann",), (2.3 + 0.4j,)),
        (("jacobi2",), (0.9 - 1.1j,)),
        (("riemann", "riemann"), (2.3 + 0.4j, 1.6 - 0.3j)),
        (("delta", "theta_plus"), (0.9 - 1.1j, 2.2 + 0.5j)),
        (("jacobi2", "jacobi4"), (1.4, 2.1 + 0.7j)),
        (("theta_plus", "riemann", "jacobi3"), (2.3 + 0.4j, 1.6 - 0.3j, 0.8 + 0.2j)),
    ], ids=["riemann", "jacobi2", "riemann2", "delta,theta_plus", "jacobi2,jacobi4",
            "theta_plus,riemann,jacobi3"])
    def test_rescale_scales_the_value(self, names, point):
        """Lambda(theta_1(c.), ..., theta_r(c.); s) = c^-(s_1+...+s_r)
        Lambda(theta; s), within the summed bars: the rescaled words
        integrate theta over [c, inf), so no mesh node is shared."""
        thetas = [theta(n) for n in names]
        v, err = lambda_eval(build_expression(thetas), point, P)
        for c in (0.7, 1.3):
            b, errb = lambda_eval(build_expression([rescale(th, c) for th in thetas]), point, P)
            factor = c ** -sum(point)
            assert abs(b - factor * v) <= errb + abs(factor) * err, c

    @pytest.mark.parametrize("name", list(builtin_registry()))
    def test_differentiate_multiplies_by_s(self, name):
        """Lambda(-t theta'; s) = s Lambda(theta; s), within the summed bars."""
        e0, e1 = build_expression((theta(name),)), build_expression((differentiate(theta(name)),))
        for s in (2.3 + 0.4j, 0.9 - 1.1j):
            v, err = lambda_eval(e0, (s,), P)
            a, erra = lambda_eval(e1, (s,), P)
            assert abs(a - s * v) <= erra + abs(s) * err, s


class TestEvalSeveral:
    """lambda_eval_several integrates the words of several expressions in
    one call; each result equals lambda_eval's for that expression."""

    @staticmethod
    def _check(exprs, point, params=P):
        got = lambda_eval_several(exprs, point, params)
        assert got == [lambda_eval(e, point, params) for e in exprs]

    @pytest.mark.parametrize("sigma", [2.0, 1.7 + 0.1j])
    def test_lattice_abscissae(self, sigma):
        # the abscissae of oracles.xi_via_eisenstein at the default order
        xs, _ = np.polynomial.legendre.leggauss(P.quad_order)
        ys = [0.5 * (x + 1.0) * (hi - lo) + lo
              for lo, hi in ((1.0, 2.0), (2.0, 4.0), (4.0, 8.0)) for x in xs]
        exprs = [oracles._lattice_expression(complex(1j * y)) for y in ys]
        assert len(exprs) == 96
        self._check(exprs, (sigma,))

    def test_mixed_builtin_pairs(self):
        names = [("riemann", "riemann"), ("eisenstein:4", "delta"),
                 ("theta+", "jacobi:3"), ("riemann", "riemann"), ("jacobi:4", "riemann")]
        exprs = [build_expression(tuple(parse_theta_token(n) for n in pair)) for pair in names]
        self._check(exprs, (2.5 + 0.3j, 3.0 - 0.7j))

    def test_pole_raises_as_lambda_eval(self):
        exprs = [build_expression((theta("delta"),) * 2),
                 build_expression((theta("riemann"),) * 2)]
        point = (1.0, 2.5)  # on s1 = 1
        with pytest.raises(PoleSignal) as want:
            lambda_eval(exprs[1], point, P)
        with pytest.raises(PoleSignal) as got:
            lambda_eval_several(exprs, point, P)
        assert got.value.form == want.value.form

    def test_horizon_failure_named_as_integrate_words(self):
        exprs = [build_expression((theta("delta"), theta("riemann"))),
                 build_expression((theta("riemann"),) * 2)]
        words = dict.fromkeys(w for e in exprs for w in e.plan.letters.words)
        letters = quadrature._Letters(tuple(words))
        exps = letters.exponents_at((1e308, 2.0))
        with pytest.raises(quadrature.QuadratureError) as want:
            quadrature.integrate_words(letters, exps, P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(want.value), match=str(want.value)):
                lambda_eval_several(exprs, (1e308, 2.0), P)

    def test_refinement_failure_of_the_first_failing_expression(self):
        # the words of the second expression run out of refinements, and a
        # word whose error outweighs its terms' tolerance fails by its estimate
        params = EvalParams(max_refine=1, abs_tol=1e-13, quad_order=8)
        exprs = [build_expression(tuple(parse_theta_token(n) for n in pair))
                 for pair in (("eisenstein:4", "delta"), ("delta", "riemann"),
                              ("riemann", "riemann"))]
        point = (2.5 + 0.3j, 3.0)
        self._check(exprs[:1], point, params)
        with pytest.raises(quadrature.QuadratureError) as want:
            lambda_eval(exprs[1], point, params)
        with pytest.raises(quadrature.QuadratureError, match=str(want.value)):
            lambda_eval_several(exprs, point, params)
