"""Brute-force oracles and identity pipelines."""

import gc
import math
import weakref

import numpy as np
import pytest

from itermellin import engine, oracles
from itermellin.arith import divisor_sigma
from itermellin.quadrature import EvalParams
from itermellin.theta import make_builtin_theta

PI = math.pi
P = EvalParams()


class TestQSums:
    def test_q11_closed_form(self):
        # the outer tail beyond 1024 * 4000.5, pi / (4 (1024 * 4000.5)^2)
        # = 4.7e-14, is in the value
        assert abs(oracles.q_sum((1, 1), 1e-8) - PI**4 / 72) < 1e-14

    def test_q111_closed_form(self):
        # the six orderings of 1/((a+b+c)(b+c)c) add up to 1/(abc), so
        # Q(1,1,1) = zeta(2)^3 / 6; the budget estimate is 3.2e-10
        assert abs(oracles.q_sum((1, 1, 1), 1e-8) - PI**6 / 1296) < 2e-10

    def test_depth3_against_engine(self):
        # pi^4 D(2,2,4) = Q(1,1,2) + Q(1,2,1) + Q(2,1,1)
        rie = make_builtin_theta("riemann")
        d, _ = engine.lambda_eval(engine.build_tail_expression((rie,) * 3), (2.0, 2.0, 4.0), P)
        q = sum(c * oracles.q_sum(a) for a, c in oracles.reduce_d_to_q((1, 1, 2)).items())
        assert abs(PI**4 * d - q) < 1e-9

    def test_depth_one_is_zeta(self):
        assert abs(oracles.q_sum((2,), 1e-10) - PI**4 / 90) < 1e-12

    def test_q21_against_brute_double_sum(self):
        # independent small brute-force sum with a crude bound
        m = np.arange(1.0, 1501.0)
        n = np.arange(1.0, 1501.0)
        total = 0.0
        for nv in n:
            total += float(np.sum((m**2 + nv**2) ** -2.0)) / nv**2
        # the discarded tails are below ~2e-7 for these exponents
        assert abs(oracles.q_sum((2, 1), 1e-8) - total) < 1e-6

    def test_depth3_runs(self):
        v = oracles.q_sum((1, 1, 1), 1e-4)
        assert 0 < v < 2

    def test_budget_error(self, monkeypatch):
        # raised before any inner sum is formed
        monkeypatch.setattr(oracles, "_coth_sum", None)
        with pytest.raises(oracles.SummationBudgetError):
            oracles.q_sum((1, 1, 1), 1e-12)

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            oracles.q_sum((0, 1))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_inner_kernel_against_plain_sum(self, k):
        """The closed-form inner sums against the first 50 terms summed one
        by one and mpmath's Euler-Maclaurin sum of the rest, at 30 digits,
        from c = 1 to q_sum's largest inner c, 4000^2."""
        mpmath = pytest.importorskip("mpmath")
        cut = 50
        cs = [1.0, 2.0, 5.0, 37.0, 1e4, 1.6e7]
        got = oracles._coth_sum(np.array(cs), k)
        for c, value in zip(cs, got.tolist()):
            with mpmath.workdps(30):
                c = mpmath.mpf(c)
                head = mpmath.fsum((m * m + c) ** -k for m in range(1, cut + 1))
                # the summand scaled by c^k, of order 1 where the sum is made
                rest = mpmath.nsum(lambda m: (1 + m * m / c) ** -k, [cut + 1, mpmath.inf],
                                   method="euler-maclaurin")
                exact = head + rest * c**-k
            assert abs(value - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("k", [1, 2, 3, 1.5, 2.5])
    def test_inv_quad_integral_against_mpmath(self, k):
        """The closed-form integral of the outer tails against an mpmath
        quadrature, from the depth-3 and depth-2 cuts, 220 + 1/2 and
        4000 + 1/2, where a reduction formula in k cancels at small c2."""
        mpmath = pytest.importorskip("mpmath")
        for a, cs in [(220.5, np.array([1.0, 37.0, 1e4])), (4000.5, np.array([1.0, 37.0]))]:
            tails = oracles._inv_quad_integral(a, cs, k)
            for c, tail in zip(cs.tolist(), tails.tolist()):
                with mpmath.workdps(30):
                    exact = float(mpmath.quad(lambda x: (x * x + c) ** -k, [a, mpmath.inf]))
                assert abs(tail - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("ks,pinned", [
        ((1, 1), 1.3529040421389238),
        ((1, 2), 1.126008841066805),
        ((2, 1), 0.3271707587029905),
        ((3, 1), 0.13717770299257195),
    ])
    def test_pinned_values(self, ks, pinned):
        # recorded with the closed-form inner sums; each is at least as
        # close to a 30-digit mpmath value as the pins of the cut inner sums.
        # Q(1,1) was re-recorded once the outer tail beyond 1024a entered
        # its value, which moved it 4.7e-14 towards pi^4/72
        assert abs(oracles.q_sum(ks, 1e-8) - pinned) <= 1e-14 * pinned


def _q_sum_alone(ks):
    """Q(ks) of depth 1 or 2 by its own arithmetic, one sum at a time."""
    if len(ks) == 1:
        ns = np.arange(1, 20001, dtype=float)
        return float(np.sum(ns ** -float(2 * ks[0]))) + 20000.5 ** (1 - 2 * ks[0]) / (2 * ks[0] - 1)
    k1, k2 = ks
    n = np.arange(1.0, 4001.0)
    head = float(np.sum(oracles._coth_sum(n * n, k1) * n ** float(-2 * k2)))
    xs, ws = np.polynomial.legendre.leggauss(64)
    a = 4000.5
    tail = 0.0
    for lo, hi in ((a, 2 * a), (2 * a, 8 * a), (8 * a, 64 * a), (64 * a, 1024 * a)):
        ys = 0.5 * (xs + 1.0) * (hi - lo) + lo
        vals = oracles._inv_quad_integral(0.5, ys * ys, k1) * ys ** (-2.0 * k2)
        tail += float(np.dot(ws, vals)) * (hi - lo) / 2
    far, p = 1024 * a, 2 * k1 + 2 * k2 - 2
    amp = math.sqrt(PI) * math.gamma(k1 - 0.5) / (2 * math.gamma(k1))
    return head + (tail + amp * far**-p / p - far ** (-p - 1) / (2 * (p + 1)))


class TestSharedSums:
    """q_sums gives each sum the value it has alone, and dirichlet_double
    reads (m+n)^-s from one table without moving a bit."""

    def test_q_sums_equal_each_sum_alone(self):
        kss = ((1, 1), (1, 2), (2, 1), (3, 1), (2,), (3,), (4,))
        got = oracles.q_sums(kss, 1e-8)
        assert list(got) == list(kss)
        assert got == {ks: _q_sum_alone(ks) for ks in kss}
        assert oracles.q_sum((2, 1), 1e-8) == got[2, 1]

    def test_q_sums_checks_every_entry(self):
        with pytest.raises(ValueError):
            oracles.q_sums(((1, 1), (0, 1)))
        with pytest.raises(oracles.SummationBudgetError):
            oracles.q_sums(((1, 1), (1, 1, 1)), 1e-12)

    @pytest.mark.parametrize("k,s", [(2, 9.0), (1, 10.0), (2, 9.3 + 0.7j)])
    def test_dirichlet_double_equals_row_by_row_powers(self, k, s):
        def sigma3(n):
            return float(divisor_sigma(3, n))

        d, dd = oracles.dirichlet_double(sigma3, sigma3, k, s, 1e-8)
        cut = 600
        m = np.arange(1, cut + 1, dtype=float)
        vals = np.array([sigma3(i) for i in range(1, cut + 1)])
        total = 0.0 + 0.0j
        for i in range(cut):
            mm = i + 1.0
            total += vals[i] * mm ** float(-k) * np.sum(vals * (mm + m) ** (-complex(s)))
        assert d == total


class TestReduction:
    def test_printed_examples(self):
        assert oracles.reduce_d_to_q((1, 2)) == {(1, 2): 1, (2, 1): 1}
        assert oracles.reduce_d_to_q((2, 1)) == {(2, 1): 1}

    @pytest.mark.parametrize("l1", [1, 2, 3, 4])
    @pytest.mark.parametrize("l2", [1, 2, 3, 4])
    def test_binomial_closed_form(self, l1, l2):
        want = {
            (l1 + k, l2 - k):
                math.factorial(l1 - 1) * math.factorial(l2 - 1) * math.comb(l1 + k - 1, k)
            for k in range(l2)
        }
        assert oracles.reduce_d_to_q((l1, l2)) == want

    def test_depth_one(self):
        assert oracles.reduce_d_to_q((3,)) == {(3,): 2}


class TestMzv:
    def test_zeta2(self):
        assert abs(oracles.mzv_sum((2,), 1e-10) - PI**2 / 6) < 1e-12

    def test_euler_identity_by_summation(self):
        z12 = oracles.mzv_sum((1, 2), 1e-7)
        z3 = oracles.mzv_sum((3,), 1e-10)
        assert abs(z12 - z3) < 1e-7

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            oracles.mzv_sum((2, 1))

    def test_depth_three_rejected(self):
        """Depth 3 summed with a crude tail was 2.5e-3 off zeta(2,1,1) =
        zeta(4) under an estimate of 3.7e-5; it now fails loudly."""
        with pytest.raises(ValueError, match="depth <= 2"):
            oracles.mzv_sum((1, 1, 2), 1e-4)

    def test_depth2_convergent_head(self):
        # zeta(2,3) against a plain double loop
        k = np.arange(1.0, 4001.0)
        inner = np.concatenate(([0.0], np.cumsum(k**-2.0)[:-1]))
        brute = float(np.sum(inner * k**-3.0))
        assert abs(oracles.mzv_sum((2, 3), 1e-8) - brute) < 1e-6


class TestDirichletDouble:
    def test_delta_coefficients_converge(self):
        from itermellin.arith import ramanujan_tau

        d, dd = oracles.dirichlet_double(
            lambda n: float(ramanujan_tau(n)),
            lambda n: float(ramanujan_tau(n)),
            12,
            14.0,
            1e-6,
            growth_a=(2.0, 7.0),
            growth_b=(2.0, 7.0),
        )
        assert np.isfinite(d.real) and np.isfinite(dd.real)

    def test_zero_stream(self):
        d, dd = oracles.dirichlet_double(
            lambda n: 0.0, lambda n: 1.0, 4, 6.0, 1e-8, (0.0, 0.0), (1.0, 0.0)
        )
        assert d == 0 and dd == 0

    def test_convergence_precheck(self):
        with pytest.raises(ValueError):
            oracles.dirichlet_double(
                lambda n: float(divisor_sigma(3, n)),
                lambda n: float(divisor_sigma(3, n)),
                1,
                3.0,
                1e-6,
                (2.0, 3.0),
                (2.0, 3.0),
            )

    def test_lambda_bridge_p2(self):
        """Lambda(f,g;p,s) as a combination of products of single values
        and completed double Dirichlet series, f = g = G4, p=2, s=9."""
        g4 = make_builtin_theta("eisenstein", 4)
        e1 = engine.build_expression((g4,))
        e2 = engine.build_expression((g4, g4))
        p_, s = 2, 9.0
        a0 = 1.0 / 240
        lhs, _ = engine.lambda_eval(e2, (float(p_), s), P)
        lam = lambda x: engine.lambda_eval(e1, (x,), P)[0]
        rhs = lam(float(p_)) * lam(s) + a0 / p_ * lam(s + p_) - a0 / s * lam(s + p_)
        for r in range(p_):
            _, dd = oracles.dirichlet_double(
                lambda n: float(divisor_sigma(3, n)),
                lambda n: float(divisor_sigma(3, n)),
                p_ - r,
                s + r,
                1e-8,
                (2.0, 3.0),
                (2.0, 3.0),
            )
            rhs -= math.comb(p_ - 1, r) * dd
        assert abs(lhs - rhs) < 1e-6


class TestBindingLemma:
    @pytest.mark.parametrize("args", [(1, 1, 1, 2.0), (2, 3, 5, 1.5), (3, 2, 7, 0.8 + 1.1j)])
    def test_examples(self, args):
        assert oracles.binding_lemma_defect(*args) < 1e-10

    def test_p1_single_term(self):
        # p = 1 reduces the right-hand sum to its r = 0 term
        assert oracles.binding_lemma_defect(1, 4, 9, 1.3) < 1e-12

    def test_precondition(self):
        with pytest.raises(ValueError):
            oracles.binding_lemma_defect(1, 1, 1, -0.5)


class TestRealEisenstein:
    def test_functional_equation_via_continuation(self):
        a, _, _ = oracles.real_eisenstein(1j, 1.3, P)
        b, _, _ = oracles.real_eisenstein(1j, -0.3, P)
        assert abs(a - b) < 1e-7

    def test_modular_invariance(self):
        z = 2j
        a, _, _ = oracles.real_eisenstein(z, 1.5, P)
        b, _, _ = oracles.real_eisenstein(-1 / z, 1.5, P)
        assert abs(a - b) < 1e-8
        z = 0.3 + 1.7j
        a, _, _ = oracles.real_eisenstein(z, 1.5, P)
        b, _, _ = oracles.real_eisenstein(-1 / z, 1.5, P)
        assert abs(a - b) < 1e-8

    def test_against_raw_lattice_sum(self):
        raw = oracles.eisenstein_lattice_sum(2j, 2.5, 300.0)
        th, _, _ = oracles.real_eisenstein(2j, 2.5, P)
        gamma_r = PI**-2.5 * math.gamma(2.5)
        assert abs(raw - th / gamma_r) < 5e-7

    def test_einf_assembly(self):
        _, _, einf = oracles.real_eisenstein(2j, 1.5, P)
        xi3, xi2 = oracles._values(oracles._xi_expression(), [(3.0,), (2.0,)], P)
        direct = xi3 * 2**1.5 + xi2 * 2**-0.5
        assert abs(einf - direct) < 1e-10

    def test_decomposition_consistency(self):
        e, e0, einf = oracles.real_eisenstein(1.0j, 2.0, P)
        assert abs(e - (e0 + einf)) < 1e-14

    def test_repeated_z_compiles_once(self, monkeypatch):
        # compiled once per process, in the cache the suites share, so not counted
        oracles._xi_expression()
        compiled = []
        build = engine.build_expression
        monkeypatch.setattr(engine, "build_expression",
                            lambda thetas: compiled.append(thetas) or build(thetas))
        z = 0.123 + 1.456j  # a z no other test uses
        first = oracles.real_eisenstein(z, 1.5, P)
        assert oracles.real_eisenstein(z, 1.5, P) == first
        assert len(compiled) == 1

    def test_lattice_points_match_a_point_by_point_loop(self):
        """The one lattice rectangle gives the disk's frequencies: for 40 z
        of the fresh-theta box, those of a loop over each lattice point,
        within 4 ulp (the loop squares by pow, the grid by multiplying),
        and lattice_theta's first 200 groups have the loop's multiplicities."""

        def loop(z, lam_max):
            x, y = z.real, z.imag
            r2max = lam_max * y / PI
            nmax = int(math.floor(math.sqrt(r2max) / y)) + 1
            lams = []
            for n in range(-nmax, nmax + 1):
                rem = r2max - n * n * y * y
                if rem < 0:
                    continue
                half = math.sqrt(rem)
                for m in range(math.ceil(-n * x - half), math.floor(-n * x + half) + 1):
                    lam = PI * ((m + n * x) ** 2 + n * n * y * y) / y
                    if (m, n) != (0, 0) and lam <= lam_max:
                        lams.append(lam)
            return np.sort(np.array(lams))

        rng = np.random.default_rng(24)
        for _ in range(40):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.75, 1.6))
            for lam_max in (64.0, 256.0, 1024.0):
                want, got = loop(z, lam_max), oracles._lattice_points(z, lam_max)
                assert len(got) == len(want)
                np.testing.assert_array_max_ulp(got, want, maxulp=4)
            # lattice_theta's grouping, applied to the loop's frequencies
            counts: list[list] = []
            for lam in loop(z, 2048.0):
                if counts and lam - counts[-1][0] <= 1e-9 * lam:
                    counts[-1][1] += 1.0
                else:
                    counts.append([lam, 1.0])
            assert counts[199][0] < 1024.0  # far below the loop's cut
            tail = oracles.lattice_theta(z).tail
            want = [((count, 0.0),) for _, count in counts[:200]]
            assert [tail.group(n)[1] for n in range(1, 201)] == want

    def test_lattice_theta_freed_after_cache_turnover(self):
        """The expression cache holds the only reference to a lattice
        theta, so 256 other z free it, and its node values with it."""
        z = 0.321 + 1.654j
        oracles.real_eisenstein(z, 1.5, P)
        theta = weakref.ref(oracles._lattice_expression(z).thetas[0])
        for k in range(256):
            oracles.real_eisenstein(complex(0.01 * k, 1.0 + 0.005 * k), 1.5, P)
        gc.collect()
        assert theta() is None


class TestXiViaEisenstein:
    def test_one_one(self):
        assert abs(oracles.xi_via_eisenstein(1.0, 1.0, P) - PI**2 / 72) < 1e-9

    def test_cross_pipeline(self):
        e2 = engine.build_expression((make_builtin_theta("riemann"),) * 2)
        ref, _ = engine.lambda_eval(e2, (2.6, 1.8), P)
        assert abs(oracles.xi_via_eisenstein(1.3, 0.9, P) - ref) < 1e-6

    def test_reflection_symmetry(self):
        e2 = engine.build_expression((make_builtin_theta("riemann"),) * 2)
        ref, _ = engine.lambda_eval(e2, (1 - 2 * 1.2, 1 - 2 * 1.1), P)
        assert abs(oracles.xi_via_eisenstein(1.1, 1.2, P) - ref) < 1e-6

    def test_convergence_region(self):
        with pytest.raises(ValueError):
            oracles.xi_via_eisenstein(0.2, 0.2, P)

    def test_pinned_value(self):
        # recorded when E0 was still formed by real_eisenstein at each
        # abscissa; reusing the xi pair must not move it
        value = oracles.xi_via_eisenstein(0.8 + 0.3j, 0.9 - 0.2j, P)
        pinned = 0.1253513720111739 - 0.3211220146728492j
        assert abs(value - pinned) <= 1e-14 * abs(pinned)

    @pytest.mark.parametrize("s1,s2,pinned", [
        (1.0, 1.0, 0.1370778389035921),
        (1.3, 0.9, 0.040704923967888704),
        (1.1, 1.2, 0.07428132079141832),
    ])
    def test_pinned_suite_values(self, s1, s2, pinned):
        # recorded when each abscissa was one lambda_eval call; one engine
        # call for all of them must not move them
        value = oracles.xi_via_eisenstein(s1, s2, P)
        assert abs(value - pinned) <= 1e-14 * abs(pinned)


class TestEichler:
    def test_22_value(self):
        assert abs(oracles.eichler_xi((2, 2), P) - PI**2 / 72) < 1e-9

    @pytest.mark.parametrize("pair", [(2, 4), (4, 2), (6, 2)])
    def test_cross_pipeline(self, pair):
        e2 = engine.build_expression((make_builtin_theta("riemann"),) * 2)
        ref, _ = engine.lambda_eval(e2, (float(pair[0]), float(pair[1])), P)
        assert abs(oracles.eichler_xi(pair, P) - ref) < 1e-7

    def test_unknown_pair(self):
        with pytest.raises(ValueError):
            oracles.eichler_xi((8, 2), P)


class TestRichardson:
    def test_limit_of_polynomial(self):
        f = lambda e: 3.0 + 2 * e + 5 * e**2 + e**3
        values = [f(0.1 / 2**i) for i in range(4)]
        assert abs(oracles.richardson_limit(values) - 3.0) < 1e-12
