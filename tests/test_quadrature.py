"""Panel quadrature of iterated integrals over [1, infinity)."""

import math

import numpy as np
import pytest
from scipy.special import gammaincc, gamma as gamma_fn

from itermellin import quadrature
from itermellin.cli import main
from itermellin.engine import build_expression
from itermellin.quadrature import (
    EvalParams,
    QuadratureError,
    composition_split,
    doubling_edges,
    integrate_words,
    letter_exponents,
    tail_word_integral,
    tail_word_integrals,
    truncation_horizon,
    word_integral_on_interval,
)
from itermellin.ratfun import AffineForm
from itermellin.theta import TruncationError, make_builtin_theta
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


def exponent_columns(words, points):
    """The words' distinct letter exponents at the points, one column each,
    formed as letter_exponents forms them, and each word's columns."""
    forms: dict = {}
    cols = [np.array([forms.setdefault(l.exponent, len(forms)) for l in w], dtype=int)
            for w in words]
    exps = np.array([[complex(f(s)) for f in forms] for s in points], dtype=complex)
    return cols, exps


class TestMeshMajor:
    """integrate_words runs all words of a chunk mesh by mesh, sharing node
    powers and prefixes; each word at each point must still come out bit
    for bit as a one-word, one-point call, with the same failure."""

    def assert_one_word_calls(self, words, points, params):
        cols, exps = exponent_columns(words, points)
        values, errs = integrate_words(words, cols, exps, params)
        for k, word in enumerate(words):
            for i, s in enumerate(points):
                one = tail_word_integral(word, s, params)
                assert (complex(values[i, k]), float(errs[i, k])) == one

    def test_riemann_r4(self):
        words = build_expression((make_builtin_theta("riemann"),) * 4).plan.words
        points = [(2.0, 1.5, 0.5 + 1j, -1.25 + 0.5j), (0.3 + 2.1j, -1.2 + 0.4j, 1.7 - 2.2j, 2.5)]
        self.assert_one_word_calls(words, points, EvalParams())

    @pytest.mark.parametrize("row_budget", [quadrature.ROW_BUDGET, 1])
    def test_mixed_horizons_and_refinement_exits(self, monkeypatch, row_budget):
        monkeypatch.setattr(quadrature, "ROW_BUDGET", row_budget)
        names = ("theta_plus", "riemann", "jacobi3")
        words = build_expression(tuple(make_builtin_theta(n) for n in names)).plan.words
        points = [(-1.6 + 0.3j, -0.8 + 0.6j, 0.8 - 2.6j), (2.0 - 0.1j, 0.8 - 2.1j, 0.8 + 2.2j),
                  (-5.5 + 4.5j, 3.2 - 6.1j, -2.5 + 5.5j), (1.3 + 2.5j, -0.6 + 1.8j, -0.3 + 2.6j)]
        # a coarse node set, so that words leave refinement at different levels
        params = EvalParams(quad_order=8)
        self.assert_one_word_calls(words, points, params)
        meshes = []
        on_mesh = quadrature.integrate_word_on_mesh
        monkeypatch.setattr(quadrature, "integrate_word_on_mesh",
                            lambda *a: meshes.append(a[4]) or on_mesh(*a))
        horizons, depths = set(), set()
        for word in filter(None, words):
            for s in points:
                meshes.clear()
                tail_word_integral(word, s, params)
                horizons.add(meshes[0].edges[-1])
                depths.add(len(meshes) - 1)
        assert len(horizons) >= 2 and len(depths) >= 2

    def test_failure_of_the_first_failing_word(self):
        """Mesh by mesh, word b's node values fail on the first mesh, long
        before word a fails refinement; either order raises the failure of
        the first word, as one-word calls in turn would."""
        rie = make_builtin_theta("riemann")
        e4 = make_builtin_theta("eisenstein", 4)
        j3 = make_builtin_theta("jacobi3")
        a = (Letter(rie, "full", slot(0, 2)), Letter(j3, "tail", slot(1, 2)))
        b = (Letter(e4, "tail", slot(1, 2)),)
        c = (Letter(j3, "tail", slot(1, 2)),)
        params = EvalParams(abs_tol=1e-16, max_refine=1, quad_order=4, max_terms=4)
        points = [(2.0, 1.5), (1.1 - 3j, 2.5 + 1j)]
        cases = [((a, b), QuadratureError), ((b, a), TruncationError),
                 ((a, c), QuadratureError), ((c, a), QuadratureError)]
        messages = []
        for words, error in cases:
            with pytest.raises(error) as one:
                tail_word_integrals(words[0], np.vstack([letter_exponents(words[0], s)
                                                         for s in points]), params)
            cols, exps = exponent_columns(words, points)
            with pytest.raises(error) as many:
                integrate_words(words, cols, exps, params)
            assert str(many.value) == str(one.value)
            messages.append(str(one.value))
        assert messages[2] != messages[3]

    def test_radius8_request_fails_as_before(self, capsys):
        code = main(["eval", "--theta", "theta-,jacobi:3,jacobi:2,theta-",
                     "--s=-6.465977-5.167086i,-5.273694+2.386160i,"
                     "-6.910034+3.441692i,-7.555115+0.577172i"])
        assert code == 4
        assert capsys.readouterr().err == (
            "numeric failure: estimate 4.810e-09 above 1.0e-10 after 8 refinements\n"
        )


def reference_horizons(word, exps, params):
    """The certified truncation horizons of one word at many points, one
    word at a time, as word_horizons must reproduce them bit for bit."""
    n = exps.shape[0]
    if not word:
        return np.full(n, 2.0)
    last = word[-1]
    if last.part != "tail":
        raise QuadratureError("truncation horizon requires a final tail letter")
    th = last.theta
    mu1 = th.tail.min_mu()
    if not math.isfinite(mu1):
        return np.full(n, 2.0)
    p = th.kernel_power
    decay_k = th.tail_envelope()
    if decay_k == 0.0:
        return np.full(n, 2.0)
    e_re = exps.real
    log_prefac = 0.0
    growth_exp = np.zeros(n)
    for j, letter in enumerate(word[:-1]):
        b, deg = quadrature._letter_envelope(letter)
        log_prefac += math.log(max(b, 1e-300))
        growth_exp += np.maximum(e_re[:, j] - 1.0 + deg + 1.0, 0.0)
    alpha = growth_exp + e_re[:, -1] - 1.0 + max(th.tail.power_range[1], 0.0)
    log_target = math.log(params.abs_tol * params.horizon_safety)
    log_head = math.log(2.0) + log_prefac + math.log(decay_k) - math.log(mu1 * p)
    horizons = 2.0 ** np.arange(1, 25)
    tp = horizons**p
    rate = (alpha + 1.0 - p)[:, None]
    log_bound = log_head + rate * np.log(horizons) - mu1 * tp
    fits = (mu1 * p * tp >= np.maximum(2.0 * rate, 1.0)) & (log_bound <= log_target)
    if not fits.any(axis=1).all():
        raise QuadratureError("no horizon satisfies the truncation bound")
    return horizons[fits.argmax(axis=1)]


class TestBitIdentity:
    """Node powers, panel sums and horizons are formed by faster means
    than the plain expressions; each must equal its plain expression bit
    for bit, or values, horizons and refinement depths would move."""

    @staticmethod
    def meshes():
        for t_max in (4.0, 64.0, 1024.0):
            m = quadrature.mesh(doubling_edges(1.0, t_max), 32)
            for _ in range(3):
                yield m
                m = m.refined()

    def test_powers(self):
        rng = np.random.default_rng(5)
        special = [0.0, 1.0, -1.0, 2.0, 99.0, -99.0, 100.0, -100.0, 0.5, -7.5, 2.0 + 1e-15]
        for m in self.meshes():
            e = np.concatenate((
                rng.normal(0.0, 4.0, 12) + 1j * rng.normal(0.0, 4.0, 12),
                rng.integers(-40, 40, 6) + 0.5,
                np.array(special) + 0j,
                [3.0 + 2.0j, -1.0 - 0.5j, 1j],
            ))
            rng.shuffle(e)
            exact = quadrature.repeated_products(e)
            assert sorted(e[exact].real) == [-99.0, -1.0, 0.0, 1.0, 2.0, 99.0]
            got = m.powers(e, exact)
            assert got.shape == (e.size, m.nodes.size)
            assert np.array_equal(got, m.nodes ** e[:, None])
            other = e[~exact]
            assert np.array_equal(m.powers(other, None), m.nodes ** other[:, None])
            assert np.array_equal(m.powers(other[:1], None), m.nodes ** other[:1, None])

    @pytest.mark.parametrize("rows", [None, 1, 3, 256])
    def test_cumulative_and_integral(self, rows):
        rng = np.random.default_rng(7)
        for m in self.meshes():
            shape = (m.nodes.size,) if rows is None else (rows, m.nodes.size)
            f = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * np.exp(
                rng.normal(0.0, 6.0, size=shape))
            segs = f.reshape(*f.shape[:-1], -1, m.order)
            half = np.diff(m.edges) / 2.0
            panel_ints = (segs @ m.gl_weights) * half
            carries = np.zeros_like(panel_ints)
            np.cumsum(panel_ints[..., :-1], axis=-1, out=carries[..., 1:])
            want = (carries[..., None] + half[:, None] * (segs @ m.int_matrix.T)).reshape(shape)
            assert np.array_equal(m.cumulative(f), want)
            assert np.array_equal(m.integral(f), np.cumsum(panel_ints, axis=-1)[..., -1])

    @pytest.mark.parametrize("row_budget", [quadrature.ROW_BUDGET, 1])
    @pytest.mark.parametrize("names", [("riemann",) * 4, ("theta_plus", "riemann", "jacobi3")])
    def test_horizons(self, monkeypatch, names, row_budget):
        """All words of an expression at once, in one word block or one
        word per block, against each word on its own; the huge second
        slot leaves some words with no valid horizon."""
        monkeypatch.setattr(quadrature, "ROW_BUDGET", row_budget)
        r = len(names)
        words = list(build_expression(tuple(make_builtin_theta(n) for n in names)).plan.words)
        rie = make_builtin_theta("riemann")
        words.insert(3, (Letter(rie, "tail", slot(0, r)), Letter(rie, "full", slot(1, r))))
        points = [(2.0,) * r, (0.3 + 2.1j, -1.2 + 0.4j, 1.7 - 2.2j, 2.5)[:r],
                  (-5.5 + 4.5j, 3.2 - 6.1j, -2.5 + 5.5j, 0.5)[:r],
                  (0.5 - 1j, 1e14, -1.5 + 2j, 1.5)[:r]]
        cols, exps = exponent_columns(words, points)
        params = EvalParams()
        batch = quadrature.word_horizons(words, cols, exps, params)
        failed = 0
        for k, word in enumerate(words):
            if isinstance(batch[k], QuadratureError):
                failed += 1
                for one_word in (reference_horizons, quadrature.truncation_horizons):
                    with pytest.raises(QuadratureError) as one:
                        one_word(word, exps[:, cols[k]], params)
                    assert str(one.value) == str(batch[k])
            else:
                assert np.array_equal(batch[k], reference_horizons(word, exps[:, cols[k]], params))
                assert np.array_equal(
                    batch[k], quadrature.truncation_horizons(word, exps[:, cols[k]], params))
        assert 1 < failed < len(words)
        assert "final tail letter" in str(batch[3])


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
