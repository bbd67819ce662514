"""Panel quadrature of iterated integrals over [1, infinity)."""

import gc
import itertools
import math
import traceback
import weakref

import numpy as np
import pytest
from scipy.special import gammaincc, gamma as gamma_fn

from itermellin import engine, oracles, quadrature
from itermellin.cli import main
from itermellin.engine import build_expression, build_tail_expression
from itermellin.quadrature import (
    EvalParams,
    QuadratureError,
    doubling_edges,
    integrate_words,
    tail_word_integral,
    truncation_horizon,
)
from itermellin.ratfun import AffineForm
from itermellin.theta import (
    GrowthBound,
    TailSeries,
    ThetaFunction,
    TruncationError,
    gauss_legendre,
    make_builtin_theta,
)
from itermellin.words import Letter


def slot(i, n):
    return AffineForm.slot(i, n)


@pytest.mark.parametrize("order", [32, 64, 96])
def test_one_gauss_legendre_rule_per_order(order):
    """Panels, oracles and tail convolutions read one rule per order: the
    numpy rule, formed once and read-only."""
    nodes, weights = gauss_legendre(order)
    assert gauss_legendre(order)[0] is nodes and quadrature._gl_data(order)[0] is nodes
    want = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(nodes, want[0]) and np.array_equal(weights, want[1])
    with pytest.raises(ValueError):
        nodes[0] = 0.0


# single-term tails cannot satisfy an inversion law, so build unvalidated
# instead of through the file path: the tests read these on [1, inf) only,
# where no value goes through the law
def make_single_exp(rate: float):
    from fractions import Fraction

    from itermellin.theta import GrowthBound, TailSeries, ThetaFunction, _pack

    tail = TailSeries(
        lambda start, stop: _pack([(rate, ((1.0, 0.0),))][start:stop]), GrowthBound(1.0, 0.0, rate)
    )
    return ThetaFunction(
        f"exp{rate}", Fraction(1), +1, 1, [], tail, validate=False
    )


def composition_split(word, s, cut: float, params: EvalParams | None = None) -> complex:
    """Evaluate the [1, inf) word integral via a path split at cut.

    Sum over k of (integral over [1, cut] of the first k letters) times
    (integral over [cut, inf) of the rest); an independent cross-check of
    the direct evaluation.
    """
    params = params or EvalParams()
    if cut <= 1.0:
        raise ValueError("cut must exceed 1")
    total = 0.0 + 0.0j
    lower_edges = tuple(np.linspace(1.0, cut, 5))
    for k in range(len(word) + 1):
        prefix, suffix = word[:k], word[k:]
        if prefix:
            left = integrate_words(*exponent_columns((prefix,), [s]), params, lower_edges)[0][0, 0]
        else:
            left = 1.0 + 0.0j
        if suffix:
            t_max = max(truncation_horizon(suffix, s, params), 2.0 * cut)
            upper = doubling_edges(cut, t_max)
            right = integrate_words(*exponent_columns((suffix,), [s]), params, upper)[0][0, 0]
        else:
            right = 1.0 + 0.0j
        total += left * right
    return total


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
        values, errs = integrate_words(*exponent_columns((word,), [(2.0,)]), EvalParams(),
                                       (1.0, 2.0, 4.0))
        val, err = values[0, 0], errs[0, 0]
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
        values, errs = integrate_words(*exponent_columns((word,), points), EvalParams())
        for s, v, e in zip(points, values[:, 0], errs[:, 0]):
            assert (complex(v), float(e)) == tail_word_integral(word, s, EvalParams())

    def test_letter_table_rejects_repeated_words(self):
        """No two words of a table end at one prefix of its trie."""
        rie = make_builtin_theta("riemann")
        word = (Letter(rie, "full", slot(0, 2)), Letter(rie, "tail", slot(1, 2)))
        same = (Letter(rie, "full", slot(0, 2)), Letter(rie, "tail", slot(1, 2)))
        for words in [(word, word), (word, (), same), ((), ())]:
            with pytest.raises(ValueError, match="distinct words"):
                quadrature._Letters(words)
        assert len(quadrature._Letters((word, (), word[:1])).words) == 3


def exponent_columns(words, points):
    """The letter table of the words and its exponent columns at the
    points, one row per point."""
    letters = quadrature._Letters(words)
    return letters, np.vstack([letters.exponents_at(s) for s in points])


def letter_columns(letters, k):
    """The exponent column of each letter of word k of a letter table."""
    return np.array([letters.pair_col[q] for q in letters.pairs[k]], dtype=int)


def one_word_horizons(word, exps, params):
    """word_horizons of one word alone, raising its failure; exps[i, j] is
    the exponent of letter j at point i."""
    letters = quadrature._Letters((word,))
    # the table's columns are the word's distinct exponents, by first use
    first = [[letter.exponent for letter in word].index(f) for f in letters.exponents]
    (horizons,) = quadrature.word_horizons(letters, exps[:, first], params)
    return horizons


def failing_words():
    """Words a and c, whose refinement fails on their mesh of horizon 16,
    word b, whose node values fail on its mesh of horizon 8, and the
    params and points at which they do."""
    rie = make_builtin_theta("riemann")
    e4 = make_builtin_theta("eisenstein", 4)
    j3 = make_builtin_theta("jacobi3")
    # eisenstein4's groups under a bound so loose that 4000 groups cannot
    # certify the tail at the first node, t = 1.069, of the horizon-8 mesh
    loose = ThetaFunction("eisenstein4-loose", e4.weight, e4.sign, e4.kernel_power, e4.poly_part,
                          TailSeries(e4.tail._blocks, GrowthBound(2.0, 3.0, 2e-3)), validate=False)
    a = (Letter(rie, "full", slot(0, 2)), Letter(j3, "tail", slot(1, 2)))
    b = (Letter(loose, "tail", slot(1, 2)),)
    c = (Letter(j3, "tail", slot(1, 2)),)
    params = EvalParams(abs_tol=1e-16, max_refine=1, quad_order=4)
    return a, b, c, params, [(2.0, 1.5), (1.1 - 3j, 2.5 + 1j)]


class TestMeshMajor:
    """integrate_words runs all words of a chunk mesh by mesh, sharing node
    powers and prefixes; each word at each point must still come out bit
    for bit as a one-word, one-point call, and a failing word fails as on
    its own."""

    def assert_one_word_calls(self, words, points, params):
        letters, exps = exponent_columns(words, points)
        values, errs = integrate_words(letters, exps, params)
        for k, word in enumerate(words):
            for i, s in enumerate(points):
                one = tail_word_integral(word, s, params)
                assert (complex(values[i, k]), float(errs[i, k])) == one

    def test_riemann_r4(self):
        words = build_expression((make_builtin_theta("riemann"),) * 4).plan.letters.words
        points = [(2.0, 1.5, 0.5 + 1j, -1.25 + 0.5j), (0.3 + 2.1j, -1.2 + 0.4j, 1.7 - 2.2j, 2.5)]
        self.assert_one_word_calls(words, points, EvalParams())

    @pytest.mark.parametrize("row_budget", [quadrature.ROW_BUDGET, 1])
    def test_mixed_horizons_and_refinement_exits(self, monkeypatch, row_budget):
        monkeypatch.setattr(quadrature, "ROW_BUDGET", row_budget)
        names = ("theta_plus", "riemann", "jacobi3")
        words = build_expression(tuple(make_builtin_theta(n) for n in names)).plan.letters.words
        points = [(-1.6 + 0.3j, -0.8 + 0.6j, 0.8 - 2.6j), (2.0 - 0.1j, 0.8 - 2.1j, 0.8 + 2.2j),
                  (-5.5 + 4.5j, 3.2 - 6.1j, -2.5 + 5.5j), (1.3 + 2.5j, -0.6 + 1.8j, -0.3 + 2.6j)]
        # a coarse node set, so that words leave refinement at different levels
        params = EvalParams(quad_order=8)
        self.assert_one_word_calls(words, points, params)
        assert_as_reference(words, points, params)
        meshes = []
        on_mesh = quadrature.integrate_word_on_mesh
        monkeypatch.setattr(quadrature, "integrate_word_on_mesh",
                            lambda *a: meshes.append(a[2]) or on_mesh(*a))
        horizons, depths = set(), set()
        for word in filter(None, words):
            for s in points:
                meshes.clear()
                tail_word_integral(word, s, params)
                horizons.add(meshes[0].edges[-1])
                depths.add(len(meshes) - 1)
        assert horizons == {4.0, 8.0, 16.0, 32.0} and depths == {1, 2}

    def test_failure_of_the_first_failing_word(self):
        """Word b's node values fail on its mesh of horizon 8, the first,
        and word a fails refinement later, on its mesh of horizon 16;
        either order raises b's failure, the first met.  Words a and c
        fail refinement on one mesh, where the first of them is raised."""
        a, b, c, params, points = failing_words()
        cases = [((a, b), b), ((b, a), b), ((a, c), a), ((c, a), c)]
        messages = []
        for words, first in cases:
            letters, exps = exponent_columns(words, points)
            horizons = quadrature.word_horizons(letters, exps, params)
            assert [h.tolist() for h in horizons] == [
                [8.0, 8.0] if w is b else [16.0, 16.0] for w in words]
            with pytest.raises((QuadratureError, TruncationError)) as one:
                integrate_words(*exponent_columns((first,), points), params)
            assert one.type is (TruncationError if first is b else QuadratureError)
            with pytest.raises(one.type) as many:
                integrate_words(letters, exps, params)
            assert str(many.value) == str(one.value)
            messages.append(str(one.value))
        assert messages[0] == messages[1] and messages[2] != messages[3]

    def test_unresolved_jobs_handed_back(self):
        """Given a list, a mesh whose refinement runs out hands its
        unresolved jobs back instead, first the one its failure names, each
        with its last estimate, above abs_tol."""
        a, _, c, params, points = failing_words()
        letters, exps = exponent_columns((a, c), points)
        with pytest.raises(QuadratureError) as failure:
            integrate_words(letters, exps, params)
        unresolved = []
        _, errs = integrate_words(letters, exps, params, unresolved=unresolved)
        (ks, rows, level), = unresolved
        assert level == params.max_refine and (errs[rows, ks] > params.abs_tol).all()
        first = quadrature.refinement_failure(errs[rows[0], ks[0]], level, params)
        assert str(first) == str(failure.value)

    def test_stops_at_the_first_failure(self, monkeypatch):
        """Word 0 runs on a mesh of horizon 16, word 1 on one of horizon 8,
        where its node values fail: the call raises there and integrates
        on no larger mesh."""
        a, b, _, params, points = failing_words()
        letters, exps = exponent_columns((a, b), points)
        meshes = []
        on_mesh = quadrature.integrate_word_on_mesh
        monkeypatch.setattr(quadrature, "integrate_word_on_mesh",
                            lambda *args: meshes.append(args[2]) or on_mesh(*args))
        with pytest.raises((QuadratureError, TruncationError)) as failure:
            integrate_words(letters, exps, params)
        assert [m.edges[-1] for m in meshes] == [8.0]
        assert failure.type is TruncationError

    def test_prefix_letter_growth_failure_in_word_order(self):
        """A word whose prefix letter's growth bound raises TruncationError
        fails with that error, and the call raises the failure of the first
        such word, in word order."""
        rie = make_builtin_theta("riemann")
        bad = {}
        for name, rate in (("a", 1.0), ("b", 2.0)):
            bad[name] = make_single_exp(rate)

            def growth(part, name=name):
                raise TruncationError(f"growth of {name} fails")

            bad[name].growth = growth
        good = (Letter(rie, "tail", slot(0, 2)),)
        wa, wb = ((Letter(bad[x], "full", slot(0, 2)), Letter(rie, "tail", slot(1, 2)))
                  for x in "ab")
        for words, first in (((good, wa, wb), "a"), ((good, wb, wa), "b")):
            letters, exps = exponent_columns(words, [(2.0, 3.0)])
            assert sorted(letters.failures) == [1, 2]
            with pytest.raises(TruncationError, match=f"^growth of {first} fails$"):
                integrate_words(letters, exps, EvalParams())

    def test_horizons_raise_the_lowest_index_failure(self):
        """word_horizons raises the failure of the lowest-index word with
        one, a letter table's (a prefix letter's growth bound fails) or a
        word's with no horizon at some point, as a fresh copy: the table's
        own error is never raised, so two calls give tracebacks of one
        length."""
        rie = make_builtin_theta("riemann")
        bad = make_single_exp(1.0)

        def growth(part):
            raise TruncationError("growth fails")

        bad.growth = growth
        good = (Letter(rie, "tail", slot(0, 2)),)
        huge = (Letter(rie, "tail", slot(1, 2)),)  # no horizon at s2 = 1e14
        grows = (Letter(bad, "full", slot(0, 2)), Letter(rie, "tail", slot(1, 2)))
        cases = [((good, huge, grows), QuadratureError, "no horizon satisfies"),
                 ((good, grows, huge), TruncationError, "^growth fails$")]
        for words, kind, message in cases:
            letters, exps = exponent_columns(words, [(2.0, 3.0), (2.0, 1e14)])
            assert list(letters.failures) == [words.index(grows)]
            depths = []
            for _ in range(2):
                with pytest.raises(kind, match=message) as got:
                    quadrature.word_horizons(letters, exps, EvalParams())
                assert got.value is not letters.failures[words.index(grows)]
                depths.append(len(traceback.extract_tb(got.value.__traceback__)))
            assert depths[0] == depths[1]

    @pytest.mark.parametrize("at,fails", [((0, 0), True), ((1, 1), True),
                                          ((0, 1), False), ((1, 0), False)])
    def test_non_finite_value_at_a_job_point(self, monkeypatch, at, fails):
        """Word k runs on the mesh of horizon 4 at point k alone, the other
        point padding it: a non-finite value at a point of its own fails
        the call, even when unresolved jobs are handed back, and one at a
        padded point is discarded."""
        rie = make_builtin_theta("riemann")
        words = ((Letter(rie, "tail", slot(0, 2)),), (Letter(rie, "tail", slot(1, 2)),))
        letters, exps = exponent_columns(words, [(2.0, 30.0), (30.0, 2.0)])
        params = EvalParams()
        want = integrate_words(letters, exps, params)
        on_mesh = quadrature.integrate_word_on_mesh

        def poisoned(letters, maps, m):
            values = on_mesh(letters, maps, m)
            if m.edges == (1.0, 2.0, 4.0):
                values[at] = np.inf
            return values

        monkeypatch.setattr(quadrature, "integrate_word_on_mesh", poisoned)
        if fails:
            with pytest.raises(QuadratureError,
                               match=r"^word integral overflows on the mesh \[1, 4\]$"):
                integrate_words(letters, exps, params, unresolved=[])
        else:
            got = integrate_words(letters, exps, params)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_radius8_request_fails_as_before(self, capsys):
        code = main(["eval", "--theta", "theta-,jacobi:3,jacobi:2,theta-",
                     "--s=-6.465977-5.167086i,-5.273694+2.386160i,"
                     "-6.910034+3.441692i,-7.555115+0.577172i"])
        assert code == 4
        assert capsys.readouterr().err == (
            "numeric failure: estimate 9.413e-10 above 1.0e-10 after 8 refinements\n"
        )


def mesh_level(m):
    """The refinement level of a mesh over [1, T]: its panels over those of
    doubling_edges(1, T), as a power of 2."""
    return round(math.log2((len(m.edges) - 1) / (len(doubling_edges(1.0, m.edges[-1])) - 1)))


class TestStall:
    """A job whose estimate is above STALL_FLOOR * abs_tol and above
    STALL_ROUNDING * |value|, and has not fallen by STALL_SHRINK over two
    levels, leaves refinement at once; a request whose words pass only at
    late levels, below the floor or within rounding, and one whose run-out
    word still serves, print what they printed before."""

    # the point of seed-1 oneshot request 380 of perfbench, where a word of
    # theta-, eisenstein:6, jacobi:4 stalls at level 5
    POINT = (-2.975505 + 0.930716j, -2.140780 + 2.319131j, -2.899532 - 1.117404j)

    def test_stalled_request_fails_at_its_stall(self, monkeypatch, capsys):
        meshes = []
        on_mesh = quadrature.integrate_word_on_mesh
        monkeypatch.setattr(quadrature, "integrate_word_on_mesh",
                            lambda *a: meshes.append(a[2]) or on_mesh(*a))
        code = main(["eval", "--theta", "theta-,eisenstein:6,jacobi:4",
                     "--s=-2.975505+0.930716i,-2.140780+2.319131i,-2.899532-1.117404i"])
        assert code == 4
        assert capsys.readouterr().err == (
            "numeric failure: estimate 1.343e-05 above 1.0e-10, stalled at level 5\n")
        assert max(map(mesh_level, meshes)) == 5

    def test_integrate_words_raises_at_the_stall(self):
        words = plan_words("theta_minus", "eisenstein:6", "jacobi4")
        letters, exps = exponent_columns(words, [self.POINT])
        params = EvalParams()
        failure = assert_as_reference(words, [self.POINT], params)
        assert str(failure) == "estimate 1.343e-05 above 1.0e-10, stalled at level 5"
        unresolved = []
        _, errs = integrate_words(letters, exps, params, unresolved=unresolved)
        (ks, rows, level), = unresolved
        assert level == 5 and errs[rows, ks] > quadrature.STALL_FLOOR * params.abs_tol
        # run again with no stall, the word runs out of refinements
        unresolved = []
        integrate_words(letters, exps, params, unresolved=unresolved,
                        rerun=np.ones((len(letters.words), 1), dtype=bool))
        (ks, rows, level), = unresolved
        assert level == params.max_refine

    def test_stalled_jobs_named_before_jobs_that_ran_out(self, monkeypatch):
        """One word at points a, b and c, on one mesh, its values shifted
        per level: a's estimate stays at 1e-6 and stalls at level 3; b's
        falls by 5 over two levels and c's stays below the floor, so both
        run out at level 4.  A level's values have a column per point still
        running."""
        rie = make_builtin_theta("riemann")
        letters, exps = exponent_columns(((Letter(rie, "tail", slot(0, 1)),),),
                                         [(2.0,), (2.25,), (2.5,)])
        params = EvalParams(max_refine=4)
        assert len(set(quadrature.word_horizons(letters, exps, params).ravel())) == 1
        shift = {0: (0, 0, 0), 1: (1e-6, 1e-6, 1e-9), 2: (0, 0, 0), 3: (1e-6, 2e-7, 1e-9),
                 4: (0, 0)}
        on_mesh = quadrature.integrate_word_on_mesh
        monkeypatch.setattr(quadrature, "integrate_word_on_mesh",
                            lambda *a: on_mesh(*a) + shift[mesh_level(a[2])])
        with pytest.raises(QuadratureError,
                           match=r"^estimate 1\.000e-06 above 1\.0e-10, stalled at level 3$"):
            integrate_words(letters, exps, params)
        unresolved = []
        _, errs = integrate_words(letters, exps, params, unresolved=unresolved)
        assert [(ks.tolist(), rows.tolist(), level) for ks, rows, level in unresolved] == [
            ([0], [0], 3), ([0, 0], [1, 2], 4)]
        assert [str(quadrature.refinement_failure(errs[rows[0], ks[0]], level, params))
                for ks, rows, level in unresolved] == [
            "estimate 1.000e-06 above 1.0e-10, stalled at level 3",
            "estimate 2.000e-07 above 1.0e-10 after 4 refinements"]

    @pytest.mark.parametrize("names,point,stdout", [
        # passes only at a late level, where its estimate dips under abs_tol
        ("jacobi:2,jacobi:4,theta+,eisenstein:6",
         "1.912653+1.206025i,-1.080021+0.032658i,-2.087905+2.058803i,-1.854091+2.465069i",
         '{"err": 1.2571320651408994e-09, "im": 376.78788150663604, '
         '"re": -4977.489195179311, "warnings": []}\n'),
        # a word runs out of refinements and still serves
        ("eisenstein:4,jacobi:2,jacobi:4",
         "3.041766+5.756679i,-3.069335+7.979984i,-7.227824+6.327266i",
         '{"err": 1.6975380865029304e-10, "im": -0.29937653310529405, '
         '"re": 0.21713627355104806, "warnings": []}\n'),
        # a word of |I| = 1.75e9 whose estimate hovers at 1-5 units of its
        # rounding, 1e4 times abs_tol, passes when two levels round to the
        # same double (seed-17 oneshot request 592)
        ("theta-,jacobi:3,eisenstein:6,jacobi:4",
         "0.247461-0.921644i,-2.931922+1.592962i,-2.671695+1.244576i,-1.877000+2.721736i",
         '{"err": 2.673374787112579e-10, "im": -1748166663.2289276, '
         '"re": -83160265.32362947, "warnings": []}\n'),
    ])
    def test_late_passing_requests_print_as_before(self, capsys, names, point, stdout):
        assert main(["eval", "--theta", names, f"--s={point}", "--format", "json"]) == 0
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("names,point,code,out", [
        # a word stalls at level 3 and serves; with no stall it runs out and serves
        ("jacobi:4,riemann,theta-,eisenstein:6",
         "-7.246938-7.060591i,-1.120719-2.876547i,-0.266732-4.556617i,6.332690+7.623130i",
         0, '{"err": 6.874984330149946e-07, "im": -1210.0909394482821, '
            '"re": 1703.726441970072, "warnings": []}\n'),
        # a word stalls at level 3 and serves; with no stall it runs out and does not
        ("eisenstein:4,riemann,jacobi:2",
         "-6.586925-6.845102i,4.316782+2.958056i,7.826238+4.149409i",
         4, "numeric failure: estimate 2.608e-07 above 1.0e-10 after 8 refinements\n"),
        # a word stalls and misses abs_tol, but not by STALL_FLOOR; the request
        # fails with the message of the full refinement (seed-13 request 654)
        ("theta-,delta,jacobi:4,jacobi:2",
         "-0.532672-7.534775i,-6.476717-6.520452i,6.865247-3.576829i,5.166608-4.218918i",
         4, "numeric failure: estimate 7.748e-08 above 1.0e-10 after 8 refinements\n"),
    ])
    def test_stalled_word_that_serves_runs_to_its_last_level(self, monkeypatch, capsys,
                                                              names, point, code, out):
        """When no word fails by far, the engine refines the stalled jobs,
        and only those, to the end with no stall, so the request prints
        what the full refinement gives."""
        calls = []
        integrate = engine.integrate_words

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return integrate(*args, **kwargs)
        monkeypatch.setattr(engine, "integrate_words", recorded)
        assert main(["eval", "--theta", names, f"--s={point}", "--format", "json"]) == code
        first, again = calls
        stalled = [(ks, rows) for ks, rows, level in first["unresolved"] if level < 8]
        assert "rerun" not in first
        assert sorted(zip(*again["rerun"].nonzero())) == sorted(
            (k, i) for ks, rows in stalled for k, i in zip(ks.tolist(), rows.tolist()))
        assert "".join(capsys.readouterr()) == out

    def test_stalled_jobs_weigh_nothing_until_refined(self, monkeypatch):
        """The first judgement counts each stalled job at 0 in the weights
        of the others; the judgement after their refinement counts every
        job at |I| + e."""
        judged = []
        check = engine._check_unresolved
        monkeypatch.setattr(engine, "_check_unresolved",
                            lambda *args: judged.append(args) or check(*args))
        assert main(["eval", "--theta", "theta-,delta,jacobi:4,jacobi:2",
                     "--s=-0.532672-7.534775i,-6.476717-6.520452i,"
                     "6.865247-3.576829i,5.166608-4.218918i"]) == 4
        (_, _, reach, werrs, unresolved, _), (_, _, final, final_errs, _, _) = judged
        stalled = np.zeros(werrs.shape, dtype=bool)
        for ks, rows, level in unresolved:
            stalled[rows, ks] = level < 8
        assert stalled.any() and (reach[stalled] == 0).all() and (reach[~stalled] > 0).all()
        assert (final >= final_errs).all() and (final > 0).all()

    def test_marked_jobs_as_in_the_full_call(self):
        """integrate_words over a (words, points) mask of jobs to rerun
        gives the marked jobs their values and estimates of the full call
        with no stall, bit for bit, and the others 1 and 0."""
        words = plan_words("theta_minus", "eisenstein:6", "jacobi4")
        points = [self.POINT, (1.5 + 0.5j, 2.25, 1.75 - 1j)]
        letters, exps = exponent_columns(words, points)
        params = EvalParams()
        every = np.ones((len(letters.words), len(points)), dtype=bool)
        values, errs = integrate_words(letters, exps, params, unresolved=[], rerun=every)
        jobs = np.random.default_rng(3).random(every.shape) < 0.5
        some, some_errs = integrate_words(letters, exps, params, unresolved=[], rerun=jobs)
        assert jobs.any() and not jobs.all()
        assert np.array_equal(some[jobs.T], values[jobs.T])
        assert np.array_equal(some_errs[jobs.T], errs[jobs.T])
        assert (some[~jobs.T] == 1).all() and (some_errs[~jobs.T] == 0).all()


# ---------------------------------------------------------------------------
# the depth-first prefix walk that the length-by-length pass replaced, kept
# as the reference that integrate_words must equal bit for bit
# ---------------------------------------------------------------------------


class RefPrefix:
    """A word prefix on one mesh: the rows of the words that share it, the
    words that end with it, and the prefixes one letter longer."""

    def __init__(self):
        self.rows, self.ends, self.after = [], [], {}


def ref_union(arrays):
    return arrays[0] if len(arrays) == 1 else np.unique(np.concatenate(arrays))


def ref_take(values, have, rows):
    if have is None or have.size == rows.size:
        return values
    return values[np.searchsorted(have, rows)]


def ref_node_powers(m, exps, rows, c):
    return m.powers(exps[rows, c] - 1.0)


def ref_phi(letter, power, nodal, out):
    if letter.part == "mono":  # the constant function 1
        return np.multiply(1.0, power, out=out)
    return np.multiply(nodal[letter.theta, letter.part], power, out=out)


def ref_integrate_prefixes(m, exps, nodal, jobs, pieces):
    if len(jobs) == 1:
        ((k, word, cols, rows),) = jobs
        f = 1.0
        for j, (letter, c) in enumerate(zip(word, cols.tolist())):
            if j:
                f = m.cumulative(f)
            power = ref_node_powers(m, exps, rows, c)
            f = np.multiply(ref_phi(letter, power, nodal, power), f, out=power)
        pieces[k].append(m.integral(f))
        return
    root = RefPrefix()
    col_rows = {}
    for k, word, cols, rows in jobs:
        node = root
        for key in zip(word, cols.tolist()):
            child = node.after.get(key)
            if child is None:
                child = node.after[key] = RefPrefix()
            child.rows.append(rows)
            col_rows.setdefault(key[1], []).append(rows)
            node = child
        node.ends.append((k, rows))
    uses = {c: len(v) for c, v in col_rows.items()}
    powers = {}
    stack = [[list(root.after.items()), 1.0, None]]
    while stack:
        todo, inner, inner_rows = stack[-1]
        (letter, c), node = todo.pop()
        if not todo:
            stack.pop()
        rows = ref_union(node.rows)
        if c not in powers:
            have = ref_union(col_rows[c])
            powers[c] = (have, ref_node_powers(m, exps, have, c))
        have, power = powers[c]
        power = ref_take(power, have, rows)
        uses[c] -= len(node.rows)
        out = power if not uses[c] and power is powers.pop(c)[1] else None
        f = ref_phi(letter, power, nodal, out)
        del power
        np.multiply(f, ref_take(inner, inner_rows, rows), out=f)
        del inner
        for k, r in node.ends:
            pieces[k].append(m.integral(ref_take(f, rows, r)))
        if node.after:
            more = ref_union([r for g in node.after.values() for r in g.rows])
            stack.append([list(node.after.items()), m.cumulative(ref_take(f, rows, more)), more])
        del f


def ref_integrate_word_on_mesh(words, cols, exps, rows, m):
    nodal = {}
    for word in words:
        for letter in word:
            key = (letter.theta, letter.part)
            if letter.part != "mono" and key not in nodal:
                nodal[key] = m.theta_values(letter.theta, letter.part)
    pieces = {k: [] for k in range(len(words))}
    step = max(1, quadrature.ROW_BUDGET // m.log_nodes.size)
    bounds = [None]
    if sum(r.size for r in rows) > step:
        every = ref_union(rows)
        bounds = [(every[lo], every[min(lo + step, every.size) - 1])
                  for lo in range(0, every.size, step)]
    for bound in bounds:
        jobs = []
        for k, r in enumerate(rows):
            if bound is not None:
                r = r[np.searchsorted(r, bound[0]) : np.searchsorted(r, bound[1], "right")]
            if r.size:
                jobs.append((k, words[k], cols[k], r))
        ref_integrate_prefixes(m, exps, nodal, jobs, pieces)
    return [p[0] if len(p) == 1 else np.concatenate(p) for p in pieces.values()]


class RefJob:
    def __init__(self, k, rows):
        self.k, self.rows, self.v0 = k, rows, None
        # the estimates of the last level and of the one before
        self.est = self.older = np.full(rows.size, math.inf)


def ref_integrate_words(letters, exps, params):
    """integrate_words (no edges) over the depth-first walk, job by job,
    raising the first failure it meets."""
    words = letters.words
    cols = [letter_columns(letters, k) for k in range(len(words))]
    n = exps.shape[0]
    values = np.ones((len(words), n), dtype=complex)
    errs = np.zeros((len(words), n))
    meshes = {}
    slack = params.abs_tol * quadrature.HORIZON_SAFETY
    every_horizon = quadrature.word_horizons(letters, exps, params)
    for k, word in enumerate(words):
        if not word:
            continue
        horizons = every_horizon[k]
        for t_max in sorted(set(horizons.tolist())):
            job = RefJob(k, np.flatnonzero(horizons == t_max))
            meshes.setdefault(doubling_edges(1.0, t_max), []).append(job)
    for key in sorted(meshes):
        jobs = meshes[key]
        m = quadrature.mesh(key, params.quad_order)
        for level in range(params.max_refine + 1):
            if level:
                m = m.refined()
            results = ref_integrate_word_on_mesh(
                [words[job.k] for job in jobs], [cols[job.k] for job in jobs], exps,
                [job.rows for job in jobs], m)
            kept = []
            for job, v1 in zip(jobs, results):
                if level:
                    est = np.abs(v1 - job.v0) + slack
                    done = est <= params.abs_tol
                    values[job.k][job.rows[done]] = v1[done]
                    errs[job.k][job.rows[done]] = est[done]
                    stalled = ((est > quadrature.STALL_FLOOR * params.abs_tol)
                               & (est * quadrature.STALL_SHRINK > job.older)
                               & (est > quadrature.STALL_ROUNDING * np.abs(v1)) & ~done)
                    if level < params.max_refine and stalled.any():
                        raise QuadratureError(
                            f"estimate {est[stalled][0]:.3e} above {params.abs_tol:.1e}, "
                            f"stalled at level {level}")
                    job.rows, v1 = job.rows[~done], v1[~done]
                    job.older, job.est = job.est[~done], est[~done]
                job.v0 = v1
                if job.rows.size:
                    kept.append(job)
            jobs = kept
            if not jobs:
                break
        else:
            raise QuadratureError(
                f"estimate {jobs[0].est[0]:.3e} above {params.abs_tol:.1e} after "
                f"{params.max_refine} refinements")
    return values.T, errs.T


def assert_as_reference(words, points, params):
    """integrate_words equals the depth-first walk bit for bit: values and
    estimates, or the failure's type and message."""
    letters, exps = exponent_columns(words, points)
    try:
        want = ref_integrate_words(letters, exps, params)
    except (QuadratureError, TruncationError) as exc:
        with pytest.raises(type(exc)) as got:
            integrate_words(letters, exps, params)
        assert str(got.value) == str(exc)
        return exc
    got = integrate_words(letters, exps, params)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


def plan_words(*names):
    """The distinct words of the plan of a theta tuple; "eisenstein:4" names
    the weight."""
    thetas = []
    for name in names:
        family, _, weight = name.partition(":")
        thetas.append(make_builtin_theta(family, int(weight)) if weight else make_builtin_theta(name))
    return build_expression(tuple(thetas)).plan.letters.words


class TestLengthPass:
    """The prefixes of one length integrate as one stacked block; every word
    at every point must come out bit for bit as in the depth-first walk."""

    @pytest.mark.parametrize("r", [4, 5])
    def test_riemann(self, r):
        points = [(2.0, 1.5, 0.5 + 1j, -1.25 + 0.5j, 0.3 - 0.7j),
                  (0.3 + 2.1j, -1.2 + 0.4j, 1.7 - 2.2j, 2.5, 1.1 + 0.5j)]
        assert_as_reference(plan_words(*["riemann"] * r), [p[:r] for p in points], EvalParams())

    def test_monomial_letters(self):
        """Tail-transform words carry monomial letters, whose factor is a
        coefficient rather than node values."""
        thetas = tuple(make_builtin_theta(n) for n in ("jacobi3", "riemann", "theta_plus"))
        words = build_tail_expression(thetas).plan.letters.words
        assert any(letter.part == "mono" for word in words for letter in word)
        assert_as_reference(words, [(2.5 + 0.5j, 3.0, 2.2 - 0.3j), (3.1, 2.6 + 1j, 2.9)],
                            EvalParams())

    def test_eisenstein_delta_grid(self):
        """A 4 x 4 grid whose words take different horizons at different
        points, so the words on one mesh run at different points."""
        words = plan_words("eisenstein:4", "delta")
        points = [(complex(a, 0.5), complex(b, -1.0)) for a in (-2.5, -0.5, 1.5, 3.5)
                  for b in (-1.0, 2.0, 5.0, 8.0)]
        letters, exps = exponent_columns(words, points)
        by_mesh = {}
        for h in quadrature.word_horizons(letters, exps, EvalParams()):
            for t in set(h.tolist()):
                by_mesh.setdefault(t, set()).add(tuple(np.flatnonzero(h == t)))
        assert any(len(rows) > 1 for rows in by_mesh.values())
        assert_as_reference(words, points, EvalParams())

    @pytest.mark.parametrize("block_budget,row_budget", [(1, 1 << 17), (700, 1 << 17), (3000, 200)])
    def test_block_budget_split(self, monkeypatch, block_budget, row_budget):
        """Blocks of one prefix, of a few prefixes, and of a few prefixes at
        a few points, so that blocks split the prefixes of one length and
        the longer prefixes extending them."""
        monkeypatch.setattr(quadrature, "BLOCK_BUDGET", block_budget)
        monkeypatch.setattr(quadrature, "ROW_BUDGET", row_budget)
        points = [(2.0, 1.5, 0.5 + 1j, -1.25 + 0.5j), (0.3 + 2.1j, -1.2 + 0.4j, 1.7 - 2.2j, 2.5),
                  (1.1 - 0.3j, 0.4 + 0.4j, 2.2, -0.5 + 1.5j)]
        assert_as_reference(plan_words(*["riemann"] * 4), points, EvalParams())

    def test_failure_order(self):
        """Node values that fail on the first mesh and a refinement that
        fails later: every order raises the node-value failure; without
        it, the first word's refinement failure."""
        a, b, c, params, points = failing_words()
        # word b's theta, whole: its node values fail on d's mesh of horizon 4
        d = (Letter(b[0].theta, "full", slot(0, 2)),
             Letter(make_builtin_theta("riemann"), "tail", slot(1, 2)))
        for words, error in [((a, b), TruncationError), ((b, a), TruncationError),
                             ((a, d, b), TruncationError), ((d, b, a), TruncationError),
                             ((a, c), QuadratureError), ((c, a), QuadratureError)]:
            assert isinstance(assert_as_reference(words, points, params), error)


def grid(*axes):
    """The Cartesian product of per-slot value lists, as table builds it."""
    return list(itertools.product(*axes))


def assert_as_one_point_calls(words, points, params):
    """integrate_words over the points equals, bit for bit, integrate_words
    at each point alone."""
    letters, exps = exponent_columns(words, points)
    values, errs = integrate_words(letters, exps, params)
    for i in range(len(points)):
        one_values, one_errs = integrate_words(letters, exps[i : i + 1], params)
        assert values[i].tobytes() == one_values[0].tobytes()
        assert errs[i].tobytes() == one_errs[0].tobytes()


class TestValueMaps:
    """A pass forms node powers and first-letter integrals once per
    distinct exponent value of a column among its points; every word at
    every point must still come out bit for bit as in the depth-first walk
    and as at that point alone."""

    R2 = grid([0.3 + 0.7j + 0.25 * a for a in range(5)], [1.1 - 0.4j + 0.25 * b for b in range(4)])

    @pytest.mark.parametrize("r", [2, 3])
    def test_riemann_grids(self, r):
        points = self.R2 if r == 2 else grid(
            [0.3 + 0.7j, 0.8 + 0.7j, 1.3 + 0.7j], [1.1 - 0.4j, 1.6 - 0.4j], [0.6 + 0.2j, 1.1 + 0.2j])
        words = plan_words(*["riemann"] * r)
        assert_as_reference(words, points, EvalParams())
        assert_as_one_point_calls(words, points, EvalParams())

    def test_duplicate_cells(self):
        points = self.R2[:6] + self.R2[2:5] + self.R2[:1]
        words = plan_words("riemann", "riemann")
        assert_as_reference(words, points, EvalParams())
        assert_as_one_point_calls(words, points, EvalParams())

    def test_real_integer_exponents(self, monkeypatch):
        """Real integer slots: exponents numpy raises by repeated products,
        among the distinct values whose powers a pass forms."""
        marks = []
        powers = quadrature.PanelMesh.powers
        monkeypatch.setattr(quadrature.PanelMesh, "powers",
                            lambda m, e: marks.append(quadrature.repeated_products(e).any())
                            or powers(m, e))
        points = grid([2.0, 3.0, 2.5, 4.0], [2.0, 3.0, 1.5 + 0.5j])
        words = plan_words("riemann", "riemann")
        assert_as_reference(words, points, EvalParams())
        assert any(marks)
        assert_as_one_point_calls(words, points, EvalParams())

    def test_plain_powers_only_where_repeated_products(self, monkeypatch):
        """A row block whose points have no exponent numpy raises by
        repeated products forms no nodes ** e, so reads no nodes, even
        where some are real; one whose points have some forms it."""
        monkeypatch.setattr(quadrature, "ROW_BUDGET", 1)
        reads, calls = [], []
        nodes = quadrature.PanelMesh.nodes
        monkeypatch.setattr(quadrature.PanelMesh, "nodes",
                            property(lambda m: reads.append(m) or nodes.fget(m)))
        powers = quadrature.PanelMesh.powers

        def counted(m, e):
            reads.clear()
            out = powers(m, e)
            calls.append((bool(quadrature.repeated_products(e).any()), len(reads)))
            return out

        monkeypatch.setattr(quadrature.PanelMesh, "powers", counted)
        words = plan_words("riemann", "riemann")
        points = grid([2.0, 2.5 + 0.5j, 2.5], [1.5 + 0.5j, 3.0, 1.25])
        integrate_words(*exponent_columns(words, points), EvalParams())
        assert {marked for marked, _ in calls} == {False, True}
        assert all((n > 0) == marked for marked, n in calls)
        assert_as_reference(words, points, EvalParams())

    def test_first_letter_layouts(self, monkeypatch):
        """Points that share no exponent value integrate their first letters
        in the trie's own layout, one row per point; a grid, whose points
        share values, in the flat layout of its distinct values.  Both come
        out bit for bit as at each point alone."""
        flat = []
        first = quadrature._PrefixPass.first
        monkeypatch.setattr(quadrature._PrefixPass, "first",
                            lambda p, a, b: flat.append(p.blk.ends is not None) or first(p, a, b))
        words = plan_words("riemann", "riemann")
        distinct = [(0.3 + 0.7j + 0.21 * i, 1.1 - 0.4j + 0.17 * i) for i in range(6)]
        assert_as_reference(words, distinct, EvalParams())
        assert flat and not any(flat)
        flat.clear()
        assert_as_reference(words, self.R2, EvalParams())
        assert any(flat)
        assert_as_one_point_calls(words, distinct, EvalParams())
        assert_as_one_point_calls(words, self.R2, EvalParams())

    @pytest.mark.parametrize("row_budget", [1, 300, 1500])
    def test_maps_cross_row_blocks(self, monkeypatch, row_budget):
        """Row blocks of one point and of a few points, each over the values
        its own points use."""
        monkeypatch.setattr(quadrature, "ROW_BUDGET", row_budget)
        blocks = []
        block = quadrature._ValueMaps.block
        monkeypatch.setattr(quadrature._ValueMaps, "block",
                            lambda maps, lo, hi: blocks.append(lo) or block(maps, lo, hi))
        assert_as_reference(plan_words("riemann", "riemann"), self.R2, EvalParams())
        assert any(lo > 0 for lo in blocks)

    def test_refinement_exits_at_different_levels_and_horizons(self, monkeypatch):
        """A coarse node set on a grid, so that words leave refinement at
        different levels and run on meshes of different horizons."""
        words = plan_words("theta_plus", "riemann", "jacobi3")
        points = grid([-1.6 + 0.3j, 2.0 - 0.1j], [-0.8 + 0.6j, 0.8 - 2.1j], [0.8 - 2.6j, 0.8 + 2.2j])
        params = EvalParams(quad_order=8)
        meshes = []
        on_mesh = quadrature.integrate_word_on_mesh
        monkeypatch.setattr(quadrature, "integrate_word_on_mesh",
                            lambda *a: meshes.append((a[2].edges[-1], a[1].size)) or on_mesh(*a))
        assert_as_reference(words, points, params)
        horizons = {t for t, _ in meshes}
        assert len(horizons) > 2 and len({n for _, n in meshes}) > 2
        assert_as_one_point_calls(words, points, params)

    def test_powers_per_distinct_value(self, monkeypatch):
        """One point forms len(pre.cols) node power rows per pass, as a pass
        over all columns at each point does; a 10 x 10 riemann r = 2 grid
        forms at least five times fewer than that."""
        formed, per_cell = [], []
        powers = quadrature.PanelMesh.powers
        monkeypatch.setattr(quadrature.PanelMesh, "powers",
                            lambda m, e: formed.append(e.size) or powers(m, e))
        on_mesh = quadrature.integrate_word_on_mesh
        monkeypatch.setattr(quadrature, "integrate_word_on_mesh",
                            lambda *a: per_cell.append(a[1].pre.cols.size * a[1].size)
                            or on_mesh(*a))
        words = plan_words("riemann", "riemann")
        letters, exps = exponent_columns(words, self.R2[:1])
        integrate_words(letters, exps, EvalParams())
        assert formed == per_cell and len(formed) > 1
        formed.clear()
        per_cell.clear()
        points = grid([0.3 + 0.7j + 0.25 * a for a in range(10)],
                      [1.1 - 0.4j + 0.25 * b for b in range(10)])
        letters, exps = exponent_columns(words, points)
        integrate_words(letters, exps, EvalParams())
        assert 5 * sum(formed) <= sum(per_cell)


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
    decay_k, shift = th.growth("tail")
    if decay_k == 0.0:
        return np.full(n, 2.0)
    e_re = exps.real
    log_prefac = 0.0
    growth_exp = np.zeros(n)
    for j, letter in enumerate(word[:-1]):
        b, deg = ((1.0, 0.0) if letter.part == "mono"
                  else letter.theta.growth(letter.part))
        log_prefac += math.log(max(b, 1e-300))
        growth_exp += np.maximum(e_re[:, j] - 1.0 + deg + 1.0, 0.0)
    alpha = growth_exp + e_re[:, -1] - 1.0 + shift
    log_target = math.log(params.abs_tol * quadrature.HORIZON_SAFETY)
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
            got = m.powers(e)
            assert got.shape == (e.size, m.nodes.size)
            assert np.array_equal(got, m.nodes ** e[:, None])
            # no repeated-product row; real non-integer rows and +-100 only;
            # complex rows only; one row
            real = e[~exact & (e.imag == 0.0)]
            assert real.size and (np.abs(real.real) == 100.0).any()
            for rows in (e[~exact], real, e[e.imag != 0.0], e[~exact][:1], e[exact][:1]):
                assert np.array_equal(m.powers(rows), m.nodes ** rows[:, None])

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
        slot leaves some words with no valid horizon.  The table raises
        the failure of the lowest-index failing word, each failing word on
        its own raises its reference message, and the table of the other
        words gives each of them its one-word horizons."""
        monkeypatch.setattr(quadrature, "ROW_BUDGET", row_budget)
        r = len(names)
        words = list(build_expression(tuple(make_builtin_theta(n) for n in names)).plan.letters.words)
        rie = make_builtin_theta("riemann")
        words.insert(3, (Letter(rie, "tail", slot(0, r)), Letter(rie, "full", slot(1, r))))
        points = [(2.0,) * r, (0.3 + 2.1j, -1.2 + 0.4j, 1.7 - 2.2j, 2.5)[:r],
                  (-5.5 + 4.5j, 3.2 - 6.1j, -2.5 + 5.5j, 0.5)[:r],
                  (0.5 - 1j, 1e14, -1.5 + 2j, 1.5)[:r]]
        letters, exps = exponent_columns(words, points)
        cols = [letter_columns(letters, k) for k in range(len(words))]
        params = EvalParams()
        failures, horizons = {}, {}
        for k, word in enumerate(words):
            try:
                horizons[k] = reference_horizons(word, exps[:, cols[k]], params)
            except QuadratureError as exc:
                failures[k] = str(exc)
                with pytest.raises(QuadratureError) as one:
                    one_word_horizons(word, exps[:, cols[k]], params)
                assert str(one.value) == failures[k]
        assert 1 < len(failures) < len(words)
        assert "final tail letter" in failures[3]
        with pytest.raises(QuadratureError) as first:
            quadrature.word_horizons(letters, exps, params)
        assert str(first.value) == failures[min(failures)]
        ok = sorted(horizons)
        batch = quadrature.word_horizons(
            *exponent_columns([words[k] for k in ok], points), params)
        for k, got in zip(ok, batch):
            assert np.array_equal(got, horizons[k])
            assert np.array_equal(got, one_word_horizons(words[k], exps[:, cols[k]], params))


class TestMesh:
    def test_doubling_edges(self):
        assert doubling_edges(1.0, 5.0) == (1.0, 2.0, 4.0, 8.0)
        assert doubling_edges(1.0, 8.0) == (1.0, 2.0, 4.0, 8.0)

    def test_dropped_theta_frees_its_node_values(self, monkeypatch):
        """Interned meshes outlive every theta; a lattice theta dropped
        everywhere else is freed, and its node values with it."""
        theta = oracles.lattice_theta(0.3 + 1.2j)
        word = (Letter(theta, "tail", slot(0, 1)),)
        meshes = []
        on_mesh = quadrature.integrate_word_on_mesh
        monkeypatch.setattr(quadrature, "integrate_word_on_mesh",
                            lambda *args: meshes.append(args[2]) or on_mesh(*args))
        params = EvalParams()
        tail_word_integral(word, (1.5 + 0.5j,), params)
        # the node values the call cached, looked up again on each mesh
        cached = [weakref.ref(m.theta_values(theta, "tail")) for m in meshes]
        assert len(meshes) > 1
        dropped = weakref.ref(theta)
        del theta, word
        gc.collect()
        assert dropped() is None
        assert all(ref() is None for ref in cached)

    def test_dropped_theta_frees_its_node_values_at_once(self, monkeypatch):
        """Without the cycle collector: a self-dual theta holds no reference
        to itself, so dropping the last one frees it and its node values."""
        meshes = []
        on_mesh = quadrature.integrate_word_on_mesh
        monkeypatch.setattr(quadrature, "integrate_word_on_mesh",
                            lambda *args: meshes.append(args[2]) or on_mesh(*args))
        enabled = gc.isenabled()
        gc.disable()
        try:
            theta = oracles.lattice_theta(0.2 + 1.3j)
            word = (Letter(theta, "tail", slot(0, 1)),)
            tail_word_integral(word, (1.5 + 0.5j,), EvalParams())
            cached = [weakref.ref(m.theta_values(theta, "tail")) for m in meshes]
            assert len(meshes) > 1
            dropped = weakref.ref(theta)
            del theta, word
            assert dropped() is None
            assert all(ref() is None for ref in cached)
        finally:
            if enabled:
                gc.enable()


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalParams(abs_tol=0.0)
        with pytest.raises(ValueError):
            EvalParams(quad_order=2)
        for bad in [dict(abs_tol=math.inf), dict(abs_tol=math.nan), dict(abs_tol=-1e-10),
                    dict(max_refine=0), dict(max_refine=-1),
                    dict(max_refine=quadrature.MAX_REFINE + 1), dict(max_refine=1000),
                    dict(quad_order=quadrature.MAX_ORDER + 1), dict(quad_order=100000)]:
            with pytest.raises(ValueError):
                EvalParams(**bad)
        # constructed only: the largest order, and the order tests take as truth
        assert EvalParams(quad_order=quadrature.MAX_ORDER).quad_order == 256
        assert EvalParams(quad_order=64, max_refine=1).max_refine == 1
        assert EvalParams(max_refine=quadrature.MAX_REFINE).max_refine == 12
        p = EvalParams()
        assert p.abs_tol == 1e-10
        assert p.quad_order == 32 and p.max_refine == 8
