"""Compilation and evaluation of multiple completed L-functions.

A theta tuple compiles once into a LambdaExpression: a list of terms, each
holding an exact rational coefficient, a numeric word (an iterated integral
over [1, infinity) whose final letter decays exponentially), and an exact
rational tangent factor.  The compiled expression is reusable across
evaluation points; its pole hyperplanes are exactly the denominator forms
of the tangent factors.

The decomposition: for each split position k, the first k letters are
mapped through the inversion law (dualized, reversed, exponents reflected
to w_i - s_i) and both halves are expanded into boundary words against the
tangential base point at infinity; products of the two halves' numeric
words are rewritten as single words via the shuffle identity.

Evaluation lowers an expression once into a NumericPlan of float arrays
and runs batches of points through it (lambda_eval_many); lambda_eval is
the one-point call of that path.  All words of a batch go to the
quadrature in one call, which integrates them mesh by mesh, sharing letter
powers and word prefixes across words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .ratfun import (
    POLE_EPS,
    AffineForm,
    PoleSignal,
    RationalCombination,
    tangent_word_integral,
)
from .theta import ThetaFunction
from .words import Letter, Word, regularize, shuffle
from .quadrature import (
    HORIZON_SAFETY,
    EvalParams,
    _Letters,
    doubling_edges,
    integrate_words,
    tail_word_integral,  # no longer called here; perfbench/tracer.py wraps this binding
    truncation_horizon,
    word_integral_on_interval,
)


class BrokenInversionError(Exception):
    """A theta with a twisted (broken) inversion law cannot be evaluated."""


class DirectConvergenceError(Exception):
    """The direct-definition integral does not converge at this point."""


@dataclass(frozen=True)
class LambdaTerm:
    coeff: Fraction
    word: Word
    tangent: RationalCombination


@dataclass(frozen=True)
class LambdaExpression:
    """Compiled multiple L-function for one theta tuple."""

    thetas: tuple[ThetaFunction, ...]
    terms: tuple[LambdaTerm, ...]
    pole_forms: tuple[AffineForm, ...]

    @property
    def nslots(self) -> int:
        return len(self.thetas)

    @cached_property
    def plan(self) -> "NumericPlan":
        """The expression lowered to flat float arrays, built on first use."""
        return NumericPlan.lower(self)


def _affine(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Affine rows (const, coeffs...) at points of shape (n, r): (n, rows).

    Sums slot by slot, in the order AffineForm.__call__ does, so letter
    exponents, and with them every word integral and refinement decision,
    are bit-identical to evaluating each point on its own.
    """
    out = np.repeat(rows[None, :, 0].astype(complex), len(points), axis=0)
    for j in range(points.shape[1]):
        out += points[:, j, None] * rows[:, j + 1]
    return out


@dataclass(frozen=True, eq=False)
class NumericPlan:
    """A LambdaExpression as arrays, for evaluation at batches of points.

    Every affine quantity of the expression is one float row (const,
    coeffs...) of `rows`, so a single array operation per slot evaluates
    all of them at every point: first the pole forms the guard checks,
    then the tangent denominator forms, then the constant 1, then the
    exponent columns of `letters`, the distinct words' letter table, built
    once with the plan.  Tangent factors are sums of parts coeff /
    prod(forms); each part lists the columns of its forms, padded with the
    column of the constant 1.
    """

    letters: _Letters  # the distinct words' letter table
    rows: np.ndarray
    blockers: tuple[AffineForm, ...]  # the forms of the leading rows
    guard_norms: np.ndarray  # gradient norm of each guard form
    term_word: np.ndarray  # word id of each term
    term_tangent: np.ndarray  # tangent id of each term
    coeffs: np.ndarray  # coefficient of each term
    part_coeffs: np.ndarray  # complex coefficient of each tangent part
    part_cols: np.ndarray  # (parts, max forms per part) form columns
    part_tangent: np.ndarray  # (parts, tangents): 1 where a part belongs

    @staticmethod
    def lower(expr: LambdaExpression) -> "NumericPlan":
        word_ids: dict[Word, int] = {}
        # equal tangents are evaluated once, whichever objects hold them;
        # terms share few objects, so each object's terms are hashed once
        tangent_ids: dict[tuple, int] = {}
        term_tangent: dict[int, int] = {}  # id of a tangent object -> tangent id
        for term in expr.terms:
            word_ids.setdefault(term.word, len(word_ids))
            if id(term.tangent) not in term_tangent:
                term_tangent[id(term.tangent)] = tangent_ids.setdefault(
                    term.tangent.terms, len(tangent_ids))
        guard = tuple(h for h in expr.pole_forms if not h.is_constant())
        form_ids: dict[AffineForm, int] = {}
        parts = [
            (complex(c), [len(guard) + form_ids.setdefault(f, len(form_ids)) for f in forms], t)
            for t, terms in enumerate(tangent_ids)
            for c, forms in terms
        ]
        one = len(guard) + len(form_ids)
        letters = _Letters(tuple(word_ids))
        width = max((len(cols) for _, cols, _ in parts), default=0)
        part_cols = np.full((len(parts), width), one, dtype=int)
        part_tangent = np.zeros((len(parts), len(tangent_ids)))
        for i, (_, cols, t) in enumerate(parts):
            part_cols[i, : len(cols)] = cols
            part_tangent[i, t] = 1.0
        blockers = guard + tuple(form_ids)
        affine = blockers + (AffineForm.constant(1, expr.nslots),) + letters.exponents
        return NumericPlan(
            letters=letters,
            rows=np.array([(float(f.const), *f.coeffs) for f in affine], dtype=float),
            blockers=blockers,
            guard_norms=np.array([h.grad_norm() for h in guard]),
            term_word=np.array([word_ids[t.word] for t in expr.terms], dtype=int),
            term_tangent=np.array([term_tangent[id(t.tangent)] for t in expr.terms], dtype=int),
            coeffs=np.array([float(t.coeff) for t in expr.terms]),
            part_coeffs=np.array([c for c, _, _ in parts], dtype=complex),
            part_cols=part_cols,
            part_tangent=part_tangent,
        )


def _check_tuple(thetas: Sequence[ThetaFunction]) -> tuple[ThetaFunction, ...]:
    thetas = tuple(thetas)
    if not thetas:
        raise ValueError("theta tuple must be nonempty")
    for th in thetas:
        if not th.inversion_ok:
            raise BrokenInversionError(
                f"theta {th.name!r} carries a broken inversion flag"
            )
    return thetas


def _expand_boundary(
    letters: tuple[Letter, ...], tangents: dict[Word, RationalCombination]
):
    """Expand an R-factor into (sign, numeric word, tangent rc) triples.

    For each cut i, the first i letters are regularized into numeric words
    and the remaining letters contribute the reversed polynomial word
    integrated over the tangent space at infinity.  The same reversed
    suffixes recur across cuts and halves, so `tangents` memoizes their
    integrals over one compile.
    """
    m = len(letters)
    poly = [l.with_part("poly") for l in letters]
    out = []
    for i in range(m, -1, -1):
        tangent_word = tuple(reversed(poly[i:]))
        if any(not l.theta.poly_part for l in tangent_word):
            continue
        rc = tangents.get(tangent_word)
        if rc is None:
            rc = tangents[tangent_word] = tangent_word_integral(tangent_word)
        if rc.is_zero():
            continue
        sign = (-1) ** (m - i)
        for word, c in regularize(letters[:i]).terms.items():
            out.append((sign * c, word, rc))
    return out


def _collect_poles(terms) -> tuple[AffineForm, ...]:
    """Canonical pole forms of the terms' tangents, each distinct form once."""
    tangents = {id(term.tangent): term.tangent for term in terms}
    forms = {f for rc in tangents.values() for _, fs in rc.terms for f in fs}
    return tuple(sorted({f.canonical() for f in forms}, key=str))


def build_expression(thetas: Sequence[ThetaFunction]) -> LambdaExpression:
    """Compile the multiple L-function of an ordered theta tuple."""
    thetas = _check_tuple(thetas)
    r = len(thetas)
    slots = [AffineForm.slot(i, r) for i in range(r)]
    tangents: dict[Word, RationalCombination] = {}
    # keyed by the ids of factors that `tangents` keeps alive
    products: dict[tuple[int, int], RationalCombination] = {}
    terms: list[LambdaTerm] = []
    for k in range(r + 1):
        eps = functional_sign(thetas[:k])
        left = tuple(
            Letter(
                thetas[j].dual,
                "full",
                AffineForm.constant(thetas[j].weight, r) - slots[j],
            )
            for j in range(k - 1, -1, -1)
        )
        right = tuple(Letter(thetas[j], "full", slots[j]) for j in range(k, r))
        rights = _expand_boundary(right, tangents)
        for c1, w1, rc1 in _expand_boundary(left, tangents):
            for c2, w2, rc2 in rights:
                coeff = eps * c1 * c2
                key = (id(rc1), id(rc2))
                if key not in products:
                    products[key] = rc1 * rc2
                tangent = products[key]
                for word, mult in shuffle(w1, w2).terms.items():
                    terms.append(LambdaTerm(Fraction(coeff * mult), word, tangent))
    return LambdaExpression(thetas, tuple(terms), _collect_poles(terms))


def poles(expr: LambdaExpression) -> list[AffineForm]:
    """Deduplicated pole hyperplanes, as canonical forms (= 0 understood)."""
    return list(expr.pole_forms)


def _as_point(s, nslots: int) -> tuple[complex, ...]:
    if isinstance(s, (int, float, complex, Fraction)):
        s = (s,)
    point = tuple(complex(x) for x in s)
    if len(point) != nslots:
        raise ValueError(f"expected {nslots} slot values, got {len(point)}")
    return point


def nearest_pole(expr: LambdaExpression, point) -> tuple[AffineForm | None, float]:
    best, dist = None, math.inf
    for h in expr.pole_forms:
        d = h.distance(point)
        if d < dist:
            best, dist = h, d
    return best, dist


# points evaluated together; bounds the arrays one batch holds
BATCH_CHUNK = 256
# a point nearer a pole hyperplane than this (in normalized distance) gets
# a PoleSignal, not a value
POLE_GUARD = 1e-10


def _eval_chunk(
    plan: NumericPlan, points: list[tuple[complex, ...]], params: EvalParams
) -> list[tuple[complex, float] | PoleSignal]:
    n = len(points)
    vals = _affine(np.array(points, dtype=complex), plan.rows)
    g, b = plan.guard_norms.size, len(plan.blockers)
    # guard columns come first, so a guard hit is reported before a tangent form
    blocked = np.hstack(
        (
            np.abs(vals[:, :g]) / plan.guard_norms < POLE_GUARD,
            np.abs(vals[:, g:b]) < POLE_EPS,
        )
    )
    out: list = [None] * n
    for i in np.flatnonzero(blocked.any(axis=1)):
        out[i] = PoleSignal(plan.blockers[blocked[i].argmax()])
    live = [i for i in range(n) if out[i] is None]
    if not live:
        return out

    vals = vals[live]
    tangents = (plan.part_coeffs / vals[:, plan.part_cols].prod(axis=2)) @ plan.part_tangent
    wvals, werrs = integrate_words(plan.letters, vals[:, b + 1 :], params)  # exponent columns
    rvals = tangents[:, plan.term_tangent]
    values = (plan.coeffs * wvals[:, plan.term_word] * rvals).sum(axis=1)
    errs = (np.abs(plan.coeffs) * np.abs(rvals) * werrs[:, plan.term_word]).sum(axis=1)
    for i, v, e in zip(live, values, errs):
        out[i] = (complex(v), float(e))
    return out


def lambda_eval_many(
    expr: LambdaExpression, points: Sequence, params: EvalParams | None = None
) -> list[tuple[complex, float] | PoleSignal]:
    """Value and error estimate at each point, in order.

    A point within POLE_GUARD of a pole hyperplane gets the PoleSignal that
    lambda_eval would raise there instead of a value.  Numeric failures
    (QuadratureError, TruncationError) raise for the whole call.  Points
    are evaluated BATCH_CHUNK at a time; the words of a chunk are
    integrated together, mesh by mesh (quadrature.integrate_words).
    """
    params = params or EvalParams()
    points = [_as_point(s, expr.nslots) for s in points]
    plan = expr.plan
    out: list[tuple[complex, float] | PoleSignal] = []
    for lo in range(0, len(points), BATCH_CHUNK):
        out.extend(_eval_chunk(plan, points[lo : lo + BATCH_CHUNK], params))
    return out


def lambda_eval(
    expr: LambdaExpression, s, params: EvalParams | None = None
) -> tuple[complex, float]:
    """Value and error estimate at a point off the pole hyperplanes."""
    (result,) = lambda_eval_many(expr, (s,), params)
    if isinstance(result, PoleSignal):
        raise result
    return result


def lstar_eval(
    expr: LambdaExpression, s, params: EvalParams | None = None
) -> tuple[complex, float]:
    """Conductor-rescaled value: prod N_i^(s_i/2) times the plain value."""
    point = _as_point(s, expr.nslots)
    value, err = lambda_eval(expr, point, params)
    scale = 1.0 + 0.0j
    for th, si in zip(expr.thetas, point):
        scale *= complex(th.conductor) ** (si / 2.0)
    return value * scale, err * abs(scale)


def residue(
    expr: LambdaExpression, h: AffineForm, s, params: EvalParams | None = None
) -> complex:
    """Residue along h = 0 at a generic point of that hyperplane.

    Normalized as lim h(s) * Lambda(s): matching denominators are detected
    up to proportionality and rescaled, so the result follows the
    normalization of the form as the caller wrote it.
    """
    params = params or EvalParams()
    point = _as_point(s, expr.nslots)
    if h.distance(point) > 1e-8:
        raise ValueError(f"point does not lie on the hyperplane {h} = 0")
    hits = [(term, res) for term in expr.terms if (res := term.tangent.residue(h, point)) != 0]
    # the distinct words, integrated together as lambda_eval integrates a
    # plan's; each value is that of the word on its own
    letters = _Letters(tuple(dict.fromkeys(term.word for term, _ in hits)))
    values = integrate_words(letters, letters.exponents_at(point), params)[0][0].tolist()
    by_word = dict(zip(letters.words, values))
    total = 0.0 + 0.0j
    for term, res in hits:
        total += float(term.coeff) * by_word[term.word] * res
    return total


def reversed_dual_tuple(thetas: Sequence[ThetaFunction]) -> tuple[ThetaFunction, ...]:
    return tuple(th.dual for th in reversed(tuple(thetas)))


def reflected_point(thetas: Sequence[ThetaFunction], s) -> tuple[complex, ...]:
    """The functional-equation partner point (w_r - s_r, ..., w_1 - s_1)."""
    thetas = tuple(thetas)
    point = _as_point(s, len(thetas))
    return tuple(
        complex(float(th.weight)) - si for th, si in zip(reversed(thetas), reversed(point))
    )


def functional_sign(thetas: Sequence[ThetaFunction]) -> int:
    sign = 1
    for th in thetas:
        sign *= th.sign
    return sign


# ---------------------------------------------------------------------------
# direct-definition evaluation (validation path)
# ---------------------------------------------------------------------------


def _zero_envelope(letter: Letter) -> tuple[float, float, bool]:
    """(C, gamma, exp_small): |phi(t)| <= C t^(Re e - 1 - gamma) for t <= 1/2,
    with exp_small marking additional superpolynomial decay at 0."""
    th = letter.theta
    if letter.part == "mono":
        return abs(float(letter.coeff)), 0.0, False
    height = th.growth("poly")[0]
    if letter.part == "poly":
        emin = min((float(e) for _, e in th.poly_part), default=0.0)
        return height, -emin, False
    dual = th.dual
    dual_height, dual_degree = dual.growth("full")
    gamma = float(th.weight) + dual_degree
    c = 2.0 ** max(gamma, 0.0) * dual_height
    if letter.part == "tail":
        c += height
    exp_small = not dual.poly_part
    return max(c, 1e-300), gamma, exp_small


def _choose_delta(word: Word, s, params: EvalParams) -> float:
    """Lower cutoff with corner contribution below the tolerance budget.

    Requires every prefix of the word to be integrable at 0: the running
    exponent sum must stay positive unless an exponentially small letter
    already occurred.
    """
    target = params.abs_tol * HORIZON_SAFETY
    run = 0.0
    cprod = 1.0
    sigma_min = math.inf
    protected = False
    for letter in word:
        c, gamma, exp_small = _zero_envelope(letter)
        e_re = complex(letter.exponent(s)).real
        run += e_re - gamma
        cprod *= c
        protected = protected or exp_small
        if protected:
            continue
        if run <= 0.05:
            raise DirectConvergenceError(
                f"exponent sum {run:.3f} too small at letter {letter.label()}"
            )
        sigma_min = min(sigma_min, run)
    if protected and not math.isfinite(sigma_min):
        # decay at 0 is superpolynomial from the first letter on
        first = word[0]
        mu1 = first.theta.dual.tail.min_mu()
        p = first.theta.kernel_power
        delta = 0.5
        while cprod * math.exp(-mu1 * delta**-p) > target and delta > 1e-3:
            delta *= 0.8
        return delta
    delta = min(0.5, (target / cprod) ** (1.0 / sigma_min))
    return max(delta, 1e-4)


def lambda_direct(
    thetas: Sequence[ThetaFunction], s, params: EvalParams | None = None
) -> complex:
    """Evaluate by direct quadrature of the regularized word over [delta, T].

    Intended for validation: requires absolute convergence at zero, which
    holds when the slot exponents are large enough.  Agrees with
    lambda_eval on the overlap region.
    """
    params = params or EvalParams()
    thetas = _check_tuple(thetas)
    r = len(thetas)
    point = _as_point(s, r)
    slots = [AffineForm.slot(i, r) for i in range(r)]
    full_word = tuple(Letter(thetas[i], "full", slots[i]) for i in range(r))
    total = 0.0 + 0.0j
    for word, c in regularize(full_word).terms.items():
        delta = _choose_delta(word, point, params)
        t_max = truncation_horizon(word, point, params)
        lower = []
        e = delta
        while e < 1.0:
            lower.append(e)
            e *= 2.0
        edges = tuple(lower) + doubling_edges(1.0, t_max)
        val, _ = word_integral_on_interval(
            word, point, edges, params, slack=params.abs_tol * HORIZON_SAFETY
        )
        total += c * val
    return total


# ---------------------------------------------------------------------------
# pure tail transform (no polynomial parts): the multiple Mellin transform
# of the decaying tails over [0, infinity)
# ---------------------------------------------------------------------------


def _invert_tail_letter(letter: Letter) -> list[tuple[Fraction, Letter]]:
    """Rewrite a [0,1] tail letter as [1,inf) letters via the inversion law.

    theta0(1/u) u^(-s-1) du = sign * dual(u) u^(w-s-1) du
                              - sum_e c_e u^(-s-e-1) du.
    """
    th = letter.theta
    nslots = letter.exponent.nslots
    reflected = AffineForm.constant(th.weight, nslots) - letter.exponent
    out = [(Fraction(th.sign), Letter(th.dual, "full", reflected))]
    for c, e in th.poly_part:
        out.append((Fraction(-1) * c, Letter(th, "mono", -letter.exponent - e, Fraction(1))))
    return out


def _normalize_ending(word: Word) -> list[tuple[RationalCombination, Word]]:
    """Rewrite a word so it ends in a tail letter (or is empty).

    A trailing monomial letter integrates in closed form, contributing a
    1/(affine form) factor and shifting the previous letter's exponent; a
    trailing full or poly letter splits into tail + monomials.
    """
    if not word:
        return [(RationalCombination.one(), word)]
    last = word[-1]
    if last.part == "tail":
        return [(RationalCombination.one(), word)]
    if last.part == "mono":
        g = last.exponent
        if g.is_zero():
            raise ValueError("degenerate trailing exponent")
        factor = RationalCombination.of(-last.coeff, (g,))
        if len(word) == 1:
            return [(factor, ())]
        prev = word[-2]
        merged = Letter(prev.theta, prev.part, prev.exponent + g, prev.coeff)
        return [
            (factor * rc, w) for rc, w in _normalize_ending(word[:-2] + (merged,))
        ]
    out: list[tuple[RationalCombination, Word]] = []
    if last.part in ("full", "poly"):
        if last.part == "full":
            out.extend(_normalize_ending(word[:-1] + (last.with_part("tail"),)))
        for c, e in last.theta.poly_part:
            mono = Letter(last.theta, "mono", last.exponent.shift(e), c)
            out.extend(_normalize_ending(word[:-1] + (mono,)))
        return out
    raise ValueError(f"unexpected part {last.part!r}")


def build_tail_expression(thetas: Sequence[ThetaFunction]) -> LambdaExpression:
    """Compile the iterated Mellin transform of the tails over [0, infinity).

    Split at t = 1; the [0,1] half maps to [1,inf) through the inversion
    law, products of halves merge by the shuffle identity, and trailing
    non-decaying letters are integrated in closed form.
    """
    thetas = _check_tuple(thetas)
    r = len(thetas)
    slots = [AffineForm.slot(i, r) for i in range(r)]
    terms: list[LambdaTerm] = []
    for k in range(r + 1):
        lower = [Letter(thetas[j], "tail", slots[j]) for j in range(k)]
        # reversed, inverted lower half: options per original letter
        variants: list[tuple[Fraction, Word]] = [(Fraction(1), ())]
        for letter in reversed(lower):
            variants = [
                (c * cc, w + (ll,))
                for c, w in variants
                for cc, ll in _invert_tail_letter(letter)
            ]
        right = tuple(Letter(thetas[j], "tail", slots[j]) for j in range(k, r))
        for c, w in variants:
            for merged, mult in shuffle(w, right).terms.items():
                for rc, ending in _normalize_ending(merged):
                    terms.append(LambdaTerm(c * mult, ending, rc))
    return LambdaExpression(thetas, tuple(terms), _collect_poles(terms))

