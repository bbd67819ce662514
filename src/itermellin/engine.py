"""Compilation and evaluation of multiple completed L-functions.

A theta tuple compiles once into a LambdaExpression: a list of terms, each
holding an exact rational coefficient, two numeric words (iterated
integrals over [1, infinity) whose final letters decay exponentially, or
empty), and an exact rational tangent factor; a term stands for
coeff * I(left) * I(right) * tangent.  The compiled expression is reusable
across evaluation points; its pole hyperplanes are exactly the denominator
forms of the tangent factors.

The decomposition: for each split position k, the first k letters are
mapped through the inversion law (dualized, reversed, exponents reflected
to w_i - s_i) and both halves are expanded into boundary words against the
tangential base point at infinity.  Each pair of a left and a right
boundary word is one term: both words are integrals along the same path
[1, infinity), so their product is the integral of their shuffle (Ree,
Ann. Math. 68, 1958; Chen, Bull. AMS 83, 1977), and integrating the two
halves apart and multiplying gives the same value from far fewer words.
The algebra is in integers (ratfun), each side is regularized in one pass,
and every word, letter and tangent is formed once wherever it recurs.

Evaluation lowers expressions into a NumericPlan of float arrays and runs
batches of points through it: lambda_eval_many (lambda_eval at one point)
through an expression's own plan, lambda_eval_several one point through one
plan of several expressions, each summed on its own.  All words of a batch
go to the quadrature in one call, which integrates them mesh by mesh,
sharing letter powers and word prefixes across words.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .ratfun import AffineForm, PoleSignal, RationalCombination, tangent_word_integral
from .theta import ThetaFunction
from .words import Letter, Word, regularize, regularize_subwords, shuffle
from .quadrature import (
    HORIZON_SAFETY,
    EvalParams,
    _Letters,
    _number,
    doubling_edges,
    integrate_words,
    refinement_failure,
    word_horizons,
    # no longer called here; perfbench/tracer.py wraps these bindings
    tail_word_integral,
    truncation_horizon,
)


class BrokenInversionError(Exception):
    """A theta with a twisted (broken) inversion law cannot be evaluated."""


class DirectConvergenceError(Exception):
    """The direct-definition integral does not converge at this point."""


class LambdaTerm(NamedTuple):
    """coeff * I(left) * I(right) * tangent, where I is the iterated
    integral of a word over [1, infinity) and I of the empty word is 1."""

    coeff: int | Fraction
    left: Word
    right: Word
    tangent: RationalCombination


@dataclass(frozen=True, eq=False)
class LambdaExpression:
    """Compiled multiple L-function for one theta tuple.  Expressions, like
    thetas, compare and hash by identity."""

    thetas: tuple[ThetaFunction, ...]
    terms: tuple[LambdaTerm, ...]
    pole_forms: tuple[AffineForm, ...]

    @property
    def nslots(self) -> int:
        return len(self.thetas)

    @cached_property
    def plan(self) -> "NumericPlan":
        """The expression lowered to flat float arrays, built on first use."""
        return NumericPlan.lower((self,))


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
    """LambdaExpressions of one slot count as arrays, for evaluation at
    batches of points; ranges[j] holds the terms of expression j, summed
    and judged on their own as in a plan of that expression alone.

    Every affine quantity of the expressions is one float row (const,
    coeffs...) of `rows`, so a single array operation per slot evaluates
    all of them at every point: first the canonical pole forms, the guard,
    in order of first appearance, then the tangent denominator forms as
    written, then the constant 1, then, from row `first_exponent` on, the
    exponent columns of `letters`, the distinct words' letter table, built
    once with the plan.  The guard is the only pole test: a denominator f
    has integer slot coefficients and is a multiple of its guard form, so
    |f(s)| is at least the point's distance to f = 0.  Tangent factors are
    sums of parts coeff / prod(forms); each part lists the columns of its
    forms, padded with the column of the constant 1.  Each term reads two
    words of the table, its left and its right one, the empty word
    integrating to 1.
    """

    letters: _Letters  # the distinct words' letter table
    rows: np.ndarray
    guard: tuple[AffineForm, ...]  # the forms of the leading rows
    guard_norms: np.ndarray  # gradient norm of each guard form
    first_exponent: int  # the row of the first exponent column
    term_left: np.ndarray  # left word id of each term
    term_right: np.ndarray  # right word id of each term
    term_tangent: np.ndarray  # tangent id of each term
    coeffs: np.ndarray  # coefficient of each term
    part_coeffs: np.ndarray  # complex coefficient of each tangent part
    part_cols: np.ndarray  # (parts, max forms per part) form columns
    part_tangent: np.ndarray  # (parts, tangents): 1 where a part belongs
    ranges: tuple[tuple[int, int], ...]  # (first, end) term of each expression

    @staticmethod
    def lower(exprs: Sequence[LambdaExpression]) -> "NumericPlan":
        nslots = sorted({expr.nslots for expr in exprs})
        if len(nslots) != 1:
            raise ValueError(f"expressions of different slot counts {nslots} share no plan")
        terms = [term for expr in exprs for term in expr.terms]
        # equal words and tangents are numbered once, by value
        word_ids, words = _number(w for t in terms for w in (t.left, t.right))
        tangent_ids, tangents = _number(t.tangent for t in terms)
        ends = np.cumsum([0] + [len(expr.terms) for expr in exprs]).tolist()
        guard = tuple(dict.fromkeys(
            h for expr in exprs for h in expr.pole_forms if not h.is_constant()))
        form_ids: dict[AffineForm, int] = {}
        parts = [
            (c / rc.den, [len(guard) + form_ids.setdefault(f, len(form_ids)) for f in forms], t)
            for t, rc in enumerate(tangents)
            for c, forms in rc.terms
        ]
        one = len(guard) + len(form_ids)
        letters = _Letters(tuple(words))
        width = max((len(cols) for _, cols, _ in parts), default=0)
        part_cols = np.full((len(parts), width), one, dtype=int)
        part_tangent = np.zeros((len(parts), len(tangents)))
        for i, (_, cols, t) in enumerate(parts):
            part_cols[i, : len(cols)] = cols
            part_tangent[i, t] = 1.0
        affine = guard + tuple(form_ids) + (AffineForm.constant(1, nslots[0]),)
        return NumericPlan(
            letters=letters,
            rows=np.array([(f.num / f.den, *f.coeffs) for f in affine + letters.exponents],
                          dtype=float),
            guard=guard,
            guard_norms=np.array([h.grad_norm() for h in guard]),
            first_exponent=len(affine),
            term_left=np.array(word_ids[0::2], dtype=int),
            term_right=np.array(word_ids[1::2], dtype=int),
            term_tangent=np.array(tangent_ids, dtype=int),
            coeffs=np.array([float(t.coeff) for t in terms]),
            part_coeffs=np.array([c for c, _, _ in parts], dtype=complex),
            part_cols=part_cols,
            part_tangent=part_tangent,
            ranges=tuple(zip(ends[:-1], ends[1:])),
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


def _boundary_halves(side: Word):
    """half(a), the (sign * coefficient, word, j) triples of the boundary
    half that reads side[a:], and T.  Its cut at j regularizes side[a:j]
    and integrates the reversed polynomial word of side[j:] over the
    tangent space at infinity, T[j] (None where zero), with the sign
    (-1)^(r - j): every half of a side reads its suffixes and subwords, so
    each T[j] is formed once, and reg of every subword by one pass.
    """
    r = len(side)
    reg = regularize_subwords(side)
    poly = [l.with_part("poly") for l in side]
    T: list[RationalCombination | None] = [None] * (r + 1)
    for j in range(r, -1, -1):
        if j < r and not side[j].theta.poly_part:
            break  # zero at and below a letter without a polynomial part
        rc = tangent_word_integral(tuple(reversed(poly[j:])))
        T[j] = None if rc.is_zero() else rc

    def half(a: int) -> list[tuple[int, Word, int]]:
        return [(-c if (r - j) % 2 else c, word, j)
                for j in range(r, a - 1, -1) if T[j] is not None
                for word, c in reg[j - a][a]]

    return half, T


def _collect_poles(tangents) -> tuple[AffineForm, ...]:
    """Canonical pole forms of the tangents, each distinct form once."""
    forms = {f for rc in tangents for _, fs in rc.terms for f in fs}
    return tuple(sorted({f.canonical() for f in forms}, key=str))


def build_expression(thetas: Sequence[ThetaFunction]) -> LambdaExpression:
    """Compile the multiple L-function of an ordered theta tuple.

    One term per cut k and pair of a left (dualized) and a right boundary
    word, holding both words: their integrals multiply, so neither the
    pair's shuffle nor its words are ever formed.  The left halves read
    dual_j(t) t^(w_j - s_j - 1) dt from j = k - 1 down to 0, the right ones
    theta_j(t) t^(s_j - 1) dt from j = k up, each a suffix of one of two
    sides, whose words, letters and tangent products are one object each.
    """
    thetas = _check_tuple(thetas)
    r = len(thetas)
    slots = [AffineForm.slot(i, r) for i in range(r)]
    left_half, left_t = _boundary_halves(tuple(
        Letter(thetas[j].dual, "full", AffineForm.constant(thetas[j].weight, r) - slots[j])
        for j in range(r - 1, -1, -1)))
    right_half, right_t = _boundary_halves(
        tuple(Letter(th, "full", slots[j]) for j, th in enumerate(thetas)))
    products: dict[tuple[int, int], RationalCombination] = {}  # by the cuts of its factors
    terms: list[LambdaTerm] = []
    for k in range(r + 1):
        eps = functional_sign(thetas[:k])
        rights = right_half(k)
        for c1, w1, a in left_half(r - k):
            for c2, w2, b in rights:
                rc = products.get((a, b))
                if rc is None:
                    rc = products[a, b] = left_t[a] * right_t[b]
                terms.append(LambdaTerm(eps * c1 * c2, w1, w2, rc))
    return LambdaExpression(thetas, tuple(terms), _collect_poles(products.values()))


def poles(expr: LambdaExpression) -> list[AffineForm]:
    """Deduplicated pole hyperplanes, as canonical forms (= 0 understood)."""
    return list(expr.pole_forms)


def _as_point(s, nslots: int) -> tuple[complex, ...]:
    if isinstance(s, numbers.Number):
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


def _check_unresolved(
    plan: NumericPlan, size: np.ndarray, wvals: np.ndarray, werrs: np.ndarray,
    unresolved: list, params: EvalParams,
) -> None:
    """Raise unless every word whose refinement ran out still serves.

    A half word's error enters the bar times what multiplies it,
    sum |coeff * tangent| * (|I(other)| + e(other)) over its terms; a large
    half word can stop above abs_tol yet weigh little in the value.  Such a
    word serves when its error times that weight meets abs_tol, the share
    of the bar that a word of weight 1 at abs_tol would add.  Expressions
    are judged in order, each over its own terms and words: the first word
    that does not serve, in the order in which integrate_words names
    failures, raises its QuadratureError.
    """
    reach = np.abs(wvals) + werrs
    for lo, hi in plan.ranges:
        left, right = plan.term_left[lo:hi], plan.term_right[lo:hi]
        weight = np.zeros_like(werrs)
        np.add.at(weight.T, left, (size[:, lo:hi] * reach[:, right]).T)
        np.add.at(weight.T, right, (size[:, lo:hi] * reach[:, left]).T)
        mine = np.zeros(werrs.shape[1], dtype=bool)
        mine[left] = mine[right] = True
        for ks, rows in unresolved:
            est = werrs[rows, ks]
            # nan fails the comparison, so it fails here too
            bad = np.flatnonzero(mine[ks] & ~(weight[rows, ks] * est <= params.abs_tol))
            if bad.size:
                raise refinement_failure(est[bad[0]], params)


def _guard_and_tangents(
    plan: NumericPlan, points: list[tuple[complex, ...]]
) -> tuple[list, list[int], np.ndarray, np.ndarray]:
    """(out, live, exps, tangents) of a plan at points: out[i] is the
    PoleSignal of the first guard form that point i lies within POLE_GUARD
    of, else None; live lists the other points, exps their letter exponent
    columns and tangents their tangent factors."""
    n = len(points)
    # a huge slot value overflows the affine rows and the tangent products
    # to inf or nan, which no guard flags, and its word integrals then fail
    # by name (no truncation horizon): no warning of numpy's own
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _affine(np.array(points, dtype=complex), plan.rows)
        blocked = np.abs(vals[:, : len(plan.guard)]) / plan.guard_norms < POLE_GUARD
        out: list = [None] * n
        for i in np.flatnonzero(blocked.any(axis=1)):
            out[i] = PoleSignal(plan.guard[blocked[i].argmax()])
        live = [i for i in range(n) if out[i] is None]
        vals = vals[live]
        # each part's product column by column, from column 0 (1 where no
        # part has a form, as for delta), so that a point's rounding is the
        # same in every batch: prod over an axis rounds by the batch's shape
        cols = plan.part_cols.T
        prods = (vals[:, cols[0]] if len(cols)
                 else np.ones((len(live), len(plan.part_coeffs)), dtype=complex))
        for col in cols[1:]:
            prods *= vals[:, col]
        tangents = (plan.part_coeffs / prods) @ plan.part_tangent
    return out, live, vals[:, plan.first_exponent :], tangents


def _sum_terms(
    plan: NumericPlan, tangents: np.ndarray, wvals: np.ndarray, werrs: np.ndarray,
    unresolved: list, params: EvalParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Values and bars, (live points, expressions), from the values and
    errors of the plan's words, once every unresolved word is judged."""
    # coeff * tangent * I(left) * I(right), and the bar of that product:
    # |coeff * tangent| * (|I1| * e2 + |I2| * e1 + e1 * e2)
    scaled = plan.coeffs * tangents[:, plan.term_tangent]
    v1, v2 = wvals[:, plan.term_left], wvals[:, plan.term_right]
    e1, e2 = werrs[:, plan.term_left], werrs[:, plan.term_right]
    terms = scaled * v1 * v2
    bars = np.abs(scaled) * (np.abs(v1) * e2 + np.abs(v2) * e1 + e1 * e2)
    # running sums, term by term, whatever the batch: sum over an axis adds
    # one point's contiguous row pairwise, but a batch's rows term by term
    values = np.stack([np.cumsum(terms[:, lo:hi], axis=1)[:, -1] for lo, hi in plan.ranges],
                      axis=1)
    errs = np.stack([np.cumsum(bars[:, lo:hi], axis=1)[:, -1] for lo, hi in plan.ranges], axis=1)
    if unresolved:
        _check_unresolved(plan, np.abs(scaled), wvals, werrs, unresolved, params)
    return values, errs


def _eval_chunk(
    plan: NumericPlan, points: list[tuple[complex, ...]], params: EvalParams
) -> list[list[tuple[complex, float]] | PoleSignal]:
    """At each point, the PoleSignal of the first blocked form, else the
    value and error estimate of each of the plan's expressions."""
    out, live, exps, tangents = _guard_and_tangents(plan, points)
    if not live:
        return out
    unresolved: list = []  # words whose refinements run out, judged below
    wvals, werrs = integrate_words(plan.letters, exps, params, unresolved=unresolved)
    values, errs = _sum_terms(plan, tangents, wvals, werrs, unresolved, params)
    for i, vs, es in zip(live, values.tolist(), errs.tolist()):
        out[i] = list(zip(vs, es))
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
        for result in _eval_chunk(plan, points[lo : lo + BATCH_CHUNK], params):
            out.append(result if isinstance(result, PoleSignal) else result[0])
    return out


def lambda_eval(
    expr: LambdaExpression, s, params: EvalParams | None = None
) -> tuple[complex, float]:
    """Value and error estimate at a point off the pole hyperplanes."""
    (result,) = lambda_eval_many(expr, (s,), params)
    if isinstance(result, PoleSignal):
        raise result
    return result


@lru_cache(maxsize=1)
def _several_plan(exprs: tuple[LambdaExpression, ...]) -> NumericPlan:
    """The plan of lambda_eval_several's last expressions."""
    return NumericPlan.lower(exprs)


def lambda_eval_several(
    exprs: Sequence[LambdaExpression], s, params: EvalParams | None = None
) -> list[tuple[complex, float]]:
    """Value and error estimate of each expression at one point s, in order.

    The expressions share their slot count (ValueError otherwise) and are
    lowered into one plan, so the distinct words of all of them go to the
    quadrature in one call; a word's value and estimate are those it has on
    its own, and each expression's terms are summed on their own, so each
    result equals lambda_eval(expr, s, params).  The last plan is kept, and
    a call whose expressions are the kept ones, the same objects in the
    same order, reuses it.  Raises what lambda_eval would: the PoleSignal
    of the first expression that has a pole at s, else the numeric failure
    that integrate_words names first among all the words, else the
    QuadratureError of the first expression with a word whose refinement
    ran out and which does not serve.
    """
    if not exprs:
        return []
    exprs = tuple(exprs)
    plan = _several_plan(exprs)
    (result,) = _eval_chunk(plan, [_as_point(s, exprs[0].nslots)], params or EvalParams())
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
) -> tuple[complex, float]:
    """Residue along h = 0 at a generic point of that hyperplane, and its
    error estimate, normalized as lim h(s) * Lambda(s) for h as written.

    Each distinct tangent is restricted to h = 0 once (MultiplePoleError
    where h divides a denominator twice), and lambda_eval evaluates the
    terms whose restriction is not zero: a point on a second pole
    hyperplane raises that form's PoleSignal.
    """
    point = _as_point(s, expr.nslots)
    if h.distance(point) > 1e-8:
        raise ValueError(f"point does not lie on the hyperplane {h} = 0")
    restricted = {rc: rc.residue(h) for rc in dict.fromkeys(t.tangent for t in expr.terms)}
    hits = tuple(
        LambdaTerm(term.coeff, term.left, term.right, restricted[term.tangent])
        for term in expr.terms if not restricted[term.tangent].is_zero()
    )
    if not hits:
        return 0j, 0.0
    pole_forms = _collect_poles(restricted.values())
    return lambda_eval(LambdaExpression(expr.thetas, hits, pole_forms), point, params)


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
    height = th.growth("poly")[0]
    if letter.part == "poly":
        emin = min((float(e) for _, e in th.poly_part), default=0.0)
        return height, -emin, False
    if letter.part not in ("full", "tail"):
        raise ValueError(f"no envelope at 0 for part {letter.part!r}")
    dual = th.dual
    dual_height, dual_degree = dual.growth("full")
    gamma = float(th.weight) + dual_degree
    c = 2.0 ** max(gamma, 0.0) * dual_height
    if letter.part == "tail":
        c += height
    exp_small = not dual.poly_part
    return max(c, 1e-300), gamma, exp_small


# the smallest lower cutoff lambda_direct integrates from: a word whose
# corner bound asks for less does not converge fast enough at 0 to serve
DIRECT_DELTA_FLOOR = 1e-12


def _choose_delta(word: Word, s, params: EvalParams) -> float:
    """Lower cutoff with corner contribution below the tolerance budget.

    Requires every prefix of the word to be integrable at 0: the running
    exponent sum must stay positive unless an exponentially small letter
    already occurred.  Raises DirectConvergenceError, naming the word, when
    the cutoff the corner bound asks for lies below DIRECT_DELTA_FLOOR.
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
        while cprod * math.exp(-mu1 * delta**-p) > target and delta >= DIRECT_DELTA_FLOOR:
            delta *= 0.8
    else:
        delta = min(0.5, (target / cprod) ** (1.0 / sigma_min))
    if delta < DIRECT_DELTA_FLOOR:
        raise DirectConvergenceError(
            f"cutoff {delta:.1e} below {DIRECT_DELTA_FLOOR:.0e} for word "
            + ".".join(l.label() for l in word)
        )
    return delta


def lambda_direct(
    thetas: Sequence[ThetaFunction], s, params: EvalParams | None = None
) -> complex:
    """Evaluate by direct quadrature of the regularized words over [delta, T].

    Intended for validation: requires absolute convergence at zero, which
    holds when the slot exponents are large enough.  Agrees with
    lambda_eval on the overlap region.  The words are integrated in one
    call over one mesh, from the smallest of their cutoffs to the largest
    of their truncation horizons; it raises the DirectConvergenceError of
    the first word whose cutoff fails, else the horizon failure of the
    first word without one, else what integrate_words raises.
    """
    params = params or EvalParams()
    thetas = _check_tuple(thetas)
    r = len(thetas)
    point = _as_point(s, r)
    slots = [AffineForm.slot(i, r) for i in range(r)]
    full_word = tuple(Letter(thetas[i], "full", slots[i]) for i in range(r))
    terms = regularize(full_word)
    letters = _Letters(tuple(terms))
    delta = min(_choose_delta(word, point, params) for word in letters.words)
    exps = letters.exponents_at(point)
    horizons, failures = word_horizons(letters, exps, params)
    if failures:
        exc = failures[min(failures)]
        raise type(exc)(*exc.args)
    lower = []
    e = delta
    while e < 1.0:
        lower.append(e)
        e *= 2.0
    edges = tuple(lower) + doubling_edges(1.0, float(horizons.max()))
    values, _ = integrate_words(letters, exps, params, edges)
    total = 0.0 + 0.0j
    for c, val in zip(terms.values(), values[0].tolist()):
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
    trailing full letter splits into tail + monomials.  The words come from
    build_tail_expression: inverted letters are full or mono, the others
    tail, so no word ends in a poly letter.
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
    if last.part != "full":
        raise ValueError(f"unexpected part {last.part!r}")
    out = _normalize_ending(word[:-1] + (last.with_part("tail"),))
    for c, e in last.theta.poly_part:
        mono = Letter(last.theta, "mono", last.exponent.shift(e), c)
        out.extend(_normalize_ending(word[:-1] + (mono,)))
    return out


def build_tail_expression(thetas: Sequence[ThetaFunction]) -> LambdaExpression:
    """Compile the iterated Mellin transform of the tails over [0, infinity).

    Split at t = 1; the [0,1] half maps to [1,inf) through the inversion
    law, products of halves merge by the shuffle identity, and trailing
    non-decaying letters are integrated in closed form.  The endings of a
    shuffle's words are normalized one by one, so each term holds one word,
    on the left, and the empty word on the right.
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
            for merged, mult in shuffle(w, right).items():
                for rc, ending in _normalize_ending(merged):
                    terms.append(LambdaTerm(c * mult, ending, (), rc))
    return LambdaExpression(thetas, tuple(terms), _collect_poles(t.tangent for t in terms))

