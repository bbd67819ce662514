"""Independent brute-force computations that validate the evaluation engine.

Most of what is here avoids the compiled-expression machinery it is used
to check: multiple quadratic sums and multiple zeta values by direct
summation with integral-comparison tails, double Dirichlet series by
direct summation, and the hypergeometric binding identity by quadrature.
The quadratic sums take their innermost series sum_m (m^2 + c)^-k in
closed form, from the partial fractions of coth (_coth_sum), and sum the
outer variables directly.  A double Dirichlet series reads (m + n)^-s from
one table over m + n.

The Eisenstein routes use the length-1 engine on other thetas than the
ones they check: the real-analytic Eisenstein series is half the completed
Mellin transform of a lattice theta, whose frequencies, like the raw
lattice sum's terms, come from one rectangle of lattice points
(_lattice_grid), single completed zeta values come from the riemann theta,
and the double completed-zeta values follow by a partial Mellin transform
of that series along the imaginary axis, whose abscissae run through one
plan of all their lattice expressions, each summed on its own
(xi_via_eisenstein), or by Eichler integrals of holomorphic Eisenstein
series, whose tails the quadrature integrates.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .ratfun import AffineForm, PoleSignal
from .theta import GrowthBound, TailSeries, ThetaFunction, gauss_legendre, make_builtin_theta
from .words import Letter
from .quadrature import EvalParams, tail_word_integral
from . import engine

PI = math.pi


class SummationBudgetError(Exception):
    """The requested tolerance is unreachable within the term budget."""


# ---------------------------------------------------------------------------
# single and multiple zeta values by direct summation
# ---------------------------------------------------------------------------


def _zeta_direct(k: float) -> float:
    """zeta(k) for k > 1 by direct summation of 20000 terms with a midpoint
    integral tail."""
    ns = np.arange(1, 20001, dtype=float)
    head = float(np.sum(ns**-k))
    c = 20000.5
    return head + c ** (1 - k) / (k - 1)


def mzv_sum(ns: Sequence[int], tol: float = 1e-8) -> float:
    """Multiple zeta value sum_{k1<...<kr} prod k_i^(-n_i) of depth r <= 2;
    needs n_r >= 2.

    Direct cumulative summation; at depth 2 the final sum gets an
    integral-comparison tail from the inner sum's asymptotics.
    """
    ns = tuple(int(n) for n in ns)
    if not ns or ns[-1] < 2:
        raise ValueError("multiple zeta values require a final exponent >= 2")
    if any(n < 1 for n in ns):
        raise ValueError("exponents must be positive")
    if len(ns) > 2:
        raise ValueError("mzv_sum supports depth <= 2")
    if len(ns) == 1:
        return _zeta_direct(ns[0])
    a, b = ns
    cut = 200000
    ks = np.arange(1, cut + 1, dtype=float)
    # inner(k): the sum of j^-a over j < k
    inner = np.concatenate(([0.0], np.cumsum(ks ** float(-a))[:-1]))
    head = float(np.sum(inner * ks ** float(-b)))
    c = cut + 0.5
    if a >= 2:
        za = _zeta_direct(a)
        # inner(k) = zeta(a) - tail, tail ~ k^(1-a)/(a-1)
        tail = za * c ** (1 - b) / (b - 1) - c ** (2 - a - b) / ((a - 1) * (a + b - 2))
    else:
        g = 0.5772156649015329
        # inner(k) = ln k + g - 1/(2k) + O(k^-2)
        tail = (
            c ** (1 - b) * (math.log(c) / (b - 1) + 1.0 / (b - 1) ** 2)
            + g * c ** (1 - b) / (b - 1)
            - 0.5 * c**-b / b
        )
    estimate = 10.0 * c ** (-b - 1) * (1 + math.log(c))
    if estimate > tol:
        raise SummationBudgetError(
            f"mzv tail estimate {estimate:.2e} above tol {tol:.1e}"
        )
    return head + tail


# ---------------------------------------------------------------------------
# multiple quadratic sums
# ---------------------------------------------------------------------------


def _inv_quad_integral(a: float, c2: np.ndarray, k: float) -> np.ndarray:
    """int_a^inf dx / (x^2 + c2)^k at each entry of c2, in closed form:
    a^(1-2k) / (2k-1) * 2F1(k, k - 1/2; k + 1/2; -c2/a^2), termwise the
    integral of the binomial series of (1 + c2/x^2)^-k.  The reduction
    formula in k cancels where c2 is small against a^2."""
    from scipy.special import hyp2f1  # on first use: importing scipy doubles a CLI start

    return a ** (1 - 2 * k) / (2 * k - 1) * hyp2f1(k, k - 0.5, k + 0.5, -c2 / (a * a))


def _coth_sum(c2: np.ndarray, k: int) -> np.ndarray:
    """sum_{m>=1} (m^2 + c2)^-k at each entry of c2 > 0, in closed form.

    With a = sqrt(c2), C = coth(pi a) and K = csch^2(pi a), the partial
    fractions of coth give S_1 = (pi a C - 1) / (2 a^2), and
    S_{k+1} = -(1/k) (1/(2a)) dS_k/da by dC/da = -pi K, dK/da = -2 pi C K.
    S_k is kept exactly as rational multiples of pi^e a^p C^q K^r, and C, K
    are formed from exp(-2 pi a), which neither overflows nor cancels.
    """
    a = np.sqrt(c2)
    x = np.exp(-2 * PI * a)
    d = -np.expm1(-2 * PI * a)  # 1 - x
    coth, csch2 = (2.0 - d) / d, 4.0 * x / (d * d)
    terms = {(1, -1, 1, 0): Fraction(1, 2), (0, -2, 0, 0): Fraction(-1, 2)}
    for j in range(1, k):
        nxt: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
        for (e, p, q, r), c in terms.items():
            c /= -2 * j
            nxt[e, p - 2, q, r] += p * c
            nxt[e + 1, p - 1, q - 1, r + 1] -= q * c
            nxt[e + 1, p - 1, q + 1, r] -= 2 * r * c
        terms = {key: c for key, c in nxt.items() if c}
    return sum(float(c) * PI**e * a**p * coth**q * csch2**r for (e, p, q, r), c in terms.items())


def q_sum(ks: Sequence[int], tol: float = 1e-8) -> float:
    """Multiple quadratic sum over n_i >= 1 of
    1/((n_1^2+...+n_r^2)^k1 ... (n_r^2)^kr), depth r <= 3.

    The innermost variable is summed in closed form (_coth_sum); the outer
    sums are cut, with an integral-comparison tail at depth 2.
    """
    ks = tuple(int(k) for k in ks)
    return q_sums((ks,), tol)[ks]


# the depth-2 cut: n runs to _Q2_CUT_N
_Q2_CUT_N = 4000


def q_sums(kss: Sequence[Sequence[int]], tol: float = 1e-8) -> dict[tuple[int, ...], float]:
    """{ks: q_sum(ks, tol)} for each exponent tuple of kss, every tuple
    checked before any is summed."""
    kss = [tuple(int(k) for k in ks) for ks in kss]
    for ks in kss:
        if not ks or any(k < 1 for k in ks):
            raise ValueError("quadratic sum exponents must be >= 1")
        if len(ks) > 3:
            raise ValueError("q_sum supports depth <= 3")
    out = {}
    for ks in kss:
        if len(ks) == 1:
            out[ks] = _zeta_direct(2 * ks[0])
        elif len(ks) == 2:
            out[ks] = _q_sum2(ks, tol)
        else:
            out[ks] = _q_sum3(ks, tol)
    return out


def _q_sum2(ks: tuple[int, int], tol: float) -> float:
    """Q(k1, k2) from the inner sums over m at each n: the head, then the
    outer tail by integral comparison."""
    k1, k2 = ks
    a = _Q2_CUT_N + 0.5
    # the cut's comparison error, and what _outer_tail leaves out beyond 1024a
    estimate = 4.0 / _Q2_CUT_N**3 + (1024 * a) ** (-2.0 * (k1 + k2) - 1) / 48
    if estimate > tol:
        raise SummationBudgetError(
            f"q_sum budget reaches accuracy {estimate:.2e} > tol {tol:.1e}"
        )
    n = np.arange(1.0, _Q2_CUT_N + 1.0)
    head = float(np.sum(_coth_sum(n * n, k1) * n ** float(-2 * k2)))
    return head + _outer_tail(a, k1, k2)


def _outer_tail(a: float, k: float, k2: int) -> float:
    """int_a^inf dy y^(-2k2) int_{1/2}^inf dx (x^2+y^2)^-k: the integral
    comparison for the sum over n > a - 1/2 of n^(-2k2) sum_{m>=1}
    (m^2 + n^2)^-k.

    Up to 1024a by 64-point Gauss-Legendre rules on four panels.  Beyond,
    the inner integral is A y^(1-2k) - y^(-2k)/2 + k y^(-2k-2)/24 - ...,
    with A = sqrt(pi) Gamma(k - 1/2) / (2 Gamma(k)), and its first two
    terms are integrated in closed form; the rest, an alternating series,
    adds less than (1024a)^(-2k-2k2-1) / 48.
    """
    xs, ws = gauss_legendre(64)
    tail = 0.0
    for lo, hi in ((a, 2 * a), (2 * a, 8 * a), (8 * a, 64 * a), (64 * a, 1024 * a)):
        ys = 0.5 * (xs + 1.0) * (hi - lo) + lo
        vals = _inv_quad_integral(0.5, ys * ys, k) * ys ** (-2.0 * k2)
        tail += float(np.dot(ws, vals)) * (hi - lo) / 2
    far, p = 1024 * a, 2 * k + 2 * k2 - 2
    amp = math.sqrt(PI) * math.gamma(k - 0.5) / (2 * math.gamma(k))
    return tail + amp * far**-p / p - far ** (-p - 1) / (2 * (p + 1))


def _q_sum3(ks: tuple[int, int, int], tol: float) -> float:
    """Q(k1, k2, k3): a direct head over the square n2, n3 <= cut, and the
    rest of the (n2, n3) quadrant by integral comparison.

    Outside the square, n2^2 + n3^2 > cut^2, where the inner sum is
    S_k1(c) = A c^(1/2-k1) - c^-k1 / 2 to double precision, with
    A = sqrt(pi) Gamma(k1 - 1/2) / (2 Gamma(k1)): its n2 > cut part is
    integrated over n2 for each n3 <= cut, its n3 > cut part over both.
    What that leaves out is below the budget check's estimate, made
    before anything is summed.
    """
    k1, k2, k3 = ks
    cut = 220
    big_k = k1 + k2
    estimate = (2 * big_k - 1) / (4.0 * cut ** (2 * big_k))
    if estimate > tol:
        raise SummationBudgetError(
            f"depth-3 q_sum accuracy {estimate:.2e} > tol {tol:.1e}"
        )
    n = np.arange(1.0, cut + 1.0)
    g2, g3 = np.meshgrid(n, n, indexing="ij")
    c2 = (g2**2 + g3**2).ravel()
    weights = (c2 ** float(-k2)) * (g3.ravel() ** float(-2 * k3))
    head = float(np.sum(_coth_sum(c2, k1) * weights))
    amp = math.sqrt(PI) * math.gamma(k1 - 0.5) / (2 * math.gamma(k1))
    a = cut + 0.5
    side = _inv_quad_integral(a, n * n, big_k - 0.5) * amp - _inv_quad_integral(a, n * n, big_k) / 2
    top = amp * _outer_tail(a, big_k - 0.5, k3) - _outer_tail(a, big_k, k3) / 2
    return head + float(np.dot(n ** float(-2 * k3), side)) + top


def reduce_d_to_q(ls: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Integer coefficients c_a with pi^L * D(2 l_1, ..., 2 l_r) =
    sum_a c_a Q(a), L = l_1 + ... + l_r.

    Repeatedly integrates out the last simplex variable using the exact
    antiderivative of u^(n-1) exp(-c u), whose polynomial factor has
    integer coefficients (n-1)!/j!.
    """
    ls = tuple(int(l) for l in ls)
    if not ls or any(l < 1 for l in ls):
        raise ValueError("exponents must be positive integers")
    r = len(ls)
    # states: (beta, collected a_i for positions i..r) -> integer coefficient
    states: dict[tuple[int, tuple[int, ...]], int] = {(0, ()): 1}
    for i in range(r - 1, 0, -1):
        nxt: dict[tuple[int, tuple[int, ...]], int] = {}
        for (beta, avec), coeff in states.items():
            n = beta + ls[i]
            for j in range(n):
                key = (j, (n - j,) + avec)
                nxt[key] = nxt.get(key, 0) + coeff * math.factorial(n - 1) // math.factorial(j)
        states = nxt
    out: dict[tuple[int, ...], int] = {}
    for (beta, avec), coeff in states.items():
        n = beta + ls[0]
        key = (n,) + avec
        out[key] = out.get(key, 0) + coeff * math.factorial(n - 1)
    return out


# ---------------------------------------------------------------------------
# Dirichlet double series and the binding lemma
# ---------------------------------------------------------------------------


def dirichlet_double(
    a_fn: Callable[[int], float],
    b_fn: Callable[[int], float],
    k: int,
    s: complex,
    tol: float = 1e-8,
    growth_a: tuple[float, float] = (2.0, 3.0),
    growth_b: tuple[float, float] = (2.0, 3.0),
) -> tuple[complex, complex]:
    """D(f,g; k,s) = sum a_m b_n / (m^k (m+n)^s) and its completed version
    (2 pi)^(-k-s) Gamma(k) Gamma(s) D.

    Absolute convergence is checked from the growth bounds (M, kappa).
    """
    s = complex(s)
    ma, ka = growth_a
    mb, kb = growth_b
    if s.real <= kb + 1.2 or k + s.real <= ka + kb + 2.2:
        raise ValueError("series does not converge absolutely at this point")
    cut = 600
    m = np.arange(1, cut + 1, dtype=float)
    avals = np.array([a_fn(i) for i in range(1, cut + 1)], dtype=float)
    bvals = np.array([b_fn(i) for i in range(1, cut + 1)], dtype=float)
    # (m + n)^-s depends on m + n alone, which runs from 2 to 2 * cut: row
    # m = i + 1 reads its cut entries from one table
    powers = np.arange(1.0, 2 * cut + 1.0) ** (-s)
    total = 0.0 + 0.0j
    for i in range(cut):
        mm = i + 1.0
        total += avals[i] * mm ** float(-k) * np.sum(bvals * powers[i + 1 : i + 1 + cut])
    # tail bounds by integral comparison with the growth envelopes
    sr = s.real
    tail_n = ma * mb * (
        float(np.sum(np.abs(avals) * m ** (-float(k)) * (m + cut) ** (kb + 1 - sr)))
        / max(sr - kb - 1, 0.2)
    )
    tail_m = ma * mb * cut ** (ka + kb + 2 - k - sr) / max(k + sr - ka - kb - 2, 0.2)
    bound = abs(tail_n) + abs(tail_m)
    if bound > tol:
        raise SummationBudgetError(f"double series tail {bound:.2e} above {tol:.1e}")
    from scipy.special import gamma as complex_gamma

    completed = (2 * PI) ** (-k - s) * complex_gamma(k) * complex_gamma(s) * total
    return total, completed


def binding_lemma_defect(p: int, m: int, n: int, s: complex) -> float:
    """Defect of the hypergeometric binding identity.

    Gamma(s+p)/(p-1)! * int_0^1 x^(p-1) (m x + n)^(-p-s) dx against
    Gamma(s)/(m^p n^s) - sum_{r<p} Gamma(s+r)/(r! m^(p-r) (m+n)^(s+r)),
    left side by quadrature, right side in closed form.
    """
    if p < 1 or m < 1 or n < 1:
        raise ValueError("p, m, n must be positive integers")
    s = complex(s)
    if s.real <= 0:
        raise ValueError("needs Re(s) > 0")
    from scipy.special import gamma as complex_gamma

    xs, ws = gauss_legendre(96)
    x = 0.5 * (xs + 1.0)
    integrand = x ** (p - 1) * (m * x + n) ** (-(p + s))
    left = complex_gamma(s + p) / math.factorial(p - 1) * complex(np.dot(ws, integrand)) / 2.0
    right = complex_gamma(s) * m ** float(-p) * complex(n) ** (-s)
    for r_ in range(p):
        right -= (
            complex_gamma(s + r_)
            / math.factorial(r_)
            * m ** float(r_ - p)
            * complex(m + n) ** (-(s + r_))
        )
    return abs(left - right)


# ---------------------------------------------------------------------------
# the completed-zeta side: length-1 engine values
# ---------------------------------------------------------------------------


# the one compile cache of builtin theta tuples, shared with the suites;
# lattice thetas have their own, _lattice_expression
@lru_cache(maxsize=None)
def expression(thetas: tuple[ThetaFunction, ...]) -> engine.LambdaExpression:
    return engine.build_expression(thetas)


def _xi_expression() -> engine.LambdaExpression:
    return expression((make_builtin_theta("riemann"),))


def _values(expr, points, params: EvalParams | None) -> list[complex]:
    """Values of expr at the points in one batch; a point on a pole raises
    its PoleSignal, the first in order."""
    out = []
    for result in engine.lambda_eval_many(expr, points, params):
        if isinstance(result, PoleSignal):
            raise result
        out.append(result[0])
    return out


# ---------------------------------------------------------------------------
# real-analytic Eisenstein series via its lattice theta function
# ---------------------------------------------------------------------------


def _lattice_grid(z: complex, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) float arrays over a rectangle of Z + Zz holding every lattice
    point m + n z with |m + n z| <= radius."""
    x, y = z.real, z.imag
    nmax = int(radius / y) + 1
    mmax = int(radius + abs(x) * nmax) + 1
    return np.meshgrid(
        np.arange(-mmax, mmax + 1, dtype=float),
        np.arange(-nmax, nmax + 1, dtype=float),
        indexing="ij",
    )


def _lattice_points(z: complex, lam_max: float) -> np.ndarray:
    """Frequencies pi |m + n z|^2 / y over nonzero lattice points, sorted."""
    x, y = z.real, z.imag
    ms, ns = _lattice_grid(z, math.sqrt(lam_max * y / PI))
    u = ms + ns * x
    lams = PI * (u * u + ns * ns * y * y) / y
    return np.sort(lams[(lams > 0) & (lams <= lam_max)])


def lattice_theta(z: complex) -> ThetaFunction:
    """Theta function of the unimodular lattice form |m + n z|^2 / Im(z).

    Self-dual of weight 1; its completed Mellin transform is twice the
    completed real-analytic Eisenstein series at z.  A new theta on every
    call; the lattice cache, _lattice_expression, keeps one per cached z.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half plane")
    state = {"lam_max": 64.0, "groups": None}

    def build():
        lams = _lattice_points(z, state["lam_max"])
        groups: list[tuple[float, float]] = []
        for lam in lams:
            if groups and lam - groups[-1][0] <= 1e-9 * lam:
                groups[-1] = (groups[-1][0], groups[-1][1] + 1.0)
            else:
                groups.append((lam, 1.0))
        state["groups"] = groups

    build()

    def fn(n: int):
        while n > len(state["groups"]):
            if state["lam_max"] > 1e9:
                return None
            state["lam_max"] *= 2.0
            build()
        lam, mult = state["groups"][n - 1]
        return (lam, ((mult, 0.0),))

    lam1 = state["groups"][0][0]
    growth = GrowthBound(16.0, 1.0, min(1.0, 0.9 * lam1))
    return ThetaFunction(
        f"lattice({z.real:.6g}+{z.imag:.6g}i)",
        Fraction(1),
        +1,
        1,
        [(Fraction(1), Fraction(0))],
        TailSeries(fn, growth),
    )


def eisenstein_lattice_sum(z: complex, s: complex, radius: float) -> complex:
    """Raw truncated lattice sum (1/2) sum y^s / |m+nz|^(2s); slowly
    convergent, kept as a definitional cross-check for Re(s) > 1."""
    z, s = complex(z), complex(s)
    x, y = z.real, z.imag
    ms, ns = _lattice_grid(z, radius)
    q = (ms + ns * x) ** 2 + ns**2 * y**2
    mask = (q > 0) & (q <= radius**2)
    return 0.5 * complex(np.sum(y**s * q[mask] ** (-s)))


def real_eisenstein(
    z: complex, s: complex, params: EvalParams | None = None
) -> tuple[complex, complex, complex]:
    """Completed real-analytic Eisenstein series at z: (E, E0, Einf).

    E is half the completed Mellin transform of the lattice theta at z
    (exponentially convergent for every s off the poles 0, 1), compiled
    through _lattice_expression; Einf is assembled from length-1 completed
    zeta values, and E0 = E - Einf.
    """
    params = params or EvalParams()
    z, s = complex(z), complex(s)
    completed = 0.5 * engine.lambda_eval(_lattice_expression(z), (s,), params)[0]
    einf = _zeta_part(z.imag, s, _values(_xi_expression(), [(2 * s,), (2 * s - 1,)], params))
    return completed, completed - einf, einf


# the one lattice cache: each z keeps its theta, and with it the theta's
# node values on every mesh, only while its expression is cached here.
# 256 holds xi_via_eisenstein's 3 * quad_order abscissae, the same in every
# call at the default order, and repeated z of real_eisenstein
@lru_cache(maxsize=256)
def _lattice_expression(z: complex) -> engine.LambdaExpression:
    return engine.build_expression((lattice_theta(z),))


def _zeta_part(y: float, s: complex, xi_pair) -> complex:
    """Einf at height y from the completed zeta values xi(2s), xi(2s - 1)."""
    xi_a, xi_b = xi_pair
    return xi_a * y**s + xi_b * y ** (1 - s)


def xi_via_eisenstein(
    s1: complex, s2: complex, params: EvalParams | None = None
) -> complex:
    """Double completed-zeta value as a partial Mellin transform of the
    real-analytic Eisenstein series along the imaginary axis:

    int_1^inf E0(iy, s1+s2) y^(s2-s1) dy/y - xi(2s1+2s2)/(2 s2)
                                           - xi(2s1+2s2-1)/(1-2 s1).

    The integral runs over [1, 2], [2, 4] and [4, 8] by Gauss-Legendre
    rules of quad_order nodes.  E at all 3 * quad_order abscissae comes
    from one plan of their cached lattice expressions (lambda_eval_several),
    and E0 = E - Einf as real_eisenstein forms it, with the xi pair
    evaluated once for every abscissa.
    """
    params = params or EvalParams()
    s1, s2 = complex(s1), complex(s2)
    sigma = s1 + s2
    if sigma.real <= 1.0:
        raise ValueError("needs Re(s1+s2) > 1 for the lattice sum")
    xs, ws = gauss_legendre(params.quad_order)
    xi_a, xi_b = _values(_xi_expression(), [(2 * sigma,), (2 * sigma - 1,)], params)
    intervals = ((1.0, 2.0), (2.0, 4.0), (4.0, 8.0))
    ys = [0.5 * (xs + 1.0) * (hi - lo) + lo for lo, hi in intervals]
    zs = [complex(1j * y) for y in np.concatenate(ys)]
    values = engine.lambda_eval_several([_lattice_expression(z) for z in zs], (sigma,), params)
    e0 = iter([0.5 * value - _zeta_part(z.imag, sigma, (xi_a, xi_b))
               for z, (value, _) in zip(zs, values)])
    total = 0.0 + 0.0j
    for (lo, hi), y in zip(intervals, ys):
        integrand = np.array([next(e0) * yj ** (s2 - s1 - 1.0) for yj in y])
        total += complex(np.dot(ws, integrand)) * (hi - lo) / 2.0
    return total - xi_a / (2 * s2) - xi_b / (1 - 2 * s1)


# ---------------------------------------------------------------------------
# Eichler integrals for totally even double values
# ---------------------------------------------------------------------------

# coefficient tables: weight, prefactor(pi), polynomial in y (exponent: coeff)
_EICHLER_TABLE: dict[tuple[int, int], tuple[int, float, dict[int, int]]] = {
    (2, 2): (4, -8 * PI**2, {1: 1}),
    (2, 4): (6, 4 * PI**3 / 3, {0: 1, 2: 3, 3: -4}),
    (4, 2): (6, -4 * PI**3 / 3, {0: 1, 1: -4, 2: 3}),
    (6, 2): (8, 8 * PI**4 / 15, {0: 1, 1: -4, 2: 5}),
}


def eichler_regularized_monomial(
    weight: int, j: int, params: EvalParams | None = None
) -> float:
    """Regularized integral over [1, infinity-with-unit-tangent) of
    y^j * G_weight(iy) dy: the tail part integrates numerically and the
    constant term contributes -a0/(j+1)."""
    params = params or EvalParams()
    th = make_builtin_theta("eisenstein", weight)
    letter = Letter(th, "tail", AffineForm.constant(j + 1, 0))
    val, _ = tail_word_integral((letter,), (), params)
    a0 = float(th.poly_part[0][0])
    return val.real - a0 / (j + 1)


def eichler_xi(pair: tuple[int, int], params: EvalParams | None = None) -> float:
    """xi(pair) for pair in {(2,2),(2,4),(4,2),(6,2)} by Eichler integrals."""
    pair = (int(pair[0]), int(pair[1]))
    if pair not in _EICHLER_TABLE:
        raise ValueError(f"no Eichler evaluation registered for {pair}")
    weight, prefactor, polynomial = _EICHLER_TABLE[pair]
    total = sum(
        c * eichler_regularized_monomial(weight, j, params)
        for j, c in polynomial.items()
    )
    return prefactor * total


# ---------------------------------------------------------------------------
# numeric limits
# ---------------------------------------------------------------------------


def richardson_limit(values: Sequence[complex]) -> complex:
    """Extrapolate values f(eps), f(eps/2), f(eps/4), ... to eps -> 0,
    assuming f is a power series in eps."""
    rows: list[list[complex]] = []
    for i, value in enumerate(values):
        row = [complex(value)]
        for j in range(1, i + 1):
            row.append(
                (2**j * row[j - 1] - rows[i - 1][j - 1]) / (2**j - 1)
            )
        rows.append(row)
    return rows[-1][-1]


def residue_numeric(
    expr, h: AffineForm, point, params: EvalParams | None = None
) -> complex:
    """Residue along h at a point of h by a Richardson-extrapolated limit of
    h(s + eps v) * Lambda(s + eps v) along the normal direction v, for
    eps = 0.02, 0.01, ..., 0.02 / 16."""
    point = tuple(complex(x) for x in point)
    grad = np.array(h.coeffs, dtype=float)
    v = grad / float(grad @ grad)
    shifted = [
        tuple(p + 0.02 / 2**i * vi for p, vi in zip(point, v)) for i in range(5)
    ]
    values = _values(expr, shifted, params)
    return richardson_limit([complex(h(pt)) * val for pt, val in zip(shifted, values)])
