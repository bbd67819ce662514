"""Theta functions on (0, infinity): polynomial part plus exponential tail.

A theta function here is theta(t) = theta_inf(t) + theta_0(t) where
theta_inf is a polynomial (half-integer exponents allowed) and theta_0 is a
lazily streamed sum of groups a * t^nu * exp(-mu * t^p), p in {1, 2}, with
strictly increasing frequencies mu.  Each function carries an inversion law
theta(1/t) = sign * t^weight * dual(t) against a dual partner (itself by
default), which is validated at construction and used to evaluate accurately
at small t.

Coefficient data (Bernoulli constants, divisor sums, tau values) is exact
rational/integer arithmetic, converted to float only at evaluation time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import bernoulli, divisor_sigma, ramanujan_tau

PI = math.pi

# (mu, ((a, nu), ...)): sum of a * t^nu * exp(-mu t^p) sharing one frequency
Group = tuple[float, tuple[tuple[float, float], ...]]

VALIDATION_POINTS = (0.7, 1.0, 1.6)
VALIDATION_TOL = 1e-8

# the most tail groups one evaluation sums; a tail whose truncation bound
# needs more raises TruncationError
MAX_TAIL_GROUPS = 4000


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights of one order on [-1, 1], formed
    once per order and shared read-only by every rule of the package."""
    nodes, weights = leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class TruncationError(Exception):
    """The tail bound cannot reach the requested tolerance within its cap
    of groups (MAX_TAIL_GROUPS for values)."""


class ValidationError(Exception):
    """Inversion validation failed; carries the failing sample point."""

    def __init__(self, name: str, t: float, defect: float, tol: float):
        self.t, self.defect = t, defect
        super().__init__(
            f"theta {name!r}: inversion defect {defect:.3e} at t={t} exceeds {tol:.1e}"
        )


class KernelMismatchError(Exception):
    """Pointwise product of tails with incompatible kernels or lattices."""


@dataclass(frozen=True)
class GrowthBound:
    """|group n| <= coeff * n^power and mu_n >= mu_slope * n^mu_power."""

    coeff: float
    power: float
    mu_slope: float
    mu_power: float = 1.0


class TailSeries:
    """Lazy stream of exponential groups with a certified remainder bound.

    term_fn(n) for n = 1, 2, ... returns a Group or None once the stream is
    exhausted (finite series).  Groups are memoized; extension is locked so
    concurrent readers are safe.
    """

    def __init__(
        self,
        term_fn: Callable[[int], Group | None],
        growth: GrowthBound,
        power_range: tuple[float, float] = (0.0, 0.0),
    ):
        self._fn = term_fn
        self.growth = growth
        self.power_range = power_range
        self._groups: list[Group] = []
        self._counts = [0]  # _counts[n]: terms in the first n groups
        self._finite = False
        self._flat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._lock = threading.Lock()

    def ensure(self, n: int) -> int:
        """Materialize at least n groups; returns the available count."""
        if len(self._groups) >= n or self._finite:
            return len(self._groups)
        with self._lock:
            while len(self._groups) < n and not self._finite:
                g = self._fn(len(self._groups) + 1)
                if g is None:
                    self._finite = True
                    break
                mu = float(g[0])
                if self._groups and mu <= self._groups[-1][0]:
                    raise ValueError("tail frequencies must be strictly increasing")
                terms = tuple((float(a), float(nu)) for a, nu in g[1])
                # counted first: a reader never sees a group without its count
                self._counts.append(self._counts[-1] + len(terms))
                self._groups.append((mu, terms))
            self._flat = None
        return len(self._groups)

    def group(self, n: int) -> Group | None:
        if self.ensure(n) < n:
            return None
        return self._groups[n - 1]

    def min_mu(self) -> float:
        if self.ensure(1) < 1:
            return math.inf
        return self._groups[0][0]

    def _flat_arrays(self, ngroups: int):
        count = self._counts[min(ngroups, len(self._groups))]
        flat = self._flat  # read once: an extension may reset it meanwhile
        if flat is None or flat[0].shape[0] < count:
            mus, amps, nus = [], [], []
            for mu, terms in self._groups:
                for a, nu in terms:
                    mus.append(mu)
                    amps.append(a)
                    nus.append(nu)
            flat = self._flat = (np.array(mus), np.array(amps), np.array(nus))
        mu, a, nu = flat
        return mu[:count], a[:count], nu[:count]

    def remainder_bound(self, t: float, n: int, kernel_power: int) -> float:
        """Certified bound on the absolute tail beyond the first n groups.

        Uses mu_m >= mu_slope * m^mu_power, hence mu_m >= (mu_slope n^{q-1}) m
        for m > n, and sums the resulting geometric-with-polynomial majorant.
        Returns inf while that majorant does not yet contract.
        """
        if self._finite and len(self._groups) <= n:
            return 0.0
        g = self.growth
        if n < 1:
            return math.inf
        tp = t**kernel_power
        rate = g.mu_slope * n ** (g.mu_power - 1.0) * tp
        if rate <= 0:
            return math.inf
        x = math.exp(-rate)
        xe = x * math.exp(g.power / n) if g.power > 0 else x
        if xe >= 1.0:
            return math.inf
        numin, numax = self.power_range
        tpow = max(t**numax, t**numin, 1.0)
        head = g.coeff * tpow * n**g.power
        return head * x ** (n + 1) * math.exp(g.power / n) / (1.0 - xe)

    def needed_groups(self, tmin: float, tol: float, kernel_power: int, max_terms: int) -> int:
        n = min(8, max_terms)
        while True:
            avail = self.ensure(n)
            if self._finite and avail <= n:
                return avail
            if self.remainder_bound(tmin, n, kernel_power) <= tol:
                return n
            if n >= max_terms:
                raise TruncationError(
                    f"tail bound above {tol:.1e} after {n} groups at t={tmin}"
                )
            n = min(2 * n, max_terms)

    def values(self, ts: np.ndarray, kernel_power: int, tol: float) -> np.ndarray:
        """Vectorized tail values with truncation error <= tol pointwise."""
        ts = np.asarray(ts, dtype=float)
        if ts.size == 0:
            return np.zeros(0)
        tmin = float(ts.min())
        if tmin <= 0:
            raise ValueError("tail evaluation requires t > 0")
        n = self.needed_groups(tmin, tol, kernel_power, MAX_TAIL_GROUPS)
        mu, a, nu = self._flat_arrays(n)
        out = np.zeros(ts.shape, dtype=float)
        tp = ts**kernel_power
        for lo in range(0, mu.size, 256):
            hi = min(lo + 256, mu.size)
            block = a[lo:hi, None] * np.exp(-mu[lo:hi, None] * tp[None, :])
            nub = nu[lo:hi]
            if np.any(nub != 0):
                block = block * ts[None, :] ** nub[:, None]
            out += block.sum(axis=0)
        return out


class ThetaFunction:
    """Immutable theta function with decomposition, inversion data and stream.

    Parameters mirror the registration contract: weight and sign of the
    inversion law, the polynomial part as (coefficient, exponent >= 0) pairs
    of exact rationals, the tail stream, a growth bound for truncation
    control, and a conductor used only by the L* rescaling.
    """

    def __init__(
        self,
        name: str,
        weight: Fraction,
        sign: int,
        kernel_power: int,
        poly_part: Sequence[tuple[Fraction, Fraction]],
        tail: TailSeries,
        conductor: float = 1.0,
        inversion_ok: bool = True,
        critical_range: tuple[int, int] | None = None,
        validate: bool = True,
    ):
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if kernel_power not in (1, 2):
            raise ValueError("kernel power must be 1 or 2")
        self.name = name
        self.weight = Fraction(weight)
        self.sign = int(sign)
        self.kernel_power = int(kernel_power)
        self.poly_part = tuple(
            sorted(
                ((Fraction(c), Fraction(e)) for c, e in poly_part if c != 0),
                key=lambda p: p[1],
            )
        )
        if any(e < 0 for _, e in self.poly_part):
            raise ValueError("polynomial part must have nonnegative exponents")
        self.tail = tail
        self.conductor = float(conductor)
        self.inversion_ok = bool(inversion_ok)
        self.critical_range = critical_range
        self._dual: "ThetaFunction" = self
        self._tail_envelope: float | None = None
        self._poly_bounds: tuple[float, float] | None = None
        if validate and self.inversion_ok:
            validate_inversion(self)

    # -- identity ---------------------------------------------------------
    # Equality and hashing are by object identity: mesh node values and
    # compiled expressions are cached per theta, and two thetas sharing a
    # name (a file theta called "riemann", say) must never share them.
    def __repr__(self):
        return f"ThetaFunction({self.name!r}, w={self.weight}, sign={self.sign:+d})"

    # -- dual wiring ------------------------------------------------------
    @property
    def dual(self) -> "ThetaFunction":
        return self._dual

    def _set_dual(self, other: "ThetaFunction") -> None:
        """Point this function's inversion law at other, leaving other's own
        dual alone (a file theta's partner is a shared registry entry); a
        mutual link calls it on both."""
        if other.weight != self.weight or other.sign != self.sign:
            raise ValueError("dual partners must share weight and sign")
        self._dual = other

    @property
    def self_dual(self) -> bool:
        return self._dual is self

    # -- evaluation -------------------------------------------------------
    def poly_eval(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape, dtype=float)
        for c, e in self.poly_part:
            out += float(c) * ts ** float(e)
        return out

    def eval_array(self, ts, part: str = "full", tol: float = 1e-12) -> np.ndarray:
        """Pointwise values of the chosen part; |result - exact| <= tol.

        Values with t < 1/2 go through the inversion law when it is valid,
        so small arguments cost a dual evaluation at 1/t instead of a long
        direct sum.  full is always computed as poly + tail, term for term.
        """
        ts = np.asarray(ts, dtype=float)
        scalar = ts.ndim == 0
        ts = np.atleast_1d(ts).astype(float)
        if np.any(ts <= 0):
            raise ValueError("theta functions live on t > 0")
        if part == "poly":
            out = self.poly_eval(ts)
        elif part in ("tail", "full"):
            out = self._tail_values(ts, tol)
            if part == "full":
                out = self.poly_eval(ts) + out
        else:
            raise ValueError(f"unknown part {part!r}")
        return out[0] if scalar else out

    def _tail_values(self, ts: np.ndarray, tol: float) -> np.ndarray:
        small = ts < 0.5
        if not self.inversion_ok or not np.any(small):
            return self.tail.values(ts, self.kernel_power, tol)
        out = np.empty(ts.shape, dtype=float)
        if np.any(~small):
            out[~small] = self.tail.values(ts[~small], self.kernel_power, tol)
        tsm = ts[small]
        # theta0(t) = sign * t^-w * dual(1/t) - poly(t); the dual evaluation
        # error is amplified by t^-w, so it runs at a shrunken tolerance.
        amp = tsm ** (-float(self.weight))
        dual_tol = tol / max(1.0, float(np.max(amp))) / 2.0
        inv = self.dual.eval_array(1.0 / tsm, "full", dual_tol)
        out[small] = self.sign * amp * inv - self.poly_eval(tsm)
        return out

    def eval(self, t: float, part: str = "full", tol: float = 1e-12) -> float:
        return float(self.eval_array(np.array([t]), part, tol)[0])

    # -- bounds used by quadrature ---------------------------------------
    def tail_envelope(self) -> float:
        """K with |theta0(t)| <= K * t^numax * exp(-mu_1 t^p) for t >= 1."""
        if self._tail_envelope is None:
            mu1 = self.tail.min_mu()
            if not math.isfinite(mu1):
                self._tail_envelope = 0.0
            else:
                n = self.tail.needed_groups(1.0, 1e-6, self.kernel_power, 100000)
                mu, a, nu = self.tail._flat_arrays(n)
                k = float(np.sum(np.abs(a) * np.exp(-(mu - mu1))))
                self._tail_envelope = k + self.tail.remainder_bound(
                    1.0, n, self.kernel_power
                ) * math.exp(mu1)
        return self._tail_envelope

    def growth(self, part: str) -> tuple[float, float]:
        """(B, d) with |part(t)| <= B * t^d for t >= 1: the tail's
        tail_envelope(), the polynomial part's height and degree, or their
        sum.  The polynomial part's are formed on first use, as the tail's
        are: every truncation horizon reads them."""
        if part == "tail":
            return self.tail_envelope(), max(self.tail.power_range[1], 0.0)
        if self._poly_bounds is None:
            self._poly_bounds = (
                float(sum(abs(c) for c, _ in self.poly_part)),
                float(max((e for _, e in self.poly_part), default=0)),
            )
        height, degree = self._poly_bounds
        if part == "poly":
            return height, degree
        if part == "full":
            return height + self.tail_envelope(), max(degree, self.tail.power_range[1], 0.0)
        raise ValueError(f"unknown part {part!r}")

    # -- metadata ----------------------------------------------------------
    def describe(self) -> dict:
        return {
            "name": self.name,
            "weight": str(self.weight),
            "sign": self.sign,
            "dual": self.dual.name,
            "kernel_power": self.kernel_power,
            "poly": [[str(c), str(e)] for c, e in self.poly_part],
            "conductor": self.conductor,
            "inversion_ok": self.inversion_ok,
            "critical_range": list(self.critical_range) if self.critical_range else None,
        }


def inversion_defect(theta: ThetaFunction, t, tol: float = 1e-10):
    """|theta(1/t) - sign * t^weight * dual(t)| at a point t or an array of
    points, each side one evaluation at accuracy tol/4."""
    t = np.asarray(t, dtype=float)
    lhs = theta.eval_array(1.0 / t, "full", tol / 4)
    rhs = theta.sign * t ** float(theta.weight) * theta.dual.eval_array(t, "full", tol / 4)
    return np.abs(lhs - rhs)


def validate_inversion(theta: ThetaFunction) -> None:
    """Raise ValidationError at the first of VALIDATION_POINTS whose
    inversion defect exceeds VALIDATION_TOL."""
    defects = inversion_defect(theta, np.array(VALIDATION_POINTS), VALIDATION_TOL / 10)
    for t, defect in zip(VALIDATION_POINTS, defects.tolist()):
        if defect > VALIDATION_TOL:
            raise ValidationError(theta.name, t, defect, VALIDATION_TOL)


# ---------------------------------------------------------------------------
# builtin constructors
# ---------------------------------------------------------------------------


def _const_stream(mu_of_n, a_of_n) -> Callable[[int], Group]:
    def fn(n: int) -> Group:
        return (float(mu_of_n(n)), ((float(a_of_n(n)), 0.0),))

    return fn


def _make_riemann() -> ThetaFunction:
    tail = TailSeries(
        _const_stream(lambda n: PI * n * n, lambda n: 2.0),
        GrowthBound(2.0, 0.0, PI, 2.0),
    )
    return ThetaFunction(
        "riemann", Fraction(1), +1, 2, [(Fraction(1), Fraction(0))], tail
    )


def _make_eisenstein(weight: int) -> ThetaFunction:
    if weight < 4 or weight % 2:
        raise ValueError("eisenstein weight must be an even integer >= 4")
    k = weight // 2
    const = -bernoulli(weight) / (2 * weight)
    tail = TailSeries(
        _const_stream(lambda n: 2 * PI * n, lambda n: divisor_sigma(weight - 1, n)),
        GrowthBound(2.0, float(weight - 1), 2 * PI),
    )
    return ThetaFunction(
        f"eisenstein{weight}",
        Fraction(weight),
        +1 if k % 2 == 0 else -1,
        1,
        [(const, Fraction(0))],
        tail,
        critical_range=(1, weight - 1),
    )


def _make_delta() -> ThetaFunction:
    tail = TailSeries(
        _const_stream(lambda n: 2 * PI * n, lambda n: ramanujan_tau(n)),
        GrowthBound(2.0, 7.0, 2 * PI),
    )
    return ThetaFunction(
        "delta", Fraction(12), +1, 1, [], tail, critical_range=(1, 11)
    )


def _theta_plus_coeff(n: int) -> int:
    return 8 * divisor_sigma(1, n) - (32 * divisor_sigma(1, n // 4) if n % 4 == 0 else 0)


def _theta_minus_coeff(n: int) -> int:
    a = -24 * divisor_sigma(1, n)
    if n % 2 == 0:
        a += 96 * divisor_sigma(1, n // 2)
    if n % 4 == 0:
        a -= 96 * divisor_sigma(1, n // 4)
    return a


def _make_theta_pm(which: int) -> ThetaFunction:
    coeff = _theta_plus_coeff if which > 0 else _theta_minus_coeff
    tail = TailSeries(
        _const_stream(lambda n: PI * n, lambda n: coeff(n)),
        GrowthBound(300.0, 2.0, PI),
    )
    return ThetaFunction(
        "theta_plus" if which > 0 else "theta_minus",
        Fraction(2),
        +1 if which > 0 else -1,
        1,
        [(Fraction(1), Fraction(0))],
        tail,
        critical_range=(1, 1),
    )


@lru_cache(maxsize=1)
def _jacobi_pair() -> tuple[ThetaFunction, ThetaFunction]:
    half = Fraction(1, 2)
    tail4 = TailSeries(
        _const_stream(lambda n: PI * n * n, lambda n: 2.0 * (-1) ** n),
        GrowthBound(2.0, 0.0, PI, 2.0),
    )
    theta4 = ThetaFunction(
        "jacobi4", half, +1, 1, [(Fraction(1), Fraction(0))], tail4, validate=False
    )
    tail2 = TailSeries(
        _const_stream(lambda n: PI * (n - 0.5) ** 2, lambda n: 2.0),
        GrowthBound(2.0, 0.0, PI / 4, 2.0),
    )
    theta2 = ThetaFunction("jacobi2", half, +1, 1, [], tail2, validate=False)
    theta4._set_dual(theta2)
    theta2._set_dual(theta4)
    validate_inversion(theta4)
    validate_inversion(theta2)
    return theta2, theta4


def _make_jacobi3() -> ThetaFunction:
    tail = TailSeries(
        _const_stream(lambda n: PI * n * n, lambda n: 2.0),
        GrowthBound(2.0, 0.0, PI, 2.0),
    )
    return ThetaFunction(
        "jacobi3", Fraction(1, 2), +1, 1, [(Fraction(1), Fraction(0))], tail
    )


# every builtin theta by name, in the order list-thetas prints them
_BUILTIN_FACTORIES: dict[str, Callable[[], ThetaFunction]] = {
    "riemann": _make_riemann,
    "eisenstein4": lambda: make_builtin_theta("eisenstein", 4),
    "eisenstein6": lambda: make_builtin_theta("eisenstein", 6),
    "eisenstein8": lambda: make_builtin_theta("eisenstein", 8),
    "delta": _make_delta,
    "theta_plus": lambda: _make_theta_pm(+1),
    "theta_minus": lambda: _make_theta_pm(-1),
    "jacobi2": lambda: _jacobi_pair()[0],
    "jacobi3": _make_jacobi3,
    "jacobi4": lambda: _jacobi_pair()[1],
}


@lru_cache(maxsize=None)
def make_builtin_theta(name: str, weight: int | None = None) -> ThetaFunction:
    """Construct (and cache) a builtin theta function: a name that
    builtin_registry lists, or eisenstein with an even weight >= 4.
    """
    if name == "eisenstein":
        if weight is None:
            raise ValueError("eisenstein requires a weight parameter")
        return _make_eisenstein(weight)
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown builtin theta {name!r}") from None
    if weight is not None:
        raise ValueError(f"builtin {name!r} takes no weight parameter")
    return factory()


def builtin_registry() -> dict[str, ThetaFunction]:
    """Every builtin theta by its name, which is also its token."""
    return {name: make_builtin_theta(name) for name in _BUILTIN_FACTORIES}


# ---------------------------------------------------------------------------
# operations on theta functions
# ---------------------------------------------------------------------------


def _mapped(
    theta: ThetaFunction,
    name: str,
    weight: Fraction,
    poly: Sequence[tuple[Fraction, Fraction]],
    group_map: Callable[[Group], Group],
    growth: GrowthBound,
    power_range: tuple[float, float],
    inversion_ok: bool,
) -> ThetaFunction:
    """A theta whose tail maps theta's group by group, with theta's sign,
    kernel power and conductor; unvalidated (see _paired)."""
    base = theta.tail

    def fn(n: int) -> Group | None:
        g = base.group(n)
        return None if g is None else group_map(g)

    return ThetaFunction(
        name, weight, theta.sign, theta.kernel_power, poly,
        TailSeries(fn, growth, power_range),
        conductor=theta.conductor, inversion_ok=inversion_ok, validate=False,
    )


def _paired(make: Callable[..., ThetaFunction], *thetas: ThetaFunction) -> ThetaFunction:
    """make(*thetas), a transform that carries the inversion law: unless every
    input is self-dual, its dual is make applied to the inputs' duals, linked
    both ways.  The result is validated once, when its law holds."""
    result = make(*thetas)
    if not all(th.self_dual for th in thetas):
        partner = make(*(th.dual for th in thetas))
        result._set_dual(partner)
        partner._set_dual(result)
    if result.inversion_ok:
        validate_inversion(result)
    return result


def mul_monomial(theta: ThetaFunction, exponent: Fraction | int) -> ThetaFunction:
    """t^exponent * theta(t); weight drops by 2*exponent, sign unchanged.

    A negative exponent must keep the shifted polynomial part at
    nonnegative exponents.
    """
    a = Fraction(exponent)
    af = float(a)

    def shifted(th: ThetaFunction) -> ThetaFunction:
        poly = [(c, e + a) for c, e in th.poly_part]
        if any(e < 0 for _, e in poly):
            raise ValueError("monomial shift would create negative poly exponents")
        lo, hi = th.tail.power_range
        return _mapped(
            th, f"({th.name}*t^{a})", th.weight - 2 * a, poly,
            lambda g: (g[0], tuple((c, nu + af) for c, nu in g[1])),
            th.tail.growth, (lo + af, hi + af), th.inversion_ok,
        )

    return _paired(shifted, theta)


def rescale(theta: ThetaFunction, n: float) -> ThetaFunction:
    """theta(n t).  The inversion law becomes twisted, so the result is
    flagged inversion-broken (and rejected by the evaluation engine) unless
    n == 1."""
    if n <= 0:
        raise ValueError("rescale factor must be positive")
    if n == 1:
        return theta
    npf = float(n) ** theta.kernel_power
    poly = [(c * Fraction(n) ** int(e) if e.denominator == 1 else c * Fraction(float(n) ** float(e)), e)
            for c, e in theta.poly_part]
    lo, hi = theta.tail.power_range
    g = theta.tail.growth
    growth = GrowthBound(g.coeff * max(n**hi, n**lo, 1.0), g.power, g.mu_slope * npf, g.mu_power)
    return _mapped(
        theta, f"({theta.name}@{n})", theta.weight, poly,
        lambda group: (group[0] * npf, tuple((c * float(n) ** nu, nu) for c, nu in group[1])),
        growth, (lo, hi), False,
    )


def differentiate(theta: ThetaFunction) -> ThetaFunction:
    """-t * theta'(t).  Does not preserve the inversion law on its own;
    the result is flagged inversion-broken (combine via d_w instead)."""
    return _differentiate_raw(theta, inversion_ok=False)


def _derivative(group: Group, p: int) -> Group:
    """-t d/dt of one group: a t^nu exp(-mu t^p) -> -a nu t^nu + a mu p t^(nu+p)."""
    mu, terms = group
    out = []
    for a, nu in terms:
        if nu != 0:
            out.append((-a * nu, nu))
        out.append((a * mu * p, nu + p))
    return (mu, tuple(out))


def _differentiate_raw(theta: ThetaFunction, inversion_ok: bool) -> ThetaFunction:
    poly = [(-c * e, e) for c, e in theta.poly_part if e != 0]
    p = theta.kernel_power
    lo, hi = theta.tail.power_range
    g = theta.tail.growth
    # new coefficients -a*nu and a*mu*p; estimate mu_n <= mu_up * n^mu_power
    # from a probe of the stream (exact for the builtin frequency laws)
    probe = theta.tail.ensure(64)
    if probe == 0:
        mu_up = 1.0
    else:
        mu_up = 1.25 * max(
            theta.tail.group(n)[0] / n**g.mu_power for n in range(1, probe + 1)
        )
    growth = GrowthBound(
        g.coeff * (abs(hi) + abs(lo) + p * mu_up),
        g.power + g.mu_power,
        g.mu_slope,
        g.mu_power,
    )
    return _mapped(
        theta, f"A({theta.name})", theta.weight, poly, lambda group: _derivative(group, p),
        growth, (lo, hi + p), inversion_ok,
    )


def _d_w_raw(theta: ThetaFunction) -> ThetaFunction:
    """w A(theta) - A(A(theta)) with A = -t d/dt, combined group by group:
    both keep theta's kernel power and frequencies.  A(A(theta))'s bounds
    dominate A(theta)'s except in the growth coefficient, which adds."""
    w, p = float(theta.weight), theta.kernel_power
    a1 = _differentiate_raw(theta, inversion_ok=True)
    a2 = _differentiate_raw(a1, inversion_ok=True)
    g1, g2 = a1.tail.growth, a2.tail.growth

    def combine(group: Group) -> Group:
        d1 = _derivative(group, p)
        terms: dict[float, float] = {}
        for c, g in ((w, d1), (-1.0, _derivative(d1, p))):
            for a, nu in g[1]:
                terms[nu] = terms.get(nu, 0.0) + c * a
        return (group[0], tuple((a, nu) for nu, a in sorted(terms.items()) if a != 0.0))

    return _mapped(
        theta, f"Dw({theta.name})", theta.weight,
        [(-c * e * (theta.weight + e), e) for c, e in theta.poly_part], combine,
        GrowthBound(abs(w) * g1.coeff + g2.coeff, g2.power, g2.mu_slope, g2.mu_power),
        a2.tail.power_range, theta.inversion_ok,
    )


def d_w(theta: ThetaFunction) -> ThetaFunction:
    """-(w+1) t theta' - t^2 theta'': preserves the inversion law in degree w.

    Acts on Mellin transforms as multiplication by s(w-s).
    """
    return _paired(_d_w_raw, theta)


def _lattice_index(series: TailSeries, delta: float) -> None:
    """Check that the first 32 frequencies lie on the lattice delta * Z."""
    for n in range(1, 33):
        g = series.group(n)
        if g is None:
            return
        k = g[0] / delta
        if abs(k - round(k)) > 1e-6 * max(1.0, k):
            raise KernelMismatchError(
                f"frequency {g[0]} not on lattice of spacing {delta}"
            )


def pointwise_product(t1: ThetaFunction, t2: ThetaFunction) -> ThetaFunction:
    """theta1(t) * theta2(t) with tails combined by Cauchy product.

    Requires identical kernel powers and both frequency sets on a common
    arithmetic lattice delta * Z so frequency sums land back on the lattice.
    """
    return _paired(_product, t1, t2)


def _product(t1: ThetaFunction, t2: ThetaFunction) -> ThetaFunction:
    if t1.kernel_power != t2.kernel_power:
        raise KernelMismatchError("pointwise product requires equal kernel powers")
    p = t1.kernel_power
    mu1, mu2 = t1.tail.min_mu(), t2.tail.min_mu()
    delta = min(mu1, mu2)
    for probe in (1, 2, 4):
        try:
            _lattice_index(t1.tail, delta / probe)
            _lattice_index(t2.tail, delta / probe)
            delta = delta / probe
            break
        except KernelMismatchError:
            if probe == 4:
                raise

    def lattice_groups(theta: ThetaFunction, kmax: int) -> dict[int, list[tuple[float, float]]]:
        table: dict[int, list[tuple[float, float]]] = {}
        n = 1
        while True:
            g = theta.tail.group(n)
            if g is None or g[0] > delta * kmax * (1 + 1e-12):
                break
            k = round(g[0] / delta)
            table.setdefault(k, []).extend(g[1])
            n += 1
        return table

    tables: dict = {"kmax": -1, "a": {}, "b": {}}

    def product_group(k: int) -> tuple[tuple[float, float], ...]:
        if k > tables["kmax"]:
            tables["kmax"] = 2 * k
            tables["a"] = lattice_groups(t1, tables["kmax"])
            tables["b"] = lattice_groups(t2, tables["kmax"])
        g1, g2 = tables["a"], tables["b"]
        terms: dict[float, float] = {}

        def add(a: float, nu: float):
            terms[nu] = terms.get(nu, 0.0) + a

        for i, ts1 in g1.items():
            for a1, nu1 in ts1:
                for a2, nu2 in g2.get(k - i, []):
                    add(a1 * a2, nu1 + nu2)
        for c, e in t1.poly_part:
            for a2, nu2 in g2.get(k, []):
                add(float(c) * a2, float(e) + nu2)
        for c, e in t2.poly_part:
            for a1, nu1 in g1.get(k, []):
                add(float(c) * a1, float(e) + nu1)
        return tuple((a, nu) for nu, a in sorted(terms.items()) if a != 0.0)

    nonempty: list[Group] = []

    def fn(n: int) -> Group | None:
        k = 1 if not nonempty else round(nonempty[-1][0] / delta) + 1
        budget = 4096
        while budget > 0:
            terms = product_group(k)
            if terms:
                g = (delta * k, terms)
                nonempty.append(g)
                return g
            k += 1
            budget -= 1
        return None

    g1b, g2b = t1.tail.growth, t2.tail.growth
    (h1, d1), (h2, d2) = t1.growth("poly"), t2.growth("poly")
    growth = GrowthBound((g1b.coeff + h1) * (g2b.coeff + h2), g1b.power + g2b.power + 1.0,
                         delta, 1.0)
    lo = min(t1.tail.power_range[0], 0.0) + min(t2.tail.power_range[0], 0.0)
    hi = max(t1.tail.power_range[1], d1) + max(t2.tail.power_range[1], d2)
    poly: dict[Fraction, Fraction] = {}
    for c1, e1 in t1.poly_part:
        for c2, e2 in t2.poly_part:
            poly[e1 + e2] = poly.get(e1 + e2, Fraction(0)) + c1 * c2
    return ThetaFunction(
        f"({t1.name}.{t2.name})",
        t1.weight + t2.weight,
        t1.sign * t2.sign,
        p,
        [(c, e) for e, c in poly.items()],
        TailSeries(fn, growth, (lo, hi)),
        conductor=t1.conductor * t2.conductor,
        inversion_ok=t1.inversion_ok and t2.inversion_ok,
        validate=False,
    )


# ---------------------------------------------------------------------------
# tail convolution
# ---------------------------------------------------------------------------


class TailConvolution:
    """Evaluator for (theta1_0 * theta2_0)(t) = int_0^inf th1(t/x) th2(x) dx/x.

    Only the exponentially decaying tails enter; no polynomial part is
    synthesized for the result.
    """

    def __init__(self, t1: ThetaFunction, t2: ThetaFunction, tol: float = 1e-10):
        self.t1, self.t2, self.tol = t1, t2, tol
        self._nodes, self._weights = gauss_legendre(32)

    def _panel_quad(self, f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float):
        """32-point Gauss-Legendre sum of f over panels of [lo, hi] of
        length at most 1."""
        total = 0.0
        edges = np.linspace(lo, hi, max(2, int(math.ceil(hi - lo)) + 1))
        for a, b in zip(edges[:-1], edges[1:]):
            xs = 0.5 * (self._nodes + 1.0) * (b - a) + a
            total += np.dot(self._weights, f(xs)) * (b - a) / 2.0
        return total

    def _cut(self, theta: ThetaFunction, floor: float) -> float:
        """u with |theta0(x)| <= floor for all x >= u (u >= 1)."""
        mu1 = theta.tail.min_mu()
        k = max(theta.tail_envelope(), 1e-300)
        u = 1.0
        while k * math.exp(-mu1 * u**theta.kernel_power) > floor and u < 1e6:
            u *= 1.25
        return u

    def __call__(self, t: float) -> float:
        tol = self.tol
        floor = tol / 10.0
        hi = math.log(self._cut(self.t2, floor))
        lo = math.log(t) - math.log(self._cut(self.t1, floor))
        if lo >= hi:
            return 0.0

        def integrand(us: np.ndarray) -> np.ndarray:
            x = np.exp(us)
            inner = tol / (40.0 * max(1.0, hi - lo))
            return self.t1.eval_array(t / x, "tail", inner) * self.t2.eval_array(
                x, "tail", inner
            )

        return self._panel_quad(integrand, lo, hi)

    def mellin(self, s: complex) -> complex:
        """Mellin transform of the convolution by outer log-grid quadrature."""
        tol = self.tol
        w1 = float(self.t1.weight + self.t1.growth("poly")[1])
        w2 = float(self.t2.weight + self.t2.growth("poly")[1])
        drop = s.real - (w1 + w2)
        if drop <= 0.2:
            raise ValueError("Mellin transform of the convolution needs larger Re(s)")
        v_lo = min(math.log(self._cut(self.t1, tol)) + math.log(self._cut(self.t2, tol)), 20.0)
        v0 = -(math.log(1.0 / tol) + 5.0) / drop

        def f(vs: np.ndarray) -> np.ndarray:
            vals = np.array([self(math.exp(v)) for v in vs])
            return vals * np.exp(vs * s)

        return complex(self._panel_quad(f, v0, v_lo))


def convolve(t1: ThetaFunction, t2: ThetaFunction, tol: float = 1e-10) -> TailConvolution:
    return TailConvolution(t1, t2, tol)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def parse_theta_text(
    text: str, registry: dict[str, ThetaFunction] | None = None
) -> ThetaFunction:
    """Parse the line-oriented theta description format.

    Lines: name, weight p/q, sign +1|-1, dual self|id, kernel exp|gauss
    scale <decimal>, poly <coeff> <exponent> ... (repeatable), freq
    default|<list>, coeffs <a1> <a2> ..., growth <M> <kappa>, and an
    optional conductor <decimal>.
    """
    fields: dict[str, list[list[str]]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        fields.setdefault(key, []).append(rest)

    def one(key: str, default=None):
        if key not in fields:
            if default is not None:
                return default
            raise ValueError(f"theta file missing {key!r} line")
        if len(fields[key]) != 1:
            raise ValueError(f"duplicate {key!r} line")
        return fields[key][0]

    name = one("name")[0]
    weight = Fraction(one("weight")[0])
    sign = int(one("sign")[0])
    kernel = one("kernel")
    if len(kernel) != 3 or kernel[0] not in ("exp", "gauss") or kernel[1] != "scale":
        raise ValueError("kernel line must be: kernel <exp|gauss> scale <decimal>")
    p = 1 if kernel[0] == "exp" else 2
    scale = float(kernel[2])
    if scale <= 0:
        raise ValueError("kernel scale must be positive")

    poly: list[tuple[Fraction, Fraction]] = []
    for chunk in fields.get("poly", []):
        if len(chunk) % 2:
            raise ValueError("poly line must hold coefficient/exponent pairs")
        for c, e in zip(chunk[::2], chunk[1::2]):
            poly.append((Fraction(c), Fraction(e)))

    coeffs = [float(Fraction(c)) for c in one("coeffs")]
    freq_spec = one("freq", default=["default"])
    if freq_spec == ["default"]:
        freqs = [float(n if p == 1 else n * n) for n in range(1, len(coeffs) + 1)]
    else:
        freqs = [float(Fraction(f)) for f in freq_spec]
        if len(freqs) < len(coeffs):
            raise ValueError("freq list shorter than coeffs list")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("freq list must be strictly increasing")
    growth_m, growth_k = (float(x) for x in one("growth"))
    conductor = float(one("conductor", default=["1"])[0])

    mus = [scale * f for f in freqs[: len(coeffs)]]
    slope = min(mu / (i + 1) for i, mu in enumerate(mus)) if mus else scale

    def fn(n: int) -> Group | None:
        if n > len(coeffs):
            return None
        return (mus[n - 1], ((coeffs[n - 1], 0.0),))

    tail = TailSeries(fn, GrowthBound(growth_m, growth_k, slope))
    dual_name = one("dual", default=["self"])[0]
    theta = ThetaFunction(
        name, weight, sign, p, poly, tail, conductor=conductor, validate=False
    )
    if dual_name != "self":
        registry = registry or {}
        if dual_name not in registry:
            raise ValueError(f"dual theta {dual_name!r} not found in registry")
        theta._set_dual(registry[dual_name])
    validate_inversion(theta)
    return theta


def load_theta_from_file(
    path, registry: dict[str, ThetaFunction] | None = None
) -> ThetaFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theta_text(fh.read(), registry)


# tokens that stand for a builtin's name
_ALIASES = {"theta+": "theta_plus", "theta-": "theta_minus"}


def parse_theta_token(token: str) -> ThetaFunction:
    """The theta one token of a theta tuple names.

    Tokens: a name builtin_registry lists, theta+ and theta-, eisenstein:K
    for an even weight K >= 4, jacobi:K for K = 2, 3 or 4, and file:<path>,
    a theta file whose dual is looked up in the builtin registry, built
    only for such a token.  A builtin token constructs that theta alone;
    a bad token raises ValueError.
    """
    token = token.strip()
    if token.startswith("file:"):
        path = token[5:]
        try:
            return load_theta_from_file(path, builtin_registry())
        except (OSError, ValueError, ValidationError) as exc:
            raise ValueError(f"cannot load theta from {path!r}: {exc}") from exc
    if ":" in token:
        head, arg = token.split(":", 1)
        try:
            value = int(arg)
        except ValueError:
            raise ValueError(f"bad theta parameter in {token!r}") from None
        if head == "eisenstein":
            return make_builtin_theta("eisenstein", value)
        if head != "jacobi":
            raise ValueError(f"unknown theta family {head!r}")
        if value not in (2, 3, 4):
            raise ValueError("jacobi kind must be 2, 3 or 4")
        token = f"jacobi{value}"
    return make_builtin_theta(_ALIASES.get(token, token))
