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
Block = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
_EMPTY = np.zeros(0)

VALIDATION_POINTS = (0.7, 1.0, 1.6)
VALIDATION_TOL = 1e-8

# the most tail groups one evaluation sums; a tail whose truncation bound
# needs more raises TruncationError
MAX_TAIL_GROUPS = 4000

# the largest eisenstein weight: from 24 on, the roundoff of values growing like
# t^-K exceeds VALIDATION_TOL, and by K = 1000 sigma_(K-1)(n) overflows a float
MAX_EISENSTEIN_WEIGHT = 22


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

    blocks(start, stop) returns groups start + 1 .. stop as a Block, the
    arrays (frequencies, term counts) per group and (coefficients, powers)
    per term; a shorter block ends the stream (a finite series).  The groups are kept
    as flat arrays grown block by block: the frequency of each group, the
    cumulative term counts (entry n: the terms of the first n groups), and
    per term its frequency, coefficient and power.
    Extension is locked and publishes all the arrays at once, so a
    concurrent reader sees whole groups only.
    """

    def __init__(
        self,
        blocks: Callable[[int, int], Block],
        growth: GrowthBound,
        power_range: tuple[float, float] = (0.0, 0.0),
    ):
        self._blocks = blocks
        self.growth = growth
        self.power_range = power_range
        # (group frequencies, cumulative term counts, term frequencies, coefficients, powers)
        self._arrays = (_EMPTY, np.zeros(1, dtype=np.intp), _EMPTY, _EMPTY, _EMPTY)
        self._finite = False
        self._lock = threading.Lock()

    def ensure(self, n: int) -> int:
        """Materialize at least n groups; returns the available count."""
        have = self._arrays[0].size
        if have >= n or self._finite:
            return have
        with self._lock:
            freqs, counts, mu, a, nu = self._arrays
            if freqs.size < n and not self._finite:
                bfreqs, sizes, ba, bnu = self._blocks(freqs.size, n)
                joined = np.concatenate((freqs[-1:], bfreqs))
                if np.any(joined[1:] <= joined[:-1]):
                    raise ValueError("tail frequencies must be strictly increasing")
                self._arrays = (
                    np.concatenate((freqs, bfreqs)),
                    np.concatenate((counts, counts[-1] + np.cumsum(sizes))),
                    np.concatenate((mu, np.repeat(bfreqs, sizes))),
                    np.concatenate((a, ba)),
                    np.concatenate((nu, bnu)),
                )
                self._finite = bfreqs.size < n - freqs.size
        return self._arrays[0].size

    def group(self, n: int) -> Group | None:
        if self.ensure(n) < n:
            return None
        freqs, counts, _, a, nu = self._arrays
        lo, hi = counts[n - 1], counts[n]
        return float(freqs[n - 1]), tuple(zip(a[lo:hi].tolist(), nu[lo:hi].tolist()))

    def min_mu(self) -> float:
        if self.ensure(1) < 1:
            return math.inf
        return float(self._arrays[0][0])

    def _flat_arrays(self, ngroups: int):
        freqs, counts, mu, a, nu = self._arrays
        count = counts[min(ngroups, freqs.size)]
        return mu[:count], a[:count], nu[:count]

    def remainder_bound(self, t: float, n: int, kernel_power: int) -> float:
        """Certified bound on the absolute tail beyond the first n groups.

        Uses mu_m >= mu_slope * m^mu_power, hence mu_m >= (mu_slope n^{q-1}) m
        for m > n, and sums the resulting geometric-with-polynomial majorant.
        Returns inf while that majorant does not yet contract.
        """
        if self._finite and self._arrays[0].size <= n:
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
        """The groups whose remainder bound at tmin is within tol, found by
        doubling from 8, and materialized by one ensure; a finite stream
        that ends sooner needs its groups only."""
        n = min(8, max_terms)
        while (bound := self.remainder_bound(tmin, n, kernel_power)) > tol and n < max_terms:
            n = min(2 * n, max_terms)
        avail = self.ensure(n)
        if self._finite and avail <= n:
            return avail
        if bound > tol:
            raise TruncationError(
                f"tail bound above {tol:.1e} after {n} groups at t={tmin}"
            )
        return n

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
        self.critical_range = critical_range
        # None stands for self: a self-dual theta holds no reference to
        # itself, so reference counting frees it once its users drop it
        self._dual: "ThetaFunction | None" = None
        self._tail_envelope: float | None = None
        # (height, degree): |poly(t)| <= height * t^degree for t >= 1
        self._poly_bounds = (float(sum(abs(c) for c, _ in self.poly_part)),
                             float(max((e for _, e in self.poly_part), default=0)))
        if validate:
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
        return self if self._dual is None else self._dual

    def _set_dual(self, other: "ThetaFunction") -> None:
        """Point this function's inversion law at other, leaving other's own
        dual alone (a file theta's partner is a shared registry entry); a
        mutual link calls it on both."""
        if other.weight != self.weight or other.sign != self.sign:
            raise ValueError("dual partners must share weight and sign")
        self._dual = None if other is self else other

    @property
    def self_dual(self) -> bool:
        return self._dual is None

    # -- evaluation -------------------------------------------------------
    def poly_eval(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape, dtype=float)
        for c, e in self.poly_part:
            out += float(c) * ts ** float(e)
        return out

    def eval_array(self, ts, part: str = "full", tol: float = 1e-12) -> np.ndarray:
        """Pointwise values of the chosen part; |result - exact| <= tol.

        Values with t < 1/2 go through the inversion law, so small
        arguments cost a dual evaluation at 1/t instead of a long direct
        sum.  full is always computed as poly + tail, term for term.
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
        if not np.any(small):
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
        sum."""
        if part == "tail":
            return self.tail_envelope(), max(self.tail.power_range[1], 0.0)
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


def _pack(groups: Sequence[Group]) -> Block:
    """The Block of groups built in Python."""
    terms = [term for _, ts in groups for term in ts]
    return (np.array([float(mu) for mu, _ in groups]),
            np.array([len(ts) for _, ts in groups], dtype=np.intp),
            np.array([float(a) for a, _ in terms]), np.array([float(nu) for _, nu in terms]))


def _const_stream(mu_of_n, a_of_n) -> Callable[[int, int], Block]:
    """Groups mu_of_n(n) with the one term a_of_n(n) * t^0, unending."""
    def blocks(start: int, stop: int) -> Block:
        return _pack([(mu_of_n(n), ((a_of_n(n), 0.0),)) for n in range(start + 1, stop + 1)])

    return blocks


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
    if weight > MAX_EISENSTEIN_WEIGHT:
        raise ValueError(f"eisenstein weight must be at most {MAX_EISENSTEIN_WEIGHT}")
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
    builtin_registry lists, or eisenstein with an even weight from 4 to
    MAX_EISENSTEIN_WEIGHT.
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
) -> ThetaFunction:
    """A theta whose tail maps theta's group by group, with theta's sign,
    kernel power and conductor; unvalidated (see _paired)."""
    base = theta.tail

    def blocks(start: int, stop: int) -> Block:
        stop = min(stop, base.ensure(stop))
        return _pack([group_map(base.group(n)) for n in range(start + 1, stop + 1)])

    return ThetaFunction(
        name, weight, theta.sign, theta.kernel_power, poly,
        TailSeries(blocks, growth, power_range),
        conductor=theta.conductor, validate=False,
    )


def _paired(make: Callable[..., ThetaFunction], *thetas: ThetaFunction,
            dual_make: Callable[..., ThetaFunction] | None = None) -> ThetaFunction:
    """make(*thetas), a transform that carries the inversion law, validated.
    Its dual is dual_make (make by default) applied to the inputs' duals,
    linked both ways; make of self-dual inputs is self-dual."""
    result = make(*thetas)
    if dual_make is not None or not all(th.self_dual for th in thetas):
        partner = (dual_make or make)(*(th.dual for th in thetas))
        result._set_dual(partner)
        partner._set_dual(result)
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
            th.tail.growth, (lo + af, hi + af),
        )

    return _paired(shifted, theta)


def rescale(theta: ThetaFunction, c: float) -> ThetaFunction:
    """theta(c t), paired with c^-w * dual(t / c), since
    theta(c / t) = sign * t^w * c^-w * dual(t / c).  Both keep theta's
    weight and sign; c == 1 returns theta."""
    if c <= 0:
        raise ValueError("rescale factor must be positive")
    if c == 1:
        return theta
    w = theta.weight

    def scaled(th: ThetaFunction, x: float, v: Fraction, name: str) -> ThetaFunction:
        """x^v * th(x t), group by group."""
        xp, k = x**th.kernel_power, float(v)
        lo, hi = th.tail.power_range
        g = th.tail.growth
        return _mapped(
            th, name, w, [(a * Fraction(x ** float(v + e)), e) for a, e in th.poly_part],
            lambda group: (group[0] * xp, tuple((a * x ** (k + nu), nu) for a, nu in group[1])),
            GrowthBound(g.coeff * max(x ** (k + hi), x ** (k + lo), 1.0), g.power,
                        g.mu_slope * xp, g.mu_power),
            (lo, hi),
        )

    return _paired(
        lambda th: scaled(th, float(c), Fraction(0), f"({th.name}@{c})"), theta,
        dual_make=lambda th: scaled(th, 1 / float(c), w, f"({c}^({-w})*{th.name}@1/{c})"),
    )


def differentiate(theta: ThetaFunction) -> ThetaFunction:
    """A theta = -t theta'(t), which multiplies Mellin transforms by s.
    (A theta)(1/t) = sign * t^w * ((w - A) dual)(t), so it pairs with
    (w - A) applied to the dual."""
    return _a_polynomial(theta, (0, 1), "A", f"({theta.weight}-A)")


def d_w(theta: ThetaFunction) -> ThetaFunction:
    """(wA - A^2) theta = -(w+1) t theta' - t^2 theta'', which multiplies
    Mellin transforms by s(w-s).  P(x) = wx - x^2 equals P(w - x), so it
    pairs with d_w of the dual."""
    return _a_polynomial(theta, (0, theta.weight, -1), "Dw", "Dw")


def _a_polynomial(theta: ThetaFunction, coeffs: Sequence, prefix: str,
                  dual_prefix: str) -> ThetaFunction:
    """P(A) theta for P(x) = sum_k coeffs[k] x^k and A = -t d/dt, paired
    with P(w - A) applied to the dual.  Every power of A keeps theta's
    kernel power and frequencies, so the groups combine one by one; A^k's
    growth bound follows from A^(k-1)'s, and the bounds of P's terms add."""
    w, p = theta.weight, theta.kernel_power
    reflected = tuple(sum(c * math.comb(k, j) * w ** (k - j) * (-1) ** j
                          for k, c in enumerate(coeffs) if k >= j) for j in range(len(coeffs)))

    def make(th: ThetaFunction, poly_coeffs: Sequence, name: str) -> ThetaFunction:
        lo, hi = th.tail.power_range
        g = th.tail.growth
        fcoeffs = [float(c) for c in poly_coeffs]
        # A's new coefficients are -a*nu and a*mu*p; estimate mu_n <= mu_up *
        # n^mu_power from a probe of the stream (exact for the builtin laws)
        probe = th.tail.ensure(64)
        mu_up = 1.0 if probe == 0 else 1.25 * max(
            th.tail.group(n)[0] / n**g.mu_power for n in range(1, probe + 1))
        coeff, power, top, bound = g.coeff, g.power, hi, 0.0
        for k, c in enumerate(fcoeffs):
            if k:
                coeff *= abs(top) + abs(lo) + p * mu_up
                power += g.mu_power
                top += p
            if c:
                bound += abs(c) * coeff

        def combine(group: Group) -> Group:
            mu, terms_k = group  # terms_k: the terms of A^k of the group
            merged: dict[float, float] = {}
            for k, c in enumerate(fcoeffs):
                if k:  # a t^nu exp(-mu t^p) -> -a nu t^nu + a mu p t^(nu+p)
                    terms_k = [term for a, nu in terms_k
                               for term in ((-a * nu, nu), (a * mu * p, nu + p))]
                if c:
                    for a, nu in terms_k:
                        merged[nu] = merged.get(nu, 0.0) + c * a
            return (mu, tuple((a, nu) for nu, a in sorted(merged.items()) if a != 0.0))

        poly = [(c * sum(ck * (-e) ** k for k, ck in enumerate(poly_coeffs)), e)
                for c, e in th.poly_part]
        return _mapped(th, name, w, poly, combine,
                       GrowthBound(bound, power, g.mu_slope, g.mu_power), (lo, top))

    return _paired(
        lambda th: make(th, coeffs, f"{prefix}({th.name})"), theta,
        dual_make=None if reflected == tuple(coeffs)
        else lambda th: make(th, reflected, f"{dual_prefix}({th.name})"),
    )


def pointwise_product(t1: ThetaFunction, t2: ThetaFunction) -> ThetaFunction:
    """theta1(t) * theta2(t) with tails combined by Cauchy product.

    Requires identical kernel powers and both frequency sets on a common
    arithmetic lattice delta * Z so frequency sums land back on the lattice.
    """
    return _paired(_product, t1, t2)


def _product(t1: ThetaFunction, t2: ThetaFunction) -> ThetaFunction:
    """theta1 * theta2, unvalidated.  Both tails are indexed on the lattice
    delta * Z: each factor's table maps an index k to the terms of its
    groups there, and grows only as far as the product's group k asks.
    The product's group k pairs the entries i and k - i of the two tables,
    then each polynomial part with the other factor's entry k."""
    if t1.kernel_power != t2.kernel_power:
        raise KernelMismatchError("pointwise product requires equal kernel powers")

    def on_lattice(step: float) -> bool:
        """Whether the first 32 frequencies of both tails lie on step * Z."""
        for theta in (t1, t2):
            for n in range(1, 33):
                g = theta.tail.group(n)
                if g is None:
                    break
                k = g[0] / step
                if abs(k - round(k)) > 1e-6 * max(1.0, k):
                    return False
        return True

    mu = min(t1.tail.min_mu(), t2.tail.min_mu())
    delta = next((mu / q for q in (1, 2, 4) if on_lattice(mu / q)), None)
    if delta is None:
        raise KernelMismatchError(
            f"tail frequencies share no lattice of spacing {mu}/q for q = 1, 2 or 4")

    tables: tuple[dict[int, list[tuple[float, float]]], ...] = ({}, {})
    indexed = [0, 0]  # per factor: how many of its groups its table holds

    def table(j: int, k: int) -> dict[int, list[tuple[float, float]]]:
        """Factor j's table, extended through index k."""
        tail = (t1, t2)[j].tail
        while (g := tail.group(indexed[j] + 1)) is not None and round(g[0] / delta) <= k:
            tables[j].setdefault(round(g[0] / delta), []).extend(g[1])
            indexed[j] += 1
        return tables[j]

    poly1, poly2 = ([(float(c), float(e)) for c, e in th.poly_part] for th in (t1, t2))
    last = 0  # the lattice index of the last group returned

    def blocks(start: int, stop: int) -> Block:
        nonlocal last
        groups, k = [], last
        while len(groups) < stop - start and k < last + 4096:  # 4096 empty indices end the stream
            k += 1
            g1, g2 = table(0, k), table(1, k)
            pairs = [(ts1, g2[k - i]) for i, ts1 in g1.items() if k - i in g2]
            pairs += [(poly1, g2.get(k, ())), (poly2, g1.get(k, ()))]
            terms: dict[float, float] = {}
            for left, right in pairs:
                for a1, nu1 in left:
                    for a2, nu2 in right:
                        terms[nu1 + nu2] = terms.get(nu1 + nu2, 0.0) + a1 * a2
            group = tuple((a, nu) for nu, a in sorted(terms.items()) if a != 0.0)
            if group:
                last = k
                groups.append((delta * k, group))
        return _pack(groups)

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
        t1.kernel_power,
        [(c, e) for e, c in poly.items()],
        TailSeries(blocks, growth, (lo, hi)),
        conductor=t1.conductor * t2.conductor,
        validate=False,
    )


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
    groups = [(mu, ((a, 0.0),)) for mu, a in zip(mus, coeffs)]
    tail = TailSeries(lambda start, stop: _pack(groups[start:stop]),
                      GrowthBound(growth_m, growth_k, slope))
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
    for an even weight 4 <= K <= MAX_EISENSTEIN_WEIGHT, jacobi:K for
    K = 2, 3 or 4, and file:<path>, a theta file whose dual is looked up
    in the builtin registry, built only for such a token.  A builtin token constructs that theta alone;
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
