"""Exact rational functions in the slot variables s_1..s_r.

Tangent-space integrals over the unit simplex of monomial one-forms evaluate
to products of inverse affine forms; this module keeps those exactly, as
lists of (rational coefficient, affine-form denominators), evaluates them at
numeric points, and restricts them to simple pole hyperplanes: the residue
along a hyperplane is again such a combination, which the engine evaluates
on the hyperplane as it evaluates any tangent factor.

All arithmetic is on integers: a form's constant is a numerator over a
denominator, a combination's coefficients share one, both in lowest terms,
so equal values are equal tuples.  A float arises only at a complex point,
from one int true division, which rounds as float(Fraction) does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, NamedTuple, Sequence

POLE_EPS = 1e-13  # |form(s)| below this on floating input counts as a pole


class PoleSignal(Exception):
    """Raised when an evaluation point lies on a pole hyperplane.

    Carries the offending form; callers decide whether this is an error.
    """

    def __init__(self, form: "AffineForm"):
        self.form = form
        super().__init__(f"pole on hyperplane {form} = 0")


class MultiplePoleError(Exception):
    """A hyperplane occurs with multiplicity >= 2 in some denominator."""


class DegenerateFormError(Exception):
    """An identically-zero denominator form arose in a tangent integral."""


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, else of Fraction(x)."""
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return x.numerator, x.denominator


class AffineForm(NamedTuple):
    """num/den + sum_i coeffs[i] * s_{i+1}, with integer slot coefficients
    and the constant num/den in lowest terms, den > 0; a tuple, so equal
    forms compare and hash alike."""

    num: int
    den: int
    coeffs: tuple[int, ...]

    @property
    def const(self) -> Fraction:
        return Fraction(self.num, self.den)

    @staticmethod
    def make(const, coeffs: Sequence[int]) -> "AffineForm":
        return AffineForm(*_ratio(const), tuple(int(c) for c in coeffs))

    @staticmethod
    def constant(value, nslots: int) -> "AffineForm":
        return AffineForm(*_ratio(value), (0,) * nslots)

    @staticmethod
    def slot(i: int, nslots: int) -> "AffineForm":
        """The variable s_{i+1} as a form on nslots slots."""
        coeffs = [0] * nslots
        coeffs[i] = 1
        return AffineForm(0, 1, tuple(coeffs))

    @property
    def nslots(self) -> int:
        return len(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, AffineForm):
            return self.shift(other)
        if len(other.coeffs) != len(self.coeffs):
            raise ValueError("slot count mismatch")
        coeffs = tuple([a + b for a, b in zip(self.coeffs, other.coeffs)])
        if self.den == other.den:
            return _form(self.num + other.num, self.den, coeffs)
        return _form(self.num * other.den + other.num * self.den, self.den * other.den, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return AffineForm(-self.num, self.den, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        return self + (-other if isinstance(other, AffineForm) else -Fraction(other))

    def shift(self, delta) -> "AffineForm":
        n, d = _ratio(delta)
        if d == self.den:
            return _form(self.num + n, d, self.coeffs)
        return _form(self.num * d + n * self.den, self.den * d, self.coeffs)

    def is_constant(self) -> bool:
        return not any(self.coeffs)

    def is_zero(self) -> bool:
        return self.num == 0 and self.is_constant()

    def __call__(self, point: Sequence):
        """Evaluate at a point; exact when the point is rational."""
        exact = all(isinstance(x, Rational) for x in point)
        acc = Fraction(self.num, self.den) if exact else complex(self.num / self.den)
        for c, x in zip(self.coeffs, point):
            if c:
                acc = acc + c * x
        return acc

    def proportional_factor(self, other: "AffineForm") -> Fraction | None:
        """Return c with self == c * other, or None."""
        if self.nslots != other.nslots or other.is_zero():
            return None
        a = (self.num * other.den, *(c * self.den * other.den for c in self.coeffs))
        b = (other.num * self.den, *(c * self.den * other.den for c in other.coeffs))
        p = next(i for i, x in enumerate(b) if x)
        if any(x * b[p] != y * a[p] for x, y in zip(a, b)):
            return None
        return Fraction(a[p], b[p])

    def canonical(self) -> "AffineForm":
        """Primitive integer representative with positive leading slot coefficient.

        Used for pole-set deduplication; the as-written form is kept on
        denominators so that residues follow the written normalization.
        """
        entries = [self.num] + [c * self.den for c in self.coeffs]
        g = gcd(*entries)
        if g == 0:
            return AffineForm(0, 1, self.coeffs)
        sign = 1
        for e in entries[1:] + entries[:1]:
            if e != 0:
                sign = 1 if e > 0 else -1
                break
        scaled = [sign * e // g for e in entries]
        return AffineForm(scaled[0], 1, tuple(scaled[1:]))

    def grad_norm(self) -> float:
        return sum(c * c for c in self.coeffs) ** 0.5

    def distance(self, point: Sequence[complex]) -> float:
        """Euclidean distance from point to the zero set (inf if constant)."""
        g = self.grad_norm()
        if g == 0:
            return float("inf")
        return abs(complex(self(point))) / g

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            parts.append(f"{sign}{mag}s{i + 1}")
        if self.num != 0 or not parts:
            sign = "-" if self.num < 0 else ("+" if parts else "")
            parts.append(f"{sign}{abs(self.const)}")
        return "".join(parts)


def _form(num: int, den: int, coeffs: tuple[int, ...]) -> AffineForm:
    """The form with constant num/den, brought to lowest terms."""
    g = gcd(num, den)
    return AffineForm(num // g, den // g, coeffs)


class RationalCombination(NamedTuple):
    """Finite sum of (coeff / den) / prod(forms): integer coefficients over
    one positive denominator, in lowest terms, so all exact; a tuple, as
    AffineForm is, so equal combinations compare and hash alike."""

    terms: tuple[tuple[int, tuple[AffineForm, ...]], ...]
    den: int = 1

    @staticmethod
    def zero() -> "RationalCombination":
        return RationalCombination(())

    @staticmethod
    def one() -> "RationalCombination":
        return RationalCombination(((1, ()),))

    @staticmethod
    def of(coeff, forms: Iterable[AffineForm] = ()) -> "RationalCombination":
        n, d = _ratio(coeff)
        return RationalCombination(((n, tuple(forms)),), d).merged()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RationalCombination") -> "RationalCombination":
        den = lcm(self.den, other.den)
        terms = [(c * (den // x.den), fs) for x in (self, other) for c, fs in x.terms]
        return RationalCombination(tuple(terms), den).merged()

    def scale(self, c) -> "RationalCombination":
        n, d = _ratio(c)
        terms = tuple((a * n, fs) for a, fs in self.terms)
        return RationalCombination(terms, self.den * d).merged()

    def __mul__(self, other: "RationalCombination") -> "RationalCombination":
        out = []
        for a, fa in self.terms:
            for b, fb in other.terms:
                out.append((a * b, fa + fb))
        return RationalCombination(tuple(out), self.den * other.den).merged()

    def merged(self) -> "RationalCombination":
        """Merge terms with identical denominator multisets, in lowest terms."""
        terms = self.terms
        if len(terms) > 1:
            acc: dict[tuple, list] = {}  # sorted forms -> [coefficient, forms]
            for c, forms in terms:
                acc.setdefault(tuple(sorted(forms)), [0, forms])[0] += c
            terms = acc.values()
        terms = [(c, fs) for c, fs in terms if c]
        g = gcd(self.den, *(c for c, _ in terms))
        return RationalCombination(tuple((c // g, fs) for c, fs in terms), self.den // g)

    def __call__(self, point: Sequence):
        """Evaluate exactly, casting to complex only at the end.

        Raises PoleSignal if any denominator form vanishes at the point
        (exactly on rational input, within POLE_EPS on floating input).
        """
        exact = all(isinstance(x, Rational) for x in point)
        total = Fraction(0) if exact else 0j
        for c, forms in self.terms:
            den = Fraction(1) if exact else complex(1.0)
            for f in forms:
                v = f(point)
                if exact:
                    if v == 0:
                        raise PoleSignal(f)
                elif abs(v) < POLE_EPS:
                    raise PoleSignal(f)
                den = den * v
            total = total + (Fraction(c, self.den) / den if exact
                             else complex(c / self.den) / den)
        return total

    def residue(self, h: AffineForm) -> "RationalCombination":
        """Residue along h = 0, as a combination to evaluate on the hyperplane.

        Normalization: the coefficient of 1/h in the partial-fraction
        expansion, i.e. lim h(s) * f(s); rescaling h rescales the result.
        A part whose denominator holds one form f = c * h gives the part
        coeff / c over its other forms; one with two raises MultiplePoleError.
        Only a form with h's zero slots can be a multiple of h.
        """
        zeros = [c == 0 for c in h.coeffs]
        out = []
        for coeff, forms in self.terms:
            factors = [f.proportional_factor(h) if [c == 0 for c in f.coeffs] == zeros else None
                       for f in forms]
            hits = [i for i, fac in enumerate(factors) if fac is not None]
            if len(hits) > 1:
                raise MultiplePoleError(
                    f"hyperplane {h} appears {len(hits)} times in a denominator"
                )
            if hits:
                i = hits[0]
                out.append(RationalCombination.of(Fraction(coeff, self.den) / factors[i],
                                                  forms[:i] + forms[i + 1 :]))
        return sum(out, RationalCombination.zero())


def simplex_monomial(forms: Sequence[AffineForm]) -> RationalCombination:
    """Integral of t_1^{b_1-1}...t_k^{b_k-1} over 0 <= t_1 <= ... <= t_k <= 1.

    Equals 1 / (b_1 (b_1+b_2) ... (b_1+...+b_k)); the empty product is 1.
    Poles are data, not errors.
    """
    return RationalCombination.of(1, _partial_sums(forms))


def _partial_sums(forms: Sequence[AffineForm]) -> tuple[AffineForm, ...]:
    denoms = []
    acc = None
    for f in forms:
        acc = f if acc is None else acc + f
        if acc.is_zero():
            raise DegenerateFormError(f"partial sum {acc} is identically zero")
        denoms.append(acc)
    return tuple(denoms)


def tangent_word_integral(word) -> RationalCombination:
    """Tangent-space integral of a word of polynomial letters over [0, 1].

    Letters must have part 'poly'; each polynomial is expanded into
    monomials and the simplex integral is summed over the grid of monomial
    choices, with each letter's exponent form shifted by the monomial
    exponent; coefficients are integers over the product of each letter's
    lcm of denominators.
    """
    choices: list[list[tuple[int, AffineForm]]] = []
    den = 1
    for letter in word:
        if letter.part != "poly":
            raise ValueError(f"tangent integral over non-polynomial letter {letter}")
        opts = [(c, letter.exponent.shift(e)) for (c, e) in letter.theta.poly_part]
        if not opts:
            return RationalCombination.zero()
        nums = [_ratio(c) for c, _ in opts]
        scale = lcm(*(d for _, d in nums))
        den *= scale
        choices.append([(n * (scale // d), f) for (n, d), (_, f) in zip(nums, opts)])

    terms: list[tuple[int, tuple[AffineForm, ...]]] = []
    stack: list[tuple[int, int, list[AffineForm]]] = [(0, 1, [])]
    while stack:
        depth, coeff, forms = stack.pop()
        if depth == len(choices):
            terms.append((coeff, _partial_sums(forms)))
            continue
        for c, f in choices[depth]:
            stack.append((depth + 1, coeff * c, forms + [f]))
    return RationalCombination(tuple(terms), den).merged()
