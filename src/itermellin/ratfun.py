"""Exact rational functions in the slot variables s_1..s_r.

Tangent-space integrals over the unit simplex of monomial one-forms evaluate
to products of inverse affine forms; this module keeps those exactly, as
lists of (rational coefficient, affine-form denominators), evaluates them at
numeric points, and computes residues along simple pole hyperplanes.

All coefficients are fractions.Fraction; floating conversion happens only in
the final step of an evaluation at a complex point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

POLE_EPS = 1e-13  # |form(s)| below this on floating input counts as a pole


class PoleSignal(Exception):
    """Raised when an evaluation point lies on a pole hyperplane.

    Carries the offending form; callers decide whether this is an error.
    """

    def __init__(self, form: "AffineForm", message: str = ""):
        self.form = form
        super().__init__(message or f"pole on hyperplane {form} = 0")


class MultiplePoleError(Exception):
    """A hyperplane occurs with multiplicity >= 2 in some denominator."""


class DegenerateFormError(Exception):
    """An identically-zero denominator form arose in a tangent integral."""


@dataclass(frozen=True)
class AffineForm:
    """const + sum_i coeffs[i] * s_{i+1}, with integer slot coefficients."""

    const: Fraction
    coeffs: tuple[int, ...]

    def __hash__(self) -> int:
        # forms key many dicts during compilation; hashing the Fraction
        # each time dominated compile time, so the hash is kept per instance
        try:
            return self._hash
        except AttributeError:
            h = hash((self.const, self.coeffs))
            object.__setattr__(self, "_hash", h)
            return h

    @staticmethod
    def make(const, coeffs: Sequence[int]) -> "AffineForm":
        return AffineForm(Fraction(const), tuple(int(c) for c in coeffs))

    @staticmethod
    def constant(value, nslots: int) -> "AffineForm":
        return AffineForm(Fraction(value), (0,) * nslots)

    @staticmethod
    def slot(i: int, nslots: int) -> "AffineForm":
        """The variable s_{i+1} as a form on nslots slots."""
        coeffs = [0] * nslots
        coeffs[i] = 1
        return AffineForm(Fraction(0), tuple(coeffs))

    @property
    def nslots(self) -> int:
        return len(self.coeffs)

    def __add__(self, other):
        if isinstance(other, AffineForm):
            if other.nslots != self.nslots:
                raise ValueError("slot count mismatch")
            return AffineForm(
                self.const + other.const,
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            )
        return AffineForm(self.const + Fraction(other), self.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return AffineForm(-self.const, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, AffineForm) else -Fraction(other))

    def shift(self, delta) -> "AffineForm":
        return AffineForm(self.const + Fraction(delta), self.coeffs)

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_zero(self) -> bool:
        return self.const == 0 and self.is_constant()

    def __call__(self, point: Sequence):
        """Evaluate at a point; exact when the point is rational."""
        acc = self.const
        exact = all(isinstance(x, Rational) for x in point)
        if not exact:
            acc = complex(acc)
        for c, x in zip(self.coeffs, point):
            if c:
                acc = acc + c * x
        return acc

    def proportional_factor(self, other: "AffineForm") -> Fraction | None:
        """Return c with self == c * other, or None."""
        if self.nslots != other.nslots or other.is_zero():
            return None
        ratio: Fraction | None = None
        for a, b in zip((self.const, *self.coeffs), (other.const, *other.coeffs)):
            if b == 0:
                if a != 0:
                    return None
            else:
                r = Fraction(a, 1) / Fraction(b, 1)
                if ratio is None:
                    ratio = r
                elif ratio != r:
                    return None
        return ratio

    def canonical(self) -> "AffineForm":
        """Primitive integer representative with positive leading slot coefficient.

        Used for pole-set deduplication; the as-written form is kept on
        denominators so that residues follow the written normalization.
        """
        from math import gcd

        den = self.const.denominator
        entries = [int(self.const * den)] + [c * den for c in self.coeffs]
        g = 0
        for e in entries:
            g = gcd(g, e)
        if g == 0:
            return AffineForm(Fraction(0), self.coeffs)
        sign = 1
        for e in entries[1:] + entries[:1]:
            if e != 0:
                sign = 1 if e > 0 else -1
                break
        scaled = [sign * e // g for e in entries]
        return AffineForm(Fraction(scaled[0]), tuple(scaled[1:]))

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
        if self.const != 0 or not parts:
            sign = "-" if self.const < 0 else ("+" if parts else "")
            parts.append(f"{sign}{abs(self.const)}")
        return "".join(parts)


@dataclass(frozen=True)
class RationalCombination:
    """Finite sum of coeff / prod(forms), all exact."""

    terms: tuple[tuple[Fraction, tuple[AffineForm, ...]], ...]

    @staticmethod
    def zero() -> "RationalCombination":
        return RationalCombination(())

    @staticmethod
    def one() -> "RationalCombination":
        return RationalCombination(((Fraction(1), ()),))

    @staticmethod
    def of(coeff, forms: Iterable[AffineForm] = ()) -> "RationalCombination":
        c = Fraction(coeff)
        if c == 0:
            return RationalCombination(())
        return RationalCombination(((c, tuple(forms)),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RationalCombination") -> "RationalCombination":
        return RationalCombination(self.terms + other.terms).merged()

    def __sub__(self, other: "RationalCombination") -> "RationalCombination":
        return self + other.scale(-1)

    def scale(self, c) -> "RationalCombination":
        c = Fraction(c)
        if c == 0:
            return RationalCombination(())
        return RationalCombination(tuple((a * c, fs) for a, fs in self.terms))

    def __mul__(self, other: "RationalCombination") -> "RationalCombination":
        out = []
        for a, fa in self.terms:
            for b, fb in other.terms:
                out.append((a * b, fa + fb))
        return RationalCombination(tuple(out)).merged()

    def merged(self) -> "RationalCombination":
        """Merge terms with identical denominator multisets."""
        acc: dict[tuple, Fraction] = {}
        keys: dict[tuple, tuple[AffineForm, ...]] = {}
        for c, forms in self.terms:
            key = tuple(sorted(((f.const, f.coeffs) for f in forms)))
            acc[key] = acc.get(key, Fraction(0)) + c
            keys.setdefault(key, forms)
        return RationalCombination(
            tuple((c, keys[k]) for k, c in acc.items() if c != 0)
        )

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
            total = total + (c / den if exact else complex(c) / den)
        return total

    def residue(self, h: AffineForm, point: Sequence) -> complex:
        """Residue along h = 0 at a generic point of the hyperplane.

        Normalization: the coefficient of 1/h in the partial-fraction
        expansion, i.e. lim h(s) * f(s); rescaling h rescales the result.
        """
        total = 0j
        for c, forms in self.terms:
            factors = [f.proportional_factor(h) for f in forms]
            hits = [i for i, fac in enumerate(factors) if fac is not None]
            if not hits:
                continue
            if len(hits) > 1:
                raise MultiplePoleError(
                    f"hyperplane {h} appears {len(hits)} times in a denominator"
                )
            i = hits[0]
            den = complex(factors[i])
            for j, f in enumerate(forms):
                if j == i:
                    continue
                v = complex(f(point))
                if abs(v) < POLE_EPS:
                    raise PoleSignal(f, "point lies on an intersection of hyperplanes")
                den *= v
            total += complex(c) / den
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for c, forms in self.terms:
            den = "*".join(f"({f})" for f in forms)
            bits.append(f"{c}" + (f"/[{den}]" if den else ""))
        return " + ".join(bits)


def simplex_monomial(forms: Sequence[AffineForm]) -> RationalCombination:
    """Integral of t_1^{b_1-1}...t_k^{b_k-1} over 0 <= t_1 <= ... <= t_k <= 1.

    Equals 1 / (b_1 (b_1+b_2) ... (b_1+...+b_k)); the empty product is 1.
    Poles are data, not errors.
    """
    denoms = []
    acc = None
    for f in forms:
        acc = f if acc is None else acc + f
        if acc.is_zero():
            raise DegenerateFormError(f"partial sum {acc} is identically zero")
        denoms.append(acc)
    return RationalCombination.of(1, denoms)


def tangent_word_integral(word) -> RationalCombination:
    """Tangent-space integral of a word of polynomial letters over [0, 1].

    Letters must have part 'poly' or 'mono'; each polynomial is expanded
    into monomials and the simplex integral is summed over the grid of
    monomial choices, with each letter's exponent form shifted by the
    monomial exponent.
    """
    choices: list[list[tuple[Fraction, AffineForm]]] = []
    for letter in word:
        if letter.part == "mono":
            opts = [(letter.coeff, letter.exponent)]
        elif letter.part == "poly":
            opts = [
                (c, letter.exponent.shift(e)) for (c, e) in letter.theta.poly_part
            ]
        else:
            raise ValueError(f"tangent integral over non-polynomial letter {letter}")
        if not opts:
            return RationalCombination.zero()
        choices.append(opts)

    terms: list[tuple[Fraction, tuple[AffineForm, ...]]] = []
    stack: list[tuple[int, Fraction, list[AffineForm]]] = [(0, Fraction(1), [])]
    while stack:
        depth, coeff, forms = stack.pop()
        if depth == len(choices):
            terms.extend(simplex_monomial(forms).scale(coeff).terms)
            continue
        for c, f in choices[depth]:
            stack.append((depth + 1, coeff * c, forms + [f]))
    return RationalCombination(tuple(terms)).merged()
