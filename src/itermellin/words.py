"""Words of one-form letters, the shuffle product, and regularization.

A letter stands for the one-form theta_part(t) * t^(e-1) dt where e is an
affine form in the slot variables; words are tuples of letters and formal
sums of words carry integer coefficients.  Regularization rewrites a word of
full letters into a sum of words whose rightmost letter is a tail letter,
plus the polynomial bookkeeping that the tangent-space integrals consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .ratfun import AffineForm
from .theta import ThetaFunction

PARTS = ("full", "tail", "poly", "mono")


@dataclass(frozen=True)
class Letter:
    """One-form letter: a theta reference, a part selector, and an exponent.

    part 'mono' denotes the constant function coeff (monomial factors are
    folded into the exponent form); it appears only in internal expansions.
    """

    theta: ThetaFunction
    part: str
    exponent: AffineForm
    coeff: Fraction = field(default=Fraction(1))

    def __post_init__(self):
        if self.part not in PARTS:
            raise ValueError(f"unknown part {self.part!r}")

    def __hash__(self) -> int:
        # words are dict keys throughout compilation; see AffineForm.__hash__
        try:
            return self._hash
        except AttributeError:
            h = hash((self.theta, self.part, self.exponent, self.coeff))
            object.__setattr__(self, "_hash", h)
            return h

    def with_part(self, part: str) -> "Letter":
        return Letter(self.theta, part, self.exponent)

    def shifted(self, delta) -> "Letter":
        return Letter(self.theta, self.part, self.exponent.shift(delta), self.coeff)

    def label(self) -> str:
        tag = {"full": "F", "tail": "T", "poly": "P", "mono": "M"}[self.part]
        return f"{tag}[{self.theta.name};{self.exponent}]"


Word = tuple[Letter, ...]


class WordSum:
    """Formal integer combination of words, canonically merged."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        self.terms: dict[Word, int] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = self.terms.get(w, 0) + c
            self.terms = {w: c for w, c in self.terms.items() if c}

    @staticmethod
    def zero() -> "WordSum":
        return WordSum()

    @staticmethod
    def single(word: Word, coeff: int = 1) -> "WordSum":
        return WordSum({tuple(word): coeff})

    def __add__(self, other: "WordSum") -> "WordSum":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return WordSum(out)

    def __sub__(self, other: "WordSum") -> "WordSum":
        return self + other.scale(-1)

    def scale(self, c: int) -> "WordSum":
        return WordSum({w: c * k for w, k in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, WordSum) and self.terms == other.terms

    def __iter__(self) -> Iterator[tuple[Word, int]]:
        return iter(sorted(self.terms.items(), key=lambda kv: _word_key(kv[0])))

    def __len__(self) -> int:
        return len(self.terms)

    def total_terms(self) -> int:
        return sum(abs(c) for c in self.terms.values())

    def map_words(self, fn) -> "WordSum":
        out = WordSum()
        for w, c in self.terms.items():
            out = out + fn(w).scale(c)
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self:
            body = ".".join(l.label() for l in w) or "1"
            sign = "-" if c < 0 else ("+" if bits else "")
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            bits.append(f"{sign}{mag}{body}")
        return " ".join(bits)


def _word_key(word: Word):
    return tuple((l.theta.name, l.part, str(l.exponent)) for l in word)


def shuffle(u: Word, v: Word) -> WordSum:
    """Sum over all interleavings of u and v preserving internal orders."""
    u, v = tuple(u), tuple(v)
    if not u:
        return WordSum.single(v)
    if not v:
        return WordSum.single(u)
    left = shuffle(u[1:], v).map_words(lambda w: WordSum.single((u[0],) + w))
    right = shuffle(u, v[1:]).map_words(lambda w: WordSum.single((v[0],) + w))
    return left + right


def regularize(word: Word) -> WordSum:
    """Regularization of a word of full letters.

    Recursively: reg(L1..Ln) = L1 . reg(L2..Ln) - Ln_poly . reg(L1..L(n-1)),
    with reg(L) = L_tail and reg of the empty word the empty word.  Every
    output word ends in a tail letter; non-final letters are full or poly.
    """
    word = tuple(word)
    if any(l.part != "full" for l in word):
        raise ValueError("regularize expects full letters")
    return _regularize(word)


def _regularize(word: Word) -> WordSum:
    if not word:
        return WordSum.single(())
    if len(word) == 1:
        return WordSum.single((word[0].with_part("tail"),))
    head, last = word[0], word[-1]
    left = _regularize(word[1:]).map_words(lambda w: WordSum.single((head,) + w))
    right = _regularize(word[:-1]).map_words(
        lambda w: WordSum.single((last.with_part("poly"),) + w)
    )
    return left - right


def regularize_closed(word: Word) -> WordSum:
    """Closed shuffle form of the regularization, for cross-checking.

    Sum over i of (-1)^(r-i) ((L1..L(i-1)) sh (Lr_poly..L(i+1)_poly)) . Li_tail.
    """
    word = tuple(word)
    if not word:
        return WordSum.single(())
    total = WordSum.zero()
    r = len(word)
    for i in range(1, r + 1):
        prefix = word[: i - 1]
        suffix = tuple(l.with_part("poly") for l in reversed(word[i:]))
        tailed = word[i - 1].with_part("tail")
        block = shuffle(prefix, suffix).map_words(
            lambda w: WordSum.single(w + (tailed,))
        )
        total = total + block.scale((-1) ** (r - i))
    return total


def expand_full(ws: WordSum) -> WordSum:
    """Replace every full letter by its poly + tail decomposition."""

    def expand_word(word: Word) -> WordSum:
        out = WordSum.single(())
        for letter in word:
            if letter.part == "full":
                branch = WordSum.single((letter.with_part("poly"),)) + WordSum.single(
                    (letter.with_part("tail"),)
                )
            else:
                branch = WordSum.single((letter,))
            acc = WordSum()
            for w, c in out.terms.items():
                for b, cb in branch.terms.items():
                    acc = acc + WordSum.single(w + b, c * cb)
            out = acc
        return out

    return ws.map_words(expand_word)


def reverse_dualize(word: Word) -> Word:
    """Reverse the word, dualize each theta, and reflect exponents e -> w - e."""
    out = []
    for letter in reversed(word):
        w = letter.theta.weight
        nslots = letter.exponent.nslots
        reflected = AffineForm.constant(w, nslots) - letter.exponent
        out.append(Letter(letter.theta.dual, letter.part, reflected, letter.coeff))
    return tuple(out)
