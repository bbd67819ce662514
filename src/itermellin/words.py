"""Words of one-form letters, the shuffle product, and regularization.

A letter stands for the one-form theta_part(t) * t^(e-1) dt where e is an
affine form in the slot variables; words are tuples of letters, and a formal
sum of words is a plain dict from each word to its nonzero integer
coefficient, in the order the words first arise.  Regularization rewrites a
word of full letters into a sum of words whose rightmost letter is a tail
letter, plus the polynomial bookkeeping that the tangent-space integrals
consume.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .ratfun import AffineForm
from .theta import ThetaFunction


class Letter(NamedTuple):
    """One-form letter: a theta reference, a part selector ('full', 'tail',
    'poly' or 'mono'), and an exponent.

    part 'mono' denotes the constant function coeff (monomial factors are
    folded into the exponent form); it appears only in internal expansions.
    A tuple, so equal letters, and words of them, compare and hash alike.
    """

    theta: ThetaFunction
    part: str
    exponent: AffineForm
    coeff: int | Fraction = 1

    def with_part(self, part: str) -> "Letter":
        return Letter(self.theta, part, self.exponent)

    def label(self) -> str:
        tag = {"full": "F", "tail": "T", "poly": "P", "mono": "M"}[self.part]
        return f"{tag}[{self.theta.name};{self.exponent}]"


Word = tuple[Letter, ...]


@lru_cache(maxsize=None)
def _interleavings(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Index patterns into u + v of every interleaving of |u| = p, |v| = q.

    Ordered by the positions of u's letters, lexicographically: the
    interleavings that take u's next letter first come first.
    """
    out = []
    for upos in combinations(range(p + q), p):
        ui, vi = iter(range(p)), iter(range(p, p + q))
        out.append(tuple(next(ui) if k in upos else next(vi) for k in range(p + q)))
    return tuple(out)


def shuffle(u: Word, v: Word) -> dict[Word, int]:
    """Sum over all interleavings of u and v preserving internal orders.

    Words arising from several interleavings (repeated letters) merge at
    their first position.
    """
    uv = tuple(u) + tuple(v)
    out: dict[Word, int] = {}
    for pattern in _interleavings(len(u), len(uv) - len(u)):
        word = tuple(map(uv.__getitem__, pattern))
        out[word] = out.get(word, 0) + 1
    return out


def regularize(word: Word) -> dict[Word, int]:
    """Regularization of a word of full letters (see regularize_subwords)."""
    word = tuple(word)
    return dict(regularize_subwords(word)[len(word)][0])


def regularize_subwords(word: Word) -> list[list[list[tuple[Word, int]]]]:
    """reg of every contiguous subword: out[n][i] lists the (word,
    coefficient) pairs of reg(word[i : i + n]).

    reg(L1..Ln) = L1 . reg(L2..Ln) - Ln_poly . reg(L1..L(n-1)), with
    reg(L) = L_tail and reg of the empty word the empty word.  Every
    output word ends in a tail letter; non-final letters are full or poly.
    The two halves start with a full and a poly letter, so no words merge;
    each subword is regularized once, shortest first, and each output word
    is one tuple object wherever it is read.
    """
    if any(l.part != "full" for l in word):
        raise ValueError("regularize expects full letters")
    poly = [l.with_part("poly") for l in word]
    out = [[[((), 1)]] * (len(word) + 1), [[((l.with_part("tail"),), 1)] for l in word]]
    for n in range(2, len(word) + 1):
        out.append([
            [((word[i],) + w, c) for w, c in out[-1][i + 1]]
            + [((poly[i + n - 1],) + w, -c) for w, c in out[-1][i]]
            for i in range(len(word) - n + 1)
        ])
    return out
