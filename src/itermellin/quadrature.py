"""Iterated integrals of words over [1, infinity) by panel quadrature.

The mesh is a sequence of geometrically growing panels, each carrying
Gauss-Legendre nodes; inner cumulative integrals are formed at the nodes
with the spectral integration matrix of the node set, so a word of length k
costs O(k * panels * order^2).  The truncation horizon is certified from
the letters' growth envelopes (ThetaFunction.growth) and the final tail
letter's decay; the reported error estimate is the difference against one
mesh refinement and is never silently consumed.

Theta values at mesh nodes are independent of the slot variables, so they
are cached on the (interned) mesh, for as long as their theta lives, and
shared across words and evaluation points, as are the logarithms of the
nodes.  Word integrals run over batches of points (integrate_words) of a
fixed set of words, whose letter table (_Letters), built once, numbers
their letter exponents as columns and their letters by kind, and holds
every point-free constant of their truncation horizons.  The horizons at
all points come from one array pass (word_horizons), then the words run
mesh by mesh, a mesh being a truncation horizon at one refinement level,
with the refinement state of every (word, point) pair on it held in
arrays.  On one mesh (integrate_word_on_mesh) each letter exponent's node powers are
formed once, as exp(e * log t) from the cached logarithms
(PanelMesh.powers), and the words' distinct prefixes form a trie
(_Prefixes) that is integrated one prefix length at a time: all prefixes
of one length are one stacked (prefixes, points, nodes) array, formed by a
gather of their letters' node powers, one multiply by the letters' node
values and one by a gather of their parents' inner integrals, then
integrated by one PanelMesh.integral for the words that end there and one
PanelMesh.cumulative for the prefixes that go on, in blocks of at most
BLOCK_BUDGET entries.  The integration matrix acts on the real and
imaginary parts of the panels as real matrix products.  Each of these
equals the plain expression bit for bit (nodes ** e, the complex matrix
product, a word integrated alone at one point, the one-word horizon), so
every word keeps, at every point, its own horizon, refinement depth and
error estimate, bit for bit as in a one-word, one-point call.  A batch
fails if any of its jobs fails, and raises the first failure met, where it
is met, without integrating further meshes.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .theta import TruncationError
from .words import Word

REF_TOL = 1e-15  # theta accuracy at mesh nodes; below every engine tolerance
MAX_HORIZON = 2.0**24


class QuadratureError(Exception):
    """Quadrature tolerance not met, or no usable truncation horizon."""


MAX_ORDER = 256  # the largest quad_order: the integration matrix holds order^2 floats
HORIZON_SAFETY = 0.1  # share of abs_tol left to the certified truncation bound


@dataclass
class EvalParams:
    """Evaluation controls shared across the engine, checked (ValueError)
    at construction.

    abs_tol: absolute tolerance target per integral, finite and > 0 (a
    truncation horizon is cut at abs_tol * HORIZON_SAFETY); max_terms: cap
    on tail stream groups, >= 1; quad_order: Gauss nodes per panel, 4 to
    MAX_ORDER; max_refine: mesh refinement limit, >= 1, as an error
    estimate takes one refinement.
    """

    abs_tol: float = 1e-10
    max_terms: int = 4000
    quad_order: int = 32
    max_refine: int = 8

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:  # nan fails too
            raise ValueError("abs_tol must be finite and positive")
        for name in ("max_refine", "max_terms"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 4 <= self.quad_order <= MAX_ORDER:
            raise ValueError(f"quad_order must be between 4 and {MAX_ORDER}")


@lru_cache(maxsize=None)
def _gl_data(order: int):
    x, w = leggauss(order)
    v = legvander(x, order - 1)
    pext = legvander(x, order)
    integrals = np.empty((order, order))
    integrals[:, 0] = x + 1.0
    for k in range(1, order):
        integrals[:, k] = (pext[:, k + 1] - pext[:, k - 1]) / (2 * k + 1)
    s_matrix = np.linalg.solve(v.T, integrals.T).T
    return x, w, s_matrix


class PanelMesh:
    """Interned panel mesh with a node value cache per live theta."""

    def __init__(self, edges: tuple[float, ...], order: int):
        if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("mesh edges must be strictly increasing")
        self.edges = edges
        self.order = order
        x, w, s_matrix = _gl_data(order)
        self.gl_weights = w
        self.int_matrix = s_matrix
        self._lows = np.array(edges[:-1])
        self._widths = np.array(edges[1:]) - self._lows
        self._scaled_gl = 0.5 * (x[None, :] + 1.0)
        self.half_widths = self._widths / 2.0
        # the real part of the complex logarithm, as numpy's complex power
        # takes it; the real np.log differs from it in the last bit at some
        # nodes.  Copied out, so the complex array is not kept.
        logs = self.nodes.astype(complex)
        np.log(logs, out=logs)
        self.log_nodes = logs.real.copy()
        # theta -> {(part, max_terms): node values}; weak, so a theta dropped
        # everywhere else takes its node values with it
        self._values: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    @property
    def nodes(self) -> np.ndarray:
        """The Gauss nodes of every panel, in order.  Formed from the edges
        on each use (theta values on a cache miss, integer powers), so that
        an interned mesh keeps only their logarithms."""
        return (self._scaled_gl * self._widths[:, None] + self._lows[:, None]).ravel()

    def refined(self) -> "PanelMesh":
        out = [self.edges[0]]
        for a, b in zip(self.edges, self.edges[1:]):
            out.append(0.5 * (a + b))
            out.append(b)
        return mesh(tuple(out), self.order)

    def theta_values(self, theta, part: str, max_terms: int) -> np.ndarray:
        key = part, max_terms  # a smaller max_terms may fail where a larger one did not
        vals = self._values.get(theta, {}).get(key)
        if vals is None:
            with self._lock:
                parts = self._values.setdefault(theta, {})
                vals = parts.get(key)
                if vals is None:
                    vals = parts[key] = theta.eval_array(self.nodes, part, REF_TOL, max_terms)
        return vals

    def powers(self, e: np.ndarray, exact: np.ndarray | None) -> np.ndarray:
        """Node powers t^e, one row per entry of e, bit for bit as
        nodes ** e[:, None] when exact is repeated_products(e), or None
        where that has no entry set.

        numpy raises to every other exponent as exp(e * log t), formed here
        from the cached logarithms, which saves the logarithm of every node
        for every exponent; the rows exact marks take nodes ** e.
        """
        out = e[:, None] * self.log_nodes
        np.exp(out, out=out)
        if exact is not None:
            out[exact] = self.nodes ** e[exact, None]
        return out

    def _panel_integrals(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        segs = f.reshape(*f.shape[:-1], -1, self.order)
        return segs, (segs @ self.gl_weights) * self.half_widths

    def integral(self, f: np.ndarray) -> np.ndarray:
        """Integral of the interpolant of f over the mesh, along the last
        axis; leading axes (one per evaluation point) are carried through."""
        # cumsum, not sum: panels add up one by one, as in cumulative
        return np.cumsum(self._panel_integrals(f)[1], axis=-1)[..., -1]

    def cumulative(self, f: np.ndarray) -> np.ndarray:
        """Node values of t -> int_{edges[0]}^t f for the interpolant of f,
        along the last axis like integral."""
        segs, panel_ints = self._panel_integrals(f)
        carries = np.zeros_like(panel_ints)
        np.cumsum(panel_ints[..., :-1], axis=-1, out=carries[..., 1:])
        # in place, operands in the order of
        # carries + half_widths * (segs @ int_matrix.T), which fixes the rounding;
        # the real matrix acts on the real and imaginary parts as one real
        # matmul per panel, bit for bit the complex product and faster
        inner = np.matmul(self.int_matrix, segs.view(float).reshape(-1, self.order, 2))
        inner = inner.view(complex).reshape(segs.shape)
        np.multiply(self.half_widths[:, None], inner, out=inner)
        np.add(carries[..., None], inner, out=inner)
        return inner.reshape(f.shape)


@lru_cache(maxsize=256)
def _mesh_cached(edges: tuple[float, ...], order: int) -> PanelMesh:
    return PanelMesh(edges, order)


def mesh(edges: tuple[float, ...], order: int) -> PanelMesh:
    return _mesh_cached(tuple(float(e) for e in edges), order)


def doubling_edges(start: float, stop: float) -> tuple[float, ...]:
    """Panel edges start, 2*start, 4*start, ... covering [start, stop]."""
    out = [start]
    e = start
    while e < stop:
        e *= 2.0
        out.append(e)
    return tuple(out)


# ---------------------------------------------------------------------------
# growth and decay envelopes
# ---------------------------------------------------------------------------


# array entries one block may hold: complex node values of one letter, or
# candidate horizons of words at points; larger batches of points are
# integrated in row blocks, and of words bounded in word blocks, so deep
# refinements and long expressions stay within memory
ROW_BUDGET = 1 << 17


# candidate truncation horizons 2, 4, ..., MAX_HORIZON and their logarithms
_HORIZONS = 2.0 ** np.arange(1, int(math.log2(MAX_HORIZON)) + 1)
_LOG_HORIZONS = np.array([math.log(t) for t in _HORIZONS])


def word_horizons(letters: _Letters, exps: np.ndarray,
                  params: EvalParams) -> tuple[np.ndarray, dict]:
    """Truncation horizons of the words of a table at many points, as
    (horizons, failures): horizons[k, i] is the smallest power-of-two
    horizon whose certified tail bound for word k at point i is below
    abs_tol * HORIZON_SAFETY, unless failures[k] holds the QuadratureError
    or TruncationError of word k.  A table's failures are shared across
    calls and threads, so each is raised as a fresh copy,
    type(exc)(*exc.args): raising the object would grow its traceback.
    exps[i, c] is exponent column c at point i.

    Blocks of bounded words read the table's constants through their
    prefix letters, padded with d = -inf, which adds exactly 0.0: every
    horizon comes out in the float operations, and their order, of a word
    on its own.
    """
    n = exps.shape[0]
    horizons = np.full((len(letters.words), n), 2.0)
    failures = dict(letters.failures)
    e_re = exps.real
    log_target = math.log(params.abs_tol * HORIZON_SAFETY)
    step = max(1, ROW_BUDGET // _HORIZONS.size // max(n, 1))
    for lo in range(0, letters.bounded.size, step):
        at = slice(lo, lo + step)
        block = letters.bounded[at]
        # the block's prefix letters, one row per letter position
        depth = letters.prefix_len[at].max()
        growth_exp = np.zeros((n, block.size))
        for pcol, pdeg in zip(letters.prefix_col[:depth, at], letters.prefix_deg[:depth, at]):
            growth_exp += np.maximum(e_re[:, pcol] - 1.0 + pdeg + 1.0, 0.0)
        mu1, p = letters.mu1[at], letters.p[at]
        alpha = growth_exp + e_re[:, letters.last_col[at]] - 1.0 + letters.last_deg[at]
        # every candidate horizon of every word at every point at once: axes
        # (point, word, horizon); each takes the smallest candidate that fits
        tp = _HORIZONS ** p[:, None]  # exact: powers of two below 2^53
        rate = (alpha + 1.0 - p)[:, :, None]
        log_bound = letters.log_head[at][:, None] + rate * _LOG_HORIZONS - mu1[:, None] * tp
        fits = ((mu1 * p)[:, None] * tp >= np.maximum(2.0 * rate, 1.0)) & (
            log_bound <= log_target
        )
        horizons[block] = _HORIZONS[fits.argmax(axis=2)].T
        for k in block[~fits.any(axis=2).all(axis=0)].tolist():
            failures[k] = QuadratureError("no horizon satisfies the truncation bound")
    return horizons, failures


def truncation_horizon(word: Word, s: Sequence[complex], params: EvalParams) -> float:
    """The truncation horizon of the word at one point s (see word_horizons)."""
    letters = _Letters((word,))
    horizons, failures = word_horizons(letters, letters.exponents_at(s), params)
    if failures:
        raise type(failures[0])(*failures[0].args)
    return float(horizons[0, 0])


# ---------------------------------------------------------------------------
# word integrals
# ---------------------------------------------------------------------------


def repeated_products(e: np.ndarray) -> np.ndarray:
    """Where numpy raises to the complex power e by repeated multiplication
    rather than as exp(e * log t): at the real integers n, |n| < 100."""
    return (e.imag == 0.0) & (np.abs(e.real) < 100.0) & (e.real == np.trunc(e.real))


def _exact_columns(exps: np.ndarray) -> np.ndarray | None:
    """Where node powers t^(e-1) of exponent column c at point i are
    repeated products, as a mask of exps' shape, or None where there are
    none; found once per batch, so that most calls pay nothing for it on
    each mesh."""
    if not (exps.imag == 0.0).any():
        return None
    mask = repeated_products(exps - 1.0)
    return mask if mask.any() else None


# array entries one stacked block of prefixes may hold: blocks this size
# stay in cache through the passes over them
BLOCK_BUDGET = 1 << 15


class _Letters:
    """The letter table of a fixed set of words, built once and shared by
    every call on them, across threads: it holds no per-call state.

    Column c is the distinct letter exponent exponents[c].  Letters are ids
    of pairs, pairs[k][j] being letter j of word k; the letters of one pair
    have one integrand at the nodes: kinds[pair_kind[q]] is (theta, part),
    or (None, coefficient) for a monomial letter, and pair_col[q] the
    column.  failures[k] is the error of word k at every point, if any;
    for the words bounded, whose last letter's decay bounds a horizon (the
    others keep 2), the constants of word_horizons are formed here.
    """

    def __init__(self, words: Sequence[Word]):
        self.words = tuple(words)
        by_id: dict = {}  # id(letter) -> pair: letters recur as objects
        by_value: dict = {}  # letter -> pair
        exponent_ids: dict = {}
        kind_ids: dict = {}
        self.pair_kind: list[int] = []
        self.pair_col: list[int] = []
        self.pairs: list[tuple[int, ...]] = []
        for word in self.words:
            path = []
            for letter in word:
                q = by_id.get(id(letter))
                if q is None:
                    q = by_value.get(letter)
                    if q is None:
                        q = by_value[letter] = len(self.pair_col)
                        key = ((None, float(letter.coeff)) if letter.part == "mono"
                               else (letter.theta, letter.part))
                        self.pair_kind.append(kind_ids.setdefault(key, len(kind_ids)))
                        self.pair_col.append(
                            exponent_ids.setdefault(letter.exponent, len(exponent_ids)))
                    by_id[id(letter)] = q
                path.append(q)
            self.pairs.append(tuple(path))
        self.exponents = tuple(exponent_ids)
        self.kinds = list(kind_ids)
        nk = len(self.kinds)
        # per kind, then the pad: log B and d of its growth bound B * t^d, and
        # for a tail whose decay K * t^d * exp(-mu1 * t^p) bounds the horizon,
        # log K, log(mu1 * p), mu1 and p; the others keep mu1 = 0 (horizon 2)
        log_b, deg, decay = np.zeros(nk + 1), np.full(nk + 1, -math.inf), np.zeros((4, nk + 1))
        errors: list = [None] * (nk + 1)  # per kind: the error of a word ending in it
        failed = {}  # kind -> the TruncationError of its growth bound
        for i, (theta, part) in enumerate(self.kinds):
            if part != "tail":
                errors[i] = QuadratureError("truncation horizon requires a final tail letter")
            try:
                b, deg[i] = (abs(part), 0.0) if theta is None else theta.growth(part)
            except TruncationError as exc:
                failed[i] = exc
                errors[i] = errors[i] or exc
                continue
            log_b[i] = math.log(max(b, 1e-300))
            if part == "tail":
                mu1, p = theta.tail.min_mu(), theta.kernel_power
                if math.isfinite(mu1) and b != 0.0:
                    decay[:, i] = math.log(b), math.log(mu1 * p), mu1, p
        pad, pairs = len(self.pair_kind), self.pairs
        kind, col = np.array([self.pair_kind + [nk], self.pair_col + [0]])
        last = np.array([path[-1] if path else pad for path in pairs], dtype=int)
        last_kind = kind[last]
        bounded = decay[2, last_kind] > 0.0
        self.failures = {k: errors[last_kind[k]] for k in np.flatnonzero(~bounded).tolist()
                         if errors[last_kind[k]] is not None}
        if failed:  # a word takes the error of its first prefix letter with one
            for k in np.flatnonzero(bounded).tolist():
                bad = [i for i in kind[list(pairs[k][:-1])].tolist() if i in failed]
                if bad:
                    self.failures[k], bounded[k] = failed[bad[0]], False
        # per bounded word: the columns and degrees of its prefix letters, one
        # row per letter position, padded past prefix_len, those of its last
        # letter, and log_head, mu1 and p of its tail bound
        ks = self.bounded = np.flatnonzero(bounded)
        rows = list(itertools.zip_longest(*(pairs[k][:-1] for k in ks.tolist()), fillvalue=pad))
        prefix = np.array(rows, dtype=int).reshape(len(rows), ks.size)
        self.prefix_len = np.array([len(pairs[k]) - 1 for k in ks.tolist()], dtype=int)
        self.prefix_col, self.prefix_deg = col[prefix], deg[kind[prefix]]
        log_prefac = np.zeros(ks.size)
        for pkind in kind[prefix]:
            log_prefac += log_b[pkind]
        lk = last_kind[ks]
        log_k, log_mu1p, self.mu1, self.p = decay[:, lk]
        self.log_head = math.log(2.0) + log_prefac + log_k - log_mu1p
        self.last_col, self.last_deg = col[last[ks]], deg[lk]

    def exponents_at(self, s: Sequence[complex]) -> np.ndarray:
        """The exponent columns at one point s, as a (1, columns) row."""
        return np.array([[complex(f(s)) for f in self.exponents]], dtype=complex)


class _Prefixes:
    """The prefix trie of the words ks of a table: their distinct prefixes
    (pair sequences), numbered by length, and within one length in the
    lexicographic order of their pairs, so that the children of each prefix
    are consecutive and in the order of their parents.

    Prefixes of length d + 1 are bounds[d] to bounds[d + 1] - 1.  Prefix p
    extends prefix parent[p] (-1 for the empty prefix) by a letter of kind
    kinds[kind[p]] and exponent column cols[cp[p]], and extended[p] is
    whether a longer prefix extends it.  The words (positions in ks) ending
    at the prefixes are end_job, ordered by their prefixes, end_pos.
    """

    def __init__(self, letters: _Letters, ks: np.ndarray):
        ks = ks.tolist()
        levels: list[dict] = []  # per length: (parent, pair) -> prefix, counted per length
        extended: list[list] = []
        ends = [0] * len(ks)
        for j in sorted(range(len(ks)), key=lambda j: letters.pairs[ks[j]]):
            p = -1
            for d, q in enumerate(letters.pairs[ks[j]]):
                if d == len(levels):
                    levels.append({})
                    extended.append([])
                level = levels[d]
                child = level.get((p, q))
                if child is None:
                    child = level[p, q] = len(level)
                    extended[d].append(False)
                    if d:
                        extended[d - 1][p] = True
                p = child
            ends[j] = (d, p)
        self.bounds = [0]
        parent, pairs = [], []
        for d, level in enumerate(levels):
            base = self.bounds[-2] if d else 0
            parent.extend(p + base if d else -1 for p, _ in level)
            pairs.extend(q for _, q in level)
            self.bounds.append(self.bounds[-1] + len(level))
        self.parent = np.array(parent)
        self.extended = np.array(list(itertools.chain.from_iterable(extended)))
        col_ids: dict = {}
        self.cp = np.array([col_ids.setdefault(letters.pair_col[q], len(col_ids)) for q in pairs])
        self.cols = np.array(list(col_ids))
        kind_ids: dict = {}
        self.kind = np.array([kind_ids.setdefault(letters.pair_kind[q], len(kind_ids)) for q in pairs])
        self.kinds = list(kind_ids)
        end_pos = [self.bounds[d] + p for d, p in ends]
        # whether each prefix ends one word at most (it does for distinct words)
        self.distinct_ends = len(set(end_pos)) == len(end_pos)
        end_pos = np.array(end_pos)
        self.end_job = end_pos.argsort(kind="stable")
        self.end_pos = end_pos[self.end_job]


def _node_values(letters: _Letters, ks: list, m: PanelMesh, params: EvalParams) -> dict:
    """The integrand factor of every letter kind of the words ks on mesh
    m, by kind: its node values, or a monomial's coefficient.  The kinds
    are evaluated in the order the words' letters first use them, and the
    TruncationError of the first whose node values fail propagates.
    """
    nodal: dict = {}
    # pairs, then kinds, in the order the words' letters first use them
    pairs = dict.fromkeys(itertools.chain.from_iterable(letters.pairs[k] for k in ks))
    for kind in dict.fromkeys(letters.pair_kind[q] for q in pairs):
        theta, part = letters.kinds[kind]
        nodal[kind] = part if theta is None else m.theta_values(theta, part, params.max_terms)
    return nodal


class _PrefixPass:
    """The prefixes of pre on mesh m at one block of points: the integral
    of each word goes to its row of out.

    powers[c] holds the node powers of column pre.cols[c] at the points,
    and nodal each letter kind's factor.  The prefixes of one length are
    integrated in stacked blocks of at most BLOCK_BUDGET entries, each
    followed at once by the blocks of the prefixes one letter longer that
    extend it, so that one block per length is live.
    """

    def __init__(self, m: PanelMesh, pre: _Prefixes, nodal: dict, powers: np.ndarray,
                 out: np.ndarray):
        self.m, self.pre, self.nodal, self.powers, self.out = m, pre, nodal, powers, out
        self.cap = max(1, BLOCK_BUDGET // (powers.shape[1] * powers.shape[2]))
        if self.cap > 1:
            # each kind's factor as a row, for the blocks of several prefixes
            self.table = np.empty((len(pre.kinds), powers.shape[2]), dtype=complex)
            for i, kind in enumerate(pre.kinds):
                self.table[i] = nodal[kind]
        self.run(0, 0, pre.bounds[1], None, None)

    def run(self, d: int, lo: int, hi: int, inner, inner_at) -> None:
        """Integrate the prefixes lo to hi - 1, of length d + 1, whose
        parents' inner integrals are inner, one row per parent, the
        prefixes inner_at; then the longer prefixes that extend them."""
        pre, m, powers, bounds = self.pre, self.m, self.powers, self.pre.bounds
        for a in range(lo, hi, self.cap):
            b = min(a + self.cap, hi)
            # the letters' integrands at the nodes, times the parents' inner
            # integrals; operands in the order of a prefix on its own
            if b - a == 1:
                f = np.multiply(self.nodal[pre.kinds[pre.kind[a]]], powers[pre.cp[a]])[None]
            else:
                f = powers[pre.cp[a:b]]
                np.multiply(self.table[pre.kind[a:b], None, :], f, out=f)
            if not d:
                np.multiply(f, 1.0, out=f)  # the empty prefix's, as for a word alone
            elif a == lo and b == hi == lo + inner_at.size:
                np.multiply(f, inner, out=f)  # one prefix per parent
            else:
                np.multiply(f, inner[inner_at.searchsorted(pre.parent[a:b])], out=f)
            i0, i1 = pre.end_pos.searchsorted((a, b))
            if i1 > i0:
                ends = f if i1 - i0 == b - a and pre.distinct_ends else f[pre.end_pos[i0:i1] - a]
                self.out[pre.end_job[i0:i1]] = m.integral(ends)
                del ends
            if d + 2 == len(bounds):
                continue
            # the longer prefixes extending this block are consecutive
            nxt = pre.parent[bounds[d + 1] : bounds[d + 2]]
            lo2 = bounds[d + 1] + nxt.searchsorted(a)
            hi2 = bounds[d + 1] + nxt.searchsorted(b)
            if hi2 > lo2:
                extended = pre.extended[a:b]
                if not extended.all():
                    f = f[extended]
                inner_next = m.cumulative(f)
                del f
                self.run(d + 1, lo2, hi2, inner_next, a + np.flatnonzero(extended))


def integrate_word_on_mesh(
    letters: _Letters,
    ks: np.ndarray,
    exps: np.ndarray,
    rows: np.ndarray,
    m: PanelMesh,
    params: EvalParams,
    exact: np.ndarray | None,
    pre: _Prefixes | None,
) -> np.ndarray:
    """Iterated integrals of the words ks of a table over one mesh (exact
    panels), at the points rows (ascending), one row per word and one
    column per point.

    Letter j of word k has the exponent exps[i, c] at point i, where c is
    its column letters.pair_col[letters.pairs[k][j]]; exact is
    _exact_columns(exps), and pre the _Prefixes of ks when there are
    several.  The TruncationError of the first letter kind whose node
    values fail propagates (see _node_values).

    The prefixes run length by length: each exponent column's node powers
    t^(e-1) are formed once, over all of rows, and the prefixes of one
    length are integrated together, as one stacked (prefixes, points,
    nodes) array, at all of rows, whether or not every word they lead to
    needs every point.  Every entry is formed by the operations, in the
    order, of one word integrated at one point on its own, so it equals
    that bit for bit.
    """
    nodal = _node_values(letters, ks.tolist(), m, params)
    values = np.empty((ks.size, rows.size), dtype=complex)
    step = max(1, ROW_BUDGET // m.log_nodes.size)
    for lo in range(0, rows.size, step):
        block = rows[lo : lo + step]
        if ks.size == 1:
            # one word: its letters in turn, without a prefix trie
            _integrate_word(m, letters, int(ks[0]), nodal, exps, block, exact, values[:, lo : lo + step])
            continue
        at = pre.cols[:, None], block
        e = exps.T[at] - 1.0
        mask = None if exact is None else exact.T[at]
        if mask is not None and not mask.any():
            mask = None
        powers = m.powers(e.ravel(), None if mask is None else mask.ravel())
        _PrefixPass(m, pre, nodal, powers.reshape(e.shape + (-1,)), values[:, lo : lo + step])
    return values


def _integrate_word(m: PanelMesh, letters: _Letters, k: int, nodal: dict, exps: np.ndarray,
                    rows: np.ndarray, exact: np.ndarray | None, out: np.ndarray) -> None:
    """Integrate word k of a table alone on mesh m at the points rows, into
    out[0]: the pass of _PrefixPass for a chain of one prefix per length."""
    f = 1.0
    for j, q in enumerate(letters.pairs[k]):
        if j:
            f = m.cumulative(f)
        c = letters.pair_col[q]
        mask = None if exact is None else exact[rows, c]
        power = m.powers(exps[rows, c] - 1.0, mask if mask is not None and mask.any() else None)
        power = np.multiply(nodal[letters.pair_kind[q]], power, out=power)
        f = np.multiply(power, f, out=power)
    out[0] = m.integral(f)


def integrate_words(
    letters: _Letters,
    exps: np.ndarray,
    params: EvalParams,
    edges: tuple[float, ...] | None = None,
    slack: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterated integrals of many words at many points, refined to tolerance.

    exps[i, c] is exponent column c of the table letters at point i;
    returns values and error estimates of shape (points, words).  Without
    edges every word runs over [1, inf), cut at its truncation horizon at
    each point, and the certified truncation bound abs_tol * HORIZON_SAFETY
    is its slack; with edges every word runs over that mesh with the given
    slack.  Each (word, mesh) job is refined
    until each point's estimate |v1 - v0| + slack meets abs_tol; a point
    leaves at the first level where its own estimate does.

    Jobs run mesh by mesh, by horizon and then refinement level, so that all
    words on one mesh share their node powers and prefixes
    (integrate_word_on_mesh).  The call fails if any job fails, with the
    first failure met: the horizon failure of the lowest-index word that
    has one, else the TruncationError of the first node values that fail,
    else, on the first mesh whose refinement runs out, the QuadratureError
    of its lowest-index word still unresolved.
    """
    n, words = exps.shape[0], letters.words
    # one row per word, returned transposed
    values = np.ones((len(words), n), dtype=complex)
    errs = np.zeros((len(words), n))
    # mesh edges -> (words, (words, points) mask of the points they run at)
    meshes: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}
    ks = np.array([k for k, word in enumerate(words) if word], dtype=int)
    if ks.size and edges is not None:
        meshes[edges] = ks, np.ones((ks.size, n), dtype=bool)
    elif ks.size:
        slack = params.abs_tol * HORIZON_SAFETY
        horizons, failures = word_horizons(letters, exps, params)
        if failures:
            exc = failures[min(failures)]
            raise type(exc)(*exc.args)
        horizons = horizons[ks]
        for t_max in sorted(set(horizons.ravel().tolist())):
            at = horizons == t_max
            some = at.any(axis=1)
            meshes[doubling_edges(1.0, t_max)] = ks[some], at[some]
    exact = _exact_columns(exps)
    for key in sorted(meshes):
        # the jobs' words, the points some job still runs at, and whether
        # each job runs at each of them
        ks, member = meshes[key]
        rows = np.flatnonzero(member.any(axis=0))
        if rows.size < n:
            member = member[:, rows]
        m = mesh(key, params.quad_order)
        # the words' prefixes, formed again only when words leave the mesh
        pre = _Prefixes(letters, ks) if ks.size > 1 else None
        v0 = None  # the last level's values
        for level in range(params.max_refine + 1):
            if level:
                m = m.refined()
            v1 = integrate_word_on_mesh(letters, ks, exps, rows, m, params, exact, pre)
            if level:
                est = np.abs(v1 - v0)
                est += slack
                done = est <= params.abs_tol
                done &= member
                jj, ii = done.nonzero()
                at = ks[jj], rows[ii]
                values[at] = v1[jj, ii]
                errs[at] = est[jj, ii]
                member &= ~done
                if not member.any():
                    break
                left = member.any(axis=1)
                if not left.all():
                    ks, member, est, v1 = (a[left] for a in (ks, member, est, v1))
                    pre = _Prefixes(letters, ks) if ks.size > 1 else None
                left = member.any(axis=0)
                if not left.all():
                    rows = rows[left]
                    member, est, v1 = (a[:, left] for a in (member, est, v1))
            v0 = v1
        else:
            raise QuadratureError(
                f"estimate {est[0][member[0]][0]:.3e} above {params.abs_tol:.1e} after "
                f"{params.max_refine} refinements"
            )
    return values.T, errs.T


def tail_word_integral(
    word: Word, s: Sequence[complex], params: EvalParams | None = None
) -> tuple[complex, float]:
    """Iterated integral over [1, inf) of a word ending in a tail letter.

    Returns (value, error estimate); the estimate combines one-refinement
    agreement with the certified truncation slack.
    """
    letters = _Letters((word,))
    values, errs = integrate_words(letters, letters.exponents_at(s), params or EvalParams())
    return complex(values[0, 0]), float(errs[0, 0])


def word_integral_on_interval(
    word: Word,
    s: Sequence[complex],
    edges: tuple[float, ...],
    params: EvalParams | None = None,
    slack: float = 0.0,
) -> tuple[complex, float]:
    """Iterated integral over a finite mesh, refined to tolerance."""
    letters = _Letters((word,))
    values, errs = integrate_words(
        letters, letters.exponents_at(s), params or EvalParams(), edges, slack
    )
    return complex(values[0, 0]), float(errs[0, 0])
