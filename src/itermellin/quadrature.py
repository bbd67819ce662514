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
arrays.  Every set of words, one word included, takes the same pass on a
mesh (integrate_word_on_mesh): each letter exponent's node powers are
formed once per distinct value among the pass's points by
PanelMesh.powers, the one owner of numpy's nodes ** e rule, each letter
kind's node values are one row of a complex table, and the words'
distinct prefixes form a trie (_Prefixes) that is integrated one prefix
length at a time.  The first letters are integrated once per distinct
value of their exponent, and maps built once per mesh, word set and
points (_ValueMaps) take their integrals back to the points.  All longer
prefixes of one length are one stacked (prefixes, points, nodes) array,
formed by a gather of their letters' node powers, one multiply by a
gather of the table's rows and one by a gather of their parents' inner
integrals, then integrated by one PanelMesh.integral for the words that
end there and one PanelMesh.cumulative for the prefixes that go on, in
blocks of at most BLOCK_BUDGET entries.  The integration matrix acts on
the real and imaginary parts of the panels as real matrix products.  Each
of these equals the plain expression bit for bit (nodes ** e, the complex
matrix product, a word integrated alone at one point, the one-word
horizon), so every word keeps, at every point, its own horizon,
refinement depth and error estimate, bit for bit as in a one-word,
one-point call.  A batch fails if any of its jobs fails, and raises the
first failure met (word_horizons' before any mesh), where it is met,
without integrating further meshes; only a job whose refinement stalls
or runs out may instead be handed back to the caller (`unresolved`).
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
from numpy.polynomial.legendre import legvander

from .theta import TruncationError, gauss_legendre
from .words import Word

REF_TOL = 1e-15  # theta accuracy at mesh nodes; below every engine tolerance
MAX_HORIZON = 2.0**24


class QuadratureError(Exception):
    """Quadrature tolerance not met, or no usable truncation horizon."""


MAX_ORDER = 256  # the largest quad_order: the integration matrix holds order^2 floats
MAX_REFINE = 12  # the largest max_refine: each level doubles every mesh
HORIZON_SAFETY = 0.1  # share of abs_tol left to the certified truncation bound
# A job stalls, and leaves refinement before max_refine, when its estimate
# is above STALL_FLOOR * abs_tol and has not fallen by STALL_SHRINK over
# two levels: it sits at its roundoff floor, where more nodes do not help.
# An estimate within STALL_ROUNDING * |value| (a few units of the value's
# rounding) never stalls: two levels can still round to the same double
# and so meet abs_tol.
STALL_FLOOR = 100.0
STALL_SHRINK = 4.0
STALL_ROUNDING = 4.0 * np.finfo(float).eps


@dataclass
class EvalParams:
    """Evaluation controls shared across the engine, checked (ValueError)
    at construction.

    abs_tol: absolute tolerance target per integral, finite and > 0 (a
    truncation horizon is cut at abs_tol * HORIZON_SAFETY); quad_order:
    Gauss nodes per panel, 4 to MAX_ORDER; max_refine: mesh refinement
    limit, 1 to MAX_REFINE, as an error estimate takes one refinement; a
    job whose estimate stalls far above abs_tol and above its value's
    rounding (STALL_FLOOR, STALL_SHRINK, STALL_ROUNDING) stops before it.
    None of them reaches theta node values, which meshes key by (theta,
    part) alone.
    """

    abs_tol: float = 1e-10
    quad_order: int = 32
    max_refine: int = 8

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:  # nan fails too
            raise ValueError("abs_tol must be finite and positive")
        if self.max_refine < 1:
            raise ValueError("max_refine must be at least 1")
        if self.max_refine > MAX_REFINE:
            raise ValueError(f"max_refine must be at most {MAX_REFINE}")
        if not 4 <= self.quad_order <= MAX_ORDER:
            raise ValueError(f"quad_order must be between 4 and {MAX_ORDER}")


@lru_cache(maxsize=None)
def _gl_data(order: int):
    x, w = gauss_legendre(order)
    v = legvander(x, order - 1)
    pext = legvander(x, order)
    integrals = np.empty((order, order))
    integrals[:, 0] = x + 1.0
    for k in range(1, order):
        integrals[:, k] = (pext[:, k + 1] - pext[:, k - 1]) / (2 * k + 1)
    s_matrix = np.linalg.solve(v.T, integrals.T).T
    return x, w, s_matrix


class PanelMesh:
    """Interned panel mesh with a node value cache per live theta, keyed
    by (theta, part)."""

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
        # theta -> {part: node values}; weak, so a theta dropped everywhere
        # else takes its node values with it
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

    def theta_values(self, theta, part: str) -> np.ndarray:
        vals = self._values.get(theta, {}).get(part)
        if vals is None:
            with self._lock:
                parts = self._values.setdefault(theta, {})
                vals = parts.get(part)
                if vals is None:
                    vals = parts[part] = theta.eval_array(self.nodes, part, REF_TOL)
        return vals

    def powers(self, e: np.ndarray) -> np.ndarray:
        """Node powers t^e, one row per entry of e, bit for bit as
        nodes ** e[:, None]: numpy raises to most exponents as
        exp(e * log t), formed here from the cached logarithms, which saves
        the logarithm of every node for every exponent, and nodes ** e is
        formed only for the rows, all real, that repeated_products(e) marks.
        """
        out = e[:, None] * self.log_nodes
        np.exp(out, out=out)
        if (e.imag == 0.0).any():
            exact = repeated_products(e)
            if exact.any():
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


# a huge exponent overflows a bound to inf (or inf - inf to nan), which no
# candidate horizon fits: the word fails by name, not with numpy's warning
@np.errstate(over="ignore", invalid="ignore")
def word_horizons(letters: _Letters, exps: np.ndarray, params: EvalParams) -> np.ndarray:
    """Truncation horizons of the words of a table at many points:
    horizons[k, i] is the smallest power-of-two horizon whose certified
    tail bound for word k at point i is below abs_tol * HORIZON_SAFETY.
    exps[i, c] is exponent column c at point i.  The one raise site of
    horizon failures: the QuadratureError or TruncationError of the
    lowest-index word that fails (letters.failures, or no horizon fits at
    some point).  Table failures are shared across calls and threads, so
    it raises a fresh copy, type(exc)(*exc.args): raising the object
    would grow its traceback.

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
    if failures:
        exc = failures[min(failures)]
        raise type(exc)(*exc.args)
    return horizons


def truncation_horizon(word: Word, s: Sequence[complex], params: EvalParams) -> float:
    """The truncation horizon of the word at one point s (see word_horizons)."""
    letters = _Letters((word,))
    return float(word_horizons(letters, letters.exponents_at(s), params)[0, 0])


# ---------------------------------------------------------------------------
# word integrals
# ---------------------------------------------------------------------------


def repeated_products(e: np.ndarray) -> np.ndarray:
    """Where numpy raises to the complex power e by repeated multiplication
    rather than as exp(e * log t): at the real integers n, |n| < 100."""
    return (e.imag == 0.0) & (np.abs(e.real) < 100.0) & (e.real == np.trunc(e.real))


# array entries one stacked block of prefixes may hold: blocks this size
# stay in cache through the passes over them
BLOCK_BUDGET = 1 << 15


class _Letters:
    """The letter table of a fixed set of words, built once and shared by
    every call on them, across threads: it holds no per-call state.

    Column c is the distinct letter exponent exponents[c].  Letters are ids
    of pairs, pairs[k][j] being letter j of word k; the letters of one pair
    have one integrand at the nodes: kinds[pair_kind[q]] is (theta, part),
    or (None, 1.0) for a monomial letter, and pair_col[q] the
    column.  failures[k] is the error of word k at every point, if any;
    for the words bounded, whose last letter's decay bounds a horizon (the
    others keep 2), the constants of word_horizons are formed here.  The
    words are distinct (ValueError otherwise), so no two words end at one
    prefix of a _Prefixes trie.
    """

    def __init__(self, words: Sequence[Word]):
        self.words = tuple(words)
        self.pairs, self.pair_kind, self.pair_col, self.kinds, self.exponents = _letter_table(
            self.words)
        if len(set(self.pairs)) < len(self.pairs):
            raise ValueError("a letter table takes distinct words")
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


def _number(items) -> tuple[list[int], list]:
    """The id of each item, equal items numbered once, in order of first
    use, and the distinct items."""
    ids, first, distinct = [], {}, []
    for x in items:
        i = first.setdefault(x, len(distinct))
        if i == len(distinct):
            distinct.append(x)
        ids.append(i)
    return ids, distinct


def _letter_table(words: Sequence[Word]) -> tuple:
    """(pairs, pair_kind, pair_col, kinds, exponents) of _Letters, numbered
    in the order the words first use them."""
    ids, letters = _number(l for word in words for l in word)
    pair_col, exponents = _number(l.exponent for l in letters)
    pair_kind, kinds = _number([(None, 1.0) if l.part == "mono" else (l.theta, l.part)
                                for l in letters])
    ends = list(itertools.accumulate(map(len, words)))
    pairs = [tuple(ids[a:b]) for a, b in zip([0] + ends, ends)]
    return pairs, pair_kind, pair_col, kinds, tuple(exponents)


class _Prefixes:
    """The prefix trie of the words ks of a table: their distinct prefixes
    (pair sequences), numbered by length, and within one length in the
    lexicographic order of their pairs, so that the children of each prefix
    are consecutive and in the order of their parents.

    Prefixes of length d + 1 are bounds[d] to bounds[d + 1] - 1.  Prefix p
    extends prefix parent[p] (-1 for the empty prefix) by a letter of kind
    kinds[kind[p]] and exponent column cols[cp[p]], and extended[p] is
    whether a longer prefix extends it.  The kinds are numbered in the
    order the words' letters first use them.  The words (positions in ks)
    ending at the prefixes are end_job, ordered by their prefixes, end_pos;
    a prefix ends one word at most, as the table's words are distinct.

    Counts before each prefix p, as lookups for a block of prefixes a to
    b - 1: ext_before[p] extended prefixes (the rank of an extended p),
    first_child[p] prefixes of any length whose parent precedes p (parent
    ascends across lengths, so the prefixes extending the block are
    first_child[a] to first_child[b] - 1), and ends_before[p] words.

    ends and ext are the (rows, off, where) maps of _PrefixPass.finish
    that pick the prefixes ending the words end_job and the extended
    prefixes, in order, from one row per prefix.
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
        self.kinds = list(dict.fromkeys(
            letters.pair_kind[q] for k in ks for q in letters.pairs[k]))
        kind_ids = {kind: i for i, kind in enumerate(self.kinds)}
        self.kind = np.array([kind_ids[letters.pair_kind[q]] for q in pairs])
        end_pos = np.array([self.bounds[d] + p for d, p in ends])
        self.end_job = end_pos.argsort(kind="stable")
        self.end_pos = end_pos[self.end_job]
        self.ext_before = np.concatenate(([0], np.cumsum(self.extended)))
        self.ends = self.end_pos, range(self.end_pos.size + 1), None
        self.ext = np.flatnonzero(self.extended), range(self.ext_before[-1] + 1), None
        every = np.arange(self.parent.size + 1)
        self.first_child = self.parent.searchsorted(every).tolist()
        self.ends_before = self.end_pos.searchsorted(every).tolist()


class _ValueMaps:
    """The distinct values of the exponent columns of the trie pre at a
    block of points, and the maps a pass reads them by.  at_points builds
    them once per mesh, word set and points, for every refinement level
    on them, and block restricts them to a row block.

    Column pre.cols[j] raises the nodes at point i to the exponent
    values[index[j, i]], bit for bit exps[rows[i], pre.cols[j]] - 1.  The
    values of column j are values[start[j]:start[j + 1]], one per distinct
    bit pattern (so 0.0 and -0.0, or two nans, may stay apart): in the
    order of the points when no two points share one, else in numpy's
    sort order.  Node powers are formed once per entry of values
    (PanelMesh.powers), and at[p, i] is the entry of the letter of prefix
    p at point i.

    A first letter, prefix p < pre.bounds[1], is integrated once per
    distinct value of its column: it holds entries seg[p] to seg[p + 1] - 1
    of a flat layout, entry k raising the nodes to values[src[k]] with
    letter kind kind[k].  Where every first letter holds one entry per
    point, in the order of the points (at one point, and where no two
    points share a value), the flat layout is (first letters, points), and
    ends and ext are None: the trie's own maps pick its rows.  Otherwise
    they are the _segments of the first letters that end words and of
    those that go on, whose where maps take their values back to the
    points.
    """

    def __init__(self, pre: _Prefixes, index: np.ndarray, start: np.ndarray, values: np.ndarray):
        self.pre, self.size = pre, index.shape[1]
        self.index, self.start, self.values = index, start, values
        self.at = index.take(pre.cp, axis=0)
        p1, n = pre.bounds[1], self.size
        first, cp = self.at[:p1], pre.cp[:p1]
        # n consecutive entries of a column with at most n values are all of them
        if n == 1 or (first == first[:, :1] + np.arange(n)).all():
            self.src, self.kind = first.ravel(), pre.kind[:p1].repeat(n)
            self.seg, self.ends, self.ext = range(0, (p1 + 1) * n, n), None, None
            return
        seg = np.concatenate(([0], np.cumsum(start[cp + 1] - start[cp])))
        flat = first + (seg[:-1] - start[cp])[:, None]
        self.src = np.empty(seg[-1], dtype=int)
        self.src[flat] = first
        self.kind = np.empty(seg[-1], dtype=int)
        self.kind[flat] = pre.kind[:p1, None]
        self.ends = _segments(pre.end_pos[: pre.ends_before[p1]], seg, flat)
        self.ext = _segments(pre.ext[0][: pre.ext_before[p1]], seg, flat)
        self.seg = seg.tolist()

    @classmethod
    def at_points(cls, pre: _Prefixes, exps: np.ndarray, rows: np.ndarray) -> "_ValueMaps":
        """The maps of pre at the points rows of exps."""
        e = exps.T[pre.cols[:, None], rows] - 1.0
        ncols, n = e.shape
        # every value distinct, in the order of the points, unless sorting
        # finds repeats
        values, start = e.ravel(), np.arange(0, (ncols + 1) * n, n)
        index = np.arange(e.size).reshape(e.shape)
        if n > 1:
            order = e.argsort(axis=1)
            bits = np.take_along_axis(e, order, axis=1).view(np.int64).reshape(ncols, n, 2)
            new = np.ones(e.shape, dtype=bool)
            new[:, 1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=2)
            counts = new.sum(axis=1)
            repeats = np.flatnonzero(counts < n)
            if repeats.size:
                index = np.tile(np.arange(n), (ncols, 1))
                ranks = np.empty((repeats.size, n), dtype=int)
                np.put_along_axis(ranks, order[repeats], new[repeats].cumsum(axis=1) - 1, axis=1)
                index[repeats] = ranks
                start = np.concatenate(([0], np.cumsum(counts)))
                index += start[:-1, None]
                values = np.empty(start[-1], dtype=complex)
                values[index] = e
        return cls(pre, index, start, values)

    def block(self, lo: int, hi: int) -> "_ValueMaps":
        """The maps of the points lo to hi - 1, over the values they use."""
        if lo == 0 and hi >= self.size:
            return self
        index = self.index[:, lo:hi]
        used = np.zeros(self.values.size, dtype=bool)
        used[index] = True
        before = np.concatenate(([0], np.cumsum(used)))  # used values before each value
        return _ValueMaps(self.pre, before[index], before[self.start], self.values[used])


def _segments(ps: np.ndarray, seg: np.ndarray, flat: np.ndarray):
    """The (rows, off, where) map of _PrefixPass.finish that picks the
    first letters ps from a flat layout of first letters: rows lists the
    entries of their segments, in order, off[k] is where the segment of
    ps[k] starts among them, and where[k, i] is its entry at point i among
    them."""
    first = seg[ps]
    counts = seg[ps + 1] - first
    off = np.concatenate(([0], np.cumsum(counts)))
    shift = first - off[:-1]
    return np.repeat(shift, counts) + np.arange(off[-1]), off.tolist(), flat[ps] - shift[:, None]


class _PrefixPass:
    """The prefixes of pre on mesh m at one block of points: the integral
    of each word goes to its row of out.

    powers[k] holds the node powers of entry k of the block's values, blk
    their _ValueMaps, and table[i] the integrand factor at the nodes of
    letter kind pre.kinds[i].  The first letters are integrated in blk's
    flat layout, once per distinct value of their column; the words they
    end take their integrals, and the prefixes that extend them their
    inner integrals, through blk's maps, so that every longer prefix runs
    at every point.  The prefixes of one
    length are integrated in stacked blocks of at most BLOCK_BUDGET
    entries at the points (a block of first letters, at no more distinct
    values, holds no more), each followed at once by the blocks of the
    prefixes one letter longer that extend it, so that one block per
    length is live.
    """

    def __init__(self, m: PanelMesh, pre: _Prefixes, table: np.ndarray, powers: np.ndarray,
                 blk: _ValueMaps, out: np.ndarray):
        self.m, self.pre, self.table, self.powers, self.blk, self.out = (
            m, pre, table, powers, blk, out)
        self.cap = max(1, BLOCK_BUDGET // (out.shape[1] * powers.shape[1]))
        for a in range(0, pre.bounds[1], self.cap):
            self.first(a, min(a + self.cap, pre.bounds[1]))

    def first(self, a: int, b: int) -> None:
        """Integrate the first letters a to b - 1, then the longer prefixes
        that extend them."""
        blk = self.blk
        s0, s1 = blk.seg[a], blk.seg[b]
        # operands in the order of a prefix on its own, whose inner
        # integral is the empty prefix's 1.0
        f = self.powers.take(blk.src[s0:s1], axis=0)
        np.multiply(self.table.take(blk.kind[s0:s1], axis=0), f, out=f)
        np.multiply(f, 1.0, out=f)
        if blk.ends is None:
            self.finish(a, b, f.reshape(b - a, self.out.shape[1], -1))
        else:
            self.finish(a, b, f, flat=True)

    def run(self, lo: int, hi: int, inner: np.ndarray, base: int) -> None:
        """Integrate the prefixes lo to hi - 1, longer than one letter,
        whose parents' inner integrals are inner, one row per parent, by
        its rank among the extended prefixes, from base on; then the longer
        prefixes that extend them."""
        pre = self.pre
        for a in range(lo, hi, self.cap):
            b = min(a + self.cap, hi)
            # the letters' integrands at the nodes, times the parents' inner
            # integrals; operands in the order of a prefix on its own
            f = self.powers.take(self.blk.at[a:b], axis=0)
            np.multiply(self.table.take(pre.kind[a:b], axis=0)[:, None, :], f, out=f)
            if a == lo and b == hi == lo + len(inner):
                np.multiply(f, inner, out=f)  # one prefix per parent
            else:
                np.multiply(f, inner.take(pre.ext_before[pre.parent[a:b]] - base, axis=0), out=f)
            self.finish(a, b, f)

    def finish(self, a: int, b: int, f: np.ndarray, flat: bool = False) -> None:
        """Integrate the prefixes a to b - 1 for the words they end and the
        prefixes that extend them.  f holds their integrands, one row per
        prefix at every point, from which the trie's maps pre.ends and
        pre.ext pick rows; or, if flat, those of first letters in blk's
        flat layout, from which blk.ends and blk.ext pick rows, their where
        maps taking the integrals back to the points.
        """
        pre, m, blk = self.pre, self.m, self.blk
        s0, ends, ext = (blk.seg[a], blk.ends, blk.ext) if flat else (a, pre.ends, pre.ext)
        i0, i1 = pre.ends_before[a], pre.ends_before[b]
        if i1 > i0:
            rows, off, where = ends
            g = f if i1 - i0 == b - a else f.take(rows[off[i0] : off[i1]] - s0, axis=0)
            ints = m.integral(g)
            del g
            if where is not None:
                ints = ints.take(where[i0:i1] - off[i0])
            self.out[pre.end_job[i0:i1]] = ints
        lo2, hi2 = pre.first_child[a], pre.first_child[b]
        if hi2 > lo2:
            e0, e1 = pre.ext_before[a], pre.ext_before[b]
            rows, off, where = ext
            if e1 - e0 < b - a:
                f = f.take(rows[off[e0] : off[e1]] - s0, axis=0)
            inner = m.cumulative(f)
            del f
            if where is not None:
                inner = inner.take(where[e0:e1] - off[e0], axis=0)
            self.run(lo2, hi2, inner, e0)


def integrate_word_on_mesh(letters: _Letters, maps: _ValueMaps, m: PanelMesh) -> np.ndarray:
    """Iterated integrals of the words of the trie maps.pre, the _Prefixes
    of words ks of a table, over one mesh (exact panels), at the points of
    maps, one row per word of ks and one column per point.

    Letter j of word k raises the nodes at a point to its exponent column
    letters.pair_col[letters.pairs[k][j]] less 1, as maps holds it.  Each
    letter kind's factor at the nodes is one row of a complex table,
    filled in the trie's kind order, so the TruncationError of the first
    kind, in the order the words use them, whose node values fail
    propagates.

    The points run in row blocks of at most ROW_BUDGET node entries, and
    in each the prefixes run length by length: node powers t^(e-1) are
    formed once per distinct value of each column among the block's
    points, and so are the integrals of the first letters (_ValueMaps),
    which the longer prefixes and the one-letter words take at each point;
    the prefixes of one length are integrated together, as one stacked
    (prefixes, points, nodes) array, at all of the block's points, whether
    or not every word they lead to needs every point.  Every entry is
    formed by the operations, in the order, of one word integrated at one
    point on its own, so it equals that bit for bit.
    """
    pre = maps.pre
    table = np.empty((len(pre.kinds), m.log_nodes.size), dtype=complex)
    for i, kind in enumerate(pre.kinds):
        theta, part = letters.kinds[kind]
        table[i] = part if theta is None else m.theta_values(theta, part)
    values = np.empty((pre.end_job.size, maps.size), dtype=complex)
    step = max(1, ROW_BUDGET // m.log_nodes.size)
    for lo in range(0, maps.size, step):
        blk = maps.block(lo, lo + step)
        _PrefixPass(m, pre, table, m.powers(blk.values), blk, values[:, lo : lo + step])
    return values


# a node power or integrand that overflows leaves a non-finite word
# integral, which fails by name, not with numpy's warning
@np.errstate(over="ignore", invalid="ignore")
def integrate_words(
    letters: _Letters,
    exps: np.ndarray,
    params: EvalParams,
    edges: tuple[float, ...] | None = None,
    unresolved: list | None = None,
    rerun: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterated integrals of many words at many points, refined to tolerance.

    exps[i, c] is exponent column c of the table letters at point i;
    returns values and error estimates of shape (points, words).  Without
    edges every word runs over [1, inf), cut at its truncation horizon at
    each point; with edges every word runs over that mesh.  Each (word,
    mesh) job is refined until each point's estimate |v1 - v0| + slack
    meets abs_tol, the slack abs_tol * HORIZON_SAFETY being the certified
    truncation bound; a point leaves at the first level where its own
    estimate does.  A job stalls at a level below max_refine, and leaves
    there with its value and estimate, when its estimate is still above
    STALL_FLOOR * abs_tol, times STALL_SHRINK above its estimate two levels
    before (so from level 3 on, and never at nan), and above STALL_ROUNDING
    * |value|: it sits at its roundoff floor, where finer meshes do not
    help, and too far above its value's rounding for two levels to round
    to the same double.  Given a (words, points) mask `rerun`, only the
    marked jobs run, none of them stalls, and the others keep value 1 and
    estimate 0: so the engine refines to the end the jobs that stalled.

    Jobs run mesh by mesh, by horizon and then refinement level, so that all
    words on one mesh share their node powers and prefixes
    (integrate_word_on_mesh).  The call fails if any job fails, with the
    first failure met: the horizon failure word_horizons raises, else, on
    the first mesh where one is met, the TruncationError of the first node
    values that fail, the QuadratureError naming the overflow of a word
    integral that is not finite at one of its own points, the
    QuadratureError of the first job that stalls (by word, then point),
    or, once its refinement runs out, that of its lowest-index word still
    unresolved (refinement_failure).  Given a list
    `unresolved`, a stalled job or a mesh whose refinement runs out raises
    nothing: the jobs keep their last values and estimates (above abs_tol,
    or nan), and their (word, point) indices are appended to the list as
    two arrays, with the level where they stopped, in the order in which
    the failure would have named them, so on one mesh the jobs that stall
    come before those that run out, for the caller to judge.
    """
    n, words = exps.shape[0], letters.words
    # one row per word, returned transposed
    values = np.ones((len(words), n), dtype=complex)
    errs = np.zeros((len(words), n))
    # mesh edges -> (words, (words, points) mask of the points they run at)
    meshes: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}
    slack = params.abs_tol * HORIZON_SAFETY
    ks = np.array([k for k, word in enumerate(words) if word], dtype=int)
    if rerun is not None:
        ks = ks[rerun[ks].any(axis=1)]
    if ks.size and edges is not None:
        meshes[edges] = ks, np.ones((ks.size, n), dtype=bool) if rerun is None else rerun[ks]
    elif ks.size:
        horizons = word_horizons(letters, exps, params)[ks]
        if rerun is not None:
            horizons = np.where(rerun[ks], horizons, 0.0)  # 0: a job that does not run
        for t_max in sorted(set(horizons.ravel().tolist()) - {0.0}):
            at = horizons == t_max
            some = at.any(axis=1)
            meshes[doubling_edges(1.0, t_max)] = ks[some], at[some]

    def settle(jobs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keep the current values and estimates of the jobs marked in a
        (words, points) mask of the current mesh; their (word, point)
        indices, by word, then point."""
        jj, ii = jobs.nonzero()
        at = ks[jj], rows[ii]
        values[at] = v1[jj, ii]
        errs[at] = est[jj, ii]
        return at

    for key in sorted(meshes):
        # the jobs' words, the points some job still runs at, and whether
        # each job runs at each of them
        ks, member = meshes[key]
        rows = np.flatnonzero(member.any(axis=0))
        if rows.size < n:
            member = member[:, rows]
        m = mesh(key, params.quad_order)
        # the words' prefixes, formed again only when words leave the mesh,
        # and their value maps, formed again when words or points leave it
        pre = _Prefixes(letters, ks)
        maps = _ValueMaps.at_points(pre, exps, rows)
        v0 = None  # the last level's values
        # the estimates of the last level and the one before, inf before level 1
        last = older = np.full(member.shape, math.inf)
        for level in range(params.max_refine + 1):
            if level:
                m = m.refined()
            v1 = integrate_word_on_mesh(letters, maps, m)
            finite = np.isfinite(v1)
            if not finite.all() and not finite[member].all():
                raise QuadratureError(
                    f"word integral overflows on the mesh [1, {key[-1]:g}]")
            if level:
                est = np.abs(v1 - v0)
                est += slack
                done = est <= params.abs_tol
                done &= member
                settle(done)
                member &= ~done
                if rerun is None and 3 <= level < params.max_refine:
                    # far above abs_tol, not shrinking over two levels and not
                    # at the mercy of rounding: no level will meet it
                    stalled = est > STALL_FLOOR * params.abs_tol
                    stalled &= member
                    if stalled.any():
                        stalled &= est * STALL_SHRINK > older
                        stalled &= est > STALL_ROUNDING * np.abs(v1)
                    if stalled.any():
                        at = settle(stalled)
                        if unresolved is None:
                            raise refinement_failure(errs[at][0], level, params)
                        unresolved.append((*at, level))
                        member &= ~stalled
                if not member.any():
                    break
                words_left, points_left = member.any(axis=1), member.any(axis=0)
                if not words_left.all():
                    ks, member, est, last, v1 = (
                        a[words_left] for a in (ks, member, est, last, v1))
                    pre = _Prefixes(letters, ks)
                if not points_left.all():
                    rows = rows[points_left]
                    member, est, last, v1 = (a[:, points_left] for a in (member, est, last, v1))
                if not (words_left.all() and points_left.all()):
                    maps = _ValueMaps.at_points(pre, exps, rows)
                older, last = last, est
            v0 = v1
        else:
            at = settle(member)
            if unresolved is None:
                raise refinement_failure(errs[at][0], params.max_refine, params)
            unresolved.append((*at, params.max_refine))
    return values.T, errs.T


def refinement_failure(est: float, level: int, params: EvalParams) -> QuadratureError:
    """The failure of a job whose estimate est is still above abs_tol when
    its refinement stops at level: stalled before max_refine, else run out."""
    if level < params.max_refine:
        return QuadratureError(
            f"estimate {est:.3e} above {params.abs_tol:.1e}, stalled at level {level}")
    return QuadratureError(
        f"estimate {est:.3e} above {params.abs_tol:.1e} after {params.max_refine} refinements"
    )


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
