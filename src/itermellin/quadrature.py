"""Iterated integrals of words over [1, infinity) by panel quadrature.

The mesh is a sequence of geometrically growing panels, each carrying
Gauss-Legendre nodes; inner cumulative integrals are formed at the nodes
with the spectral integration matrix of the node set, so a word of length k
costs O(k * panels * order^2).  The truncation horizon is certified from
the letters' growth envelopes and the final tail letter's decay; the
reported error estimate is the difference against one mesh refinement and
is never silently consumed.

Theta values at mesh nodes are independent of the slot variables, so they
are cached on the (interned) mesh and shared across words and evaluation
points, as are the logarithms of the nodes.  Word integrals run over
batches of words and points (integrate_words): the truncation horizons of
all words at all points come from one array pass (word_horizons), then
the words run mesh by mesh.  On one mesh, a truncation horizon at one
refinement level, each letter exponent's node powers are formed once, as
exp(e * log t) from the cached logarithms (PanelMesh.powers), and each
shared word prefix is integrated once, over every point that needs it;
the integration matrix acts on the real and imaginary parts of the panels
as real matrix products (PanelMesh.cumulative).  Each of these equals the
plain expression bit for bit (nodes ** e, the complex matrix product, the
one-word horizon), so every word keeps, at every point, its own horizon,
refinement depth and error estimate, bit for bit as in a one-word,
one-point call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .theta import TruncationError
from .words import Letter, Word

REF_TOL = 1e-15  # theta accuracy at mesh nodes; below every engine tolerance
MAX_HORIZON = 2.0**24


class QuadratureError(Exception):
    """Quadrature tolerance not met, or no usable truncation horizon."""


@dataclass
class EvalParams:
    """Evaluation controls shared across the engine.

    abs_tol: absolute tolerance target per integral; max_terms: cap on tail
    stream groups; quad_order: Gauss nodes per panel; max_refine: mesh
    refinement limit; horizon_safety: the truncation target is
    abs_tol * horizon_safety.
    """

    abs_tol: float = 1e-10
    max_terms: int = 4000
    quad_order: int = 32
    max_refine: int = 8
    horizon_safety: float = 0.1
    pole_guard: float = 1e-10

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.quad_order < 4:
            raise ValueError("quad_order must be at least 4")


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
    """Interned panel mesh with per-theta node value cache."""

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
        self._values: dict = {}
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
        key = (theta, part)
        vals = self._values.get(key)
        if vals is None:
            with self._lock:
                vals = self._values.get(key)
                if vals is None:
                    vals = theta.eval_array(self.nodes, part, REF_TOL, max_terms)
                    self._values[key] = vals
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


def letter_exponents(word: Word, s: Sequence[complex]) -> np.ndarray:
    """The word's letter exponents at one point, as a (1, len(word)) row."""
    return np.array([[complex(letter.exponent(s)) for letter in word]], dtype=complex)


def _letter_envelope(letter: Letter) -> tuple[float, float]:
    """(B, d) with |phi(t)| <= B * t^(Re e - 1 + d) for t >= 1."""
    th = letter.theta
    if letter.part == "mono":
        return abs(float(letter.coeff)), 0.0
    if letter.part == "poly":
        return th.poly_height(), th.poly_degree()
    if letter.part == "tail":
        return th.tail_envelope(), max(th.tail.power_range[1], 0.0)
    b = th.poly_height() + th.tail_envelope()
    return b, max(th.poly_degree(), th.tail.power_range[1], 0.0)


def _word_envelope(word: Word):
    """The point-free constants of the word's truncation bound: (log of
    the bound's prefactor, the last letter's power bound, mu1 and p, the
    prefix letters' degrees), or None when every point takes the horizon
    2."""
    last = word[-1]
    if last.part != "tail":
        raise QuadratureError("truncation horizon requires a final tail letter")
    th = last.theta
    mu1 = th.tail.min_mu()
    if not math.isfinite(mu1):
        return None
    p = th.kernel_power
    decay_k = th.tail_envelope()
    if decay_k == 0.0:
        return None
    log_prefac = 0.0
    degs = []
    for letter in word[:-1]:
        b, deg = _letter_envelope(letter)
        log_prefac += math.log(max(b, 1e-300))
        degs.append(deg)
    log_head = math.log(2.0) + log_prefac + math.log(decay_k) - math.log(mu1 * p)
    return log_head, max(th.tail.power_range[1], 0.0), mu1, p, degs


def word_horizons(
    words: Sequence[Word], cols: Sequence[np.ndarray], exps: np.ndarray, params: EvalParams
) -> list:
    """Truncation horizons of many words at many points: entry k is the
    smallest power-of-two horizon, at each point, whose certified tail
    bound for words[k] is below abs_tol * horizon_safety, or the
    QuadratureError or TruncationError that word raises.  exps[i, c] is
    exponent column c at point i, and cols[k][j] the column of letter j of
    words[k], which must end in a tail letter.

    Each word's envelope constants are formed once; then one array pass
    over blocks of words finds every horizon, in the float operations, and
    their order, of a word on its own.
    """
    n = exps.shape[0]
    out: list = [None] * len(words)
    bounded = []  # (word index, envelope constants)
    for k, word in enumerate(words):
        try:
            env = _word_envelope(word) if word else None
        except (QuadratureError, TruncationError) as exc:
            out[k] = exc
            continue
        if env is None:
            out[k] = np.full(n, 2.0)
        else:
            bounded.append((k, env))
    e_re = exps.real
    log_target = math.log(params.abs_tol * params.horizon_safety)
    step = max(1, ROW_BUDGET // _HORIZONS.size // max(n, 1))
    for lo in range(0, len(bounded), step):
        block = bounded[lo : lo + step]
        log_head, shift, mu1, p = np.array([env[:4] for _, env in block]).T
        growth_exp = np.zeros((n, len(block)))
        width = max(len(env[4]) for _, env in block)
        if width:
            # prefix letters padded with degree -inf: max(-inf, 0.0) adds 0.0
            pad = [width - len(env[4]) for _, env in block]
            degs = np.array([env[4] + [-math.inf] * g for (_, env), g in zip(block, pad)])
            pcols = np.array([cols[k][:-1].tolist() + [0] * g for (k, _), g in zip(block, pad)])
            for j in range(width):
                growth_exp += np.maximum(e_re[:, pcols[:, j]] - 1.0 + degs[:, j] + 1.0, 0.0)
        last = e_re[:, [cols[k][-1] for k, _ in block]]
        alpha = growth_exp + last - 1.0 + shift
        # every candidate horizon of every word at every point at once: axes
        # (point, word, horizon); each takes the smallest candidate that fits
        tp = _HORIZONS ** p[:, None]  # exact: powers of two below 2^53
        rate = (alpha + 1.0 - p)[:, :, None]
        log_bound = log_head[:, None] + rate * _LOG_HORIZONS - mu1[:, None] * tp
        fits = ((mu1 * p)[:, None] * tp >= np.maximum(2.0 * rate, 1.0)) & (
            log_bound <= log_target
        )
        horizons = _HORIZONS[fits.argmax(axis=2)]
        for i, ok in enumerate(fits.any(axis=2).all(axis=0).tolist()):
            out[block[i][0]] = horizons[:, i] if ok else QuadratureError(
                "no horizon satisfies the truncation bound"
            )
    return out


def truncation_horizons(word: Word, exps: np.ndarray, params: EvalParams) -> np.ndarray:
    """word_horizons of one word; exps[i, j] is the exponent of letter j at
    point i."""
    (horizons,) = word_horizons((word,), (np.arange(len(word)),), exps, params)
    if isinstance(horizons, Exception):
        raise horizons
    return horizons


def truncation_horizon(word: Word, s: Sequence[complex], params: EvalParams) -> float:
    """The truncation horizon of the word at one point s (see
    truncation_horizons)."""
    return float(truncation_horizons(word, letter_exponents(word, s), params)[0])


# ---------------------------------------------------------------------------
# word integrals
# ---------------------------------------------------------------------------


class _Prefix:
    """A word prefix on one mesh: the rows of the words that share it, the
    words that end with it, and the prefixes one letter longer, by (letter,
    column)."""

    __slots__ = ("rows", "ends", "after")

    def __init__(self):
        self.rows: list = []  # one row array per word sharing the prefix
        self.ends: list = []  # (word index, rows) of the words ending here
        self.after: dict = {}


def _union(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.unique(np.concatenate(arrays))


def _take(values, have: np.ndarray | None, rows: np.ndarray):
    """values, one entry per point of have, at rows, a subset of have."""
    if have is None or have.size == rows.size:
        return values
    return values[np.searchsorted(have, rows)]


def repeated_products(e: np.ndarray) -> np.ndarray:
    """Where numpy raises to the complex power e by repeated multiplication
    rather than as exp(e * log t): at the real integers n, |n| < 100."""
    return (e.imag == 0.0) & (np.abs(e.real) < 100.0) & (e.real == np.trunc(e.real))


def _exact_columns(exps: np.ndarray) -> list:
    """Per exponent column, the points where node powers t^(e-1) are
    repeated products, or None where there are none; found once per
    batch, so that one-point calls pay nothing for it on each mesh."""
    if not (exps.imag == 0.0).any():
        return [None] * exps.shape[1]
    mask = repeated_products(exps - 1.0)
    return [mask[:, c] if any_ else None for c, any_ in enumerate(mask.any(axis=0).tolist())]


def _node_powers(m: PanelMesh, exps: np.ndarray, exact: list, rows, c: int) -> np.ndarray:
    """Node powers t^(e-1) of exponent column c at the points rows."""
    mask = exact[c]
    return m.powers(exps[rows, c] - 1.0, None if mask is None else mask[rows])


def _phi(letter: Letter, power: np.ndarray, nodal: dict, out) -> np.ndarray:
    """The letter's integrand at the nodes: its node values times power."""
    if letter.part == "mono":
        return np.multiply(float(letter.coeff), power, out=out)
    return np.multiply(nodal[letter.theta, letter.part], power, out=out)


def _integrate_prefixes(
    m: PanelMesh, exps: np.ndarray, exact: list, nodal: dict, jobs, pieces: dict
) -> None:
    """Integrate the words of jobs, (word index, word, columns, rows), on
    mesh m, appending each word's integrals at its rows to pieces[index].

    The prefixes are walked depth first.  A column's node powers are formed
    at its first use, over the rows of every word that needs them, and
    dropped after its last use; a prefix's inner integral is dropped as soon
    as the last of its longer prefixes has used it.
    """
    if len(jobs) == 1:
        # nothing to share: the word's letters in turn, without the prefix tree
        ((k, word, cols, rows),) = jobs
        f = 1.0
        for j, (letter, c) in enumerate(zip(word, cols.tolist())):
            if j:
                f = m.cumulative(f)
            power = _node_powers(m, exps, exact, rows, c)
            f = np.multiply(_phi(letter, power, nodal, power), f, out=power)
        pieces[k].append(m.integral(f))
        return
    root = _Prefix()
    col_rows: dict = {}
    for k, word, cols, rows in jobs:
        node = root
        for key in zip(word, cols.tolist()):
            child = node.after.get(key)
            if child is None:
                child = node.after[key] = _Prefix()
            child.rows.append(rows)
            col_rows.setdefault(key[1], []).append(rows)
            node = child
        node.ends.append((k, rows))
    uses = {c: len(v) for c, v in col_rows.items()}
    powers: dict = {}
    # frames: [longer prefixes still to integrate, inner integral, its rows]
    stack = [[list(root.after.items()), 1.0, None]]
    while stack:
        todo, inner, inner_rows = stack[-1]
        (letter, c), node = todo.pop()
        if not todo:
            stack.pop()
        rows = _union(node.rows)
        if c not in powers:
            have = _union(col_rows[c])
            powers[c] = (have, _node_powers(m, exps, exact, have, c))
        have, power = powers[c]
        power = _take(power, have, rows)
        uses[c] -= len(node.rows)
        # the last user of a column's powers may overwrite them
        out = power if not uses[c] and power is powers.pop(c)[1] else None
        f = _phi(letter, power, nodal, out)
        del power
        np.multiply(f, _take(inner, inner_rows, rows), out=f)
        del inner
        for k, r in node.ends:
            pieces[k].append(m.integral(_take(f, rows, r)))
        if node.after:
            more = _union([r for g in node.after.values() for r in g.rows])
            stack.append([list(node.after.items()), m.cumulative(_take(f, rows, more)), more])
        del f


def integrate_word_on_mesh(
    words: Sequence[Word],
    cols: Sequence[np.ndarray],
    exps: np.ndarray,
    rows: Sequence[np.ndarray],
    m: PanelMesh,
    params: EvalParams,
    exact: list,
) -> list:
    """Iterated integrals of words over one mesh (exact panels).

    Word k is integrated at the points rows[k] (ascending), where its letter
    j has the exponent exps[i, cols[k][j]] at point i; exact is
    _exact_columns(exps).  Each exponent
    column's node powers t^(e-1) are formed once, over every point that
    needs them, and each distinct prefix (letters and columns) is
    integrated once, over the points of all words that share it; the
    prefixes are walked depth first, so one inner array per depth is live.
    Entry k of the result is word k's integrals at rows[k], or the
    TruncationError raised for the node values of its first letter that
    has none.
    """
    out: list = [None] * len(words)
    nodal: dict = {}
    for k, word in enumerate(words):
        for letter in word:
            if letter.part == "mono":
                continue
            key = (letter.theta, letter.part)
            if key not in nodal:
                try:
                    nodal[key] = m.theta_values(letter.theta, letter.part, params.max_terms)
                except TruncationError as exc:
                    nodal[key] = exc
            if isinstance(nodal[key], TruncationError):
                out[k] = nodal[key]
                break
    live = [k for k in range(len(words)) if out[k] is None]
    if not live:
        return out
    pieces: dict[int, list] = {k: [] for k in live}
    step = max(1, ROW_BUDGET // m.log_nodes.size)
    bounds = [None]  # one block of every row
    if sum(rows[k].size for k in live) > step:
        every = _union([rows[k] for k in live])
        bounds = [(every[lo], every[min(lo + step, every.size) - 1])
                  for lo in range(0, every.size, step)]
    for bound in bounds:
        jobs = []
        for k in live:
            r = rows[k]
            if bound is not None:
                r = r[np.searchsorted(r, bound[0]) : np.searchsorted(r, bound[1], "right")]
            if r.size:
                jobs.append((k, words[k], cols[k], r))
        _integrate_prefixes(m, exps, exact, nodal, jobs, pieces)
    for k in live:
        out[k] = pieces[k][0] if len(pieces[k]) == 1 else np.concatenate(pieces[k])
    return out


class _Job:
    """A word at the points that share its mesh, while it is refined."""

    __slots__ = ("k", "rows", "v0", "est")

    def __init__(self, k: int, rows: np.ndarray):
        self.k = k
        self.rows = rows
        self.v0 = None
        self.est = np.full(rows.size, math.inf)


def integrate_words(
    words: Sequence[Word],
    cols: Sequence[np.ndarray],
    exps: np.ndarray,
    params: EvalParams,
    edges: tuple[float, ...] | None = None,
    slack: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterated integrals of many words at many points, refined to tolerance.

    exps[i, c] is exponent column c at point i, and cols[k][j] the column
    of letter j of words[k]; returns values and error estimates of shape
    (points, words).  Without edges every word runs over [1, inf), cut at
    its truncation horizon at each point, and the certified truncation
    bound abs_tol * horizon_safety is its slack; with edges every word runs
    over that mesh with the given slack.  Each (word, mesh) job is refined
    until each point's estimate |v1 - v0| + slack meets abs_tol; a point
    leaves at the first level where its own estimate does.

    Jobs run mesh by mesh, by horizon and then refinement level, so that all
    words on one mesh share their node powers and prefixes
    (integrate_word_on_mesh).  A failure raises for the whole call: that of
    the lowest-index failing word, at its smallest failing horizon.
    """
    n = exps.shape[0]
    # one row per word, returned transposed
    values = np.ones((len(words), n), dtype=complex)
    errs = np.zeros((len(words), n))
    failed: dict[tuple, Exception] = {}  # (word, edges) -> its failure
    meshes: dict[tuple[float, ...], list[_Job]] = {}
    if edges is None:
        slack = params.abs_tol * params.horizon_safety
        every_horizon = word_horizons(words, cols, exps, params)
    exact = _exact_columns(exps)
    for k, word in enumerate(words):
        if not word:
            continue
        if edges is not None:
            meshes.setdefault(edges, []).append(_Job(k, np.arange(n)))
            continue
        horizons = every_horizon[k]
        if isinstance(horizons, Exception):
            failed[k, ()] = horizons  # before any of the word's meshes
            continue
        for t_max in sorted(set(horizons.tolist())):
            job = _Job(k, np.flatnonzero(horizons == t_max))
            meshes.setdefault(doubling_edges(1.0, t_max), []).append(job)
    for key in sorted(meshes):
        jobs = meshes[key]
        m = mesh(key, params.quad_order)
        for level in range(params.max_refine + 1):
            if failed:
                # a later word's or horizon's failure could not be the one raised
                first = min(failed)
                jobs = [job for job in jobs if (job.k, key) < first]
            if not jobs:
                break
            if level:
                m = m.refined()
            results = integrate_word_on_mesh(
                [words[job.k] for job in jobs],
                [cols[job.k] for job in jobs],
                exps,
                [job.rows for job in jobs],
                m,
                params,
                exact,
            )
            kept = []
            for job, v1 in zip(jobs, results):
                if isinstance(v1, TruncationError):
                    failed[job.k, key] = v1
                    continue
                if level:
                    est = np.abs(v1 - job.v0) + slack
                    done = est <= params.abs_tol
                    values[job.k][job.rows[done]] = v1[done]
                    errs[job.k][job.rows[done]] = est[done]
                    job.rows, v1, job.est = job.rows[~done], v1[~done], est[~done]
                job.v0 = v1
                if job.rows.size:
                    kept.append(job)
            jobs = kept
        else:
            for job in jobs:
                failed[job.k, key] = QuadratureError(
                    f"estimate {job.est[0]:.3e} above {params.abs_tol:.1e} after "
                    f"{params.max_refine} refinements"
                )
    if failed:
        raise failed[min(failed)]
    return values.T, errs.T


def tail_word_integrals(
    word: Word, exps: np.ndarray, params: EvalParams
) -> tuple[np.ndarray, np.ndarray]:
    """tail_word_integral at many points at once.

    exps[i, j] is the exponent of letter j at point i.  Each point keeps
    its own truncation horizon, refinement depth and error estimate.
    """
    values, errs = integrate_words((word,), (np.arange(len(word)),), exps, params)
    return values[:, 0], errs[:, 0]


def tail_word_integral(
    word: Word, s: Sequence[complex], params: EvalParams | None = None
) -> tuple[complex, float]:
    """Iterated integral over [1, inf) of a word ending in a tail letter.

    Returns (value, error estimate); the estimate combines one-refinement
    agreement with the certified truncation slack.
    """
    params = params or EvalParams()
    values, errs = tail_word_integrals(word, letter_exponents(word, s), params)
    return complex(values[0]), float(errs[0])


def word_integral_on_interval(
    word: Word,
    s: Sequence[complex],
    edges: tuple[float, ...],
    params: EvalParams | None = None,
    slack: float = 0.0,
) -> tuple[complex, float]:
    """Iterated integral over a finite mesh, refined to tolerance."""
    params = params or EvalParams()
    values, errs = integrate_words(
        (word,), (np.arange(len(word)),), letter_exponents(word, s), params, edges, slack
    )
    return complex(values[0, 0]), float(errs[0, 0])


def composition_split(
    word: Word, s: Sequence[complex], cut: float, params: EvalParams | None = None
) -> complex:
    """Evaluate the [1, inf) word integral via a path split at cut.

    Sum over k of (integral over [1, cut] of the first k letters) times
    (integral over [cut, inf) of the rest); used as an independent
    cross-check of the direct evaluation.
    """
    params = params or EvalParams()
    if cut <= 1.0:
        raise ValueError("cut must exceed 1")
    total = 0.0 + 0.0j
    lower_edges = tuple(np.linspace(1.0, cut, 5))
    for k in range(len(word) + 1):
        prefix, suffix = word[:k], word[k:]
        if prefix:
            left, _ = word_integral_on_interval(prefix, s, lower_edges, params)
        else:
            left = 1.0 + 0.0j
        if suffix:
            t_max = max(truncation_horizon(suffix, s, params), 2.0 * cut)
            upper = doubling_edges(cut, t_max)
            right, _ = word_integral_on_interval(suffix, s, upper, params)
        else:
            right = 1.0 + 0.0j
        total += left * right
    return total
