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
points.  Word integrals run over batches of points: the batched functions
take the letters' exponents as an array with one row per point, and every
point keeps its own horizon, refinement depth and error estimate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

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
        lows = np.array(edges[:-1])
        highs = np.array(edges[1:])
        self.widths = highs - lows
        self.nodes = (
            0.5 * (x[None, :] + 1.0) * self.widths[:, None] + lows[:, None]
        ).ravel()
        self._values: dict = {}
        self._lock = threading.Lock()

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

    def _panel_integrals(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        segs = f.reshape(*f.shape[:-1], -1, self.order)
        return segs, (segs @ self.gl_weights) * (self.widths / 2.0)

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
        half = self.widths / 2.0
        inner = carries[..., None] + half[:, None] * (segs @ self.int_matrix.T)
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


def truncation_horizons(word: Word, exps: np.ndarray, params: EvalParams) -> np.ndarray:
    """Smallest power-of-two horizon whose certified tail bound is below
    abs_tol * horizon_safety, at each point.  exps[i, j] is the exponent of
    letter j at point i.  The word must end in a tail letter."""
    n = exps.shape[0]
    if not word:
        return np.full(n, 2.0)
    last = word[-1]
    if last.part != "tail":
        raise QuadratureError("truncation horizon requires a final tail letter")
    th = last.theta
    mu1 = th.tail.min_mu()
    if not math.isfinite(mu1):
        return np.full(n, 2.0)
    p = th.kernel_power
    decay_k = th.tail_envelope()
    if decay_k == 0.0:
        return np.full(n, 2.0)
    e_re = exps.real
    log_prefac = 0.0
    growth_exp = np.zeros(n)
    for j, letter in enumerate(word[:-1]):
        b, deg = _letter_envelope(letter)
        log_prefac += math.log(max(b, 1e-300))
        growth_exp += np.maximum(e_re[:, j] - 1.0 + deg + 1.0, 0.0)
    alpha = growth_exp + e_re[:, -1] - 1.0 + max(th.tail.power_range[1], 0.0)
    log_target = math.log(params.abs_tol * params.horizon_safety)
    log_head = math.log(2.0) + log_prefac + math.log(decay_k) - math.log(mu1 * p)
    # every candidate horizon at every point at once; each point takes the
    # smallest candidate that fits
    tp = _HORIZONS**p
    rate = (alpha + 1.0 - p)[:, None]
    log_bound = log_head + rate * _LOG_HORIZONS - mu1 * tp
    fits = (mu1 * p * tp >= np.maximum(2.0 * rate, 1.0)) & (log_bound <= log_target)
    if not fits.any(axis=1).all():
        raise QuadratureError("no horizon satisfies the truncation bound")
    return _HORIZONS[fits.argmax(axis=1)]


def truncation_horizon(word: Word, s: Sequence[complex], params: EvalParams) -> float:
    """The truncation horizon of the word at one point s (see
    truncation_horizons)."""
    return float(truncation_horizons(word, letter_exponents(word, s), params)[0])


# ---------------------------------------------------------------------------
# word integrals
# ---------------------------------------------------------------------------


def _letter_phi(letter: Letter, e: np.ndarray, m: PanelMesh, max_terms: int) -> np.ndarray:
    power = m.nodes ** (e[:, None] - 1.0)
    if letter.part == "mono":
        return float(letter.coeff) * power
    return m.theta_values(letter.theta, letter.part, max_terms) * power


# complex node values one letter array may hold; larger batches of points
# are integrated in row blocks, so deep refinements stay within memory
ROW_BUDGET = 1 << 17


def integrate_word_on_mesh(
    word: Word, exps: np.ndarray, m: PanelMesh, params: EvalParams
) -> np.ndarray:
    """Iterated integral of the word over the mesh interval (exact panels).

    exps[i, j] is the exponent of letter j at point i; returns one integral
    per point.
    """
    n = exps.shape[0]
    if not word:
        return np.ones(n, dtype=complex)
    step = max(1, ROW_BUDGET // m.nodes.size)
    if n > step:
        blocks = [exps[lo : lo + step] for lo in range(0, n, step)]
        return np.concatenate([integrate_word_on_mesh(word, b, m, params) for b in blocks])
    inner = 1.0
    for j, letter in enumerate(word[:-1]):
        inner = m.cumulative(_letter_phi(letter, exps[:, j], m, params.max_terms) * inner)
    f = _letter_phi(word[-1], exps[:, -1], m, params.max_terms) * inner
    return m.integral(f)


def _refine_until(
    word: Word,
    exps: np.ndarray,
    edges: tuple[float, ...],
    params: EvalParams,
    slack: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Refine the mesh until each point's estimate |v1 - v0| + slack meets
    abs_tol; a point leaves at the first level where its own estimate does."""
    n = exps.shape[0]
    values = np.empty(n, dtype=complex)
    errs = np.empty(n)
    rows = np.arange(n)
    m0 = mesh(edges, params.quad_order)
    v0 = integrate_word_on_mesh(word, exps, m0, params)
    est = np.full(n, math.inf)
    for _ in range(params.max_refine):
        m1 = m0.refined()
        v1 = integrate_word_on_mesh(word, exps[rows], m1, params)
        est = np.abs(v1 - v0) + slack
        done = est <= params.abs_tol
        values[rows[done]] = v1[done]
        errs[rows[done]] = est[done]
        rows, v0, est, m0 = rows[~done], v1[~done], est[~done], m1
        if not rows.size:
            return values, errs
    raise QuadratureError(
        f"estimate {est[0]:.3e} above {params.abs_tol:.1e} after "
        f"{params.max_refine} refinements"
    )


def tail_word_integrals(
    word: Word, exps: np.ndarray, params: EvalParams
) -> tuple[np.ndarray, np.ndarray]:
    """tail_word_integral at many points at once.

    exps[i, j] is the exponent of letter j at point i.  Each point keeps
    its own truncation horizon; points sharing one are integrated together.
    """
    n = exps.shape[0]
    if not word:
        return np.ones(n, dtype=complex), np.zeros(n)
    horizons = truncation_horizons(word, exps, params)
    values = np.empty(n, dtype=complex)
    errs = np.empty(n)
    slack = params.abs_tol * params.horizon_safety
    for t_max in sorted(set(horizons.tolist())):
        rows = np.flatnonzero(horizons == t_max)
        edges = doubling_edges(1.0, t_max)
        values[rows], errs[rows] = _refine_until(word, exps[rows], edges, params, slack)
    return values, errs


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
    if not word:
        return 1.0 + 0.0j, 0.0
    values, errs = _refine_until(word, letter_exponents(word, s), edges, params, slack)
    return complex(values[0]), float(errs[0])


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
