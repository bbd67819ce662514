"""Named verification suites behind the command-line `verify` subcommand.

Each suite returns a list of CaseResult records (suite, case, defect,
tolerance, passed).  Randomized suites draw points from a seeded generator
and reject points closer than a margin to any pole hyperplane of every
expression involved, so a run is reproducible from its seed.  The
functional equation's reflection maps an expression's hyperplanes onto
its partner's, so a reflection point keeps off the expression's own.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import engine, oracles
from .arith import divisor_sigma
from .oracles import _values, expression as _expr
from .quadrature import EvalParams
from .ratfun import AffineForm
from .theta import make_builtin_theta
from .words import shuffle

PI = math.pi

# the builtin thetas that random tuples draw from, in draw order; the
# shuffle suite draws from the first five
_POOL = ("riemann", "eisenstein4", "delta", "theta_plus", "theta_minus",
         "jacobi2", "jacobi3", "jacobi4")


@dataclass
class CaseResult:
    suite: str
    case: str
    defect: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _case(suite: str, case: str, defect: float, tol: float) -> CaseResult:
    return CaseResult(suite, case, float(defect), float(tol), bool(defect <= tol))


def _sample(rng, nslots: int, forms):
    """Random complex point with parts in [-3, 3], at least 0.1 from every
    form."""
    for _ in range(1000):
        pt = tuple(
            complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            for _ in range(nslots)
        )
        if all(h.distance(pt) >= 0.1 for h in forms):
            return pt
    raise RuntimeError("could not sample a point away from the hyperplanes")


def _fe_defect(thetas, pts, params) -> float:
    """The largest functional-equation defect over the points; each side
    is evaluated at all of them in one batch."""
    lhs = _values(_expr(thetas), pts, params)
    dual = _expr(engine.reversed_dual_tuple(thetas))
    rhs = _values(dual, [engine.reflected_point(thetas, pt) for pt in pts], params)
    sign = engine.functional_sign(thetas)
    return max(abs(a - sign * b) for a, b in zip(lhs, rhs))


def suite_functional(seed: int, trials: int, params: EvalParams) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    out = []
    rie = make_builtin_theta("riemann")
    for r in (1, 2, 3):
        thetas = (rie,) * r
        forms = _expr(thetas).pole_forms
        pts = [_sample(rng, r, forms) for _ in range(trials)]
        worst = _fe_defect(thetas, pts, params)
        out.append(_case("functional", f"xi r={r} reflection, {trials} points", worst, 1e-8))
    mixed = (make_builtin_theta("eisenstein", 4), make_builtin_theta("delta"))
    forms = _expr(mixed).pole_forms
    worst = _fe_defect(mixed, [_sample(rng, 2, forms) for _ in range(trials)], params)
    out.append(_case("functional", f"mixed (G4, delta) reflection, {trials} points", worst, 1e-8))

    ss = [complex(rng.uniform(0.7, 3.0), rng.uniform(-2.0, 2.0)) for _ in range(5)]
    a = _values(_expr((make_builtin_theta("jacobi3"),)), [(s,) for s in ss], params)
    b = _values(_expr((rie,)), [(2 * s,) for s in ss], params)
    worst = max(abs(x - 2 * y) for x, y in zip(a, b))
    out.append(_case("functional", "Lambda(jacobi3;s) = 2 xi(2s), 5 points", worst, 1e-9))

    j2, j4 = make_builtin_theta("jacobi2"), make_builtin_theta("jacobi4")
    ss = [complex(rng.uniform(0.8, 3.0), rng.uniform(-2.0, 2.0)) for _ in range(5)]
    a = _values(_expr((j2,)), [(s,) for s in ss], params)
    b = _values(_expr((j4,)), [(0.5 - s,) for s in ss], params)
    worst = max(abs(x - y) for x, y in zip(a, b))
    out.append(_case("functional", "Lambda(jacobi2;s) = Lambda(jacobi4;1/2-s), 5 points", worst, 1e-8))

    delta = make_builtin_theta("delta")
    ed = _expr((delta,))
    out.append(_case("functional", "delta pole set empty", float(len(ed.pole_forms)), 0.0))
    ss = [complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(10)]
    values = _values(ed, [(s,) for s in ss] + [(12.0 - s,) for s in ss], params)
    worst = max(abs(x - y) for x, y in zip(values[:10], values[10:]))
    out.append(_case("functional", "Lambda(delta;s) = Lambda(delta;12-s), 10 points", worst, 1e-9))

    pool = [make_builtin_theta(name) for name in _POOL]
    worst = 0.0
    for _ in range(max(trials // 2, 5)):
        r = int(rng.integers(2, 4))
        tup = tuple(pool[int(i)] for i in rng.integers(0, len(pool), r))
        pt = _sample(rng, r, _expr(tup).pole_forms)
        worst = max(worst, _fe_defect(tup, [pt], params))
    out.append(
        _case("functional", "random mixed tuples from the builtin pool, r in {2,3}", worst, 1e-8)
    )
    return out


def suite_shuffle(seed: int, trials: int, params: EvalParams) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    out = []
    pool = [make_builtin_theta(name) for name in _POOL[:5]]
    for p_len, q_len in ((1, 1), (1, 2)):
        worst = 0.0
        for _ in range(trials):
            thetas = tuple(pool[int(i)] for i in rng.integers(0, len(pool), p_len + q_len))
            u = tuple(range(p_len))
            v = tuple(range(p_len, p_len + q_len))
            merged = list(shuffle(u, v))  # distinct indices: each once
            # the poles of every expression involved, written in all p + q slots
            forms = []
            for idx in [u, v] + merged:
                for h in _expr(tuple(thetas[i] for i in idx)).pole_forms:
                    coeffs = [0] * (p_len + q_len)
                    for i, c in zip(idx, h.coeffs):
                        coeffs[i] = c
                    forms.append(AffineForm.make(h.const, coeffs))
            pt = _sample(rng, p_len + q_len, forms)
            left, _ = engine.lambda_eval(
                _expr(tuple(thetas[i] for i in u)), tuple(pt[i] for i in u), params
            )
            right, _ = engine.lambda_eval(
                _expr(tuple(thetas[i] for i in v)), tuple(pt[i] for i in v), params
            )
            total = 0.0 + 0.0j
            for idx in merged:
                val, _ = engine.lambda_eval(
                    _expr(tuple(thetas[i] for i in idx)),
                    tuple(pt[i] for i in idx),
                    params,
                )
                total += val
            worst = max(worst, abs(left * right - total))
        out.append(
            _case("shuffle", f"({p_len},{q_len})-shuffles, {trials} trials", worst, 1e-8)
        )
    return out


def suite_residues(seed: int, trials: int, params: EvalParams) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    out = []
    rie = make_builtin_theta("riemann")
    e1, e2, e3 = _expr((rie,)), _expr((rie,) * 2), _expr((rie,) * 3)

    h = AffineForm.make(0, (0, 1))  # s2 = 0
    s1s = [complex(rng.uniform(2.2, 3.0), rng.uniform(-1.0, 1.0)) for _ in range(4)]
    refs = _values(e1, [(s1,) for s1 in s1s], params)
    res = [engine.residue(e2, h, (s1, 0.0), params)[0] for s1 in s1s]
    worst = max(abs(r + ref) for r, ref in zip(res, refs))
    out.append(_case("residues", "r=2 Res_{s2=0} = -xi(s1)", worst, 1e-8))

    h = AffineForm.make(0, (1, 1))  # s1 + s2 = 0
    worst = 0.0
    for _ in range(4):
        a = complex(rng.uniform(2.2, 3.0), rng.uniform(-1.0, 1.0))
        res = engine.residue(e2, h, (a, -a), params)[0]
        worst = max(worst, abs(res - 1.0 / (-a)))
    out.append(_case("residues", "r=2 Res_{s1+s2=0} = 1/s2", worst, 1e-8))

    worst = 0.0
    for h, pt in (
        (AffineForm.make(0, (0, 1)), (2.5 + 0.3j, 0.0)),
        (AffineForm.make(0, (1, 1)), (2.7, -2.7)),
    ):
        res = engine.residue(e2, h, pt, params)[0]
        num = oracles.residue_numeric(e2, h, pt, params)
        worst = max(worst, abs(res - num))
    out.append(_case("residues", "r=2 residues vs Richardson limits", worst, 1e-7))

    # r=3, hyperplane s2+s3=0 (k=2): xi(s1)/s3
    h = AffineForm.make(0, (0, 1, 1))
    pt = (2.5, 1.5, -1.5)
    res = engine.residue(e3, h, pt, params)[0]
    ref, _ = engine.lambda_eval(e1, (2.5,), params)
    closed = ref / -1.5
    num = oracles.residue_numeric(e3, h, pt, params)
    out.append(_case("residues", "r=3 Res_{s2+s3=0} closed form", abs(res - closed), 1e-7))
    out.append(_case("residues", "r=3 Res_{s2+s3=0} vs limit", abs(res - num), 1e-7))

    # r=3, hyperplane s3=0 (k=3): -xi(s1,s2)
    h = AffineForm.make(0, (0, 0, 1))
    pt = (2.2, 1.7, 0.0)
    res = engine.residue(e3, h, pt, params)[0]
    ref2, _ = engine.lambda_eval(e2, (2.2, 1.7), params)
    out.append(_case("residues", "r=3 Res_{s3=0} = -xi(s1,s2)", abs(res + ref2), 1e-7))
    num = oracles.residue_numeric(e3, h, pt, params)
    out.append(_case("residues", "r=3 Res_{s3=0} vs limit", abs(res - num), 1e-7))

    # r=3, hyperplane s1+s2+s3=0 (k=1): -1/((s2+s3) s3)
    h = AffineForm.make(0, (1, 1, 1))
    pt = (4.4, -1.3, -3.1)
    res = engine.residue(e3, h, pt, params)[0]
    closed = -1.0 / ((pt[1] + pt[2]) * pt[2])
    out.append(
        _case("residues", "r=3 Res_{s1+s2+s3=0} = -1/((s2+s3)s3)", abs(res - closed), 1e-7)
    )
    _ = trials
    return out


def suite_eisenstein_id(seed: int, trials: int, params: EvalParams) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    out = []
    rie = make_builtin_theta("riemann")
    e1 = _expr((rie,))
    for k in (2, 3):
        w = 2 * k
        g = make_builtin_theta("eisenstein", w)
        eg = _expr((g,))
        crit = [0.0, 1.0, float(w - 1), float(w)]
        ss = []
        while len(ss) < 10:
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(s - c) for c in crit) >= 0.2:
                ss.append(s)
        lhs = _values(eg, [(s,) for s in ss], params)
        xi = _values(e1, [(s,) for s in ss] + [(s - w + 1,) for s in ss], params)
        worst = 0.0
        for s, value, xa, xb in zip(ss, lhs, xi[:10], xi[10:]):
            pref = 1.0 + 0.0j
            for j in range(1, w, 2):
                pref *= s - j
            pref /= 2 * (2 * PI) ** k
            worst = max(worst, abs(value - pref * xa * xb))
        out.append(
            _case("eisenstein-id", f"Lambda(G{w};s) = prefactor*xi(s)xi(s-{w - 1})", worst, 1e-8)
        )
    g4 = make_builtin_theta("eisenstein", 4)
    spot, _ = engine.lambda_eval(_expr((g4,)), (2.0,), params)
    out.append(_case("eisenstein-id", "Lambda(G4;2) = -1/288", abs(spot + 1.0 / 288), 1e-12))

    ea, _, _ = oracles.real_eisenstein(1j, 1.3, params)
    eb, _, _ = oracles.real_eisenstein(1j, -0.3, params)
    out.append(_case("eisenstein-id", "E(i,1.3) = E(i,-0.3)", abs(ea - eb), 1e-7))
    for z in (2j, 0.3 + 1.7j):
        va, _, _ = oracles.real_eisenstein(z, 1.5, params)
        vb, _, _ = oracles.real_eisenstein(-1 / z, 1.5, params)
        out.append(
            _case("eisenstein-id", f"modular invariance at z={z}", abs(va - vb), 1e-8)
        )
    raw = oracles.eisenstein_lattice_sum(2j, 2.5, 300.0)
    th_route, _, _ = oracles.real_eisenstein(2j, 2.5, params)
    gamma_r = PI**-2.5 * math.gamma(2.5)
    out.append(
        _case(
            "eisenstein-id",
            "raw lattice sum vs completed route at (2i, 2.5)",
            abs(raw - th_route / gamma_r),
            5e-7,
        )
    )
    xi3, xi2 = _values(e1, [(3.0,), (2.0,)], params)
    einf_direct = xi3 * 2**1.5 + xi2 * 2**-0.5
    _, _, einf = oracles.real_eisenstein(2j, 1.5, params)
    out.append(_case("eisenstein-id", "Einf(2i,1.5) assembly", abs(einf - einf_direct), 1e-10))
    return out


def suite_mzv(seed: int, trials: int, params: EvalParams) -> list[CaseResult]:
    """Critical values of the theta_plus/theta_minus family at 1 against
    closed forms in log 2 and zeta values from the summation oracle."""
    tp, tm = make_builtin_theta("theta_plus"), make_builtin_theta("theta_minus")
    log16 = math.log(16.0)
    z2 = oracles.mzv_sum((2,), 1e-10)
    z3 = oracles.mzv_sum((3,), 1e-10)

    def critical(thetas) -> float:
        return engine.lambda_eval(_expr(thetas), (1.0,) * len(thetas), params)[0].real

    out = [
        _case("mzv", "pi*Lambda(theta+;1) = -8 log 2",
              abs(PI * critical((tp,)) + 8 * math.log(2.0)), 1e-10),
        _case("mzv", "Lambda(theta-;1) = 0", abs(critical((tm,))), 1e-10),
        _case("mzv", "pi^2*Lambda(theta-,theta+;1,1)",
              abs(PI**2 * critical((tm, tp)) - (2 * z2 - log16**2)), 1e-8),
        _case("mzv", "pi^3*Lambda(theta-,theta-,theta+;1,1,1)",
              abs(PI**3 * critical((tm, tm, tp)) - (4 * z3 + 2 * log16 * z2 - log16**3 / 3.0)),
              1e-7),
    ]
    z12 = oracles.mzv_sum((1, 2), 1e-7)
    out.append(_case("mzv", "zeta(1,2) = zeta(3) by summation", abs(z12 - z3), 1e-7))
    _ = seed, trials
    return out


def suite_qsums(seed: int, trials: int, params: EvalParams) -> list[CaseResult]:
    out = []
    rie = make_builtin_theta("riemann")
    td = engine.build_tail_expression((rie, rie))
    e1, e2 = _expr((rie,)), _expr((rie,) * 2)

    # each distinct sum once; Q(1,1) and Q(2,1) serve two cases each
    q = oracles.q_sums(((1, 1), (1, 2), (2, 1), (3, 1)), 1e-8)
    d22, d24, d42, d34 = _values(td, [(2.0, 2.0), (2.0, 4.0), (4.0, 2.0), (3.0, 4.0)], params)
    out.append(_case("qsums", "pi^2 D(2,2) = Q(1,1)", abs(PI**2 * d22 - q[1, 1]), 1e-7))
    out.append(
        _case("qsums", "pi^3 D(2,4) = Q(1,2)+Q(2,1)", abs(PI**3 * d24 - q[1, 2] - q[2, 1]), 1e-7)
    )
    out.append(_case("qsums", "pi^3 D(4,2) = Q(2,1)", abs(PI**3 * d42 - q[2, 1]), 1e-7))

    *xi_l2, v34 = _values(e2, [(2.0, 2.0), (4.0, 2.0), (6.0, 2.0), (3.0, 4.0)], params)
    for ell, lhs in zip((1, 2, 3), xi_l2):
        lhs = PI ** (ell + 1) / math.factorial(ell - 1) * lhs
        rhs = q[ell, 1] + (1 - ell) / 2.0 * oracles.q_sum((ell + 1,), 1e-10)
        out.append(_case("qsums", f"xi(2l,2) identity, l={ell}", abs(lhs - rhs), 1e-7))

    # symbolic reduction coefficients against the closed binomial formula
    sym_ok = True
    for l1 in range(1, 5):
        for l2 in range(1, 5):
            red = oracles.reduce_d_to_q((l1, l2))
            want = {
                (l1 + k, l2 - k): math.factorial(l1 - 1)
                * math.factorial(l2 - 1)
                * math.comb(l1 + k - 1, k)
                for k in range(l2)
            }
            sym_ok = sym_ok and red == want
    out.append(_case("qsums", "reduction coefficients, l <= 4", 0.0 if sym_ok else 1.0, 0.0))

    xi7, _ = engine.lambda_eval(e1, (7.0,), params)
    out.append(
        _case(
            "qsums",
            "xi(s1,s2) = D(s1,s2) + (1/s1-1/s2) xi(s1+s2) at (3,4)",
            abs(v34 - (d34 + (1 / 3.0 - 1 / 4.0) * xi7)),
            1e-8,
        )
    )
    _ = seed, trials
    return out


def suite_eichler(seed: int, trials: int, params: EvalParams) -> list[CaseResult]:
    out = []
    rie = make_builtin_theta("riemann")
    e2 = _expr((rie,) * 2)
    target = PI**2 / 72

    pairs = ((2, 4), (4, 2), (6, 2))
    via_engine, *refs, ref, ref_sym = _values(
        e2,
        [(2.0, 2.0)] + [(float(a), float(b)) for a, b in pairs]
        + [(2.6, 1.8), (1 - 2 * 1.2, 1 - 2 * 1.1)],
        params,
    )
    via_eichler = oracles.eichler_xi((2, 2), params)
    via_eis = oracles.xi_via_eisenstein(1.0, 1.0, params)
    out.append(_case("eichler", "engine xi(2,2) = pi^2/72", abs(via_engine - target), 1e-9))
    out.append(_case("eichler", "eichler xi(2,2) = pi^2/72", abs(via_eichler - target), 1e-9))
    out.append(_case("eichler", "eisenstein xi(2,2) = pi^2/72", abs(via_eis - target), 1e-9))
    out.append(
        _case("eichler", "pipelines pairwise (engine/eichler)", abs(via_engine - via_eichler), 1e-7)
    )
    out.append(
        _case("eichler", "pipelines pairwise (engine/eisenstein)", abs(via_engine - via_eis), 1e-7)
    )
    out.append(
        _case("eichler", "pipelines pairwise (eichler/eisenstein)", abs(via_eichler - via_eis), 1e-7)
    )

    for pair, pair_ref in zip(pairs, refs):
        out.append(
            _case(
                "eichler",
                f"eichler xi{pair} vs engine",
                abs(oracles.eichler_xi(pair, params) - pair_ref),
                1e-7,
            )
        )

    cross = oracles.xi_via_eisenstein(1.3, 0.9, params)
    out.append(_case("eichler", "eisenstein route (1.3,0.9) vs engine", abs(cross - ref), 1e-6))
    sym = oracles.xi_via_eisenstein(1.1, 1.2, params)
    out.append(
        _case("eichler", "xi(2s1,2s2) = xi(1-2s2,1-2s1) across routes", abs(sym - ref_sym), 1e-6)
    )
    _ = seed, trials
    return out


def suite_binding(seed: int, trials: int, params: EvalParams) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p_ = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        s = complex(rng.uniform(0.4, 3.0), rng.uniform(-2.0, 2.0))
        worst = max(worst, oracles.binding_lemma_defect(p_, m, n, s))
    out = [_case("binding", f"hypergeometric identity, {trials} draws", worst, 1e-9)]

    g4 = make_builtin_theta("eisenstein", 4)
    a0 = 1.0 / 240.0

    def sigma3(i: int) -> float:
        return float(divisor_sigma(3, i))

    bridges = ((2, 9.0), (1, 10.0))
    lhss = _values(_expr((g4, g4)), [(float(p_), s) for p_, s in bridges], params)
    g4s = _values(_expr((g4,)), [(x,) for p_, s in bridges for x in (float(p_), s, s + p_)], params)
    for i, ((p_, s), lhs) in enumerate(zip(bridges, lhss)):
        at_p, at_s, shifted = g4s[3 * i : 3 * i + 3]
        term = at_p * at_s
        term += a0 / p_ * shifted
        term -= a0 / s * shifted
        for r_ in range(p_):
            _, dd = oracles.dirichlet_double(
                sigma3, sigma3, p_ - r_, s + r_, 1e-8, (2.0, 3.0), (2.0, 3.0)
            )
            term -= math.comb(p_ - 1, r_) * dd
        out.append(
            _case("binding", f"double-series bridge (G4,G4;p={p_},s={s:g})", abs(lhs - term), 1e-6)
        )
    return out


SUITES: dict[str, Callable[[int, int, EvalParams], list[CaseResult]]] = {
    "functional": suite_functional,
    "shuffle": suite_shuffle,
    "residues": suite_residues,
    "eisenstein-id": suite_eisenstein_id,
    "mzv": suite_mzv,
    "qsums": suite_qsums,
    "eichler": suite_eichler,
    "binding": suite_binding,
}


def run_suite(
    name: str, seed: int = 0, trials: int = 20, params: EvalParams | None = None
) -> list[CaseResult]:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    params = params or EvalParams()
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](seed, trials, params))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}, all")
    return SUITES[name](seed, trials, params)
