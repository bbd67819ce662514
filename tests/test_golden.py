"""Batched evaluation against recorded values and error bars.

The riemann r = 1 entries were recorded with the evaluation loop that
lambda_eval used before it became the one-point call of lambda_eval_many
(one word integral, one exact tangent evaluation and one float product per
term and point).  Every entry's bar covers its distance to an independent
truth (test_golden_values_within_bar_of_truth).  The batched path sums terms and tangent parts in another order, so values
and error bars are held to 1e-14 relative rather than to bit equality.
"""

from __future__ import annotations

import pytest

from itermellin import engine, oracles, quadrature
from itermellin.engine import build_expression, lambda_eval, lambda_eval_many
from itermellin.quadrature import EvalParams
from itermellin.ratfun import AffineForm, PoleSignal
from itermellin.theta import make_builtin_theta

P = EvalParams()
REL = 1e-14

R = ("riemann",)
# (theta tuple, [(point, value, error bar) or (point, "pole", form)])
GOLDEN = [
    (R, [
        ((2.0,), 0.5235987755982989 + 0j, 2.0000027755575618e-11),
        ((0.3 + 4.1j,), -0.03889797797431903 + 0.005285224811755113j, 2.0000034910210846e-11),
        ((-1.7 + 0.6j,), 0.19429931145825963 + 0.10549051879820122j, 2.000003296260701e-11),
    ]),
    (R * 2, [
        ((2.3, 1.1), 0.11353444015340969 + 0j, 7.378539262178461e-11),
        ((0.4 + 1.2j, -0.9 + 0.3j), -0.11610862112057896 + 0.1354707948944872j,
         7.62040942763919e-11),
        ((2.0, 0.0), "pole", "s1+s2-2"),
    ]),
    (R * 3, [
        ((1.3 + 0.4j, 2.1, -0.7 - 0.2j), -3.5222719943169722 + 1.8622551540509245j,
         3.1798404557270584e-10),
    ]),
    (R * 4, [
        ((0.6 + 0.2j, 1.1 - 0.4j, -0.3 + 0.5j, 2.2), 8.892605280319287 + 4.527390612267143j,
         8.222376566578884e-10),
    ]),
    (("eisenstein4", "delta"), [
        ((3.0, 4.0), -9.837559139005828e-06 + 0j, 4.0091161133663746e-11),
        ((1.2 - 0.7j, 5.5 + 1j), -2.8553537009613756e-06 + 1.6563428082056604e-06j,
         4.003947096719833e-11),
    ]),
    (("theta_plus", "riemann", "jacobi3"), [
        ((0.7 + 0.3j, 1.4, -0.5 + 0.8j), 0.6957436857698979 + 0.6385462545949436j,
         2.0668486325927467e-10),
    ]),
    (("delta", "theta_minus"), [
        ((6 + 2j, 0.8 - 0.4j), -0.0017577729435147662 - 0.0005649544752506059j,
         6.543759280382342e-11),
    ]),
]


def _theta(name: str):
    if name.startswith("eisenstein"):
        return make_builtin_theta("eisenstein", int(name[len("eisenstein"):]))
    return make_builtin_theta(name)


def _expr(names):
    return build_expression(tuple(_theta(n) for n in names))


def _check(result, value, err):
    if value == "pole":
        assert isinstance(result, PoleSignal)
        assert str(result.form) == err
        return
    got, got_err = result
    assert abs(got - value) <= REL * abs(value)
    assert abs(got_err - err) <= REL * err


@pytest.mark.parametrize("names,cases", GOLDEN, ids=[",".join(n) for n, _ in GOLDEN])
def test_lambda_eval_matches_golden(names, cases):
    expr = _expr(names)
    for point, value, err in cases:
        if value == "pole":
            with pytest.raises(PoleSignal) as exc:
                lambda_eval(expr, point, P)
            _check(exc.value, value, err)
        else:
            _check(lambda_eval(expr, point, P), value, err)


@pytest.mark.parametrize("names,cases", GOLDEN, ids=[",".join(n) for n, _ in GOLDEN])
def test_batches_match_golden(names, cases):
    expr = _expr(names)
    for point, value, err in cases:
        (result,) = lambda_eval_many(expr, [point], P)
        _check(result, value, err)
    seven = [cases[i % len(cases)] for i in range(7)]
    for (_, value, err), result in zip(seven, lambda_eval_many(expr, [c[0] for c in seven], P)):
        _check(result, value, err)


@pytest.mark.parametrize("names", [R, R * 2])
def test_batch_across_chunks_matches_golden(names):
    """One more point than a chunk holds, so the batch spans two chunks."""
    cases = dict(GOLDEN)[names]
    batch = [cases[i % len(cases)] for i in range(engine.BATCH_CHUNK + 1)]
    results = lambda_eval_many(_expr(names), [c[0] for c in batch], P)
    assert len(results) == len(batch)
    for (_, value, err), result in zip(batch, results):
        _check(result, value, err)


def test_row_blocks_match_golden(monkeypatch):
    """Batches split into row blocks (here one point per block) when their
    node arrays would exceed the row budget."""
    monkeypatch.setattr(quadrature, "ROW_BUDGET", 1)
    names, cases = GOLDEN[1]
    results = lambda_eval_many(_expr(names), [c[0] for c in cases], P)
    for (_, value, err), result in zip(cases, results):
        _check(result, value, err)


def _truth(names, point) -> complex:
    """An independent value at a point: mpmath for riemann r = 1, else the
    functional-equation partner eps * Lambda(reversed duals; reflected
    point), a different expression at a different point.  lambda_direct is
    no truth here: it needs absolute convergence at 0, so it runs at two
    golden points alone (riemann at 2 and at (2.3, 1.1)) and raises at the
    others; at (6+2i, 0.8-0.4i) the corner bound of (delta, theta_minus)
    asks for a 5e-19 cutoff, below engine.DIRECT_DELTA_FLOOR."""
    if names == R:
        mpmath = pytest.importorskip("mpmath")
        s = mpmath.mpc(point[0])
        return complex(mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s))
    thetas = tuple(_theta(n) for n in names)
    dual = build_expression(engine.reversed_dual_tuple(thetas))
    value, _ = lambda_eval(dual, engine.reflected_point(thetas, point), P)
    return engine.functional_sign(thetas) * value


@pytest.mark.parametrize("names,cases", GOLDEN, ids=[",".join(n) for n, _ in GOLDEN])
def test_golden_values_within_bar_of_truth(names, cases):
    """Each recorded bar covers the distance from its value to the truth."""
    for point, value, err in cases:
        if value != "pole":
            assert abs(value - _truth(names, point)) <= err, point


def test_residue_numeric_matches_golden():
    h = AffineForm.make(0, (0, 1, 1))
    num = oracles.residue_numeric(_expr(R * 3), h, (2.5, 1.5, -1.5), P)
    golden = -0.1938112736363703 + 0j
    assert abs(num - golden) <= REL * abs(golden)
