"""Verification suite runners: determinism and structure."""

import pytest

from itermellin import engine, oracles, suites
from itermellin.quadrature import EvalParams
from itermellin.suites import SUITES, run_suite
from itermellin.theta import make_builtin_theta


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_suite_names():
    assert set(SUITES) == {
        "functional",
        "shuffle",
        "residues",
        "eisenstein-id",
        "mzv",
        "qsums",
        "eichler",
        "binding",
    }


def test_determinism_same_seed():
    a = run_suite("functional", seed=3, trials=4, params=EvalParams())
    b = run_suite("functional", seed=3, trials=4, params=EvalParams())
    assert [c.to_dict() for c in a] == [c.to_dict() for c in b]


def test_mzv_suite_passes():
    for case in run_suite("mzv", seed=0, trials=5):
        assert case.passed, case


def test_mzv_cases_and_tolerances():
    assert [(c.case, c.tolerance) for c in run_suite("mzv", seed=0, trials=1)] == [
        ("pi*Lambda(theta+;1) = -8 log 2", 1e-10),
        ("Lambda(theta-;1) = 0", 1e-10),
        ("pi^2*Lambda(theta-,theta+;1,1)", 1e-8),
        ("pi^3*Lambda(theta-,theta-,theta+;1,1,1)", 1e-7),
        ("zeta(1,2) = zeta(3) by summation", 1e-7),
    ]


def test_suites_compile_through_the_oracles_cache(monkeypatch):
    """The suites and the oracles share one compile cache: the riemann
    r = 1 expression is compiled once, and a repeated suite compiles
    nothing."""
    rie = make_builtin_theta("riemann")
    assert suites._expr((rie,)) is oracles.expression((rie,)) is oracles._xi_expression()
    run_suite("mzv", seed=0, trials=1)
    compiled = []
    build = engine.build_expression
    monkeypatch.setattr(engine, "build_expression",
                        lambda thetas: compiled.append(thetas) or build(thetas))
    run_suite("mzv", seed=0, trials=1)
    assert compiled == []


def test_case_record_shape():
    (case, *_) = run_suite("binding", seed=1, trials=3)
    d = case.to_dict()
    assert set(d) == {"suite", "case", "defect", "tolerance", "passed"}


def test_eichler_suite_repeats_through_the_kept_plan(monkeypatch):
    """The eichler suite's three Eisenstein-route calls share one
    several-expression plan: the first run lowers it, the second reuses
    it, and both give the same cases."""
    engine._several_plan.cache_clear()
    lowered = []
    lower = engine.NumericPlan.lower
    monkeypatch.setattr(engine.NumericPlan, "lower",
                        staticmethod(lambda exprs: lowered.append(len(exprs)) or lower(exprs)))
    first = run_suite("eichler", seed=0, trials=1)
    assert lowered.count(3 * EvalParams().quad_order) == 1
    second = run_suite("eichler", seed=0, trials=1)
    assert lowered.count(3 * EvalParams().quad_order) == 1
    assert first == second and all(c.passed for c in first)


def test_suites_do_not_depend_on_batching(monkeypatch):
    """The suites evaluate each expression's points in one batch; with
    every batch split into one-point calls the cases are the same."""
    batched = [run_suite("all", seed=7, trials=2), run_suite("functional", seed=3, trials=5)]
    many = engine.lambda_eval_many

    def one_at_a_time(expr, points, params=None):
        return [result for point in points for result in many(expr, [point], params)]

    monkeypatch.setattr(engine, "lambda_eval_many", one_at_a_time)
    one_by_one = [run_suite("all", seed=7, trials=2), run_suite("functional", seed=3, trials=5)]
    assert one_by_one == batched
