import math

import numpy as np
import pytest

import supplyplan as sp
from supplyplan.linprog import Status

import helpers


def _simple_problem():
    p = sp.LinearProblem()
    p.add_var("x", obj=-1.0, ub=4.0)
    p.add_var("y", obj=-2.0, ub=4.0)
    p.add_row({"x": 1.0, "y": 1.0}, "<=", 5.0)
    return p


def test_known_optimum(cfg):
    sol = sp.solve_lp(_simple_problem(), cfg)
    assert sol.optimal
    assert sol.objective == pytest.approx(-9.0, abs=1e-9)
    assert sol.values["y"] == pytest.approx(4.0, abs=1e-9)


def test_ge_and_eq_rows(cfg):
    p = sp.LinearProblem()
    p.add_var("x", obj=1.0, ub=10.0)
    p.add_var("y", obj=1.0, ub=10.0)
    p.add_row({"x": 1.0}, ">=", 2.0)
    p.add_row({"x": 1.0, "y": 1.0}, "==", 6.0)
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal and sol.objective == pytest.approx(6.0, abs=1e-9)
    assert sol.values["x"] >= 2.0 - 1e-9


def test_objective_offset(cfg):
    p = _simple_problem()
    p.objective_offset = 100.0
    assert sp.solve_lp(p, cfg).objective == pytest.approx(91.0, abs=1e-9)


def test_free_variable(cfg):
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_row({"w": 1.0}, ">=", -7.0)
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal and sol.objective == pytest.approx(-7.0, abs=1e-9)


def test_infeasible(cfg):
    p = sp.LinearProblem()
    p.add_var("x", ub=1.0)
    p.add_row({"x": 1.0}, ">=", 2.0)
    assert sp.solve_lp(p, cfg).status is Status.INFEASIBLE


def test_unbounded(cfg):
    p = sp.LinearProblem()
    p.add_var("x", obj=-1.0)
    sol = sp.solve_lp(p, cfg)
    assert sol.status is Status.UNBOUNDED
    assert sol.objective == -math.inf


def test_validation_errors():
    p = sp.LinearProblem()
    p.add_var("x")
    with pytest.raises(ValueError):
        p.add_var("x")
    with pytest.raises(ValueError):
        p.add_var("bad", lb=2.0, ub=1.0)
    with pytest.raises(ValueError):
        p.add_row({"nope": 1.0}, "<=", 0.0)
    with pytest.raises(ValueError):
        p.add_row({"x": float("nan")}, "<=", 0.0)
    with pytest.raises(ValueError):
        p.add_row({"x": 1.0}, "<", 0.0)
    with pytest.raises(ValueError):
        p.add_row({"x": 1.0}, "<=", float("inf"))


def test_copy_is_independent(cfg):
    p = _simple_problem()
    q = p.copy()
    q.add_row({"x": 1.0}, "<=", 0.0)
    assert len(p.rows) == 1 and len(q.rows) == 2
    assert sp.solve_lp(p, cfg).objective == pytest.approx(-9.0, abs=1e-9)


def test_matches_vertex_enumeration_on_random_lps(cfg):
    rng = np.random.default_rng(2024)
    for _ in range(25):
        p = helpers.random_lp(rng)
        sol = sp.solve_lp(p, cfg)
        assert sol.optimal
        assert sol.objective == pytest.approx(helpers.enumerate_lp(p), abs=1e-7)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        sp.SolverConfig(feas_tol=0.0)
    with pytest.raises(ValueError):
        sp.SolverConfig(mip_gap=-1e-9)
