import math
import warnings

import numpy as np
import pytest

import supplyplan as sp
from supplyplan.linprog import Status

import helpers


def test_knapsack_known_answer(cfg):
    sol = sp.solve_lp(helpers.knapsack(), cfg)
    assert sol.optimal
    assert sol.objective == pytest.approx(-9.0, abs=1e-6)
    assert sol.values["a"] == 1.0 and sol.values["b"] == 1.0


def test_solution_is_on_the_lattice(cfg):
    p = sp.LinearProblem()
    p.add_var("x", obj=-1.0, ub=3.0, integer=True)
    p.add_row({"x": 2.0}, "<=", 5.0)
    sol = sp.solve_lp(p, cfg)
    assert sol.values["x"] == 2.0  # exact float, rounded onto the lattice


def test_continuous_problem_passthrough(cfg):
    p = sp.LinearProblem()
    p.add_var("x", obj=-1.0, ub=1.5)
    sol = sp.solve_lp(p, cfg)
    assert sol.objective == pytest.approx(-1.5, abs=1e-9)


def test_mixed_integer_and_continuous(cfg):
    p = sp.LinearProblem()
    p.add_var("n", obj=-3.0, ub=10.0, integer=True)
    p.add_var("c", obj=-1.0, ub=10.0)
    p.add_row({"n": 1.0, "c": 1.0}, "<=", 4.5)
    sol = sp.solve_lp(p, cfg)
    # n = 4, c = 0.5
    assert sol.objective == pytest.approx(-12.5, abs=1e-6)
    assert sol.values["n"] == 4.0


def test_infeasible_integer_problem(cfg):
    p = sp.LinearProblem()
    p.add_var("x", obj=1.0, ub=5.0, integer=True)
    p.add_row({"x": 2.0}, "==", 3.0)  # needs x = 1.5
    assert sp.solve_lp(p, cfg).status is Status.INFEASIBLE


def test_infeasible_lp_relaxation(cfg):
    p = sp.LinearProblem()
    p.add_var("x", ub=1.0, integer=True)
    p.add_row({"x": 1.0}, ">=", 2.0)
    assert sp.solve_lp(p, cfg).status is Status.INFEASIBLE


def _market_split(rows=2, cols=12, slack=True):
    """Equality knapsacks over binaries (default: two over 12), with slack
    and surplus at cost 1 unless ``slack`` is false (optimum 0); hard for
    LP-based search, so one node does not close it."""
    a = np.random.default_rng(0).integers(0, 100, size=(rows, cols))
    p = sp.LinearProblem()
    for j in range(cols):
        p.add_var(f"x{j}", ub=1.0, integer=True)
    for i in range(rows):
        coeffs = {f"x{j}": float(a[i, j]) for j in range(cols)}
        if slack:
            coeffs[p.add_var(f"s{i}", obj=1.0)] = 1.0
            coeffs[p.add_var(f"t{i}", obj=1.0)] = -1.0
        p.add_row(coeffs, "==", float(a[i].sum() // 2))
    return p


def test_node_limit_reports_status():
    cfg = sp.SolverConfig(max_bb_nodes=1)
    sol = sp.solve_lp(_market_split(), cfg)
    assert sol.status is Status.NODE_LIMIT
    assert sol.gap > 0 or math.isinf(sol.objective)
    # without slacks the node finds no incumbent
    sol = sp.solve_lp(_market_split(3, 30, slack=False), cfg)
    assert sol.status is Status.NODE_LIMIT
    assert sol.objective == math.inf and sol.gap == math.inf


def test_market_split_solves_without_node_limit(cfg):
    sol = sp.solve_lp(_market_split(), cfg)
    assert sol.optimal
    assert sol.objective == pytest.approx(0.0, abs=1e-6)
    assert sol.simplex_iters > 0


def test_emits_no_warning(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sp.solve_lp(helpers.knapsack(), cfg).optimal


def test_matches_lattice_enumeration_on_random_mips(cfg):
    rng = np.random.default_rng(77)
    for _ in range(40):
        p = helpers.random_mip(rng)
        sol = sp.solve_lp(p, cfg)
        oracle = helpers.enumerate_mip(p)
        assert sol.optimal
        assert sol.objective == pytest.approx(oracle, abs=1e-6)
