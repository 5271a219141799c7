import math

import numpy as np
import pytest
import scipy.sparse

import supplyplan as sp
from supplyplan import framework, linprog
from supplyplan.linprog import ConeRow, Rows, Status, _row_form, run_highs

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
    sol = sp.solve_lp(p, cfg)
    assert sol.status is Status.INFEASIBLE
    assert sol.gap == math.inf


def test_unbounded(cfg):
    p = sp.LinearProblem()
    p.add_var("x", obj=-1.0)
    sol = sp.solve_lp(p, cfg)
    assert sol.status is Status.UNBOUNDED
    assert sol.objective == -math.inf
    assert sol.gap == math.inf


def test_iteration_limit_ends_without_a_solution(monkeypatch, cfg):
    monkeypatch.setattr(linprog, "_MAX_SIMPLEX_ITERS", 1)
    inst = sp.gen_instance(6, 4, seed=12)
    scens = sp.gen_scenarios(inst, 16, seed=13)
    for p in (sp.build_sp(inst, scens),
              sp.build_ro_ell(inst, sp.estimate_box(scens), 2.75)):
        sol = sp.solve_lp(p, cfg)
        assert sol.status is Status.ITER_LIMIT
        assert sol.objective == math.inf and sol.gap == math.inf
        assert not sol.values


def test_validation_errors():
    p = sp.LinearProblem()
    p.add_var("x")
    with pytest.raises(ValueError):
        p.add_var("x")
    with pytest.raises(ValueError):
        p.add_var("bad", lb=2.0, ub=1.0)
    for bounds in ({"lb": math.nan}, {"ub": math.nan}, {"lb": math.inf},
                   {"ub": -math.inf}):
        with pytest.raises(ValueError, match="is nan or"):
            p.add_var("bad", **bounds)
    for obj in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite objective"):
            p.add_var("bad", obj=obj)
    with pytest.raises(ValueError):
        p.add_row({"nope": 1.0}, "<=", 0.0)
    with pytest.raises(ValueError):
        p.add_row({"x": float("nan")}, "<=", 0.0)
    with pytest.raises(ValueError):
        p.add_row({"x": 1.0}, "<", 0.0)
    with pytest.raises(ValueError):
        p.add_row({"x": 1.0}, "<=", float("inf"))
    # cone coefficients are checked as row ones
    for cone in (ConeRow("x", {"x": math.nan}, [{"x": 1.0}], scale=1.0),
                 ConeRow("x", {}, [{"x": 1.0}, {"x": math.inf}], scale=1.0)):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            p.add_cone(cone)
    assert helpers.cones(p) == []


def test_block_appends_check_each_block_at_once():
    """Index-form blocks take the dict path's checks, and a rejected block
    leaves the problem as it was."""
    p = sp.LinearProblem()
    assert p.add_vars(["a", "b"], ub=[1.0, math.inf]) == 0
    bad_blocks = (
        (lambda: p.add_vars(["c", "c"]), "duplicate variable 'c'"),
        (lambda: p.add_vars(["c", "d"], lb=[0.0, math.nan]), "lb of 'd'"),
        (lambda: p.add_rows(Rows([2], [0, 2], [1.0, 1.0]), 0.0, 1.0),
         "undeclared column"),
        (lambda: p.add_rows(Rows([2], [0], [1.0, 1.0]), 0.0, 1.0),
         "disagree"),
        (lambda: p.add_rows(Rows([1, 1], [0, 1], [1.0, math.inf]), 0.0, 1.0),
         "non-finite coefficient on 'b'"),
        (lambda: p.add_rows(Rows([1, 1], [0, 1], [1.0, 1.0]), [0.0, math.nan],
                            math.inf), "non-finite right hand side"),
        (lambda: p.add_costs([0, 1], [1.0, math.nan]), "non-finite coefficient"),
        (lambda: p.add_cones([0, 1], Rows([0, 0]), Rows([1, 1], [1, 0],
                                                        [1.0, 1.0]),
                             [1, 1], [1.0, -1.0]), "cone scale"))
    for append, message in bad_blocks:
        with pytest.raises(ValueError, match=message):
            append()
    assert p.var_names == ["a", "b"] and p.obj.tolist() == [0.0, 0.0]
    assert p.lo.size == 0 and p.epi.size == 0
    p.add_vars(["c"])     # the index still holds a and b only
    assert p.columns(["c", "a"]).tolist() == [2, 0]


def test_add_obj_rejects_non_finite_and_undeclared(tight):
    p = sp.LinearProblem()
    p.add_var("x", obj=1.0)
    for name, coeff, error in (("x", math.nan, "non-finite coefficient"),
                               ("x", math.inf, "non-finite coefficient"),
                               ("y", 1.0, "undeclared variable")):
        with pytest.raises(ValueError, match=error):
            p.add_obj(name, coeff)
    assert p.obj == [1.0]
    # a NaN buying cost used to give an OPTIMAL wait-and-see value of nan
    with pytest.raises(ValueError, match="non-finite coefficient"):
        sp.build_ws(tight, [90.0, 110.0], [math.nan, 9.0])


def test_add_var_accepts_infinite_bounds_on_the_open_side(cfg):
    p = sp.LinearProblem()
    p.add_var("x", obj=1.0, lb=-math.inf, ub=math.inf)
    p.add_row({"x": 1.0}, ">=", -3.0)
    assert sp.solve_lp(p, cfg).objective == pytest.approx(-3.0, abs=1e-9)


def test_row_form_keeps_row_order_and_relations():
    p = sp.LinearProblem()
    p.add_var("x", obj=1.0, ub=10.0)
    p.add_var("y", obj=2.0, lb=None)
    p.add_row({"x": 1.0, "y": 1.0}, ">=", 2.0)
    p.add_row({"y": 3.0}, "==", 1.5)
    p.add_row({"x": -1.0}, "<=", 4.0)
    c, A, lo, hi, col_lo, col_hi = _row_form(p)
    assert c.tolist() == [1.0, 2.0]
    assert A.toarray().tolist() == [[1.0, 1.0], [0.0, 3.0], [-1.0, 0.0]]
    assert lo.tolist() == [2.0, 1.5, -math.inf]
    assert hi.tolist() == [math.inf, 1.5, 4.0]
    assert col_lo.tolist() == [0.0, -math.inf]
    assert col_hi.tolist() == [10.0, math.inf]


def _lp_case(cfg):
    p = _simple_problem()
    p.objective_offset = 100.0
    sol = sp.solve_lp(p, cfg)
    assert sol.objective == pytest.approx(91.0, abs=1e-9)
    assert sol.values["y"] == pytest.approx(4.0, abs=1e-9)


def _mip_case(cfg):
    sol = sp.solve_lp(helpers.knapsack(), cfg)
    assert sol.objective == pytest.approx(-9.0, abs=1e-6)


def _integer_pricing_case(cfg):
    inst = helpers.one_arc_instance()
    costs = sp.price_draws(inst, {inst.arcs[0].key: 3.0}, [[30.0], [50.0]],
                           [[8.0], [8.0]], False, cfg)
    assert all(map(math.isfinite, costs))


@pytest.mark.parametrize("module, case, solves", [
    (linprog, _lp_case, 1), (linprog, _mip_case, 1),
    (framework, _integer_pricing_case, 2)],
    ids=["solve_lp", "solve_lp_mip", "price_draws_integer"])
def test_solve_lp_solves_through_run_highs(module, case, solves, cfg,
                                           monkeypatch):
    """Each solve path calls ``run_highs`` where it resolves the name, once
    per solve and cold: an integer draw carries no basis."""
    calls, run = [], module.run_highs

    def counting(*args, **kwargs):
        calls.append(args[6] if len(args) > 6 else kwargs.get("basis"))
        return run(*args, **kwargs)

    monkeypatch.setattr(module, "run_highs", counting)
    case(cfg)
    assert calls == [None] * solves


def test_every_export_resolves():
    missing = [name for name in sp.__all__ if not hasattr(sp, name)]
    assert missing == []


def test_problem_without_variables_is_a_backend_failure(cfg):
    """HiGHS reports an empty model as "Empty", which no Status stands for."""
    with pytest.raises(RuntimeError, match="Empty"):
        sp.solve_lp(sp.LinearProblem(), cfg)


def test_matches_vertex_enumeration_on_random_lps(cfg):
    rng = np.random.default_rng(2024)
    for _ in range(25):
        p = helpers.random_lp(rng)
        sol = sp.solve_lp(p, cfg)
        assert sol.optimal
        assert sol.objective == pytest.approx(helpers.enumerate_lp(p), abs=1e-7)


def test_solver_config_validation():
    for bad in (-5, math.nan, 2.5):
        with pytest.raises(ValueError, match="integer >= 0"):
            sp.SolverConfig(max_bb_nodes=bad)
    assert sp.SolverConfig(max_bb_nodes=0).max_bb_nodes == 0


def test_highs_defaults_are_the_documented_tolerances():
    """``SolverConfig`` leaves these to HiGHS; a scipy upgrade that changes
    them, or moves the binding, must fail here rather than shift results."""
    from scipy.optimize._highspy._core import HighsOptions

    opts = HighsOptions()
    assert opts.primal_feasibility_tolerance == 1e-7
    assert opts.dual_feasibility_tolerance == 1e-7
    assert opts.mip_feasibility_tolerance == 1e-6
    assert opts.mip_abs_gap == 1e-6


def test_run_highs_warm_start_matches_a_cold_solve():
    """A row appended to a solved LP and re-solved from its basis gives the
    optimum ``solve_lp`` finds from scratch."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = helpers.random_lp(rng)
        c, A, lo, hi, col_lo, col_hi = _row_form(p)
        first, _, basis = run_highs(c, A, lo, hi, col_lo, col_hi)
        assert first.optimal
        cut = {f"v{i}": float(rng.uniform(-3, 3)) for i in range(p.num_vars)}
        rhs = float(rng.uniform(-2, 0))   # the origin stays feasible
        p.add_row(cut, ">=", rhs)
        cut_row = _row_form(p)[1][-1:]
        A = scipy.sparse.vstack([A, cut_row], format="csr")
        warm, _, _ = run_highs(c, A, np.append(lo, rhs), np.append(hi, np.inf),
                               col_lo, col_hi, basis)
        assert warm.optimal
        assert warm.objective == pytest.approx(sp.solve_lp(p).objective,
                                               abs=1e-7)


def test_run_highs_rejects_arrays_that_do_not_match_the_matrix():
    c, A, lo, hi, col_lo, col_hi = _row_form(_simple_problem())
    with pytest.raises(ValueError, match="match A's shape"):
        run_highs(c, A, lo[:-1], hi, col_lo, col_hi)
    with pytest.raises(ValueError, match="match A's shape"):
        run_highs(c[:-1], A, lo, hi, col_lo, col_hi)
    with pytest.raises(ValueError, match="match A's shape"):
        run_highs(c, A, lo, hi, col_lo, col_hi, integrality=[1])
