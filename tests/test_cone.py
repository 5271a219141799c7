import math

import numpy as np
import pytest

import supplyplan as sp
from supplyplan.cone import ConeRow
from supplyplan.linprog import Status


def _norm_problem(point, omega):
    """min w s.t. w >= omega * ||x||, x fixed at ``point`` by equality rows."""
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    terms = []
    for i, v in enumerate(point):
        p.add_var(f"x{i}", lb=None)
        p.add_row({f"x{i}": 1.0}, "==", float(v))
        terms.append({f"x{i}": 1.0})
    p.add_cone(ConeRow("w", {}, terms, scale=omega))
    return p


def test_matches_euclidean_norm(cfg):
    point = [3.0, -4.0]
    p = _norm_problem(point, omega=2.0)
    sol = sp.solve_cone(p, cfg)
    assert sol.optimal
    assert sol.objective == pytest.approx(10.0, rel=1e-5)
    assert sol.cone_residual <= cfg.cone_tol


def test_higher_dimension_norm(cfg):
    point = [1.0, 2.0, -2.0, 4.0, 0.5]
    p = _norm_problem(point, omega=1.0)
    sol = sp.solve_cone(p, cfg)
    assert sol.objective == pytest.approx(np.linalg.norm(point), rel=1e-5)


def test_omega_zero_reduces_to_linear(cfg):
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("x", lb=None)
    p.add_row({"x": 1.0}, "==", 5.0)
    p.add_cone(ConeRow("w", {"x": 2.0}, [{"x": 1.0}], scale=0.0))
    sol = sp.solve_cone(p, cfg)
    assert sol.optimal and sol.objective == pytest.approx(10.0, abs=1e-7)


def test_affine_part_shifts_epigraph(cfg):
    p = _norm_problem([3.0, 4.0], omega=1.0)
    p.cones[0].affine_part = {"x0": 1.0}  # w >= x0 + ||x||
    sol = sp.solve_cone(p, cfg)
    assert sol.objective == pytest.approx(8.0, rel=1e-5)


def test_multiple_cones_take_the_max(cfg):
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("x", lb=None)
    p.add_row({"x": 1.0}, "==", 2.0)
    p.add_cone(ConeRow("w", {}, [{"x": 1.0}], scale=1.0))
    p.add_cone(ConeRow("w", {}, [{"x": 1.0}], scale=3.0))
    sol = sp.solve_cone(p, cfg)
    assert sol.objective == pytest.approx(6.0, rel=1e-5)


def test_objective_nondecreasing_in_omega(cfg):
    values = []
    for omega in (0.0, 0.5, 1.0, 2.0, math.sqrt(15.0)):
        p = _norm_problem([1.5, -2.5, 0.5], omega)
        sol = sp.solve_cone(p, cfg)
        assert sol.optimal
        values.append(sol.objective)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-7


def test_outer_approximation_is_a_lower_bound(cfg):
    # with a coarse cut budget the OA value must not exceed the true optimum
    loose = sp.SolverConfig(max_cut_rounds=1)
    p = _norm_problem([3.0, 4.0, 5.0], omega=1.0)
    sol = sp.solve_cone(p, loose)
    true = float(np.linalg.norm([3.0, 4.0, 5.0]))
    assert sol.objective <= true + 1e-9
    if sol.status is Status.CUT_LIMIT:
        assert sol.cone_residual > 0


def test_cut_limit_status():
    cfg = sp.SolverConfig(max_cut_rounds=1, cone_tol=1e-12)
    p = _norm_problem(list(range(1, 9)), omega=1.0)
    sol = sp.solve_cone(p, cfg)
    assert sol.status in (Status.CUT_LIMIT, Status.OPTIMAL)


def test_rejects_integer_marks(cfg):
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("n", ub=3.0, integer=True)
    p.add_cone(ConeRow("w", {}, [{"n": 1.0}], scale=1.0))
    with pytest.raises(ValueError):
        sp.solve_cone(p, cfg)


def test_add_cone_rejects_undeclared_names():
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("x", lb=None)
    for cone in (ConeRow("v", {}, [{"x": 1.0}], scale=1.0),
                 ConeRow("w", {"u": 1.0}, [{"x": 1.0}], scale=1.0),
                 ConeRow("w", {}, [{"x": 1.0}, {"u": 1.0}], scale=1.0)):
        with pytest.raises(ValueError, match="undeclared"):
            p.add_cone(cone)
    assert p.cones == []


def test_copy_carries_cone_rows(cfg):
    p = _norm_problem([3.0, 4.0], omega=1.0)
    dup = p.copy()
    assert dup.cones == p.cones
    dup.add_cone(ConeRow("w", {}, [{"x0": 1.0}], scale=3.0))
    assert len(p.cones) == 1  # the copy's list is its own
    assert sp.solve_cone(dup, cfg).objective == pytest.approx(9.0, rel=1e-5)


def test_negative_scale_rejected():
    with pytest.raises(ValueError):
        ConeRow("w", {}, [{"x": 1.0}], scale=-1.0)


def test_violation_is_relative():
    cone = ConeRow("w", {}, [{"x": 1.0}], scale=1.0)
    rel, t = cone.violation({"w": 0.0, "x": 200.0})
    assert rel == pytest.approx(1.0)  # (200 - 0) / max(1, 200)
    assert t[0] == 200.0
