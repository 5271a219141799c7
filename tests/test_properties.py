"""Invariants of the planner over small random instances.

Sizes and seeds are drawn by Hypothesis; ``derandomize=True`` makes every run
draw the same examples, so a failure reproduces without a stored database.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supplyplan as sp
from supplyplan import linprog

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None,
                    database=None)

seeds = st.integers(min_value=0, max_value=10_000)


@st.composite
def planning_cases(draw, min_scenarios=2, max_scenarios=6):
    """(instance, scenario set) from the package generator."""
    inst = sp.gen_instance(draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                           seed=draw(seeds))
    n = draw(st.integers(min_scenarios, max_scenarios))
    return inst, sp.gen_scenarios(inst, n, seed=draw(seeds))


def _tol(value: float) -> float:
    return 1e-6 * max(1.0, abs(value))


@PROPERTY
@given(planning_cases(min_scenarios=4, max_scenarios=6))
def test_wait_and_see_below_every_finite_cell(case):
    inst, scens = case
    report = sp.run_comparison(inst, scens, sbar=scens.S - 2)
    for tau in report.taus:
        ws = report.cost("ws", tau)
        assert math.isfinite(ws)
        for m in report.methods:
            cell = report.cost(m, tau)
            if math.isfinite(cell):
                assert ws <= cell + _tol(cell), (m, tau, ws, cell)


@PROPERTY
@given(planning_cases(), st.floats(min_value=0.0, max_value=4.0))
def test_adjustable_below_static_ellipsoid(case, omega):
    """Copying the static recourse into every scenario block is feasible for
    the adjustable counterpart, whose scenario demands lie below the box
    corner, so its optimum is no larger."""
    inst, scens = case
    box = sp.estimate_box(scens)
    ell = sp.solve_lp(sp.build_ro_ell(inst, box, omega))
    adj = sp.solve_lp(sp.build_trsocp(inst, scens, box, omega))
    assert ell.optimal and adj.optimal
    assert adj.objective <= ell.objective + 1e-5 * abs(ell.objective)


@PROPERTY
@given(planning_cases(), st.floats(min_value=0.0, max_value=4.0),
       st.sampled_from([1e-6, 1e-4]))
def test_optimal_cone_solves_meet_the_tolerance(case, omega, cone_tol):
    inst, scens = case
    box = sp.estimate_box(scens)
    # a function-scoped monkeypatch fixture fails Hypothesis's health check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linprog, "_CONE_TOL", cone_tol)
        for p in (sp.build_ro_ell(inst, box, omega),
                  sp.build_trsocp(inst, scens, box, omega)):
            sol = sp.solve_lp(p)
            if sol.optimal:
                assert sol.cone_residual <= cone_tol


@PROPERTY
@given(planning_cases(min_scenarios=4, max_scenarios=6),
       st.floats(min_value=0.0, max_value=4.0))
def test_hull_rule_never_beats_optimal_recourse(case, omega):
    """m4 and m5 share the trSOCP booking; m4 prices it by the optimal
    recourse, m5 by the hull decision rule, a feasible recourse."""
    inst, scens = case
    report = sp.run_comparison(inst, scens, sbar=scens.S - 2,
                               methods=["m4", "m5"], omega=omega)
    for tau in report.taus:
        m4, m5 = report.cost("m4", tau), report.cost("m5", tau)
        if math.isfinite(m4) and math.isfinite(m5):
            assert m5 >= m4 - 1e-9 * max(1.0, abs(m4)), (tau, m4, m5)


def _box_and_ellipsoid(case, omega):
    inst, scens = case
    box = sp.estimate_box(scens)
    box_sol = sp.solve_lp(sp.build_ro_box(inst, box))
    ell_sol = sp.solve_lp(sp.build_ro_ell(inst, box, omega))
    assert box_sol.optimal and ell_sol.optimal
    return box_sol.objective, ell_sol.objective


@PROPERTY
@given(planning_cases())
def test_box_below_ellipsoid_at_root_d(case):
    """||u||_1 <= sqrt(D) ||u||_2: the cost ellipsoid of radius sqrt(D)
    protects at least the box's worst corner."""
    box, ell = _box_and_ellipsoid(case, math.sqrt(case[1].D))
    assert box <= ell + 1e-5 * abs(ell)


@PROPERTY
@given(planning_cases())
def test_ellipsoid_below_box_at_unit_radius(case):
    """||u||_2 <= ||u||_1: the unit cost ellipsoid lies inside the box."""
    box, ell = _box_and_ellipsoid(case, 1.0)
    assert ell <= box + 1e-5 * abs(box)


@PROPERTY
@given(planning_cases())
def test_evpi_is_nonnegative(case):
    inst, scens = case
    sp_sol = sp.solve_lp(sp.build_sp(inst, scens))
    ws = [sp.solve_lp(sp.build_ws(inst, scens.demands[s], scens.costs[s]))
          for s in range(scens.S)]
    assert sp_sol.optimal and all(w.optimal for w in ws)
    evpi = sp.compute_evpi(sp_sol.objective, [w.objective for w in ws],
                           scens.probs)
    assert evpi >= -_tol(sp_sol.objective)
