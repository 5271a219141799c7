"""Invariants of the planner over small random instances.

Sizes and seeds are drawn by Hypothesis; ``derandomize=True`` makes every run
draw the same examples, so a failure reproduces without a stored database.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import supplyplan as sp

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
    box = sp.estimate_box(scens, scens.S)
    ell = sp.solve_cone(sp.build_ro_ell(inst, box, omega))
    adj = sp.solve_cone(sp.build_trsocp(inst, scens, omega))
    assert ell.optimal and adj.optimal
    assert adj.objective <= ell.objective + 1e-5 * abs(ell.objective)


@PROPERTY
@given(planning_cases(), st.floats(min_value=0.0, max_value=4.0),
       st.sampled_from([1e-6, 1e-4]))
def test_optimal_cone_solves_meet_the_tolerance(case, omega, cone_tol):
    inst, scens = case
    cfg = sp.SolverConfig(cone_tol=cone_tol)
    box = sp.estimate_box(scens, scens.S)
    for p in (sp.build_ro_ell(inst, box, omega),
              sp.build_trsocp(inst, scens, omega)):
        sol = sp.solve_cone(p, cfg)
        if sol.optimal:
            assert sol.cone_residual <= cfg.cone_tol
