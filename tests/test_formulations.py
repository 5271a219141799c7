import dataclasses
import math

import numpy as np
import pytest

import supplyplan as sp
from supplyplan.formulations import PHI_ZERO_TOL

import helpers


# -- one-arc network against the grid oracle --------------------------------

@pytest.mark.parametrize("probs, expected", [
    ([0.5, 0.5], 90.0), ([0.3, 0.7], 94.0), ([0.8, 0.2], 84.0)],
    ids=["0.5-0.5", "0.3-0.7", "0.8-0.2"])
def test_sp_matches_grid_oracle(one_arc, one_arc_scens, cfg, probs, expected):
    scens = sp.ScenarioSet(one_arc_scens.demands, one_arc_scens.costs,
                           np.array(probs), one_arc_scens.dest_ids)
    sol = sp.solve_lp(sp.build_sp(one_arc, scens), cfg)
    oracle = helpers.one_arc_sp_oracle(one_arc, [30.0, 50.0], probs)
    assert sol.objective == pytest.approx(oracle, abs=1e-7)
    assert sol.objective == pytest.approx(expected, abs=1e-7)


def test_ws_matches_grid_oracle(one_arc, one_arc_scens, cfg):
    for d, expected in ((30.0, 60.0), (50.0, 100.0)):
        sol = sp.solve_lp(sp.build_ws(one_arc, [d], [8.0]), cfg)
        oracle = min(helpers.one_arc_recourse_oracle(one_arc, x, d)
                     for x in range(11))
        assert sol.objective == pytest.approx(oracle, abs=1e-7)
        assert sol.objective == pytest.approx(expected, abs=1e-7)


def test_recourse_matches_grid_oracle(one_arc, cfg):
    key = one_arc.arcs[0].key
    for x, d, expected in ((5.0, 30.0, 80.0), (3.0, 50.0, 220.0)):
        p = sp.build_recourse(one_arc, {key: x}, [d], [8.0])
        sol = sp.solve_lp(p, cfg)
        oracle = helpers.one_arc_recourse_oracle(one_arc, x, d)
        assert sol.objective == pytest.approx(oracle, abs=1e-7)
        assert sol.objective == pytest.approx(expected, abs=1e-7)


def test_ro_box_matches_grid_oracle(one_arc, one_arc_scens, cfg):
    box = sp.estimate_box(one_arc_scens)
    sol = sp.solve_lp(sp.build_ro_box(one_arc, box), cfg)
    assert sol.objective == pytest.approx(
        helpers.one_arc_robox_oracle(one_arc, 50.0), abs=1e-7)
    assert sol.objective == pytest.approx(100.0, abs=1e-7)
    # costs 6 and 10: the worst corner buys at 10. With the booking capped
    # at 3 vehicles, 2 of the 5 the corner demand needs are bought at 10.
    scens = sp.ScenarioSet(one_arc_scens.demands, np.array([[6.0], [10.0]]),
                           dest_ids=one_arc_scens.dest_ids)
    box = sp.estimate_box(scens)
    capped = dataclasses.replace(one_arc, destinations=(
        dataclasses.replace(one_arc.destinations[0], g=30.0),))
    for inst, bookings, expected in ((one_arc, range(11), 100.0),
                                     (capped, range(4), 260.0)):
        sol = sp.solve_lp(sp.build_ro_box(inst, box), cfg)
        oracle = min(helpers.one_arc_recourse_oracle(inst, x, 50.0, b=10.0)
                     for x in bookings)
        assert sol.objective == pytest.approx(oracle, abs=1e-7)
        assert sol.objective == pytest.approx(expected, abs=1e-7)


def test_evpi_on_one_arc(one_arc, one_arc_scens, cfg):
    sp_val = sp.solve_lp(sp.build_sp(one_arc, one_arc_scens), cfg).objective
    ws = [sp.solve_lp(sp.build_ws(one_arc, one_arc_scens.demands[s],
                                  one_arc_scens.costs[s]), cfg).objective
          for s in range(2)]
    assert sp.compute_evpi(sp_val, ws) == pytest.approx(10.0, abs=1e-7)


# -- collapse and consistency properties ------------------------------------

def test_sp_single_scenario_equals_ws(tight, tight_scens, cfg):
    single = tight_scens.head(1)
    a = sp.solve_lp(sp.build_sp(tight, single), cfg).objective
    b = sp.solve_lp(sp.build_ws(tight, single.demands[0], single.costs[0]),
                    cfg).objective
    assert a == pytest.approx(b, rel=1e-9)


def test_ro_box_zero_deviation_equals_ws_at_nominal(tight, tight_scens, cfg):
    box = sp.estimate_box(tight_scens)
    box.d_dev = np.zeros_like(box.d_dev)
    box.b_dev = np.zeros_like(box.b_dev)
    a = sp.solve_lp(sp.build_ro_box(tight, box), cfg).objective
    b = sp.solve_lp(sp.build_ws(tight, box.d_nominal, box.b_nominal),
                    cfg).objective
    assert a == pytest.approx(b, rel=1e-9)


def test_ro_ell_omega_zero_equals_nominal_cost_box(tight, tight_scens, cfg):
    box = sp.estimate_box(tight_scens)
    p = sp.build_ro_ell(tight, box, 0.0)
    a = sp.solve_cone(p, cfg).objective
    nominal = sp.BoxParams(box.d_nominal, box.d_dev, box.b_nominal,
                           np.zeros_like(box.b_dev))
    b = sp.solve_lp(sp.build_ro_box(tight, nominal), cfg).objective
    assert a == pytest.approx(b, rel=1e-7)


def test_ro_ell_between_nominal_and_box(tight, tight_scens, cfg):
    """Omega = sqrt(D) dominates the box worst case (norm inequality)."""
    box = sp.estimate_box(tight_scens)
    box_val = sp.solve_lp(sp.build_ro_box(tight, box), cfg).objective
    omega = math.sqrt(tight_scens.D)
    p = sp.build_ro_ell(tight, box, omega)
    ell_val = sp.solve_cone(p, cfg).objective
    assert ell_val >= box_val - 1e-6 * abs(box_val)


def test_trsocp_below_ro_ell(tight, tight_scens, cfg):
    box = sp.estimate_box(tight_scens)
    p = sp.build_ro_ell(tight, box, 2.75)
    ell_val = sp.solve_cone(p, cfg).objective
    p4 = sp.build_trsocp(tight, tight_scens, 2.75)
    tr_val = sp.solve_cone(p4, cfg).objective
    assert tr_val <= ell_val + 1e-5 * abs(ell_val)


def test_trsocp_empty_scenarios_rejected(tight):
    with pytest.raises(ValueError):
        sp.build_sp(tight, sp.ScenarioSet(np.zeros((1, 2))))  # no costs
    with pytest.raises(ValueError):
        sp.build_trsocp(tight, sp.ScenarioSet(np.zeros((1, 2))), 1.0)


def test_integer_sp_books_whole_vehicles(one_arc, cfg):
    scens = sp.ScenarioSet(np.array([[33.0], [47.0]]),
                           np.array([[8.0], [8.0]]))
    sol = sp.solve_lp(sp.build_sp(one_arc, scens, relax=False), cfg)
    fs = sp.extract_first_stage(one_arc, sol)
    x = fs.x[one_arc.arcs[0].key]
    assert x == pytest.approx(round(x), abs=1e-6)


def test_recourse_infeasible_when_minimum_unreachable(cfg):
    inst = sp.Instance(
        q=10.0, alpha=0.5,
        suppliers=(sp.Supplier("s1", 50.0, 100.0, ("p1",)),),
        destinations=(sp.Destination("d1", 8.0, 100.0),),
        arcs=(sp.Arc("s1", "p1", "d1", 2.0),))
    # booking 2 vehicles caps q*z at 20 < minimum 50
    cost = sp.evaluate_recourse(inst, {("s1", "p1", "d1"): 2.0}, [30.0], [8.0],
                                cfg=cfg)
    assert math.isinf(cost)


def test_extract_first_stage_clamps_negatives(one_arc):
    sol = sp.Solution(sp.Status.OPTIMAL, 0.0,
                      {"x[p1,s1,d1]": -1e-9})
    fs = sp.extract_first_stage(one_arc, sol)
    assert fs.x[one_arc.arcs[0].key] == 0.0


# -- adjustable recovery -----------------------------------------------------

def test_recover_matches_block_on_scenario_point(tight, tight_scens, cfg):
    p = sp.build_trsocp(tight, tight_scens, 2.75)
    sol = sp.solve_cone(p, cfg)
    lam = np.zeros(tight_scens.S)
    lam[2] = 1.0
    y, z = sp.recover_adjustable_m5(tight, sol, lam, 0.0,
                                    tight_scens.demands[2])
    from supplyplan.model import y_name, z_name
    for dest in tight.destinations:
        assert y[dest.id] == pytest.approx(sol.values[y_name(dest.id, 2)])
    for a in tight.arcs:
        assert z[a.key] == pytest.approx(sol.values[z_name(a, 2)])


def test_recover_rejects_bad_lambda(tight, tight_scens, cfg):
    p = sp.build_trsocp(tight, tight_scens, 2.75)
    sol = sp.solve_cone(p, cfg)
    with pytest.raises(ValueError):
        sp.recover_adjustable_m5(tight, sol, np.full(tight_scens.S, 0.5), 0.0,
                                 tight_scens.demands[0])


def test_recover_raises_outside_hull(tight, tight_scens, cfg):
    p = sp.build_trsocp(tight, tight_scens, 2.75)
    sol = sp.solve_cone(p, cfg)
    d = tight_scens.demands[0]
    lam = np.zeros(tight_scens.S)
    lam[0] = 1.0
    phi = 10.0 * PHI_ZERO_TOL * (float(d @ d) + 1.0)
    with pytest.raises(sp.PhiPositive):
        sp.recover_adjustable_m5(tight, sol, lam, phi, d)
