import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import supplyplan as sp
from supplyplan import linprog
from supplyplan.formulations import PHI_ZERO_TOL
from supplyplan.linprog import _row_form

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
    a = sp.solve_lp(p, cfg).objective
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
    ell_val = sp.solve_lp(p, cfg).objective
    assert ell_val >= box_val - 1e-6 * abs(box_val)


def test_trsocp_below_ro_ell(tight, tight_scens, cfg):
    box = sp.estimate_box(tight_scens)
    p = sp.build_ro_ell(tight, box, 2.75)
    ell_val = sp.solve_lp(p, cfg).objective
    p4 = sp.build_trsocp(tight, tight_scens, box, 2.75)
    tr_val = sp.solve_lp(p4, cfg).objective
    assert tr_val <= ell_val + 1e-5 * abs(ell_val)


def test_trsocp_empty_scenarios_rejected(tight):
    no_costs = sp.ScenarioSet(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        sp.build_sp(tight, no_costs)
    with pytest.raises(ValueError):
        sp.build_trsocp(tight, no_costs, sp.estimate_box(no_costs), 1.0)


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
    cost, = sp.price_draws(inst, {("s1", "p1", "d1"): 2.0}, [[30.0]], [[8.0]],
                           cfg=cfg)
    assert math.isinf(cost)


def test_extract_first_stage_clamps_negatives(one_arc):
    sol = sp.Solution(sp.Status.OPTIMAL, 0.0,
                      {"x[p1,s1,d1]": -1e-9})
    fs = sp.extract_first_stage(one_arc, sol)
    assert fs.x[one_arc.arcs[0].key] == 0.0


# -- adjustable recovery -----------------------------------------------------

def test_recover_matches_block_on_scenario_point(tight, tight_scens, cfg):
    box = sp.estimate_box(tight_scens)
    p = sp.build_trsocp(tight, tight_scens, box, 2.75)
    sol = sp.solve_lp(p, cfg)
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
    box = sp.estimate_box(tight_scens)
    p = sp.build_trsocp(tight, tight_scens, box, 2.75)
    sol = sp.solve_lp(p, cfg)
    with pytest.raises(ValueError):
        sp.recover_adjustable_m5(tight, sol, np.full(tight_scens.S, 0.5), 0.0,
                                 tight_scens.demands[0])


def test_recover_raises_outside_hull(tight, tight_scens, cfg):
    box = sp.estimate_box(tight_scens)
    p = sp.build_trsocp(tight, tight_scens, box, 2.75)
    sol = sp.solve_lp(p, cfg)
    d = tight_scens.demands[0]
    lam = np.zeros(tight_scens.S)
    lam[0] = 1.0
    phi = 10.0 * PHI_ZERO_TOL * (float(d @ d) + 1.0)
    with pytest.raises(sp.PhiPositive):
        sp.recover_adjustable_m5(tight, sol, lam, phi, d)


# -- stacked blocks against the row-by-row build -----------------------------

class _FirstLP(Exception):
    pass


def _first_lp(p):
    """The arguments of the first HiGHS call ``solve_lp(p)`` makes: for a
    cone problem, the cut loop's first LP, whose link rows are ``E`` and
    whose initial cuts are written on ``T``."""
    def stop(*args, **kwargs):
        raise _FirstLP(args[:6])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(linprog, "run_highs", stop)
        with pytest.raises(_FirstLP) as caught:
            sp.solve_lp(p)
    return caught.value.args[0]


def _assert_identical(got, want):
    """Byte-identical ``c, A, lo, hi, col_lo, col_hi``, CSR arrays of ``A``
    included."""
    def arrays(form):
        for v in form:
            yield from ((v.indptr, v.indices, v.data)
                        if scipy.sparse.issparse(v) else (v,))
    assert [v.shape for v in got] == [v.shape for v in want]
    for u, v in zip(arrays(got), arrays(want), strict=True):
        assert u.dtype == v.dtype and np.array_equal(u, v)
        assert u.tobytes() == v.tobytes()


@st.composite
def _instances(draw):
    """Generator instances with supplier minima r > 0 on some suppliers,
    initial inventory l0 > 0 on some destinations and any refund alpha."""
    inst = sp.gen_instance(draw(st.integers(1, 5)), draw(st.integers(1, 4)),
                           seed=draw(st.integers(0, 10_000)))
    share = st.sampled_from([0.0, 0.0, 0.2, 0.5])
    return dataclasses.replace(
        inst, alpha=draw(st.sampled_from([0.0, 0.3, 0.75, 1.0])),
        suppliers=tuple(dataclasses.replace(s, r=draw(share) * s.v)
                        for s in inst.suppliers),
        destinations=tuple(dataclasses.replace(d, l0=draw(share) * d.g)
                           for d in inst.destinations))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(inst=_instances(), n=st.integers(1, 12), seed=st.integers(0, 100),
       omega=st.sampled_from([0.0, 1.0, 2.75]), relax=st.booleans(),
       data=st.data())
def test_every_builder_matches_the_row_by_row_build(inst, n, seed, omega,
                                                   relax, data):
    """``_row_form`` of each builder equals that of a plain row-by-row
    build with the public ``add_var``/``add_row``/``add_cone``, and so does
    the first LP of the cut loop on m3 and m4: HiGHS receives the same
    bytes."""
    scens = sp.gen_scenarios(inst, n + 1, seed=seed)
    box = sp.estimate_box(scens.head(n))
    d, b = scens.demands[-1], scens.costs[-1]
    booking = {a.key: data.draw(st.sampled_from([-1.0, 0.0, 0.5, 3.0]))
               for a in inst.arcs}
    cases = [
        (sp.build_sp(inst, scens, relax), helpers.rowwise_expected(
            inst, scens.demands, scens.costs, scens.probs, relax,
            range(scens.S))),
        (sp.build_ws(inst, d, b, relax), helpers.rowwise_expected(
            inst, [d], [b], [1.0], relax, [None])),
        (sp.build_ro_box(inst, box, relax), helpers.rowwise_expected(
            inst, [box.d_corner], [box.b_nominal + box.b_dev], [1.0],
            relax, [None])),
        (sp.build_recourse(inst, booking, d, b, relax),
         helpers.rowwise_recourse(inst, booking, d, b, relax))]
    cones = [
        (sp.build_ro_ell(inst, box, omega), helpers.rowwise_worst(
            inst, [box.d_corner], box, omega, [None])),
        (sp.build_trsocp(inst, scens.head(n), box, omega),
         helpers.rowwise_worst(inst, scens.demands[:n], box, omega,
                               range(n)))]
    for got, want in cases + cones:
        _assert_identical(_row_form(got), _row_form(want))
        assert got.var_names == want.var_names
        assert np.array_equal(got.integer, want.integer)
        assert got.objective_offset == want.objective_offset
    for got, want in cones:
        _assert_identical(_first_lp(got), _first_lp(want))
