import math
import time

import numpy as np
import pytest

import supplyplan as sp
from supplyplan import framework, linprog
from supplyplan.linprog import ConeRow

import helpers


@pytest.fixture(scope="module")
def small_report(tight, tight_scens):
    return sp.run_comparison(tight, tight_scens, sbar=4, omega=2.75)


def test_report_shape(small_report, tight_scens):
    assert small_report.taus == [4, 5, 6, 7]
    for tau in small_report.taus:
        for col in sp.ALL_COLUMNS:
            assert (col, tau) in small_report.cells
            assert (col, tau) in small_report.times


def test_realized_costs_floor_at_wait_and_see(small_report):
    for tau in small_report.taus:
        ws = small_report.cost("ws", tau)
        for m in sp.METHOD_COLUMNS:
            v = small_report.cost(m, tau)
            if math.isfinite(v):
                assert v >= ws - 1e-6 * max(1.0, abs(ws))


def test_aggregate_inf_poisoning():
    rep = sp.ComparisonReport(taus=[1, 2], methods=["m1"])
    rep.cells = {("m1", 1): 3.0, ("m1", 2): math.inf,
                 ("ws", 1): 1.0, ("ws", 2): 1.0}
    assert math.isinf(rep.aggregate("m1"))
    assert rep.aggregate("ws") == 2.0


def test_csv_format(small_report):
    lines = small_report.to_csv().splitlines()
    assert lines[0] == "tau,m1,m2,m3,m4,m5,ws"
    assert lines[-1].startswith("aggregate,")
    assert len(lines) == 2 + len(small_report.taus)
    for line in lines[1:]:
        cells = line.split(",")[1:]
        for cell in cells:
            assert cell == "inf" or "." in cell and len(cell.split(".")[1]) == 6


def test_csv_leaves_unrequested_methods_empty(tight, tight_scens):
    rep = sp.run_comparison(tight, tight_scens, sbar=6, methods=["m1"])
    lines = rep.to_csv().splitlines()
    # header: tau,m1,m2,m3,m4,m5,ws -> m2..m5 columns empty
    row = lines[1].split(",")
    assert row[2] == row[3] == row[4] == row[5] == ""
    assert row[1] != "" and row[6] != ""


def test_comparison_is_deterministic(tight, tight_scens, small_report):
    again = sp.run_comparison(tight, tight_scens, sbar=4, omega=2.75)
    assert again.cells == small_report.cells
    assert again.to_csv() == small_report.to_csv()


def test_row_times_account_for_the_comparison(tight, tight_scens):
    # rows run one after another in this process, so the timed cells are
    # disjoint intervals inside the call
    t0 = time.perf_counter()
    rep = sp.run_comparison(tight, tight_scens, sbar=4, omega=2.75)
    wall = time.perf_counter() - t0
    assert 0.5 * wall <= sum(rep.times.values()) <= wall


def test_comparison_needs_cost_realizations(tight, tight_scens):
    # the command line fills missing costs (test_cli); the library does not
    bare = sp.ScenarioSet(tight_scens.demands, dest_ids=tight_scens.dest_ids)
    with pytest.raises(ValueError, match="no cost realizations"):
        sp.run_comparison(tight, bare, sbar=6, methods=["m1"])
    with pytest.raises(ValueError, match="no cost realizations"):
        sp.in_sample_stability(tight, bare, [3, 6], seed=1)


def test_row_without_an_optimal_booking_is_inf(tight, tight_scens,
                                               monkeypatch):
    monkeypatch.setattr(linprog, "_MAX_SIMPLEX_ITERS", 1)
    rep = sp.run_comparison(tight, tight_scens, sbar=6, methods=["m1"])
    for tau in rep.taus:
        assert rep.cost("m1", tau) == math.inf
    assert rep.first_stages == {}


def test_price_draws_without_draws_yields_nothing(tight, small_report):
    tau = small_report.taus[0]
    for m in ("m1", "m5"):
        booking = small_report.first_stages[(m, tau)]
        assert list(sp.price_draws(tight, booking, [], [])) == []


def test_run_comparison_validation(tight, tight_scens):
    with pytest.raises(ValueError):
        sp.run_comparison(tight, tight_scens, sbar=0)
    with pytest.raises(ValueError):
        sp.run_comparison(tight, tight_scens, sbar=tight_scens.S)
    with pytest.raises(ValueError):
        sp.run_comparison(tight, tight_scens, sbar=4, methods=["m9"])


def test_m5_finite_iff_projection_inside_hull(tight, tight_scens, small_report):
    for tau in small_report.taus:
        prefix = tight_scens.head(tau)
        d_next = tight_scens.demands[tau]
        lam, phi = sp.project_simplex_lsq(d_next, list(prefix.demands))
        inside = phi <= sp.PHI_ZERO_TOL * (float(d_next @ d_next) + 1.0)
        assert math.isfinite(small_report.cost("m5", tau)) == inside


def test_compute_evpi():
    assert sp.compute_evpi(10.0, [4.0, 6.0]) == pytest.approx(5.0)
    assert sp.compute_evpi(10.0, [4.0, 6.0], probs=[1.0, 0.0]) == \
        pytest.approx(6.0)
    with pytest.raises(ValueError):
        sp.compute_evpi(10.0, [4.0], probs=[0.7])
    with pytest.raises(ValueError, match="finite and >= 0"):
        sp.compute_evpi(10.0, [1.0, 2.0], probs=[1.5, -0.5])
    with pytest.raises(ValueError, match="finite and >= 0"):
        sp.compute_evpi(10.0, [1.0, 2.0], probs=[np.nan, 1.0])
    for probs in ([1.0], [0.5, 0.25, 0.25]):
        with pytest.raises(ValueError, match="one probability per"):
            sp.compute_evpi(10.0, [1.0, 2.0], probs=probs)
    for probs in (None, []):
        with pytest.raises(ValueError, match="no wait-and-see value"):
            sp.compute_evpi(10.0, [], probs=probs)


def test_evpi_nonnegative_on_solved_instance(tight, tight_scens, cfg):
    sp_val = sp.solve_lp(sp.build_sp(tight, tight_scens), cfg).objective
    ws = [sp.solve_lp(sp.build_ws(tight, tight_scens.demands[s],
                                  tight_scens.costs[s]), cfg).objective
          for s in range(tight_scens.S)]
    assert sp.compute_evpi(sp_val, ws) >= -1e-7


def test_in_sample_stability_prefix_property(tight, tight_scens):
    a = sp.in_sample_stability(tight, tight_scens, [5, 10], seed=1)
    b = sp.in_sample_stability(tight, tight_scens, [5, 10, 20], seed=1)
    assert a == b[:2]  # smaller samples are prefixes
    with pytest.raises(ValueError):
        sp.in_sample_stability(tight, tight_scens, [10, 5], seed=1)


def test_in_sample_stability_rejects_empty_or_zero_sizes(tight, tight_scens):
    for s_list in ([], [0], [0, 5]):
        with pytest.raises(ValueError, match="sizes >= 1"):
            sp.in_sample_stability(tight, tight_scens, s_list, seed=1)


def test_monte_carlo_empty_and_determinism(tight, tight_scens, small_report):
    assert sp.monte_carlo_validation(tight, {}, 0, 0, 0.2, 0.2,
                                     [1.0, 1.0], [1.0, 1.0]) == {}
    stages = {"m1": {tau: small_report.first_stages[("m1", tau)]
                     for tau in small_report.taus}}
    d_bar = tight_scens.demands.mean(axis=0)
    b_bar = tight_scens.costs.mean(axis=0)
    a = sp.monte_carlo_validation(tight, stages, 10, 7, 0.2, 0.2, d_bar, b_bar)
    b = sp.monte_carlo_validation(tight, stages, 10, 7, 0.2, 0.2, d_bar, b_bar)
    assert a == b
    assert math.isfinite(a["m1"])


@pytest.fixture(scope="module")
def m2_bookings():
    inst = sp.gen_instance(3, 2, seed=0)
    scens = sp.gen_scenarios(inst, 6, seed=1)
    report = sp.run_comparison(inst, scens, sbar=3, methods=["m2"])
    stages = {"m2": {tau: report.first_stages[("m2", tau)]
                     for tau in report.taus}}
    return inst, scens, stages


SIGMA_ERROR = r"sigma must lie in \[0, 1\)"


@pytest.mark.parametrize("sigma", [1.5, -0.5, 1.0, math.nan])
def test_monte_carlo_rejects_sigma_outside_unit_interval(m2_bookings, sigma):
    inst, scens, stages = m2_bookings
    d_bar = scens.demands.mean(axis=0)
    b_bar = scens.costs.mean(axis=0)
    with pytest.raises(ValueError, match=SIGMA_ERROR):
        sp.monte_carlo_validation(inst, stages, 5, 0, 0.2, sigma, d_bar, b_bar)


@pytest.mark.parametrize("sigma", [1.5, -0.5, 1.0, math.nan])
def test_sigma_band_comparison_rejects_sigma_outside_unit_interval(
        m2_bookings, sigma):
    inst, scens, _ = m2_bookings
    with pytest.raises(ValueError, match=SIGMA_ERROR):
        sp.run_comparison(inst, scens, sbar=3, methods=["m2"],
                          sigma_band=sigma)


def test_sigma_band_reaches_m2_to_m4():
    """The band replaces the row's box cost deviations (20 and 1 on this
    prefix) with 0.2 of the nominal cost (10 and 12). m2, m3 and m4 book on
    that box; m1 and wait-and-see read no box."""
    inst, scens = helpers.band_instance(), helpers.band_scens()
    plain = sp.run_comparison(inst, scens, sbar=5)
    band = sp.run_comparison(inst, scens, sbar=5, sigma_band=0.2)
    for col in ("m1", "ws"):
        assert band.cost(col, 5) == plain.cost(col, 5)
    for col in ("m2", "m3", "m4"):
        assert band.cost(col, 5) != pytest.approx(plain.cost(col, 5),
                                                  rel=1e-3)


def test_stability_and_stress_reject_sigma_outside_unit_interval(
        m2_bookings):
    inst, scens, stages = m2_bookings
    with pytest.raises(ValueError, match=SIGMA_ERROR):
        sp.in_sample_stability(inst, scens, [2, 4], seed=1, sigma=1.5)
    with pytest.raises(ValueError, match=SIGMA_ERROR):
        sp.stress_worst_case(inst, stages, 0.3, -0.5,
                             scens.demands.mean(axis=0),
                             scens.costs.mean(axis=0))


def test_stress_worst_case(tight, small_report):
    stages = {m: {tau: fs for (col, tau), fs in small_report.first_stages.items()
                  if col == m} for m in ("m1", "m2")}
    out = sp.stress_worst_case(tight, stages, 0.3, 0.2,
                               [90.0, 110.0], [7.0, 9.0])
    assert set(out) == {"m1", "m2", "ws"}
    assert out["ws"] <= min(out["m1"], out["m2"]) + 1e-6


def _knapsack(integer):
    p = sp.LinearProblem()
    for name, v in (("a", -5.0), ("b", -4.0), ("c", -3.0)):
        p.add_var(name, obj=v, ub=1.0, integer=integer)
    p.add_row({"a": 2.0, "b": 3.0, "c": 1.0}, "<=", 5.0)
    return p


def test_solve_dispatches_on_the_problem(cfg):
    mip = sp.solve_lp(_knapsack(integer=True), cfg)
    assert mip.optimal and mip.objective == pytest.approx(-9.0)
    assert mip.values == {"a": 1.0, "b": 1.0, "c": 0.0}
    assert mip.lp_rounds == 1

    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("x", lb=None)
    p.add_row({"x": 1.0}, "==", -3.0)
    p.add_cone(ConeRow("w", {}, [{"x": 1.0}], scale=2.0))
    cone = sp.solve_lp(p, cfg)
    assert cone.optimal and cone.objective == pytest.approx(6.0)
    assert cone.lp_rounds >= 1

    lp = sp.solve_lp(_knapsack(integer=False), cfg)
    assert lp.optimal and lp.objective < -9.0
    assert lp.lp_rounds == 1


def test_m5_booking_carries_its_hull_rule():
    inst = sp.gen_instance(6, 2, seed=0)
    scens = sp.gen_scenarios(inst, 30, seed=1)
    report = sp.run_comparison(inst, scens, sbar=26, methods=["m4", "m5"])
    # m5 run alone solves m4's trSOCP itself, to the same bookings and cells
    alone = sp.run_comparison(inst, scens, sbar=26, methods=["m5"])
    assert alone.first_stages.keys() == {("m5", tau) for tau in report.taus}
    finite = 0
    for tau in report.taus:
        m4 = report.first_stages[("m4", tau)]
        m5 = report.first_stages[("m5", tau)]
        assert m4.hull is None and m5.hull is not None and m4 is not m5
        assert m5.x == m4.x
        v, = sp.price_draws(inst, m5, [scens.demands[tau]],
                            [scens.costs[tau]])
        assert v == report.cost("m5", tau)  # bit-for-bit, inf included
        finite += math.isfinite(v)
        m5_alone = alone.first_stages[("m5", tau)]
        assert alone.cost("m5", tau) == report.cost("m5", tau)
        assert m5_alone.x == m5.x and m5_alone.hull[1] == m5.hull[1]
        assert np.array_equal(m5_alone.hull[0], m5.hull[0])
    assert finite >= 1


def test_m5_covers_demand_the_tolerance_lets_through():
    # the third Monte Carlo draw of ``montecarlo --sbar 28`` on this instance
    # lies outside the hull but inside PHI_ZERO_TOL; the rule of its
    # projection alone under-covers it and undercut the optimal recourse
    inst = sp.gen_instance(6, 2, seed=0)
    scens = sp.gen_scenarios(inst, 30, seed=1)
    report = sp.run_comparison(inst, scens, sbar=28, methods=["m4", "m5"])
    d_bar = scens.demands.mean(axis=0)
    gamma = sp.demand_gamma(scens)
    b_bar = scens.costs.mean(axis=0)
    stream = sp.Stream(0)
    ds = stream.uniform_matrix(np.maximum(d_bar * (1 - gamma), 0.0),
                               d_bar * (1 + gamma), 3)
    bs = stream.uniform_matrix(b_bar * 0.8, b_bar * 1.2, 3)
    d, b = ds[2], bs[2]
    m4 = report.first_stages[("m4", 28)]
    m5 = report.first_stages[("m5", 28)]
    _, phi = sp.project_simplex_lsq(d, list(m5.hull[0]))
    assert 0.0 < phi <= sp.PHI_ZERO_TOL * (float(d @ d) + 1.0)
    m5_cost, = sp.price_draws(inst, m5, [d], [b])
    assert math.isfinite(m5_cost)
    assert m5_cost >= next(sp.price_draws(inst, m4, [d], [b]))


def _minimum_and_stock():
    """Supplier s1 has a minimum of 30 t, both destinations hold stock."""
    return sp.Instance(
        q=10.0, alpha=0.5,
        suppliers=(sp.Supplier("s1", 30.0, 200.0, ("p1", "p2")),
                   sp.Supplier("s2", 0.0, 150.0, ("p1",))),
        destinations=(sp.Destination("d1", 8.0, 100.0, 15.0),
                      sp.Destination("d2", 9.0, 100.0, 5.0)),
        arcs=(sp.Arc("s1", "p1", "d1", 2.0), sp.Arc("s1", "p2", "d2", 3.0),
              sp.Arc("s2", "p1", "d1", 4.0), sp.Arc("s2", "p1", "d2", 2.5)))


BOOKING = {("s1", "p1", "d1"): 3.0, ("s1", "p2", "d2"): 2.0,
           ("s2", "p1", "d1"): 1.5, ("s2", "p1", "d2"): 4.0}
# 20 t booked from s1, below its 30 t minimum
SHORT_BOOKING = {("s1", "p1", "d1"): 1.0, ("s1", "p2", "d2"): 1.0}


def _cold(inst, booking, d, b, cfg):
    return framework._objective_or_inf(
        sp.solve_lp(sp.build_recourse(inst, booking, d, b), cfg))


def test_price_draws_matches_cold_recourse(cfg):
    inst = _minimum_and_stock()
    rng = np.random.default_rng(11)
    # demands from below the stock to beyond the booking
    ds = rng.uniform(0.0, 120.0, (60, 2))
    bs = rng.uniform(6.0, 11.0, (60, 2))
    costs = list(sp.price_draws(inst, BOOKING, ds, bs, cfg=cfg))
    assert len(costs) == 60
    for cost, d, b in zip(costs, ds, bs):
        assert cost == pytest.approx(_cold(inst, BOOKING, d, b, cfg),
                                     rel=1e-12, abs=1e-9)
    assert next(sp.price_draws(inst, BOOKING, [ds[7]], [bs[7]], cfg=cfg)) \
        == pytest.approx(costs[7], rel=1e-12)


def test_price_draws_recovers_after_a_draw_without_optimum(cfg):
    # a fixed booking's recourse is infeasible at every draw or at none
    # (purchases are unbounded), so the draw without an optimum between two
    # priced ones is an unbounded one: a negative purchase cost
    inst = _minimum_and_stock()
    ds = [[60.0, 40.0], [60.0, 40.0], [70.0, 30.0]]
    bs = [[8.0, 9.0], [-1.0, 9.0], [8.5, 9.5]]
    costs = list(sp.price_draws(inst, BOOKING, ds, bs, cfg=cfg))
    assert math.isinf(costs[1])
    for i in (0, 2):
        assert costs[i] == pytest.approx(
            _cold(inst, BOOKING, ds[i], bs[i], cfg), rel=1e-12)
    short = list(sp.price_draws(inst, SHORT_BOOKING, ds[::2], bs[::2]))
    assert short == [math.inf, math.inf]


def test_integer_recourse_prices_an_unbounded_draw_as_inf(cfg):
    # HiGHS's MIP solve reports the negative purchase cost "infeasible or
    # unbounded"; the relaxation tells which, and the draw prices at inf as
    # the relaxed pricer's does
    inst = _minimum_and_stock()
    args = (inst, BOOKING, [[60.0, 40.0]], [[-1.0, 9.0]])
    assert list(sp.price_draws(*args, relax=False, cfg=cfg)) == [math.inf]
    assert list(sp.price_draws(*args, relax=True, cfg=cfg)) == [math.inf]
    p = sp.build_recourse(inst, BOOKING, [60.0, 40.0], [-1.0, 9.0],
                          relax=False)
    assert sp.solve_lp(p, cfg).status is sp.Status.UNBOUNDED


def test_monte_carlo_stops_pricing_at_the_first_inf(monkeypatch):
    inst = _minimum_and_stock()
    solves, run_highs = [], framework.run_highs

    def counting(*args):
        solves.append(1)
        return run_highs(*args)
    monkeypatch.setattr(framework, "run_highs", counting)
    fs = sp.FirstStage(BOOKING)
    stages = {"m1": {1: fs, 2: fs}, "m2": {1: sp.FirstStage(SHORT_BOOKING),
                                          2: fs}}
    out = sp.monte_carlo_validation(inst, stages, 10, 3, 0.3, 0.2,
                                    [60.0, 40.0], [8.0, 9.0])
    assert math.isfinite(out["m1"]) and math.isinf(out["m2"])
    # 10 draws for each m1 booking, one for the short m2 booking
    assert len(solves) == 21


def test_price_draws_rejects_unequal_draw_counts(monkeypatch):
    inst = _minimum_and_stock()
    monkeypatch.setattr(framework, "run_highs", None)  # no solve may start
    m5 = sp.FirstStage(BOOKING, hull=(np.zeros((1, 2)), None))
    ds = [[60.0, 40.0]] * 4
    for booking in (BOOKING, m5):
        for relax in (True, False):
            with pytest.raises(ValueError, match="4 demands but 1 costs"):
                list(sp.price_draws(inst, booking, ds, [[8.0, 9.0]], relax))


ARC = ("s1", "p1", "d1")
# (booking, demands, costs); a negative booking used to price cheaper than
# booking nothing, a nan one as nan
BAD_PRICING_INPUTS = {
    "nan cost": (BOOKING, [[60.0, 40.0]], [[math.nan, 9.0]]),
    "inf cost in draw 2": (BOOKING, [[60.0, 40.0]] * 2,
                           [[8.0, 9.0], [8.0, math.inf]]),
    "nan demand in draw 2": (BOOKING, [[60.0, 40.0], [math.nan, 40.0]],
                             [[8.0, 9.0]] * 2),
    "negative booking": ({**BOOKING, ARC: -5.0}, [[60.0, 40.0]], [[8.0, 9.0]]),
    "nan booking": ({**BOOKING, ARC: math.nan}, [[60.0, 40.0]], [[8.0, 9.0]]),
    "inf booking": ({**BOOKING, ARC: math.inf}, [[60.0, 40.0]], [[8.0, 9.0]]),
}


@pytest.mark.parametrize("case", BAD_PRICING_INPUTS)
def test_price_draws_rejects_non_finite_draws(monkeypatch, case):
    inst = _minimum_and_stock()
    x, ds, bs = BAD_PRICING_INPUTS[case]
    error = ("booking is negative or not finite" if x is not BOOKING
             else "non-finite demand or cost")
    # no draw may be priced
    monkeypatch.setattr(framework, "run_highs", None)
    monkeypatch.setattr(framework, "_price_m5", None)
    m5 = sp.FirstStage(x, hull=(np.zeros((1, 2)), None))
    for booking in (x, m5):
        for relax in (True, False):
            with pytest.raises(ValueError, match=error):
                next(sp.price_draws(inst, booking, ds, bs, relax))


def test_monte_carlo_rejects_a_non_finite_cost():
    # a NaN mean cost makes every cost draw NaN, which used to price as nan
    inst = _minimum_and_stock()
    stages = {"m1": {1: sp.FirstStage(BOOKING)}}
    with pytest.raises(ValueError, match="non-finite demand or cost"):
        sp.monte_carlo_validation(inst, stages, 5, 0, 0.2, 0.2,
                                  [60.0, 40.0], [math.nan, 9.0])


def test_price_draws_keeps_m5_and_integer_pricing(tight, tight_scens,
                                                  small_report, cfg):
    ds, bs = tight_scens.demands, tight_scens.costs
    fs = small_report.first_stages[("m5", small_report.taus[-1])]
    m5 = list(sp.price_draws(tight, fs, ds, bs))
    assert m5 == [framework._price_m5(tight, fs, d, b) for d, b in zip(ds, bs)]
    assert any(math.isfinite(v) for v in m5)

    inst = _minimum_and_stock()
    ds = [[60.0, 40.0], [12.0, 3.0], [95.0, 70.0]]
    bs = [[8.0, 9.0], [8.2, 9.1], [8.5, 9.5]]
    for booking in (BOOKING, SHORT_BOOKING):
        integer = list(sp.price_draws(inst, booking, ds, bs, False, cfg))
        assert integer == [framework._objective_or_inf(sp.solve_lp(
            sp.build_recourse(inst, booking, d, b, relax=False), cfg))
            for d, b in zip(ds, bs)]
