import math

import numpy as np
import pytest

import supplyplan as sp
from supplyplan import framework
from supplyplan.cone import ConeRow

import helpers


@pytest.fixture(scope="module")
def small_report(tight, tight_scens):
    return sp.run_comparison(tight, tight_scens, sbar=4, omega=2.75, seed=0)


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
    again = sp.run_comparison(tight, tight_scens, sbar=4, omega=2.75, seed=0)
    assert again.cells == small_report.cells
    assert again.to_csv() == small_report.to_csv()


def test_jobs_parallel_matches_serial(tight, tight_scens, small_report):
    par = sp.run_comparison(tight, tight_scens, sbar=4, omega=2.75, seed=0,
                            jobs=2)
    assert par.cells == small_report.cells


def test_samples_costs_when_missing(tight, tight_scens):
    bare = sp.ScenarioSet(tight_scens.demands, dest_ids=tight_scens.dest_ids)
    a = sp.run_comparison(tight, bare, sbar=6, methods=["m1"], seed=3)
    b = sp.run_comparison(tight, bare, sbar=6, methods=["m1"], seed=3)
    c = sp.run_comparison(tight, bare, sbar=6, methods=["m1"], seed=4)
    assert a.cells == b.cells
    assert a.cells != c.cells


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
        lam, phi = sp.project_simplex_lsq(d_next, list(prefix.demands),
                                          tol=1e-12)
        inside = phi <= sp.PHI_ZERO_TOL * (float(d_next @ d_next) + 1.0)
        assert math.isfinite(small_report.cost("m5", tau)) == inside


def test_compute_evpi():
    assert sp.compute_evpi(10.0, [4.0, 6.0]) == pytest.approx(5.0)
    assert sp.compute_evpi(10.0, [4.0, 6.0], probs=[1.0, 0.0]) == \
        pytest.approx(6.0)
    with pytest.raises(ValueError):
        sp.compute_evpi(10.0, [4.0], probs=[0.7])


def test_evpi_nonnegative_on_solved_instance(tight, tight_scens, cfg):
    sp_val = sp.solve_lp(sp.build_sp(tight, tight_scens), cfg).objective
    ws = [sp.solve_lp(sp.build_ws(tight, tight_scens.demands[s],
                                  tight_scens.costs[s]), cfg).objective
          for s in range(tight_scens.S)]
    assert sp.compute_evpi(sp_val, ws) >= -1e-7


def test_in_sample_stability_prefix_property(tight, tight_scens):
    a = sp.in_sample_stability(tight, tight_scens, [5, 10], seed=1)
    b = sp.in_sample_stability(tight, tight_scens, [5, 10, 20], seed=1)
    assert a.entries == b.entries[:2]  # smaller samples are prefixes
    with pytest.raises(ValueError):
        sp.in_sample_stability(tight, tight_scens, [10, 5], seed=1)


def test_in_sample_stability_rejects_empty_or_zero_sizes(tight, tight_scens):
    for s_list in ([], [0], [0, 5]):
        with pytest.raises(ValueError, match="sizes >= 1"):
            sp.in_sample_stability(tight, tight_scens, s_list, seed=1)


def test_stability_curve_validation():
    with pytest.raises(ValueError):
        sp.StabilityCurve(entries=[(5, 1.0), (5, 2.0)], seed=0)


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


def _same(a, b):
    return (a.status, a.objective, a.values) == (b.status, b.objective, b.values)


def test_solve_dispatches_on_the_problem(cfg, monkeypatch):
    mip = _knapsack(integer=True)
    assert _same(framework.solve(mip, cfg), sp.solve_mip(mip, cfg))
    assert framework.solve(mip, cfg).objective == pytest.approx(-9.0)

    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("x", lb=None)
    p.add_row({"x": 1.0}, "==", -3.0)
    p.add_cone(ConeRow("w", {}, [{"x": 1.0}], scale=2.0))
    assert _same(framework.solve(p, cfg), sp.solve_cone(p, cfg))
    assert framework.solve(p, cfg).objective == pytest.approx(6.0)

    def no_mip(*args):
        raise AssertionError("an LP must not pass through solve_mip")
    monkeypatch.setattr(framework, "solve_mip", no_mip)
    lp = _knapsack(integer=False)
    assert _same(framework.solve(lp, cfg), sp.solve_lp(lp, cfg))
    assert framework.solve(lp, cfg).objective < -9.0


def test_m5_booking_carries_its_hull_rule():
    inst = sp.gen_instance(6, 2, seed=0)
    scens = sp.gen_scenarios(inst, 30, seed=1)
    report = sp.run_comparison(inst, scens, sbar=26, methods=["m4", "m5"])
    finite = 0
    for tau in report.taus:
        m4 = report.first_stages[("m4", tau)]
        m5 = report.first_stages[("m5", tau)]
        assert m4.hull is None and m5.hull is not None and m4 is not m5
        assert m5.x == m4.x
        v = sp.evaluate_recourse(inst, m5, scens.demands[tau],
                                 scens.costs[tau])
        assert v == report.cost("m5", tau)  # bit-for-bit, inf included
        finite += math.isfinite(v)
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
    m5_cost = sp.evaluate_recourse(inst, m5, d, b)
    assert math.isfinite(m5_cost)
    assert m5_cost >= sp.evaluate_recourse(inst, m4, d, b)
