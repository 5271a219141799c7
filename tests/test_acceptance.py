"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (past pytest's capture, so it shows up
in the live run output) with its wall time, and fails hard on any violated
bound.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import supplyplan as sp
from supplyplan.cli import main as cli_main
from supplyplan.model import (booking_cost, recourse_cost, x_name, y_name,
                              z_name)

import helpers


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number, description, fixture_s=0.0):
        # fixture_s: time a module fixture spent on the work this criterion
        # gates, added so the printed time covers it
        t0 = time.perf_counter()
        status = "FAIL"
        try:
            yield
            status = "PASS"
        finally:
            elapsed = time.perf_counter() - t0 + fixture_s
            with capsys.disabled():
                print(f"criterion {number}: {status} ({elapsed:.3f} s) "
                      f"{description}", flush=True)
    return _criterion


@pytest.fixture(scope="module")
def cfg():
    return sp.SolverConfig()


@pytest.fixture(scope="module")
def synthetic():
    inst = sp.gen_instance(24, 15, seed=42)
    scens = sp.gen_scenarios(inst, 48, seed=43)
    return inst, scens


@pytest.fixture(scope="module")
def synthetic_trsocp(synthetic, cfg):
    inst, scens = synthetic
    p = sp.build_trsocp(inst, scens, 2.75)
    sol = sp.solve_cone(p, cfg)
    assert sol.optimal
    return sol


def test_criterion_1_evpi_arithmetic(criterion):
    with criterion(1, "reference EVPI identity to 1e-9 in under 1 ms"):
        t0 = time.perf_counter()
        value = sp.compute_evpi(107244.67, [84472.21])
        elapsed = time.perf_counter() - t0
        assert value == pytest.approx(22772.46, abs=1e-9)
        assert elapsed < 1e-3


def test_criterion_2_one_arc_oracle_suite(criterion, cfg):
    with criterion(2, "one-arc network matches grid enumeration in under 1 s"):
        t0 = time.perf_counter()
        inst = helpers.one_arc_instance()
        scens = helpers.one_arc_scens()
        key = inst.arcs[0].key

        sp_val = sp.solve_lp(sp.build_sp(inst, scens), cfg).objective
        assert sp_val == pytest.approx(
            helpers.one_arc_sp_oracle(inst, [30.0, 50.0], [0.5, 0.5]), abs=1e-7)
        assert sp_val == pytest.approx(90.0, abs=1e-7)

        ws = []
        for d, expected in ((30.0, 60.0), (50.0, 100.0)):
            v = sp.solve_lp(sp.build_ws(inst, [d], [8.0]), cfg).objective
            oracle = min(helpers.one_arc_recourse_oracle(inst, x, d)
                         for x in range(11))
            assert v == pytest.approx(oracle, abs=1e-7)
            assert v == pytest.approx(expected, abs=1e-7)
            ws.append(v)
        assert sp.compute_evpi(sp_val, ws) == pytest.approx(10.0, abs=1e-7)

        box = sp.estimate_box(scens, 2)
        ro = sp.solve_lp(sp.build_ro_box(inst, box), cfg).objective
        assert ro == pytest.approx(helpers.one_arc_robox_oracle(inst, 50.0),
                                   abs=1e-7)
        assert ro == pytest.approx(100.0, abs=1e-7)

        rec = sp.evaluate_recourse(inst, {key: 5.0}, [30.0], [8.0], cfg=cfg)
        assert rec == pytest.approx(
            helpers.one_arc_recourse_oracle(inst, 5.0, 30.0), abs=1e-7)
        assert rec == pytest.approx(80.0, abs=1e-7)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_solver_oracles(criterion, cfg):
    with criterion(3, "200 random MIPs + 100 random LPs match enumeration "
                      "in under 10 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1234)
        for _ in range(200):
            p = helpers.random_mip(rng)
            sol = sp.solve_mip(p, cfg)
            assert sol.optimal
            assert sol.objective == pytest.approx(helpers.enumerate_mip(p),
                                                  abs=1e-6)
        for _ in range(100):
            p = helpers.random_lp(rng)
            sol = sp.solve_lp(p, cfg)
            assert sol.optimal
            assert sol.objective == pytest.approx(helpers.enumerate_lp(p),
                                                  abs=1e-7)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_omega_structure(criterion, synthetic, synthetic_trsocp, cfg):
    with criterion(4, "radius structure of the robust objectives in under 60 s"):
        t0 = time.perf_counter()
        inst, scens = synthetic
        box = sp.estimate_box(scens, scens.S)

        values = {}
        for omega in (0.0, 1.0, 2.75, 3.873):
            p = sp.build_ro_ell(inst, box, omega)
            sol = sp.solve_cone(p, cfg)
            assert sol.optimal
            values[omega] = sol.objective

        # zero radius coincides with the nominal-cost box counterpart
        nominal = sp.BoxParams(box.d_nominal, box.d_dev, box.b_nominal,
                               np.zeros_like(box.b_dev))
        nom_val = sp.solve_lp(sp.build_ro_box(inst, nominal), cfg).objective
        assert values[0.0] == pytest.approx(nom_val, rel=1e-5)

        # nondecreasing in the radius
        grid = [0.0, 1.0, 2.75, 3.873]
        for lo, hi in zip(grid, grid[1:]):
            assert values[hi] >= values[lo] - 1e-7 * max(1.0, abs(values[lo]))

        # sqrt(15) radius dominates the box worst case
        box_val = sp.solve_lp(sp.build_ro_box(inst, box), cfg).objective
        p = sp.build_ro_ell(inst, box, math.sqrt(15.0))
        sqrt15_val = sp.solve_cone(p, cfg).objective
        assert sqrt15_val >= box_val - 1e-6 * max(1.0, abs(box_val))

        # the adjustable counterpart never exceeds the static one
        assert synthetic_trsocp.objective <= values[2.75] \
            + 1e-5 * max(1.0, abs(values[2.75]))
        assert time.perf_counter() - t0 < 60.0


@pytest.fixture(scope="module")
def full_report(synthetic):
    inst, scens = synthetic
    t0 = time.perf_counter()
    report = sp.run_comparison(inst, scens, sbar=24, omega=2.75, seed=0)
    return report, time.perf_counter() - t0


def test_criterion_5_framework_floors(criterion, synthetic, full_report, cfg):
    report, elapsed = full_report
    with criterion(5, "rolling comparison floors and optimality in under 5 min",
                   fixture_s=elapsed):
        inst, scens = synthetic
        assert elapsed < 300.0

        for tau in report.taus:
            ws = report.cost("ws", tau)
            assert math.isfinite(ws)
            for m in sp.METHOD_COLUMNS:
                v = report.cost(m, tau)
                if math.isfinite(v):
                    assert v >= ws - 1e-6 * max(1.0, abs(ws))

        # the stochastic booking minimizes the prefix-expected cost
        for tau in report.taus:
            prefix = scens.head(tau)

            def prefix_expected(fs):
                return sum(
                    float(pr) * sp.evaluate_recourse(
                        inst, fs, prefix.demands[s], prefix.costs[s], cfg=cfg)
                    for s, pr in enumerate(prefix.probs))

            base = prefix_expected(report.first_stages[("m1", tau)])
            for m in ("m2", "m3", "m4"):
                other = prefix_expected(report.first_stages[(m, tau)])
                assert base <= other + cfg.mip_gap + 1e-5 \
                    + 1e-9 * abs(other)

        # perfect information never hurts on any prefix
        for tau in report.taus:
            prefix = scens.head(tau)
            sp_val = sp.solve_lp(sp.build_sp(inst, prefix), cfg).objective
            ws_vals = [sp.solve_lp(sp.build_ws(inst, prefix.demands[s],
                                               prefix.costs[s]), cfg).objective
                       for s in range(prefix.S)]
            assert sp.compute_evpi(sp_val, ws_vals) >= -1e-6

        # adjustable cells are finite exactly on in-hull realizations
        for tau in report.taus:
            prefix = scens.head(tau)
            d_next = scens.demands[tau]
            _, phi = sp.project_simplex_lsq(d_next, list(prefix.demands),
                                            tol=1e-12)
            inside = phi <= sp.PHI_ZERO_TOL * (float(d_next @ d_next) + 1.0)
            assert math.isfinite(report.cost("m5", tau)) == inside


def test_criterion_6_hull_decision_rule(criterion, synthetic, synthetic_trsocp, cfg):
    with criterion(6, "recovered adjustables feasible and below the "
                      "adjustable optimum on 100 hull points"):
        inst, scens = synthetic
        sol = synthetic_trsocp
        fs = sp.extract_first_stage(inst, sol)
        w = sol.objective
        box = sp.estimate_box(scens, scens.S)
        rng = np.random.default_rng(2718)
        for _ in range(100):
            lam_true = rng.dirichlet(np.ones(scens.S))
            d = lam_true @ scens.demands
            lam, phi = sp.project_simplex_lsq(d, list(scens.demands),
                                              tol=1e-12)
            y, z = sp.recover_adjustable_m5(inst, sol, lam, phi, d)

            # z <= x*, supplier caps, demand cover: all within 1e-6
            for a in inst.arcs:
                assert z[a.key] <= fs.x[a.key] + 1e-6
                assert z[a.key] >= -1e-6
            for s in inst.suppliers:
                used = inst.q * sum(z[a.key] for a in inst.arcs_from(s.id))
                assert s.r - 1e-6 <= used <= s.v + 1e-6
            for j, dest in enumerate(inst.destinations):
                supplied = inst.q * (sum(z[a.key]
                                         for a in inst.arcs_to(dest.id))
                                     + y[dest.id])
                assert supplied >= d[j] - dest.l0 - 1e-6
                assert y[dest.id] >= -1e-6

            cost = booking_cost(inst, fs.x) + recourse_cost(
                inst, fs.x, y, {k: min(v, fs.x[k]) for k, v in z.items()},
                box.b_nominal)
            assert cost <= w + 1e-5 * max(1.0, abs(w))


def test_criterion_7_probability_bound(criterion, cfg):
    with criterion(7, "empirical cone violation below the radius bound"):
        inst = helpers.tight_instance()
        scens = helpers.tight_scens(n=12, seed=5)
        box = sp.estimate_box(scens, scens.S)
        omega = 2.75
        p = sp.build_ro_ell(inst, box, omega)
        sol = sp.solve_cone(p, cfg)
        assert sol.optimal
        w = sol.objective
        y = np.array([sol.values[y_name(d.id)] for d in inst.destinations])
        assert y.sum() > 1e-6  # purchases active, so the bound is exercised
        x = {a.key: sol.values[x_name(a)] for a in inst.arcs}
        z = {a.key: sol.values[z_name(a)] for a in inst.arcs}
        base = booking_cost(inst, x) + recourse_cost(inst, x,
                                                     dict(zip(inst.dest_ids, y)),
                                                     z, box.b_nominal)

        rng = np.random.default_rng(99)
        draws = rng.uniform(-box.b_dev, box.b_dev, size=(10_000, len(y)))
        perturbed = base + inst.q * draws @ y
        freq = float(np.mean(perturbed > w + 1e-9))
        assert freq <= math.exp(-omega ** 2 / 2.0) + 0.01


def test_criterion_8_compare_determinism(criterion, tmp_path):
    with criterion(8, "byte-identical reports from identical compare runs"):
        inst = helpers.tight_instance()
        scens = helpers.tight_scens()
        inst.save(tmp_path / "instance.json")
        sp.save_scenarios(tmp_path / "demand.csv", inst.dest_ids, scens.demands)
        sp.save_scenarios(tmp_path / "cost.csv", inst.dest_ids, scens.costs)
        common = ["--instance", str(tmp_path / "instance.json"),
                  "--demand-csv", str(tmp_path / "demand.csv"),
                  "--cost-csv", str(tmp_path / "cost.csv"),
                  "--sbar", "4", "--omega", "2.75", "--seed", "11"]
        assert cli_main(["compare"] + common + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(["compare"] + common + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        assert a == b
        assert b"aggregate," in a
