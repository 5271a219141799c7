import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supplyplan as sp
from supplyplan import linprog
from supplyplan.linprog import ConeRow, Status, _row_form

import helpers


def _norm_problem(point, omega, affine=None, fixed=()):
    """min w s.t. w - affine >= omega * ||x||, x fixed at ``point`` by
    equality rows, and each ``(name, value)`` of ``fixed`` a free variable
    fixed at its value."""
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    terms = []
    for i, v in enumerate(point):
        p.add_var(f"x{i}", lb=None)
        p.add_row({f"x{i}": 1.0}, "==", float(v))
        terms.append({f"x{i}": 1.0})
    for name, value in fixed:
        p.add_var(name, lb=None)
        p.add_row({name: 1.0}, "==", value)
    p.add_cone(ConeRow("w", affine or {}, terms, scale=omega))
    return p


def test_matches_euclidean_norm(cfg):
    point = [3.0, -4.0]
    p = _norm_problem(point, omega=2.0)
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal
    assert sol.objective == pytest.approx(10.0, rel=1e-5)
    assert sol.cone_residual <= linprog._CONE_TOL


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(point=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=8),
       omega=st.floats(0.01, 10.0))
def test_higher_dimension_norm(point, omega):
    sol = sp.solve_lp(_norm_problem(point, omega), sp.SolverConfig())
    assert sol.optimal
    assert sol.objective == pytest.approx(omega * np.linalg.norm(point),
                                          rel=1e-5, abs=1e-9)


def test_reports_rounds_and_simplex_iterations(cfg, monkeypatch):
    p = _norm_problem([1.0, 2.0, -2.0, 4.0, 0.5], omega=1.0)
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal
    assert sol.lp_rounds >= 1 and sol.simplex_iters > 0
    monkeypatch.setattr(linprog, "_MAX_CUT_ROUNDS", 1)
    capped = sp.solve_lp(p, cfg)
    assert 1 <= capped.lp_rounds <= 2


def test_infeasible_at_the_first_round(cfg):
    p = _norm_problem([3.0, 4.0], omega=1.0)
    p.add_row({"x0": 1.0}, "<=", 2.0)  # contradicts x0 == 3
    sol = sp.solve_lp(p, cfg)
    assert sol.status is Status.INFEASIBLE
    assert sol.objective == math.inf and sol.gap == math.inf
    assert sol.lp_rounds == 1


def test_infeasible_only_after_a_warm_round(cfg):
    # the initial cuts give w >= (3 + 4) / sqrt(2) = 4.95, within w <= 4.99;
    # the cut at the incumbent gives w >= ||(3, 4)|| = 5
    p = _norm_problem([3.0, 4.0], omega=1.0)
    p.add_row({"w": 1.0}, "<=", 4.99)
    sol = sp.solve_lp(p, cfg)
    assert sol.status is Status.INFEASIBLE
    assert sol.objective == math.inf
    assert sol.lp_rounds == 2


def test_omega_zero_reduces_to_linear(cfg):
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("x", lb=None)
    p.add_row({"x": 1.0}, "==", 5.0)
    p.add_cone(ConeRow("w", {"x": 2.0}, [{"x": 1.0}], scale=0.0))
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal and sol.objective == pytest.approx(10.0, abs=1e-7)


def test_affine_part_shifts_epigraph(cfg):
    p = _norm_problem([3.0, 4.0], omega=1.0,
                      affine={"x0": 1.0})  # w >= x0 + ||x||
    sol = sp.solve_lp(p, cfg)
    assert sol.objective == pytest.approx(8.0, rel=1e-5)


def test_affine_part_over_several_variables(cfg):
    # w - 2u - 3v >= 1.5 ||(x0, x1)|| at u = 1.5, v = -2, x = (3, 4)
    p = _norm_problem([3.0, 4.0], omega=1.5, affine={"u": 2.0, "v": 3.0},
                      fixed=(("u", 1.5), ("v", -2.0)))
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal
    assert sol.objective == pytest.approx(3.0 - 6.0 + 1.5 * 5.0, rel=1e-5)
    assert sol.cone_residual <= linprog._CONE_TOL


def test_values_hold_the_problem_variables_only(cfg):
    p = _norm_problem([1.0, -2.0, 2.0], omega=1.0)
    p.add_cone(ConeRow("w", {}, [{"x0": 1.0}], scale=0.0))  # degenerate
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal
    assert list(sol.values) == p.var_names


def _lp_matrices(p, cfg, monkeypatch):
    """Solve ``p``, optimal, and return the LP matrix of each round."""
    matrices, run_highs = [], linprog.run_highs

    def recording(c, A, *args):
        matrices.append(A)
        return run_highs(c, A, *args)
    monkeypatch.setattr(linprog, "run_highs", recording)
    assert sp.solve_lp(p, cfg).optimal
    return matrices


def test_cuts_leave_out_the_affine_part(cfg, monkeypatch):
    """Every cut is written on its cone's slack, the u columns of its
    rotated-cone triples and its terms, so the LP has at most half the
    nonzeros it would have with the affine part copied into each cut."""
    inst = sp.gen_instance(6, 4, seed=12)
    scens = sp.gen_scenarios(inst, 6, seed=13)
    p = sp.build_trsocp(inst, scens, sp.estimate_box(scens), 2.75)
    matrices = _lp_matrices(p, cfg, monkeypatch)

    live = [c for c in helpers.cones(p) if c.scale > 0.0 and c.cone_terms]
    assert len(live) == 6
    # an initial cut with the affine part copied in spans epi, the affine
    # names and its terms' names: one term per axis cut (+/-), all in the
    # uniform cut
    unlifted = _row_form(p)[1].nnz
    for c in live:
        base = {c.epigraph_var, *c.affine_part}
        unlifted += 2 * sum(len(base | set(term)) for term in c.cone_terms)
        unlifted += len(base.union(*c.cone_terms))
    first, final = matrices[0], matrices[-1]
    assert first.nnz <= 0.5 * unlifted
    # a later cut touches the slack, one u column and one term's variables
    widest = 1 + max(len({n for t in c.cone_terms for n in t}) for c in live)
    assert final.nnz <= first.nnz + widest * (final.shape[0] - first.shape[0])


def _worst_violation(p, values):
    """max over the cones of ``scale * ||terms|| - (epi - affine)``."""
    def at(coeffs):
        return sum(c * values[name] for name, c in coeffs.items())
    return max(c.scale * math.hypot(*map(at, c.cone_terms))
               - values[c.epigraph_var] + at(c.affine_part)
               for c in helpers.cones(p))


def test_solve_lp_reaches_the_cone_optimum_of_m3_and_m4(cfg):
    """The public solve keeps the cone rows of m3 and m4: without them
    both LPs are unbounded below."""
    inst = sp.gen_instance(6, 4, seed=12)
    scens = sp.gen_scenarios(inst, 16, seed=13)
    box = sp.estimate_box(scens)
    for p, optimum in ((sp.build_ro_ell(inst, box, 2.75),
                        19419.462772895124),
                       (sp.build_trsocp(inst, scens, box, 2.75),
                        17389.467334024048)):
        sol = sp.solve_lp(p, cfg)
        assert sol.optimal and sol.lp_rounds >= 1
        assert sol.objective == pytest.approx(optimum, rel=1e-9)
        assert sol.cone_residual <= linprog._CONE_TOL
        assert _worst_violation(p, sol.values) <= 1e-6 * abs(optimum)


@pytest.mark.parametrize("point, omega", [([3.0, -4.0], 2.0),
                                          ([1.0, 2.0, -2.0, 4.0, 0.5], 1.0),
                                          ([3.0, 4.0, 5.0], 1.0),
                                          ([1.5, -2.5, 0.5], 0.5)])
def test_every_written_row_holds_on_the_cone(cfg, monkeypatch, point, omega):
    """The link, sum and cut rows hold at points on the cone, lifted with
    s = omega ||x|| and u_l = (omega x_l)^2 / s: the cuts never cut into
    the cone. The columns are the problem's, the slack s, then u."""
    p = _norm_problem(point, omega)
    A = _lp_matrices(p, cfg, monkeypatch)[-1]
    rng = np.random.default_rng(11)
    for x in [np.array(point), *rng.normal(0.0, 50.0, (20, len(point)))]:
        tau = omega * x
        s = float(np.linalg.norm(tau))
        z = np.concatenate([[s], x, [s], tau * tau / s])   # w on the cone
        assert A.shape[1] == z.size
        assert (A[p.lo.size:] @ z).min() >= -1e-9


def test_m4_closes_in_few_rounds(cfg):
    """m4 on the acceptance instance at tau = 47 takes 20 rounds with cuts
    on the aggregated norm; per-term rotated-cone cuts take 11."""
    inst = sp.gen_instance(24, 15, seed=42)
    scens = sp.gen_scenarios(inst, 48, seed=43).head(47)
    p = sp.build_trsocp(inst, scens, sp.estimate_box(scens), 2.75)
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal and sol.lp_rounds <= 12
    assert 0.0 < sol.gap <= linprog._CONE_TOL * abs(sol.objective)


def test_cone_solves_report_their_gap(cfg):
    """m3 and m4 lift the LP point onto their cones by raising w: the best
    lifted objective less the LP bound is within the cone tolerance."""
    inst = sp.gen_instance(6, 4, seed=12)
    scens = sp.gen_scenarios(inst, 16, seed=13)
    box = sp.estimate_box(scens)
    for p in (sp.build_ro_ell(inst, box, 2.75),
              sp.build_trsocp(inst, scens, box, 2.75)):
        sol = sp.solve_lp(p, cfg)
        assert sol.optimal
        assert 0.0 <= sol.gap <= linprog._CONE_TOL * abs(sol.objective)


def test_gap_keeps_the_best_lifted_point(monkeypatch):
    """The lifted bound rises in this m4's third round, so each solve keeps
    the best one: objective + gap never rises as the round budget grows."""
    inst = sp.gen_instance(8, 6, seed=1)
    scens = sp.gen_scenarios(inst, 16, seed=2)
    p = sp.build_trsocp(inst, scens, sp.estimate_box(scens), 2.75)
    upper = []
    for cap in range(4):
        monkeypatch.setattr(linprog, "_MAX_CUT_ROUNDS", cap)
        sol = sp.solve_lp(p)
        upper.append(sol.objective + sol.gap)
    for before, after in zip(upper, upper[1:]):
        assert after <= before * (1.0 + 1e-12)


def test_gap_lifts_the_epigraph_or_is_inf(cfg, monkeypatch):
    # the initial cuts give w = 7 / sqrt(2); raising w to ||(3, 4)|| = 5
    # lifts the point onto the cone
    with monkeypatch.context() as m:
        m.setattr(linprog, "_MAX_CUT_ROUNDS", 0)
        capped = sp.solve_lp(_norm_problem([3.0, 4.0], omega=1.0), cfg)
    assert capped.gap == pytest.approx(5.0 - 7.0 / math.sqrt(2.0), rel=1e-9)
    bounded = _norm_problem([3.0, 4.0], omega=1.0)
    bounded.ub[0] = 100.0                      # w <= 100
    in_a_row = _norm_problem([3.0, 4.0], omega=1.0)
    in_a_row.add_row({"w": 1.0, "x0": -1.0}, ">=", 0.0)
    # raising w raises E x by half
    shifted = _norm_problem([3.0, 4.0], omega=1.0, affine={"w": 0.5})
    for p in (bounded, in_a_row, shifted):
        sol = sp.solve_lp(p, cfg)
        assert sol.optimal and sol.gap == math.inf


def test_multiple_cones_take_the_max(cfg):
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("x", lb=None)
    p.add_row({"x": 1.0}, "==", 2.0)
    p.add_cone(ConeRow("w", {}, [{"x": 1.0}], scale=1.0))
    p.add_cone(ConeRow("w", {}, [{"x": 1.0}], scale=3.0))
    sol = sp.solve_lp(p, cfg)
    assert sol.objective == pytest.approx(6.0, rel=1e-5)


def test_objective_nondecreasing_in_omega(cfg):
    values = []
    for omega in (0.0, 0.5, 1.0, 2.0, math.sqrt(15.0)):
        p = _norm_problem([1.5, -2.5, 0.5], omega)
        sol = sp.solve_lp(p, cfg)
        assert sol.optimal
        values.append(sol.objective)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-7


def test_outer_approximation_is_a_lower_bound(cfg, monkeypatch):
    # with a coarse cut budget the OA value must not exceed the true optimum
    monkeypatch.setattr(linprog, "_MAX_CUT_ROUNDS", 1)
    p = _norm_problem([3.0, 4.0, 5.0], omega=1.0)
    sol = sp.solve_lp(p, cfg)
    true = float(np.linalg.norm([3.0, 4.0, 5.0]))
    assert sol.objective <= true + 1e-9
    if sol.status is Status.CUT_LIMIT:
        assert sol.cone_residual > 0


def test_cut_limit_status(cfg, monkeypatch):
    # min ||x|| over sum_i i x_i >= 10: x is free, so each round's cut moves
    # the point and one round cannot close the cone
    monkeypatch.setattr(linprog, "_MAX_CUT_ROUNDS", 1)
    monkeypatch.setattr(linprog, "_CONE_TOL", 1e-12)
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    for i in range(8):
        p.add_var(f"x{i}", lb=None)
    p.add_row({f"x{i}": i + 1.0 for i in range(8)}, ">=", 10.0)
    p.add_cone(ConeRow("w", {}, [{f"x{i}": 1.0} for i in range(8)], scale=1.0))
    sol = sp.solve_lp(p, cfg)
    assert sol.status is Status.CUT_LIMIT and sol.lp_rounds == 2
    assert sol.cone_residual > linprog._CONE_TOL
    assert sol.objective <= 10.0 / math.sqrt(204.0)  # 204 = sum_i i^2


def test_rejects_integer_marks(cfg):
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("n", ub=3.0, integer=True)
    p.add_cone(ConeRow("w", {}, [{"n": 1.0}], scale=1.0))
    with pytest.raises(ValueError):
        sp.solve_lp(p, cfg)


def test_add_cone_rejects_undeclared_names():
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("x", lb=None)
    for cone in (ConeRow("v", {}, [{"x": 1.0}], scale=1.0),
                 ConeRow("w", {"u": 1.0}, [{"x": 1.0}], scale=1.0),
                 ConeRow("w", {}, [{"x": 1.0}, {"u": 1.0}], scale=1.0)):
        with pytest.raises(ValueError, match="undeclared"):
            p.add_cone(cone)
    assert helpers.cones(p) == []


def test_negative_scale_rejected():
    for scale in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ConeRow("w", {}, [{"x": 1.0}], scale=scale)


def test_residual_is_relative(cfg, monkeypatch):
    # the initial cuts give w = (3 + 4) / sqrt(2) < ||(3, 4)|| = 5; the
    # residual divides the violation by max(1, ||t||) = 5
    monkeypatch.setattr(linprog, "_MAX_CUT_ROUNDS", 0)
    p = _norm_problem([3.0, 4.0], omega=1.0)
    sol = sp.solve_lp(p, cfg)
    assert sol.status is Status.CUT_LIMIT and sol.lp_rounds == 1
    assert sol.cone_residual == pytest.approx((5.0 - 7.0 / math.sqrt(2.0)) / 5.0,
                                              rel=1e-9)


def test_without_cone_rows_equals_solve_lp(cfg):
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    for name, value in (("x0", 3.0), ("x1", -4.0)):
        p.add_var(name, lb=None)
        p.add_row({name: 1.0}, "==", value)
    p.add_row({"w": 1.0, "x0": -2.0, "x1": 1.0}, ">=", 0.0)
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal and sol.objective == pytest.approx(10.0)
    assert sol.values == pytest.approx({"w": 10.0, "x0": 3.0, "x1": -4.0})
    assert sol.cone_residual == 0.0 and sol.lp_rounds == 1


def test_degenerate_cones_only(cfg):
    # scale 0 or no terms: each cone is its slack row E x >= s >= 0 and
    # is never cut, so w >= 2x and w >= 3x at x = 5
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    p.add_var("x", lb=None)
    p.add_row({"x": 1.0}, "==", 5.0)
    p.add_cone(ConeRow("w", {"x": 2.0}, [{"x": 1.0}], scale=0.0))
    p.add_cone(ConeRow("w", {"x": 3.0}, [], scale=1.0))
    sol = sp.solve_lp(p, cfg)
    assert sol.optimal and sol.objective == pytest.approx(15.0, abs=1e-7)
    assert sol.cone_residual == 0.0 and sol.lp_rounds == 1
    assert list(sol.values) == p.var_names
