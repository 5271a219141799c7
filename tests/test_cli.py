import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supplyplan as sp
from supplyplan import cli, framework, linprog
from supplyplan.cli import main

import helpers


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    inst = helpers.tight_instance()
    scens = helpers.tight_scens()
    inst.save(out / "instance.json")
    sp.save_scenarios(out / "demand.csv", inst.dest_ids, scens.demands)
    sp.save_scenarios(out / "cost.csv", inst.dest_ids, scens.costs)
    return out


def _common(data_dir, out):
    return ["--instance", str(data_dir / "instance.json"),
            "--demand-csv", str(data_dir / "demand.csv"),
            "--cost-csv", str(data_dir / "cost.csv"),
            "--out", str(out)]


def test_gen_writes_files(tmp_path):
    rc = main(["gen", "--suppliers", "3", "--destinations", "2",
               "--scenarios", "5", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    inst = sp.Instance.load(tmp_path / "instance.json")
    scens = sp.load_scenarios(tmp_path / "demand.csv", tmp_path / "cost.csv",
                              dest_ids=inst.dest_ids)
    assert scens.S == 5 and scens.D == 2


@pytest.mark.parametrize("size", ["--suppliers", "--scenarios"])
def test_gen_zero_size_is_config_error(tmp_path, capsys, size):
    rc = main(["gen", size, "0", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: need at least one" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_module_entry_runs_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "supplyplan", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage: supplyplan" in done.stdout


def test_gen_is_seeded(tmp_path):
    main(["gen", "--seed", "5", "--suppliers", "2", "--destinations", "2",
          "--scenarios", "3", "--out", str(tmp_path / "a")])
    main(["gen", "--seed", "5", "--suppliers", "2", "--destinations", "2",
          "--scenarios", "3", "--out", str(tmp_path / "b")])
    for name in ("instance.json", "demand.csv", "cost.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("model", ["sp", "ws", "ro-box"])
def test_solve_models(data_dir, tmp_path, model, capsys):
    rc = main(["solve", "--model", model] + _common(data_dir, tmp_path))
    assert rc == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert doc["status"] == "optimal"
    assert doc["objective"] is not None
    assert doc["x"]
    assert "objective=" in capsys.readouterr().out


def test_solver_failure_exits_four(data_dir, tmp_path, monkeypatch, capsys):
    def fail(p, cfg=None):
        raise RuntimeError("LP backend failure: injected")

    monkeypatch.setattr(framework, "solve_lp", fail)
    rc = main(["solve", "--model", "sp"] + _common(data_dir, tmp_path))
    assert rc == 4
    assert "error: LP backend failure: injected" in capsys.readouterr().err


def test_highs_model_error_is_a_backend_failure(data_dir, tmp_path,
                                               monkeypatch, capsys):
    class ModelError(linprog._highs._Highs):
        def getModelStatus(self):
            return linprog._highs.HighsModelStatus.kModelError

    monkeypatch.setattr(linprog._highs, "_Highs", ModelError)
    p = sp.LinearProblem()
    p.add_var("x", obj=1.0)
    with pytest.raises(RuntimeError, match="HiGHS backend failure: Model"):
        sp.solve_lp(p)
    rc = main(["solve", "--model", "sp"] + _common(data_dir, tmp_path))
    assert rc == 4
    assert "error: HiGHS backend failure" in capsys.readouterr().err


@pytest.mark.parametrize("model", [["sp"], ["trsocp", "--omega", "2.75"]])
def test_iteration_limit_exits_three(data_dir, tmp_path, monkeypatch, model):
    monkeypatch.setattr(linprog, "_MAX_SIMPLEX_ITERS", 1)
    rc = main(["solve", "--model", *model] + _common(data_dir, tmp_path))
    assert rc == 3
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert doc["status"] == "iter_limit"
    assert doc["objective"] is None


def test_solve_cone_models(data_dir, tmp_path):
    rc = main(["solve", "--model", "ro-ell", "--omega", "2.75"]
              + _common(data_dir, tmp_path))
    assert rc == 0
    rc = main(["solve", "--model", "trsocp", "--epsilon", "0.023"]
              + _common(data_dir, tmp_path))
    assert rc == 0


def test_solve_cone_requires_radius(data_dir, tmp_path):
    rc = main(["solve", "--model", "ro-ell"] + _common(data_dir, tmp_path))
    assert rc == 1


@pytest.mark.parametrize("command", [
    ["solve", "--model", "ro-ell"], ["compare", "--methods", "m1,m3"]],
    ids=["solve", "compare"])
def test_infinite_omega_is_config_error(data_dir, tmp_path, capsys, command):
    rc = main(command + ["--omega", "inf"] + _common(data_dir, tmp_path))
    assert rc == 1
    assert "error: cone scale must be finite" in capsys.readouterr().err


def test_omega_epsilon_mutually_exclusive(data_dir, tmp_path, capsys):
    rc = main(["solve", "--model", "ro-ell", "--omega", "1", "--epsilon",
               "0.1"] + _common(data_dir, tmp_path))
    assert rc == 1
    assert "error: --omega and --epsilon are mutually exclusive" in \
        capsys.readouterr().err


NO_CONE_MODEL = {"solve": ["solve", "--model", "sp"],
                 "compare": ["compare", "--methods", "m1"],
                 "montecarlo": ["montecarlo", "--methods", "m1", "--n", "2"]}
BAD_RADIUS = [
    ("both", ["--omega", "1", "--epsilon", "0.1"],
     "--omega and --epsilon are mutually exclusive", ("solve", "compare")),
    ("epsilon-range", ["--epsilon", "1.5"], "epsilon must lie in (0, 1)",
     ("solve", "compare")),
    *((f"omega-{value}", ["--omega", value],
       "cone scale must be finite and >= 0", tuple(NO_CONE_MODEL))
      for value in ("-1", "nan", "inf"))]


@pytest.mark.parametrize("command, flags, error", [
    pytest.param(NO_CONE_MODEL[name], flags, error, id=f"{case}-{name}")
    for case, flags, error, names in BAD_RADIUS for name in names])
def test_radius_flags_are_checked_without_a_cone_model(
        data_dir, tmp_path, capsys, command, flags, error):
    rc = main(command + flags + _common(data_dir, tmp_path))
    assert rc == 1
    assert f"error: {error}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_outlier_capacity_warns_and_still_compares(gen_dir, tmp_path,
                                                   capsys):
    doc = json.loads((gen_dir / "instance.json").read_text())
    doc["destinations"][0]["g"] = 1e9
    (tmp_path / "instance.json").write_text(json.dumps(doc))
    for name in ("demand.csv", "cost.csv"):
        (tmp_path / name).write_bytes((gen_dir / name).read_bytes())
    rc = main(["compare", "--methods", "m1", "--sbar", "7"]
              + _common(tmp_path, tmp_path / "out"))
    assert rc == 0
    dest = doc["destinations"][0]["id"]
    assert (f"warning: destination {dest}: booking capacity"
            in capsys.readouterr().err)
    assert (tmp_path / "out" / "report.csv").exists()


def test_ws_scenario_out_of_range(data_dir, tmp_path, capsys):
    rc = main(["solve", "--model", "ws", "--scenario", "99"]
              + _common(data_dir, tmp_path))
    assert rc == 1
    assert capsys.readouterr().err == "error: scenario index out of range\n"


def test_missing_instance_is_config_error(tmp_path):
    rc = main(["solve", "--model", "sp", "--instance", "nope.json",
               "--demand-csv", "nope.csv", "--out", str(tmp_path)])
    assert rc == 1


def test_unknown_flag_exits_one(data_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "sp", "--bogus"] + _common(data_dir, tmp_path))
    assert exc.value.code == 1


def test_infeasible_solve_exits_two(tmp_path):
    inst = sp.Instance(
        q=10.0, alpha=0.5,
        suppliers=(sp.Supplier("s1", 90.0, 100.0, ("p1",)),),
        destinations=(sp.Destination("d1", 8.0, 50.0),),  # cap 5 vehicles
        arcs=(sp.Arc("s1", "p1", "d1", 2.0),))
    inst.save(tmp_path / "instance.json")
    sp.save_scenarios(tmp_path / "demand.csv", ["d1"], np.array([[30.0]]))
    sp.save_scenarios(tmp_path / "cost.csv", ["d1"], np.array([[8.0]]))
    # supplier minimum 90 > bookable 50, so z <= x makes C2 unreachable
    rc = main(["solve", "--model", "sp"] + _common(tmp_path, tmp_path))
    assert rc == 2


def test_compare_writes_report_and_plot(data_dir, tmp_path):
    rc = main(["compare", "--sbar", "5", "--methods", "m1,m2"]
              + _common(data_dir, tmp_path))
    assert rc == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "tau,m1,m2,m3,m4,m5,ws"
    assert lines[-1].startswith("aggregate,")
    plot = (tmp_path / "plot.csv").read_text().splitlines()
    assert plot[0] == "tau,method,cost"
    assert len(plot) == 1 + 3 * 3  # 3 taus x (m1, m2, ws)


def test_compare_unknown_method(data_dir, tmp_path):
    rc = main(["compare", "--methods", "m7"] + _common(data_dir, tmp_path))
    assert rc == 1


def test_compare_bad_sbar(data_dir, tmp_path):
    rc = main(["compare", "--sbar", "0"] + _common(data_dir, tmp_path))
    assert rc == 1


def test_compare_deterministic(data_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["compare", "--sbar", "6", "--methods", "m1,m3", "--seed", "9"]
    assert main(argv + _common(data_dir, a)) == 0
    assert main(argv + _common(data_dir, b)) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_compare_samples_missing_costs_from_seed(data_dir, tmp_path):
    argv = ["compare", "--sbar", "6", "--methods", "m1",
            "--instance", str(data_dir / "instance.json"),
            "--demand-csv", str(data_dir / "demand.csv")]
    for name, seed in (("a", "3"), ("b", "3"), ("c", "4")):
        assert main(argv + ["--seed", seed,
                            "--out", str(tmp_path / name)]) == 0
    a, b, c = ((tmp_path / name / "report.csv").read_bytes()
               for name in "abc")
    assert a == b
    assert a != c


def test_compare_one_scenario_is_config_error(data_dir, tmp_path, capsys):
    inst = sp.Instance.load(data_dir / "instance.json")
    one = sp.load_scenarios(data_dir / "demand.csv", data_dir / "cost.csv",
                            dest_ids=inst.dest_ids).head(1)
    sp.save_scenarios(tmp_path / "demand.csv", inst.dest_ids, one.demands)
    sp.save_scenarios(tmp_path / "cost.csv", inst.dest_ids, one.costs)
    rc = main(["compare", "--instance", str(data_dir / "instance.json"),
               "--demand-csv", str(tmp_path / "demand.csv"),
               "--cost-csv", str(tmp_path / "cost.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: need 1 <= sbar < S" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stability_csv(data_dir, tmp_path, capsys):
    rc = main(["stability", "--s-list", "3,6"] + _common(data_dir, tmp_path))
    assert rc == 0
    lines = (tmp_path / "stability.csv").read_text().splitlines()
    assert lines[0] == "s,objective"
    assert len(lines) == 3
    capsys.readouterr()
    rc = main(["stability", "--s-list", "x"] + _common(data_dir, tmp_path))
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: --s-list must be a comma list of integers\n"


def test_stability_empty_or_zero_size_is_config_error(data_dir, tmp_path,
                                                      capsys):
    for s_list in ("", "0"):
        rc = main(["stability", "--s-list", s_list]
                  + _common(data_dir, tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


def test_montecarlo_csv(data_dir, tmp_path):
    rc = main(["montecarlo", "--n", "5", "--sbar", "6", "--methods", "m1"]
              + _common(data_dir, tmp_path))
    assert rc == 0
    lines = (tmp_path / "montecarlo.csv").read_text().splitlines()
    assert lines[0] == "method,cost"
    assert lines[1].startswith("m1,")
    rc = main(["montecarlo", "--n", "0"] + _common(data_dir, tmp_path))
    assert rc == 0
    assert (tmp_path / "montecarlo.csv").read_text() == "method,cost\n"


@pytest.mark.parametrize("command", [
    ["montecarlo", "--n", "3", "--sbar", "6", "--methods", "m1,m2"],
    ["compare", "--sigma-band", "--methods", "m1,m2"],
    ["solve", "--model", "sp"],
], ids=["montecarlo", "compare-sigma-band", "solve"])
@pytest.mark.parametrize("sigma", ["1.5", "-0.5", "1.0", "nan"])
def test_sigma_outside_unit_interval_is_config_error(data_dir, tmp_path,
                                                     capsys, command, sigma):
    rc = main(command + ["--sigma", sigma] + _common(data_dir, tmp_path))
    assert rc == 1
    assert "error: sigma must lie in [0, 1)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_montecarlo_negative_n_is_config_error(data_dir, tmp_path, capsys):
    rc = main(["montecarlo", "--n", "-2"] + _common(data_dir, tmp_path))
    assert rc == 1
    assert capsys.readouterr().err == "error: --n must be >= 0\n"


def test_non_finite_cost_cell_is_config_error(data_dir, tmp_path, capsys):
    costs = tmp_path / "cost.csv"
    lines = (data_dir / "cost.csv").read_text().splitlines()
    lines[1] = ",".join(["nan"] + lines[1].split(",")[1:])
    costs.write_text("\n".join(lines) + "\n")
    argv = ["solve", "--model", "sp"] + _common(data_dir, tmp_path / "out")
    argv[argv.index("--cost-csv") + 1] = str(costs)
    assert main(argv) == 1
    assert "error: costs must be finite" in capsys.readouterr().err


def test_non_finite_supplier_minimum_is_config_error(tmp_path, capsys):
    assert main(["gen", "--suppliers", "4", "--destinations", "2",
                 "--scenarios", "6", "--out", str(tmp_path)]) == 0
    path = tmp_path / "instance.json"
    doc = json.loads(path.read_text())
    doc["suppliers"][0]["r"] = float("nan")
    path.write_text(json.dumps(doc))
    assert main(["solve", "--model", "sp"] + _common(tmp_path, tmp_path)) == 1
    assert "r must be finite" in capsys.readouterr().err


def test_negative_supplier_bounds_are_config_error(tmp_path, capsys):
    assert main(["gen", "--suppliers", "4", "--destinations", "2",
                 "--scenarios", "6", "--out", str(tmp_path)]) == 0
    path = tmp_path / "instance.json"
    doc = json.loads(path.read_text())
    doc["suppliers"][0].update(r=-10.0, v=-5.0)
    path.write_text(json.dumps(doc))
    assert main(["solve", "--model", "sp"] + _common(tmp_path, tmp_path)) == 1
    assert "need 0 <= r <= v" in capsys.readouterr().err


def test_compare_matches_the_stored_report(tmp_path):
    """m1-m4 and ws, and integer m1, m2 and ws, on a seeded 6x4x16 instance,
    byte for byte. m5 is left out: its hull rule reads per-scenario blocks
    that the optimum does not determine."""
    assert main(["gen", "--suppliers", "6", "--destinations", "4",
                 "--scenarios", "16", "--seed", "12",
                 "--out", str(tmp_path)]) == 0
    for flags, stored in (
            (["--methods", "m1,m2,m3,m4", "--omega", "2.75"], "m1-m4"),
            (["--integer", "--methods", "m1,m2"], "m1-m2_integer")):
        assert main(["compare", *flags] + _common(tmp_path, tmp_path)) == 0
        golden = (Path(__file__).parent / "golden"
                  / f"compare_6x4x16_seed12_{stored}.csv")
        assert (tmp_path / "report.csv").read_bytes() == golden.read_bytes()


def test_montecarlo_prices_m5_by_hull_rule(tmp_path):
    assert main(["gen", "--suppliers", "6", "--destinations", "2",
                 "--scenarios", "30", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    rc = main(["montecarlo", "--n", "3", "--sbar", "28",
               "--methods", "m1,m4,m5"] + _common(tmp_path, tmp_path))
    assert rc == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "montecarlo.csv").read_text().splitlines()[1:])
    assert rows["m5"] != "inf"
    assert float(rows["m5"]) >= float(rows["m4"])


def test_evpi_prints_value(data_dir, tmp_path, capsys):
    rc = main(["evpi"] + _common(data_dir, tmp_path))
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(out) >= -1e-6


def test_evpi_sp_not_optimal_exits_three(data_dir, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.setattr(linprog, "_MAX_SIMPLEX_ITERS", 1)
    assert main(["evpi"] + _common(data_dir, tmp_path)) == 3
    assert capsys.readouterr().out == ""


def test_evpi_ws_not_optimal_exits_three(data_dir, tmp_path, monkeypatch,
                                         capsys):
    solves = []

    def sp_then_limit(p, cfg=None):   # the SP solves, the first ws does not
        solves.append(p)
        if len(solves) == 1:
            return sp.solve_lp(p, cfg)
        return sp.Solution(sp.Status.ITER_LIMIT, math.inf)

    monkeypatch.setattr(cli, "solve_lp", sp_then_limit)
    assert main(["evpi"] + _common(data_dir, tmp_path)) == 3
    assert len(solves) == 2
    assert capsys.readouterr().out == ""


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert main(["gen", "--suppliers", "4", "--destinations", "3",
                 "--scenarios", "8", "--seed", "3", "--out", str(out)]) == 0
    return out


def test_solve_integer_sp_books_whole_vehicles(gen_dir, tmp_path):
    rc = main(["solve", "--model", "sp", "--integer"]
              + _common(gen_dir, tmp_path))
    assert rc == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert doc["status"] == "optimal"
    assert doc["x"] and all(v == round(v) for v in doc["x"].values())


def _report_rows(path):
    lines = (path / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:-1]]


def test_compare_sigma_band_moves_the_box_models(tmp_path):
    inst, scens = helpers.band_instance(), helpers.band_scens()
    inst.save(tmp_path / "instance.json")
    sp.save_scenarios(tmp_path / "demand.csv", inst.dest_ids, scens.demands)
    sp.save_scenarios(tmp_path / "cost.csv", inst.dest_ids, scens.costs)
    for name, flags in (("plain", []), ("band", ["--sigma-band"])):
        assert main(["compare", "--sbar", "5", *flags]
                    + _common(tmp_path, tmp_path / name)) == 0
    [plain], [band] = (_report_rows(tmp_path / n) for n in ("plain", "band"))
    assert [band[c] == plain[c] for c in sp.ALL_COLUMNS] == \
        [True, False, False, False, False, True]


def test_montecarlo_prices_a_method_over_every_row(tmp_path, monkeypatch):
    """m1's booking solve fails at tau = 9, which makes its report.csv
    aggregate inf; its Monte Carlo cost is inf too, not the sum over the
    rows that solved."""
    assert main(["gen", "--suppliers", "6", "--destinations", "4",
                 "--scenarios", "12", "--seed", "12",
                 "--out", str(tmp_path)]) == 0
    solve_method = framework.solve_method

    def fail_m1_at_nine(inst, method, scens, *args):
        if method == "m1" and scens.S == 9:
            return sp.Solution(sp.Status.ITER_LIMIT, math.inf, {})
        return solve_method(inst, method, scens, *args)

    monkeypatch.setattr(framework, "solve_method", fail_m1_at_nine)
    rc = main(["montecarlo", "--n", "5", "--sbar", "8", "--methods", "m1,m2"]
              + _common(tmp_path, tmp_path))
    assert rc == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "montecarlo.csv").read_text().splitlines()[1:])
    assert rows["m1"] == "inf"
    assert math.isfinite(float(rows["m2"]))


def test_compare_integer_cells_above_relaxed_ws(gen_dir, tmp_path):
    argv = ["compare", "--methods", "m1,m2", "--sbar", "5"]
    assert main(argv + ["--integer"] + _common(gen_dir, tmp_path / "int")) == 0
    assert main(argv + _common(gen_dir, tmp_path / "lp")) == 0
    int_rows = _report_rows(tmp_path / "int")
    lp_rows = _report_rows(tmp_path / "lp")
    assert len(int_rows) == 3
    for row, lp in zip(int_rows, lp_rows):
        for m in ("m1", "m2"):
            assert row[m] != "inf"
            assert float(row[m]) >= float(lp["ws"]) - 1e-6
