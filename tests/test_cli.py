import json
from pathlib import Path

import numpy as np
import pytest

import supplyplan as sp
from supplyplan import framework
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


def test_ws_scenario_out_of_range(data_dir, tmp_path):
    rc = main(["solve", "--model", "ws", "--scenario", "99"]
              + _common(data_dir, tmp_path))
    assert rc == 1


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


def test_compare_jobs_below_one(data_dir, tmp_path, capsys):
    for jobs in ("0", "-3"):
        rc = main(["compare", "--methods", "m1", "--jobs", jobs]
                  + _common(data_dir, tmp_path))
        assert rc == 1
        assert "error: jobs must be >= 1" in capsys.readouterr().err


def test_compare_deterministic(data_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["compare", "--sbar", "6", "--methods", "m1,m3", "--seed", "9"]
    assert main(argv + _common(data_dir, a)) == 0
    assert main(argv + _common(data_dir, b)) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_stability_csv(data_dir, tmp_path):
    rc = main(["stability", "--s-list", "3,6"] + _common(data_dir, tmp_path))
    assert rc == 0
    lines = (tmp_path / "stability.csv").read_text().splitlines()
    assert lines[0] == "s,objective"
    assert len(lines) == 3
    rc = main(["stability", "--s-list", "x"] + _common(data_dir, tmp_path))
    assert rc == 1


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
    assert "error: --n must be >= 0" in capsys.readouterr().err


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
