"""Tests of the benchmark itself, at its smoke size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from make_reference import flag_errors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds",
                     "0.5", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    if workload == "integer":
        assert result["failed"] >= 1      # node-limited cells stay visible
    else:
        assert result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])
    if not trace:
        assert all(metrics[m["name"]]["value"] > 0 for m in spec)
        return
    # the layer self times account for the traced wall time
    v = {k: m["value"] for k, m in metrics.items()}
    parts = (v["framework.self_s"] + v["formulations.self_s"]
             + v["model.rows_s"] + v["linprog.assemble_s"]
             + v["linprog.highs_s"] + v["cone.self_s"] + v["mip.self_s"]
             + v["projection.self_s"])
    assert parts == pytest.approx(v["trace.wall_s"], rel=1e-9, abs=1e-12)
    assert v["linprog.solves"] > 0
    assert (v["mip.solves"] > 0) == (workload == "integer")
    assert (v["cone.solves"] > 0) == (workload in ("rolling", "hull"))


def test_perturbed_reference_cell_counts_as_failure():
    wl = WORKLOADS["hull"]("smoke")
    st = wl.setup(5)
    rows = wl.call(st, 0)
    reference = [copy.deepcopy(rows)]
    assert wl.check(st, [rows], reference) == (0, [])

    reference[0][1]["cells"]["m2"] *= 1.0 + 1e-4
    failed, errors = wl.check(st, [rows], reference)
    assert failed == 1
    assert len(errors) == 1 and "m2" in errors[0]


@pytest.mark.parametrize("workload", ["rolling", "hull"])
def test_known_in_hull_flags_agree_with_criterion_5(workload):
    wl = WORKLOADS[workload]("smoke")
    st = wl.setup(5)
    assert flag_errors(wl, st, 0, wl.call(st, 0)) == []


def test_perturbed_monte_carlo_aggregate_counts_as_failure():
    wl = WORKLOADS["pricing"]("smoke")
    st = wl.setup(5)
    results = wl.call(st, 0)
    reference = [dict(results)]
    assert wl.check(st, [results], reference) == (0, [])
    reference[0]["m3"] *= 1.0 - 1e-4
    failed, errors = wl.check(st, [results], reference)
    assert failed == len(st["taus"]) * wl.p["draws"]
    assert len(errors) == 1 and "m3" in errors[0]


def test_missing_wrapped_name_is_reported_absent():
    import supplyplan.cone
    import supplyplan.framework
    import supplyplan.linprog
    import supplyplan.mip

    original = supplyplan.linprog.solve_lp
    targets = [t for t in tracing.TARGETS if t.layer != "mip"] + [
        tracing.Target("mip", "supplyplan.mip", "solve_mip_renamed"),
        tracing.Target("mip", "supplyplan.no_such_module", "solve")]
    tracer = tracing.Tracer(targets)
    wl = WORKLOADS["integer"]("smoke")
    st = wl.setup(5)
    tracer.install()
    try:
        # every import site of solve_lp is wrapped, not only the defining one
        for mod in (supplyplan.linprog, supplyplan.cone, supplyplan.mip,
                    supplyplan.framework):
            assert mod.solve_lp is not original
        with tracer.span(tracing.ROOT):
            wl.call(st, 0)
    finally:
        tracer.uninstall()
    assert supplyplan.cone.solve_lp is original
    assert tracer.absent == ["supplyplan.mip.solve_mip_renamed",
                             "supplyplan.no_such_module.solve"]
    assert tracer.absent_layers() == ["mip"]
    values = tracing.layer_metrics(tracer, 0.0)
    assert values["mip.solves"] == 0.0
    assert values["linprog.solves"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "rolling", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
