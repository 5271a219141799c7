"""The benchmark's four workloads, driven through the package's public API.

Each workload has a ``full`` size (the benchmark) and a ``smoke`` size (the
benchmark's own tests). ``setup(seed)`` makes the inputs, ``call(state, i)``
makes timed call ``i`` and returns its output, ``ops(state, output)`` counts
the ops in that output (report cells or priced draws), and
``check(state, outputs, reference)`` runs the correctness gate.

``inputs(state, i)`` of a comparison workload gives each scenario set of call
``i`` with its known in-hull flag (None where m5 is not run): whether the
realization priced at the last row lies in the hull of the history, which
decides if m5 is finite. The flags follow from how the realizations are
built, not from the program's own projection; ``make_reference.py`` confirms
them by criterion 5's test.

Instance and scenario history are fixed per workload; the workload seed draws
(part of) the realizations the bookings are priced against, or the Monte
Carlo draws.
Seeding the history too makes the runs unsteady beyond any usable bound: on
seeded 24x15x48 instances the m4 cut loop took 9-37 s for one row, and the
hull projection of a demand just outside the hull took 0.01 s or 2.5 s
depending on the point.
"""

from __future__ import annotations

import numpy as np

import supplyplan as sp

import checks

OMEGA = 2.75
SIGMA = 0.2
POOL = 256            # seeded realizations; call i uses entry i % POOL


def _append(hist: sp.ScenarioSet, d, b) -> sp.ScenarioSet:
    return sp.ScenarioSet(np.vstack([hist.demands, d]),
                          np.vstack([hist.costs, b]), dest_ids=hist.dest_ids)


class _Comparison:
    """Timed calls make ``run_comparison`` calls; an op is one report cell."""

    methods = ["m1", "m2", "m3", "m4", "m5"]
    relax = True
    rows_per_call = 1
    repeats = False       # every timed call is the same
    reference_calls = 1   # timed calls stored per seed by make_reference.py

    def __init__(self, size: str):
        self.p = self.sizes[size]

    def cfg(self) -> sp.SolverConfig:
        return sp.SolverConfig()

    def call(self, st, i):
        rows = []
        for scens, in_hull in self.inputs(st, i):
            report = sp.run_comparison(
                st["inst"], scens, scens.S - self.rows_per_call,
                methods=self.methods, omega=OMEGA, relax=self.relax,
                cfg=st["cfg"])
            for tau in report.taus:
                rows.append({"tau": tau, "in_hull": in_hull,
                             "cells": {c: report.cells[(c, tau)]
                                       for c in self.methods + ["ws"]}})
        return rows

    def ops(self, st, rows) -> int:
        return sum(len(r["cells"]) for r in rows)

    def check(self, st, outputs, reference):
        failed, errors = 0, []
        for i, rows in enumerate(outputs):
            j = 0 if self.repeats else i
            ref = reference[j] if reference and j < len(reference) else None
            scens = [s for s, _ in self.inputs(st, i)]
            f, e = checks.check_rows(rows, ref, self.relaxed_ws(st, scens))
            failed += f
            errors += [f"call {i}: {m}" for m in e]
        return failed, errors

    def relaxed_ws(self, st, scens):
        return None


class Rolling(_Comparison):
    """Last two rows of the acceptance comparison, m1-m5 and ws.

    History and realized demand are the acceptance ones (instance seed 42,
    scenario seed 43); the seed draws the buying-cost realization of the last
    row, the 48th cost row of the generator stream ``seed + 1``, so seed 42
    reproduces the acceptance rows exactly. Every timed call is the same.
    Both realizations lie outside the hull of their history.
    """

    name = "rolling"
    rows_per_call = 2
    repeats = True
    sizes = {"full": {"suppliers": 24, "destinations": 15, "scenarios": 48},
             "smoke": {"suppliers": 6, "destinations": 4, "scenarios": 12}}

    def setup(self, seed):
        p = self.p
        inst = sp.gen_instance(p["suppliers"], p["destinations"], seed=42)
        hist = sp.gen_scenarios(inst, p["scenarios"], seed=43)
        draw = sp.gen_scenarios(inst, p["scenarios"], seed=seed + 1)
        head = hist.head(p["scenarios"] - 1)
        scens = _append(head, hist.demands[-1], draw.costs[-1])
        return {"inst": inst, "scens": scens, "cfg": self.cfg()}

    def inputs(self, st, i):
        return [(st["scens"], False)]


class Hull(_Comparison):
    """Low-dimensional, many-scenario history where realizations fall in the
    hull, so m5 cells are finite and the projection does most of the work.

    Each timed call prices four realizations against the last row (tau =
    history size). Three are seeded convex combinations of three history
    demands, inside the hull by construction. The fourth is the generator's
    next scenario demand, which lies just outside the hull; its projection is
    the slow case. All four carry seeded buying costs.
    """

    name = "hull"
    reference_calls = 10
    sizes = {"full": {"suppliers": 24, "destinations": 3, "history": 127},
             "smoke": {"suppliers": 6, "destinations": 2, "history": 15}}

    def setup(self, seed):
        p = self.p
        inst = sp.gen_instance(p["suppliers"], p["destinations"], seed=0)
        full = sp.gen_scenarios(inst, p["history"] + 1, seed=1)
        hist = full.head(p["history"])
        rng = np.random.default_rng(seed)
        inside = np.empty((POOL, len(inst.destinations)))
        for j in range(POOL):
            idx = rng.choice(p["history"], 3, replace=False)
            inside[j] = rng.dirichlet(np.ones(3)) @ hist.demands[idx]
        costs = sp.gen_scenarios(inst, POOL, seed=seed).costs
        return {"inst": inst, "hist": hist, "edge": full.demands[-1],
                "inside": inside, "costs": costs, "cfg": self.cfg()}

    def inputs(self, st, i):
        out = []
        for k in range(4):
            j = (4 * i + k) % POOL
            if k < 3:
                d, flag = st["inside"][j], True
            else:
                d, flag = st["edge"], False
            out.append((_append(st["hist"], d, st["costs"][j]), flag))
        return out


class Integer(_Comparison):
    """m1 and m2 with integer bookings by the package's branch and bound.

    A small fixed instance and history; timed call ``i`` prices against
    realization ``i``: the ``i``-th demand of a fixed stream (seed 3) with the
    ``i``-th buying costs of the seeded stream. The node budget is part of the
    workload. At full size every MIP is solved to optimality within it: the
    m1 and m2 bookings take 85 and 71 node LPs, the integer ws 9 to 861 over
    the first 100 realized demands (cost seed 5). A cell that stops at the
    node limit is a failed op. How many nodes a cell takes depends on the
    demand, hardly on the costs, so the demand stream is fixed and every seed
    makes the same branch and bound work. The smoke size keeps a budget at
    which cells do stop at the limit, so the benchmark's tests see them
    counted.
    """

    name = "integer"
    methods = ["m1", "m2"]
    relax = False
    sizes = {"full": {"suppliers": 4, "destinations": 2, "history": 3,
                      "max_bb_nodes": 5000},
             "smoke": {"suppliers": 2, "destinations": 1, "history": 2,
                       "max_bb_nodes": 10}}

    def cfg(self):
        return sp.SolverConfig(max_bb_nodes=self.p["max_bb_nodes"])

    def setup(self, seed):
        p = self.p
        inst = sp.gen_instance(p["suppliers"], p["destinations"], seed=1)
        hist = sp.gen_scenarios(inst, p["history"], seed=2)
        demands = sp.gen_scenarios(inst, POOL, seed=3).demands
        costs = sp.gen_scenarios(inst, POOL, seed=seed).costs
        return {"inst": inst, "hist": hist, "demands": demands,
                "costs": costs, "cfg": self.cfg()}

    def inputs(self, st, i):
        j = i % POOL
        return [(_append(st["hist"], st["demands"][j], st["costs"][j]),
                 None)]

    def relaxed_ws(self, st, scens):
        out = []
        for s in scens:
            tau = s.S - 1
            p = sp.build_ws(st["inst"], s.demands[tau], s.costs[tau])
            out.append(sp.solve_lp(p).objective)
        return out


class Pricing:
    """Monte Carlo validation of fixed m1-m3 bookings: thousands of small
    recourse LPs. Setup books with ``run_comparison`` on the acceptance
    instance, as ``supplyplan montecarlo`` does. A timed call is one
    ``monte_carlo_validation`` call over ``draws`` seeded draws, and an op is
    one priced draw (method x tau x draw). Every timed call is the same.
    """

    name = "pricing"
    methods = ["m1", "m2", "m3"]
    repeats = True
    reference_calls = 1
    sizes = {"full": {"suppliers": 24, "destinations": 15, "scenarios": 48,
                      "sbar": 44, "draws": 40},
             "smoke": {"suppliers": 6, "destinations": 4, "scenarios": 12,
                       "sbar": 10, "draws": 3}}

    def __init__(self, size: str):
        self.p = self.sizes[size]

    def setup(self, seed):
        p = self.p
        inst = sp.gen_instance(p["suppliers"], p["destinations"], seed=42)
        hist = sp.gen_scenarios(inst, p["scenarios"], seed=43)
        report = sp.run_comparison(inst, hist, p["sbar"],
                                   methods=self.methods, omega=OMEGA)
        stages = {m: {tau: fs for (c, tau), fs in report.first_stages.items()
                      if c == m} for m in self.methods}
        return {"inst": inst, "stages": stages, "seed": seed,
                "taus": report.taus, "gamma": sp.demand_gamma(hist),
                "d_bar": hist.demands.mean(axis=0),
                "b_bar": hist.costs.mean(axis=0)}

    def call(self, st, i):
        return sp.monte_carlo_validation(
            st["inst"], st["stages"], self.p["draws"], st["seed"],
            st["gamma"], SIGMA, st["d_bar"], st["b_bar"])

    def ops(self, st, results) -> int:
        return len(results) * len(st["taus"]) * self.p["draws"]

    def check(self, st, outputs, reference):
        failed, errors = 0, []
        floor = len(st["taus"]) * float(np.mean(self._ws_values(st)))
        per_method = len(st["taus"]) * self.p["draws"]
        ref = reference[0] if reference else None
        for i, results in enumerate(outputs):
            f, e = checks.check_aggregates(results, per_method, floor, ref)
            failed += f
            errors += [f"call {i}: {m}" for m in e]
        return failed, errors

    def _ws_values(self, st):
        """Wait-and-see optima over the same draws monte_carlo_validation
        makes: one stream, the demand matrix first, then the cost matrix."""
        d_bar, b_bar = st["d_bar"], st["b_bar"]
        gamma = np.broadcast_to(st["gamma"], d_bar.shape)
        stream = sp.Stream(st["seed"])
        n = self.p["draws"]
        ds = stream.uniform_matrix(np.maximum(d_bar * (1 - gamma), 0.0),
                                   d_bar * (1 + gamma), n)
        bs = stream.uniform_matrix(b_bar * (1 - SIGMA), b_bar * (1 + SIGMA), n)
        return [sp.solve_lp(sp.build_ws(st["inst"], d, b)).objective
                for d, b in zip(ds, bs)]


WORKLOADS = {w.name: w for w in (Rolling, Hull, Pricing, Integer)}
