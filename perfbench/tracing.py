"""Span tracer that wraps the program's module-level functions from outside.

A target names a layer, a module and a function in it. Installing the tracer
replaces that function at every import site in the package, that is every
module attribute bound to the same object, so the calls ``cone``, ``mip`` and
``framework`` make through their own ``solve_lp`` binding are all recorded.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A target whose module or function no longer exists (after a refactor moves or
deletes it) is listed in ``absent`` instead of raising, and its layer's
metrics read zero.

Spans are ``[id, parent id, name, start, end]`` lists kept in memory; the
benchmark writes them out once at the end of a run.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

_PKG = "supplyplan"


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    name: str
    span: bool = True      # False: count calls only (hot inner functions)
    observe: Callable | None = None  # observe(counts, args, kwargs, result)

    @property
    def label(self) -> str:
        return f"{self.layer}.{self.name}"


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def install(self):
        found = []
        self.absent = []
        for t in self.targets:
            try:
                fn = getattr(importlib.import_module(t.module), t.name)
            except (ImportError, AttributeError):
                self.absent.append(f"{t.module}.{t.name}")
                continue
            found.append((t, fn))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None
                   and (n == _PKG or n.startswith(_PKG + "."))]
        for t, fn in found:
            wrapper = self._wrap(t, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, fn))

    def uninstall(self):
        while self._patched:
            m, attr, fn = self._patched.pop()
            setattr(m, attr, fn)

    def _wrap(self, target: Target, fn):
        label = target.label
        counts = self.counts
        if not target.span:
            def counted(*args, **kwargs):
                counts[label] = counts.get(label, 0) + 1
                return fn(*args, **kwargs)
            return counted

        observe = target.observe

        def traced(*args, **kwargs):
            with self.span(label):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name,
               time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    # -- summaries ---------------------------------------------------------

    def absent_layers(self) -> list[str]:
        """Layers none of whose targets could be wrapped."""
        present = {t.layer for t in self.targets
                   if f"{t.module}.{t.name}" not in self.absent}
        return sorted({t.layer for t in self.targets} - present)

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[4] - s[3]
        return out

    def nearest(self, index: int, names) -> str | None:
        """Name of the closest ancestor span whose name is in ``names``."""
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][2] in names:
                return self.spans[parent][2]
            parent = self.spans[parent][1]
        return None


# -- this program's layers ---------------------------------------------------

ROOT = "framework.call"


def _bump(counts, key, by=1.0):
    counts[key] = counts.get(key, 0) + by


def _status(result) -> str:
    status = getattr(result, "status", None)
    return getattr(status, "name", str(status))


def _observe_solve_lp(counts, args, kwargs, sol):
    if _status(sol) != "OPTIMAL":
        _bump(counts, "linprog.not_optimal")


def _observe_highs(counts, args, kwargs, res):
    _bump(counts, "linprog.simplex_iters", int(getattr(res, "nit", 0) or 0))
    for key in ("A_ub", "A_eq"):
        A = kwargs.get(key)
        if A is not None:
            _bump(counts, "linprog.rows", A.shape[0])
            nnz = A.nnz if hasattr(A, "nnz") else np.count_nonzero(A)
            _bump(counts, "linprog.nnz", int(nnz))


def _observe_cone(counts, args, kwargs, sol):
    if _status(sol) == "CUT_LIMIT":
        _bump(counts, "cone.cut_limit")
    residual = float(getattr(sol, "cone_residual", 0.0) or 0.0)
    counts["cone.residual_max"] = max(counts.get("cone.residual_max", 0.0),
                                      residual)


def _observe_mip(counts, args, kwargs, sol):
    status = _status(sol)
    if status == "NODE_LIMIT":
        _bump(counts, "mip.node_limit")
    elif status == "OPTIMAL":
        _bump(counts, "mip.optimal")


def _observe_lsq(counts, args, kwargs, result):
    import supplyplan
    tol = getattr(supplyplan, "PHI_ZERO_TOL", 1e-6)
    d = np.asarray(args[0] if args else kwargs["target"], dtype=float)
    phi = float(result[1])
    if phi <= tol * (float(d @ d) + 1.0):
        _bump(counts, "projection.in_hull")


BUILDERS = ("build_sp", "build_ro_box", "build_ro_ell", "build_trsocp",
            "build_ws", "build_recourse")

TARGETS = [
    Target("linprog", f"{_PKG}.linprog", "solve_lp",
           observe=_observe_solve_lp),
    Target("linprog", f"{_PKG}.linprog", "_scipy_linprog",
           observe=_observe_highs),
    Target("cone", f"{_PKG}.cone", "solve_cone", observe=_observe_cone),
    Target("mip", f"{_PKG}.mip", "solve_mip", observe=_observe_mip),
    Target("projection", f"{_PKG}.projection", "project_simplex_lsq",
           observe=_observe_lsq),
    Target("projection", f"{_PKG}.projection", "project_simplex", span=False),
    *[Target("formulations", f"{_PKG}.formulations", b) for b in BUILDERS],
    Target("formulations", f"{_PKG}.formulations", "recover_adjustable_m5"),
    Target("formulations", f"{_PKG}.formulations", "extract_first_stage"),
    Target("model", f"{_PKG}.model", "first_stage_rows"),
    Target("model", f"{_PKG}.model", "second_stage_rows"),
    Target("framework", f"{_PKG}.framework", "evaluate_recourse"),
]

# Units of the per-layer metrics. Each is reported per traced call, except
# the ratios, cone.residual_max, and linprog.rows/nnz (per LP solve).
UNITS = {
    "cone.solves": "count", "cone.solve_s": "s", "cone.lp_rounds": "count",
    "cone.rounds_per_solve": "count", "cone.cut_limit": "count",
    "cone.residual_max": "ratio", "cone.self_s": "s",
    "linprog.solves": "count", "linprog.highs_s": "s",
    "linprog.assemble_s": "s", "linprog.simplex_iters": "count",
    "linprog.rows": "count", "linprog.nnz": "count",
    "linprog.not_optimal": "count",
    "projection.calls": "count", "projection.solve_s": "s",
    "projection.iters": "count", "projection.in_hull_ratio": "ratio",
    "projection.self_s": "s",
    "formulations.builds": "count", "formulations.build_s": "s",
    "formulations.m5_rule_s": "s", "formulations.self_s": "s",
    "model.rows_s": "s",
    "mip.solves": "count", "mip.solve_s": "s", "mip.nodes": "count",
    "mip.node_limit": "count", "mip.optimal_ratio": "ratio",
    "mip.self_s": "s",
    "framework.price_calls": "count", "framework.price_s": "s",
    "framework.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics over the root spans the tracer recorded.

    ``untraced_s`` is the mean wall time of the same calls made without the
    tracer; ``trace.overhead_s`` is the traced mean minus it. The layer self
    times (``linprog.assemble_s`` and ``linprog.highs_s`` for ``linprog``,
    ``model.rows_s`` for ``model``) add up to ``trace.wall_s``.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    n_calls = sum(1 for s in spans if s[2] == ROOT)
    if n_calls == 0:
        raise ValueError("no traced call")
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    lp_in = {"cone.solve_cone": 0, "mip.solve_mip": 0}
    for i, s in enumerate(spans):
        name = s[2]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[4] - s[3])
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_t[i]
        if name == "linprog.solve_lp":
            owner = tracer.nearest(i, lp_in)
            if owner is not None:
                lp_in[owner] += 1
    c = tracer.counts

    def per_call(v):
        return v / n_calls

    def ratio(a, b):
        return a / b if b else 0.0

    builds = sum(count.get(f"formulations.{b}", 0) for b in BUILDERS)
    build_s = sum(total.get(f"formulations.{b}", 0.0) for b in BUILDERS)
    highs_s = total.get("linprog._scipy_linprog", 0.0)   # leaf: self time
    highs_n = count.get("linprog._scipy_linprog", 0)
    cone_n = count.get("cone.solve_cone", 0)
    mip_n = count.get("mip.solve_mip", 0)
    lsq_n = count.get("projection.project_simplex_lsq", 0)
    wall = total.get(ROOT, 0.0)
    return {
        "cone.solves": per_call(cone_n),
        "cone.solve_s": per_call(total.get("cone.solve_cone", 0.0)),
        "cone.lp_rounds": per_call(lp_in["cone.solve_cone"]),
        "cone.rounds_per_solve": ratio(lp_in["cone.solve_cone"], cone_n),
        "cone.cut_limit": per_call(c.get("cone.cut_limit", 0)),
        "cone.residual_max": c.get("cone.residual_max", 0.0),
        "cone.self_s": per_call(layer_self.get("cone", 0.0)),
        "linprog.solves": per_call(count.get("linprog.solve_lp", 0)),
        "linprog.highs_s": per_call(highs_s),
        "linprog.assemble_s": per_call(layer_self.get("linprog", 0.0)
                                     - highs_s),
        "linprog.simplex_iters": per_call(c.get("linprog.simplex_iters", 0)),
        "linprog.rows": ratio(c.get("linprog.rows", 0), highs_n),
        "linprog.nnz": ratio(c.get("linprog.nnz", 0), highs_n),
        "linprog.not_optimal": per_call(c.get("linprog.not_optimal", 0)),
        "projection.calls": per_call(lsq_n),
        "projection.solve_s": per_call(
            total.get("projection.project_simplex_lsq", 0.0)),
        "projection.iters": per_call(c.get("projection.project_simplex", 0)),
        "projection.in_hull_ratio": ratio(c.get("projection.in_hull", 0),
                                          lsq_n),
        "projection.self_s": per_call(layer_self.get("projection", 0.0)),
        "formulations.builds": per_call(builds),
        "formulations.build_s": per_call(build_s),
        "formulations.m5_rule_s": per_call(
            total.get("formulations.recover_adjustable_m5", 0.0)),
        "formulations.self_s": per_call(layer_self.get("formulations", 0.0)),
        "model.rows_s": per_call(layer_self.get("model", 0.0)),
        "mip.solves": per_call(mip_n),
        "mip.solve_s": per_call(total.get("mip.solve_mip", 0.0)),
        "mip.nodes": per_call(lp_in["mip.solve_mip"]),
        "mip.node_limit": per_call(c.get("mip.node_limit", 0)),
        "mip.optimal_ratio": ratio(c.get("mip.optimal", 0), mip_n),
        "mip.self_s": per_call(layer_self.get("mip", 0.0)),
        "framework.price_calls": per_call(
            count.get("framework.evaluate_recourse", 0)),
        "framework.price_s": per_call(
            total.get("framework.evaluate_recourse", 0.0)),
        "framework.self_s": per_call(layer_self.get("framework", 0.0)),
        "trace.wall_s": per_call(wall),
        "trace.overhead_s": per_call(wall) - untraced_s,
    }
