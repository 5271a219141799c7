"""Integer problems by HiGHS MIP (``scipy.optimize.milp``)."""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .linprog import (LinearProblem, Solution, SolverConfig, Status,
                      _highs, _row_form, solve_lp)

# how milp's message names HiGHS's "primal infeasible or unbounded"
_UNDECIDED = f"HiGHS Status {int(_highs.HighsModelStatus.kUnboundedOrInfeasible)}:"


def solve_mip(p: LinearProblem, cfg: SolverConfig | None = None) -> Solution:
    """Solve ``p`` with its integrality marks; ``max_bb_nodes`` caps the
    branch-and-bound nodes. The relative gap is off, so HiGHS's default
    absolute gap (1e-6) governs termination; its feasibility tolerances are
    the defaults too (primal and dual 1e-7, integer 1e-6)."""
    cfg = cfg or SolverConfig()
    if not p.any_integer():
        return solve_lp(p, cfg)

    c, A, lo, hi, col_lo, col_hi = _row_form(p)
    res = milp(c, constraints=LinearConstraint(A, lo, hi),
               bounds=Bounds(col_lo, col_hi),
               integrality=np.asarray(p.integer, dtype=int),
               options={"node_limit": cfg.max_bb_nodes, "mip_rel_gap": 0.0})

    def incumbent(status):
        vals = {name: float(round(v)) if integer else float(v)
                for name, v, integer in zip(p.var_names, res.x, p.integer)}
        return Solution(status, float(res.fun) + p.objective_offset, vals,
                        gap=float(res.fun) - float(res.mip_dual_bound))

    if res.status == 0:
        return incumbent(Status.OPTIMAL)
    if res.status == 2:
        return Solution(Status.INFEASIBLE, math.inf)
    if res.status == 3:
        return Solution(Status.UNBOUNDED, -math.inf)
    if res.status == 4 and _UNDECIDED in res.message:
        # a MIP whose relaxation has an optimum is bounded, so infeasible
        if solve_lp(p).status is Status.UNBOUNDED:
            return Solution(Status.UNBOUNDED, -math.inf)
        return Solution(Status.INFEASIBLE, math.inf)
    if res.status == 4 and (res.mip_node_count or 0) >= cfg.max_bb_nodes:
        if res.x is None:
            return Solution(Status.NODE_LIMIT, math.inf, gap=math.inf)
        return incumbent(Status.NODE_LIMIT)
    if res.status == 1:
        return Solution(Status.ITER_LIMIT, math.inf)
    raise RuntimeError(f"MIP backend failure: {res.message}")
