"""Integer problems by HiGHS's branch and bound, through ``run_highs``."""

from __future__ import annotations

from dataclasses import replace

from .linprog import (LinearProblem, Solution, SolverConfig, _row_form,
                      run_highs, solve_lp)


def solve_mip(p: LinearProblem, cfg: SolverConfig | None = None) -> Solution:
    """Solve ``p`` with its integrality marks; ``max_bb_nodes`` caps the
    branch-and-bound nodes. The relative gap is off, so HiGHS's default
    absolute gap (1e-6) governs termination; its feasibility tolerances are
    the defaults too (primal and dual 1e-7, integer 1e-6)."""
    cfg = cfg or SolverConfig()
    if not p.any_integer():
        return solve_lp(p, cfg)
    sol, x, _ = run_highs(*_row_form(p), integrality=p.integer,
                          max_bb_nodes=cfg.max_bb_nodes)
    if x is None:
        return sol
    values = {name: float(round(v)) if integer else float(v)
              for name, v, integer in zip(p.var_names, x, p.integer)}
    return replace(sol, objective=sol.objective + p.objective_offset,
                   values=values)
