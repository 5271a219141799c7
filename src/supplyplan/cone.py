"""Second-order cone rows of a problem solved by outer approximation.

A cone row encodes ``epi - affine >= scale * ||(terms)||_2`` (membership of
``(epi - affine)/scale`` and the term vector in the Lorentz cone). The solver
lifts each cone onto a slack ``0 <= s <= epi - affine`` (one linear row) and
approximates ``s >= scale * ||(terms)||`` by supporting-hyperplane cuts of the
norm on ``s`` and the terms only: at a point with term vector ``t != 0`` the
cut ``s - scale * (t/||t||) . terms >= 0``, at the start the axis-aligned cuts
``s -/+ scale * term_l >= 0`` and the uniform direction. Every cut is a
gradient inequality of a convex norm, hence valid for the cone, and none
copies the affine part, so the LP stays sparse.

Violations are measured on the original cones at the LP point. A violated
cone's cut on its slack separates the point, as
``s <= epi - affine < scale * ||t||``.

The problem and its initial cuts are assembled into one sparse matrix once.
Each round appends its violated cuts as one block of rows and re-solves
HiGHS warm from the previous round's basis, the new rows basic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .linprog import (LinearProblem, Solution, SolverConfig, Status,
                      _row_form, rows_to_csr, run_highs)


@dataclass
class ConeRow:
    epigraph_var: str
    affine_part: dict[str, float]
    cone_terms: list[dict[str, float]] = field(default_factory=list)
    scale: float = 0.0

    def __post_init__(self):
        if not self.scale >= 0:
            raise ValueError("cone scale must be >= 0")

    def term_values(self, values: dict[str, float]) -> np.ndarray:
        return np.array([sum(c * values.get(n, 0.0) for n, c in term.items())
                         for term in self.cone_terms])

    def lhs(self, values: dict[str, float]) -> float:
        affine = sum(c * values.get(n, 0.0) for n, c in self.affine_part.items())
        return values.get(self.epigraph_var, 0.0) - affine

    def violation(self, values: dict[str, float]) -> tuple[float, np.ndarray]:
        """Relative cone violation and the term vector at ``values``."""
        t = self.term_values(values)
        nrm = float(np.linalg.norm(t))
        viol = self.scale * nrm - self.lhs(values)
        return viol / max(1.0, nrm), t


def _cut_coeffs(cone: ConeRow, weights) -> dict[str, float]:
    """Row ``epi - affine - scale * sum_l w_l * term_l >= 0`` as a coeff map."""
    coeffs: dict[str, float] = {cone.epigraph_var: 1.0}
    for name, c in cone.affine_part.items():
        coeffs[name] = coeffs.get(name, 0.0) - c
    for w, term in zip(weights, cone.cone_terms):
        if w == 0.0:
            continue
        for name, c in term.items():
            coeffs[name] = coeffs.get(name, 0.0) - cone.scale * w * c
    return coeffs


def _violated_cuts(live, values, tol):
    """Cuts on the slacks of the cones ``values`` violates by more than
    ``tol``, and the largest relative violation (0 if none). ``live`` pairs
    each cone with its lifted form ``ConeRow(slack, {}, terms, scale)``."""
    cuts, residual = [], 0.0
    for c, lifted in live:
        rel, t = c.violation(values)
        residual = max(residual, rel)
        if rel > tol:
            nrm = float(np.linalg.norm(t))
            if nrm > 0.0:  # the origin is covered by the axis cuts
                cuts.append(_cut_coeffs(lifted, t / nrm))
    return cuts, residual


def solve_cone(p: LinearProblem, cfg: SolverConfig | None = None) -> Solution:
    """Solve ``p`` subject to its cone rows (continuous only)."""
    cfg = cfg or SolverConfig()
    if p.any_integer():
        raise ValueError("cone problems are solved in continuous variables only")

    work, live = p.copy(), []
    for c in p.cones:
        if c.scale == 0.0 or not c.cone_terms:
            # degenerate cone: plain linear row epi >= affine
            work.add_row(_cut_coeffs(c, []), ">=", 0.0)
            continue
        # slack s <= epi - affine, named by a tuple, which no str name equals
        s = work.add_var(("cone slack", len(live)))
        work.add_row({**_cut_coeffs(c, []), s: -1.0}, ">=", 0.0)
        lifted = ConeRow(s, {}, c.cone_terms, c.scale)
        live.append((c, lifted))
        L = len(c.cone_terms)
        for l in range(L):
            for sign in (1.0, -1.0):
                w = [0.0] * L
                w[l] = sign
                work.add_row(_cut_coeffs(lifted, w), ">=", 0.0)
        # uniform direction, unit norm; tightens the start when many terms
        # are active at once
        work.add_row(_cut_coeffs(lifted, [1.0 / math.sqrt(L)] * L), ">=", 0.0)
    cost, A, lo, hi, col_lo, col_hi = _row_form(work)

    lp, x, basis = run_highs(cost, A, lo, hi, col_lo, col_hi)
    rounds, iters = 1, lp.simplex_iters
    while lp.optimal:
        values = dict(zip(p.var_names, x.tolist()))  # drops the slacks
        cuts, residual = _violated_cuts(live, values, cfg.cone_tol)
        if not cuts or rounds > cfg.max_cut_rounds:
            status = Status.CUT_LIMIT if cuts else Status.OPTIMAL
            return Solution(status, lp.objective + p.objective_offset, values,
                            cone_residual=residual, lp_rounds=rounds,
                            simplex_iters=iters)
        A = sp.vstack([A, rows_to_csr(work, cuts)], format="csr")
        lo = np.concatenate([lo, np.zeros(len(cuts))])
        hi = np.concatenate([hi, np.full(len(cuts), np.inf)])
        lp, x, basis = run_highs(cost, A, lo, hi, col_lo, col_hi, basis)
        rounds += 1
        iters += lp.simplex_iters
    return replace(lp, lp_rounds=rounds, simplex_iters=iters)
