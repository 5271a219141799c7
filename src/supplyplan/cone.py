"""Second-order cone rows of a problem solved by outer approximation.

A cone row encodes ``epi - affine >= scale * ||(terms)||_2`` (membership of
``(epi - affine)/scale`` and the term vector in the Lorentz cone). The solver
accumulates supporting-hyperplane cuts of the norm at the incumbent point: at
a point with term vector ``t != 0`` the cut is
``epi - affine - scale * (t/||t||) . terms >= 0``; at the origin the
axis-aligned cuts ``epi - affine -/+ scale * term_l >= 0`` are used. Every cut
is a gradient inequality of a convex norm, hence valid for the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linprog import LinearProblem, Solution, SolverConfig, Status, solve_lp


@dataclass
class ConeRow:
    epigraph_var: str
    affine_part: dict[str, float]
    cone_terms: list[dict[str, float]] = field(default_factory=list)
    scale: float = 0.0

    def __post_init__(self):
        if self.scale < 0:
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


def solve_cone(p: LinearProblem, cfg: SolverConfig | None = None) -> Solution:
    """Solve ``p`` subject to its cone rows (continuous only)."""
    cfg = cfg or SolverConfig()
    if p.any_integer():
        raise ValueError("cone problems are solved in continuous variables only")

    work = p.copy()
    for c in p.cones:
        if c.scale == 0.0 or not c.cone_terms:
            # degenerate cone: plain linear row epi >= affine
            work.add_row(_cut_coeffs(c, [0.0] * len(c.cone_terms)), ">=", 0.0)
            continue
        L = len(c.cone_terms)
        for l in range(L):
            for sign in (1.0, -1.0):
                w = [0.0] * L
                w[l] = sign
                work.add_row(_cut_coeffs(c, w), ">=", 0.0)
        # uniform direction, unit norm; tightens the start when many terms
        # are active at once
        work.add_row(_cut_coeffs(c, [1.0 / math.sqrt(L)] * L), ">=", 0.0)

    live = [c for c in p.cones if c.scale > 0.0 and c.cone_terms]
    sol = solve_lp(work, cfg)
    if not sol.optimal or not live:
        return sol

    for _ in range(cfg.max_cut_rounds):
        residual = 0.0
        added = False
        for c in live:
            rel, t = c.violation(sol.values)
            residual = max(residual, rel)
            if rel > cfg.cone_tol:
                nrm = float(np.linalg.norm(t))
                if nrm == 0.0:
                    continue  # origin is covered by the axis cuts
                work.add_row(_cut_coeffs(c, t / nrm), ">=", 0.0)
                added = True
        if not added:
            sol.cone_residual = max(0.0, residual)
            return sol
        sol = solve_lp(work, cfg)
        if not sol.optimal:
            return sol

    residual = max(c.violation(sol.values)[0] for c in live)
    return Solution(Status.CUT_LIMIT, sol.objective, sol.values,
                    cone_residual=max(0.0, residual))
