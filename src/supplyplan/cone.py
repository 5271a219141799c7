"""Second-order cone rows of a problem solved by outer approximation.

A cone row encodes ``epi - affine >= scale * ||(terms)||_2`` (membership of
``(epi - affine)/scale`` and the term vector in the Lorentz cone). The solver
works on two sparse matrices over the problem's variables: ``E``, one row
``epi - affine`` per cone, and ``T``, the terms of every cone of positive
scale stacked, each term knowing its cone and that cone's scale. Every cone
is lifted onto a slack ``0 <= s <= E_i x`` (one linear row). A cone with
scale 0 or no terms has no term in ``T``, so it is never violated, as
``E_i x >= s >= 0``, and never cut.

A cut is a weight vector ``w`` over a cone's terms, written as the row
``s - scale * w . terms >= 0`` on the slack and the terms only, never on the
wide affine part, so the LP stays sparse. Every ``w`` used has unit norm,
so each cut is a gradient inequality of the norm, hence valid for the cone.
The first LP carries the axis cuts ``w = +/-e_l`` and the uniform
direction; each round then cuts every cone its point violates at
``w = t/||t||``, ``t = T x``. A violated cone's cut separates the point, as
``s <= E_i x < scale * ||t||``.

The LP (problem rows, link rows, initial cuts) is assembled once. Each
round appends its cuts as one block of rows and re-solves HiGHS warm from
the previous round's basis, the new rows basic.
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
        if not 0 <= self.scale < math.inf:
            raise ValueError("cone scale must be finite and >= 0")


def solve_cone(p: LinearProblem, cfg: SolverConfig | None = None) -> Solution:
    """Solve ``p`` subject to its cone rows (continuous only)."""
    cfg = cfg or SolverConfig()
    if any(p.integer):
        raise ValueError("cone problems are solved in continuous variables only")

    cost, A, lo, hi, col_lo, col_hi = _row_form(p)
    n = p.num_vars
    k = len(p.cones)
    E = (rows_to_csr(p, [{c.epigraph_var: 1.0} for c in p.cones])
         - rows_to_csr(p, [c.affine_part for c in p.cones]))
    # a scale-0 cone keeps no terms: its rows would all read s >= 0
    terms = [c.cone_terms if c.scale > 0.0 else [] for c in p.cones]
    T = rows_to_csr(p, [term for ts in terms for term in ts])
    sizes = np.array([len(ts) for ts in terms], dtype=int)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    owner = np.repeat(np.arange(k), sizes)     # term -> its cone
    scale = np.array([c.scale for c in p.cones])
    term_scale = sp.diags(scale[owner])

    def cut_rows(W, cone):
        """Row ``s_cone[i] - sum_l W[i, l] scale_l term_l >= 0`` per row of W."""
        on_slack = sp.csr_matrix((np.ones(len(cone)), cone,
                                  np.arange(len(cone) + 1)),
                                 shape=(len(cone), k))
        return sp.hstack([-(W @ term_scale) @ T, on_slack], format="csr")

    # axis cuts +/-e_l, then the uniform direction, which tightens the start
    # when many terms are active at once
    axis = sp.identity(len(owner), format="csr")
    uniform = sp.csr_matrix((1.0 / np.sqrt(sizes[owner]),
                             np.arange(len(owner)), bounds),
                            shape=(k, len(owner)))
    first = cut_rows(sp.vstack([axis, -axis, uniform]),
                     np.concatenate([owner, owner, np.arange(k)]))
    link = -sp.identity(k, format="csr")   # E x - s >= 0
    A = sp.vstack([sp.hstack([A, sp.csr_matrix((A.shape[0], k))]),
                   sp.hstack([E, link]), first], format="csr")
    added = k + first.shape[0]
    lo = np.concatenate([lo, np.zeros(added)])
    hi = np.concatenate([hi, np.full(added, np.inf)])
    cost = np.concatenate([cost, np.zeros(k)])
    col_lo = np.concatenate([col_lo, np.zeros(k)])
    col_hi = np.concatenate([col_hi, np.full(k, np.inf)])

    lp, x, basis = run_highs(cost, A, lo, hi, col_lo, col_hi)
    rounds, iters = 1, lp.simplex_iters
    while lp.optimal:
        x = x[:n]  # drops the slacks
        t = T @ x
        nrm = np.sqrt(np.bincount(owner, t * t, minlength=k))
        rel = (scale * nrm - E @ x) / np.maximum(1.0, nrm)
        # the origin is covered by the axis cuts
        violated = (rel > cfg.cone_tol) & (nrm > 0.0)
        cut = np.flatnonzero(violated)
        if not cut.size or rounds > cfg.max_cut_rounds:
            status = Status.CUT_LIMIT if cut.size else Status.OPTIMAL
            return Solution(status, lp.objective + p.objective_offset,
                            dict(zip(p.var_names, x.tolist())),
                            cone_residual=float(rel.max(initial=0.0)),
                            lp_rounds=rounds, simplex_iters=iters)
        on_cut = np.flatnonzero(violated[owner])   # their terms
        W = sp.csr_matrix((t[on_cut] / nrm[owner[on_cut]], on_cut,
                           np.concatenate([[0], np.cumsum(sizes[cut])])),
                          shape=(cut.size, len(owner)))
        A = sp.vstack([A, cut_rows(W, cut)], format="csr")
        lo = np.concatenate([lo, np.zeros(cut.size)])
        hi = np.concatenate([hi, np.full(cut.size, np.inf)])
        lp, x, basis = run_highs(cost, A, lo, hi, col_lo, col_hi, basis)
        rounds += 1
        iters += lp.simplex_iters
    return replace(lp, lp_rounds=rounds, simplex_iters=iters)
