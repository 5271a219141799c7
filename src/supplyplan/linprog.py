"""Linear problem container and the LP engine behind every formulation."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog as _scipy_linprog

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = (LE, EQ, GE)


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITER_LIMIT = "iter_limit"
    NODE_LIMIT = "node_limit"
    CUT_LIMIT = "cut_limit"


@dataclass
class SolverConfig:
    feas_tol: float = 1e-7
    opt_tol: float = 1e-7
    int_tol: float = 1e-6
    mip_gap: float = 1e-6        # absolute
    cone_tol: float = 1e-6       # relative
    max_simplex_iters: int = 200_000
    max_bb_nodes: int = 100_000
    max_cut_rounds: int = 200

    def __post_init__(self):
        for name in ("feas_tol", "opt_tol", "int_tol", "mip_gap", "cone_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class Solution:
    status: Status
    objective: float
    values: dict[str, float] = field(default_factory=dict)
    gap: float = 0.0             # MIP only
    cone_residual: float = 0.0   # cone problems only

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL


class LinearProblem:
    """Minimization problem over named variables with sparse linear rows.

    Variables default to lower bound 0 and no upper bound. Rows are
    ``(coeffs, relation, rhs)`` with ``coeffs`` a name -> value map.
    """

    def __init__(self):
        self.var_names: list[str] = []
        self._index: dict[str, int] = {}
        self.obj: list[float] = []
        self.lb: list[float | None] = []
        self.ub: list[float | None] = []
        self.integer: list[bool] = []
        self.rows: list[tuple[dict[str, float], str, float]] = []
        self.objective_offset: float = 0.0

    # -- construction ------------------------------------------------------

    def add_var(self, name: str, obj: float = 0.0, lb: float | None = 0.0,
                ub: float | None = None, integer: bool = False) -> str:
        """Declare a variable; ``lb=None`` makes it free below."""
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        if not math.isfinite(obj):
            raise ValueError(f"non-finite objective coefficient for {name!r}")
        if lb is not None and ub is not None and lb > ub:
            raise ValueError(f"lb > ub for {name!r}")
        self._index[name] = len(self.var_names)
        self.var_names.append(name)
        self.obj.append(float(obj))
        self.lb.append(None if lb is None else float(lb))
        self.ub.append(None if ub is None else float(ub))
        self.integer.append(bool(integer))
        return name

    def add_obj(self, name: str, coeff: float):
        self.obj[self._index[name]] += float(coeff)

    def add_row(self, coeffs: dict[str, float], relation: str, rhs: float):
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        for name, c in coeffs.items():
            if name not in self._index:
                raise ValueError(f"row references undeclared variable {name!r}")
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient on {name!r}")
        if not math.isfinite(rhs):
            raise ValueError("non-finite right hand side")
        self.rows.append((dict(coeffs), relation, float(rhs)))

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def any_integer(self) -> bool:
        return any(self.integer)

    def copy(self) -> "LinearProblem":
        dup = LinearProblem()
        dup.var_names = list(self.var_names)
        dup._index = dict(self._index)
        dup.obj = list(self.obj)
        dup.lb = list(self.lb)
        dup.ub = list(self.ub)
        dup.integer = list(self.integer)
        dup.rows = [(dict(c), r, b) for c, r, b in self.rows]
        dup.objective_offset = self.objective_offset
        return dup

    # -- evaluation helpers ------------------------------------------------

    def eval_expr(self, coeffs: dict[str, float], values: dict[str, float]) -> float:
        return sum(c * values.get(n, 0.0) for n, c in coeffs.items())

    def eval_objective(self, values: dict[str, float]) -> float:
        total = self.objective_offset
        for name, c in zip(self.var_names, self.obj):
            total += c * values.get(name, 0.0)
        return total

    def max_row_violation(self, values: dict[str, float]) -> float:
        worst = 0.0
        for coeffs, rel, rhs in self.rows:
            lhs = self.eval_expr(coeffs, values)
            if rel == LE:
                worst = max(worst, lhs - rhs)
            elif rel == GE:
                worst = max(worst, rhs - lhs)
            else:
                worst = max(worst, abs(lhs - rhs))
        return worst


def _to_scipy(p: LinearProblem):
    n = p.num_vars
    c = np.asarray(p.obj)
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for coeffs, rel, rhs in p.rows:
        if rel == EQ:
            eq_rows.append(coeffs)
            eq_rhs.append(rhs)
        elif rel == LE:
            ub_rows.append(coeffs)
            ub_rhs.append(rhs)
        else:
            ub_rows.append({k: -v for k, v in coeffs.items()})
            ub_rhs.append(-rhs)

    def build(rows):
        data, ri, ci = [], [], []
        for i, coeffs in enumerate(rows):
            for name, v in coeffs.items():
                ri.append(i)
                ci.append(p._index[name])
                data.append(v)
        return sp.csr_matrix((data, (ri, ci)), shape=(len(rows), n))

    bounds = [(p.lb[i], p.ub[i]) for i in range(n)]
    A_ub = build(ub_rows) if ub_rows else None
    A_eq = build(eq_rows) if eq_rows else None
    return c, A_ub, np.asarray(ub_rhs), A_eq, np.asarray(eq_rhs), bounds


def solve_lp(p: LinearProblem, cfg: SolverConfig | None = None) -> Solution:
    """Solve the continuous relaxation of ``p`` (integrality marks ignored)."""
    cfg = cfg or SolverConfig()
    c, A_ub, b_ub, A_eq, b_eq, bounds = _to_scipy(p)
    res = _scipy_linprog(
        c, A_ub=A_ub, b_ub=b_ub if A_ub is not None else None,
        A_eq=A_eq, b_eq=b_eq if A_eq is not None else None,
        bounds=bounds, method="highs",
        options={"maxiter": cfg.max_simplex_iters,
                 "primal_feasibility_tolerance": cfg.feas_tol,
                 "dual_feasibility_tolerance": cfg.opt_tol},
    )
    if res.status == 0:
        values = {name: float(v) for name, v in zip(p.var_names, res.x)}
        return Solution(Status.OPTIMAL, float(res.fun) + p.objective_offset, values)
    if res.status == 1:
        return Solution(Status.ITER_LIMIT, math.inf)
    if res.status == 2:
        return Solution(Status.INFEASIBLE, math.inf)
    if res.status == 3:
        return Solution(Status.UNBOUNDED, -math.inf)
    raise RuntimeError(f"LP backend failure: {res.message}")
