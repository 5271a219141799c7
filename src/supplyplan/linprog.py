"""Linear problem container and the one solve of every problem it holds.

A problem keeps its columns as arrays and its rows and cone rows in index
form (:class:`Rows`: row lengths, column indices, values), appended a block
at a time with one check per block. It reaches HiGHS in one form, ``lo <= A
x <= hi`` with column bounds, which ``_row_form`` makes by one
``csr_matrix`` call on the stored arrays, through one function,
``run_highs``, which calls scipy's bundled HiGHS binding, for an LP and,
given integrality marks, for a MIP.
``solve_lp`` solves any problem: one without cone rows by one cold
``run_highs`` call with the problem's marks, so it runs the LP or the MIP the
problem is; one with cone rows by the cut loop below. The two loops that
re-solve one LP many times call ``run_highs`` with the previous solve's
basis: the cut loop, whose LP grows by each round's cuts, and the recourse
pricer, which changes only a booking's demand bounds and purchase costs from
one draw to the next.

A cone row (:class:`ConeRow`) encodes ``epi - affine >= scale * ||(terms)||_2``
(membership of ``(epi - affine)/scale`` and the term vector in the Lorentz
cone), and the cut loop solves it by outer approximation. It works on two
sparse matrices over the problem's variables, read from the stored cone
rows: ``E``, one row ``epi - affine`` per cone, and ``T``, the terms of
every cone of positive scale stacked, each term knowing its cone and that
cone's scale. Every cone is lifted onto a slack ``0 <= s <= E_i x`` (one
linear row). A cone with scale 0 or no terms has no term in ``T``, so it is
never violated, as ``E_i x >= s >= 0``, and never cut.

The cone is cut in its extended, disaggregated form (Vielma, Dunning,
Huchette and Lubin, Math. Prog. Comp. 9, 2017): each scaled term
``tau_l = scale * t_l`` gets a column ``u_l >= 0``, each cone the row
``s - sum_l u_l >= 0``, and ``||tau|| <= s`` becomes one three-variable
rotated cone ``tau_l^2 <= s u_l``, that is ``||(2 tau_l, s - u_l)|| <=
s + u_l``, per term. A cut is that norm's gradient inequality at a unit
direction ``(a, b)``, ``(1 - b) s + (1 + b) u_l - 2 a tau_l >= 0``, written
on the slack, ``u_l`` and the term only, never on the wide affine part, so
the LP stays sparse. The first LP carries the axis cuts ``(a, b) =
(+/-1, 0)`` and the uniform cut ``s - sum_l tau_l / sqrt(D) >= 0`` of the
original cone; each round then measures every cone's violation at
``t = T x`` against ``_CONE_TOL`` and, in each violated cone, cuts every
term whose triple lies off its rotated cone at ``(a, b) = (2 tau_l,
s - u_l) / ||.||``, which separates that triple. Cutting the D small cones
instead of the aggregated norm closes m4 in fewer rounds.

Where one epigraph ``w`` may be raised alone (no upper bound, a cost
``c_w >= 0``, in no linear row, term or affine part), raising it by the
largest violation lifts each round's LP point into every cone; the best such
objective less the final LP bound is the solution's ``gap``, else ``inf``.

The LP (problem rows, link and sum rows, initial cuts) is assembled once. Each
round appends its cuts as one block of rows and re-solves HiGHS warm from
the previous round's basis, the new rows basic.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _highs

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = (LE, EQ, GE)
_MAX_SIMPLEX_ITERS = 200_000   # HiGHS's own limit is unbounded
_CONE_TOL = 1e-6               # relative cone violation a solution may keep
_MAX_CUT_ROUNDS = 200


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITER_LIMIT = "iter_limit"
    NODE_LIMIT = "node_limit"
    CUT_LIMIT = "cut_limit"


@dataclass
class SolverConfig:
    """The limit callers set: the MIP node budget. Feasibility tolerances
    (primal and dual 1e-7, integer 1e-6) and the absolute MIP gap (1e-6) are
    HiGHS's own defaults, which every solve uses."""

    max_bb_nodes: int = 100_000

    def __post_init__(self):
        try:
            valid = operator.index(self.max_bb_nodes) >= 0
        except TypeError:   # not an integer: NaN, 2.5, "3"
            valid = False
        if not valid:
            raise ValueError("max_bb_nodes must be an integer >= 0")


@dataclass
class Solution:
    status: Status
    objective: float
    values: dict[str, float] = field(default_factory=dict)
    gap: float = 0.0             # MIP/cone upper - LP bound; inf if unsolved
    cone_residual: float = 0.0   # cone problems only
    lp_rounds: int = 1           # HiGHS solves made: 1, or the cut rounds
    simplex_iters: int = 0       # over all those solves

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL


@dataclass
class ConeRow:
    epigraph_var: str
    affine_part: dict[str, float]
    cone_terms: list[dict[str, float]] = field(default_factory=list)
    scale: float = 0.0

    def __post_init__(self):
        if not 0 <= self.scale < math.inf:
            raise ValueError("cone scale must be finite and >= 0")


class Rows:
    """Sparse rows in index form: row i holds the next ``lens[i]`` entries of
    ``cols`` (column indices) and ``vals``."""

    def __init__(self, lens=(), cols=(), vals=()):
        self.lens = np.asarray(lens, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=float)

    def __add__(self, other: Rows) -> Rows:   # the rows of both, in order
        return Rows(*(np.concatenate([getattr(self, f), getattr(other, f)])
                      for f in ("lens", "cols", "vals")))

    def __getitem__(self, rows) -> Rows:
        """The rows a slice or boolean mask picks, in order."""
        picked = np.zeros(self.lens.size, dtype=bool)
        picked[rows] = True
        entries = np.repeat(picked, self.lens)
        return Rows(self.lens[picked], self.cols[entries], self.vals[entries])

    def csr(self, n: int) -> sp.csr_matrix:
        indptr = np.concatenate([[0], np.cumsum(self.lens)])
        return sp.csr_matrix((self.vals, self.cols, indptr),
                             shape=(self.lens.size, n))


class LinearProblem:
    """Minimization problem over named variables with sparse linear rows and
    second-order cone rows, stored in index form.

    Columns are arrays: costs ``obj``, bounds ``lb`` and ``ub`` (``-inf``
    and ``inf`` where unbounded) and ``integer`` marks. Row i is ``lo[i] <=
    A_i x <= hi[i]``, ``A`` a :class:`Rows`. Cone i is ``x[epi[i]] -
    affine_i x >= scale[i] ||T_i x||``, ``T_i`` its ``n_terms[i]`` rows of
    ``terms``. The block appends (``add_vars``, ``add_rows``, ``add_costs``,
    ``add_cones``) take arrays and check each block at once; ``add_var``,
    ``add_row``, ``add_obj`` and ``add_cone`` take name -> value maps and
    convert them on entry, as ``indexed`` does for many rows at once.
    """

    def __init__(self):
        self.var_names: list[str] = []
        self._index: dict[str, int] = {}
        self.obj, self.lb, self.ub = np.zeros(0), np.zeros(0), np.zeros(0)
        self.integer = np.zeros(0, dtype=bool)
        self.A, self.lo, self.hi = Rows(), np.zeros(0), np.zeros(0)
        self.epi = self.n_terms = np.zeros(0, dtype=np.int64)
        self.scale, self.affine, self.terms = np.zeros(0), Rows(), Rows()
        self.objective_offset: float = 0.0

    def _grow(self, **blocks):
        for name, block in blocks.items():
            old = getattr(self, name)
            setattr(self, name, old + block if isinstance(old, Rows)
                    else np.concatenate([old, block]))

    def _check(self, rows: Rows, what: str):
        if not rows.lens.sum() == rows.cols.size == rows.vals.size:
            raise ValueError(f"{what} lengths, columns and values disagree")
        if rows.cols.size and not (0 <= rows.cols.min()
                                   and rows.cols.max() < self.num_vars):
            raise ValueError(f"{what} references an undeclared column")
        bad = ~np.isfinite(rows.vals)
        if bad.any():
            name = self.var_names[rows.cols[np.argmax(bad)]]
            raise ValueError(f"non-finite coefficient on {name!r}")

    def add_vars(self, names, obj=0.0, lb=0.0, ub=math.inf,
                 integer=False) -> int:
        """Declare the variables ``names``; each other argument is a scalar
        or one entry per name. Returns the first new column."""
        n, first = len(names), self.num_vars
        obj, lb, ub, integer = (np.broadcast_to(np.asarray(v, dtype=t), (n,))
                                for v, t in ((obj, float), (lb, float),
                                             (ub, float), (integer, bool)))
        for bad, what in ((~np.isfinite(obj), "non-finite objective "
                           "coefficient for {}"),
                          (~(lb < math.inf), "lb of {} is nan or inf"),
                          (~(ub > -math.inf), "ub of {} is nan or -inf"),
                          (lb > ub, "lb > ub for {}")):
            if bad.any():
                raise ValueError(what.format(repr(names[np.argmax(bad)])))
        self._index.update(zip(names, range(first, first + n)))
        if len(self._index) != first + n:
            self._index = dict(zip(self.var_names, range(first)))
            counts = Counter([*self.var_names, *names])
            raise ValueError(
                f"duplicate variable {max(counts, key=counts.get)!r}")
        self.var_names.extend(names)
        self._grow(obj=obj, lb=lb, ub=ub, integer=integer)
        return first

    def add_rows(self, rows: Rows, lo, hi):
        """Append the rows ``lo <= rows x <= hi``; each needs a finite bound
        and no NaN."""
        self._check(rows, "row")
        lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), rows.lens.shape)
                  for v in (lo, hi))
        if not ((lo < math.inf) & (hi > -math.inf)
                & (np.isfinite(lo) | np.isfinite(hi))).all():
            raise ValueError("non-finite right hand side")
        self._grow(A=rows, lo=lo, hi=hi)

    def add_costs(self, cols, vals):
        """Add ``vals[i]`` to the cost of column ``cols[i]``, in order."""
        costs = Rows([len(cols)], cols, vals)
        self._check(costs, "objective")
        np.add.at(self.obj, costs.cols, costs.vals)

    def add_cones(self, epi, affine: Rows, terms: Rows, n_terms, scale):
        """Append the cones ``x[epi[i]] - affine_i x >= scale[i] ||T_i x||``,
        ``T_i`` the next ``n_terms[i]`` rows of ``terms``."""
        scale = np.asarray(scale, dtype=float)
        if not ((0.0 <= scale) & (scale < math.inf)).all():
            raise ValueError("cone scale must be finite and >= 0")
        for rows in (Rows(np.ones(len(epi)), epi, np.ones(len(epi))), affine,
                     terms):
            self._check(rows, "cone row")
        self._grow(epi=epi, affine=affine, terms=terms, n_terms=n_terms,
                   scale=scale)

    def columns(self, names, what: str = "row") -> np.ndarray:
        """The columns of ``names``, which must all be declared."""
        try:
            return np.array([self._index[v] for v in names], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"{what} references undeclared variable "
                             f"{exc.args[0]!r}") from None

    def indexed(self, maps, what: str = "row") -> Rows:
        """Name -> value maps as rows over this problem's columns."""
        return Rows([len(c) for c in maps],
                    self.columns([name for c in maps for name in c], what),
                    [v for c in maps for v in c.values()])

    def add_var(self, name: str, obj: float = 0.0, lb: float | None = 0.0,
                ub: float | None = None, integer: bool = False) -> str:
        """Declare a variable; ``lb=None`` makes it free below."""
        self.add_vars([name], obj, -math.inf if lb is None else lb,
                      math.inf if ub is None else ub, integer)
        return name

    def add_obj(self, name: str, coeff: float):
        costs = self.indexed([{name: coeff}], "objective")
        self.add_costs(costs.cols, costs.vals)

    def add_row(self, coeffs: dict[str, float], relation: str, rhs: float):
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        self.add_rows(self.indexed([coeffs]),
                      -math.inf if relation == LE else rhs,
                      math.inf if relation == GE else rhs)

    def add_cone(self, cone: ConeRow):
        epi = self.indexed([{cone.epigraph_var: 1.0}], "cone row")
        self.add_cones(epi.cols, self.indexed([cone.affine_part], "cone row"),
                       self.indexed(cone.cone_terms, "cone row"),
                       [len(cone.cone_terms)], [cone.scale])

    @property
    def num_vars(self) -> int:
        return len(self.var_names)


def _row_form(p: LinearProblem):
    """``p`` as ``c, A, lo, hi, col_lo, col_hi`` with ``lo <= A x <= hi``:
    copies of the stored arrays, and ``A`` one ``csr_matrix`` call."""
    return (p.obj.copy(), p.A.csr(p.num_vars), p.lo.copy(), p.hi.copy(),
            p.lb.copy(), p.ub.copy())


def solve_lp(p: LinearProblem, cfg: SolverConfig | None = None) -> Solution:
    """Solve ``p``. Without cone rows it is one HiGHS call with the
    integrality marks: an LP by dual simplex, a MIP by HiGHS's branch and
    bound within ``cfg.max_bb_nodes`` nodes, its values rounded onto the
    lattice. The relative gap is off, so HiGHS's default absolute gap (1e-6)
    governs termination. With cone rows (continuous only) it is the cut loop
    within ``_MAX_CUT_ROUNDS`` rounds and ``_CONE_TOL``."""
    cfg = cfg or SolverConfig()
    if p.epi.size:
        sol, x = _cut_loop(p)
    else:
        sol, x, _ = run_highs(*_row_form(p), integrality=p.integer,
                              max_bb_nodes=cfg.max_bb_nodes)
    if x is None:
        return sol
    values = {name: float(round(v)) if integer else float(v)
              for name, v, integer in zip(p.var_names, x, p.integer)}
    return replace(sol, objective=sol.objective + p.objective_offset,
                   values=values)


def _cut_loop(p: LinearProblem):
    """The cut loop of the module docstring on ``p``. Returns ``(solution,
    x)`` as ``run_highs`` does, ``x`` over the problem's variables only."""
    if p.integer.any():
        raise ValueError("cone problems are solved in continuous variables only")

    cost, A, lo, hi, col_lo, col_hi = _row_form(p)
    n = p.num_vars
    scale, k = p.scale, p.scale.size
    E = Rows(np.ones(k), p.epi, np.ones(k)).csr(n) - p.affine.csr(n)
    # a scale-0 cone keeps no terms: its rows would all read s >= 0
    live = scale > 0.0
    T = p.terms[np.repeat(live, p.n_terms)].csr(n)
    sizes = np.where(live, p.n_terms, 0)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    owner = np.repeat(np.arange(k), sizes)     # term -> its cone
    L = len(owner)
    term_scale = sp.diags(scale[owner])
    # raising one shared epigraph w raises every E_i x alone, at cost c_w v
    j = p.epi[0]
    liftable = (cost[j] >= 0.0 and col_hi[j] == np.inf and j not in A.indices
                and T[:, [j]].nnz == 0 and (E[:, [j]].toarray() == 1.0).all())

    def pick(values, cols, width):
        """One entry ``values[r]`` in column ``cols[r]`` of each row r."""
        return sp.csr_matrix((values, cols, np.arange(len(cols) + 1)),
                             shape=(len(cols), width))

    def cut_rows(W, S, U):
        """Rows ``S s + U u - W tau >= 0``, ``tau = scale * T x``."""
        return sp.hstack([-(W @ term_scale) @ T, S, U], format="csr")

    def term_cuts(ls, a, b):
        """``(1 - b) s + (1 + b) u_l - 2 a tau_l >= 0`` for each term l."""
        return cut_rows(pick(2.0 * a, ls, L), pick(1.0 - b, owner[ls], k),
                        pick(1.0 + b, ls, L))

    member = sp.csr_matrix((np.ones(L), np.arange(L), bounds), shape=(k, L))
    first = sp.vstack([
        cut_rows(sp.csr_matrix((k, L)), sp.identity(k), -member),  # sum u <= s
        term_cuts(np.tile(np.arange(L), 2), np.repeat([1.0, -1.0], L),
                  np.zeros(2 * L)),                                 # axes
        # the uniform direction tightens the start when many terms are active
        cut_rows(member @ sp.diags(1.0 / np.sqrt(sizes[owner])),
                 sp.identity(k), sp.csr_matrix((k, L)))])
    link = sp.hstack([E, -sp.identity(k), sp.csr_matrix((k, L))])  # E x >= s
    A = sp.vstack([sp.hstack([A, sp.csr_matrix((A.shape[0], k + L))]),
                   link, first], format="csr")
    added = k + first.shape[0]
    lo = np.concatenate([lo, np.zeros(added)])
    hi = np.concatenate([hi, np.full(added, np.inf)])
    cost = np.concatenate([cost, np.zeros(k + L)])
    col_lo = np.concatenate([col_lo, np.zeros(k + L)])
    col_hi = np.concatenate([col_hi, np.full(k + L, np.inf)])

    lp, x, basis = run_highs(cost, A, lo, hi, col_lo, col_hi)
    rounds, iters, upper = 1, lp.simplex_iters, math.inf
    while lp.optimal:
        t = T @ x[:n]
        nrm = np.sqrt(np.bincount(owner, t * t, minlength=k))
        excess = scale * nrm - E @ x[:n]
        rel = excess / np.maximum(1.0, nrm)
        if liftable:
            upper = min(upper, lp.objective + cost[j] * max(0.0, excess.max()))
        # the origin is covered by the axis cuts
        violated = (rel > _CONE_TOL) & (nrm > 0.0)
        tau, s, u = scale[owner] * t, x[n:n + k][owner], x[n + k:]
        r = np.hypot(2.0 * tau, s - u)   # > s + u off the rotated cone
        ls = np.flatnonzero(violated[owner] & (r > s + u))
        # a violated cone whose triples all lie on their cones has no cut
        if not ls.size or rounds > _MAX_CUT_ROUNDS:
            status = Status.CUT_LIMIT if violated.any() else Status.OPTIMAL
            return replace(lp, status=status, gap=upper - lp.objective,
                           cone_residual=float(rel.max(initial=0.0)),
                           lp_rounds=rounds, simplex_iters=iters), x[:n]
        A = sp.vstack([A, term_cuts(ls, 2.0 * tau[ls] / r[ls],
                                    (s - u)[ls] / r[ls])], format="csr")
        lo = np.concatenate([lo, np.zeros(ls.size)])
        hi = np.concatenate([hi, np.full(ls.size, np.inf)])
        lp, x, basis = run_highs(cost, A, lo, hi, col_lo, col_hi, basis)
        rounds += 1
        iters += lp.simplex_iters
    return replace(lp, lp_rounds=rounds, simplex_iters=iters), None


# the HiGHS model statuses a solve reports; any other is a backend failure.
# A MIP's only limit is its node limit, so a solution limit can mean nothing
# else.
_HIGHS_STATUS = {
    _highs.HighsModelStatus.kOptimal: Status.OPTIMAL,
    _highs.HighsModelStatus.kIterationLimit: Status.ITER_LIMIT,
    _highs.HighsModelStatus.kSolutionLimit: Status.NODE_LIMIT,
    _highs.HighsModelStatus.kInfeasible: Status.INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: Status.UNBOUNDED,
}
_FEASIBLE = int(_highs.SolutionStatus.kSolutionStatusFeasible)


def run_highs(c, A: sp.csr_matrix, lo, hi, col_lo, col_hi, basis=None,
              integrality=None, max_bb_nodes=SolverConfig.max_bb_nodes):
    """Solve ``min c.x`` over ``lo <= A x <= hi``, ``col_lo <= x <= col_hi``
    on a fresh HiGHS instance: every HiGHS solve of the package, LP or MIP,
    including each cut-loop round and each pricing draw, is made here.

    An LP is solved by dual simplex. ``basis`` is the basis a previous LP
    call returned for the leading rows of ``A``; rows appended since are made
    basic, so the solve starts from it. Columns marked in ``integrality``
    make a MIP, solved by HiGHS's branch and bound within ``max_bb_nodes``
    nodes with its relative gap off. Returns ``(solution, x, basis)``; the
    solution carries the objective without ``objective_offset`` and no
    values, ``x`` is None unless the solve found a solution (an optimum, or
    a MIP's incumbent at the node limit) and ``basis`` is None unless an LP
    is optimal.
    """
    m, n = A.shape
    # this passModel overload reads the buffers in place, for A's sizes
    arrays = [np.ascontiguousarray(v, dtype=float)
              for v in (c, col_lo, col_hi, lo, hi)]
    marks = np.ascontiguousarray(
        np.zeros(n) if integrality is None else integrality, dtype=np.int32)
    if [v.size for v in (*arrays, marks)] != [n, n, n, m, m, n]:
        raise ValueError("cost, bound, row and integrality arrays must match "
                         "A's shape")
    mip = marks.any()
    h = _highs._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("simplex_strategy", 1)   # dual
    h.setOptionValue("simplex_iteration_limit", _MAX_SIMPLEX_ITERS)
    if mip:
        h.setOptionValue("mip_max_nodes", int(max_bb_nodes))
        h.setOptionValue("mip_rel_gap", 0.0)
    error = _highs.HighsStatus.kError
    if h.passModel(n, m, A.nnz, int(_highs.MatrixFormat.kRowwise),
                   int(_highs.ObjSense.kMinimize), 0.0, *arrays,
                   A.indptr, A.indices, A.data, marks) == error:
        raise RuntimeError("HiGHS backend failure: the model was rejected")
    if basis is not None:
        new_rows = m - len(basis.row_status)
        basis.row_status = [*basis.row_status,
                            *[_highs.HighsBasisStatus.kBasic] * new_rows]
        if h.setBasis(basis) == error:
            raise RuntimeError("HiGHS backend failure: the basis was rejected")
    h.run()
    model_status = h.getModelStatus()
    status = _HIGHS_STATUS.get(model_status)
    if mip and model_status == _highs.HighsModelStatus.kUnboundedOrInfeasible:
        # a MIP whose relaxation has an optimum is bounded, so infeasible
        relaxed, _, _ = run_highs(c, A, lo, hi, col_lo, col_hi)
        status = (Status.UNBOUNDED if relaxed.status is Status.UNBOUNDED
                  else Status.INFEASIBLE)
    if status is None:
        raise RuntimeError(
            f"HiGHS backend failure: {h.modelStatusToString(model_status)}")
    info = h.getInfo()
    iters = info.simplex_iteration_count
    if (status not in (Status.OPTIMAL, Status.NODE_LIMIT)
            or int(info.primal_solution_status) != _FEASIBLE):
        objective = -math.inf if status is Status.UNBOUNDED else math.inf
        sol = Solution(status, objective, gap=math.inf, simplex_iters=iters)
        return sol, None, None
    objective = info.objective_function_value
    gap = objective - info.mip_dual_bound if mip else 0.0
    sol = Solution(status, objective, gap=gap, simplex_iters=iters)
    x = np.asarray(h.getSolution().col_value)
    return sol, x, None if mip else h.getBasis()
