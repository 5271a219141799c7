"""Independent oracles and shared builders for the test suite.

The oracles deliberately avoid the package's solvers: LPs are checked by
enumerating basic feasible points (vertices), integer programs by walking the
full lattice, and the tiny one-arc network by grid search over closed-form
recourse. Agreement between solver and oracle is the acceptance currency.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import supplyplan as sp
from supplyplan.model import x_name, y_name, z_name


# -- a problem's rows and cones read back by name --------------------------

def _maps(rows, names):
    ends = np.cumsum(rows.lens).tolist()
    return [dict(zip([names[j] for j in rows.cols[e - k:e]],
                     rows.vals[e - k:e].tolist()))
            for k, e in zip(rows.lens.tolist(), ends)]


def rows(p: sp.LinearProblem) -> list:
    """The linear rows of ``p`` as ``(coeffs, relation, rhs)``."""
    return [(c, "<=", hi) if lo == -math.inf else
            (c, ">=", lo) if hi == math.inf else (c, "==", lo)
            for c, lo, hi in zip(_maps(p.A, p.var_names), p.lo.tolist(),
                                 p.hi.tolist())]


def cones(p: sp.LinearProblem) -> list:
    """The cone rows of ``p`` as :class:`supplyplan.ConeRow` objects."""
    terms = _maps(p.terms, p.var_names)
    ends = np.cumsum(p.n_terms).tolist()
    return [sp.ConeRow(p.var_names[j], affine, terms[e - k:e], s)
            for j, affine, k, e, s in zip(
                p.epi.tolist(), _maps(p.affine, p.var_names),
                p.n_terms.tolist(), ends, p.scale.tolist())]


# -- vertex enumeration oracle for small LPs --------------------------------

def enumerate_lp(p: sp.LinearProblem) -> float:
    """Minimum of a small LP by enumerating intersections of n constraint
    hyperplanes (rows at equality plus active bounds). All bounds must be
    finite. Returns +inf when no feasible vertex exists."""
    n = p.num_vars
    planes = []  # (normal, rhs) candidates for active constraints
    for coeffs, rel, rhs in rows(p):
        a = np.zeros(n)
        for name, c in coeffs.items():
            a[p.var_names.index(name)] = c
        planes.append((a, float(rhs)))
    for i in range(n):
        lo, hi = p.lb[i], p.ub[i]
        if lo is None or hi is None:
            raise ValueError("vertex oracle needs finite bounds")
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e, float(lo)))
        planes.append((e, float(hi)))

    def feasible(x):
        for i in range(n):
            if x[i] < p.lb[i] - 1e-9 or x[i] > p.ub[i] + 1e-9:
                return False
        for coeffs, rel, rhs in rows(p):
            lhs = sum(c * x[p.var_names.index(nm)] for nm, c in coeffs.items())
            if rel == "<=" and lhs > rhs + 1e-9:
                return False
            if rel == ">=" and lhs < rhs - 1e-9:
                return False
            if rel == "==" and abs(lhs - rhs) > 1e-9:
                return False
        return True

    best = math.inf
    c = np.asarray(p.obj)
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if feasible(x):
            best = min(best, float(c @ x) + p.objective_offset)
    return best


# -- lattice enumeration oracle for small pure-integer programs -------------

def enumerate_mip(p: sp.LinearProblem) -> float:
    """Minimum of a pure-integer program by a vectorized full lattice walk.
    Every variable must be marked integer with finite bounds."""
    ranges = []
    for i in range(p.num_vars):
        if not p.integer[i]:
            raise ValueError("lattice oracle needs all-integer variables")
        lo, hi = p.lb[i], p.ub[i]
        if lo is None or hi is None:
            raise ValueError("lattice oracle needs finite bounds")
        ranges.append(np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=float))
    grid = np.array(list(itertools.product(*ranges)))
    feasible = np.ones(len(grid), dtype=bool)
    for coeffs, rel, rhs in rows(p):
        a = np.zeros(p.num_vars)
        for name, c in coeffs.items():
            a[p.var_names.index(name)] = c
        lhs = grid @ a
        if rel == "<=":
            feasible &= lhs <= rhs + 1e-9
        elif rel == ">=":
            feasible &= lhs >= rhs - 1e-9
        else:
            feasible &= np.abs(lhs - rhs) <= 1e-9
    if not feasible.any():
        return math.inf
    return float((grid[feasible] @ np.asarray(p.obj)).min()) + p.objective_offset


# -- random problem generators ----------------------------------------------

def random_lp(rng: np.random.Generator) -> sp.LinearProblem:
    """Feasible bounded LP with up to 3 variables (origin always feasible)."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    p = sp.LinearProblem()
    for i in range(n):
        p.add_var(f"v{i}", obj=float(rng.uniform(-5, 5)), lb=0.0,
                  ub=float(rng.uniform(1, 8)))
    for _ in range(m):
        coeffs = {f"v{i}": float(rng.uniform(-3, 3)) for i in range(n)}
        p.add_row(coeffs, "<=", float(rng.uniform(0, 10)))
    return p


def knapsack() -> sp.LinearProblem:
    """max 5a + 4b + 3c s.t. 2a + 3b + c <= 5 over binaries: value 9
    (a = b = 1)."""
    p = sp.LinearProblem()
    for name, v in (("a", -5.0), ("b", -4.0), ("c", -3.0)):
        p.add_var(name, obj=v, ub=1.0, integer=True)
    p.add_row({"a": 2.0, "b": 3.0, "c": 1.0}, "<=", 5.0)
    return p


def random_mip(rng: np.random.Generator) -> sp.LinearProblem:
    """Feasible pure-integer program, up to 4 variables with bounds <= 6."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    p = sp.LinearProblem()
    for i in range(n):
        p.add_var(f"v{i}", obj=float(rng.uniform(-5, 5)), lb=0.0,
                  ub=float(rng.integers(1, 7)), integer=True)
    for _ in range(m):
        coeffs = {f"v{i}": float(rng.uniform(-3, 3)) for i in range(n)}
        p.add_row(coeffs, "<=", float(rng.uniform(0, 12)))
    return p


# -- tiny one-arc network with closed-form recourse -------------------------

def one_arc_instance() -> sp.Instance:
    """One supplier, one plant, one destination: q=10, t=2, alpha=0.5,
    buying cost 8, booking cap 100 vehicles-worth of tons."""
    return sp.Instance(
        q=10.0, alpha=0.5,
        suppliers=(sp.Supplier("s1", 0.0, 100.0, ("p1",)),),
        destinations=(sp.Destination("d1", 8.0, 100.0, 0.0),),
        arcs=(sp.Arc("s1", "p1", "d1", 2.0),))


def one_arc_scens() -> sp.ScenarioSet:
    return sp.ScenarioSet(np.array([[30.0], [50.0]]),
                          np.array([[8.0], [8.0]]), dest_ids=["d1"])


def one_arc_recourse_oracle(inst: sp.Instance, x: float, d: float,
                            b: float = 8.0) -> float:
    """Best total cost for fixed booking x by grid search over z in [0, x]
    (step 0.01) with y chosen minimally to cover demand."""
    best = math.inf
    q, t, alpha = inst.q, inst.arcs[0].t, inst.alpha
    for z in np.arange(0.0, x + 1e-12, 0.01):
        y = max(0.0, (d - q * z) / q)
        cost = q * t * x + q * b * y - alpha * q * t * (x - z)
        best = min(best, cost)
    return best


def one_arc_sp_oracle(inst: sp.Instance, demands, probs) -> float:
    """SP optimum by grid search over integer bookings x in 0..10."""
    best = math.inf
    for x in range(11):
        cost = sum(pr * one_arc_recourse_oracle(inst, x, d)
                   for d, pr in zip(demands, probs))
        best = min(best, cost)
    return best


def one_arc_robox_oracle(inst: sp.Instance, d_corner: float) -> float:
    """Box robust optimum: worst case is the corner demand at nominal cost,
    so the answer is the wait-and-see oracle at the corner."""
    return min(one_arc_recourse_oracle(inst, x, d_corner) for x in range(11))


# -- capacity-tight network where external purchase is unavoidable ----------

def tight_instance() -> sp.Instance:
    """Booking cap below worst-case demand, so robust solutions carry y > 0
    and their cone rows are active."""
    return sp.Instance(
        q=10.0, alpha=0.5,
        suppliers=(sp.Supplier("s1", 0.0, 60.0, ("p1",)),
                   sp.Supplier("s2", 0.0, 60.0, ("p2",))),
        destinations=(sp.Destination("d1", 7.0, 40.0, 0.0),
                      sp.Destination("d2", 9.0, 50.0, 0.0)),
        arcs=(sp.Arc("s1", "p1", "d1", 2.0),
              sp.Arc("s2", "p2", "d1", 3.0),
              sp.Arc("s1", "p1", "d2", 2.5),
              sp.Arc("s2", "p2", "d2", 2.2)))


def tight_scens(n: int = 8, seed: int = 5) -> sp.ScenarioSet:
    stream = sp.Stream(seed)
    demands = stream.uniform_matrix([60.0, 70.0], [110.0, 130.0], n)
    costs = stream.uniform_matrix([5.6, 7.2], [8.4, 10.8], n)
    return sp.ScenarioSet(demands, costs, dest_ids=["d1", "d2"])


def band_instance() -> sp.Instance:
    """One supplier booking for two destinations whose prefix cost
    deviations differ widely (40 and 1), so a sigma band of the nominal
    cost moves the m2-m4 bookings."""
    return sp.Instance(
        q=31.0, alpha=0.7,
        suppliers=(sp.Supplier("s1", 0.0, 3100.0, ("p1",)),),
        destinations=(sp.Destination("d1", 50.0, 1e4),
                      sp.Destination("d2", 60.0, 1e4)),
        arcs=(sp.Arc("s1", "p1", "d1", 5.0), sp.Arc("s1", "p1", "d2", 5.0)))


def band_scens() -> sp.ScenarioSet:
    demands = [[3000, 3000], [3100, 3100], [2900, 3000], [3050, 2950],
               [3000, 3050], [3000, 3000]]
    costs = [[30, 59], [70, 61], [50, 60], [40, 60], [60, 60], [50, 60]]
    return sp.ScenarioSet(np.array(demands, dtype=float),
                          np.array(costs, dtype=float),
                          dest_ids=["d1", "d2"])


# -- row-by-row builds of every model, the byte-identity oracle -------------
#
# The package stacks one index-form block per scenario; these write the same
# problems one named variable and one dict row at a time, through the public
# add_var / add_row / add_cone / add_obj, in the order the model defines:
# C1 per destination with arcs; then per block C2 <= v per supplier with
# arcs (>= r right after it when r > 0), C3 per destination, and z - x <= 0
# per arc, z written first. x's cost is added scenario by scenario.

def _rowwise_first_stage(p, inst, relax):
    for a in inst.arcs:
        p.add_var(x_name(a), integer=not relax)
    for dest in inst.destinations:
        coeffs = {x_name(a): inst.q for a in inst.arcs if a.dest == dest.id}
        if coeffs:
            p.add_row(coeffs, "<=", dest.g)


def _rowwise_block(p, inst, d, relax, tag=None, booking=None):
    for a in inst.arcs:
        cap = (None if booking is None
               else max(0.0, float(booking.get(a.key, 0.0))))
        p.add_var(z_name(a, tag), ub=cap, integer=not relax)
    for dest in inst.destinations:
        p.add_var(y_name(dest.id, tag))
    for s in inst.suppliers:
        coeffs = {z_name(a, tag): inst.q for a in inst.arcs
                  if a.supplier == s.id}
        if not coeffs:
            continue
        p.add_row(coeffs, "<=", s.v)
        if s.r > 0:
            p.add_row(coeffs, ">=", s.r)
    for dest, d_j in zip(inst.destinations, d):
        coeffs = {z_name(a, tag): inst.q for a in inst.arcs
                  if a.dest == dest.id}
        coeffs[y_name(dest.id, tag)] = inst.q
        p.add_row(coeffs, ">=", float(d_j) - dest.l0)
    if booking is None:
        for a in inst.arcs:
            p.add_row({z_name(a, tag): 1.0, x_name(a): -1.0}, "<=", 0.0)


def _rowwise_cost(inst, b, tag=None, weight=1.0):
    coeffs = {}
    for a in inst.arcs:
        coeffs[x_name(a)] = weight * inst.q * a.t * (1.0 - inst.alpha)
        coeffs[z_name(a, tag)] = weight * inst.alpha * inst.q * a.t
    for dest, b_j in zip(inst.destinations, b):
        coeffs[y_name(dest.id, tag)] = weight * inst.q * float(b_j)
    return coeffs


def rowwise_expected(inst, demands, costs, probs, relax, tags):
    """build_sp over ``(demands, costs, probs)`` with tags ``range(S)``, or
    build_ws with ``[d], [b], [1.0]`` and tags ``[None]``."""
    p = sp.LinearProblem()
    _rowwise_first_stage(p, inst, relax)
    for d, b, prob, tag in zip(demands, costs, probs, tags):
        _rowwise_block(p, inst, d, relax, tag)
        for name, c in _rowwise_cost(inst, b, tag, float(prob)).items():
            p.add_obj(name, c)
    return p


def rowwise_worst(inst, demands, box, omega, tags):
    """build_trsocp over the scenario demands with tags ``range(S)``, or
    build_ro_ell with ``[box.d_corner]`` and tags ``[None]``."""
    p = sp.LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    _rowwise_first_stage(p, inst, True)
    for d, tag in zip(demands, tags):
        _rowwise_block(p, inst, d, True, tag)
        terms = [{y_name(dest.id, tag): inst.q * float(dev)}
                 for dest, dev in zip(inst.destinations, box.b_dev)]
        p.add_cone(sp.ConeRow("w", _rowwise_cost(inst, box.b_nominal, tag),
                              terms, scale=float(omega)))
    return p


def rowwise_recourse(inst, booking, d, b, relax):
    """build_recourse of the booking ``{arc key: value}``."""
    p = sp.LinearProblem()
    _rowwise_block(p, inst, d, relax, booking=booking)
    cost = _rowwise_cost(inst, b)
    for name in p.var_names:
        p.add_obj(name, cost[name])
    p.objective_offset = (1.0 - inst.alpha) * sp.booking_cost(inst, booking)
    return p
