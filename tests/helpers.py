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


# -- vertex enumeration oracle for small LPs --------------------------------

def enumerate_lp(p: sp.LinearProblem) -> float:
    """Minimum of a small LP by enumerating intersections of n constraint
    hyperplanes (rows at equality plus active bounds). All bounds must be
    finite. Returns +inf when no feasible vertex exists."""
    n = p.num_vars
    planes = []  # (normal, rhs) candidates for active constraints
    for coeffs, rel, rhs in p.rows:
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
        for coeffs, rel, rhs in p.rows:
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
    for coeffs, rel, rhs in p.rows:
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
