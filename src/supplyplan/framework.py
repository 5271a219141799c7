"""Rolling-horizon comparison of the planning methods.

For each prefix length tau the box parameters are re-estimated on scenarios
1..tau (expanding window), each method books vehicles using only that prefix,
and the booking is priced against the next realization by solving the
recourse problem. Infeasible evaluations are recorded as ``inf`` and poison
the column aggregate.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .formulations import (FirstStage, PhiPositive, build_recourse,
                           build_ro_box, build_ro_ell, build_sp, build_trsocp,
                           build_ws, extract_first_stage,
                           recover_adjustable_m5)
from .linprog import Solution, SolverConfig, _row_form, run_highs, solve_lp
from .model import (Instance, _as_demand, booking_cost, recourse_cost,
                    y_name)
from .projection import project_simplex_lsq
from .rng import Stream
from .uncertainty import ScenarioSet, cost_band, estimate_box

METHOD_COLUMNS = ["m1", "m2", "m3", "m4", "m5"]
ALL_COLUMNS = METHOD_COLUMNS + ["ws"]


@dataclass
class ComparisonReport:
    taus: list[int]
    methods: list[str]                      # subset of METHOD_COLUMNS
    cells: dict[tuple[str, int], float] = field(default_factory=dict)
    times: dict[tuple[str, int], float] = field(default_factory=dict)
    first_stages: dict[tuple[str, int], FirstStage] = field(default_factory=dict)

    def cost(self, column: str, tau: int) -> float:
        return self.cells[(column, tau)]

    def aggregate(self, column: str) -> float:
        vals = [self.cells[(column, t)] for t in self.taus]
        return math.inf if any(math.isinf(v) for v in vals) else sum(vals)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("tau," + ",".join(ALL_COLUMNS) + "\n")
        active = set(self.methods) | {"ws"}
        for tau in self.taus:
            cells = [f"{self.cells[(c, tau)]:.6f}" if c in active else ""
                     for c in ALL_COLUMNS]
            out.write(f"{tau}," + ",".join(cells) + "\n")
        aggs = [f"{self.aggregate(c):.6f}" if c in active else ""
                for c in ALL_COLUMNS]
        out.write("aggregate," + ",".join(aggs) + "\n")
        return out.getvalue()


def _objective_or_inf(sol) -> float:
    return sol.objective if sol.optimal else math.inf


def solve_method(inst, method, scens, box, omega, relax, cfg=None) -> Solution:
    """Solve the first-stage model of ``method`` (m1-m4; m5 books by m4's)
    on scenarios ``scens``; m2-m4 use ``box``, m3/m4 radius ``omega``."""
    build = {"m1": lambda: build_sp(inst, scens, relax),
             "m2": lambda: build_ro_box(inst, box, relax),
             "m3": lambda: build_ro_ell(inst, box, omega),
             "m4": lambda: build_trsocp(inst, scens, box, omega)}
    if method not in build:
        raise ValueError(f"unknown method {method!r}")
    return solve_lp(build[method](), cfg)


def price_draws(inst, booking, ds, bs, relax=True, cfg=None):
    """Yield the realized cost of ``booking`` at each draw ``(ds[i], bs[i])``
    of demand and cost vectors in destination order, inf if infeasible: an
    m5 booking (with a ``hull``) by its hull decision rule, any other by the
    optimal fixed-booking recourse. A non-finite demand or cost in any draw,
    or a booking value that is negative or not finite, raises
    ``ValueError`` before any draw is priced.

    The recourse problem is built once; each draw overwrites its demand
    cover (C3) bounds and purchase costs and re-solves it in HiGHS, a
    relaxed LP from the last optimal draw's basis, an integer one (``relax``
    false) as a MIP within ``cfg``'s node limit. Only the optimal value
    leaves, and that is the same from any optimal vertex."""
    if len(ds) != len(bs):
        raise ValueError(f"{len(ds)} demands but {len(bs)} costs")
    draws = np.array([[_as_demand(inst, d), _as_demand(inst, b)]
                      for d, b in zip(ds, bs)])
    if not np.isfinite(draws).all():
        raise ValueError("a draw has a non-finite demand or cost")
    x = booking.x if isinstance(booking, FirstStage) else booking
    if not all(0.0 <= v < math.inf for v in x.values()):
        raise ValueError("a booking is negative or not finite")
    if isinstance(booking, FirstStage) and booking.hull is not None:
        yield from (_price_m5(inst, booking, d, b) for d, b in draws)
        return
    if len(ds) == 0:
        return
    nodes = (cfg or SolverConfig()).max_bb_nodes
    p = build_recourse(inst, booking, ds[0], bs[0], relax)
    c, A, lo, hi, col_lo, col_hi = _row_form(p)
    dests = inst.destinations
    cover = slice(A.shape[0] - len(dests), None)  # C3 rows are added last
    y = [p.var_names.index(y_name(dest.id)) for dest in dests]
    l0 = np.array([dest.l0 for dest in dests], dtype=float)
    integer = np.array(p.integer, dtype=np.int32)   # once, not per draw
    basis = None
    for d, b in draws:
        lo[cover] = d - l0
        c[y] = inst.q * b
        sol, _, warm = run_highs(c, A, lo, hi, col_lo, col_hi, basis,
                                 integer, nodes)
        basis = warm if sol.optimal else basis
        yield _objective_or_inf(sol) + p.objective_offset


def _price_m5(inst, fs, d, b) -> float:
    """Realized cost of an m5 booking whose adjustables follow the hull
    decision rule at demand ``d``; inf when ``d`` lies outside the hull of
    the booking's scenario demands.

    Purchases cover any shortfall the rule leaves: a demand the tolerance
    accepts just outside the hull gets the rule of its projection, which
    under-covers ``d``."""
    prefix_demands, trsocp_sol = fs.hull
    lam, phi = project_simplex_lsq(d, list(prefix_demands))
    try:
        y, z = recover_adjustable_m5(inst, trsocp_sol, lam, phi, d)
    except PhiPositive:
        return math.inf
    # numeric guard: the combination satisfies z <= x up to LP tol
    z = {k: min(v, fs.x.get(k, 0.0)) for k, v in z.items()}
    for dest, d_j in zip(inst.destinations, np.asarray(d, dtype=float)):
        covered = inst.q * (sum(z[a.key] for a in inst.arcs_to(dest.id))
                            + y[dest.id])
        y[dest.id] += max(0.0, d_j - dest.l0 - covered) / inst.q
    return booking_cost(inst, fs.x) + recourse_cost(inst, fs.x, y, z, b)


def run_comparison(inst: Instance, scens: ScenarioSet, sbar: int,
                   methods=None, omega: float = 2.75, relax: bool = True,
                   sigma_band: float | None = None,
                   cfg: SolverConfig | None = None) -> ComparisonReport:
    """Run the full tau sweep, tau in {sbar, ..., S-1}, one row after another
    in the calling process: each row estimates one box on its prefix, books
    with ``methods`` in the given order (m2-m4 on that box, m5 by the row's
    m4 solve), prices each booking by one draw of :func:`price_draws` at the
    next realization, then solves wait-and-see.

    A ``sigma_band`` in [0, 1) replaces the box cost deviations, estimated
    on each prefix by default, with ``sigma_band`` times the nominal cost,
    so it reaches m2, m3 and m4 (and m5 through m4).
    """
    if not 1 <= sbar < scens.S:
        raise ValueError("need 1 <= sbar < S")
    methods = list(methods) if methods is not None else list(METHOD_COLUMNS)
    for m in methods:
        if m not in METHOD_COLUMNS:
            raise ValueError(f"unknown method {m!r}")

    report = ComparisonReport(taus=list(range(sbar, scens.S)), methods=methods)
    cells, times, stages = report.cells, report.times, report.first_stages
    for tau in report.taus:
        prefix = scens.head(tau)
        box = estimate_box(prefix)
        if sigma_band is not None:
            box.b_dev = cost_band(box.b_nominal, sigma_band)[1] - box.b_nominal
        d_next = scens.demands[tau]
        b_next = scens.costs[tau]
        solved = {}  # model -> (solution, booking); m5 books by m4's trSOCP
        for m in methods:
            t0 = time.perf_counter()
            model = "m4" if m == "m5" else m
            if model not in solved:
                sol = solve_method(inst, model, prefix, box, omega, relax, cfg)
                solved[model] = (sol, extract_first_stage(inst, sol)
                                 if sol.optimal else None)
            sol, fs = solved[model]
            if fs is None:
                cells[(m, tau)] = math.inf
            else:
                if m == "m5":
                    fs = replace(fs, hull=(prefix.demands, sol))
                stages[(m, tau)] = fs
                cells[(m, tau)] = next(price_draws(inst, fs, [d_next],
                                                   [b_next], relax, cfg))
            times[(m, tau)] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ws_sol = solve_lp(build_ws(inst, d_next, b_next, relax), cfg)
        cells[("ws", tau)] = _objective_or_inf(ws_sol)
        times[("ws", tau)] = time.perf_counter() - t0
    return report


def compute_evpi(sp_value: float, ws_values, probs=None) -> float:
    """Expected value of perfect information: SP optimum minus expected
    wait-and-see optimum."""
    ws_values = np.asarray(ws_values, dtype=float)
    if ws_values.size == 0:
        raise ValueError("no wait-and-see value to take the expectation of")
    if probs is None:
        probs = np.full(ws_values.size, 1.0 / ws_values.size)
    else:
        probs = np.asarray(probs, dtype=float)
        if probs.shape != ws_values.shape:
            raise ValueError("need one probability per wait-and-see value")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("probabilities must be finite and >= 0")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
    return float(sp_value - probs @ ws_values)


def in_sample_stability(inst: Instance, scens: ScenarioSet, s_list,
                        seed: int, sigma: float = 0.2):
    """SP optimum for increasing sampled scenario counts, as a list of
    ``(count, optimum)`` pairs.

    Demands are uniform in the per-destination [min, max] range of the
    historical scenarios; costs uniform in the sigma band around the
    historical mean. All counts share one stream, so smaller samples are
    prefixes of larger ones (prefix-stable curves)."""
    s_list = list(s_list)
    if not s_list or s_list[0] < 1:
        raise ValueError("s_list must be a nonempty list of sizes >= 1")
    if s_list != sorted(set(s_list)):
        raise ValueError("s_list must be strictly increasing")
    lo = scens.demands.min(axis=0)
    hi = scens.demands.max(axis=0)
    b_lo, b_hi = cost_band(estimate_box(scens).b_nominal, sigma)
    stream = Stream(seed)
    n_max = s_list[-1]
    # demand and cost drawn jointly per row, so a smaller sample is an exact
    # prefix of a larger one from the same seed
    joint = stream.uniform_matrix(np.concatenate([lo, b_lo]),
                                  np.concatenate([hi, b_hi]), n_max)
    demands = joint[:, :lo.size]
    costs = joint[:, lo.size:]
    entries = []
    for n in s_list:
        sub = ScenarioSet(demands[:n], costs[:n], dest_ids=scens.dest_ids)
        sol = solve_lp(build_sp(inst, sub, relax=True))
        entries.append((n, _objective_or_inf(sol)))
    return entries


def monte_carlo_validation(inst: Instance, first_stages, n: int, seed: int,
                           gamma, sigma: float, d_bar, b_bar):
    """Aggregate recourse cost per method over ``n`` sampled realizations.

    ``first_stages`` maps method column -> {tau: FirstStage}; the aggregate is
    the sum over tau of the mean evaluated cost over the draws, demand and
    cost vectors in destination order around ``d_bar`` and ``b_bar``. Each
    booking prices its draws in turn through one :func:`price_draws`
    generator, which re-solves one recourse LP warm from draw to draw. Any
    infeasible draw, or for m5 any draw outside the hull, makes the
    aggregate inf, and the booking's remaining draws are not priced."""
    b_lo, b_hi = cost_band(b_bar, sigma)
    if n == 0:
        return {}
    d_bar = np.asarray(d_bar, dtype=float)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), d_bar.shape)
    stream = Stream(seed)
    lo_d = np.maximum(d_bar * (1.0 - gamma), 0.0)
    ds = stream.uniform_matrix(lo_d, d_bar * (1.0 + gamma), n)
    bs = stream.uniform_matrix(b_lo, b_hi, n)

    out = {}
    for method, per_tau in first_stages.items():
        total = 0.0
        for tau, fs in sorted(per_tau.items()):
            acc = 0.0
            for cost in price_draws(inst, fs, ds, bs):
                acc += cost
                if math.isinf(acc):
                    break
            total += acc / n
            if math.isinf(total):
                break
        out[method] = total
    return out


def stress_worst_case(inst: Instance, first_stages, gamma, sigma: float,
                      d_bar, b_bar):
    """Single extreme evaluation per method at demand d_bar (1 + gamma) and
    cost b_bar (1 + sigma), using each method's most informed booking (the
    largest tau), plus the wait-and-see cost of that scenario. Each booking
    is priced by one draw of :func:`price_draws`, so an m5 booking follows
    its hull decision rule (inf when the extreme demand lies outside the
    hull)."""
    d_bar = np.asarray(d_bar, dtype=float)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), d_bar.shape)
    d_ext = d_bar * (1.0 + gamma)
    b_ext = cost_band(b_bar, sigma)[1]
    out = {}
    for method, per_tau in first_stages.items():
        out[method] = next(price_draws(inst, per_tau[max(per_tau)],
                                       [d_ext], [b_ext]))
    ws_sol = solve_lp(build_ws(inst, d_ext, b_ext, relax=True))
    out["ws"] = _objective_or_inf(ws_sol)
    return out
