"""Rolling-horizon comparison of the planning methods.

For each prefix length tau the box parameters are re-estimated on scenarios
1..tau (expanding window), each method books vehicles using only that prefix,
and the booking is priced against the next realization by solving the
recourse problem. Infeasible evaluations are recorded as ``inf`` and poison
the column aggregate.
"""

from __future__ import annotations

import concurrent.futures
import io
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cone import solve_cone
from .formulations import (FirstStage, PhiPositive, build_recourse,
                           build_ro_box, build_ro_ell, build_sp, build_trsocp,
                           build_ws, extract_first_stage,
                           recover_adjustable_m5)
from .linprog import Solution, SolverConfig, _row_form, run_highs, solve_lp
from .model import (Instance, _as_demand, booking_cost, recourse_cost,
                    y_name)
from .projection import project_simplex_lsq
from .rng import Stream
from .uncertainty import ScenarioSet, cost_band, estimate_box, sample_costs

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


@dataclass
class StabilityCurve:
    entries: list[tuple[int, float]]   # (scenario count, SP optimum)
    seed: int

    def __post_init__(self):
        sizes = [s for s, _ in self.entries]
        if sizes != sorted(set(sizes)):
            raise ValueError("scenario counts must be strictly increasing")


def _objective_or_inf(sol) -> float:
    return sol.objective if sol.optimal else math.inf


def solve(p, cfg=None) -> Solution:
    """Solve ``p`` by the cone cut loop when it carries cone rows, else by
    one HiGHS call, LP or MIP as its integrality marks say."""
    return solve_cone(p, cfg) if p.cones else solve_lp(p, cfg)


def solve_method(inst, method, scens, box, omega, relax, cfg) -> Solution:
    """Solve the first-stage model of ``method`` on scenarios ``scens``; the
    robust models m2/m3 use ``box``, the cone models m3-m5 radius ``omega``."""
    build = {"m1": lambda: build_sp(inst, scens, relax),
             "m2": lambda: build_ro_box(inst, box, relax),
             "m3": lambda: build_ro_ell(inst, box, omega),
             "m4": lambda: build_trsocp(inst, scens, omega),
             "m5": lambda: build_trsocp(inst, scens, omega)}
    if method not in build:
        raise ValueError(f"unknown method {method!r}")
    return solve(build[method](), cfg)


def evaluate_recourse(inst, x_star, d, b, relax=True, cfg=None) -> float:
    """Realized cost of a booking at demand ``d`` and cost ``b``: the one
    draw of :func:`price_draws`."""
    return next(price_draws(inst, x_star, [d], [b], relax, cfg))


def price_draws(inst, booking, ds, bs, relax=True, cfg=None):
    """Yield the realized cost of ``booking`` at each draw ``(ds[i], bs[i])``,
    inf if infeasible: an m5 booking (with a ``hull``) by its hull decision
    rule, any other by the optimal fixed-booking recourse.

    The recourse problem is built once; each draw overwrites its demand
    cover (C3) bounds and purchase costs and re-solves it in HiGHS, a
    relaxed LP from the last optimal draw's basis, an integer one (``relax``
    false) as a MIP within ``cfg``'s node limit. Only the optimal value
    leaves, and that is the same from any optimal vertex."""
    if len(ds) != len(bs):
        raise ValueError(f"{len(ds)} demands but {len(bs)} costs")
    if isinstance(booking, FirstStage) and booking.hull is not None:
        yield from (_price_m5(inst, booking, d, b) for d, b in zip(ds, bs))
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
    for d, b in zip(ds, bs):
        d, b = (np.array([*_as_demand(inst, v).values()]) for v in (d, b))
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


def _compare_tau(inst, scens, tau, methods, omega, relax, cfg,
                 cost_dev_from_sigma, sigma):
    """All cells of one report row. Returns (tau, cells, times, first_stages)."""
    prefix = scens.head(tau)
    box = estimate_box(prefix)
    if cost_dev_from_sigma:
        box.b_dev = cost_band(box.b_nominal, sigma)[1] - box.b_nominal
    d_next = scens.demands[tau]
    b_next = scens.costs[tau]

    cells, times, stages = {}, {}, {}
    trsocp = None  # (solution, booking), solved once for m4 and m5
    for m in methods:
        t0 = time.perf_counter()
        if m in ("m4", "m5") and trsocp is not None:
            sol, fs = trsocp
        else:
            sol = solve_method(inst, m, prefix, box, omega, relax, cfg)
            fs = extract_first_stage(inst, sol) if sol.optimal else None
            if m in ("m4", "m5"):
                trsocp = sol, fs
        if fs is None:
            cells[m] = math.inf
            times[m] = time.perf_counter() - t0
            continue
        if m == "m5":
            fs = replace(fs, hull=(prefix.demands, sol))
        stages[m] = fs
        cells[m] = evaluate_recourse(inst, fs, d_next, b_next, relax, cfg)
        times[m] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ws_sol = solve(build_ws(inst, d_next, b_next, relax), cfg)
    cells["ws"] = _objective_or_inf(ws_sol)
    times["ws"] = time.perf_counter() - t0
    return tau, cells, times, stages


def run_comparison(inst: Instance, scens: ScenarioSet, sbar: int,
                   methods=None, omega: float = 2.75, relax: bool = True,
                   seed: int = 0, sigma: float = 0.2,
                   cost_dev_from_sigma: bool = False,
                   cfg: SolverConfig | None = None,
                   jobs: int = 1) -> ComparisonReport:
    """Run the full tau sweep, tau in {sbar, ..., S-1}.

    Cost realizations are sampled around the instance's average buying costs
    (seeded) when the scenario set carries none. ``cost_dev_from_sigma``
    switches the box cost deviations from the prefix estimate to the
    sigma band around the nominal cost.
    """
    if not 1 <= sbar < scens.S:
        raise ValueError("need 1 <= sbar < S")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    methods = list(methods) if methods is not None else list(METHOD_COLUMNS)
    for m in methods:
        if m not in METHOD_COLUMNS:
            raise ValueError(f"unknown method {m!r}")
    cfg = cfg or SolverConfig()
    if scens.costs is None:
        costs = sample_costs(inst.b_bar_vector(), sigma, scens.S, seed)
        scens = scens.with_costs(costs)

    taus = list(range(sbar, scens.S))
    report = ComparisonReport(taus=taus, methods=methods)
    args = [(inst, scens, tau, methods, omega, relax, cfg,
             cost_dev_from_sigma, sigma) for tau in taus]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_compare_tau, *zip(*args)))
    else:
        results = [_compare_tau(*a) for a in args]
    for tau, cells, times, stages in sorted(results):  # ordered merge by tau
        for col, v in cells.items():
            report.cells[(col, tau)] = v
        for col, v in times.items():
            report.times[(col, tau)] = v
        for col, fs in stages.items():
            report.first_stages[(col, tau)] = fs
    return report


def compute_evpi(sp_value: float, ws_values, probs=None) -> float:
    """Expected value of perfect information: SP optimum minus expected
    wait-and-see optimum."""
    ws_values = np.asarray(ws_values, dtype=float)
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
                        seed: int, sigma: float = 0.2,
                        cfg: SolverConfig | None = None) -> StabilityCurve:
    """SP optimum for increasing sampled scenario counts.

    Demands are uniform in the per-destination [min, max] range of the
    historical scenarios; costs uniform in the sigma band around the
    historical mean (or the instance average when no costs are present).
    All counts share one stream, so smaller samples are prefixes of larger
    ones (prefix-stable curves)."""
    s_list = list(s_list)
    if not s_list or s_list[0] < 1:
        raise ValueError("s_list must be a nonempty list of sizes >= 1")
    if s_list != sorted(set(s_list)):
        raise ValueError("s_list must be strictly increasing")
    cfg = cfg or SolverConfig()
    lo = scens.demands.min(axis=0)
    hi = scens.demands.max(axis=0)
    b_bar = (scens.costs.mean(axis=0) if scens.costs is not None
             else inst.b_bar_vector())
    b_lo, b_hi = cost_band(b_bar, sigma)
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
        sol = solve(build_sp(inst, sub, relax=True), cfg)
        entries.append((n, _objective_or_inf(sol)))
    return StabilityCurve(entries=entries, seed=seed)


def monte_carlo_validation(inst: Instance, first_stages, n: int, seed: int,
                           gamma, sigma: float, d_bar, b_bar,
                           cfg: SolverConfig | None = None):
    """Aggregate recourse cost per method over ``n`` sampled realizations.

    ``first_stages`` maps method column -> {tau: FirstStage}; the aggregate is
    the sum over tau of the mean evaluated cost over the draws. Each booking
    prices its draws in turn through one :func:`price_draws` generator, which
    re-solves one recourse LP warm from draw to draw. Any infeasible draw, or
    for m5 any draw outside the hull, makes the aggregate inf, and the
    booking's remaining draws are not priced."""
    b_lo, b_hi = cost_band(b_bar, sigma)
    if n == 0:
        return {}
    cfg = cfg or SolverConfig()
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
            for cost in price_draws(inst, fs, ds, bs, True, cfg):
                acc += cost
                if math.isinf(acc):
                    break
            total += acc / n
            if math.isinf(total):
                break
        out[method] = total
    return out


def stress_worst_case(inst: Instance, first_stages, gamma, sigma: float,
                      d_bar, b_bar, cfg: SolverConfig | None = None):
    """Single extreme evaluation per method at demand d_bar (1 + gamma) and
    cost b_bar (1 + sigma), using each method's most informed booking (the
    largest tau), plus the wait-and-see cost of that scenario. Bookings are
    priced by :func:`evaluate_recourse`, so an m5 booking follows its hull
    decision rule (inf when the extreme demand lies outside the hull)."""
    cfg = cfg or SolverConfig()
    d_bar = np.asarray(d_bar, dtype=float)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), d_bar.shape)
    d_ext = d_bar * (1.0 + gamma)
    b_ext = cost_band(b_bar, sigma)[1]
    out = {}
    for method, per_tau in first_stages.items():
        tau = max(per_tau)
        out[method] = evaluate_recourse(inst, per_tau[tau], d_ext, b_ext,
                                        True, cfg)
    ws_sol = solve(build_ws(inst, d_ext, b_ext, relax=True), cfg)
    out["ws"] = _objective_or_inf(ws_sol)
    return out
