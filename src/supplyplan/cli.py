"""Command-line surface: solve, compare, gen, stability, montecarlo, evpi.

Every command is deterministic given its flags and --seed. Exit codes:
0 solved/ok, 1 configuration error, 2 infeasible, 3 iteration/node/cut limit,
4 solver failure (a backend error or an iteration cap that raises).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .formulations import build_sp, build_ws
from .framework import (ALL_COLUMNS, METHOD_COLUMNS, compute_evpi,
                        in_sample_stability, monte_carlo_validation,
                        run_comparison, solve, solve_method)
from .generate import gen_instance, gen_scenarios
from .linprog import SolverConfig, Status
from .model import Instance
from .uncertainty import (estimate_box, demand_gamma, load_scenarios,
                          omega_for_epsilon, sample_costs, save_scenarios)

EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_LIMIT, EXIT_SOLVER = 0, 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--demand-csv", required=True, help="demand scenario CSV")
    p.add_argument("--cost-csv", help="cost scenario CSV (sampled when absent)")
    p.add_argument("--sigma", type=float, default=0.2,
                   help="relative cost deviation for sampling (default 0.2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")


def _add_relax(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--relax", dest="relax", action="store_true", default=True,
                   help="continuous variables (default)")
    g.add_argument("--integer", dest="relax", action="store_false",
                   help="integer bookings/usages where the model allows it")


def build_parser() -> _Parser:
    parser = _Parser(prog="supplyplan",
                     description="Supply planning under uncertainty: "
                                 "stochastic vs robust bookings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one model on the full scenario set")
    p.add_argument("--model", required=True,
                   choices=["sp", "ro-box", "ro-ell", "trsocp", "ws"])
    p.add_argument("--omega", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--scenario", type=int, default=1,
                   help="1-based scenario index for the ws model")
    _add_common(p)
    _add_relax(p)

    p = sub.add_parser("compare", help="rolling-horizon method comparison")
    p.add_argument("--methods", default=",".join(METHOD_COLUMNS),
                   help="comma list from m1..m5 (ws always reported)")
    p.add_argument("--sbar", type=int, help="first prefix length (default S/2)")
    p.add_argument("--omega", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--sigma-band", action="store_true",
                   help="cost box deviations from the sigma band instead of "
                        "the prefix estimate")
    _add_common(p)
    _add_relax(p)

    p = sub.add_parser("gen", help="generate a synthetic instance + scenarios")
    p.add_argument("--suppliers", type=int, default=24)
    p.add_argument("--destinations", type=int, default=15)
    p.add_argument("--scenarios", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")

    p = sub.add_parser("stability", help="in-sample stability curve of SP")
    p.add_argument("--s-list", default="50,100,200")
    _add_common(p)

    p = sub.add_parser("montecarlo", help="Monte Carlo validation of bookings")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--sbar", type=int)
    p.add_argument("--omega", type=float, default=2.75)
    p.add_argument("--methods", default="m1,m2,m3,m4")
    _add_common(p)

    p = sub.add_parser("evpi", help="expected value of perfect information")
    _add_common(p)
    _add_relax(p)
    return parser


def _load(args):
    inst = Instance.load(args.instance)
    for warning in inst.validate():
        print(f"warning: {warning}", file=sys.stderr)
    scens = load_scenarios(args.demand_csv, args.cost_csv,
                           dest_ids=inst.dest_ids)
    if scens.costs is None:
        scens = scens.with_costs(
            sample_costs(inst.b_bar_vector(), args.sigma, scens.S, args.seed))
    return inst, scens


def _resolve_omega(args, required: bool):
    if args.omega is not None and args.epsilon is not None:
        print("error: --omega and --epsilon are mutually exclusive",
              file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    if args.omega is not None:
        return args.omega
    if args.epsilon is not None:
        return omega_for_epsilon(args.epsilon)
    if required:
        print("error: --omega or --epsilon is required for cone models",
              file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    return 2.75


def _status_exit(status: Status) -> int:
    if status is Status.OPTIMAL:
        return EXIT_OK
    if status is Status.INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_LIMIT


def _write_solution(out_dir: Path, sol):
    groups = {"x": {}, "y": {}, "z": {}}
    for name, v in sol.values.items():
        head = name.split("[", 1)[0]
        if head in groups:
            groups[head][name] = v
    doc = {"status": sol.status.value,
           "objective": None if math.isinf(sol.objective) else sol.objective,
           **groups,
           "values": sol.values}
    path = out_dir / "solution.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def cmd_solve(args) -> int:
    inst, scens = _load(args)
    cfg = SolverConfig()
    need_omega = args.model in ("ro-ell", "trsocp")
    omega = _resolve_omega(args, required=need_omega) if need_omega else None

    if args.model == "ws":
        s = args.scenario - 1
        if not 0 <= s < scens.S:
            print("error: scenario index out of range", file=sys.stderr)
            return EXIT_CONFIG
        sol = solve(build_ws(inst, scens.demands[s], scens.costs[s],
                             args.relax), cfg)
    else:
        method = {"sp": "m1", "ro-box": "m2", "ro-ell": "m3",
                  "trsocp": "m4"}[args.model]
        sol = solve_method(inst, method, scens, estimate_box(scens, scens.S),
                           omega, args.relax, cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _write_solution(out_dir, sol)
    obj = "-" if math.isinf(sol.objective) else f"{sol.objective:.6f}"
    print(f"model={args.model} status={sol.status.value} objective={obj}")
    print(f"solution written to {path}")
    return _status_exit(sol.status)


def cmd_compare(args) -> int:
    inst, scens = _load(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    methods = [m for m in methods if m != "ws"]
    if scens.S < 2:
        print("error: compare needs at least 2 scenarios", file=sys.stderr)
        return EXIT_CONFIG
    sbar = args.sbar if args.sbar is not None else scens.S // 2
    need_omega = any(m in methods for m in ("m3", "m4", "m5"))
    omega = _resolve_omega(args, required=False) if need_omega else 2.75

    report = run_comparison(inst, scens, sbar, methods=methods, omega=omega,
                            relax=args.relax, seed=args.seed, sigma=args.sigma,
                            cost_dev_from_sigma=args.sigma_band,
                            jobs=args.jobs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(report.to_csv())
    with open(out_dir / "plot.csv", "w", encoding="utf-8") as fh:
        fh.write("tau,method,cost\n")
        for col in ALL_COLUMNS:
            if col != "ws" and col not in methods:
                continue
            for tau in report.taus:
                fh.write(f"{tau},{col},{report.cells[(col, tau)]:.6f}\n")
    print(f"report written to {out_dir / 'report.csv'}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.suppliers < 1 or args.destinations < 1 or args.scenarios < 1:
        print("error: sizes must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    inst = gen_instance(args.suppliers, args.destinations, args.seed)
    scens = gen_scenarios(inst, args.scenarios, args.seed + 1)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inst.save(out_dir / "instance.json")
    save_scenarios(out_dir / "demand.csv", inst.dest_ids, scens.demands)
    save_scenarios(out_dir / "cost.csv", inst.dest_ids, scens.costs)
    print(f"instance and scenario files written to {out_dir}")
    return EXIT_OK


def cmd_stability(args) -> int:
    inst, scens = _load(args)
    try:
        s_list = [int(v) for v in args.s_list.split(",") if v.strip()]
    except ValueError:
        print("error: --s-list must be a comma list of integers",
              file=sys.stderr)
        return EXIT_CONFIG
    curve = in_sample_stability(inst, scens, s_list, args.seed, args.sigma)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stability.csv", "w", encoding="utf-8") as fh:
        fh.write("s,objective\n")
        for s, v in curve.entries:
            fh.write(f"{s},{v:.6f}\n")
    print(f"stability curve written to {out_dir / 'stability.csv'}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    inst, scens = _load(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    sbar = args.sbar if args.sbar is not None else scens.S // 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "montecarlo.csv"
    if args.n == 0:
        path.write_text("method,cost\n")
        print(f"monte carlo results written to {path}")
        return EXIT_OK
    report = run_comparison(inst, scens, sbar, methods=methods,
                            omega=args.omega, seed=args.seed,
                            sigma=args.sigma)
    first_stages = {}
    for m in methods:
        per_tau = {tau: fs for (col, tau), fs in report.first_stages.items()
                   if col == m}
        if per_tau:
            first_stages[m] = per_tau
    d_bar = scens.demands.mean(axis=0)
    gamma = demand_gamma(scens)
    results = monte_carlo_validation(
        inst, first_stages, args.n, args.seed, gamma, args.sigma,
        d_bar, scens.costs.mean(axis=0))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,cost\n")
        for m in methods:
            fh.write(f"{m},{results.get(m, math.inf):.6f}\n")
    print(f"monte carlo results written to {path}")
    return EXIT_OK


def cmd_evpi(args) -> int:
    inst, scens = _load(args)
    cfg = SolverConfig()
    sp = solve(build_sp(inst, scens, args.relax), cfg)
    if not sp.optimal:
        return _status_exit(sp.status)
    ws_values = []
    for s in range(scens.S):
        sol = solve(build_ws(inst, scens.demands[s], scens.costs[s],
                             args.relax), cfg)
        if not sol.optimal:
            return _status_exit(sol.status)
        ws_values.append(sol.objective)
    evpi = compute_evpi(sp.objective, ws_values, scens.probs)
    print(f"{evpi:.6f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"solve": cmd_solve, "compare": cmd_compare, "gen": cmd_gen,
                "stability": cmd_stability, "montecarlo": cmd_montecarlo,
                "evpi": cmd_evpi}
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
