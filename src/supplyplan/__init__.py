"""Supply planning under demand and cost uncertainty.

Builds and solves bookings of transport capacity for a multi-site supply
network: a two-stage stochastic program, static robust counterparts over box
and box-ellipsoidal uncertainty sets, and a tractable adjustable counterpart
over the scenario hull, plus a rolling-horizon framework that compares the
methods against realized demand.
"""

from .cone import ConeRow, solve_cone
from .formulations import (PHI_ZERO_TOL, FirstStage, PhiPositive,
                           build_recourse, build_ro_box, build_ro_ell,
                           build_sp, build_trsocp, build_ws,
                           extract_first_stage, recover_adjustable_m5)
from .framework import (ALL_COLUMNS, METHOD_COLUMNS, ComparisonReport,
                        StabilityCurve, compute_evpi, evaluate_recourse,
                        in_sample_stability, monte_carlo_validation,
                        price_draws, run_comparison, stress_worst_case)
from .generate import gen_instance, gen_scenarios
from .linprog import (LinearProblem, Solution, SolverConfig, Status, solve_lp)
from .model import (Arc, Destination, Instance, Supplier, booking_cost,
                    recourse_cost)
from .projection import project_simplex_lsq
from .rng import Stream
from .uncertainty import (BoxParams, ScenarioSet, demand_gamma, estimate_box,
                          load_scenarios, omega_for_epsilon, sample_costs,
                          save_scenarios)

__version__ = "0.1.0"

__all__ = [
    "Arc", "ALL_COLUMNS", "BoxParams", "ComparisonReport", "ConeRow",
    "Destination", "FirstStage", "Instance",
    "LinearProblem", "METHOD_COLUMNS", "PHI_ZERO_TOL",
    "PhiPositive", "ScenarioSet", "Solution", "SolverConfig", "StabilityCurve",
    "Status", "Stream", "Supplier", "booking_cost", "build_recourse",
    "build_ro_box", "build_ro_ell", "build_sp", "build_trsocp", "build_ws",
    "compute_evpi", "demand_gamma", "estimate_box", "evaluate_recourse",
    "extract_first_stage", "gen_instance", "gen_scenarios",
    "in_sample_stability", "load_scenarios", "monte_carlo_validation",
    "omega_for_epsilon", "price_draws", "project_simplex_lsq",
    "recourse_cost", "recover_adjustable_m5", "run_comparison", "sample_costs",
    "save_scenarios", "solve_cone", "solve_lp", "stress_worst_case",
]
