"""Problem builders for the five planning methods, wait-and-see and recourse.

Methods:
  M1  stochastic program with recourse (scenario-weighted expectation)
  M2  static robust counterpart, box uncertainty on demand and cost, solved
      as the deterministic problem at the box's worst corner
  M3  static robust counterpart, demand box plus cost ellipsoid (one cone row)
  M4  tractable adjustable counterpart over the scenario hull (cone row per
      scenario)
  M5  M4 plus hull projection of the realized demand to recover adjustables
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeRow
from .linprog import LinearProblem, Solution
from .model import (ArcKey, Instance, _as_demand, booking_cost,
                    first_stage_rows, second_stage_rows, x_name, y_name,
                    z_name)
from .uncertainty import BoxParams, ScenarioSet, estimate_box

PHI_ZERO_TOL = 1e-6  # relative to ||d||^2 + 1


@dataclass
class FirstStage:
    x: dict[ArcKey, float]
    # m5 only: (scenario demands, trSOCP solution) of the hull decision rule
    hull: tuple[np.ndarray, Solution] | None = None


class PhiPositive(Exception):
    """Realized demand lies outside the scenario hull; adjustables of the
    hull decision rule are undefined."""


def extract_first_stage(inst: Instance, sol: Solution) -> FirstStage:
    x = {a.key: max(0.0, sol.values.get(x_name(a), 0.0)) for a in inst.arcs}
    return FirstStage(x=x)


def _cost(inst: Instance, b, tag=None, weight: float = 1.0) -> dict[str, float]:
    """Coefficients of ``weight * f(x, y, z; b)`` for the recourse block
    ``tag``: booking net of the full refund, the refund given back on used
    vehicles, and purchases at cost ``b`` (a vector or destination map)."""
    b = _as_demand(inst, b)
    coeffs = {}
    for a in inst.arcs:
        coeffs[x_name(a)] = weight * inst.q * a.t * (1.0 - inst.alpha)
        coeffs[z_name(a, tag)] = weight * inst.alpha * inst.q * a.t
    for dest in inst.destinations:
        coeffs[y_name(dest.id, tag)] = weight * inst.q * b[dest.id]
    return coeffs


def build_sp(inst: Instance, scens: ScenarioSet, relax: bool = True) -> LinearProblem:
    """Two-stage stochastic program: first-stage booking plus probability
    weighted recourse blocks, one (y^s, z^s) block per scenario."""
    if scens.costs is None:
        raise ValueError("stochastic program needs cost realizations")
    p = LinearProblem()
    first_stage_rows(p, inst, relax)
    for s in range(scens.S):
        second_stage_rows(p, inst, scens.demands[s], relax, tag=s)
        for name, c in _cost(inst, scens.costs[s], s,
                             float(scens.probs[s])).items():
            p.add_obj(name, c)
    return p


def build_ws(inst: Instance, d, b, relax: bool = True) -> LinearProblem:
    """Deterministic problem with full knowledge of one realization."""
    p = LinearProblem()
    first_stage_rows(p, inst, relax)
    second_stage_rows(p, inst, d, relax)
    for name, c in _cost(inst, b).items():
        p.add_obj(name, c)
    return p


def _cost_cone(inst: Instance, box: BoxParams, omega: float,
               tag=None) -> ConeRow:
    """Cone row w - f(x, y, z; b_nominal) >= omega * ||q b_dev . y|| of the
    recourse block ``tag``."""
    terms = [{y_name(dest.id, tag): inst.q * float(dev)}
             for dest, dev in zip(inst.destinations, box.b_dev)]
    return ConeRow("w", _cost(inst, box.b_nominal, tag), terms,
                   scale=float(omega))


def build_ro_box(inst: Instance, box: BoxParams, relax: bool = True) -> LinearProblem:
    """Static robust counterpart, solved as the deterministic problem at the
    box's worst corner (d_nominal + d_dev, b_nominal + b_dev): f rises in
    demand and in cost at every feasible point."""
    return build_ws(inst, box.d_corner, box.b_nominal + box.b_dev, relax)


def build_ro_ell(inst: Instance, box: BoxParams, omega: float) -> LinearProblem:
    """Static robust counterpart with a cost ellipsoid of radius ``omega``:
    the worst-cost row becomes the cone row
    w - f(x,y,z; b_nominal) >= omega * ||q b_dev . y||. Continuous only."""
    p = LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    first_stage_rows(p, inst, True)
    second_stage_rows(p, inst, box.d_corner, True)
    p.add_cone(_cost_cone(inst, box, omega))
    return p


def build_trsocp(inst: Instance, scens: ScenarioSet,
                 omega: float) -> LinearProblem:
    """Tractable adjustable counterpart over the hull of the given scenarios:
    shared booking x, one (y^s, z^s) block and one cone row per scenario,
    demand of block s fixed at the scenario realization. Continuous."""
    box = estimate_box(scens)
    p = LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    first_stage_rows(p, inst, True)
    for s in range(scens.S):
        second_stage_rows(p, inst, scens.demands[s], True, tag=s)
        p.add_cone(_cost_cone(inst, box, omega, s))
    return p


def build_recourse(inst: Instance, x_star, d, b,
                   relax: bool = True) -> LinearProblem:
    """Second-stage problem with the booking fixed: minimize
    f(x*, y, z; b) over (y, z) subject to C2, C3(d) and z <= x*.

    Infeasibility (e.g. a supplier minimum unreachable under z <= x*) is a
    result, reported through the solution status."""
    if isinstance(x_star, FirstStage):
        x_star = x_star.x
    x_star = dict(x_star)
    p = LinearProblem()
    second_stage_rows(p, inst, d, relax, booking=x_star)
    cost = _cost(inst, b)
    for name in p.var_names:
        p.add_obj(name, cost[name])
    p.objective_offset = (1.0 - inst.alpha) * booking_cost(inst, x_star)
    return p


def recover_adjustable_m5(inst: Instance, sol: Solution, lam, phi: float,
                          d) -> tuple[dict[str, float], dict[ArcKey, float]]:
    """Adjustables of the hull decision rule: convex combination of the
    per-scenario blocks of a trSOCP solution with the projection weights.

    Raises :class:`PhiPositive` when the projection residual ``phi`` exceeds
    the zero tolerance (realized demand outside the hull)."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < -1e-12) or abs(lam.sum() - 1.0) > 1e-9:
        raise ValueError("lambda must lie on the unit simplex")
    d = np.asarray(d, dtype=float)
    if phi > PHI_ZERO_TOL * (float(d @ d) + 1.0):
        raise PhiPositive(f"phi={phi:g} exceeds the hull tolerance")
    y = {dest.id: 0.0 for dest in inst.destinations}
    z = {a.key: 0.0 for a in inst.arcs}
    for s, weight in enumerate(lam):
        if weight == 0.0:
            continue
        for dest in inst.destinations:
            y[dest.id] += weight * sol.values[y_name(dest.id, s)]
        for a in inst.arcs:
            z[a.key] += weight * sol.values[z_name(a, s)]
    return y, z
