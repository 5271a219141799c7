"""Problem builders for the five planning methods, wait-and-see and recourse.

Each method is one of two programs over a list of scenarios, the expected
cost (``_expected_cost``) or the worst cost under the cost cone
(``_worst_cost``):
  M1  expected cost over the scenarios (stochastic program with recourse)
  M2  expected cost at the box's worst corner of demand and cost, which is
      WS there (static robust counterpart, box uncertainty)
  M3  worst cost over the one demand at the box corner (static robust
      counterpart, demand box plus cost ellipsoid)
  M4  worst cost over the scenario demands (tractable adjustable
      counterpart over the scenario hull)
  M5  M4 plus hull projection of the realized demand to recover adjustables
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linprog import LinearProblem, Rows, Solution
from .model import (ArcKey, Instance, _as_draws, booking_cost,
                    first_stage_rows, second_stage_rows, x_name, y_name,
                    z_name)
from .uncertainty import BoxParams, ScenarioSet

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


def _cost(inst: Instance, costs, weights):
    """Coefficients of ``weights[s] * f(x, y^s, z^s; costs[s])``, one row
    per cost vector (in destination order), on the columns a block's
    ``second_stage_rows`` returns: booking net of the full refund (x), the
    refund given back on used vehicles (z^s), and purchases (y^s)."""
    w = np.asarray(weights, dtype=float)[:, None]
    t = np.array([a.t for a in inst.arcs])
    return np.hstack([w * inst.q * t * (1.0 - inst.alpha),
                      w * inst.alpha * inst.q * t,
                      w * inst.q * _as_draws(inst, costs)])


def _expected_cost(inst: Instance, demands, costs, probs, relax: bool,
                   tags) -> LinearProblem:
    """Expected cost: the first stage plus one recourse block ``tags[s]``
    per scenario, each adding ``probs[s] * f(x, y^s, z^s; costs[s])`` to the
    objective, scenario by scenario."""
    p = LinearProblem()
    first_stage_rows(p, inst, relax)
    cols = second_stage_rows(p, inst, demands, relax, tags)
    p.add_costs(cols.ravel(), _cost(inst, costs, probs).ravel())
    return p


def _worst_cost(inst: Instance, demands, box: BoxParams, omega: float,
                tags) -> LinearProblem:
    """Worst cost, continuous: ``w`` over the first stage plus one recourse
    block ``tags[s]`` per demand, each with the cost cone row
    w - f(x, y^s, z^s; b_nominal) >= omega * ||q b_dev . y^s||."""
    p = LinearProblem()
    w = p.add_vars(["w"], obj=1.0, lb=-np.inf)
    first_stage_rows(p, inst, True)
    cols = second_stage_rows(p, inst, demands, True, tags)
    (S, n), D = cols.shape, len(inst.destinations)
    affine = _cost(inst, [box.b_nominal], [1.0])[0]
    p.add_cones(np.full(S, w),
                Rows(np.full(S, n), cols.ravel(), np.tile(affine, S)),
                Rows(np.ones(S * D), cols[:, n - D:].ravel(),   # y^s
                     np.tile(inst.q * box.b_dev, S)),
                np.full(S, D), np.full(S, float(omega)))
    return p


def build_sp(inst: Instance, scens: ScenarioSet, relax: bool = True) -> LinearProblem:
    """Two-stage stochastic program: first-stage booking plus probability
    weighted recourse blocks, one (y^s, z^s) block per scenario."""
    if scens.costs is None:
        raise ValueError("stochastic program needs cost realizations")
    return _expected_cost(inst, scens.demands, scens.costs, scens.probs,
                          relax, range(scens.S))


def build_ws(inst: Instance, d, b, relax: bool = True) -> LinearProblem:
    """Deterministic problem with full knowledge of one realization."""
    return _expected_cost(inst, [d], [b], [1.0], relax, [None])


def build_ro_box(inst: Instance, box: BoxParams, relax: bool = True) -> LinearProblem:
    """Static robust counterpart, solved as the deterministic problem at the
    box's worst corner (d_nominal + d_dev, b_nominal + b_dev): f rises in
    demand and in cost at every feasible point."""
    return build_ws(inst, box.d_corner, box.b_nominal + box.b_dev, relax)


def build_ro_ell(inst: Instance, box: BoxParams, omega: float) -> LinearProblem:
    """Static robust counterpart with a demand box and a cost ellipsoid of
    radius ``omega``: the worst cost at the box's corner demand. Continuous."""
    return _worst_cost(inst, [box.d_corner], box, omega, [None])


def build_trsocp(inst: Instance, scens: ScenarioSet, box: BoxParams,
                 omega: float) -> LinearProblem:
    """Tractable adjustable counterpart over the hull of the given scenarios:
    the worst cost over the scenario demands under the cost ellipsoid of
    ``box`` and radius ``omega``, one (y^s, z^s) block and cone row per
    scenario. Continuous."""
    return _worst_cost(inst, scens.demands, box, omega, range(scens.S))


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
    cols = second_stage_rows(p, inst, [d], relax, [None], booking=x_star)
    A = len(inst.arcs)   # no x: the booking is fixed
    p.add_costs(cols[0, A:], _cost(inst, [b], [1.0])[0, A:])
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
