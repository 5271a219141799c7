"""Problem builders for the five planning methods, wait-and-see and recourse.

Methods:
  M1  stochastic program with recourse (scenario-weighted expectation)
  M2  static robust counterpart, box uncertainty on demand and cost
  M3  static robust counterpart, demand box plus cost ellipsoid (one cone row)
  M4  tractable adjustable counterpart over the scenario hull (cone row per
      scenario)
  M5  M4 plus hull projection of the realized demand to recover adjustables
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cone import ConeRow
from .linprog import LinearProblem, Solution
from .model import (ArcKey, Instance, booking_cost, first_stage_rows,
                    second_stage_rows, x_name, y_name, z_name)
from .uncertainty import BoxParams, EllipseParams, ScenarioSet, estimate_box

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


def _objective_coeffs(p: LinearProblem, inst: Instance, b, weight: float = 1.0,
                      tag=None):
    """Add the recourse part of f (buying plus cancellation refund on z) for
    one scenario block, scaled by ``weight``."""
    b = np.asarray(b, dtype=float)
    for a in inst.arcs:
        p.add_obj(z_name(a, tag), weight * inst.alpha * inst.q * a.t)
    for dest, bj in zip(inst.destinations, b):
        p.add_obj(y_name(dest.id, tag), weight * inst.q * float(bj))


def _first_stage_obj(p: LinearProblem, inst: Instance, prob_total: float = 1.0):
    # f1 minus the refund on the full booking: q t - alpha q t per vehicle
    for a in inst.arcs:
        p.add_obj(x_name(a), inst.q * a.t * (1.0 - inst.alpha * prob_total))


def build_sp(inst: Instance, scens: ScenarioSet, relax: bool = True) -> LinearProblem:
    """Two-stage stochastic program: first-stage booking plus probability
    weighted recourse blocks, one (y^s, z^s) block per scenario."""
    if scens.S < 1:
        raise ValueError("scenario set is empty")
    if scens.costs is None:
        raise ValueError("stochastic program needs cost realizations")
    p = LinearProblem()
    first_stage_rows(inst, relax).apply(p)
    for s in range(scens.S):
        second_stage_rows(inst, scens.demands[s], relax, tag=s).apply(p)
        _objective_coeffs(p, inst, scens.costs[s], weight=float(scens.probs[s]),
                          tag=s)
    _first_stage_obj(p, inst, prob_total=float(scens.probs.sum()))
    return p


def build_ws(inst: Instance, d, b, relax: bool = True) -> LinearProblem:
    """Deterministic problem with full knowledge of one realization."""
    p = LinearProblem()
    first_stage_rows(inst, relax).apply(p)
    second_stage_rows(inst, d, relax).apply(p)
    _first_stage_obj(p, inst)
    _objective_coeffs(p, inst, b)
    return p


def _worst_case_row(p: LinearProblem, inst: Instance, b_nominal) -> dict[str, float]:
    """Coefficients of w - f(x, y, z; b_nominal) as a sparse map."""
    coeffs = {"w": 1.0}
    for a in inst.arcs:
        coeffs[x_name(a)] = -inst.q * a.t * (1.0 - inst.alpha)
        coeffs[z_name(a)] = -inst.alpha * inst.q * a.t
    for dest, bj in zip(inst.destinations, np.asarray(b_nominal, float)):
        coeffs[y_name(dest.id)] = -inst.q * float(bj)
    return coeffs


def build_ro_box(inst: Instance, box: BoxParams, relax: bool = True) -> LinearProblem:
    """Static robust counterpart: minimize the worst cost w subject to
    w - f(x,y,z; b_nominal) >= sum_j q * b_dev_j * y_j, with demand at the
    upper box corner."""
    p = LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    first_stage_rows(inst, relax).apply(p)
    second_stage_rows(inst, box.d_corner, relax).apply(p)
    coeffs = _worst_case_row(p, inst, box.b_nominal)
    for dest, dev in zip(inst.destinations, box.b_dev):
        coeffs[y_name(dest.id)] -= inst.q * float(dev)
    p.add_row(coeffs, ">=", 0.0)
    return p


def build_ro_ell(inst: Instance, box: BoxParams, ell: EllipseParams,
                 relax: bool = True) -> tuple[LinearProblem, ConeRow]:
    """Static robust counterpart with a cost ellipsoid: the worst-cost row
    becomes the cone row w - f(x,y,z; b_nominal) >= omega * ||q b_dev . y||.
    Continuous only."""
    if not relax:
        raise ValueError("the cone formulation is solved without integrality")
    p = LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    first_stage_rows(inst, True).apply(p)
    second_stage_rows(inst, box.d_corner, True).apply(p)
    affine = _worst_case_row(p, inst, box.b_nominal)
    del affine["w"]
    affine = {k: -v for k, v in affine.items()}  # f(x,y,z; b_nominal)
    b_dev = box.b_dev if ell.b_dev is None else ell.b_dev
    terms = [{y_name(dest.id): inst.q * float(dev)}
             for dest, dev in zip(inst.destinations, b_dev)]
    cone = ConeRow("w", affine, terms, scale=ell.omega)
    return p, cone


def build_trsocp(inst: Instance, scens: ScenarioSet,
                 omega: float) -> tuple[LinearProblem, list[ConeRow]]:
    """Tractable adjustable counterpart over the hull of the given scenarios:
    shared booking x, one (y^s, z^s) block and one cone row per scenario,
    demand of block s fixed at the scenario realization. Continuous."""
    if scens.S < 1:
        raise ValueError("scenario set is empty")
    box = estimate_box(scens, scens.S)
    p = LinearProblem()
    p.add_var("w", obj=1.0, lb=None)
    first_stage_rows(inst, True).apply(p)
    cones = []
    for s in range(scens.S):
        second_stage_rows(inst, scens.demands[s], True, tag=s).apply(p)
        affine: dict[str, float] = {}
        for a in inst.arcs:
            affine[x_name(a)] = inst.q * a.t * (1.0 - inst.alpha)
            affine[z_name(a, s)] = inst.alpha * inst.q * a.t
        for dest, bj in zip(inst.destinations, box.b_nominal):
            affine[y_name(dest.id, s)] = inst.q * float(bj)
        terms = [{y_name(dest.id, s): inst.q * float(dev)}
                 for dest, dev in zip(inst.destinations, box.b_dev)]
        cones.append(ConeRow("w", affine, terms, scale=float(omega)))
    return p, cones


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
    for a in inst.arcs:
        cap = max(0.0, float(x_star.get(a.key, 0.0)))
        p.add_var(z_name(a), obj=inst.alpha * inst.q * a.t, lb=0.0, ub=cap,
                  integer=not relax)
    bundle_rows = second_stage_rows(inst, d, relax)
    for dest in inst.destinations:
        p.add_var(y_name(dest.id), obj=inst.q * float(
            (b[dest.id] if isinstance(b, Mapping)
             else np.asarray(b, float)[inst.dest_ids.index(dest.id)])))
    for coeffs, rel, rhs in bundle_rows.rows:
        if any(n.startswith("x[") for n in coeffs):
            continue  # z <= x coupling is handled via bounds
        p.add_row(coeffs, rel, rhs)
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
