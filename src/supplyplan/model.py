"""Supply-network data model, cost functions and constraint constructors.

The planning problem books vehicles of capacity ``q`` on arcs
``(supplier, plant, destination)`` before demand is known (variables ``x``),
then decides how many booked vehicles to actually use (``z``) and how much
product to buy externally in vehicle-equivalents (``y``). An unused booked
vehicle is refunded the fraction ``alpha`` of its transportation cost, so its
net cost is ``(1 - alpha) * q * t``.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .linprog import LinearProblem

ArcKey = tuple[str, str, str]  # (supplier, plant, destination)


@dataclass(frozen=True)
class Supplier:
    id: str
    r: float          # minimum contracted tonnage
    v: float          # maximum production capacity, tons
    plants: tuple[str, ...]


@dataclass(frozen=True)
class Destination:
    id: str
    b_bar: float      # average external buying cost per ton
    g: float          # maximum bookable tonnage
    l0: float = 0.0   # initial inventory


@dataclass(frozen=True)
class Arc:
    supplier: str
    plant: str
    dest: str
    t: float          # transportation cost per ton

    @property
    def key(self) -> ArcKey:
        return (self.supplier, self.plant, self.dest)


@dataclass(frozen=True)
class Instance:
    q: float
    alpha: float
    suppliers: tuple[Supplier, ...]
    destinations: tuple[Destination, ...]
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        numbers = [("q", self.q)]
        numbers += [(f"supplier {s.id}: {f}", getattr(s, f))
                    for s in self.suppliers for f in ("r", "v")]
        numbers += [(f"destination {d.id}: {f}", getattr(d, f))
                    for d in self.destinations for f in ("b_bar", "g", "l0")]
        numbers += [(f"arc {a.key}: t", a.t) for a in self.arcs]
        for what, value in numbers:
            if not math.isfinite(value):
                raise ValueError(f"{what} must be finite, got {value}")
        if self.q <= 0:
            raise ValueError("vehicle capacity q must be > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        sup = {s.id: s for s in self.suppliers}
        if len(sup) != len(self.suppliers):
            raise ValueError("duplicate supplier id")
        dest = {d.id for d in self.destinations}
        if len(dest) != len(self.destinations):
            raise ValueError("duplicate destination id")
        for s in self.suppliers:
            if not 0 <= s.r <= s.v:
                raise ValueError(f"supplier {s.id}: need 0 <= r <= v")
            if len(set(s.plants)) != len(s.plants):
                raise ValueError(f"supplier {s.id}: duplicate plant")
        for d in self.destinations:
            if d.g < 0 or d.l0 < 0:
                raise ValueError(f"destination {d.id}: negative g or l0")
        seen = set()
        for a in self.arcs:
            if a.supplier not in sup:
                raise ValueError(f"arc references unknown supplier {a.supplier}")
            if a.plant not in sup[a.supplier].plants:
                raise ValueError(
                    f"arc references plant {a.plant} not owned by {a.supplier}")
            if a.dest not in dest:
                raise ValueError(f"arc references unknown destination {a.dest}")
            if a.key in seen:
                raise ValueError(f"duplicate arc {a.key}")
            seen.add(a.key)

    # -- lookups -----------------------------------------------------------

    @property
    def dest_ids(self) -> list[str]:
        return [d.id for d in self.destinations]

    def destination(self, dest_id: str) -> Destination:
        for d in self.destinations:
            if d.id == dest_id:
                return d
        raise KeyError(dest_id)

    def arcs_to(self, dest_id: str) -> list[Arc]:
        return [a for a in self.arcs if a.dest == dest_id]

    def arcs_from(self, supplier_id: str) -> list[Arc]:
        return [a for a in self.arcs if a.supplier == supplier_id]

    def b_bar_vector(self) -> np.ndarray:
        return np.array([d.b_bar for d in self.destinations])

    def validate(self) -> list[str]:
        """Soft checks; hard invariants are enforced at construction."""
        warnings = []
        gs = [d.g for d in self.destinations]
        if len(gs) >= 3:
            med = statistics.median(gs)
            for d in self.destinations:
                if med > 0 and d.g > 100 * med:
                    warnings.append(
                        f"destination {d.id}: booking capacity g={d.g} is more "
                        f"than 100x the median ({med}); loaded verbatim")
        for d in self.destinations:
            if d.b_bar <= 0:
                warnings.append(f"destination {d.id}: nonpositive buying cost")
        return warnings

    # -- serialization (single JSON document) ------------------------------

    def to_json(self) -> dict:
        return {
            "meta": {"q": self.q, "alpha": self.alpha},
            "suppliers": [
                {"id": s.id, "r": s.r, "v": s.v, "plants": list(s.plants)}
                for s in self.suppliers],
            "destinations": [
                {"id": d.id, "b_bar": d.b_bar, "g": d.g, "l0": d.l0}
                for d in self.destinations],
            "arcs": [
                {"supplier": a.supplier, "plant": a.plant, "dest": a.dest,
                 "t": a.t}
                for a in self.arcs],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Instance":
        meta = doc["meta"]
        return cls(
            q=float(meta["q"]),
            alpha=float(meta["alpha"]),
            suppliers=tuple(
                Supplier(s["id"], float(s["r"]), float(s["v"]),
                         tuple(s["plants"]))
                for s in doc["suppliers"]),
            destinations=tuple(
                Destination(d["id"], float(d["b_bar"]), float(d["g"]),
                            float(d.get("l0", 0.0)))
                for d in doc["destinations"]),
            arcs=tuple(
                Arc(a["supplier"], a["plant"], a["dest"], float(a["t"]))
                for a in doc["arcs"]),
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Instance":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# -- variable naming -------------------------------------------------------

def x_name(arc: Arc) -> str:
    return f"x[{arc.plant},{arc.supplier},{arc.dest}]"

def z_name(arc: Arc, tag=None) -> str:
    if tag is None:
        return f"z[{arc.plant},{arc.supplier},{arc.dest}]"
    return f"z[{tag},{arc.plant},{arc.supplier},{arc.dest}]"

def y_name(dest_id: str, tag=None) -> str:
    return f"y[{dest_id}]" if tag is None else f"y[{tag},{dest_id}]"


# -- cost functions --------------------------------------------------------

def _as_demand(inst: Instance, d) -> dict[str, float]:
    if isinstance(d, Mapping):
        out = {}
        for dest in inst.destinations:
            if dest.id not in d:
                raise KeyError(f"missing destination {dest.id} in demand")
            out[dest.id] = float(d[dest.id])
        return out
    d = np.asarray(d, dtype=float)
    if d.size != len(inst.destinations):
        raise ValueError("demand vector has wrong dimension")
    return {dest.id: float(v) for dest, v in zip(inst.destinations, d)}


def booking_cost(inst: Instance, x: Mapping[ArcKey, float]) -> float:
    """f1(x) = q * sum t_a * x_a over booked arcs."""
    keys = {a.key: a for a in inst.arcs}
    for k in x:
        if k not in keys:
            raise KeyError(f"unknown arc {k}")
    return inst.q * sum(keys[k].t * v for k, v in x.items())


def recourse_cost(inst: Instance, x: Mapping[ArcKey, float],
                  y: Mapping[str, float], z: Mapping[ArcKey, float],
                  b) -> float:
    """f2 = q * sum_j b_j y_j - alpha * q * sum t_a (x_a - z_a)."""
    bmap = _as_demand(inst, b)
    keys = {a.key for a in inst.arcs}
    for k in {**x, **z}:
        if k not in keys:
            raise KeyError(f"unknown arc {k}")
        if k in z and z[k] > x.get(k, 0.0) + 1e-9:
            raise ValueError(f"z > x on arc {k}")
    buy = inst.q * sum(bmap[j] * v for j, v in y.items())
    refund = inst.alpha * inst.q * sum(  # in arc order, not hash order
        a.t * (x.get(a.key, 0.0) - z.get(a.key, 0.0)) for a in inst.arcs)
    return buy - refund


# -- constraint rows -------------------------------------------------------

def first_stage_rows(p: LinearProblem, inst: Instance, relax: bool):
    """Add the booking variables and the per-destination booking cap (C1)
    to ``p``."""
    for a in inst.arcs:
        p.add_var(x_name(a), integer=not relax)
    for dest in inst.destinations:
        coeffs = {x_name(a): inst.q for a in inst.arcs_to(dest.id)}
        if coeffs:
            p.add_row(coeffs, "<=", dest.g)


def second_stage_rows(p: LinearProblem, inst: Instance, d, relax: bool,
                      tag=None, booking: Mapping[ArcKey, float] | None = None):
    """Add usage/purchase variables with supplier capacity (C2), demand cover
    (C3) and the z <= x coupling for one demand realization to ``p``.

    With a fixed ``booking`` the coupling is the bound z <= x* instead of a
    row, and no booking variable is referenced. The C2 lower row is omitted
    when r_k = 0 (vacuous for nonnegative z).
    """
    demand = _as_demand(inst, d)
    for a in inst.arcs:
        cap = (None if booking is None
               else max(0.0, float(booking.get(a.key, 0.0))))
        p.add_var(z_name(a, tag), ub=cap, integer=not relax)
    for dest in inst.destinations:
        p.add_var(y_name(dest.id, tag))
    for s in inst.suppliers:
        coeffs = {z_name(a, tag): inst.q for a in inst.arcs_from(s.id)}
        if not coeffs:
            continue
        p.add_row(coeffs, "<=", s.v)
        if s.r > 0:
            p.add_row(coeffs, ">=", s.r)
    for dest in inst.destinations:
        coeffs = {z_name(a, tag): inst.q for a in inst.arcs_to(dest.id)}
        coeffs[y_name(dest.id, tag)] = inst.q
        p.add_row(coeffs, ">=", demand[dest.id] - dest.l0)
    if booking is None:
        for a in inst.arcs:
            p.add_row({z_name(a, tag): 1.0, x_name(a): -1.0}, "<=", 0.0)
