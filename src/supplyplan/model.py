"""Supply-network data model, cost functions and constraint constructors.

The planning problem books vehicles of capacity ``q`` on arcs
``(supplier, plant, destination)`` before demand is known (variables ``x``),
then decides how many booked vehicles to actually use (``z``) and how much
product to buy externally in vehicle-equivalents (``y``). An unused booked
vehicle is refunded the fraction ``alpha`` of its transportation cost, so its
net cost is ``(1 - alpha) * q * t``.

The rows of the first stage and of one recourse block are written once per
instance, row by row (``_template``); the builders copy them in index form,
the block once per scenario with its own columns and demand.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .linprog import LinearProblem, Rows

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

    def arcs_to(self, dest_id: str) -> list[Arc]:
        return [a for a in self.arcs if a.dest == dest_id]

    def arcs_from(self, supplier_id: str) -> list[Arc]:
        return [a for a in self.arcs if a.supplier == supplier_id]

    @cached_property
    def _template(self):
        """The template the builders copy (``_template``), made once."""
        return _template(self)

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

def _prefix(kind: str, tag) -> str:
    return f"{kind}[" if tag is None else f"{kind}[{tag},"

def x_name(arc: Arc) -> str:
    return f"x[{arc.plant},{arc.supplier},{arc.dest}]"

def z_name(arc: Arc, tag=None) -> str:
    return _prefix("z", tag) + f"{arc.plant},{arc.supplier},{arc.dest}]"

def y_name(dest_id: str, tag=None) -> str:
    return _prefix("y", tag) + f"{dest_id}]"


# -- cost functions --------------------------------------------------------

def _as_draws(inst: Instance, ds) -> np.ndarray:
    """Demand or cost draws as an S x D array in destination order."""
    ds = np.asarray(ds, dtype=float)
    if ds.ndim != 2 or ds.shape[1] != len(inst.destinations):
        raise ValueError("demand or cost vector has wrong dimension")
    return ds


def _as_demand(inst: Instance, d) -> list[float]:
    """A demand or cost draw as floats in the instance's destination
    order."""
    return _as_draws(inst, [d])[0].tolist()


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
    bmap = dict(zip(inst.dest_ids, _as_demand(inst, b)))
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

def _template(inst: Instance) -> tuple[LinearProblem, int]:
    """The first stage and one untagged recourse block, written row by row:
    the booking cap (C1) per destination with arcs, then supplier capacity
    (C2, its minimum right after it when r > 0), demand cover (C3) at zero
    demand and the z <= x coupling, z written first. Returns the problem,
    which the builders only read, and the number of C1 rows."""
    p = LinearProblem()
    p.add_vars([x_name(a) for a in inst.arcs])
    rows = []   # (coeffs, lo, hi)
    for dest in inst.destinations:
        coeffs = {x_name(a): inst.q for a in inst.arcs_to(dest.id)}
        if coeffs:
            rows.append((coeffs, -np.inf, dest.g))
    c1_rows = len(rows)
    p.add_vars([z_name(a) for a in inst.arcs]
               + [y_name(dest.id) for dest in inst.destinations])
    for s in inst.suppliers:
        coeffs = {z_name(a): inst.q for a in inst.arcs_from(s.id)}
        if coeffs:
            rows.append((coeffs, -np.inf, s.v))
            if s.r > 0:
                rows.append((coeffs, s.r, np.inf))
    for dest in inst.destinations:
        coeffs = {z_name(a): inst.q for a in inst.arcs_to(dest.id)}
        coeffs[y_name(dest.id)] = inst.q
        rows.append((coeffs, -dest.l0, np.inf))
    rows += [({z_name(a): 1.0, x_name(a): -1.0}, -np.inf, 0.0)
             for a in inst.arcs]
    p.add_rows(p.indexed([c for c, _, _ in rows]),
               [lo for _, lo, _ in rows], [hi for _, _, hi in rows])
    return p, c1_rows


def first_stage_rows(p: LinearProblem, inst: Instance, relax: bool):
    """Add the booking variables and the per-destination booking cap (C1)
    to ``p``, copied from the instance's template."""
    t, c1_rows = inst._template
    x0 = p.add_vars(t.var_names[:len(inst.arcs)], integer=not relax)
    c1 = t.A[:c1_rows]
    p.add_rows(Rows(c1.lens, c1.cols + x0, c1.vals), t.lo[:c1_rows],
               t.hi[:c1_rows])


def second_stage_rows(p: LinearProblem, inst: Instance, demands, relax: bool,
                      tags, booking: Mapping[ArcKey, float] | None = None):
    """Add one recourse block per demand vector ``demands[s]``, tagged
    ``tags[s]``, to ``p``: usage and purchase variables with supplier
    capacity (C2), demand cover (C3) and the z <= x coupling, each the
    template's block with its columns. Returns those columns, one row per
    block: the template's x, z and y, in ``p``.

    With a fixed ``booking`` the coupling is the bound z <= x* instead of a
    row, and no booking variable is referenced (x's columns read 0). The C2
    lower row is omitted when r_k = 0 (vacuous for nonnegative z).
    """
    demands = _as_draws(inst, demands)
    if len(tags) != len(demands):
        raise ValueError("need one tag per demand vector")
    t, c1_rows = inst._template
    A, D, S = len(inst.arcs), len(inst.destinations), len(tags)
    labels = [name[2:] for name in t.var_names[A:]]   # after "z[" or "y["
    names = []
    for tag in tags:
        z, y = _prefix("z", tag), _prefix("y", tag)
        names += [z + v for v in labels[:A]] + [y + v for v in labels[A:]]
    ub = t.ub[A:].copy()
    if booking is not None:
        cap = np.array([float(booking.get(a.key, 0.0)) for a in inst.arcs])
        ub[:A] = np.where(cap > 0.0, cap, 0.0)
    first = p.add_vars(names, ub=np.tile(ub, S),
                       integer=np.tile(np.arange(A + D) < A, S) & (not relax))
    x = (np.zeros(A, dtype=int) if booking is not None
         else p.columns(t.var_names[:A]))
    cols = np.hstack([np.broadcast_to(x, (S, A)), first + np.arange(A + D)
                      + (A + D) * np.arange(S)[:, None]])
    m = t.lo.size   # the template's rows: C1, C2, C3 (D), coupling (A)
    rows = slice(c1_rows, m if booking is None else m - A)
    lo = np.tile(t.lo[rows], (S, 1))
    c3 = m - A - D - c1_rows   # the block's first C3 row
    lo[:, c3:c3 + D] += demands   # -l0 + d
    block = t.A[rows]
    p.add_rows(Rows(np.tile(block.lens, S), cols[:, block.cols].ravel(),
                    np.tile(block.vals, S)), lo.ravel(), np.tile(t.hi[rows], S))
    return cols
