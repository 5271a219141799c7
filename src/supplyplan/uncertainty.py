"""Scenario ingestion, uncertainty-set estimation and seeded sampling."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import Stream


@dataclass
class ScenarioSet:
    """Ordered realizations of demand (and optionally buying cost) vectors."""

    demands: np.ndarray            # S x D, tons
    costs: np.ndarray | None = None  # S x D, cost per ton
    probs: np.ndarray | None = None  # length S; uniform when omitted
    dest_ids: list[str] | None = None

    def __post_init__(self):
        self.demands = np.atleast_2d(np.asarray(self.demands, dtype=float))
        if self.demands.size == 0:
            raise ValueError("demand matrix is empty")
        if self.costs is not None:
            self.costs = np.atleast_2d(np.asarray(self.costs, dtype=float))
            if self.costs.shape != self.demands.shape:
                raise ValueError("cost matrix shape differs from demand matrix")
            if np.any(self.costs <= 0):
                raise ValueError("costs must be positive")
        if self.probs is None:
            self.probs = np.full(self.S, 1.0 / self.S)
        else:
            self.probs = np.asarray(self.probs, dtype=float)
            if self.probs.size != self.S or np.any(self.probs < 0):
                raise ValueError("invalid probability vector")
            if abs(self.probs.sum() - 1.0) > 1e-9:
                raise ValueError("probabilities must sum to 1")
        if np.any(self.demands < 0):
            raise ValueError("demands must be nonnegative")

    @property
    def S(self) -> int:
        return self.demands.shape[0]

    @property
    def D(self) -> int:
        return self.demands.shape[1]

    def head(self, tau: int) -> "ScenarioSet":
        """First ``tau`` scenarios, re-equiprobable."""
        if not 1 <= tau <= self.S:
            raise ValueError("tau out of range")
        return ScenarioSet(
            demands=self.demands[:tau].copy(),
            costs=None if self.costs is None else self.costs[:tau].copy(),
            dest_ids=self.dest_ids,
        )

    def with_costs(self, costs: np.ndarray) -> "ScenarioSet":
        return ScenarioSet(self.demands.copy(), np.asarray(costs, float),
                           dest_ids=self.dest_ids)


@dataclass
class BoxParams:
    """Nominal vectors and componentwise max-absolute deviations."""

    d_nominal: np.ndarray
    d_dev: np.ndarray
    b_nominal: np.ndarray
    b_dev: np.ndarray

    def __post_init__(self):
        for name in ("d_nominal", "d_dev", "b_nominal", "b_dev"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.d_dev < 0) or np.any(self.b_dev < 0):
            raise ValueError("deviations must be nonnegative")

    @property
    def d_corner(self) -> np.ndarray:
        return self.d_nominal + self.d_dev


def _read_csv_matrix(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV")
        header = [h.strip() for h in header]
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: ragged row at line {i}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}: non-numeric cell at line {i}") from exc
    if not rows:
        raise ValueError(f"{path}: no scenario rows")
    return header, np.array(rows)


def load_scenarios(demand_csv, cost_csv=None, dest_ids=None) -> ScenarioSet:
    """Read scenario CSVs (header = destination ids, one row per scenario,
    chronological order). When ``dest_ids`` is given, columns are checked and
    reordered to that order."""
    header, demands = _read_csv_matrix(demand_csv)
    costs = None
    if cost_csv is not None:
        cheader, costs = _read_csv_matrix(cost_csv)
        if cheader != header:
            raise ValueError("demand and cost CSV headers differ")
        if costs.shape[0] != demands.shape[0]:
            raise ValueError("demand and cost CSV row counts differ")
    if dest_ids is not None:
        if sorted(header) != sorted(dest_ids):
            unknown = set(header) - set(dest_ids)
            raise ValueError(
                f"scenario header does not match instance destinations"
                f"{': unknown ' + ', '.join(sorted(unknown)) if unknown else ''}")
        order = [header.index(d) for d in dest_ids]
        demands = demands[:, order]
        if costs is not None:
            costs = costs[:, order]
        header = list(dest_ids)
    return ScenarioSet(demands, costs, dest_ids=header)


def save_scenarios(path, dest_ids, matrix):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dest_ids)
        for row in np.atleast_2d(matrix):
            writer.writerow([repr(float(v)) for v in row])


def sample_costs(b_bar, sigma: float, S: int, seed: int) -> np.ndarray:
    """S x D cost matrix, entries uniform in [b_j (1 - sigma), b_j (1 + sigma)]."""
    b_bar = np.asarray(b_bar, dtype=float)
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    stream = Stream(seed)
    return stream.uniform_matrix(b_bar * (1.0 - sigma), b_bar * (1.0 + sigma), S)


def sample_demands_mc(d_bar, gamma, N: int, seed: int) -> np.ndarray:
    """N x D demand matrix, entries uniform in [d_j (1 - g_j), d_j (1 + g_j)],
    clipped at zero (with a warning) when g_j > 1."""
    d_bar = np.asarray(d_bar, dtype=float)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), d_bar.shape)
    if np.any(gamma < 0):
        raise ValueError("gamma must be nonnegative")
    if np.any(gamma > 1):
        warnings.warn("gamma > 1 yields a negative lower bound; clipping at 0",
                      stacklevel=2)
    stream = Stream(seed)
    lo = np.maximum(d_bar * (1.0 - gamma), 0.0)
    hi = d_bar * (1.0 + gamma)
    return stream.uniform_matrix(lo, hi, N)


def estimate_box(scens: ScenarioSet, tau: int) -> BoxParams:
    """Componentwise mean and max-absolute deviation over the first ``tau``
    scenarios (expanding-window box estimate)."""
    if not 1 <= tau <= scens.S:
        raise ValueError("tau out of range")
    if scens.costs is None:
        raise ValueError("scenario set carries no cost realizations")
    d = scens.demands[:tau]
    b = scens.costs[:tau]
    d_bar = d.mean(axis=0)
    b_bar = b.mean(axis=0)
    return BoxParams(
        d_nominal=d_bar,
        d_dev=np.abs(d - d_bar).max(axis=0),
        b_nominal=b_bar,
        b_dev=np.abs(b - b_bar).max(axis=0),
    )


def omega_for_epsilon(eps: float) -> float:
    """Radius with exp(-omega^2 / 2) = eps, i.e. omega = sqrt(ln eps^-2)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return math.sqrt(-2.0 * math.log(eps))


def demand_gamma(scens: ScenarioSet, tau: int | None = None,
                 relative: bool = True) -> np.ndarray:
    """Upward demand deviation max_s d_j^s - mean_j, per destination.

    Returned relative to the mean by default (dimensionally consistent with
    the multiplicative sampling interval); set ``relative=False`` for the raw
    absolute value.
    """
    tau = scens.S if tau is None else tau
    d = scens.demands[:tau]
    d_bar = d.mean(axis=0)
    g = d.max(axis=0) - d_bar
    if not relative:
        return g
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(d_bar > 0, g / np.where(d_bar > 0, d_bar, 1.0), 0.0)
    return rel
