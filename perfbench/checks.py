"""Correctness gate run after the timed loop; its failures feed ``failed``.

Every seed is held to the invariants:

- wait-and-see is a floor: ws <= every finite method cell of its row;
- m5 is finite exactly when the realization lies in the scenario hull; each
  workload knows this from how it builds its realizations;
- integer cells are no lower than the relaxed wait-and-see of their row;
- a Monte Carlo aggregate is no lower than the wait-and-see aggregate over
  the same draws.

When a stored reference exists for the seed, the m1-m4 and ws cells (and the
Monte Carlo aggregates) must match it to ``REL_TOL`` relative with the same
``inf`` pattern. m5 is held to the invariants only.

A cell that is ``inf`` where a value is due (a node, cut or iteration limit,
an infeasible recourse) is a failed op but not an error; a cell that breaks a
check is both.
"""

from __future__ import annotations

import math

REL_TOL = 1e-6
REFERENCE_COLUMNS = ("m1", "m2", "m3", "m4", "ws")


def _tol(v: float) -> float:
    return REL_TOL * max(1.0, abs(v))


def _same(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= _tol(b)


def check_rows(rows, reference=None, relaxed_ws=None):
    """Check report rows; returns ``(failed cells, error messages)``.

    Each row is ``{"tau", "cells", "in_hull"}``; ``in_hull`` is the row's
    known flag (True/False) when it has an m5 cell. ``reference`` is the stored list
    of rows for the same op, ``relaxed_ws`` the relaxed wait-and-see value of
    each row for integer runs.
    """
    failed, errors = 0, []
    for k, row in enumerate(rows):
        cells = row["cells"]
        ws = cells["ws"]
        ref = reference[k]["cells"] if reference is not None else None
        for col, v in cells.items():
            problem = None
            if col == "m5":
                if math.isfinite(v) != row["in_hull"]:
                    problem = (f"finite={math.isfinite(v)} but "
                               f"in_hull={row['in_hull']}")
            elif ref is not None and col in REFERENCE_COLUMNS \
                    and not _same(v, ref[col]):
                problem = f"{v!r} != reference {ref[col]!r}"
            if problem is None and math.isfinite(v):
                if col != "ws" and math.isfinite(ws) and v < ws - _tol(ws):
                    problem = f"{v!r} below ws {ws!r}"
                elif relaxed_ws is not None \
                        and v < relaxed_ws[k] - _tol(relaxed_ws[k]):
                    problem = f"{v!r} below relaxed ws {relaxed_ws[k]!r}"
            if problem is not None:
                errors.append(f"tau={row['tau']} {col}: {problem}")
                failed += 1
            elif col != "m5" and math.isinf(v):
                failed += 1
    return failed, errors


def check_aggregates(results, cells_per_method, ws_floor, reference=None):
    """Check Monte Carlo aggregates; returns ``(failed draws, errors)``."""
    failed, errors = 0, []
    for m, v in results.items():
        problem = None
        if reference is not None and not _same(v, reference[m]):
            problem = f"{v!r} != reference {reference[m]!r}"
        elif math.isfinite(v) and v < ws_floor - _tol(ws_floor):
            problem = f"{v!r} below ws aggregate {ws_floor!r}"
        if problem is not None:
            errors.append(f"{m}: {problem}")
            failed += cells_per_method
        elif math.isinf(v):
            failed += cells_per_method
    return failed, errors
