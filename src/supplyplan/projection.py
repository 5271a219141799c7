"""Least-squares projection onto the convex hull of a set of vectors.

Minimizes ``||C lam - d||^2`` over the unit simplex, where the columns of
``C`` are the vectors and ``d`` the target, by one nonnegative least-squares
solve (Lawson & Hanson's active-set method, ``scipy.optimize.nnls``).

The reduction is exact. With ``P = C - d 1^T`` solve

    min_{mu >= 0} ||[P; 1^T] mu - [0; 1]||^2.

Write ``mu = s * lam`` with ``lam`` on the simplex; the value is
``s^2 ||P lam||^2 + (s - 1)^2``. For a fixed ``lam`` it is smallest at
``s = 1 / (1 + ||P lam||^2)``, where it equals
``||P lam||^2 / (1 + ||P lam||^2)``, increasing in ``||P lam||^2``. Since
``P lam = C lam - d`` on the simplex, ``lam* = mu* / sum(mu*)`` is a nearest
point's weights and ``phi = ||C lam* - d||^2``. Where the nearest point has
several representations (a target inside the hull of more than ``D + 1``
vectors), the active set returns a basic one, with at most ``D + 1`` nonzero
weights.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls


def project_simplex_lsq(target, columns, tol: float = 1e-10):
    """Return ``(lam, phi)`` with ``lam`` on the simplex and ``phi`` the squared
    distance from ``target`` to the combination ``sum lam_s columns[s]``.

    The active-set solve is exact to rounding; ``tol`` is accepted for
    callers that pass it and is not used. An iteration cap of the solve
    raises its ``RuntimeError``.
    """
    d = np.asarray(target, dtype=float)
    C = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    if C.shape[0] != d.size:
        raise ValueError("columns must have the same dimension as target")
    A = np.vstack([C - d[:, None], np.ones(C.shape[1])])
    rhs = np.zeros(A.shape[0])
    rhs[-1] = 1.0
    mu, _ = nnls(A, rhs)
    lam = mu / mu.sum()
    r = C @ lam - d
    return lam, float(r @ r)
