import numpy as np
import pytest

import supplyplan as sp
from supplyplan import project_simplex_lsq


def _on_simplex(v, tol=1e-9):
    return np.all(v >= -tol) and abs(v.sum() - 1.0) <= tol


def test_lsq_recovers_interior_point():
    cols = [np.array([0.0, 0.0]), np.array([4.0, 0.0]), np.array([0.0, 4.0])]
    target = 0.25 * cols[0] + 0.5 * cols[1] + 0.25 * cols[2]
    lam, phi = project_simplex_lsq(target, cols)
    assert _on_simplex(lam)
    assert phi <= 1e-12
    assert np.allclose(sum(l * c for l, c in zip(lam, cols)), target, atol=1e-6)


def test_lsq_outside_hull_distance():
    # hull is the segment [1, 3] on the line; distance from 5 is 2
    cols = [np.array([1.0]), np.array([3.0])]
    lam, phi = project_simplex_lsq(np.array([5.0]), cols)
    assert lam[1] == pytest.approx(1.0, abs=1e-9)
    assert phi == pytest.approx(4.0, rel=1e-9)


def test_lsq_single_column():
    lam, phi = project_simplex_lsq(np.array([2.0, 2.0]), [np.array([1.0, 1.0])])
    assert lam.tolist() == [1.0]
    assert phi == pytest.approx(2.0)


def test_lsq_dimension_mismatch():
    with pytest.raises(ValueError):
        project_simplex_lsq(np.array([1.0, 2.0]), [np.array([1.0])])


def test_lsq_satisfies_kkt_on_random_problems():
    rng = np.random.default_rng(31)
    for _ in range(30):
        k, n = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        C = rng.uniform(-5, 5, size=(n, k))
        d = rng.uniform(-6, 6, size=n)
        lam, phi = project_simplex_lsq(d, list(C.T))
        assert _on_simplex(lam)
        assert phi == pytest.approx(float(np.sum((C @ lam - d) ** 2)), rel=1e-9)
        # stationarity: gradient equal on the support, no smaller off-support
        g = 2.0 * C.T @ (C @ lam - d)
        support = lam > 1e-8
        assert g[support].max() - g.min() <= 1e-4 * (1.0 + np.abs(g).max())


def test_lsq_matches_full_grid_on_three_points():
    cols = [np.array([0.0, 0.0]), np.array([2.0, 1.0]), np.array([1.0, 3.0])]
    target = np.array([1.7, 0.4])
    lam, phi = project_simplex_lsq(target, cols)
    # dense grid over the 2-simplex as an independent oracle
    best = np.inf
    for a in np.linspace(0, 1, 201):
        for b in np.linspace(0, 1 - a, max(2, int(201 * (1 - a)) + 1)):
            c = 1.0 - a - b
            pt = a * cols[0] + b * cols[1] + c * cols[2]
            best = min(best, float(np.sum((pt - target) ** 2)))
    assert phi <= best + 1e-4


def test_lsq_returns_a_basic_solution():
    # a point inside the hull of 30 scenario demands in 2 dimensions has many
    # representations; the active-set solve returns one with at most D + 1
    # nonzero weights
    inst = sp.gen_instance(6, 2, seed=0)
    C = sp.gen_scenarios(inst, 30, seed=1).demands
    d = np.array([0.2, 0.5, 0.3]) @ C[[1, 4, 9]]
    lam, phi = project_simplex_lsq(d, list(C))
    assert _on_simplex(lam)
    assert np.count_nonzero(lam) <= C.shape[1] + 1
    assert np.abs(lam @ C - d).max() <= 1e-9
    assert phi <= 1e-12
