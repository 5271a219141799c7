import math

import numpy as np
import pytest

import supplyplan as sp
from supplyplan.uncertainty import (cost_band, demand_gamma, estimate_box,
                                    load_scenarios, omega_for_epsilon,
                                    sample_costs, save_scenarios)


def test_scenario_set_validation():
    with pytest.raises(ValueError):
        sp.ScenarioSet(np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        sp.ScenarioSet(np.array([[1.0]]), costs=np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        sp.ScenarioSet(np.array([[1.0]]), costs=np.array([[0.0]]))
    with pytest.raises(ValueError):
        sp.ScenarioSet(np.array([[1.0], [2.0]]), probs=[0.7, 0.7])
    with pytest.raises(ValueError):
        sp.ScenarioSet(np.array([[1.0], [2.0]]), probs=[1.5, -0.5])
    for empty in ([], np.zeros((0, 2)), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="empty"):
            sp.ScenarioSet(empty)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="demands must be finite"):
            sp.ScenarioSet(np.array([[1.0, bad]]))
        with pytest.raises(ValueError, match="costs must be finite"):
            sp.ScenarioSet(np.array([[1.0]]), costs=np.array([[bad]]))
        with pytest.raises(ValueError, match="probabilities must be finite"):
            sp.ScenarioSet(np.array([[1.0], [2.0]]), probs=[bad, 0.5])


def test_uniform_probabilities_by_default():
    s = sp.ScenarioSet(np.arange(8.0).reshape(4, 2))
    assert np.allclose(s.probs, 0.25)
    assert s.S == 4 and s.D == 2


def test_head_is_equiprobable_prefix():
    s = sp.ScenarioSet(np.arange(8.0).reshape(4, 2),
                       probs=[0.1, 0.2, 0.3, 0.4])
    h = s.head(2)
    assert np.array_equal(h.demands, s.demands[:2])
    assert np.allclose(h.probs, 0.5)
    with pytest.raises(ValueError):
        s.head(0)
    with pytest.raises(ValueError):
        s.head(5)


def test_with_costs_keeps_the_probabilities():
    s = sp.ScenarioSet([[1.0], [2.0]], probs=[0.3, 0.7])
    priced = s.with_costs([[5.0], [6.0]])
    assert priced.probs.tolist() == [0.3, 0.7]
    assert priced.costs.tolist() == [[5.0], [6.0]]


def test_csv_round_trip(tmp_path):
    demands = np.array([[30.5, 20.25], [50.125, 10.0]])
    costs = np.array([[8.0, 9.5], [7.75, 9.0]])
    save_scenarios(tmp_path / "d.csv", ["d1", "d2"], demands)
    save_scenarios(tmp_path / "b.csv", ["d1", "d2"], costs)
    s = load_scenarios(tmp_path / "d.csv", tmp_path / "b.csv")
    assert np.array_equal(s.demands, demands)
    assert np.array_equal(s.costs, costs)
    assert s.dest_ids == ["d1", "d2"]
    d_csv = tmp_path / "d.csv"
    d_csv.write_text(d_csv.read_text().replace("\n", "\n\n"))  # blank lines
    assert np.array_equal(load_scenarios(d_csv).demands, demands)


def test_csv_column_reorder(tmp_path):
    save_scenarios(tmp_path / "d.csv", ["b", "a"], np.array([[1.0, 2.0]]))
    s = load_scenarios(tmp_path / "d.csv", dest_ids=["a", "b"])
    assert np.array_equal(s.demands, [[2.0, 1.0]])
    assert s.dest_ids == ["a", "b"]


def test_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="ragged"):
        load_scenarios(p)
    p.write_text("a,b\n1,x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_scenarios(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_scenarios(p)
    p.write_text("a,b\n")
    with pytest.raises(ValueError, match="no scenario rows"):
        load_scenarios(p)
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="destinations"):
        load_scenarios(p, dest_ids=["a", "c"])


def test_header_mismatch_between_files(tmp_path):
    save_scenarios(tmp_path / "d.csv", ["a"], np.array([[1.0]]))
    save_scenarios(tmp_path / "b.csv", ["z"], np.array([[1.0]]))
    with pytest.raises(ValueError, match="headers differ"):
        load_scenarios(tmp_path / "d.csv", tmp_path / "b.csv")
    save_scenarios(tmp_path / "b.csv", ["a"], np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError, match="row counts differ"):
        load_scenarios(tmp_path / "d.csv", tmp_path / "b.csv")


def test_estimate_box_covers_prefix_tightly():
    demands = np.array([[10.0, 100.0], [20.0, 140.0], [60.0, 120.0]])
    costs = np.array([[5.0, 9.0], [7.0, 8.0], [6.0, 7.0]])
    s = sp.ScenarioSet(demands, costs)
    box = estimate_box(s)
    assert np.allclose(box.d_nominal, [30.0, 120.0])
    assert np.allclose(box.d_dev, [30.0, 20.0])  # tight: achieved by a row
    assert np.allclose(box.b_nominal, [6.0, 8.0])
    assert np.allclose(box.b_dev, [1.0, 1.0])
    assert np.allclose(box.d_corner, [60.0, 140.0])
    # every prefix point inside the box
    assert np.all(np.abs(demands - box.d_nominal) <= box.d_dev + 1e-12)
    # prefix restriction ignores the later rows
    box2 = estimate_box(s.head(2))
    assert np.allclose(box2.d_nominal, [15.0, 120.0])


def test_estimate_box_errors():
    with pytest.raises(ValueError):
        estimate_box(sp.ScenarioSet(np.array([[1.0]])))


def test_box_params_validation(tight, tight_scens):
    with pytest.raises(ValueError):
        sp.BoxParams([1.0], [-0.1], [1.0], [0.0])
    box = estimate_box(tight_scens)
    with pytest.raises(ValueError):
        sp.build_ro_ell(tight, box, -1.0)  # negative radius


def test_box_params_need_four_finite_vectors_of_one_length():
    nominal = dict(d_nominal=[60.0, 70.0], d_dev=[5.0, 6.0],
                   b_nominal=[7.0, 9.0], b_dev=[1.0, 0.5])
    for name, bad in (("b_dev", [1.0]), ("b_dev", [1.0, 0.5, 0.2]),
                      ("d_nominal", [[60.0, 70.0]]), ("d_nominal", 60.0)):
        with pytest.raises(ValueError, match="one length"):
            sp.BoxParams(**{**nominal, name: bad})
    for name, bad in (("d_nominal", [math.nan, 70.0]),
                      ("d_dev", [math.inf, 6.0]), ("b_nominal", [7.0, -math.inf]),
                      ("b_dev", [1.0, math.nan])):
        with pytest.raises(ValueError, match="finite"):
            sp.BoxParams(**{**nominal, name: bad})


def test_builders_reject_a_box_of_another_length(tight, tight_scens):
    """A box of three destinations on the two-destination instance: every
    builder that reads a box raises instead of broadcasting or truncating."""
    box = sp.BoxParams([60.0, 70.0, 80.0], [5.0, 6.0, 7.0], [7.0, 9.0, 8.0],
                       [1.0, 0.5, 0.2])
    for build in (lambda: sp.build_ro_box(tight, box),
                  lambda: sp.build_ro_ell(tight, box, 2.75),
                  lambda: sp.build_trsocp(tight, tight_scens, box, 2.75)):
        with pytest.raises(ValueError, match="wrong dimension"):
            build()


def test_scenario_set_needs_one_dest_id_per_column():
    with pytest.raises(ValueError, match="dest_ids"):
        sp.ScenarioSet([[1.0, 2.0]], [[1.0, 2.0]], dest_ids=["a"])
    with pytest.raises(ValueError, match="dest_ids"):
        sp.ScenarioSet([[1.0, 2.0]], dest_ids=["a", "b", "c"])
    assert sp.ScenarioSet([[1.0, 2.0]], dest_ids=["a", "b"]).D == 2


def test_omega_epsilon_round_trip():
    for eps in (0.5, 0.1, 0.023, 1e-4):
        omega = omega_for_epsilon(eps)
        assert math.exp(-omega ** 2 / 2.0) == pytest.approx(eps, rel=1e-12)
    assert omega_for_epsilon(math.exp(-2.75 ** 2 / 2)) == pytest.approx(2.75)
    with pytest.raises(ValueError):
        omega_for_epsilon(0.0)
    with pytest.raises(ValueError):
        omega_for_epsilon(1.0)


def test_sample_costs_band_and_determinism():
    b_bar = np.array([50.0, 70.0])
    a = sample_costs(b_bar, 0.2, 100, seed=9)
    b = sample_costs(b_bar, 0.2, 100, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (100, 2)
    assert np.all(a >= b_bar * 0.8) and np.all(a < b_bar * 1.2)
    with pytest.raises(ValueError):
        sample_costs(b_bar, 1.0, 1, seed=0)


def test_gen_scenarios_builds_the_cost_band():
    inst = sp.gen_instance(3, 2, seed=0)
    costs = sp.gen_scenarios(inst, 50, seed=1, sigma=0.3).costs
    lo, hi = cost_band(inst.b_bar_vector(), 0.3)
    assert np.all(costs >= lo) and np.all(costs < hi)
    for sigma in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"sigma must lie in \[0, 1\)"):
            sp.gen_scenarios(inst, 3, seed=1, sigma=sigma)


def test_demand_gamma_relative_to_mean():
    s = sp.ScenarioSet(np.array([[10.0], [20.0], [30.0]]))
    assert demand_gamma(s) == pytest.approx([0.5])
    assert demand_gamma(s.head(2)) == pytest.approx([5.0 / 15.0])
