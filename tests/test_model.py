import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supplyplan as sp
from supplyplan.model import (booking_cost, first_stage_rows, recourse_cost,
                              second_stage_rows, x_name, y_name, z_name)

import helpers


def test_instance_validation():
    s = sp.Supplier("s1", 0.0, 10.0, ("p1",))
    d = sp.Destination("d1", 8.0, 100.0)
    a = sp.Arc("s1", "p1", "d1", 2.0)
    with pytest.raises(ValueError):
        sp.Instance(q=0.0, alpha=0.5, suppliers=(s,), destinations=(d,), arcs=(a,))
    with pytest.raises(ValueError):
        sp.Instance(q=10.0, alpha=1.5, suppliers=(s,), destinations=(d,), arcs=(a,))
    with pytest.raises(ValueError):
        sp.Instance(q=10.0, alpha=0.5, suppliers=(s, s), destinations=(d,), arcs=(a,))
    for r, v in ((20.0, 10.0), (-10.0, -5.0), (-1.0, 10.0), (0.0, -5.0)):
        with pytest.raises(ValueError, match="need 0 <= r <= v"):
            sp.Instance(q=10.0, alpha=0.5,
                        suppliers=(sp.Supplier("s1", r, v, ("p1",)),),
                        destinations=(d,), arcs=(a,))
    for g, l0 in ((-1.0, 0.0), (100.0, -1.0)):
        with pytest.raises(ValueError, match="negative g or l0"):
            sp.Instance(q=10.0, alpha=0.5, suppliers=(s,),
                        destinations=(sp.Destination("d1", 8.0, g, l0),),
                        arcs=(a,))
    with pytest.raises(ValueError):
        sp.Instance(q=10.0, alpha=0.5, suppliers=(s,), destinations=(d,),
                    arcs=(sp.Arc("s1", "p9", "d1", 2.0),))
    with pytest.raises(ValueError, match="duplicate destination id"):
        sp.Instance(q=10.0, alpha=0.5, suppliers=(s,), destinations=(d, d),
                    arcs=(a,))
    with pytest.raises(ValueError, match="supplier s1: duplicate plant"):
        sp.Instance(q=10.0, alpha=0.5,
                    suppliers=(sp.Supplier("s1", 0.0, 10.0, ("p1", "p1")),),
                    destinations=(d,), arcs=(a,))
    for arc, error in ((sp.Arc("s9", "p1", "d1", 2.0), "unknown supplier s9"),
                       (sp.Arc("s1", "p1", "d9", 2.0),
                        "unknown destination d9")):
        with pytest.raises(ValueError, match=error):
            sp.Instance(q=10.0, alpha=0.5, suppliers=(s,), destinations=(d,),
                        arcs=(arc,))
    with pytest.raises(ValueError):
        sp.Instance(q=10.0, alpha=0.5, suppliers=(s,), destinations=(d,),
                    arcs=(a, sp.Arc("s1", "p1", "d1", 3.0)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["q", "r", "v", "g", "l0", "b_bar", "t"])
def test_from_json_rejects_non_finite_numbers(tight, name, value):
    doc = tight.to_json()
    holder = {"q": doc["meta"], "r": doc["suppliers"][0],
              "v": doc["suppliers"][0], "g": doc["destinations"][0],
              "l0": doc["destinations"][0], "b_bar": doc["destinations"][0],
              "t": doc["arcs"][0]}[name]
    holder[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        sp.Instance.from_json(doc)


def test_validate_warns_on_outlier_capacity():
    inst = sp.Instance(
        q=10.0, alpha=0.5,
        suppliers=(sp.Supplier("s1", 0.0, 10.0, ("p1",)),),
        destinations=(sp.Destination("d1", 8.0, 100.0),
                      sp.Destination("d2", 8.0, 120.0),
                      sp.Destination("d3", 8.0, 99999.0)),
        arcs=(sp.Arc("s1", "p1", "d1", 2.0),))
    warnings = inst.validate()
    assert any("d3" in w for w in warnings)
    assert not any("d1" in w for w in warnings)


def test_json_round_trip(tight):
    doc = tight.to_json()
    back = sp.Instance.from_json(doc)
    assert back == tight


def test_save_load_round_trip(tmp_path, tight):
    path = tmp_path / "inst.json"
    tight.save(path)
    assert sp.Instance.load(path) == tight


def test_lookups(tight):
    assert tight.dest_ids == ["d1", "d2"]
    assert {a.supplier for a in tight.arcs_to("d1")} == {"s1", "s2"}
    assert len(tight.arcs_from("s1")) == 2
    assert np.allclose(tight.b_bar_vector(), [7.0, 9.0])


def test_cost_arithmetic(one_arc):
    key = one_arc.arcs[0].key
    x = {key: 5.0}
    # booking: q t x = 10 * 2 * 5 = 100
    assert booking_cost(one_arc, x) == pytest.approx(100.0)
    # full cancellation: refund alpha q t x = 50, no purchase
    assert recourse_cost(one_arc, x, {}, {}, [8.0]) == pytest.approx(-50.0)
    # use 3, buy 2 vehicles worth: 10*8*2 - 0.5*10*2*(5-3) = 160 - 20
    assert recourse_cost(one_arc, x, {"d1": 2.0}, {key: 3.0}, [8.0]) == \
        pytest.approx(140.0)


def test_cost_validation(one_arc):
    key = one_arc.arcs[0].key
    with pytest.raises(KeyError):
        booking_cost(one_arc, {("a", "b", "c"): 1.0})
    with pytest.raises(ValueError):
        recourse_cost(one_arc, {key: 1.0}, {}, {key: 2.0}, [8.0])
    for x, z in (({}, {("a", "b", "c"): 0.0}), ({("a", "b", "c"): 1.0}, {})):
        with pytest.raises(KeyError):
            recourse_cost(one_arc, x, {}, z, [8.0])


# m5-style bookings: fractional x on every arc, z a fraction of it, as the
# hull decision rule makes them; their refunds sum 68 arcs
_PRICE_BOOKINGS = """
import numpy as np
import supplyplan as sp
from supplyplan.model import recourse_cost
inst = sp.gen_instance(24, 15, seed=42)
for seed in range(4):
    rng = np.random.default_rng(seed)
    n = len(inst.arcs)
    x = {a.key: float(v) for a, v in zip(inst.arcs, rng.uniform(0, 3, n))}
    z = {k: v * float(u) for (k, v), u in zip(x.items(), rng.uniform(0, 1, n))}
    print(repr(recourse_cost(inst, x, {}, z, inst.b_bar_vector())))
"""


def test_price_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    prices = []
    for seed in ("4", "6"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        res = subprocess.run([sys.executable, "-c", _PRICE_BOOKINGS],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        prices.append(res.stdout.strip())
    assert prices[0] == prices[1]


def _second_stage(inst, d, relax=True, tag=None, booking=None):
    """(variables, integrality marks, rows) that second_stage_rows adds to a
    problem holding the first stage."""
    p = sp.LinearProblem()
    first_stage_rows(p, inst, relax)
    n_vars, n_rows = p.num_vars, p.lo.size
    second_stage_rows(p, inst, [d], relax, [tag], booking)
    return (p.var_names[n_vars:], p.integer[n_vars:].tolist(),
            helpers.rows(p)[n_rows:])


def test_first_stage_rows_structure(tight):
    p = sp.LinearProblem()
    first_stage_rows(p, tight, relax=True)
    assert p.var_names == [x_name(a) for a in tight.arcs]
    assert not any(p.integer)
    # one booking cap per destination
    assert p.lo.size == 2
    coeffs, rel, rhs = helpers.rows(p)[0]
    assert rel == "<=" and rhs == tight.destinations[0].g
    assert all(c == tight.q for c in coeffs.values())


def test_second_stage_rows_structure(tight):
    names, integer, rows = _second_stage(tight, [80.0, 90.0], relax=False,
                                         tag=3)
    assert z_name(tight.arcs[0], 3) in names
    assert y_name("d1", 3) in names
    # z marked integer when relax is off, y never
    marks = dict(zip(names, integer))
    assert marks[z_name(tight.arcs[0], 3)] is True
    assert marks[y_name("d1", 3)] is False
    rels = [(rel, rhs) for _, rel, rhs in rows]
    # 2 supplier caps (no minimum rows: r = 0), 2 demand rows, 4 coupling rows
    assert rels.count(("<=", 60.0)) == 2
    assert (">=", 0.0) not in rels  # no vacuous supplier-minimum rows
    assert len(rows) == 2 + 2 + len(tight.arcs)


def test_fixed_booking_bounds_usage_without_coupling_rows(tight):
    booking = {a.key: float(i) for i, a in enumerate(tight.arcs)}
    booking[tight.arcs[1].key] = -0.5  # clamped to a zero cap
    p = sp.LinearProblem()
    second_stage_rows(p, tight, [[80.0, 90.0]], relax=True, tags=[None],
                      booking=booking)
    caps = [p.ub[p.var_names.index(z_name(a))] for a in tight.arcs]
    assert caps == [0.0, 0.0] + [float(i) for i in range(2, len(tight.arcs))]
    assert all(ub == math.inf for name, ub in zip(p.var_names, p.ub)
               if name.startswith("y["))
    # supplier caps and demand rows only; no booking variable referenced
    assert p.lo.size == 2 + 2
    assert not any(name.startswith("x[") for name in p.var_names)


def test_supplier_minimum_row_present_when_positive():
    inst = sp.Instance(
        q=10.0, alpha=0.5,
        suppliers=(sp.Supplier("s1", 20.0, 100.0, ("p1",)),),
        destinations=(sp.Destination("d1", 8.0, 100.0),),
        arcs=(sp.Arc("s1", "p1", "d1", 2.0),))
    _, _, rows = _second_stage(inst, [30.0])
    assert any(rel == ">=" and rhs == 20.0 for _, rel, rhs in rows)


def test_demand_is_a_vector_in_destination_order(one_arc):
    with pytest.raises(ValueError):
        _second_stage(one_arc, [30.0, 40.0])
    with pytest.raises(TypeError):  # a {destination: value} map
        _second_stage(one_arc, {"d1": 30.0})
    with pytest.raises(ValueError, match="non-finite right hand side"):
        _second_stage(one_arc, [math.nan])


def test_initial_inventory_reduces_demand():
    inst = sp.Instance(
        q=10.0, alpha=0.5,
        suppliers=(sp.Supplier("s1", 0.0, 100.0, ("p1",)),),
        destinations=(sp.Destination("d1", 8.0, 100.0, l0=12.0),),
        arcs=(sp.Arc("s1", "p1", "d1", 2.0),))
    _, _, rows = _second_stage(inst, [30.0])
    demand_rows = [rhs for _, rel, rhs in rows if rel == ">="]
    assert demand_rows == [18.0]


def test_variable_names_are_stable(one_arc):
    a = one_arc.arcs[0]
    assert x_name(a) == "x[p1,s1,d1]"
    assert z_name(a) == "z[p1,s1,d1]"
    assert z_name(a, 4) == "z[4,p1,s1,d1]"
    assert y_name("d1") == "y[d1]"
    assert y_name("d1", 4) == "y[4,d1]"
