"""Seeded synthetic instances shaped like a real bulk-material supply network.

Defaults mirror a realistic setting: vehicles of q = 31 tons, cancellation
discount alpha = 0.7, buying costs in the high-40s to mid-70s per ton and a
few hundred to a couple thousand tons of bookable capacity per destination.
All draws go through the package stream, so a seed pins the files exactly.

Documented ranges (uniform draws):
  transport cost t      [4, 16] per ton
  average buying cost   [48, 74] per ton        (always above max t)
  nominal demand        [150, 900] tons
  supplier capacity v   [200, 1500] tons
  demand scenarios      nominal * [1 - spread, 1 + spread], spread = 0.4
"""

from __future__ import annotations

import numpy as np

from .model import Arc, Destination, Instance, Supplier
from .rng import Stream
from .uncertainty import ScenarioSet


def gen_instance(n_suppliers: int, n_destinations: int, seed: int,
                 q: float = 31.0, alpha: float = 0.7) -> Instance:
    """Synthetic supply network. Suppliers own 1-3 plants (names reused
    across suppliers, as in real data); each destination is reachable over
    3-6 arcs, fewer when fewer distinct supplier-plant pairs exist. Supplier
    minima r_k are zero so every booking admits a feasible recourse."""
    if n_suppliers < 1 or n_destinations < 1:
        raise ValueError("need at least one supplier and one destination")
    stream = Stream(seed)
    n_plants = max(2, n_suppliers)

    suppliers = []
    for k in range(1, n_suppliers + 1):
        count = min(stream.randint(1, 3), n_plants)
        plants = []
        while len(plants) < count:
            name = f"plant{stream.randint(1, n_plants)}"
            if name not in plants:
                plants.append(name)
        v = round(stream.uniform(200.0, 1500.0), 2)
        suppliers.append(Supplier(f"suppl{k}", 0.0, v, tuple(plants)))

    # nominal demand drives capacities so the network is reasonably tight
    d_nominal = np.array([round(stream.uniform(150.0, 900.0), 2)
                          for _ in range(n_destinations)])
    destinations = []
    for j in range(1, n_destinations + 1):
        b_bar = round(stream.uniform(48.0, 74.0), 2)
        g = round(1.6 * d_nominal[j - 1], 2)
        destinations.append(Destination(f"dest{j}", b_bar, g, 0.0))

    arcs = []
    seen = set()
    for j, dest in enumerate(destinations):
        n_arcs = stream.randint(3, 6)
        guard = 0
        while len([a for a in arcs if a.dest == dest.id]) < n_arcs and guard < 200:
            guard += 1
            s = suppliers[stream.randint(0, n_suppliers - 1)]
            plant = s.plants[stream.randint(0, len(s.plants) - 1)]
            key = (s.id, plant, dest.id)
            if key in seen:
                continue
            seen.add(key)
            arcs.append(Arc(s.id, plant, dest.id,
                            round(stream.uniform(4.0, 16.0), 2)))

    inst = Instance(q=q, alpha=alpha, suppliers=tuple(suppliers),
                    destinations=tuple(destinations), arcs=tuple(arcs))
    return inst


def gen_scenarios(inst: Instance, n_scenarios: int, seed: int,
                  spread: float = 0.4, sigma: float = 0.2) -> ScenarioSet:
    """Equiprobable demand/cost scenarios around the instance's implied
    nominal demand (g / 1.6) and average buying costs."""
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    stream = Stream(seed)
    d_nominal = np.array([d.g / 1.6 for d in inst.destinations])
    b_bar = inst.b_bar_vector()
    demands = stream.uniform_matrix(d_nominal * (1 - spread),
                                    d_nominal * (1 + spread), n_scenarios)
    costs = stream.uniform_matrix(b_bar * (1 - sigma), b_bar * (1 + sigma),
                                  n_scenarios)
    return ScenarioSet(np.maximum(demands, 0.0), costs,
                       dest_ids=inst.dest_ids)
