"""Value of information and in-sample stability of the stochastic program.

Computes the expected value of perfect information (EVPI) on a synthetic
network, then shows how the stochastic optimum settles as the sampled
scenario count grows.

Run:  python3 demos/evpi_and_stability.py
"""

import supplyplan as sp

inst = sp.gen_instance(n_suppliers=6, n_destinations=4, seed=12)
scens = sp.gen_scenarios(inst, n_scenarios=16, seed=13)
cfg = sp.SolverConfig()

sp_val = sp.solve_lp(sp.build_sp(inst, scens), cfg).objective
ws_vals = [sp.solve_lp(sp.build_ws(inst, scens.demands[s], scens.costs[s]),
                       cfg).objective
           for s in range(scens.S)]
evpi = sp.compute_evpi(sp_val, ws_vals, scens.probs)
print(f"here-and-now optimum:     {sp_val:12.2f}")
print(f"expected wait-and-see:    {sp_val - evpi:12.2f}")
print(f"EVPI (price of blindness):{evpi:12.2f}")

print("\nin-sample stability (same seed, growing sample):")
curve = sp.in_sample_stability(inst, scens, [10, 25, 50, 100, 200], seed=3)
for n, val in curve:
    print(f"  {n:4d} scenarios -> {val:12.2f}")
