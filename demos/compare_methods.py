"""Rolling-horizon shoot-out of the five booking methods.

Generates a synthetic supply network, then for every prefix length tau books
vehicles with each method using only scenarios 1..tau and prices the booking
against realization tau+1. Prints the report CSV and a short verdict.

Run:  python3 demos/compare_methods.py
"""

import math

import supplyplan as sp

inst = sp.gen_instance(n_suppliers=6, n_destinations=4, seed=12)
scens = sp.gen_scenarios(inst, n_scenarios=16, seed=13)

report = sp.run_comparison(inst, scens, sbar=8, omega=2.75)

print(report.to_csv())

finite = {m: report.aggregate(m) for m in sp.METHOD_COLUMNS
          if math.isfinite(report.aggregate(m))}
best = min(finite, key=finite.get)
ws = report.aggregate("ws")
print(f"best aggregate: {best} at {finite[best]:.2f} "
      f"(perfect information would cost {ws:.2f})")
print(f"regret of {best} vs hindsight: {finite[best] - ws:.2f}")

if math.isinf(report.aggregate("m5")):
    outside = [tau for tau in report.taus
               if math.isinf(report.cost("m5", tau))]
    print(f"m5 undefined at tau={outside}: those realizations fall outside "
          f"the hull of the scenarios seen so far")
