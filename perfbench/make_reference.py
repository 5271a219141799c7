"""Write the stored references that the correctness gate compares against.

    python3 perfbench/make_reference.py --workload rolling --seeds 0-15

Makes the first ``reference_calls`` timed calls of a workload (a class
attribute: 10 for ``hull``, 1 otherwise) untraced at full size for each seed,
under the same thread settings as the timed runs. Before storing, it confirms
each row's known in-hull flag by criterion 5's test. The outputs go to
``perfbench/reference/<workload>.json``; entries of other seeds are kept. The
gate holds every later commit to what this writes, so run it only on a
commit whose results are trusted. ``integer`` has no reference: its
node-limited cells are expected to change when the branch and bound does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from run import HERE, SRC, THREAD_VARS


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def in_hull(d, columns) -> bool:
    """Criterion 5's test: squared distance to the hull within tolerance."""
    import supplyplan as sp

    d = np.asarray(d, dtype=float)
    _, phi = sp.project_simplex_lsq(d, list(columns), tol=1e-12)
    return phi <= sp.PHI_ZERO_TOL * (float(d @ d) + 1.0)


def flag_errors(wl, st, i, rows) -> list[str]:
    """Rows of call ``i`` whose known in-hull flag criterion 5 contradicts."""
    if "m5" not in wl.methods:
        return []
    scens = [s for s, _ in wl.inputs(st, i)]
    out = []
    for k, row in enumerate(rows):
        s = scens[k // wl.rows_per_call]
        tau = row["tau"]
        if in_hull(s.demands[tau], s.demands[:tau]) != row["in_hull"]:
            out.append(f"call {i} tau={tau}: in_hull flag {row['in_hull']} "
                       "contradicts criterion 5")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("rolling", "hull", "pricing"))
    ap.add_argument("--seeds", required=True, type=seed_list,
                    help="comma list of seeds and ranges, e.g. 0-15,42")
    args = ap.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]("full")
    path = HERE / "reference" / f"{wl.name}.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for seed in args.seeds:
        st = wl.setup(seed)
        outputs, errors = [], []
        for i in range(wl.reference_calls):
            outputs.append(wl.call(st, i))
            errors += flag_errors(wl, st, i, outputs[-1])
        failed, check_errors = wl.check(st, outputs, None)
        errors += check_errors
        if failed or errors:
            print(f"seed {seed}: not stored, {failed} failed ops: {errors}",
                  file=sys.stderr)
            return 1
        stored[str(seed)] = outputs
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(dict(sorted(stored.items(),
                                               key=lambda kv: int(kv[0]))),
                                   indent=1) + "\n")
        print(f"{wl.name} seed {seed}: {wl.reference_calls} calls stored",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
