"""Benchmark of the supplyplan planner: one workload per process.

    python3 perfbench/run.py --workload rolling --seed 42 --seconds 25
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from ``src/``. The
workload's inputs are made from ``--seed``. Timed calls run while the next
one is expected to end within ``--seconds`` (always at least one). Their
outputs are then checked (``checks.py``) outside the timed region.

``--trace 0`` reports the end-to-end metrics (wall_s, ops_per_s, setup_s,
peak_rss_mb); ``--trace 1`` makes every call once untraced and once traced,
reports the per-layer metrics of ``tracing.py`` and writes the spans to
``perfbench/out/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
gives the same figures, and fail_ratio, for a reader.

``--workload all`` runs each workload in a child process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("rolling", "hull", "pricing", "integer")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: a small size for the benchmark's own tests")
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    worst = 0
    summary = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        summary.append(lines[-2] if proc.returncode == 0 and len(lines) > 1
                       else f"{name}: exit code {proc.returncode}")
        worst = max(worst, proc.returncode)
    print("\n".join(["summary:"] + summary))
    return worst


def child_import_s() -> float:
    """Time to import the package in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import supplyplan; "
             "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return float(out)


def load_reference(name: str, seed: int):
    path = HERE / "reference" / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def measure(wl, st, seconds: float, tracer=None, root=None):
    """Make timed calls until the next is expected to overrun ``seconds``.

    With a tracer every call is made twice on the same input, untraced and
    then traced under a span named ``root``. Returns ``(outputs, call times,
    traced outputs, elapsed)``.
    """
    outputs, times, traced = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        outputs.append(wl.call(st, i))
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.install()
            try:
                with tracer.span(root):
                    traced.append(wl.call(st, i))
            finally:
                tracer.uninstall()
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > seconds:
            return outputs, times, traced, elapsed


def write_spans(tracer, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = tracer.spans[0][3] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start - t0, "end": end - t0}) + "\n")


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "supplyplan" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'supplyplan'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # single-threaded numerics: steady timings, one process of load
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    t0 = time.perf_counter()
    import supplyplan  # noqa: F401  (import time is part of setup)
    import_times = [time.perf_counter() - t0]
    import resource

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.size)
    import_times += [child_import_s() for _ in range(SETUP_REPEATS - 1)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        st = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    tracer = tracing.Tracer(tracing.TARGETS) if args.trace else None
    outputs, times, traced, elapsed = measure(
        wl, st, args.seconds, tracer, tracing.ROOT)

    reference = (load_reference(wl.name, args.seed)
                 if args.size == "full" else None)
    failed, errors = wl.check(st, outputs, reference)
    if wl.repeats:
        errors += [f"call {i}: differs from call 0"
                   for i, out in enumerate(outputs) if out != outputs[0]]
    errors += [f"call {i}: traced output differs from untraced"
               for i, out in enumerate(traced) if out != outputs[i]]
    attempted = sum(wl.ops(st, out) for out in outputs)

    if args.trace:
        values = tracing.layer_metrics(tracer, statistics.fmean(times))
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]}
                   for k, v in values.items()}
        write_spans(tracer, HERE / "out" /
                    f"spans-{wl.name}-{args.size}-{args.seed}.jsonl")
        absent = tracer.absent
        text = (f"traced calls={len(traced)} trace.wall_s="
                f"{values['trace.wall_s']:.4f} trace.overhead_s="
                f"{values['trace.overhead_s']:.4f} absent="
                f"{','.join(tracer.absent_layers()) or '-'}"
                + (f" ({', '.join(absent)})" if absent else ""))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(times),
                  "ops_per_s": (attempted - failed) / elapsed,
                  "setup_s": (statistics.median(import_times)
                              + statistics.median(setup_times)),
                  "peak_rss_mb": peak_mb}
        units = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s",
                 "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
        text = " ".join(f"{k}={v:.4f} {units[k]}" for k, v in values.items())
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed} size={args.size} calls={len(outputs)} "
          f"{text} fail_ratio={failed}/{attempted}={failed / attempted:.4f} "
          f"correct={not errors}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
