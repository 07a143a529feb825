"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed for each workload, one run at a time,
and prints for every end-to-end metric its median over the runs and the
distance between its first and third quartiles as a share of the median,
next to the bound BENCHMARK.json fixes for it.  With --trace-seed it
adds one traced run per workload.  --out writes every value, with the
machine and library versions, as JSON (the form of BASELINE.json).
Run from the root of a hyprig checkout:

    python3 hyprig_bench/spread.py --workloads smear_fig8 cocycle_n4 \
        --seeds 1 2 3 4 5 [--seconds 20] [--trace-seed 1] [--out spread.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import PINNED_ENV  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                capture_output=True).stdout.strip() or None
    except OSError:
        commit = None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "pinned_env": PINNED_ENV}


def run_once(workload, seed, seconds, trace=0) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=200).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for wl in args.workloads:
        runs = [run_once(wl, s, args.seconds) for s in args.seeds]
        rows = {}
        print(f"{wl}: {len(runs)} runs, failed/attempted "
              f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)},"
              f" correct {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                          "spread": spread}
            flag = "" if spread < bound / 3 else \
                ("  above bound/3" if spread <= bound else "  ABOVE BOUND")
            print(f"  {name:12s} median {med:<12.6g} spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
        report[wl] = {"attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": rows}
    traced = {}
    if args.trace_seed is not None:
        for wl in args.workloads:
            res = run_once(wl, args.trace_seed, args.seconds, trace=1)
            traced[wl] = {k: v["value"] for k, v in res["metrics"].items()}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"environment": environment(),
                       "run_seconds": args.seconds, "seeds": args.seeds,
                       "end_to_end": report, "trace_seed": args.trace_seed,
                       "per_layer": traced}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
