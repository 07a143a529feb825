"""hyprig benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a hyprig checkout:

    python3 hyprig_bench/run.py --workload smear_fig8 --seed 1 \
        --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json):
  smear_fig8        volume_ratio on figure_eight_3d, planted isometries
  smear_refl2d      volume_ratio on test_reflection_2d, perturbed maps
  cocycle_n4        face volumes of random ideal 6-tuples in H^4, tol 1e-6
  reconstruct_fig8  preserves_regular, consensus, verify_conjugacy and
                    two barycenters per planted map

Each measurement runs in a fresh, single-threaded worker process.  With
``--trace 0`` six more fresh processes only set up, and setup_s is the
median of the seven set-up times; the end-to-end metrics follow.  Their
times are scaled to a fixed machine speed by a reference probe timed
next to the work (see worker.py); the raw wall times are printed too.
With ``--trace 1`` the worker reports per-layer timings from the tracer
instead, as wall times.  Human-readable lines come first; the last line
of standard output is one JSON object with keys correct, attempted,
failed, metrics.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("smear_fig8", "smear_refl2d", "cocycle_n4", "reconstruct_fig8")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "at_tol_frac": "fraction",
    "peak_rss_mb": "MB",
    "err_band": "1",
    "err_abs": "1",
}

PER_LAYER = {
    "lattice.sample_haar.calls": "count",
    "lattice.sample_haar.self_s": "s",
    "lattice.sample_haar.us_per_sample": "us",
    "lattice.sample_haar.share": "fraction",
    "lattice.ess_frac": "fraction",
    "lattice.max_weight": "1",
    "lattice.load_preset.ms": "ms",
    "boundary.map.calls": "count",
    "boundary.map.self_s": "s",
    "boundary.map.us_per_eval": "us",
    "boundary.conformal_barycenter.calls": "count",
    "boundary.conformal_barycenter.self_s": "s",
    "hypcore.act_ideal.calls": "count",
    "hypcore.act_ideal.self_s": "s",
    "volcocycle.vol3.calls": "count",
    "volcocycle.vol3.self_s": "s",
    "volcocycle.vol3.us_per_call": "us",
    "volcocycle.vol2.calls": "count",
    "volcocycle.vol2.self_s": "s",
    "volcocycle.voln.calls": "count",
    "volcocycle.voln.self_s": "s",
    "volcocycle.is_regular.calls": "count",
    "volcocycle.is_regular.self_s": "s",
    "quadrature.integrate_simplex.calls": "count",
    "quadrature.integrate_simplex.self_s": "s",
    "quadrature.evals": "count",
    "quadrature.evals_per_s": "1/s",
    "quadrature.cells_per_vol": "count",
    "quadrature.budget_exceeded": "count",
    "quadrature.failed_time_frac": "fraction",
    "regref.face_reflections.calls": "count",
    "regref.face_reflections.self_s": "s",
    "rigidity.consensus.self_s": "s",
    "rigidity.reconstruct_isometry.self_s": "s",
    "rigidity.isometry_from_simplex_pair.self_s": "s",
    "rigidity.preserves_regular.self_s": "s",
    "rigidity.verify_conjugacy.self_s": "s",
    "smear.volume_ratio.self_s": "s",
    "smear.smear_integral.self_s": "s",
    "trace.items": "count",
    "trace.overhead_frac": "fraction",
}

# Every numeric library pool pinned to one thread: the benchmark measures
# the single-threaded program.  No bytecode caches are written, so every
# set-up compiles hyprig afresh, the same in the first run as in the rest.
PINNED_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerFailed(RuntimeError):
    pass


def _worker(args, deadline, setup_only=False) -> dict:
    """Run one fresh worker process and return its JSON line."""
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launched", repr(launched)],
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    t0 = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "hyprig", "__init__.py")):
        sys.stderr.write("run from the root of a hyprig checkout: "
                         "src/hyprig not found\n")
        return 2

    deadline = t0 + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(args, deadline, setup_only=True)["setup_s"])
        res = _worker(args, deadline)
    except (WorkerFailed, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    expected_src = os.path.realpath(os.path.join("src", "hyprig"))
    if os.path.realpath(res["hyprig"]) != expected_src:
        sys.stderr.write(f"worker imported hyprig from {res['hyprig']}\n")
        return 1

    if args.trace:
        names = PER_LAYER
        values = res["layers"]
    else:
        names = END_TO_END
        setups.append(res["setup_s"])
        values = dict(res, setup_s=statistics.median(setups))
    metrics = {k: {"value": values[k], "unit": u} for k, u in names.items()}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print(f"operations attempted {res['attempted']}  failed {res['failed']}"
          f"  wrong answers {res['wrong']}  answered below tolerance"
          f" {res['loose']}")
    if not args.trace:
        print(f"work_per_s counts {res['unit']}; op_tail_ms is"
              f" p{res['tail_pct']} of {res['completed']} completed operations;"
              f" setup_s is the median of {len(setups)} fresh processes")
        print(f"wall clock: op_p50 {res['wall_op_p50_ms']:.6g} ms, set-up"
              f" {res['setup_wall_s']:.6g} s; reference probe median"
              f" {res['probe_ms']:.6g} ms (times scale to 3 ms)")
    for k, m in metrics.items():
        print(f"  {k:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["wrong"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
