"""Self-test of the benchmark at small sizes.

Checks that every workload runs with and without tracing, that the
printed metric names and units match BENCHMARK.json, that injected
wrong answers are counted as failed operations rather than passing or
crashing the run, and that an exhausted quadrature budget is retried
and shows in at_tol_frac without failing the operation.  Run from the
root of a hyprig checkout (a few minutes):

    python3 hyprig_bench/selftest.py

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from hyprig import boundary, hypcore, rigidity, volcocycle  # noqa: E402
from hyprig.errors import QuadratureBudgetExceeded  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def check_names():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "workload names match BENCHMARK.json")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        check(listed == table, f"{key} names and units match BENCHMARK.json")
    return bench


def check_runs(bench):
    """Every workload through run.py at one second; returns the traced
    metrics by workload."""
    traced = {}
    for wl in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", wl, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=170)
            what = f"{wl} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what} exits 0")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{what} prints the four result keys")
            check(res["correct"] and res["attempted"] >= 1,
                  f"{what} attempts operations and answers correctly")
            expected = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected, f"{what} prints every {key} metric")
            check(all(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      for v in res["metrics"].values()),
                  f"{what} prints finite numbers")
            if trace == 0:
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{what} prints no end-to-end metric at 0")
            else:
                traced[wl] = {k: v["value"] for k, v in res["metrics"].items()}
    return traced


def check_predictions(traced):
    """The layer predictions BENCHMARK.json's workload notes rest on."""
    if len(traced) < len(run.WORKLOADS):
        check(False, "traced runs of every workload for the predictions")
        return
    for name, home in (("volcocycle.vol3.calls", "smear_fig8"),
                       ("quadrature.integrate_simplex.calls", "cocycle_n4"),
                       ("volcocycle.vol2.calls", "smear_refl2d"),
                       ("regref.face_reflections.calls", "reconstruct_fig8")):
        check(all((m[name] > 0) == (wl == home) for wl, m in traced.items()),
              f"{name} is non-zero in {home} only")
    share = "lattice.sample_haar.share"
    check(traced["smear_refl2d"][share] > traced["smear_fig8"][share],
          "sample_haar takes a larger share in smear_refl2d than smear_fig8")


def run_injected(workload) -> dict:
    """One item of the workload in this process, through the worker's
    own accounting."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        worker.main(["--workload", workload, "--seed", "3", "--seconds",
                     "0.001", "--launched", "0"])
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def replaced(module, attr, fn):
    original = getattr(module, attr)
    setattr(module, attr, fn)
    try:
        yield
    finally:
        setattr(module, attr, original)


def check_injected():
    pole = hypcore.IdealPoint(np.array([0.0, 0.0, 1.0]))
    make_map = boundary.make_boundary_map

    def constant_map(kind, **params):
        if params["g"].n == 2:
            return make_map("constant", point=hypcore.IdealPoint(
                np.array([0.0, 1.0])))
        return make_map("constant", point=pole)

    voln = volcocycle.voln

    def shifted_voln(simplex, *args, **kwargs):
        # a constant shift would cancel in the alternating sum of six faces
        r = voln(simplex, *args, **kwargs)
        return volcocycle.VolumeResult(r.value + 0.1 * simplex[0].coords[0],
                                       r.abs_error, r.method)

    cases = (
        ("smear_fig8", boundary, "make_boundary_map", constant_map,
         "a constant boundary map"),
        ("smear_refl2d", boundary, "make_boundary_map", constant_map,
         "a constant boundary map"),
        ("cocycle_n4", volcocycle, "voln", shifted_voln,
         "face volumes off by 0.1 times a vertex coordinate"),
        ("reconstruct_fig8", rigidity, "consensus",
         lambda phi, n, **kw: hypcore.identity_isometry(n),
         "an identity reconstruction"),
    )
    for wl, module, attr, fn, desc in cases:
        with replaced(module, attr, fn):
            res = run_injected(wl)
        check(res["attempted"] >= 1 and res["failed"] == res["attempted"]
              and res["wrong"] == res["attempted"],
              f"{wl}: {desc} counts every operation as failed "
              f"({res['failed']}/{res['attempted']})")


def check_budget_retry():
    voln = volcocycle.voln

    def tight_budget(simplex, tol=1e-6, **kwargs):
        if tol < 2e-6:
            raise QuadratureBudgetExceeded("injected")
        return voln(simplex, tol=tol, **kwargs)

    with replaced(volcocycle, "voln", tight_budget):
        res = run_injected("cocycle_n4")
    check(res["attempted"] >= 1 and res["failed"] == 0
          and res["loose"] == res["attempted"] and res["at_tol_frac"] == 0,
          "cocycle_n4: a budget failure at tol 1e-6 is retried and counted "
          f"in at_tol_frac, not in failed ({res['loose']}/{res['attempted']}"
          " answered below tolerance)")


def main() -> int:
    bench = check_names()
    check_injected()
    check_budget_retry()
    check_predictions(check_runs(bench))
    print(f"{len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
