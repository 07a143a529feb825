"""One benchmark process: set up, run one workload for a fixed time, and
print its measurements as one JSON line.

Started by run.py as a fresh interpreter with the numeric thread pools
pinned to one thread.  ``--launched`` is the CLOCK_MONOTONIC time at
which the parent started this process, so the reported set-up time runs
from process start to ready: interpreter start, imports, preset loading
and first-call caches.

With ``--trace 0`` the workload runs untraced and the line holds the raw
figures for the end-to-end metrics.  With ``--trace 1`` the first half of
the time runs untraced, then the same items run again under the tracer,
and the line holds the per-layer metrics; the ratio of the two halves is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import hyprig  # noqa: E402
from hyprig import boundary, lattice, rigidity, smear, volcocycle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (ANSWERED, LOOSE, OK, RAISED, WORKLOADS,  # noqa: E402
                       WRONG, run_item, tail_index)

CLOCK = time.perf_counter
QUAD_CELL_EVALS = 5 ** 3 + 9 ** 3   # both rules on one cell, d = 3 (n = 4)

# Reported times are scaled to a fixed machine speed.  On shared virtual
# machines the speed of identical work can change by up to 2x for
# stretches of a minute, longer than a run, so raw wall times differ that
# much between runs.  Before every item, and after the last, the worker
# times a fixed reference probe that shares no code with hyprig; each
# operation's wall time is multiplied by REF_PROBE_S over the mean of the
# two probes right before and after its item.  The speed changes in
# phases of a few seconds, so probes further away would mix phases.  A
# change to hyprig cannot move the probe, so the scaled times compare
# commits as wall times would on a steady machine.
REF_PROBE_S = 0.003
SETUP_REF_PROBES = 5


def reference_probe() -> float:
    """Wall time of a fixed mix of the two kinds of work in hyprig: small
    NumPy calls with Python object handling (the smearing and rigidity
    paths) and vector arithmetic on arrays of a few thousand numbers (the
    quadrature)."""
    t0 = CLOCK()
    a = np.eye(4)
    v = np.ones(4)
    acc = 0.0
    for i in range(300):
        b = a @ a.T
        w = np.append(v, 1.0)
        acc += float(np.linalg.norm(w)) + float(b[0, 0])
        acc += len({"k": tuple(float(x) for x in w), "i": i})
    X = np.linspace(0.0, 1.0, 3 * 729).reshape(729, 3)
    c = np.array([0.1, 0.2, 0.3])
    wts = np.linspace(0.0, 1.0, 729)
    for _ in range(40):
        diff = X - c
        h2 = 2.0 - np.einsum("ij,ij->i", diff, diff)
        acc += float(wts @ np.maximum(h2, 1e-300) ** -1.5)
    return CLOCK() - t0


def _run_items(wl, seed, indices, deadline, on_item=None):
    """Run items in order until the index list or the deadline runs out;
    at least one item runs, and for a panel workload at least one pass,
    and only whole passes are kept.  Returns per-op (status, scaled
    seconds, units, wall seconds), per-item verdicts and the probe times,
    one more than items."""
    raw, verdicts, probes = [], [], []
    first = max(wl.panel, 1)
    for i in indices:
        if deadline is not None and len(verdicts) >= first \
                and time.monotonic() >= deadline:
            break
        item = wl.item(seed, i)
        probes.append(reference_probe())
        if on_item is None:
            results, times = run_item(item, CLOCK)
        else:
            results, times = on_item(i, item)
        v = item.check(results)
        verdicts.append(v)
        raw.extend((s, t, u, len(probes) - 1)
                   for s, t, u in zip(v.status, times, v.units))
    probes.append(reference_probe())
    if wl.panel:
        keep = len(verdicts) - len(verdicts) % wl.panel
        raw = [r for r in raw if r[3] < keep]
        verdicts, probes = verdicts[:keep], probes[:keep + 1]
    scale = [2 * REF_PROBE_S / (probes[j] + probes[j + 1])
             for j in range(len(verdicts))]
    ops = [(s, t * scale[j], u, t) for s, t, u, j in raw]
    return ops, verdicts, probes


def _stat(wl, values) -> float:
    values = list(values)
    return wl.err_stat(values) if values else 0.0


def end_to_end(wl, ops, verdicts, probes) -> dict:
    """The end-to-end figures.  Latencies are those of answered
    operations; in a run where every operation failed they fall back to
    all attempted ones, and the error figures read 0."""
    done = sorted(t for s, t, _, _ in ops if s in ANSWERED) or \
        sorted(t for _, t, _, _ in ops)
    pct, idx = tail_index(len(done), wl.tail_q)
    return {
        "work_per_s": sum(u for _, _, u, _ in ops) / sum(t for _, t, _, _ in ops),
        "op_p50_ms": 1e3 * statistics.median(done),
        "op_tail_ms": 1e3 * done[idx],
        "at_tol_frac": sum(1 for s, *_ in ops if s == OK) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "err_band": _stat(wl, (e for v in verdicts for e in v.err_band)),
        "err_abs": _stat(wl, (e for v in verdicts for e in v.err_abs)),
        "tail_pct": pct,
        "completed": len(done),
        "wall_op_p50_ms": 1e3 * statistics.median(t for *_, t in ops),
        "probe_ms": 1e3 * statistics.median(probes),
    }


def _install(tr: Tracer):
    def haar_stats(samples):
        w = np.array([s.weight for s in samples])
        if len(w):
            tr.haar_calls.append((len(w), w.sum() ** 2 / (len(w) * (w @ w)),
                                  w.max()))

    for mod in (smear, boundary, rigidity):
        tr.patch(mod, "act_ideal", "hypcore.act_ideal")
    tr.patch(smear, "volume_ratio", "smear.volume_ratio")
    tr.patch(smear, "smear_integral", "smear.smear_integral")
    tr.patch(smear, "sample_haar", "lattice.sample_haar", haar_stats)
    tr.patch(boundary, "conformal_barycenter", "boundary.conformal_barycenter")
    for fn in ("vol2", "vol3", "voln"):
        tr.patch(volcocycle, fn, f"volcocycle.{fn}")
    for fn in ("preserves_regular", "consensus", "reconstruct_isometry",
               "isometry_from_simplex_pair", "verify_conjugacy"):
        tr.patch(rigidity, fn, f"rigidity.{fn}")
    tr.patch(rigidity, "face_reflections", "regref.face_reflections")
    tr.patch(rigidity, "is_regular", "volcocycle.is_regular")

    # integrate_simplex gets the integrand as an argument; counting the
    # points it is evaluated on gives evals even for calls that raise
    counters = tr.counters

    def counting(integrate):
        def counted_integrate(f, *args, **kwargs):
            def g(X):
                counters["quadrature.evals"] += len(X)
                return f(X)
            return integrate(g, *args, **kwargs)
        return counted_integrate

    tr.patch(volcocycle, "integrate_simplex", "quadrature.integrate_simplex",
             adapt=counting)


def per_layer(tr: Tracer, load_ms: float, untraced_s: float,
              traced_s: float, traced_wall_s: float, n_items: int) -> dict:
    s = tr.summary()

    def get(name, key="self_s"):
        return s.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    samples = sum(c[0] for c in tr.haar_calls)
    evals = tr.counters["quadrature.evals"]
    out = {
        "lattice.sample_haar.calls": get("lattice.sample_haar", "calls"),
        "lattice.sample_haar.self_s": get("lattice.sample_haar"),
        "lattice.sample_haar.us_per_sample":
            1e6 * ratio(get("lattice.sample_haar"), samples),
        "lattice.sample_haar.share": ratio(get("lattice.sample_haar"),
                                           traced_wall_s),
        "lattice.ess_frac": float(np.mean([c[1] for c in tr.haar_calls]))
        if tr.haar_calls else 0.0,
        "lattice.max_weight": float(np.median([c[2] for c in tr.haar_calls]))
        if tr.haar_calls else 0.0,
        "lattice.load_preset.ms": load_ms,
        "boundary.map.calls": get("boundary.map", "calls"),
        "boundary.map.self_s": get("boundary.map"),
        "boundary.map.us_per_eval":
            1e6 * ratio(get("boundary.map"), get("boundary.map", "calls")),
    }
    for name in ("boundary.conformal_barycenter", "hypcore.act_ideal",
                 "volcocycle.vol3", "volcocycle.vol2", "volcocycle.voln",
                 "volcocycle.is_regular", "quadrature.integrate_simplex",
                 "regref.face_reflections"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name)
    out["volcocycle.vol3.us_per_call"] = 1e6 * ratio(
        get("volcocycle.vol3"), get("volcocycle.vol3", "calls"))
    quad = "quadrature.integrate_simplex"
    out.update({
        "quadrature.evals": evals,
        "quadrature.evals_per_s": ratio(evals, get(quad)),
        "quadrature.cells_per_vol": ratio(
            evals / QUAD_CELL_EVALS, get("volcocycle.voln", "calls")),
        "quadrature.budget_exceeded": sum(
            1 for nm, r in zip(tr.names, tr.raised) if r and nm == quad),
        "quadrature.failed_time_frac": ratio(get(quad, "raised_self_s"),
                                             get(quad)),
    })
    for fn in ("consensus", "reconstruct_isometry",
               "isometry_from_simplex_pair", "preserves_regular",
               "verify_conjugacy"):
        out[f"rigidity.{fn}.self_s"] = get(f"rigidity.{fn}")
    out["smear.volume_ratio.self_s"] = get("smear.volume_ratio")
    out["smear.smear_integral.self_s"] = get("smear.smear_integral")
    out["trace.items"] = n_items
    out["trace.overhead_frac"] = ratio(traced_s, untraced_s) - 1.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    tr = Tracer() if args.trace else None
    if tr is not None:
        tr.patch(lattice, "load_preset", "lattice.load_preset")
    wl.setup()
    setup_wall = time.monotonic() - args.launched
    # the set-up time is scaled like the operation times
    setup_probe = statistics.median(reference_probe()
                                    for _ in range(SETUP_REF_PROBES))
    setup_s = setup_wall * REF_PROBE_S / setup_probe
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0

    out = {"setup_s": setup_s, "setup_wall_s": setup_wall,
           "hyprig": os.path.dirname(hyprig.__file__), "unit": wl.unit}
    if tr is None:
        deadline = time.monotonic() + args.seconds
        ops, verdicts, probes = _run_items(wl, args.seed, range(10**9),
                                           deadline)
        out.update(end_to_end(wl, ops, verdicts, probes))
    else:
        load_ms = 1e3 * tr.summary().get("lattice.load_preset", {}).get(
            "total_s", 0.0)
        tr.unpatch_all()
        tr.clear()
        deadline = time.monotonic() + args.seconds / 2
        ops, verdicts, _ = _run_items(wl, args.seed, range(10**9), deadline)
        untraced_s = sum(t for _, t, _, _ in ops)

        _install(tr)
        wl.wrap_map = lambda phi: tr.wrap("boundary.map", phi)
        item_span = tr.wrap("item", run_item)

        def traced_item(i, item):
            tr.current_op = i
            return item_span(item, CLOCK)

        try:
            ops, verdicts, _ = _run_items(wl, args.seed, range(len(verdicts)),
                                          None, traced_item)
        finally:
            tr.unpatch_all()
        # overhead from scaled times, the span figures from wall times
        traced_s = sum(t for _, t, _, _ in ops)
        out["layers"] = per_layer(tr, load_ms, untraced_s, traced_s,
                                  sum(t for _, _, _, t in ops), len(verdicts))
    out["attempted"] = len(ops)
    out["failed"] = sum(1 for s, *_ in ops if s in (RAISED, WRONG))
    out["loose"] = sum(1 for s, *_ in ops if s == LOOSE)
    out["wrong"] = sum(1 for s, *_ in ops if s == WRONG)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
