"""Command-line entry point.

One verb per computation: volumes and constants, cocycle checks,
straightening, barycenters, reflection orbits, preset inspection, the
smearing estimator and the rigidity pipeline.  Outputs are JSON with the
parsed configuration echoed; estimate sweeps can additionally be written
as CSV.  Exit codes: 0 success, 1 domain error (JSON on stderr), 2 usage
error.  Stochastic commands refuse to run without an explicit --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .boundary import (
    conformal_barycenter,
    make_boundary_map,
    map_from_json,
    measure_from_json,
)
from .errors import HyprigError
from .hypcore import IdealPoint, SpacePoint, identity_isometry, make_isometry
from .lattice import covolume, load_preset, preset_names
from .regref import density_probe, orbit, reference_regular
from .rigidity import consensus, preserves_regular, verify_conjugacy
from .smear import milnor_wood_check, vol_of_rep, volume_ratio
from .volcocycle import v_n, vol, vol_defect


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _emit(payload, args):
    payload["config"] = {k: v for k, v in vars(args).items()
                         if k != "func" and v is not None}
    text = json.dumps(payload, indent=1)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text + "\n")


def _simplex_from_file(path):
    return [IdealPoint(np.asarray(v, dtype=float)) for v in _load_json(path)]


def _map_from_arg(spec, n):
    if spec == "planted-identity":
        return make_boundary_map("planted_isometry", g=identity_isometry(n))
    return map_from_json(_load_json(spec))


def cmd_vol(args):
    pts = _simplex_from_file(args.simplex)
    r = vol(pts, tol=args.tol, threads=args.threads) \
        if len(pts) - 1 >= 4 else vol(pts, tol=args.tol)
    _emit({"value": r.value, "abs_error": r.abs_error, "method": r.method}, args)
    return 0


def cmd_vn(args):
    _emit({"n": args.n, "value": v_n(args.n)}, args)
    return 0


def cmd_cocycle_check(args):
    if args.points:
        tuples = [[IdealPoint(np.asarray(v, dtype=float))
                   for v in _load_json(args.points)]]
    else:
        rng = np.random.default_rng(args.seed)
        tuples = []
        for _ in range(args.random):
            pts = rng.standard_normal((args.n + 2, args.n))
            tuples.append([IdealPoint(p / np.linalg.norm(p)) for p in pts])
    defects = [vol_defect(t) for t in tuples]
    _emit({"defects": defects, "max_abs_defect": max(abs(d) for d in defects)},
          args)
    return 0


def cmd_straighten(args):
    from .hypcore import straighten

    data = _load_json(args.input)
    n = args.n
    verts = []
    for v in data["vertices"]:
        v = np.asarray(v, dtype=float)
        verts.append(SpacePoint(v) if len(v) == n + 1 else IdealPoint(v))
    out = straighten(verts, np.asarray(data["t"], dtype=float))
    _emit({"point": out.coords.tolist()}, args)
    return 0


def cmd_barycenter(args):
    mu = measure_from_json(_load_json(args.measure))
    b = conformal_barycenter(mu, tol=args.tol)
    _emit({"point": b.coords.tolist()}, args)
    return 0


def cmd_orbit(args):
    s = reference_regular(args.n, 1)
    entries, pts = orbit(s, args.depth, max_size=args.max_size)
    payload = {
        "n": args.n,
        "depth": args.depth,
        "words": [list(w.letters) for w, _ in entries],
        "matrices": [w.resolved.matrix.tolist() for w, _ in entries],
        "vertices": pts.tolist(),
    }
    _emit(payload, args)
    return 0


def cmd_density_probe(args):
    if args.target:
        target = make_isometry(np.asarray(_load_json(args.target), dtype=float))
    else:
        from .hypcore import random_isometry

        target = random_isometry(np.random.default_rng(args.seed), args.n,
                                 max_translation=0.5)
    word, dist = density_probe(args.n, target, args.depth,
                               max_size=args.max_size)
    _emit({"word": list(word), "distance": dist}, args)
    return 0


def cmd_preset(args):
    if args.action == "list":
        _emit({"presets": preset_names()}, args)
        return 0
    p = load_preset(args.name)
    _emit({
        "name": p.name,
        "n": p.n,
        "generators": len(p.generators),
        "relators": [list(w) for w in p.relators],
        "cells": len(p.cells),
        "covolume": covolume(p),
        "cusp_floor": p.cusp_floor,
        "verified": True,
    }, args)
    return 0


def _run_ratio(args):
    p = load_preset(args.preset)
    phi = _map_from_arg(args.map, p.n)
    return p, phi, volume_ratio(p, phi, args.samples // args.simplices,
                                args.seed, m=args.simplices,
                                T=args.truncation)


def _diagnostics(est):
    return {"ess_frac": est.ess_frac, "max_weight": est.max_weight}


def cmd_smear(args):
    p, phi, lam = _run_ratio(args)
    payload = {
        "lambda": lam.value,
        "std_error": lam.std_error,
        "bias_bound": lam.bias_bound,
        "n_samples": lam.n_samples,
        "consistent": lam.consistent,
        "milnor_wood": milnor_wood_check(lam),
        "diagnostics": _diagnostics(lam),
    }
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["samples", "lambda", "std_error", "bias_bound"])
            for frac in (8, 4, 2, 1):
                n_i = max(args.samples // frac // args.simplices, 2)
                li = volume_ratio(p, phi, n_i, args.seed, m=args.simplices,
                                  T=args.truncation)
                w.writerow([n_i * args.simplices, li.value, li.std_error,
                            li.bias_bound])
    _emit(payload, args)
    return 0


def cmd_vol_of_rep(args):
    p = load_preset(args.preset)
    phi = _map_from_arg(args.map, p.n)
    est = vol_of_rep(p, phi, args.samples // args.simplices, args.seed,
                     m=args.simplices, T=args.truncation)
    _emit({"vol_of_rep": est.value, "std_error": est.std_error,
           "bias_bound": est.bias_bound, "covolume": p.covolume,
           "diagnostics": _diagnostics(est)}, args)
    return 0


def cmd_preserves_regular(args):
    phi = _map_from_arg(args.map, args.n)
    rep = preserves_regular(phi, args.n, trials=args.trials, tol=args.tol,
                            seed=args.seed)
    _emit({"trials": rep.trials, "pass_fraction": rep.pass_fraction,
           "orientation_mode": rep.orientation_mode, "tol": rep.tol}, args)
    return 0


def cmd_reconstruct(args):
    phi = _map_from_arg(args.map, args.n)
    h = consensus(phi, args.n, m=args.seeds, depth=args.depth, seed=args.seed)
    _emit({"matrix": h.matrix.tolist(), "sign": h.sign}, args)
    return 0


def cmd_verify_conjugacy(args):
    p = load_preset(args.preset)
    h = make_isometry(np.asarray(_load_json(args.h)["matrix"], dtype=float))
    rho = [make_isometry(np.asarray(m, dtype=float))
           for m in _load_json(args.rho)]
    _emit({"residual": verify_conjugacy(h, p, rho)}, args)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="hyprig")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out")
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("vol", help="signed volume of an ideal simplex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--simplex", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)
    p.set_defaults(func=cmd_vol)

    p = sub.add_parser("vn", help="volume of the regular ideal simplex")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_vn)

    p = sub.add_parser("cocycle-check", help="coboundary defect of Vol_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points")
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_cocycle_check, stochastic_if="random")

    p = sub.add_parser("straighten", help="evaluate a straightened simplex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_straighten)

    p = sub.add_parser("barycenter", help="conformal barycenter of a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("orbit", help="reflection orbit of the regular simplex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-size", type=int, default=200_000)
    common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("density-probe", help="word approximation of a target")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--target")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-size", type=int, default=200_000)
    common(p)
    p.set_defaults(func=cmd_density_probe, stochastic_if="no_target")

    p = sub.add_parser("preset", help="list or verify lattice presets")
    p.add_argument("action", choices=("list", "verify"))
    p.add_argument("name", nargs="?")
    common(p)
    p.set_defaults(func=cmd_preset)

    for name, fn in (("smear", cmd_smear), ("vol-of-rep", cmd_vol_of_rep)):
        p = sub.add_parser(name)
        p.add_argument("--preset", required=True)
        p.add_argument("--map", required=True)
        p.add_argument("--samples", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--truncation", type=float)
        p.add_argument("--simplices", type=int, default=8)
        p.add_argument("--csv")
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("preserves-regular")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_preserves_regular)

    p = sub.add_parser("reconstruct")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seeds", type=int, default=8)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify-conjugacy")
    p.add_argument("--preset", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--rho", required=True)
    common(p)
    p.set_defaults(func=cmd_verify_conjugacy)

    return ap


def run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # stochastic variants of otherwise deterministic commands
    gate = getattr(args, "stochastic_if", None)
    if gate == "random" and args.points is None:
        if args.seed is None or args.random <= 0:
            ap.exit(2, "cocycle-check without --points needs --random and --seed\n")
    if gate == "no_target" and args.target is None and args.seed is None:
        ap.exit(2, "density-probe without --target needs --seed\n")
    if args.command == "preset" and args.action == "verify" and not args.name:
        ap.exit(2, "preset verify needs a name\n")
    try:
        return args.func(args)
    except HyprigError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
