"""Command-line entry point.

One verb per computation: volumes and constants, cocycle checks,
straightening, barycenters, reflection orbits, preset inspection, the
smearing estimator and the rigidity pipeline.  Outputs are JSON with the
parsed configuration and the hyprig and NumPy versions echoed; estimate
sweeps can additionally be written as CSV.  Exit codes: 0 success, 1
domain error (JSON on stderr), 2 usage error, including an input file
that cannot be read or parsed and an output file that cannot be written
(checked before any work).
Stochastic commands refuse to run without an explicit --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .boundary import (
    conformal_barycenter,
    make_boundary_map,
    map_from_json,
    measure_from_json,
)
from .errors import DimensionMismatch, HyprigError
from .hypcore import IdealPoint, SpacePoint, identity_isometry, make_isometry
from .lattice import load_preset, preset_names
from .regref import density_probe, orbit, reference_regular, walk_size
from .rigidity import consensus, preserves_regular, verify_conjugacy
from .smear import milnor_wood_check, vol_of_rep, volume_ratio
from .volcocycle import v_n, vol, vol_defect


class _BadFile(Exception):
    """A file flag whose input cannot be read or parsed, or whose output
    cannot be written."""

    def __init__(self, flag, path, exc):
        super().__init__(f"--{flag} {path}: {type(exc).__name__}: "
                         f"{exc}".replace("\n", " "))


def _load(args, flag, parse):
    """parse applied to the JSON in the file named by the flag; a file
    that cannot be opened or parsed raises _BadFile naming the flag."""
    path = getattr(args, flag)
    try:
        with open(path) as f:
            return parse(json.load(f))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _BadFile(flag, path, exc) from exc


def _check_writable(args, flag):
    """Raise _BadFile naming the flag if its output file cannot be opened
    for writing; a file the check creates is removed again."""
    path = getattr(args, flag, None)
    if path:
        existed = os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise _BadFile(flag, path, exc) from exc
        if not existed:
            os.remove(path)


def _ideal_points(rows, n, count):
    """count boundary points of S^{n-1} from a list of coordinate rows."""
    P = np.asarray(rows, dtype=float)
    if P.shape != (count, n):
        raise DimensionMismatch(f"--n {n} needs {count} points of S^{n - 1}, "
                                f"got coordinates of shape {P.shape}")
    return [IdealPoint(p) for p in P]


def _emit(payload, args):
    payload["config"] = {k: v for k, v in vars(args).items()
                         if k != "func" and v is not None}
    payload["versions"] = {"hyprig": __version__, "numpy": np.__version__}
    text = json.dumps(payload, indent=1)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text + "\n")


def _map_from_arg(args, n):
    if args.map == "planted-identity":
        return make_boundary_map("planted_isometry", g=identity_isometry(n))
    return _load(args, "map", map_from_json)


def cmd_vol(args):
    pts = _load(args, "simplex",
                lambda rows: _ideal_points(rows, args.n, args.n + 1))
    r = vol(pts)
    _emit({"value": r.value, "abs_error": r.abs_error, "method": r.method}, args)
    return 0


def cmd_vn(args):
    _emit({"n": args.n, "value": v_n(args.n)}, args)
    return 0


def cmd_cocycle_check(args):
    if args.points:
        tuples = [_load(args, "points",
                        lambda rows: _ideal_points(rows, args.n, args.n + 2))]
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

    n = args.n

    def vertex(v):
        v = np.asarray(v, dtype=float)
        if len(v) not in (n, n + 1):
            raise DimensionMismatch(f"vertex of length {len(v)} for --n {n}")
        return SpacePoint(v) if len(v) == n + 1 else IdealPoint(v)

    verts, t = _load(args, "input", lambda data: (
        [vertex(v) for v in data["vertices"]],
        np.asarray(data["t"], dtype=float)))
    out = straighten(verts, t)
    _emit({"point": out.coords.tolist()}, args)
    return 0


def cmd_barycenter(args):
    mu = _load(args, "measure", measure_from_json)
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
        target = _load(args, "target", lambda rows: make_isometry(
            np.asarray(rows, dtype=float)))
        if target.n != args.n:
            raise DimensionMismatch(
                f"--target is an isometry of H^{target.n}, --n is {args.n}")
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
        "covolume": p.covolume,
        "verified": True,
    }, args)
    return 0


def _run_ratio(args):
    p = load_preset(args.preset)
    phi = _map_from_arg(args, p.n)
    return p, phi, volume_ratio(p, phi, args.samples // args.simplices,
                                args.seed, m=args.simplices)


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
                li = volume_ratio(p, phi, n_i, args.seed, m=args.simplices)
                w.writerow([n_i * args.simplices, li.value, li.std_error,
                            li.bias_bound])
    _emit(payload, args)
    return 0


def cmd_vol_of_rep(args):
    p = load_preset(args.preset)
    phi = _map_from_arg(args, p.n)
    est = vol_of_rep(p, phi, args.samples // args.simplices, args.seed,
                     m=args.simplices)
    _emit({"vol_of_rep": est.value, "std_error": est.std_error,
           "bias_bound": est.bias_bound, "covolume": p.covolume,
           "diagnostics": _diagnostics(est)}, args)
    return 0


def cmd_preserves_regular(args):
    phi = _map_from_arg(args, args.n)
    rep = preserves_regular(phi, args.n, trials=args.trials, tol=args.tol,
                            seed=args.seed)
    _emit({"trials": rep.trials, "pass_fraction": rep.pass_fraction,
           "orientation_mode": rep.orientation_mode, "tol": rep.tol}, args)
    return 0


def cmd_reconstruct(args):
    phi = _map_from_arg(args, args.n)
    h = consensus(phi, args.n, m=args.seeds, depth=args.depth, seed=args.seed)
    walk = walk_size(args.n, args.depth)
    # the pass maps each seed's n + 1 vertices and one fresh vertex per
    # simplex past the root
    _emit({"matrix": h.matrix.tolist(), "sign": h.sign,
           "diagnostics": {"walk_size": walk,
                           "phi_points": args.seeds * (args.n + walk)}}, args)
    return 0


def cmd_verify_conjugacy(args):
    p = load_preset(args.preset)
    h = _load(args, "h", lambda obj: make_isometry(
        np.asarray(obj["matrix"], dtype=float)))
    rho = _load(args, "rho", lambda rows: [
        make_isometry(np.asarray(m, dtype=float)) for m in rows])
    _emit({"residual": verify_conjugacy(h, p, rho)}, args)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="hyprig")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out")

    p = sub.add_parser("vol", help="signed volume of an ideal simplex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--simplex", required=True)
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
    p.set_defaults(func=cmd_cocycle_check)

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
    p.set_defaults(func=cmd_density_probe)

    p = sub.add_parser("preset", help="list or verify lattice presets")
    p.add_argument("action", choices=("list", "verify"))
    p.add_argument("name", nargs="?")
    common(p)
    p.set_defaults(func=cmd_preset)

    for name, fn, about in (
            ("smear", cmd_smear,
             "lambda = Vol(rho)/Vol(M) by smearing the volume cocycle over "
             "the whole quotient, cusp included (bias_bound 0)"),
            ("vol-of-rep", cmd_vol_of_rep,
             "Vol(rho) as lambda times the covolume, by the same smearing")):
        p = sub.add_parser(name, help=about, description=about)
        p.add_argument("--preset", required=True)
        p.add_argument("--map", required=True)
        p.add_argument("--samples", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
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
    if args.command == "cocycle-check" and args.points is None and (
            args.seed is None or args.random <= 0):
        ap.exit(2, "cocycle-check without --points needs --random and "
                   "--seed\n")
    if args.command == "density-probe" and args.target is None \
            and args.seed is None:
        ap.exit(2, "density-probe without --target needs --seed\n")
    if args.command == "preset" and args.action == "verify" and not args.name:
        ap.exit(2, "preset verify needs a name\n")
    if args.command in ("smear", "vol-of-rep") and (
            args.simplices < 1 or args.samples < 2 * args.simplices):
        ap.exit(2, f"{args.command} needs --simplices >= 1 and at least two "
                   "--samples per simplex\n")
    if getattr(args, "depth", 0) < 0:
        ap.exit(2, f"{args.command} needs --depth >= 0\n")
    if args.command == "reconstruct" and args.seeds < 2:
        ap.exit(2, "reconstruct needs --seeds >= 2\n")
    if args.command == "preserves-regular" and args.trials < 1:
        ap.exit(2, "preserves-regular needs --trials >= 1\n")
    try:
        _check_writable(args, "out")
        _check_writable(args, "csv")
        return args.func(args)
    except HyprigError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except _BadFile as exc:
        ap.exit(2, f"{exc}\n")


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
