"""Monte-Carlo smearing of the volume cocycle over a lattice quotient.

For a boundary map phi and an ideal simplex xi, the smearing integral

    integral over the quotient of  eps(g) Vol_n(phi(g xi_0), ..., phi(g xi_n))

equals lambda times Vol_n(xi), where lambda = Vol(rho)/Vol(M) for the
representation behind phi.  The estimator reports the stochastic error of
the weighted sample mean and the deterministic cusp-truncation bias
separately, because the rigidity threshold |lambda| = 1 sits exactly on
the Milnor-Wood bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import evaluate_many
from .errors import IllConditioned
# act_ideal is not called here; hyprig_bench's tracer patches
# smear.act_ideal by name, so the name stays importable from this module.
from .hypcore import IdealPoint, act_ideal, act_ideal_many  # noqa: F401
from .lattice import (
    LatticePreset,
    default_truncation,
    sample_haar,
    truncation_error_bound,
)
from .volcocycle import v_n, vol_batch

VOLUME_FLOOR_FRACTION = 0.1
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its error split, and the importance
    weight diagnostics: the effective sample size over the sample count,
    (sum w)^2 / (N sum w^2), and the largest weight."""

    value: float
    std_error: float
    bias_bound: float
    n_samples: int
    seed: object
    ess_frac: float = 1.0
    max_weight: float = 1.0


@dataclass(frozen=True)
class RatioEstimate(McEstimate):
    """Inverse-variance combination of per-simplex ratios, with the
    proportionality consistency flag; ess_frac and max_weight are the
    worst over the simplices."""

    consistent: bool = True
    per_simplex: tuple = ()


def smear_integral(preset: LatticePreset, phi, xi, n_samples: int, seed,
                   T: float = None, stream: int = None) -> McEstimate:
    """Weighted Monte-Carlo estimate of the smearing integral at xi.

    Each sample g contributes w eps(g) Vol_n(phi(g xi_0), ..., phi(g xi_n));
    eps(g^{-1}) = eps(g)."""
    verts = np.array([v.coords for v in getattr(xi, "vertices", xi)])
    n = verts.shape[1]
    if T is None:
        T = default_truncation(preset)
    batch = sample_haar(preset, seed, n_samples, T=T, stream=stream)
    moved = act_ideal_many(batch.matrices, verts)  # (N, n+1, n)
    images = evaluate_many(phi, moved.reshape(-1, n)).reshape(moved.shape)
    w = batch.weights
    vals = w * batch.signs * vol_batch(images)
    value = float(vals.mean())
    std_error = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return McEstimate(value=value, std_error=std_error,
                      bias_bound=truncation_error_bound(preset, T),
                      n_samples=n_samples, seed=seed,
                      ess_frac=float(w.sum() ** 2 / (len(w) * (w @ w))),
                      max_weight=float(np.max(w, initial=0.0)))


def _random_test_simplices(rng, n: int, m: int, max_tries: int = 2000):
    """m well-separated ideal simplices with |Vol_n| above the floor, as
    an (m, n+1, n) array of vertices and their m signed volumes.

    Candidates are drawn 2m at a time, in the order a one-by-one draw
    would take them, until m pass or max_tries are spent."""
    floor = VOLUME_FLOOR_FRACTION * v_n(n)
    pts, vols = np.empty((0, n + 1, n)), np.empty(0)
    tried = 0
    while tried < max_tries:
        k = min(2 * m, max_tries - tried)
        tried += k
        cand = rng.standard_normal((k, n + 1, n))
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        cv = vol_batch(cand)
        keep = np.abs(cv) >= floor
        pts = np.concatenate([pts, cand[keep]])
        vols = np.concatenate([vols, cv[keep]])
        if len(vols) >= m:
            return pts[:m], vols[:m]
    raise IllConditioned(
        f"found {len(vols)}/{m} test simplices above the volume floor")


def volume_ratio(preset: LatticePreset, phi, n_samples: int, seed,
                 m: int = 8, T: float = None) -> RatioEstimate:
    """Estimate lambda = Vol(rho)/Vol(M) by ratio-averaging.

    Each of m test simplices gives an independent estimate
    smear_integral(xi)/Vol_n(xi); these are combined inverse-variance
    weighted, and the consistency flag records whether they pairwise
    agree within 3 sigma (the proportionality of the smeared cochain to
    the volume cocycle).
    """
    n = preset.n
    if T is None:
        T = default_truncation(preset)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    simplices, denoms = _random_test_simplices(rng, n, m)
    per, ests = [], []
    for i, (pts, denom) in enumerate(zip(simplices, denoms)):
        est = smear_integral(preset, phi, [IdealPoint(p) for p in pts],
                             n_samples, seed, T=T, stream=i)
        lam = est.value / denom
        sig = max(est.std_error / abs(denom), SIGMA_FLOOR)
        bias = est.bias_bound / abs(denom)
        per.append((lam, sig, bias))
        ests.append(est)

    lams = np.array([p[0] for p in per])
    sigs = np.array([p[1] for p in per])
    wts = 1.0 / sigs**2
    value = float(np.sum(wts * lams) / np.sum(wts))
    std_error = float(np.sum(wts) ** -0.5)
    bias = float(max(p[2] for p in per))
    consistent = True
    for i in range(m):
        for j in range(i + 1, m):
            gap = 3.0 * np.hypot(sigs[i], sigs[j]) + per[i][2] + per[j][2]
            if abs(lams[i] - lams[j]) > gap + 1e-12:
                consistent = False
    return RatioEstimate(value=value, std_error=std_error, bias_bound=bias,
                         n_samples=n_samples * m, seed=seed,
                         ess_frac=min(e.ess_frac for e in ests),
                         max_weight=max(e.max_weight for e in ests),
                         consistent=consistent, per_simplex=tuple(per))


def milnor_wood_check(est: McEstimate) -> dict:
    """Classify an estimate of lambda against the Milnor-Wood bound."""
    slack = 3.0 * est.std_error + est.bias_bound
    return {
        "passes": abs(est.value) <= 1.0 + slack,
        "maximal": abs(est.value) >= 1.0 - slack,
        "value": est.value,
        "slack": slack,
    }


def vol_of_rep(preset: LatticePreset, phi, n_samples: int, seed,
               m: int = 8, T: float = None) -> McEstimate:
    """Vol(rho) as lambda times the covolume, uncertainty propagated."""
    lam = volume_ratio(preset, phi, n_samples, seed, m=m, T=T)
    c = preset.covolume
    return McEstimate(value=lam.value * c, std_error=lam.std_error * c,
                      bias_bound=lam.bias_bound * c,
                      n_samples=lam.n_samples, seed=seed,
                      ess_frac=lam.ess_frac, max_weight=lam.max_weight)
