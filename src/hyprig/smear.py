"""Monte-Carlo smearing of the volume cocycle over a lattice quotient.

For a boundary map phi and an ideal simplex xi, the smearing integral

    integral over the quotient of  eps(g) Vol_n(phi(g xi_0), ..., phi(g xi_n))

equals lambda times Vol_n(xi), where lambda = Vol(rho)/Vol(M) for the
representation behind phi.  The Haar samples cover the whole quotient,
cusp included, so the estimate carries no deterministic bias: its
bias_bound is 0, and its error is the stochastic error of the weighted
sample mean.  That error is what decides the rigidity threshold
|lambda| = 1, which sits exactly on the Milnor-Wood bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import evaluate_many
from .errors import IllConditioned
# act_ideal is not called here; hyprig_bench's tracer patches
# smear.act_ideal by name, so the name stays importable from this module.
from .hypcore import act_ideal  # noqa: F401
from .lattice import LatticePreset, sample_haar
from .volcocycle import v_n, vol_batch

VOLUME_FLOOR_FRACTION = 0.1
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its error split, and the importance
    weight diagnostics: the effective sample size over the sample count,
    (sum w)^2 / (N sum w^2), and the largest weight.  bias_bound is the
    deterministic part of the error, 0 for the smearing estimates, whose
    samples cover the whole quotient."""

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


# rows of Haar samples one fused pass of volume_ratio holds: its m test
# simplices are smeared in groups of max(1, SAMPLE_BLOCK // n_samples)
SAMPLE_BLOCK = 4096


def _smear_block(preset, phi, simplices, n_samples, seed, stream):
    """The weighted smearing values of a block of simplices (k, n+1, n),
    simplex i on the n_samples Haar samples of stream[i] (or, for k = 1,
    of the one stream ``stream``), as (k, N) values and (k, N) weights.

    The k streams are drawn in one sample_haar call, and each sample
    moves its simplex through `HaarBatch.act_ideal`, from its base point
    and frame: no isometry matrix is formed."""
    k, n = simplices.shape[0], simplices.shape[-1]
    batch = sample_haar(preset, seed, n_samples, stream=stream)
    moved = batch.act_ideal(simplices)
    images = evaluate_many(phi, moved.reshape(-1, n))
    vols = vol_batch(images.reshape(-1, n + 1, n)).reshape(k, n_samples)
    w = batch.weights.reshape(k, n_samples)
    return w * batch.signs.reshape(k, n_samples) * vols, w


def _row_stats(vals, w):
    """Per row of (k, N) values and weights: the mean, its standard
    error, the weights' effective sample fraction and largest weight."""
    N = vals.shape[1]
    value = vals.sum(axis=1) / N
    dev = vals - value[:, None]
    std_error = (np.sqrt(np.einsum("ij,ij->i", dev, dev) / ((N - 1) * N))
                 if N > 1 else np.zeros(len(vals)))
    ess = w.sum(axis=1) ** 2 / (N * np.einsum("ij,ij->i", w, w))
    return value, std_error, ess, np.max(w, axis=1, initial=0.0)


def smear_integral(preset: LatticePreset, phi, xi, n_samples: int, seed,
                   stream: int = None) -> McEstimate:
    """Weighted Monte-Carlo estimate of the smearing integral at xi.

    Each sample g contributes w eps(g) Vol_n(phi(g xi_0), ..., phi(g xi_n));
    eps(g^{-1}) = eps(g)."""
    verts = np.array([v.coords for v in getattr(xi, "vertices", xi)])
    value, std_error, ess, max_w = _row_stats(*_smear_block(
        preset, phi, verts[None], n_samples, seed, stream))
    return McEstimate(value=float(value[0]), std_error=float(std_error[0]),
                      bias_bound=0.0, n_samples=n_samples, seed=seed,
                      ess_frac=float(ess[0]), max_weight=float(max_w[0]))


def _random_test_simplices(rng, n: int, m: int, max_tries: int = 2000):
    """m well-separated ideal simplices with |Vol_n| above the floor, as
    an (m, n+1, n) array of vertices and their m signed volumes.

    Candidates are drawn 2m at a time, in the order a one-by-one draw
    would take them, until m pass or max_tries are spent."""
    floor = VOLUME_FLOOR_FRACTION * v_n(n)
    rounds, found, tried = [], 0, 0
    while tried < max_tries:
        k = min(2 * m, max_tries - tried)
        tried += k
        cand = rng.standard_normal((k, n + 1, n))
        # the arithmetic of np.linalg.norm(cand, axis=2, keepdims=True),
        # without its call overhead
        cand /= np.sqrt(np.add.reduce(cand * cand, axis=2, keepdims=True))
        cv = vol_batch(cand)
        keep = np.abs(cv) >= floor
        rounds.append((cand[keep], cv[keep]))
        found += int(np.count_nonzero(keep))
        if found >= m:
            pts, vols = (rounds[0] if len(rounds) == 1
                         else map(np.concatenate, zip(*rounds)))
            return pts[:m], vols[:m]
    raise IllConditioned(
        f"found {found}/{m} test simplices above the volume floor")


def volume_ratio(preset: LatticePreset, phi, n_samples: int, seed,
                 m: int = 8) -> RatioEstimate:
    """Estimate lambda = Vol(rho)/Vol(M) by ratio-averaging.

    Each of m test simplices gives an independent estimate
    smear_integral(xi)/Vol_n(xi), simplex i on stream i of the seed;
    these are combined inverse-variance weighted, and the consistency
    flag records whether they pairwise agree within 3 sigma (the
    proportionality of the smeared cochain to the volume cocycle).

    The test simplices are drawn from ``SeedSequence(seed,
    spawn_key=(0,))``, the child ``SeedSequence(seed).spawn(1)[0]``.
    That is also stream 0 of sample_haar, so simplex 0's vertices and
    the cells and feet of its own samples come from the same 64-bit
    words of one generator: they are not independent draws.

    The simplices are smeared in groups of max(1, SAMPLE_BLOCK //
    n_samples), each group's streams in one array pass; the result is
    bit for bit that of m separate smear_integral calls.  Every sample
    moves its simplex from its base point and frame (`_smear_block`), so
    no isometry matrix is formed.
    """
    if n_samples < 2:
        raise ValueError("volume_ratio needs n_samples >= 2 per simplex for "
                         f"a standard error, got {n_samples}")
    n = preset.n
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    simplices, denoms = _random_test_simplices(rng, n, m)
    # each group's statistics are taken before the next group is drawn,
    # so the samples of one group at a time are held, never all m streams
    group = max(1, SAMPLE_BLOCK // n_samples)
    stats = [_row_stats(*_smear_block(preset, phi, simplices[i:i + group],
                                      n_samples, seed,
                                      range(i, min(i + group, m))))
             for i in range(0, m, group)]
    value, std_error, ess, max_w = (np.concatenate(a) for a in zip(*stats))

    scale = np.abs(denoms)
    lams = value / denoms
    sigs = np.maximum(std_error / scale, SIGMA_FLOOR)
    wts = 1.0 / sigs**2
    # pairwise agreement within 3 sigma
    gap = 3.0 * np.hypot(sigs[:, None], sigs)
    # symmetric, with a false diagonal
    clash = np.abs(lams[:, None] - lams) > gap + 1e-12
    total = np.sum(wts)
    return RatioEstimate(
        value=float(np.sum(wts * lams) / total),
        std_error=float(total ** -0.5), bias_bound=0.0,
        n_samples=n_samples * m, seed=seed, ess_frac=float(ess.min()),
        max_weight=float(max_w.max()),
        consistent=not clash.any(),
        per_simplex=tuple(zip(lams.tolist(), sigs.tolist(), [0.0] * m)))


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
               m: int = 8) -> McEstimate:
    """Vol(rho) as lambda times the covolume, uncertainty propagated."""
    lam = volume_ratio(preset, phi, n_samples, seed, m=m)
    c = preset.covolume
    return McEstimate(value=lam.value * c, std_error=lam.std_error * c,
                      bias_bound=lam.bias_bound * c,
                      n_samples=lam.n_samples, seed=seed,
                      ess_frac=lam.ess_frac, max_weight=lam.max_weight)
