"""The array paths against independent or scalar references: the batched
smearing integral against the per-sample formula, vol3_batch against
quadrature, the exactness of vol2_batch, and the reproducibility and
diagnostics of the Haar sampler."""

import math

import numpy as np
import pytest

from hyprig.boundary import make_boundary_map
from hyprig.errors import DimensionMismatch
from hyprig.hypcore import (IdealPoint, act_ideal, act_ideal_many,
                            random_isometry)
from hyprig.lattice import default_truncation, load_preset, sample_haar
from hyprig.smear import smear_integral, volume_ratio
from hyprig.volcocycle import orientation_sign, vol, vol2_batch, vol3_batch, voln

PRESETS = ("figure_eight_3d", "test_reflection_2d")
KINDS = ("planted_isometry", "perturbed", "tabulated", "constant")


@pytest.fixture(scope="module")
def presets():
    return {name: load_preset(name) for name in PRESETS}


def unit_rows(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def make_map(kind, n, rng):
    g = random_isometry(rng, n, 1.0)
    if kind == "planted_isometry":
        return make_boundary_map(kind, g=g)
    if kind == "perturbed":
        return make_boundary_map(kind, g=g, amplitude=0.1, seed=3)
    if kind == "tabulated":
        pts = [IdealPoint(p) for p in unit_rows(rng, (500, n))]
        return make_boundary_map(kind, points=pts,
                                 images=[act_ideal(g, p) for p in pts],
                                 radius=2.0)
    return make_boundary_map(kind, point=IdealPoint(unit_rows(rng, n)))


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("kind", KINDS)
def test_smear_integral_matches_per_sample_formula(presets, name, kind):
    p = presets[name]
    rng = np.random.default_rng(KINDS.index(kind) + 10 * p.n)
    phi = make_map(kind, p.n, rng)
    verts = [IdealPoint(v) for v in unit_rows(rng, (p.n + 1, p.n))]
    N, seed, stream = 300, 17, 2
    est = smear_integral(p, phi, verts, N, seed, stream=stream)

    batch = sample_haar(p, seed, N, T=default_truncation(p), stream=stream)
    vals = [s.weight * s.g.sign
            * vol([phi(act_ideal(s.g, v)) for v in verts]).value
            for s in batch]
    assert len(vals) == N
    assert abs(est.value - np.mean(vals)) <= 1e-12
    assert abs(est.std_error - np.std(vals, ddof=1) / np.sqrt(N)) <= 1e-12
    if kind == "constant":
        assert est.value == 0.0


def test_evaluate_many_matches_evaluate(presets):
    rng = np.random.default_rng(5)
    for n in (2, 3):
        X = unit_rows(rng, (200, n))
        for kind in KINDS:
            phi = make_map(kind, n, rng)
            many = phi.evaluate_many(X)
            one = np.array([phi(IdealPoint(x)).coords for x in X])
            assert many.shape == X.shape
            assert np.max(np.abs(many - one)) <= 1e-14, kind


def test_act_ideal_many_matches_act_ideal():
    rng = np.random.default_rng(7)
    gs = [random_isometry(rng, 3, 2.0) for _ in range(6)]
    X = unit_rows(rng, (5, 3))
    one = act_ideal_many(gs[0].matrix, X)
    many = act_ideal_many(np.array([g.matrix for g in gs]), X)
    assert one.shape == X.shape and many.shape == (6, 5, 3)
    for i, g in enumerate(gs):
        ref = np.array([act_ideal(g, IdealPoint(x)).coords for x in X])
        assert np.max(np.abs(many[i] - ref)) <= 1e-14
        if i == 0:
            assert np.max(np.abs(one - ref)) <= 1e-14
    with pytest.raises(DimensionMismatch):
        act_ideal_many(random_isometry(rng, 2).matrix, X)
    with pytest.raises(DimensionMismatch):
        make_boundary_map("planted_isometry",
                          g=random_isometry(rng, 2)).evaluate_many(X)


def test_tabulated_batch_separates_near_coincident_points():
    """Table points 1e-9 apart: the batch lookup picks the row the scalar
    one does, and so the same image."""
    rng = np.random.default_rng(13)
    p = unit_rows(rng, 3)
    t = np.cross(p, unit_rows(rng, 3))
    t /= np.linalg.norm(t)
    q = p + 1e-9 * t
    q /= np.linalg.norm(q)
    others = unit_rows(rng, (20, 3))
    table = np.vstack([p, q, others])
    images = unit_rows(rng, (len(table), 3))
    phi = make_boundary_map(
        "tabulated", points=[IdealPoint(x) for x in table],
        images=[IdealPoint(y) for y in images], radius=1e-3)
    X = p + np.linspace(-1.0, 2.0, 31)[:, None] * (q - p)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    one = np.array([phi(IdealPoint(x)).coords for x in X])
    assert np.array_equal(phi.evaluate_many(X), one)
    # both table points win for some queries
    assert {tuple(y) for y in one} == {tuple(images[0]), tuple(images[1])}


def _near_flat_tetrahedron(rng, delta):
    """Three random points and a fourth on their circle, pushed off the
    circle's plane by delta along its normal."""
    p = unit_rows(rng, (3, 3))
    axis = np.cross(p[1] - p[0], p[2] - p[0])
    axis /= np.linalg.norm(axis)
    # rotating p0 about the plane normal keeps it on the sphere and plane
    th = rng.uniform(0.5, 2.0)
    q = (p[0] * math.cos(th) + np.cross(axis, p[0]) * math.sin(th)
         + axis * (axis @ p[0]) * (1.0 - math.cos(th)))
    q = q + delta * axis
    return np.vstack([p, q / np.linalg.norm(q)])


def test_vol3_batch_matches_quadrature():
    rng = np.random.default_rng(23)
    tets = [unit_rows(rng, (4, 3)) for _ in range(4)]
    tets += [_near_flat_tetrahedron(rng, d) for d in (1e-1, 1e-2, 1e-3)]
    batch = vol3_batch(np.array(tets))
    for P, v in zip(tets, batch):
        q = voln([IdealPoint(x) for x in P], tol=1e-8)
        assert abs(v - q.value) <= 1e-7 + q.abs_error


def test_vol3_batch_goes_to_zero_as_tetrahedra_flatten():
    rng = np.random.default_rng(29)
    for _ in range(5):
        base = rng.integers(2**31)
        vols = [abs(vol3_batch(_near_flat_tetrahedron(
            np.random.default_rng(base), d)[None])[0])
            for d in (1e-2, 1e-4, 1e-6, 0.0)]
        assert vols[0] > vols[1] > vols[2]
        assert vols[2] < 1e-4 and vols[3] < 1e-9


def test_vol2_batch_exact():
    rng = np.random.default_rng(31)
    P = unit_rows(rng, (500, 3, 2))
    v = vol2_batch(P)
    assert set(np.unique(v)) <= {math.pi, -math.pi}
    signs = [orientation_sign([IdealPoint(x) for x in tri]) for tri in P]
    assert np.array_equal(np.sign(v), signs)

    same = P.copy()
    same[:, 2] = same[:, 0]
    assert np.all(vol2_batch(same) == 0.0)
    # a gap above the coincidence cut but with a flat null-lift
    # determinant is flat too
    close = P.copy()
    close[:, 1] = close[:, 0] + 1e-11 * np.stack(
        [-close[:, 0, 1], close[:, 0, 0]], axis=1)
    close[:, 1] /= np.linalg.norm(close[:, 1], axis=1, keepdims=True)
    assert np.all(vol2_batch(close) == 0.0)


@pytest.mark.parametrize("name", PRESETS)
def test_sample_haar_bit_reproducible(presets, name):
    p = presets[name]
    fields = ("matrices", "signs", "weights", "cells")
    for seed, stream in ((42, None), (42, 0), (42, 5), (7, 5)):
        a = sample_haar(p, seed, 64, stream=stream)
        b = sample_haar(p, seed, 64, stream=stream)
        assert all(np.array_equal(getattr(a, f), getattr(b, f))
                   for f in fields)
    draws = [sample_haar(p, s, 64, stream=k).matrices
             for s, k in ((42, None), (42, 0), (42, 5), (7, 5))]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_haar_batch_items(presets):
    b = sample_haar(presets["figure_eight_3d"], 3, 20)
    assert len(b) == 20 and len(list(b)) == 20
    s = b[4]
    assert np.array_equal(s.g.matrix, b.matrices[4])
    assert (s.g.sign, s.weight, s.cell) == (b.signs[4], b.weights[4],
                                           b.cells[4])
    assert s.g.sign == (1 if np.linalg.det(s.g.matrix) > 0 else -1)


def test_weight_diagnostics(presets):
    p = presets["figure_eight_3d"]
    phi = make_boundary_map("planted_isometry",
                            g=random_isometry(np.random.default_rng(2), 3))
    verts = [IdealPoint(v) for v in unit_rows(np.random.default_rng(3), (4, 3))]
    est = smear_integral(p, phi, verts, 400, 9, stream=1)
    w = sample_haar(p, 9, 400, stream=1).weights
    assert est.ess_frac == pytest.approx(w.sum() ** 2 / (len(w) * (w @ w)),
                                         rel=1e-12)
    assert est.max_weight == w.max()
    assert 0.0 < est.ess_frac <= 1.0

    lam = volume_ratio(p, phi, 200, 9, m=3)
    per = [sample_haar(p, 9, 200, stream=i).weights for i in range(3)]
    ess = [w.sum() ** 2 / (len(w) * (w @ w)) for w in per]
    assert lam.ess_frac == pytest.approx(min(ess), rel=1e-12)
    assert lam.max_weight == max(w.max() for w in per)
