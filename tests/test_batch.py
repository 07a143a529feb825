"""The array paths against independent or scalar references: the batched
smearing integral against the per-sample formula, the fused
volume_ratio against per-simplex smear_integral calls, the boundary maps
against point-by-point reference loops, vol3_batch against quadrature,
the exactness of vol2_batch, vol_batch against vol at n = 4, and the
reproducibility, stream stacking, half-space lift and diagnostics of the
Haar sampler, its closed-form matrices, and its matrix-free action against
a 50-digit reference and on the smear path."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from hyprig.boundary import make_boundary_map
from hyprig.errors import DimensionMismatch
from hyprig.hypcore import (IdealPoint, act_ideal, act_ideal_many,
                            halfspace_to_hyperboloid, null_lifts,
                            random_isometries, random_isometry)
from hyprig.lattice import HaarBatch, load_preset, sample_haar
from hyprig.regref import reference_vertices
from hyprig.smear import (SAMPLE_BLOCK, SIGMA_FLOOR, RatioEstimate,
                          _random_test_simplices, _smear_block,
                          smear_integral, volume_ratio)
from hyprig.volcocycle import (orientation_sign, vol, vol2_batch, vol3_batch,
                               vol_batch, voln)

PRESETS = ("figure_eight_3d", "test_reflection_2d")
KINDS = ("planted_isometry", "perturbed", "tabulated", "constant")


@pytest.fixture(scope="module")
def presets():
    return {name: load_preset(name) for name in PRESETS}


def unit_rows(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def make_map(kind, n, rng, table_size=500):
    g = random_isometry(rng, n, 1.0)
    if kind == "planted_isometry":
        return make_boundary_map(kind, g=g)
    if kind == "perturbed":
        return make_boundary_map(kind, g=g, amplitude=0.1, seed=3)
    if kind == "tabulated":
        pts = [IdealPoint(p) for p in unit_rows(rng, (table_size, n))]
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

    batch = sample_haar(p, seed, N, stream=stream)
    vals = [s.weight * s.g.sign
            * vol([phi(act_ideal(s.g, v)) for v in verts]).value
            for s in batch]
    assert len(vals) == N
    assert abs(est.value - np.mean(vals)) <= 1e-12
    assert abs(est.std_error - np.std(vals, ddof=1) / np.sqrt(N)) <= 1e-12
    if kind == "constant":
        assert est.value == 0.0


def reference_volume_ratio(p, phi, n_samples, seed, m):
    """volume_ratio as m separate smear_integral calls, one per test
    simplex on its own stream, combined by explicit loops."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    simplices, denoms = _random_test_simplices(rng, p.n, m)
    per, ests = [], []
    for i, (pts, denom) in enumerate(zip(simplices, denoms)):
        est = smear_integral(p, phi, [IdealPoint(x) for x in pts],
                             n_samples, seed, stream=i)
        per.append((est.value / denom,
                    max(est.std_error / abs(denom), SIGMA_FLOOR),
                    est.bias_bound / abs(denom)))
        ests.append(est)
    lams, sigs, biases = (np.array(c) for c in zip(*per))
    wts = 1.0 / sigs**2
    consistent = True
    for i in range(m):
        for j in range(i + 1, m):
            gap = 3.0 * np.hypot(sigs[i], sigs[j]) + biases[i] + biases[j]
            if abs(lams[i] - lams[j]) > gap + 1e-12:
                consistent = False
    return RatioEstimate(
        value=float(np.sum(wts * lams) / np.sum(wts)),
        std_error=float(np.sum(wts) ** -0.5), bias_bound=float(max(biases)),
        n_samples=n_samples * m, seed=seed,
        ess_frac=min(e.ess_frac for e in ests),
        max_weight=max(e.max_weight for e in ests),
        consistent=consistent, per_simplex=tuple(per))


def bits(x):
    """x with every float replaced by its exact hex form."""
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    return float(x).hex() if isinstance(x, float) else x


# all 8 streams in one group; 3 streams per group, which does not divide
# m = 8; one stream per group
@pytest.mark.parametrize("n_samples", (32, SAMPLE_BLOCK // 3 - 1,
                                       SAMPLE_BLOCK))
@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("kind", KINDS)
def test_volume_ratio_matches_per_simplex_loop_bit_for_bit(
        presets, name, kind, n_samples):
    p = presets[name]
    # a small table keeps the tabulated lookups of 2 x 8 x 4096 samples quick
    phi = make_map(kind, p.n, np.random.default_rng(KINDS.index(kind) + 40),
                   table_size=40)
    seed = 11 + n_samples
    got = volume_ratio(p, phi, n_samples, seed, m=8)
    want = reference_volume_ratio(p, phi, n_samples, seed, 8)
    assert bits(dataclasses.astuple(got)) == bits(dataclasses.astuple(want))


def reference_map(phi, X):
    """The images of the rows of X under phi, one point at a time, from
    the definition of each map kind rather than from its evaluators."""
    p = phi.params
    if phi.kind == "planted_isometry":
        return np.array([act_ideal(p["g"], IdealPoint(x)).coords for x in X])
    if phi.kind == "perturbed":
        g, n = p["g"], p["g"].n
        rng = np.random.default_rng(p["seed"])
        A = rng.standard_normal((n, n))
        c = rng.standard_normal(n)
        bound = np.linalg.norm(A, 2) + np.linalg.norm(c)
        out = []
        for x in X:
            eta = act_ideal(g, IdealPoint(x)).coords
            raw = (A @ x + c) / bound
            y = eta + p["amplitude"] * (raw - np.dot(raw, eta) * eta)
            out.append(y / np.linalg.norm(y))
        return np.array(out)
    if phi.kind == "tabulated":
        table = np.array([q.coords for q in p["points"]])
        out = []
        for x in X:
            d = np.linalg.norm(table - x, axis=1)
            i = int(np.argmin(d))
            assert d[i] <= p["radius"]
            out.append(p["images"][i].coords)
        return np.array(out)
    return np.tile(p["point"].coords, (len(X), 1))


def test_evaluate_many_matches_evaluate(presets):
    rng = np.random.default_rng(5)
    for n in (2, 3):
        X = unit_rows(rng, (200, n))
        for kind in KINDS:
            phi = make_map(kind, n, rng)
            many = phi.evaluate_many(X)
            one = np.array([phi(IdealPoint(x)).coords for x in X])
            ref = reference_map(phi, X)
            assert many.shape == X.shape
            assert np.max(np.abs(many - ref)) <= 1e-14, kind
            assert np.max(np.abs(one - ref)) <= 1e-14, kind
            if kind in ("tabulated", "constant"):
                assert np.array_equal(many, ref) and np.array_equal(one, ref)


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


def _act_ideal_many_rows(M, X):
    """act_ideal_many by its row formula: the null lifts times M^T, then
    the division by the last coordinate and the normalisation along the
    last axis, n long."""
    Y = np.matmul(null_lifts(X), np.swapaxes(M, -1, -2))
    V = Y[..., :-1] / Y[..., -1:]
    return V / np.sqrt(np.add.reduce(V * V, axis=-1, keepdims=True))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_act_ideal_many_planes_are_the_row_formula(n):
    """act_ideal_many forms M L^T on coordinate planes and copies the
    images back into rows: bit for bit the row formula, C-contiguous, for
    one matrix on N points, N matrices on the k = n+1 vertices of a
    simplex, N matrices each on its own point or block (the reflection
    walk's and the stacked solve's shapes), and matrices and blocks
    broadcast against each other, at N = 1, 16, 1288 (the consensus
    walk) and 35008."""
    rng = np.random.default_rng(80 + n)
    for N in (1, 16, 1288, 35008):
        M, _ = random_isometries(rng, n, N, max_translation=2.0)
        cases = [(M[0], unit_rows(rng, (N, n))),
                 (M, unit_rows(rng, (n + 1, n))),
                 (M, unit_rows(rng, (N, 1, n))),
                 (M, unit_rows(rng, (N, n + 1, n))),
                 (M[:2, None], unit_rows(rng, (3, N, n))),
                 (M[:3, None], unit_rows(rng, (1, N, n)))]
        for A, X in cases:
            got = act_ideal_many(A, X)
            want = _act_ideal_many_rows(A, X)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got, want), (N, A.shape, X.shape)


def test_tabulated_batch_separates_near_coincident_points():
    """Table points 1e-9 apart: the batch and one-point lookups pick the
    row the reference loop does, and so the same image."""
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
    ref = reference_map(phi, X)
    assert np.array_equal(phi.evaluate_many(X), ref)
    assert np.array_equal(np.array([phi(IdealPoint(x)).coords for x in X]), ref)
    # both table points win for some queries
    assert {tuple(y) for y in ref} == {tuple(images[0]), tuple(images[1])}


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
    # a gap of 1e-11 is above the coincidence cut, and the triangle is a
    # genuine ideal one however small its null-lift determinant: vertex
    # 1 sits just counterclockwise of vertex 0
    close = P.copy()
    close[:, 1] = close[:, 0] + 1e-11 * np.stack(
        [-close[:, 0, 1], close[:, 0, 0]], axis=1)
    close[:, 1] /= np.linalg.norm(close[:, 1], axis=1, keepdims=True)
    assert np.all(vol2_batch(close) == math.pi)


def test_vol_batch_matches_vol_bit_for_bit_n4():
    rng = np.random.default_rng(37)
    P = unit_rows(rng, (200, 5, 4))
    P[1, 3] = P[1, 0]                        # coincident vertices
    P[2, :, 3] = 0.0                         # flat: on a great 2-sphere
    P[2] = P[2] / np.linalg.norm(P[2], axis=1, keepdims=True)
    P[3, 4] = P[3, 0] + 1e-7 * rng.standard_normal(4)    # nearly coincident
    P[3, 4] /= np.linalg.norm(P[3, 4])
    batch = vol_batch(P)
    scalar = [vol([IdealPoint(x) for x in s]) for s in P]
    assert np.array_equal(batch, [r.value for r in scalar])
    assert batch[1] == 0.0 and batch[2] == 0.0 and batch[3] != 0.0
    assert {r.method for r in scalar} == {"schlafli4"}


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


@pytest.mark.parametrize("name", PRESETS)
def test_sample_haar_stream_sequence_stacks_single_streams(presets, name):
    p = presets[name]
    fields = ("matrices", "signs", "weights", "cells")
    streams = (4, 0, 9)
    stacked = sample_haar(p, 42, 50, stream=list(streams))
    single = [sample_haar(p, 42, 50, stream=k) for k in streams]
    assert len(stacked) == 150
    for f in fields:
        assert np.array_equal(getattr(stacked, f),
                              np.concatenate([getattr(b, f) for b in single]))
    for stream in (None, 3):
        a = sample_haar(p, 42, 50, stream=stream)
        b = sample_haar(p, 42, 50, stream=[stream])
        assert all(np.array_equal(getattr(a, f), getattr(b, f))
                   for f in fields)


def _numpy_draws(p, seed, N, stream):
    """The cells, weights, Gaussian frame blocks and generator of one
    stream, drawn with Generator.choice and Generator.dirichlet, and the
    weights as the density ratio written out: the invariant density over
    the foot, area h^{-d}/d over the covolume, against the chance
    p_cell of the foot's cell."""
    n, d, ch = p.n, p.n - 1, p.charts
    p_cell = ch.volume / ch.volume.sum()
    rng = np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=() if stream is None else (stream,)))
    cells = rng.choice(len(p_cell), size=N, p=p_cell)
    lam = rng.dirichlet(np.ones(d + 1), size=N)
    u = rng.uniform(size=N)
    gauss = rng.standard_normal((N, n, n))
    x = np.einsum("ij,ijk->ik", lam, ch.base[cells])
    off = x - ch.center[cells]
    h2 = np.maximum(ch.radius[cells] ** 2 - np.einsum("ij,ij->i", off, off),
                    1e-300)
    h = np.sqrt(h2)
    weights = ch.area[cells] * h ** (-d) / d / p.covolume / p_cell[cells]
    return cells, weights, gauss, rng


@pytest.mark.parametrize("name", PRESETS)
def test_sample_haar_draws_are_numpys_choice_and_dirichlet(
        presets, name, monkeypatch):
    """sample_haar's inverse-CDF cells and exponential-spacing feet are
    the draws of Generator.choice(p=...) and Generator.dirichlet(ones),
    bit for bit, and leave the generator in the same state; its weights
    are the density ratio to rounding, and its frames have the
    orientations of the Gaussian blocks' QR frames."""
    p = presets[name]
    made = []
    default_rng = np.random.default_rng

    def recording_rng(*args):
        made.append(default_rng(*args))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    for stream in (None, 0, 5, [4, 0, 9]):
        made.clear()
        batch = sample_haar(p, 42, 64, stream=stream)
        rngs = made.copy()
        refs = [_numpy_draws(p, 42, 64, k)
                for k in (stream if isinstance(stream, list) else [stream])]
        cells, weights, gauss = (np.concatenate(a)
                                 for a in zip(*(r[:3] for r in refs)))
        assert np.array_equal(batch.cells, cells)
        assert np.allclose(batch.weights, weights, rtol=1e-13, atol=0.0)
        assert [g.random() for g in rngs] == [r[3].random() for r in refs]
        Q, R = np.linalg.qr(gauss)
        frames = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
        assert np.array_equal(batch.signs,
                              np.where(np.linalg.det(frames) > 0, 1, -1))


def test_halfspace_lift_matches_sample_haar_closed_form():
    """halfspace_to_hyperboloid bit for bit against the lift sample_haar
    wrote out inline, on batches of feet x and heights t in R^d for the
    presets' d = 1, 2 and for d = 3."""
    rng = np.random.default_rng(73)
    for d in (1, 2, 3):
        x = rng.uniform(-1.0, 1.0, (500, d))
        t = rng.uniform(0.5, 40.0, 500)
        s = np.einsum("ij,ij->i", x, x) + t * t
        y = np.concatenate([x / t[:, None], ((s - 1.0) / (2.0 * t))[:, None]],
                           axis=1)
        y0 = (s + 1.0) / (2.0 * t)
        Y = halfspace_to_hyperboloid(x, t)
        assert np.array_equal(Y[:, :-1], y) and np.array_equal(Y[:, -1], y0)


def test_haar_batch_items(presets):
    b = sample_haar(presets["figure_eight_3d"], 3, 20)
    assert len(b) == 20 and len(list(b)) == 20
    s = b[4]
    assert np.array_equal(s.g.matrix, b.matrices[4])
    assert (s.g.sign, s.weight, s.cell) == (b.signs[4], b.weights[4],
                                           b.cells[4])
    assert s.g.sign == (1 if np.linalg.det(s.g.matrix) > 0 else -1)


@pytest.mark.parametrize("name", PRESETS)
def test_haar_batch_matrices_are_the_closed_form(presets, name):
    """matrices is [[R + y yR^T/(1+y0), y], [yR^T, y0]], yR = R^T y, from
    the batch's base points and frames, bit for bit and formed once; it
    carries the basepoint to the base point, and the samples built from
    it are unchanged."""
    p = presets[name]
    n = p.n
    b = sample_haar(p, 3, 200, stream=[0, 5])
    y, y0, R = b.points[:, :n], b.points[:, n], b.frames
    yR = np.einsum("ij,ijk->ik", y, R)
    M = np.empty((400, n + 1, n + 1))
    M[:, :n, :n] = R + (y[:, :, None] * yR[:, None, :]
                       / (1.0 + y0)[:, None, None])
    M[:, :n, n] = y
    M[:, n, :n] = yR
    M[:, n, n] = y0
    assert np.array_equal(b.matrices, M)
    assert b.matrices is b.matrices
    assert np.array_equal(b.matrices[:, :, n], b.points)
    for i in (0, 7, 399):
        s = b[i]
        assert np.array_equal(s.g.matrix, M[i])
        assert (s.g.sign, s.weight, s.cell) == (b.signs[i], b.weights[i],
                                               b.cells[i])


def _exact_action(points, frames, X):
    """The transvection-and-frame action of each sample on the points X
    (m, n), in 50-digit arithmetic on the samples' floats."""
    n = frames.shape[-1]
    out = np.empty((len(points), len(X), n))
    with mpmath.workdps(50):
        for i, (P, R) in enumerate(zip(points, frames)):
            y = [mpmath.mpf(float(v)) for v in P[:n]]
            y0 = mpmath.mpf(float(P[n]))
            for j, x in enumerate(X):
                eta = [mpmath.fsum(mpmath.mpf(float(R[a, b])) * float(x[b])
                                   for b in range(n)) for a in range(n)]
                s = mpmath.fsum(ya * ea for ya, ea in zip(y, eta))
                c = s / (1 + y0) + 1
                V = [ea + c * ya for ea, ya in zip(eta, y)]
                norm = mpmath.sqrt(mpmath.fsum(v * v for v in V))
                out[i, j] = [float(v / norm) for v in V]
    return out


def test_haar_act_ideal_is_as_accurate_as_the_matrices(presets):
    """On the 100 highest of 20 000 samples of each preset, where the
    action cancels most, the matrix-free act_ideal is no less accurate
    than act_ideal_many on the matrices, against a 50-digit reference.
    Both forms lose digits like u y0^2 on points near the repelling end,
    and which one is closer on one sample is a matter of rounding, so the
    largest and the root-mean-square errors are compared over four seeds,
    both presets and two simplices each."""
    errors = {"free": [], "matrices": []}
    for name in PRESETS:
        p = presets[name]
        n = p.n
        simplices = (reference_vertices(n),
                     unit_rows(np.random.default_rng(n), (n + 1, n)))
        for seed in range(1, 5):
            b = sample_haar(p, seed, 20_000)
            top = np.argsort(b.points[:, n])[-100:]
            for X in simplices:
                exact = _exact_action(b.points[top], b.frames[top], X)
                free = b.act_ideal(X[None])[top]
                assert free.shape == exact.shape
                errors["free"].append(np.abs(free - exact).ravel())
                errors["matrices"].append(np.abs(
                    act_ideal_many(b.matrices[top], X) - exact).ravel())
    free, mat = (np.concatenate(errors[k]) for k in ("free", "matrices"))
    assert free.max() <= mat.max()
    assert np.sqrt(np.mean(free ** 2)) <= np.sqrt(np.mean(mat ** 2))


def test_smear_path_never_forms_the_matrices(presets, monkeypatch):
    """_smear_block, and so smear_integral and volume_ratio, move the
    simplices from the base points and frames: with the matrices
    property raising, every map kind still smears on both presets."""
    def no_matrices(self):
        raise AssertionError("the smear path formed the Haar matrices")

    monkeypatch.setattr(HaarBatch, "matrices", property(no_matrices))
    with pytest.raises(AssertionError):
        sample_haar(presets[PRESETS[0]], 1, 4).matrices
    for name in PRESETS:
        p = presets[name]
        for kind in KINDS:
            phi = make_map(kind, p.n, np.random.default_rng(3), table_size=40)
            vals, w = _smear_block(p, phi, unit_rows(
                np.random.default_rng(4), (3, p.n + 1, p.n)), 16, 5, range(3))
            assert vals.shape == w.shape == (3, 16)
            assert np.isfinite(volume_ratio(p, phi, 16, 5, m=3).value)


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
