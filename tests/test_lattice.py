import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hyprig.errors import PresetCorrupt, UnknownPreset
from hyprig.hypcore import gram_schmidt
from hyprig.lattice import (_frame_signs, _stream_generators, load_preset,
                            sample_haar)
from hyprig.volcocycle import V2, V3, vol


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        load_preset("no_such_lattice")


def test_figure_eight_loads_and_covolume():
    p = load_preset("figure_eight_3d")
    assert p.n == 3
    assert len(p.generators) == 2
    assert abs(p.covolume - 2 * V3) < 1e-6
    # each cell is a regular ideal tetrahedron
    for cell in p.cells:
        assert abs(abs(vol(list(cell)).value) - V3) < 1e-9
    for g in p.generators:
        assert g.sign == 1


def test_figure_eight_relators_resolve():
    from hyprig.lattice import _resolve_word

    p = load_preset("figure_eight_3d")
    assert p.relators
    for wd in p.relators:
        r = _resolve_word(p.generators, wd)
        assert np.max(np.abs(r.matrix - np.eye(4))) < 1e-8


def test_reflection_2d_preset():
    p = load_preset("test_reflection_2d")
    assert p.n == 2
    assert abs(p.covolume - 2 * V2) < 1e-9
    assert p.relators == ()


def test_preset_verification_rejects_tampering(tmp_path):
    src = load_preset("figure_eight_3d")
    with open(os.path.join(os.path.dirname(__file__), "..", "src", "hyprig",
                           "presets", "figure_eight_3d.json")) as f:
        raw = json.load(f)

    bad = json.loads(json.dumps(raw))
    bad["generators"][0][0][1] += 1e-4
    with open(tmp_path / "figure_eight_3d.json", "w") as f:
        json.dump(bad, f)
    os.environ["HYPRIG_PRESET_DIR"] = str(tmp_path)
    try:
        with pytest.raises(PresetCorrupt):
            load_preset("figure_eight_3d")
    finally:
        del os.environ["HYPRIG_PRESET_DIR"]
    assert src.covolume > 0


def test_preset_rejects_broken_relator(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), "..", "src", "hyprig",
                           "presets", "figure_eight_3d.json")) as f:
        raw = json.load(f)
    raw["relators"] = [[1, 2]]
    with open(tmp_path / "figure_eight_3d.json", "w") as f:
        json.dump(raw, f)
    os.environ["HYPRIG_PRESET_DIR"] = str(tmp_path)
    try:
        with pytest.raises(PresetCorrupt):
            load_preset("figure_eight_3d")
    finally:
        del os.environ["HYPRIG_PRESET_DIR"]


def test_sampler_reproducible():
    p = load_preset("figure_eight_3d")
    a = sample_haar(p, 42, 50)
    b = sample_haar(p, 42, 50)
    for s, t in zip(a, b):
        assert np.array_equal(s.g.matrix, t.g.matrix)
        assert s.weight == t.weight and s.cell == t.cell
    c = sample_haar(p, 43, 50)
    assert not np.array_equal(a[0].g.matrix, c[0].g.matrix)
    d = sample_haar(p, 42, 50, stream=1)
    assert not np.array_equal(a[0].g.matrix, d[0].g.matrix)


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128 + 17, [7, 3])
STREAMS = (None, 0, 1, 7, 255, 2**32 - 1)


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_stream_generators_are_numpys_children(seed):
    """The one array pass over the root pool gives each stream the state
    of numpy's own child generator, for entropy of one to five words
    (the longer seeds move the spawn word's hash constants) and stream
    ids across the 32-bit range, the root stream among them."""
    rngs = _stream_generators(seed, STREAMS)
    for k, rng in zip(STREAMS, rngs, strict=True):
        ref = np.random.default_rng(np.random.SeedSequence(
            seed, spawn_key=() if k is None else (k,)))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()


@pytest.mark.parametrize("stream", [-1, 2**32, 2**64, [3, 2**32]], ids=str)
def test_stream_ids_outside_32_bits_raise(stream):
    # numpy would take 2^32 and up as several spawn words; the pass
    # hashes one word per stream, so those ids are refused
    p = load_preset("test_reflection_2d")
    with pytest.raises(ValueError, match="stream ids"):
        sample_haar(p, 42, 4, stream=stream)


def test_sample_haar_builds_one_seed_sequence(monkeypatch):
    """A call on 8 streams builds the root SeedSequence and no child."""
    p = load_preset("figure_eight_3d")
    made = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(seed_sequence(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    sample_haar(p, 42, 32, stream=list(range(8)))
    assert len(made) == 1 and made[0].spawn_key == ()


def test_importing_hyprig_does_not_load_numpy_random():
    # NumPy 2 loads numpy.random lazily (about 10 ms); the seeding pass
    # takes its names from it on first use, so verbs that draw nothing
    # do not pay for it at start-up
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
            "import hyprig.cli, hyprig.lattice, hyprig.smear; "
            "sys.exit(not eager and 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("name", ["figure_eight_3d", "test_reflection_2d"])
def test_sampler_weights_average_to_one(name):
    # the samples cover the whole quotient, cusp included, so the
    # density ratios average to the total mass 1
    p = load_preset(name)
    w = sample_haar(p, 7, 20000).weights
    assert np.all(np.isfinite(w)) and np.all(w > 0)
    se = w.std(ddof=1) / np.sqrt(len(w))
    assert abs(w.mean() - 1.0) < 3 * se


def _lapack_frames(G):
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_schmidt_frames_match_lapack_qr(n):
    """gram_schmidt against LAPACK's Q sign(diag R) on Gaussian blocks and
    on blocks of condition number kappa.  Q is unique and well-conditioned
    when the columns are Gaussian or only scaled (graded), so there the two
    agree; when the columns are nearly dependent, Q itself moves by about
    kappa * eps, so there only orthogonality, the factorisation and the
    orientation are checked."""
    rng = np.random.default_rng(40 + n)
    eye = np.eye(n)

    def check(G, agree):
        Q = gram_schmidt(G)
        assert np.abs(np.swapaxes(Q, 1, 2) @ Q - eye).max() <= 2e-15
        # Q^T G is upper triangular with a positive diagonal
        R = np.swapaxes(Q, 1, 2) @ G
        scale = np.abs(G).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(np.tril(R, -1)) <= 1e-14 * scale)
        assert np.all(np.diagonal(R, axis1=1, axis2=2) > 0)
        ref = _lapack_frames(G)
        assert np.array_equal(np.linalg.det(Q) > 0, np.linalg.det(ref) > 0)
        if agree:
            assert np.abs(Q - ref).max() <= 1e-12

    check(rng.standard_normal((10_000, n, n)), True)
    for kappa in (1e6, 1e10, 1e14):
        s = np.geomspace(1.0, 1.0 / kappa, n)
        check(rng.standard_normal((2_000, n, n)) * s, True)
        U, V = (_lapack_frames(rng.standard_normal((2_000, n, n)))
                for _ in range(2))
        check((U * s) @ np.swapaxes(V, 1, 2), False)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_signs_match_lapack_det(n):
    # the closed-form signs at n = 2, 3 are LAPACK's, frame for frame
    rng = np.random.default_rng(60 + n)
    Q = gram_schmidt(rng.standard_normal((100_000, n, n)))
    signs = _frame_signs(Q)
    assert np.array_equal(signs, np.where(np.linalg.det(Q) > 0, 1, -1))
    assert signs.min() == -1 and signs.max() == 1


def test_sampler_frames_cover_both_orientations():
    p = load_preset("figure_eight_3d")
    samples = sample_haar(p, 5, 200)
    signs = [s.g.sign for s in samples]
    assert signs.count(1) > 50 and signs.count(-1) > 50


def test_sample_points_lie_in_domain():
    from hyprig.hypcore import convert

    p = load_preset("figure_eight_3d")
    for s in sample_haar(p, 3, 200):
        x = s.g.matrix[:, -1]  # image of the basepoint
        hs = convert(x / np.sqrt(-float(x[:3] @ x[:3] - x[3] ** 2)),
                     "hyperboloid", "halfspace")
        ch = p.charts
        base, center = ch.base[s.cell], ch.center[s.cell]
        # height above the cell's floor sphere
        h2 = ch.radius[s.cell] ** 2 - np.dot(hs[:2] - center, hs[:2] - center)
        assert hs[2] ** 2 >= max(h2, 0.0) - 1e-9
        # foot inside the base triangle
        lam = np.linalg.solve(
            np.vstack([base.T[:, 1:] - base.T[:, :1], np.ones((1, 2))])[:2],
            (hs[:2] - base[0]))
        assert lam.min() > -1e-9 and lam.sum() < 1 + 1e-9
