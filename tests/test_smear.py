import numpy as np
import pytest

from hyprig.boundary import make_boundary_map
from hyprig.errors import IllConditioned
from hyprig.hypcore import IdealPoint, act_ideal, identity_isometry, random_isometry
from hyprig.lattice import load_preset
from hyprig.regref import reference_vertices
from hyprig.smear import (
    McEstimate,
    _random_test_simplices,
    _smear_block,
    milnor_wood_check,
    smear_integral,
    vol_of_rep,
    volume_ratio,
)
from hyprig.volcocycle import V3, v_n, vol, vol_batch


@pytest.fixture(scope="module")
def fig8():
    return load_preset("figure_eight_3d")


def random_simplex(rng, n):
    v = rng.standard_normal((n + 1, n))
    return [IdealPoint(x / np.linalg.norm(x)) for x in v]


def planted(g):
    return make_boundary_map("planted_isometry", g=g)


def test_smear_identity_recovers_volume(fig8):
    rng = np.random.default_rng(1)
    pts = random_simplex(rng, 3)
    phi = planted(identity_isometry(3))
    est = smear_integral(fig8, phi, pts, 4000, seed=3)
    target = vol(pts).value
    assert abs(est.value - target) < 3 * est.std_error + est.bias_bound
    assert est.n_samples == 4000


@pytest.mark.parametrize("name", ["figure_eight_3d", "test_reflection_2d"])
def test_cusp_sweep_misclassifies_no_volume(name):
    """2 * 10^5 samples of the planted identity on the reference simplex,
    drawn up to infinite height: every sample's simplex keeps the volume
    +-v_n, however far up the cusp (heights past 10^4 at n = 2, where
    absolute degeneracy cuts called genuine triangles flat)."""
    p = load_preset(name)
    phi = planted(identity_isometry(p.n))
    ref = reference_vertices(p.n)[None]
    for seed in range(4):
        vals, w = _smear_block(p, phi, ref, 50_000, seed, None)
        assert np.all(w > 0) and np.all(np.isfinite(w))
        assert np.allclose(np.abs(vals / w), v_n(p.n), rtol=1e-12, atol=0.0)


def test_smear_degenerate_simplex_is_exactly_zero(fig8):
    rng = np.random.default_rng(2)
    pts = random_simplex(rng, 3)
    pts[1] = pts[0]
    phi = planted(identity_isometry(3))
    est = smear_integral(fig8, phi, pts, 200, seed=4)
    assert est.value == 0.0 and est.std_error == 0.0


def test_smear_orientation_reversing_negates(fig8):
    rng = np.random.default_rng(3)
    pts = random_simplex(rng, 3)
    g = random_isometry(rng, 3, 1.0, orientation=-1)
    est = smear_integral(fig8, planted(g), pts, 4000, seed=5)
    target = -vol(pts).value
    assert abs(est.value - target) < 3 * est.std_error + est.bias_bound


def test_smear_gamma_invariance(fig8):
    # moving the test simplex by a lattice element leaves the integral
    # unchanged (well-definedness on the quotient)
    rng = np.random.default_rng(4)
    pts = random_simplex(rng, 3)
    gamma = fig8.generators[0] @ fig8.generators[1]
    moved = [act_ideal(gamma, p) for p in pts]
    phi = planted(random_isometry(rng, 3, 0.8))
    a = smear_integral(fig8, phi, pts, 4000, seed=6)
    b = smear_integral(fig8, phi, moved, 4000, seed=7)
    gap = 3 * np.hypot(a.std_error, b.std_error) + a.bias_bound + b.bias_bound
    assert abs(a.value - b.value) < gap


def test_volume_ratio_planted(fig8):
    rng = np.random.default_rng(5)
    for eps in (1, -1):
        g = random_isometry(rng, 3, 1.0, orientation=eps)
        lam = volume_ratio(fig8, planted(g), 1500, seed=8, m=4)
        assert lam.consistent
        assert abs(lam.value - eps) < 3 * lam.std_error + lam.bias_bound
        report = milnor_wood_check(lam)
        assert report["passes"] and report["maximal"]


def test_volume_ratio_needs_two_samples(fig8):
    g = identity_isometry(3)
    for n_samples in (0, 1):
        with pytest.raises(ValueError):
            volume_ratio(fig8, planted(g), n_samples, seed=8, m=4)


def test_volume_ratio_constant_map(fig8):
    rng = np.random.default_rng(6)
    xi0 = IdealPoint(np.array([1.0, 0.0, 0.0]))
    phi = make_boundary_map("constant", point=xi0)
    lam = volume_ratio(fig8, phi, 500, seed=9, m=3)
    assert lam.value == 0.0
    report = milnor_wood_check(lam)
    assert report["passes"] and not report["maximal"]


def test_sign_covariance(fig8):
    rng = np.random.default_rng(7)
    g = random_isometry(rng, 3, 1.0, orientation=1)
    tau = random_isometry(rng, 3, 0.0, orientation=-1)
    a = volume_ratio(fig8, planted(g), 1500, seed=10, m=3)
    b = volume_ratio(fig8, planted(tau @ g), 1500, seed=10, m=3)
    gap = 3 * np.hypot(a.std_error, b.std_error) + a.bias_bound + b.bias_bound
    assert abs(a.value + b.value) < gap


def test_milnor_wood_thresholds():
    mk = lambda v, s: McEstimate(value=v, std_error=s, bias_bound=0.0,
                                 n_samples=1, seed=0)
    r = milnor_wood_check(mk(1.0, 0.01))
    assert r["passes"] and r["maximal"]
    r = milnor_wood_check(mk(0.4, 0.01))
    assert r["passes"] and not r["maximal"]
    r = milnor_wood_check(mk(1.2, 0.01))
    assert not r["passes"]


def test_vol_of_rep(fig8):
    rng = np.random.default_rng(8)
    est = vol_of_rep(fig8, planted(identity_isometry(3)), 1500, seed=11, m=3)
    assert abs(est.value - 2 * V3) < 3 * est.std_error + est.bias_bound
    tau = random_isometry(rng, 3, 0.5, orientation=-1)
    est = vol_of_rep(fig8, planted(tau), 1500, seed=12, m=3)
    assert abs(est.value + 2 * V3) < 3 * est.std_error + est.bias_bound
    xi0 = IdealPoint(np.array([0.0, 1.0, 0.0]))
    est = vol_of_rep(fig8, make_boundary_map("constant", point=xi0),
                     300, seed=13, m=2)
    assert est.value == 0.0


def test_test_simplices_volume_floor():
    rng = np.random.default_rng(9)
    sims, vols = _random_test_simplices(rng, 3, 6)
    assert sims.shape == (6, 4, 3) and vols.shape == (6,)
    for pts, v in zip(sims, vols):
        # the returned volumes are the ones volume_ratio divides by
        assert vol([IdealPoint(p) for p in pts]).value == v
        assert abs(v) >= 0.1 * V3
    # an exhausted budget reports instead of silently degrading
    with pytest.raises(IllConditioned):
        _random_test_simplices(np.random.default_rng(0), 3, 50, max_tries=3)


def test_test_simplices_are_the_one_by_one_draw():
    """_random_test_simplices keeps, in order, the first m candidates of
    a one-by-one draw that clear the floor, each normalised by
    np.linalg.norm, whether one round of 2m candidates gives them or
    more rounds are needed."""
    floor = 0.1 * V3
    rounds = set()
    # about 1 in 120 pairs of candidates both fall below the floor
    for seed in range(400):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        sims, vols = _random_test_simplices(rng, 3, 1)
        picks, drawn = [], 0
        while not picks:
            x = ref.standard_normal((4, 3))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            drawn += 1
            v = vol_batch(x[None])[0]
            if abs(v) >= floor:
                picks.append((x, v))
        rounds.add((drawn - 1) // 2 + 1)
        assert np.array_equal(sims, [x for x, _ in picks])
        assert np.array_equal(vols, [v for _, v in picks])
    assert rounds == {1, 2}
