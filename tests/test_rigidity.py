import numpy as np
import pytest

from hyprig.boundary import BoundaryMap, make_boundary_map
from hyprig.errors import (
    DegenerateSimplex,
    GeneratorCountMismatch,
    ImageNotRegular,
    NoConsensus,
    NoExactSolve,
    OrbitMismatch,
)
from hyprig.hypcore import (
    IdealPoint,
    act_ideal,
    identity_isometry,
    random_isometry,
)
from hyprig.lattice import load_preset
from hyprig.regref import RegularSimplex, reference_regular
from hyprig.rigidity import (
    consensus,
    isometry_from_simplex_pair,
    preserves_regular,
    reconstruct_isometry,
    verify_conjugacy,
)
from hyprig.volcocycle import IdealSimplex, is_regular, orientation_sign


def planted(g):
    return make_boundary_map("planted_isometry", g=g)


def moved_regular(g, n=3):
    ref = reference_regular(n, 1)
    verts = tuple(act_ideal(g, v) for v in ref.base.vertices)
    return RegularSimplex(IdealSimplex(verts), orientation_sign(verts))


def test_preserves_regular_planted():
    rng = np.random.default_rng(1)
    for eps, mode in ((1, "same"), (-1, "opposite")):
        g = random_isometry(rng, 3, 1.0, orientation=eps)
        rep = preserves_regular(planted(g), 3, trials=25, seed=2)
        assert rep.pass_fraction == 1.0
        assert rep.orientation_mode == mode


def test_preserves_regular_perturbed_fails():
    rng = np.random.default_rng(3)
    g = random_isometry(rng, 3, 1.0)
    phi = make_boundary_map("perturbed", g=g, amplitude=1e-2, seed=5)
    rep = preserves_regular(phi, 3, trials=25, tol=1e-6, seed=4)
    assert rep.pass_fraction < 1.0


def _preserves_regular_by_loop(phi, n, trials, tol=1e-6, seed=0):
    """preserves_regular one trial at a time: (pass_fraction, mode)."""
    rng = np.random.default_rng(seed)
    ref = reference_regular(n, 1)
    passes, modes = 0, set()
    for _ in range(trials):
        g = random_isometry(rng, n, max_translation=1.0)
        src = [act_ideal(g, v) for v in ref.base.vertices]
        img = [phi(v) for v in src]
        try:
            if not is_regular(img, tol):
                continue
        except DegenerateSimplex:
            continue
        passes += 1
        modes.add("same" if orientation_sign(img) == orientation_sign(src)
                  else "opposite")
    mode = modes.pop() if len(modes) == 1 else "mixed" if modes else "same"
    return passes / trials, mode


def _doubling(xi):
    """The angle-doubling map of the circle: not injective, so images of
    regular triangles coincide or change orientation from trial to trial."""
    a = 2.0 * np.arctan2(xi.coords[1], xi.coords[0])
    return IdealPoint(np.array([np.cos(a), np.sin(a)]))


def test_preserves_regular_matches_per_trial_loop():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        g = random_isometry(rng, n, 1.0)
        maps = [planted(g), lambda xi, g=g: act_ideal(g, xi),
                make_boundary_map("perturbed", g=g, amplitude=0.3, seed=1),
                make_boundary_map("perturbed", g=g, amplitude=3e-6, seed=1),
                make_boundary_map("constant", point=IdealPoint(np.eye(n)[0]))]
        if n == 2:
            maps.append(_doubling)
        for seed, phi in enumerate(maps):
            rep = preserves_regular(phi, n, trials=30, seed=seed)
            expect = _preserves_regular_by_loop(phi, n, 30, seed=seed)
            assert (rep.pass_fraction, rep.orientation_mode) == expect
            assert (rep.trials, rep.tol) == (30, 1e-6)


def test_pair_solver_identity_and_random():
    rng = np.random.default_rng(5)
    ref = reference_regular(3, 1)
    assert np.max(np.abs(isometry_from_simplex_pair(ref, ref).matrix
                         - np.eye(4))) < 1e-10
    for n in (2, 3, 4):
        refn = reference_regular(n, 1)
        for _ in range(10):
            g = random_isometry(rng, n, max_translation=1.5)
            tgt = moved_regular(g, n)
            h = isometry_from_simplex_pair(refn, tgt)
            assert np.max(np.abs(h.matrix - g.matrix)) < 1e-9
            assert h.sign == g.sign


def test_pair_solver_swap_gives_reflection():
    ref = reference_regular(3, 1)
    verts = list(ref.base.vertices)
    verts[2], verts[3] = verts[3], verts[2]
    tgt = RegularSimplex(IdealSimplex(tuple(verts)), orientation_sign(verts))
    h = isometry_from_simplex_pair(ref, tgt)
    assert h.sign == -1


def test_pair_solver_uniqueness_under_relabeling():
    rng = np.random.default_rng(7)
    ref = reference_regular(3, 1)
    g = random_isometry(rng, 3, 1.0)
    tgt = moved_regular(g)
    base = isometry_from_simplex_pair(ref, tgt)
    for _ in range(5):
        perm = rng.permutation(4)
        src2 = tuple(ref.base.vertices[i] for i in perm)
        tgt2 = tuple(tgt.base.vertices[i] for i in perm)
        h = isometry_from_simplex_pair(
            RegularSimplex(IdealSimplex(src2), orientation_sign(src2)),
            RegularSimplex(IdealSimplex(tgt2), orientation_sign(tgt2)))
        assert np.max(np.abs(h.matrix - base.matrix)) < 1e-9


def test_pair_solver_rejects_incongruent():
    rng = np.random.default_rng(9)
    ref = reference_regular(3, 1)
    # a regular target of different "scale" cannot exist on the sphere,
    # so corrupt the solve by feeding a subtly perturbed regular simplex
    g = random_isometry(rng, 3, 1.0)
    verts = [act_ideal(g, v) for v in ref.base.vertices]
    c = verts[0].coords + 5e-8 * np.array([1.0, -1.0, 0.5])
    verts[0] = IdealPoint(c / np.linalg.norm(c))
    tgt = RegularSimplex(IdealSimplex(tuple(verts)), orientation_sign(verts))
    with pytest.raises(NoExactSolve):
        isometry_from_simplex_pair(ref, tgt, regularity_tol=1e-6)


def test_reconstruct_planted():
    rng = np.random.default_rng(11)
    ref = reference_regular(3, 1)
    for _ in range(5):
        g = random_isometry(rng, 3, 1.0)
        res = reconstruct_isometry(planted(g), ref, depth=4)
        assert np.max(np.abs(res.h.matrix - g.matrix)) < 1e-9
        assert res.max_orbit_mismatch <= 1e-8
        assert res.depth == 4
    res = reconstruct_isometry(planted(identity_isometry(3)), ref, depth=3)
    assert np.max(np.abs(res.h.matrix - np.eye(4))) < 1e-10


def test_reconstruct_plain_callable_matches_boundary_map():
    # a callable without a batch evaluator is mapped point by point
    rng = np.random.default_rng(12)
    ref = reference_regular(3, 1)
    for eps in (1, -1):
        g = random_isometry(rng, 3, 1.0, orientation=eps)
        res = reconstruct_isometry(lambda xi: act_ideal(g, xi), ref, depth=3)
        batch = reconstruct_isometry(planted(g), ref, depth=3)
        assert np.array_equal(res.h.matrix, batch.h.matrix)
        assert res.h.sign == batch.h.sign == eps
        assert res.max_orbit_mismatch <= 1e-12
        assert batch.max_orbit_mismatch <= 1e-12


def test_negative_depth_and_zero_trials_raise():
    phi = planted(identity_isometry(3))
    with pytest.raises(ValueError):
        reconstruct_isometry(phi, reference_regular(3, 1), depth=-1)
    with pytest.raises(ValueError):
        preserves_regular(phi, 3, trials=0)


def test_reconstruct_rejects_non_isometric_maps():
    rng = np.random.default_rng(13)
    g = random_isometry(rng, 3, 1.0)
    ref = reference_regular(3, 1)
    # large smooth perturbation: the seed image is already not regular
    phi = make_boundary_map("perturbed", g=g, amplitude=1e-3, seed=6)
    with pytest.raises((ImageNotRegular, OrbitMismatch)):
        reconstruct_isometry(phi, ref, depth=3, tol=1e-6)
    # tiny perturbation passes the seed regularity gate but still cannot
    # be congruent to an exact isometry
    phi = make_boundary_map("perturbed", g=g, amplitude=2e-6, seed=6)
    with pytest.raises((ImageNotRegular, OrbitMismatch, NoExactSolve)):
        reconstruct_isometry(phi, ref, depth=3, tol=1e-8, image_tol=1e-4)


def test_reconstruct_orbit_mismatch_on_corrupted_table():
    # exact isometry on the seed, corrupted at exactly one deeper orbit
    # vertex: the seed fit succeeds and the orbit walk must catch it
    rng = np.random.default_rng(15)
    g = random_isometry(rng, 3, 1.0)
    ref = reference_regular(3, 1)
    from hyprig.regref import orbit

    entries, pts = orbit(ref, 2)
    points = [IdealPoint(p) for p in pts]
    seed_coords = {tuple(np.round(v.coords, 9)) for v in ref.base.vertices}
    images = []
    corrupted = False
    for p in points:
        img = act_ideal(g, p)
        if not corrupted and tuple(np.round(p.coords, 9)) not in seed_coords \
                and len(images) >= 8:
            c = img.coords + 1e-5 * np.array([0.3, -0.7, 0.2])
            img = IdealPoint(c / np.linalg.norm(c))
            corrupted = True
        images.append(img)
    assert corrupted
    phi = make_boundary_map("tabulated", points=points, images=images,
                            radius=1e-6)
    with pytest.raises(OrbitMismatch) as exc:
        reconstruct_isometry(phi, ref, depth=2, tol=1e-8)
    assert exc.value.mismatch > 1e-8


def test_consensus_planted():
    rng = np.random.default_rng(17)
    g = random_isometry(rng, 3, 1.0)
    h = consensus(planted(g), 3, m=8, depth=3, seed=19)
    assert np.max(np.abs(h.matrix - g.matrix)) < 1e-8


def test_consensus_piecewise_map_disagrees():
    rng = np.random.default_rng(19)
    g1 = identity_isometry(3)
    g2 = random_isometry(rng, 3, 1.5)

    def ev(xi):
        g = g1 if xi.coords[2] >= 0 else g2
        return act_ideal(g, xi)

    phi = BoundaryMap("piecewise", {}, ev)
    with pytest.raises((NoConsensus, ImageNotRegular, OrbitMismatch)):
        consensus(phi, 3, m=8, depth=2, seed=23)


def test_verify_conjugacy():
    rng = np.random.default_rng(23)
    p = load_preset("figure_eight_3d")
    g = random_isometry(rng, 3, 1.0)
    rho = [g @ gen @ g.inverse() for gen in p.generators]
    assert verify_conjugacy(g, p, rho) < 1e-9
    assert verify_conjugacy(identity_isometry(3), p, rho) > 1e-3
    with pytest.raises(GeneratorCountMismatch):
        verify_conjugacy(g, p, rho[:1])


def test_end_to_end_rigidity_rehearsal():
    rng = np.random.default_rng(29)
    p = load_preset("figure_eight_3d")
    g = random_isometry(rng, 3, 1.0, orientation=1)
    phi = planted(g)
    rep = preserves_regular(phi, 3, trials=10, seed=31)
    assert rep.pass_fraction == 1.0
    h = consensus(phi, 3, m=4, depth=3, seed=37)
    rho = [g @ gen @ g.inverse() for gen in p.generators]
    assert verify_conjugacy(h, p, rho) <= 1e-7
    assert np.max(np.abs(h.matrix - g.matrix)) < 1e-8
