import numpy as np
import pytest

from hyprig.boundary import (
    BoundaryMeasure,
    conformal_barycenter,
    dominant_atom,
    eval_map,
    make_boundary_map,
    map_from_json,
    map_to_json,
    measure_from_json,
    measure_to_json,
    push_forward,
)
from hyprig.errors import DominantAtom, OutOfModel, OutOfTable
from hyprig.hypcore import (
    IdealPoint,
    act_ideal,
    act_point,
    basepoint,
    mink,
    random_isometry,
)
from hyprig.regref import reference_regular
from hyprig.volcocycle import is_regular, orientation_sign


def random_ideal(rng, n):
    v = rng.standard_normal(n)
    return IdealPoint(v / np.linalg.norm(v))


def uniform_on(points):
    w = 1.0 / len(points)
    return BoundaryMeasure(tuple((p, w) for p in points))


def test_measure_validation():
    rng = np.random.default_rng(1)
    p, q = random_ideal(rng, 3), random_ideal(rng, 3)
    BoundaryMeasure(((p, 0.25), (q, 0.75)))
    with pytest.raises(OutOfModel):
        BoundaryMeasure(((p, 0.5), (q, 0.6)))
    with pytest.raises(OutOfModel):
        BoundaryMeasure(((p, 0.5), (p, 0.5)))
    with pytest.raises(OutOfModel):
        BoundaryMeasure(((p, -0.5), (q, 1.5)))


def test_dominant_atom_cases():
    rng = np.random.default_rng(2)
    pts = [random_ideal(rng, 3) for _ in range(3)]
    assert dominant_atom(BoundaryMeasure(((pts[0], 1.0),))) is pts[0]
    assert dominant_atom(BoundaryMeasure(((pts[0], 0.5), (pts[1], 0.5)))) is None
    assert dominant_atom(uniform_on(pts)) is None
    mu = BoundaryMeasure(((pts[0], 0.6), (pts[1], 0.3), (pts[2], 0.1)))
    assert dominant_atom(mu) is pts[0]


def test_dominant_atom_pushforward_and_relabel():
    rng = np.random.default_rng(3)
    pts = [random_ideal(rng, 3) for _ in range(3)]
    mu = BoundaryMeasure(((pts[0], 0.7), (pts[1], 0.2), (pts[2], 0.1)))
    relabeled = BoundaryMeasure(((pts[2], 0.1), (pts[0], 0.7), (pts[1], 0.2)))
    assert dominant_atom(relabeled) is pts[0]
    for _ in range(10):
        g = random_isometry(rng, 3, 1.0)
        img = dominant_atom(push_forward(g, mu))
        expect = act_ideal(g, pts[0])
        assert np.max(np.abs(img.coords - expect.coords)) < 1e-12


def test_barycenter_of_regular_vertices_is_origin():
    for n in (2, 3, 4):
        mu = uniform_on(reference_regular(n, 1).base.vertices)
        b = conformal_barycenter(mu, tol=1e-11)
        assert np.max(np.abs(b.coords - basepoint(n).coords)) < 1e-9


def test_barycenter_equivariance():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        base = uniform_on(reference_regular(n, 1).base.vertices)
        for _ in range(50):
            g = random_isometry(rng, n, max_translation=1.2)
            direct = conformal_barycenter(push_forward(g, base), tol=1e-11)
            moved = act_point(g, conformal_barycenter(base, tol=1e-11))
            assert np.max(np.abs(direct.coords - moved.coords)) < 1e-8


def test_barycenter_random_measures_field_zero():
    rng = np.random.default_rng(7)
    from hyprig.boundary import _gamma_field
    from hyprig.hypcore import convert
    for _ in range(10):
        pts = [random_ideal(rng, 3) for _ in range(4)]
        w = rng.dirichlet(np.ones(4) * 5.0)
        if np.max(w) >= 0.5:
            continue
        mu = BoundaryMeasure(tuple(zip(pts, w)))
        b = conformal_barycenter(mu, tol=1e-11)
        ball = convert(b.coords, "hyperboloid", "poincare")
        assert np.linalg.norm(_gamma_field(mu, ball)) < 1e-10


def test_barycenter_rejects_dominant_atom():
    rng = np.random.default_rng(11)
    p, q = random_ideal(rng, 3), random_ideal(rng, 3)
    with pytest.raises(DominantAtom):
        conformal_barycenter(BoundaryMeasure(((p, 0.5), (q, 0.5))))


def test_planted_map_is_exact():
    rng = np.random.default_rng(13)
    g = random_isometry(rng, 3, 1.0)
    phi = make_boundary_map("planted_isometry", g=g)
    for _ in range(20):
        xi = random_ideal(rng, 3)
        assert np.max(np.abs(eval_map(phi, xi).coords
                             - act_ideal(g, xi).coords)) == 0.0


def test_planted_preserves_regularity_and_orientation():
    rng = np.random.default_rng(17)
    ref = reference_regular(3, 1)
    for eps in (1, -1):
        for _ in range(10):
            g = random_isometry(rng, 3, 1.0, orientation=eps)
            phi = make_boundary_map("planted_isometry", g=g)
            img = [eval_map(phi, v) for v in ref.base.vertices]
            assert is_regular(img, 1e-8)
            assert orientation_sign(img) == eps


def test_perturbed_zero_amplitude_matches_planted():
    rng = np.random.default_rng(19)
    g = random_isometry(rng, 3, 1.0)
    phi0 = make_boundary_map("perturbed", g=g, amplitude=0.0, seed=4)
    for _ in range(20):
        xi = random_ideal(rng, 3)
        assert np.max(np.abs(eval_map(phi0, xi).coords
                             - act_ideal(g, xi).coords)) < 1e-15


def test_perturbed_stays_within_amplitude():
    rng = np.random.default_rng(23)
    g = random_isometry(rng, 3, 1.0)
    for amp in (1e-4, 1e-2):
        phi = make_boundary_map("perturbed", g=g, amplitude=amp, seed=8)
        worst = 0.0
        for _ in range(200):
            xi = random_ideal(rng, 3)
            d = np.linalg.norm(eval_map(phi, xi).coords
                               - act_ideal(g, xi).coords)
            worst = max(worst, d)
        assert 0 < worst <= amp + 1e-15


def test_perturbed_deterministic_in_seed():
    rng = np.random.default_rng(29)
    g = random_isometry(rng, 3, 1.0)
    xi = random_ideal(rng, 3)
    a = make_boundary_map("perturbed", g=g, amplitude=1e-3, seed=5)
    b = make_boundary_map("perturbed", g=g, amplitude=1e-3, seed=5)
    c = make_boundary_map("perturbed", g=g, amplitude=1e-3, seed=6)
    assert np.array_equal(eval_map(a, xi).coords, eval_map(b, xi).coords)
    assert not np.array_equal(eval_map(a, xi).coords, eval_map(c, xi).coords)


def test_tabulated_lookup_and_out_of_table():
    rng = np.random.default_rng(31)
    pts = [random_ideal(rng, 3) for _ in range(30)]
    g = random_isometry(rng, 3, 1.0)
    images = [act_ideal(g, p) for p in pts]
    phi = make_boundary_map("tabulated", points=pts, images=images, radius=1e-6)
    for p, im in zip(pts, images):
        assert np.array_equal(eval_map(phi, p).coords, im.coords)
    table = np.array([p.coords for p in pts])
    assert np.array_equal(phi.evaluate_many(table),
                          np.array([im.coords for im in images]))
    far = random_ideal(rng, 3)
    if min(np.linalg.norm(far.coords - p.coords) for p in pts) > 1e-6:
        with pytest.raises(OutOfTable):
            eval_map(phi, far)
        with pytest.raises(OutOfTable):
            phi.evaluate_many(np.vstack([table, far.coords]))


def test_constant_map():
    rng = np.random.default_rng(37)
    p = random_ideal(rng, 3)
    phi = make_boundary_map("constant", point=p)
    assert eval_map(phi, random_ideal(rng, 3)) is p


def test_json_round_trips():
    rng = np.random.default_rng(41)
    pts = [random_ideal(rng, 3) for _ in range(3)]
    mu = BoundaryMeasure(((pts[0], 0.2), (pts[1], 0.3), (pts[2], 0.5)))
    mu2 = measure_from_json(measure_to_json(mu))
    assert all(np.array_equal(a[0].coords, b[0].coords) and a[1] == b[1]
               for a, b in zip(mu.atoms, mu2.atoms))

    g = random_isometry(rng, 3, 1.0)
    xi = random_ideal(rng, 3)
    for phi in (make_boundary_map("planted_isometry", g=g),
                make_boundary_map("perturbed", g=g, amplitude=1e-3, seed=9),
                make_boundary_map("constant", point=pts[0])):
        phi2 = map_from_json(map_to_json(phi))
        assert np.max(np.abs(eval_map(phi2, xi).coords
                             - eval_map(phi, xi).coords)) < 1e-12
