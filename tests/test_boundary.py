import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyprig.boundary import (
    MEASURE_TOL,
    BoundaryMeasure,
    conformal_barycenter,
    dominant_atom,
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
    act_ideal_many,
    act_point,
    basepoint,
    make_isometry,
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


def test_push_forward_moves_the_atoms_as_act_ideal_does():
    # push_forward moves every atom in one act_ideal_many product, which
    # rounds apart from act_ideal's one-point product (a matrix product
    # against a matrix-vector one, a pairwise sum of squares against a
    # dot); the images agree within the rounding of the projective action,
    # eps max|M|^2 (largest measured 1.0 of it over 4 044 atoms)
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for n in (2, 3, 4):
        for k in range(1, 31):
            g = random_isometry(rng, n, 2.5)
            pts = [random_ideal(rng, n) for _ in range(k % 8 + 1)]
            mu = BoundaryMeasure(tuple(zip(pts, rng.dirichlet(np.ones(len(pts))))))
            out = push_forward(g, mu)
            assert [w for _, w in out.atoms] == [w for _, w in mu.atoms]
            img = np.array([p.coords for p, _ in out.atoms])
            X = np.array([p.coords for p in pts])
            assert np.array_equal(img, act_ideal_many(g.matrix, X))
            ref = np.array([act_ideal(g, p).coords for p in pts])
            assert np.abs(img - ref).max() <= 4 * eps * np.abs(g.matrix).max() ** 2


def test_coincident_atoms_raise_also_when_pushed_together():
    n = 3
    p = np.array([0.0, 0.0, 1.0])
    t = np.array([0.6, 0.8, 0.0])

    def near(gap):
        q = p + gap * t
        return IdealPoint(q / np.linalg.norm(q))

    with pytest.raises(OutOfModel, match="coincident"):
        BoundaryMeasure(((IdealPoint(p), 0.5), (near(0.5 * MEASURE_TOL), 0.5)))
    mu = BoundaryMeasure(((IdealPoint(p), 0.5), (near(4 * MEASURE_TOL), 0.5)))
    # the boost of length 3 towards p contracts the sphere there by e^-3
    c, s = np.cosh(3.0), np.sinh(3.0)
    boost = np.eye(n + 1)
    boost[n - 1:, n - 1:] = [[c, s], [s, c]]
    with pytest.raises(OutOfModel, match="coincident"):
        push_forward(make_isometry(boost), mu)
    # the boost away from p spreads them
    boost[n - 1, n] = boost[n, n - 1] = -s
    push_forward(make_isometry(boost), mu)


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
    from hyprig.boundary import _atom_arrays, _gamma
    from hyprig.hypcore import convert
    for _ in range(10):
        pts = [random_ideal(rng, 3) for _ in range(4)]
        w = rng.dirichlet(np.ones(4) * 5.0)
        if np.max(w) >= 0.5:
            continue
        mu = BoundaryMeasure(tuple(zip(pts, w)))
        b = conformal_barycenter(mu, tol=1e-11)
        ball = convert(b.coords, "hyperboloid", "poincare")
        X, w = _atom_arrays(mu)
        assert np.linalg.norm(w @ _gamma(X, ball)) < 1e-10


def test_barycenter_far_out_past_a_spurious_minimum():
    # the push-forward's barycenter lies near cosh r = 1.6e3; damped Newton
    # in ball coordinates stalls at |x| = 0.833 with |V| = 0.257 there
    rng = np.random.default_rng(2245467697)
    w = rng.dirichlet(np.full(3, 2.0))
    v = rng.standard_normal((3, 2))
    pts = [IdealPoint(x / np.linalg.norm(x)) for x in v]
    g = random_isometry(rng, 2, max_translation=0.584255976966889)
    mu = BoundaryMeasure(tuple(zip(pts, w)))
    direct = conformal_barycenter(push_forward(g, mu))
    moved = act_point(g, conformal_barycenter(mu))
    assert direct.coords[-1] > 1e3
    scale = np.max(np.abs(moved.coords))
    assert np.max(np.abs(direct.coords - moved.coords)) < 1e-8 * scale


def test_barycenter_converges_where_ball_newton_walked_to_the_sphere():
    # Newton in ball coordinates walked out to |x| = 1 - 3e-10 and stalled
    # on this measure; a solve continued from there met a residual of NaN
    from hyprig.hypcore import convert
    atoms = ((0.5722775159774145, -0.800218083375099, 0.17930271538993245),
             (0.5007652490615847, -0.0496550684916299, 0.8641577052282648),
             (-0.41933439593948013, -0.8834189093144758, 0.20911646288060015),
             (0.8686598148656693, -0.4552891231368876, 0.19529961697552053),
             (-0.1384696913705965, -0.7133195015243033, -0.6870236046285826))
    w = (0.22398836548132495, 0.20676137143080864, 0.09138170670295448,
         0.4446405814008708, 0.03322797498404104)
    mu = BoundaryMeasure(tuple((IdealPoint(np.array(a)), wi)
                               for a, wi in zip(atoms, w)))
    b = conformal_barycenter(mu)
    assert abs(b.coords[-1] - 3.848011345) < 1e-6
    ball = convert(b.coords, "hyperboloid", "poincare")
    assert np.linalg.norm(_gamma_field_by_isometry(mu, ball)) < 1e-9


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
        assert np.max(np.abs(phi.evaluate(xi).coords
                             - act_ideal(g, xi).coords)) == 0.0


def test_planted_preserves_regularity_and_orientation():
    rng = np.random.default_rng(17)
    ref = reference_regular(3, 1)
    for eps in (1, -1):
        for _ in range(10):
            g = random_isometry(rng, 3, 1.0, orientation=eps)
            phi = make_boundary_map("planted_isometry", g=g)
            img = [phi.evaluate(v) for v in ref.base.vertices]
            assert is_regular(img, 1e-8)
            assert orientation_sign(img) == eps


def test_perturbed_zero_amplitude_matches_planted():
    rng = np.random.default_rng(19)
    g = random_isometry(rng, 3, 1.0)
    phi0 = make_boundary_map("perturbed", g=g, amplitude=0.0, seed=4)
    for _ in range(20):
        xi = random_ideal(rng, 3)
        assert np.max(np.abs(phi0.evaluate(xi).coords
                             - act_ideal(g, xi).coords)) < 1e-15


def test_perturbed_stays_within_amplitude():
    rng = np.random.default_rng(23)
    g = random_isometry(rng, 3, 1.0)
    for amp in (1e-4, 1e-2):
        phi = make_boundary_map("perturbed", g=g, amplitude=amp, seed=8)
        worst = 0.0
        for _ in range(200):
            xi = random_ideal(rng, 3)
            d = np.linalg.norm(phi.evaluate(xi).coords
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
    assert np.array_equal(a.evaluate(xi).coords, b.evaluate(xi).coords)
    assert not np.array_equal(a.evaluate(xi).coords, c.evaluate(xi).coords)


def test_tabulated_lookup_and_out_of_table():
    rng = np.random.default_rng(31)
    pts = [random_ideal(rng, 3) for _ in range(30)]
    g = random_isometry(rng, 3, 1.0)
    images = [act_ideal(g, p) for p in pts]
    phi = make_boundary_map("tabulated", points=pts, images=images, radius=1e-6)
    for p, im in zip(pts, images):
        assert np.array_equal(phi.evaluate(p).coords, im.coords)
    table = np.array([p.coords for p in pts])
    assert np.array_equal(phi.evaluate_many(table),
                          np.array([im.coords for im in images]))
    far = random_ideal(rng, 3)
    if min(np.linalg.norm(far.coords - p.coords) for p in pts) > 1e-6:
        with pytest.raises(OutOfTable):
            phi.evaluate(far)
        with pytest.raises(OutOfTable):
            phi.evaluate_many(np.vstack([table, far.coords]))


def test_constant_map():
    rng = np.random.default_rng(37)
    p = random_ideal(rng, 3)
    phi = make_boundary_map("constant", point=p)
    assert phi.evaluate(random_ideal(rng, 3)) is p


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
        assert np.max(np.abs(phi2.evaluate(xi).coords
                             - phi.evaluate(xi).coords)) < 1e-12


def _gamma_field_by_isometry(mu, x):
    """The conformal field as its definition reads: the translation
    taking x to the origin, applied to each atom."""
    from oracles import translation_to

    from hyprig.hypcore import SpacePoint, convert
    ginv = translation_to(SpacePoint(convert(x, "poincare",
                                             "hyperboloid"))).inverse()
    return sum(w * act_ideal(ginv, p).coords for p, w in mu.atoms)


def _random_ball_point(rng, n, radius):
    v = rng.standard_normal(n)
    return radius * rng.uniform() ** (1.0 / n) * v / np.linalg.norm(v)


def test_gamma_field_closed_form_matches_isometry_action():
    from hyprig.boundary import _atom_arrays, _gamma
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        for _ in range(100):
            k = int(rng.integers(1, 7))
            pts = [random_ideal(rng, n) for _ in range(k)]
            mu = BoundaryMeasure(tuple(zip(pts, rng.dirichlet(np.ones(k)))))
            x = _random_ball_point(rng, n, 0.95)
            X, w = _atom_arrays(mu)
            gap = w @ _gamma(X, x) - _gamma_field_by_isometry(mu, x)
            assert np.max(np.abs(gap)) < 1e-13


def test_origin_jacobian_matches_central_differences():
    # the field x -> w . gamma_x(eta) has the Jacobian 2 sum w eta eta^T - 2I
    # at the origin, where the barycenter solve takes every step
    from hyprig.boundary import _atom_arrays, _gamma
    rng = np.random.default_rng(29)
    h = 1e-6
    for n in (2, 3, 4):
        for _ in range(30):
            pts = [random_ideal(rng, n) for _ in range(5)]
            mu = BoundaryMeasure(tuple(zip(pts, rng.dirichlet(np.ones(5)))))
            X, w = _atom_arrays(mu)
            fd = np.column_stack([
                (w @ _gamma(X, h * e) - w @ _gamma(X, -h * e)) / (2 * h)
                for e in np.eye(n)])
            jac = 2.0 * (X.T * w) @ X - 2.0 * np.eye(n)
            assert np.max(np.abs(jac - fd)) < 1e-6 * max(1.0, np.abs(jac).max())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 4), k=st.integers(3, 6),
       seed=st.integers(0, 2**32 - 1),
       translation=st.floats(0.0, 1.5))
def test_barycenter_equivariance_property(n, k, seed, translation):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.full(k, 2.0))
    assume(np.max(w) < 0.45)
    pts = [random_ideal(rng, n) for _ in range(k)]
    mu = BoundaryMeasure(tuple(zip(pts, w)))
    g = random_isometry(rng, n, max_translation=translation)
    direct = conformal_barycenter(push_forward(g, mu), tol=1e-11)
    moved = act_point(g, conformal_barycenter(mu, tol=1e-11))
    # relative: a barycenter far out has hyperboloid coordinates of 1e3
    scale = max(1.0, np.max(np.abs(moved.coords)))
    assert np.max(np.abs(direct.coords - moved.coords)) < 1e-8 * scale
