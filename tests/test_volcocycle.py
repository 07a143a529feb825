import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyprig.errors import (
    DegenerateSimplex,
    QuadratureBudgetExceeded,
    UnsupportedDimension,
)
from hyprig.hypcore import (POINT_TOL, IdealPoint, act_ideal, act_ideal_many,
                            null_lifts, random_isometries, random_isometry,
                            stack_det)
from hyprig.regref import reference_regular
from hyprig.volcocycle import (
    COINCIDENCE_TOL,
    DEGENERATE_DET_TOL,
    V2,
    V3,
    V4,
    _LIFT_DET_ERROR,
    _SERIES,
    _coincident_rows,
    _det_error,
    _index_sets,
    _plane_dets,
    _plane_gaps2,
    _plane_signs,
    _vol3_planes,
    is_regular,
    lobachevsky,
    orientation_sign,
    orientation_signs,
    regular_mask,
    v_n,
    vol,
    vol2,
    vol3,
    vol3_batch,
    vol4_batch,
    vol_batch,
    vol_defect,
    voln,
)

# frozen from two independent integrators agreeing to 1e-10
V4_ORACLE = 0.2688956601
U = np.finfo(float).eps / 2.0      # unit roundoff


def random_ideal(rng, n):
    v = rng.standard_normal(n)
    return IdealPoint(v / np.linalg.norm(v))


def lobachevsky_reference(theta):
    # independent evaluation: L(t) = Im(Li_2(e^{2it}))/2
    return float(mpmath.polylog(2, mpmath.exp(2j * theta)).imag / 2)


def test_lobachevsky_special_values():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(math.pi / 2)) < 1e-15
    assert abs(lobachevsky(math.pi / 6) - 0.5074708) < 1e-7
    # odd, pi-periodic
    rng = np.random.default_rng(1)
    for t in rng.uniform(-4, 4, 50):
        assert abs(lobachevsky(-t) + lobachevsky(t)) < 1e-14
        assert abs(lobachevsky(t + math.pi) - lobachevsky(t)) < 1e-13


def test_lobachevsky_against_dilogarithm():
    rng = np.random.default_rng(2)
    for t in rng.uniform(-math.pi, math.pi, 40):
        assert abs(lobachevsky(t) - lobachevsky_reference(t)) < 1e-12


def test_lobachevsky_against_partial_sums():
    ks = np.arange(1, 200001)
    for t in (0.3, 1.0, math.pi / 6, 2.5):
        partial = 0.5 * np.sum(np.sin(2 * ks * t) / ks**2)
        assert abs(lobachevsky(t) - partial) < 1e-5


def _lobachevsky_40_terms(t):
    """The series on |t| <= pi/2 to 40 terms, summed through a cumprod of
    powers of (t/pi)^2 and a dot product: the reference for the Horner
    evaluation."""
    series = np.array([float(mpmath.zeta(2 * k) / (k * (2 * k + 1)))
                       for k in range(1, 41)])
    acc = t - t * np.log(np.abs(2.0 * t) + (t == 0.0))
    powers = np.cumprod((t / np.pi)[..., None] ** 2 * np.ones(40), axis=-1)
    return acc + t * (powers @ series)


def test_lobachevsky_horner_against_clausen():
    """L(t) = Cl_2(2t)/2 at 30 digits, on the reduced range |t| <= pi/2,
    at its ends, at 0 and next to 0; and the degree-13 Horner sum against
    the 40-term series."""
    rng = np.random.default_rng(44)
    t = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, 3000),
                        [0.0, math.pi / 2, -math.pi / 2],
                        rng.uniform(-1e-8, 1e-8, 20), [5e-324, -1e-300]])
    got = lobachevsky(t)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.clsin(2, 2 * mpmath.mpf(x)) / 2)
                         for x in t])
    assert np.abs(got - want).max() <= 5e-16
    assert np.abs(got - _lobachevsky_40_terms(t)).max() <= 2.3e-16


def test_lobachevsky_coefficients_rederived_at_50_digits():
    """lobachevsky's Horner coefficients are the degree-13 polynomial
    interpolating sum_k zeta(2k)/(k(2k+1)) r^(k-1) at the 14 Chebyshev
    nodes of [0, 1/4], solved and rounded from 50 digits."""
    degree = len(_SERIES) - 1
    with mpmath.workdps(50):
        # 120 terms: the series' ratio is at most 1/4 on [0, 1/4]
        series = [mpmath.zeta(2 * k) / (k * (2 * k + 1))
                  for k in range(1, 121)]
        nodes = [(1 + mpmath.cos((2 * j + 1) * mpmath.pi / (2 * degree + 2)))
                 / 8 for j in range(degree + 1)]
        V = mpmath.matrix([[r ** p for p in range(degree + 1)]
                           for r in nodes])
        f = mpmath.matrix([mpmath.polyval(series[::-1], r) for r in nodes])
        coefficients = mpmath.lu_solve(V, f)
    assert [float(c) for c in coefficients] == _SERIES.tolist()


def test_vol2_values_and_orientation():
    rng = np.random.default_rng(3)
    for _ in range(30):
        pts = [random_ideal(rng, 2) for _ in range(3)]
        r = vol2(pts)
        assert r.method == "exact2"
        assert r.value in (math.pi, -math.pi, 0.0)
        assert r.value == orientation_sign(pts) * math.pi
        swapped = [pts[1], pts[0], pts[2]]
        assert vol2(swapped).value == -r.value
    # coincident pair vanishes
    xi = random_ideal(rng, 2)
    assert vol2([xi, xi, random_ideal(rng, 2)]).value == 0.0


def test_vol2_counterclockwise_is_plus_pi():
    pts = [IdealPoint(np.array([math.cos(a), math.sin(a)]))
           for a in (0.1, 2.0, 4.0)]
    assert vol2(pts).value == math.pi
    # area-form quadrature agrees
    q = voln(pts, tol=1e-8)
    assert abs(q.value - math.pi) < 1e-7


def test_vol3_regular_value():
    ref = reference_regular(3, 1)
    r = vol3(ref.base.vertices)
    assert abs(r.value - V3) < 1e-12
    assert abs(V3 - 1.0149416064) < 1e-10
    assert r.method == "lobachevsky3"


def test_vol3_degenerate_and_mirror():
    rng = np.random.default_rng(5)
    xi = random_ideal(rng, 3)
    pts = [xi, xi] + [random_ideal(rng, 3) for _ in range(2)]
    assert vol3(pts).value == 0.0
    for _ in range(20):
        pts = [random_ideal(rng, 3) for _ in range(4)]
        mirror = [IdealPoint(p.coords * np.array([1.0, -1.0, 1.0])) for p in pts]
        assert abs(vol3(mirror).value + vol3(pts).value) < 1e-12


def test_vol3_alternation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pts = [random_ideal(rng, 3) for _ in range(4)]
        base = vol3(pts).value
        for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
            q = list(pts)
            q[i], q[j] = q[j], q[i]
            assert abs(vol3(q).value + base) < 1e-12


def test_equivariance():
    rng = np.random.default_rng(11)
    for n, evaluator, tol in ((2, vol2, 1e-9), (3, vol3, 1e-9)):
        for _ in range(25):
            pts = [random_ideal(rng, n) for _ in range(n + 1)]
            g = random_isometry(rng, n, max_translation=1.5)
            moved = [act_ideal(g, p) for p in pts]
            assert abs(evaluator(moved).value
                       - g.sign * evaluator(pts).value) < tol


def test_equivariance_quadrature_n4():
    rng = np.random.default_rng(13)
    for _ in range(3):
        pts = [random_ideal(rng, 4) for _ in range(5)]
        g = random_isometry(rng, 4, max_translation=1.0)
        moved = [act_ideal(g, p) for p in pts]
        a = voln(pts, tol=1e-6)
        b = voln(moved, tol=1e-6)
        assert abs(b.value - g.sign * a.value) < a.abs_error + b.abs_error + 2e-6


def test_cocycle_identity():
    rng = np.random.default_rng(17)
    for _ in range(25):
        pts = [random_ideal(rng, 2) for _ in range(4)]
        assert abs(vol_defect(pts)) < 1e-12
    for _ in range(25):
        pts = [random_ideal(rng, 3) for _ in range(5)]
        assert abs(vol_defect(pts)) < 1e-9
    xi = random_ideal(rng, 3)
    assert vol_defect([xi] * 5) == 0.0


def test_vol_defect_is_the_face_loop_bit_for_bit():
    """The one vol_batch call over the n+2 faces gives the alternating
    sum of vol over the faces, added in face order, bit for bit."""
    rng = np.random.default_rng(19)
    for n in (2, 3, 4):
        for _ in range(100):
            pts = [random_ideal(rng, n) for _ in range(n + 2)]
            total = 0.0
            for j in range(n + 2):
                total += (-1) ** j * vol(pts[:j] + pts[j + 1:]).value
            assert vol_defect(pts).hex() == total.hex()


def test_orientation_sign_basics():
    ref = reference_regular(3, 1)
    pts = list(ref.base.vertices)
    assert orientation_sign(pts) == 1
    pts[0], pts[1] = pts[1], pts[0]
    assert orientation_sign(pts) == -1


def test_orientation_sign_concyclic_zero():
    # four points on a round circle of S^2 span only a flat simplex
    angles = (0.3, 1.1, 2.9, 4.2)
    pts = [IdealPoint(np.array([math.cos(a) * 0.8, math.sin(a) * 0.8, 0.6]))
           for a in angles]
    assert orientation_sign(pts) == 0
    assert abs(vol3(pts).value) < 1e-12


def _det_sign(P):
    # orientation by the scalar formula: sign of det of the lifts (xi, 1),
    # 0 where two vertices are within 1e-12 or where
    # |det| <= 1e-9 prod_{i<j} |xi_i - xi_j|^(2/n)
    n = P.shape[1]
    d = float(np.linalg.det(np.hstack([P, np.ones((len(P), 1))])))
    gaps = [math.dist(x, y) for x, y in itertools.combinations(P, 2)]
    if min(gaps) < 1e-12 or abs(d) <= 1e-9 * math.prod(gaps) ** (2.0 / n):
        return 0
    return 1 if d > 0 else -1


def test_orientation_signs_batch():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        P = rng.standard_normal((200, n + 1, n))
        P /= np.linalg.norm(P, axis=2, keepdims=True)
        # flat ones: every vertex on the sphere's section by <u, xi> = c
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        W = rng.standard_normal((20, n + 1, n))
        W -= (W @ u)[..., None] * u
        W /= np.linalg.norm(W, axis=2, keepdims=True)
        flat = 0.4 * u + math.sqrt(1.0 - 0.16) * W
        signs = orientation_signs(np.concatenate([P, flat]))
        assert signs.dtype.kind == "i"
        assert list(signs) == [_det_sign(x) for x in np.concatenate([P, flat])]
        assert set(signs[:200]) == {-1, 1}
        assert not np.any(signs[200:])
        assert [orientation_sign([IdealPoint(v) for v in x]) for x in P] \
            == list(signs[:200])


def _cluster(rng, n, gap):
    """n+1 points of S^{n-1} within about gap of a random point."""
    c = rng.standard_normal(n)
    c /= np.linalg.norm(c)
    W = rng.standard_normal((n + 1, n))
    W -= np.outer(W @ c, c)
    P = c + gap * W
    return P / np.linalg.norm(P, axis=1, keepdims=True)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_orientation_signs_equivariant_down_to_small_gaps(n):
    """The degeneracy cut is scale-free: simplices shrunk to vertex gaps
    of 1e-6, most of them below an absolute cut |det| < 1e-9, keep their
    orientations, and every isometry multiplies those by its orientation
    character."""
    rng = np.random.default_rng(70 + n)
    P = np.array([_cluster(rng, n, 10.0 ** -k)
                  for k in range(7) for _ in range(30)])
    signs = orientation_signs(P)
    assert np.all(signs != 0)
    assert np.mean(np.abs(np.linalg.det(null_lifts(P))) < 1e-9) > 0.5
    for _ in range(10):
        g = random_isometry(rng, n, max_translation=1.5,
                            orientation=int(rng.choice((1, -1))))
        moved = act_ideal_many(g.matrix, P)
        assert np.array_equal(orientation_signs(moved), g.sign * signs)


@pytest.mark.parametrize("n", (2, 3))
def test_closed_form_orientations_match_lapack(n):
    """At n = 2, 3 the signs come from the closed-form determinant of the
    vertex differences: on random, flat and clustered simplices they are
    the signs of LAPACK's determinant of the lifts, except on a few of the
    tightest clusters, where LU on the lifts loses every digit and lands
    under the degeneracy cut; there the exact determinant agrees with
    the closed form."""
    rng = np.random.default_rng(90 + n)
    P = rng.standard_normal((100_000, n + 1, n))
    P /= np.linalg.norm(P, axis=2, keepdims=True)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    W = rng.standard_normal((2_000, n + 1, n))
    W -= (W @ u)[..., None] * u
    W /= np.linalg.norm(W, axis=2, keepdims=True)
    c = rng.uniform(-0.9, 0.9, (len(W), 1, 1))
    flat = c * u + np.sqrt(1.0 - c ** 2) * W
    clusters = np.array([_cluster(rng, n, 10.0 ** -k)
                         for k in range(7) for _ in range(500)])
    P = np.concatenate([P, flat, clusters])
    signs = orientation_signs(P)
    differ = np.flatnonzero(signs != _plane_signs(P.transpose(2, 1, 0),
                                                  np.linalg.det(null_lifts(P))))
    assert np.all(differ >= len(P) - len(clusters))
    assert len(differ) <= 10
    with mpmath.workdps(60):
        for i in differ:
            exact = mpmath.det(mpmath.matrix(null_lifts(P[i]).tolist()))
            assert signs[i] == mpmath.sign(exact) != 0


def test_voln_matches_vol3():
    rng = np.random.default_rng(19)
    for _ in range(5):
        pts = [random_ideal(rng, 3) for _ in range(4)]
        q = voln(pts, tol=1e-7)
        assert q.method == "quadrature"
        assert abs(q.value - vol3(pts).value) < 1e-6


def test_voln_degenerate_fast_path():
    rng = np.random.default_rng(23)
    xi = random_ideal(rng, 4)
    pts = [xi, xi] + [random_ideal(rng, 4) for _ in range(3)]
    r = voln(pts)
    assert r.value == 0.0 and r.abs_error == 0.0


def test_voln_unsupported_dimension():
    rng = np.random.default_rng(29)
    pts = [random_ideal(rng, 5) for _ in range(6)]
    with pytest.raises(UnsupportedDimension):
        voln(pts)


def test_voln_budget():
    rng = np.random.default_rng(31)
    pts = [random_ideal(rng, 4) for _ in range(5)]
    with pytest.raises(QuadratureBudgetExceeded):
        voln(pts, tol=1e-12, max_evals=5000)


def test_v4_richardson_and_oracle():
    ref = reference_regular(4, 1)
    a = voln(ref.base.vertices, tol=1e-5)
    b = voln(ref.base.vertices, tol=1e-6)
    assert abs(a.value - b.value) < a.abs_error + b.abs_error
    assert abs(b.value - V4_ORACLE) < 5e-7
    assert abs(v_n(4) - V4_ORACLE) < 5e-8


def test_v_n_values():
    assert v_n(2) == math.pi == V2
    assert abs(v_n(3) - 3 * lobachevsky(math.pi / 3)) < 1e-15


def test_maximality_random_sample():
    rng = np.random.default_rng(37)
    for _ in range(2000):
        pts = [random_ideal(rng, 3) for _ in range(4)]
        assert abs(vol3(pts).value) <= V3 + 1e-12


def test_is_regular():
    rng = np.random.default_rng(41)
    ref = reference_regular(3, 1)
    assert is_regular(ref.base.vertices, 1e-9)
    for _ in range(50):
        g = random_isometry(rng, 3, max_translation=1.5)
        moved = [act_ideal(g, p) for p in ref.base.vertices]
        assert is_regular(moved, 1e-8)
    # order-1e-2 perturbation of one vertex fails at 1e-6
    pts = list(ref.base.vertices)
    c = pts[0].coords + np.array([0.0, 1e-2, 0.0])
    pts[0] = IdealPoint(c / np.linalg.norm(c))
    assert not is_regular(pts, 1e-6)
    with pytest.raises(DegenerateSimplex):
        is_regular([pts[0], pts[0], pts[1], pts[2]], 1e-6)


def plane_backed(P):
    """The rows P (N, k, n) as a view of contiguous coordinate planes
    (n, k, N), the layout that `rigidity` passes to the row API."""
    return np.ascontiguousarray(P.transpose(2, 1, 0)).transpose(2, 1, 0)


def _regular_by_loop(P, tol):
    """The quadruple loop regularity test, one simplex (m, n) at a time:
    None for a vertex gap below max(tol, 1e-12), else the verdict."""
    m = len(P)
    D = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            D[i, j] = D[j, i] = np.linalg.norm(P[i] - P[j])
    if np.min(D[np.triu_indices(m, 1)]) < max(tol, 1e-12):
        return None
    for i, j, k, l in itertools.combinations(range(m), 4):
        for (a, b), (c, e), (f, g), (h, p) in (((i, j), (k, l), (i, k), (j, l)),
                                               ((i, k), (j, l), (i, l), (j, k)),
                                               ((i, j), (k, l), (i, l), (j, k))):
            if abs((D[a, b] * D[c, e]) / (D[f, g] * D[h, p]) - 1.0) > tol:
                return False
    return True


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (3, 4), (4, 4), (4, 5)])
def test_regular_mask_matches_quadruple_loop(n, m):
    rng = np.random.default_rng(10 * n + m)
    ref = np.array([v.coords for v in reference_regular(n, 1).base.vertices])
    batch = []
    for t in range(120):
        g = random_isometry(rng, n, max_translation=1.5)
        P = np.array([act_ideal(g, IdealPoint(v)).coords for v in ref])[:m]
        if t % 4 == 1:
            P = P + 1e-2 * rng.standard_normal(P.shape)
        elif t % 4 == 2:
            P = P + 10 ** rng.uniform(-9, -5) * rng.standard_normal(P.shape)
        elif t % 4 == 3:
            # coincident, closer than COINCIDENCE_TOL, or closer than tol
            gap = (0.0, 1e-13, 1e-7)[t // 4 % 3]
            P[-1] = P[0] + gap * rng.standard_normal(n)
        batch.append(P / np.linalg.norm(P, axis=1, keepdims=True))
    batch = np.array(batch)
    for tol in (1e-8, 1e-6):
        mask = regular_mask(batch, tol)
        expect = [_regular_by_loop(P, tol) for P in batch]
        assert mask.tolist() == [bool(e) for e in expect]
        assert np.array_equal(regular_mask(plane_backed(batch), tol), mask)
        for P, e in zip(batch, expect):
            pts = [IdealPoint(p) for p in P]
            if e is None:
                with pytest.raises(DegenerateSimplex):
                    is_regular(pts, tol)
            else:
                assert is_regular(pts, tol) is e
        assert {True, False} <= set(mask.tolist())


def test_vol_dispatch():
    rng = np.random.default_rng(43)
    pts2 = [random_ideal(rng, 2) for _ in range(3)]
    assert vol(pts2).method == "exact2"
    pts3 = [random_ideal(rng, 3) for _ in range(4)]
    assert vol(pts3).method == "lobachevsky3"
    pts4 = [random_ideal(rng, 4) for _ in range(5)]
    assert vol(pts4, tol=1e-5).method == "schlafli4"
    with pytest.raises(UnsupportedDimension):
        vol([random_ideal(rng, 5) for _ in range(6)])
    for n in (1, 5):
        with pytest.raises(UnsupportedDimension):
            v_n(n)


# -- the closed form for n = 4 ----------------------------------------------

def _regular_mask_all_pairs(P, tol):
    """regular_mask by its former formula, all m^2 vertex distances of
    each simplex of P (N, m, n) through np.linalg.norm, gathered per
    quadruple from the m x m matrix: the mask, the smallest vertex gap
    (N,) and the |ratio - 1| (N, 3, C(m, 4))."""
    (a, b), (i, j, k, l) = [np.array(list(itertools.combinations(
        range(P.shape[1]), r))).reshape(-1, r).T for r in (2, 4)]
    D = np.linalg.norm(P[:, :, None] - P[:, None], axis=-1)
    gap = np.min(D[:, a, b], axis=1)
    ok = gap >= max(tol, COINCIDENCE_TOL)
    prod = D[:, [i, i, i], [j, k, l]] * D[:, [k, j, j], [l, l, k]]
    dev = np.abs(prod[:, [0, 1, 0]] / prod[:, [1, 2, 2]] - 1.0)
    ok[ok] = np.all(dev[ok] <= tol, axis=(1, 2))
    return ok, gap, dev


def _deviation_at(P, v, target):
    """P (m, n) with vertex 0 moved along the tangent v until the largest
    |ratio - 1| is target, to rounding, by secant steps."""
    def moved(e):
        Q = P.copy()
        Q[0] = unit_rows(P[0] + e * v)
        return Q

    def excess(e):
        return _regular_mask_all_pairs(moved(e)[None], 1.0)[2].max() - target

    e0, e1 = 0.0, 1e-6
    f0, f1 = excess(e0), excess(e1)
    for _ in range(8):
        if f1 == f0:
            break
        e0, e1, f0 = e1, e1 - f1 * (e1 - e0) / (f1 - f0), f1
        f1 = excess(e1)
    return moved(e1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_regular_mask_matches_all_pairs_formula(n):
    # regular_mask takes its distances from the C(m, 2) pair gaps; the
    # former formula took all m^2 of them through np.linalg.norm.  The two
    # may round a distance an ulp apart, so a verdict may differ where the
    # reference puts a vertex gap within 4 ulps of max(tol,
    # COINCIDENCE_TOL) or a |ratio - 1| within 8 eps of tol.  The panel
    # places such rows on purpose (ratios at tol (1 +- 1e-7) are a few
    # ulps from it); they are counted as borderline, not dropped, and
    # every other row must agree.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(70 + n)
    base = np.array([v.coords for v in reference_regular(n, 1).base.vertices])
    m = n + 1
    borderline_rows = 0
    for tol in (1e-9, 1e-6, 1e-13):
        thr = max(tol, COINCIDENCE_TOL)
        G, _ = random_isometries(rng, n, 48, 1.5)
        regular = act_ideal_many(G, base)
        panel = list(regular)
        # perturbed by 1e-3 ... 1e-12
        for P in regular[:16]:
            scale = 10 ** rng.uniform(-12, -3)
            panel.append(unit_rows(P + scale * rng.standard_normal(P.shape)))
        # the last vertex moved next to the first, the gap near the
        # threshold on both sides
        for t, P in enumerate(regular[16:32]):
            gap = thr * (1.0 + (-1) ** t * (1e-1, 1e-3, 1e-6, 1e-9)[t // 2 % 4])
            w = rng.standard_normal(n)
            Q = P.copy()
            Q[-1] = unit_rows(P[0] + gap * unit_rows(w - (w @ P[0]) * P[0]))
            panel.append(Q)
        # the largest |ratio - 1| just inside and just outside tol
        if m >= 4 and tol >= 1e-9:
            for t, P in enumerate(regular[32:48]):
                v = rng.standard_normal(n)
                v -= (v @ P[0]) * P[0]
                rel = (-1) ** t * (1e-2, 1e-4, 1e-6, 1e-7)[t // 2 % 4]
                panel.append(_deviation_at(P, v, tol * (1.0 + rel)))
        panel = np.array(panel)
        mask = regular_mask(panel, tol)
        expect, gap, dev = _regular_mask_all_pairs(panel, tol)
        borderline = ((np.abs(gap - thr) <= 4 * eps * thr)
                      | (np.min(np.abs(dev - tol), axis=(1, 2),
                                initial=np.inf) <= 8 * eps))
        assert np.array_equal(mask[~borderline], expect[~borderline])
        borderline_rows += borderline.sum()
        # both verdicts occur off the border
        assert {True, False} <= set(expect[~borderline].tolist())
        for P, ok, g in zip(panel, mask, gap):
            pts = [IdealPoint(p) for p in P]
            if ok:
                assert is_regular(pts, tol)
            elif g < thr * (1.0 - 4 * eps):
                with pytest.raises(DegenerateSimplex):
                    is_regular(pts, tol)
            elif g > thr * (1.0 + 4 * eps):
                assert is_regular(pts, tol) is False
    # the rows placed within ulps of a threshold are few
    assert borderline_rows <= 12


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def near_flat_simplex(rng, delta, n=4):
    """n + 1 points on an (n-2)-sphere of S^(n-1) (a flat simplex), the
    last moved off it by delta along the sphere's axis."""
    u = unit_rows(rng.standard_normal(n))
    W = rng.standard_normal((n + 1, n))
    W = unit_rows(W - np.outer(W @ u, u))
    c = rng.uniform(-0.8, 0.8)
    P = c * u + math.sqrt(1.0 - c * c) * W
    P[n] = unit_rows(P[n] + delta * u)
    return P


def near_coincident_simplex(rng, gap, n=4):
    P = unit_rows(rng.standard_normal((n + 1, n)))
    t = rng.standard_normal(n)
    P[n] = unit_rows(P[0] + gap * unit_rows(t - (t @ P[0]) * P[0]))
    return P


def vol4_mpmath(P):
    """(pi/3)(4 pi - sum theta_ij) through D -> G = D^-1 -> theta at 50
    digits, the float64 vertices taken as exact."""
    with mpmath.workdps(50):
        X = [[mpmath.mpf(float(x)) for x in row] for row in P]
        D = mpmath.matrix(5, 5)
        for i in range(5):
            for j in range(5):
                D[i, j] = -sum((X[i][k] - X[j][k]) ** 2 for k in range(4)) / 2
        G = D ** -1
        total = sum(mpmath.acos(-G[i, j] / mpmath.sqrt(G[i, i] * G[j, j]))
                    for i, j in itertools.combinations(range(5), 2))
        return (mpmath.pi / 3) * (4 * mpmath.pi - total)


def test_vol4_regular_value():
    assert abs(V4 - V4_ORACLE) < 1e-10
    assert v_n(4) == V4
    ref = np.array([p.coords for p in reference_regular(4, 1).base.vertices])
    value, err = vol4_batch(ref[None])
    assert abs(value[0] - V4_ORACLE) <= err[0] + 1e-10
    assert 0.0 < err[0] < 1e-10
    # odd permutations flip the sign
    value_swapped, _ = vol4_batch(ref[[1, 0, 2, 3, 4]][None])
    assert value_swapped[0] == -value[0]


def test_vol4_matches_quadrature():
    # about 4 in 10 random simplices exhaust the quadrature budget at 1e-8;
    # draw until 50 have converged
    rng = np.random.default_rng(47)
    compared = 0
    while compared < 50:
        P = unit_rows(rng.standard_normal((5, 4)))
        try:
            q = voln([IdealPoint(x) for x in P], tol=1e-8)
        except QuadratureBudgetExceeded:
            continue
        value, err = vol4_batch(P[None])
        assert abs(value[0] - q.value) <= err[0] + q.abs_error
        compared += 1


def test_vol4_error_bound_against_mpmath():
    rng = np.random.default_rng(53)
    batch = list(unit_rows(rng.standard_normal((300, 5, 4))))
    for k in range(3, 9):
        batch += [near_flat_simplex(rng, 10.0 ** -k) for _ in range(25)]
    for k in range(6, 12):
        batch += [near_coincident_simplex(rng, 10.0 ** -k) for _ in range(25)]
    batch = np.array(batch)
    values, errs = vol4_batch(batch)
    signs = orientation_signs(batch)
    assert np.all(values * signs >= 0.0)
    assert np.all(values[signs == 0] == 0.0) and np.all(errs[signs == 0] == 0.0)
    checked = 0
    for P, value, err in zip(batch[signs != 0], values[signs != 0],
                             errs[signs != 0]):
        exact = vol4_mpmath(P)
        assert abs(abs(value) - float(abs(exact))) <= err
        checked += 1
    assert checked >= 500


def test_vol4_near_coincident_values_keep_their_digits():
    """vol4_batch's values, not only its bounds, on near-coincident
    simplices: the median error against 50 digits at vertex gaps 1e-7,
    1e-9 and 1e-11 stays within 1e-7, 1e-5 and 1e-3, on 25 simplices a
    gap.  The Gram route measures medians of 3.0-6.6e-9, 2.5-3.2e-7 and
    2.1-5.7e-5 on such panels.  Its bound falls back to |value| + v4
    there, so this is what fails a route that loses the close pair's
    digits: Gram minors written as polynomials in the pair gaps measured
    7.6e-3-1.4e-2, 1.1-1.9 and 1.8-2.0 while every bound test passed."""
    rng = np.random.default_rng(71)
    for gap, most in ((1e-7, 1e-7), (1e-9, 1e-5), (1e-11, 1e-3)):
        P = np.array([near_coincident_simplex(rng, gap) for _ in range(25)])
        values, _ = vol4_batch(P)
        errors = [abs(abs(value) - float(vol4_mpmath(x)))
                  for x, value in zip(P, values)]
        assert np.median(errors) <= most, gap


def test_vol4_goes_to_zero_as_simplices_flatten():
    rng = np.random.default_rng(59)
    offsets = np.array([10.0 ** -k for k in range(1, 9)] + [0.0])
    for _ in range(10):
        seed = rng.integers(2**31)
        P = np.array([near_flat_simplex(np.random.default_rng(seed), d)
                      for d in offsets])
        values, _ = vol4_batch(P)
        signs = orientation_signs(P)
        assert values[-1] == 0.0 and signs[-1] == 0
        assert np.all(np.sign(values) == signs)
        # linear in the offset down to the degeneracy cut, to first order
        live = signs != 0
        slopes = np.abs(values[live]) / offsets[live]
        small = offsets[live] <= 1e-4
        assert np.allclose(slopes[small], slopes[-1], rtol=1e-4, atol=0.0)
        assert np.all(np.diff(np.abs(values)) <= 0.0)


def test_lift_det_error_constant_bounds_every_simplex():
    """vol4_batch's constant bound on the rounding of det(lifts) dominates
    `_det_error` of the lifts themselves, on unit vertices and on vertices
    at either end of IdealPoint's tolerance, axis-aligned ones included,
    and is not looser than the unit bound by more than 1e-11."""
    rng = np.random.default_rng(61)
    P = unit_rows(rng.standard_normal((100_000, 5, 4)))
    axes = (np.eye(4)[rng.integers(0, 4, (1000, 5))]
            * rng.choice((-1.0, 1.0), (1000, 5, 1)))
    for X in (P, axes):
        for scale in (1.0, 1.0 + POINT_TOL, 1.0 - POINT_TOL):
            assert _det_error(null_lifts(scale * X)).max() <= _LIFT_DET_ERROR
    assert _LIFT_DET_ERROR <= (1.0 + 1e-11) * _det_error(null_lifts(P)).min()


# -- vol3 against a 40-digit oracle -----------------------------------------

def small_cap(rng, radius, n=3, near=None):
    """n + 1 points within radius of one point of S^(n-1), random or
    within about radius/3 of the point ``near``: the cusp-compressed
    simplices that smearing produces."""
    c = unit_rows(rng.standard_normal(n) if near is None
                  else near + radius / 3.0 * rng.standard_normal(n))
    V = rng.standard_normal((n + 1, n))
    V -= np.outer(V @ c, c)
    return unit_rows(c + radius * V / np.linalg.norm(V, axis=1).max())


def vol3_bloch_wigner(P, project=False):
    """Vol of the ideal tetrahedron P (4, 3) at 40 digits, its float64
    vertices taken as exact, or with ``project`` first projected onto the
    sphere, xi/|xi|: the Bloch-Wigner dilogarithm
    D(z) = Im Li_2(z) + arg(1 - z) log|z| of the cross-ratio z that sends
    vertices 0, 1, 2 to 0, 1, infinity, at vertex 3, in the chart
    w = (xi_1 + i xi_2)/(1 - xi_3); D(1/z) = -D(z) takes |z| > 1 to the
    unit disk."""
    with mpmath.workdps(40):
        X = mpmath.matrix(P.tolist())
        if project:
            for r in range(4):
                X[r, :] /= mpmath.norm(X[r, :])
        w = [mpmath.mpc(X[r, 0], X[r, 1]) / (1 - X[r, 2]) for r in range(4)]
        z = (w[3] - w[0]) * (w[1] - w[2]) / ((w[3] - w[2]) * (w[1] - w[0]))
        sign = 1
        if abs(z) > 1:
            z, sign = 1 / z, -1
        return float(sign * (mpmath.polylog(2, z).imag
                             + mpmath.arg(1 - z) * mpmath.log(abs(z))))


def test_vol3_against_bloch_wigner():
    """vol3_batch against the dilogarithm on random, near-coincident
    (gap 1e-4 ... 1e-9), near-flat (1e-3 ... 1e-9) and small-cap
    (radius 1e-3 ... 1e-7) tetrahedra.  On a cap of radius r the chart's
    rounding, relative u, meets vertex gaps of r, so the error grows about
    like u/r; a formula that loses u/r^2 there, as Crelle's atan2 form of
    the dihedral angles does, fails on every cap size.  The largest errors
    measured on these draws are 1.4e-14 off the caps and 13 u/r on them;
    the bounds are 6e-14 and 100 u/r.  The oracle takes the vertices
    projected onto the sphere: read as exact, a float xi_3 near the north
    pole puts a relative error u/|1 - xi_3| into the chart, past these
    bounds on a cap there."""
    for name, k, P in _bloch_wigner_panel():
        want = np.array([vol3_bloch_wigner(x, project=True) for x in P])
        bound = 100.0 * U / 10.0 ** -k if name == "cap" else 6e-14
        assert np.abs(vol3_batch(P) - want).max() <= bound, (name, k)


def _bloch_wigner_panel():
    """(name, k, P) of test_vol3_against_bloch_wigner: 100 random
    tetrahedra, then 15 each near-coincident at gap 10^-k, near-flat at
    10^-k and on a cap of radius 10^-k."""
    rng = np.random.default_rng(67)
    panel = [("random", None, unit_rows(rng.standard_normal((100, 4, 3))))]
    for name, draw, sizes in (("near-coincident", near_coincident_simplex,
                               range(4, 10)),
                              ("near-flat", near_flat_simplex, range(3, 10)),
                              ("cap", small_cap, range(3, 8))):
        panel += [(name, k, np.array([draw(rng, 10.0 ** -k, n=3)
                                      for _ in range(15)])) for k in sizes]
    return panel


def test_vol3_abs_error_bounds_the_oracle():
    """vol3's abs_error, the first-order bound of `_vol3_error`, holds
    against the dilogarithm of the vertices projected onto the sphere:
    on the panel of test_vol3_against_bloch_wigner, on caps at both
    poles and on the equator, and with the vertices off the sphere by up
    to POINT_TOL.  The largest error is 0.16 of the bound here, and was
    0.28 on about 1 000 more draws of these kinds.
    On caps of radius r the bound stays under 2000 u/r: it follows the
    u/r loss, where the fixed 1e-12 it replaces was exceeded 4400-fold
    at r = 1e-7.  The oracle takes the vertices projected because the
    float ones are no exact points of the sphere: near the north pole
    the chart's 1 - xi_3 of the float xi_3 is off by u/|xi_3 - 1|
    relative, so there the as-given oracle itself moves by more than
    the bound (measured 2.8e-5 at r = 1e-5), while vol3 reads the
    northern chart pair from xi_1, xi_2 and 1 + xi_3."""
    rng = np.random.default_rng(68)
    panel = _bloch_wigner_panel()
    for pole in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0)):
        panel += [("cap", k, np.array([small_cap(rng, 10.0 ** -k,
                                                 near=np.array(pole))
                                       for _ in range(6)]))
                  for k in (3, 5, 7)]
    off = 1.0 + 0.9 * POINT_TOL * rng.uniform(-1.0, 1.0, (40, 4, 1))
    panel += [("off-sphere", None,
               off[:20] * unit_rows(rng.standard_normal((20, 4, 3)))),
              ("off-sphere cap", 4, off[20:] * np.array(
                  [small_cap(rng, 1e-4) for _ in range(20)]))]
    worst = 0.0
    for name, k, P in panel:
        for x in P:
            r = vol3([IdealPoint(v) for v in x])
            assert r.abs_error < abs(r.value) + V3, (name, k)
            miss = abs(r.value - vol3_bloch_wigner(x, project=True))
            assert miss <= r.abs_error, (name, k)
            worst = max(worst, miss / r.abs_error)
            if name == "cap":
                assert r.abs_error <= 2000.0 * U / 10.0 ** -k, k
    assert worst > 0.1


def test_vol3_coincidence_is_the_pair_gaps_decision():
    """vol3_batch takes its pair gaps with `_plane_gaps2` on the
    coordinate planes it copies, so the gaps are the same bits as on the
    planes of the rows, and a tetrahedron is 0 exactly where
    `_coincident_rows` finds a coincident pair, also on pairs straddling
    COINCIDENCE_TOL by 1e-3 relative, where the gaps' last bits decide."""
    rng = np.random.default_rng(69)
    P = unit_rows(rng.standard_normal((4000, 4, 3)))
    (i, j), rows = _index_sets(4)[0], np.arange(len(P))
    pair = rng.integers(0, 6, len(P))
    t = rng.standard_normal((len(P), 3))
    base = P[rows, i[pair]]
    t = unit_rows(t - np.sum(t * base, axis=1, keepdims=True) * base)
    h = COINCIDENCE_TOL * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, len(P)))
    P[rows, j[pair]] = unit_rows(base + h[:, None] * t)
    gaps2 = _plane_gaps2(P.transpose(2, 1, 0))
    values, _, vol3_gaps2 = _vol3_planes(P)
    assert np.array_equal(vol3_gaps2, gaps2)
    coincident = _coincident_rows(gaps2)
    assert 0.2 < coincident.mean() < 0.8
    assert np.array_equal(values == 0.0, coincident)
    assert np.array_equal(vol3_batch(P), values)


def _mixed_simplices(rng, n, count):
    """count vertex orders (count, n+1, n): random ones, near-flat ones
    on both sides of the degeneracy cut, clustered and coincident ones."""
    k = count // 4
    flat = [near_flat_simplex(rng, d, n=n) for d in
            10.0 ** rng.uniform(-12.0, -6.0, k)] if n >= 3 else []
    clusters = [_cluster(rng, n, 10.0 ** -rng.uniform(1.0, 7.0))
                for _ in range(k)]
    P = unit_rows(rng.standard_normal((count - len(flat) - k, n + 1, n)))
    P[::7, 1] = P[::7, 0]
    return rng.permutation(np.concatenate([P, *[np.array(a) for a in
                                                 (flat, clusters) if a]]))


def test_rows_alone_match_batches():
    """Each row of vol3_batch and of orientation_signs, and of the
    determinants behind the signs, has the same bits alone as in batches
    of N = 16, 256 and 1288 (an item's test candidates, its images, the
    consensus walk), at the start and at the end of a larger batch, and
    orientation_signs the same bits on the batches as views of
    coordinate planes."""
    rng = np.random.default_rng(70)
    for n in (2, 3):
        P = _mixed_simplices(rng, n, 1500)
        kernels = [orientation_signs,
                   lambda P: _plane_dets(P.transpose(2, 1, 0))] + (
            [vol3_batch] if n == 3 else [])
        for f in kernels:
            alone = np.concatenate([f(p[None]) for p in P])
            for N in (16, 256, 1288):
                for start in (0, len(P) - N):
                    assert np.array_equal(f(P[start:start + N]),
                                          alone[start:start + N]), (f, N)
        for N in (16, 256, 1288):
            for start in (0, len(P) - N):
                assert np.array_equal(
                    orientation_signs(plane_backed(P[start:start + N])),
                    orientation_signs(P[start:start + N])), N


@pytest.mark.parametrize("n", (2, 3))
def test_plane_dets_are_the_row_layout_stack_det(n):
    """`_plane_dets` at n = 2, 3 takes its differences and stack_det on
    coordinate planes: bit for bit (-1)^n stack_det(P[:, 1:] - P[:, :1])
    on the row layout, near-flat rows straddling the degeneracy cut
    included, and so the same orientations."""
    rng = np.random.default_rng(71 + n)
    P = _mixed_simplices(rng, n, 4000)
    want = (-1) ** n * stack_det(P[:, 1:] - P[:, :1])
    got = _plane_dets(P.transpose(2, 1, 0))
    assert np.array_equal(got, want)
    assert np.array_equal(orientation_signs(P),
                          _plane_signs(P.transpose(2, 1, 0), want))
    if n == 3:
        # near-flat rows on both sides of the cut
        near = np.abs(want) <= DEGENERATE_DET_TOL * 2.0 ** (n + 1)
        cut = orientation_signs(P[near]) == 0
        assert 0 < cut.sum() < len(cut)


def _points(draw_rows):
    rows = np.array(draw_rows, dtype=float)
    norms = np.linalg.norm(rows, axis=1)
    assume(np.all(norms > 0.1))
    return rows / norms[:, None]


_COORD = st.floats(-1.0, 1.0, allow_nan=False)
_ROW4 = st.lists(_COORD, min_size=4, max_size=4)


def _clear_of_the_cut(P):
    # below the degeneracy cut a simplex counts as flat and its volume is
    # set to 0; the properties are stated away from that convention
    return np.all(np.abs(np.linalg.det(
        np.concatenate([P, np.ones(P.shape[:-1] + (1,))], axis=-1))) > 1e-7)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(_ROW4, min_size=6, max_size=6))
def test_vol4_cocycle_identity_property(rows):
    X = _points(rows)
    faces = np.array([np.delete(X, j, axis=0) for j in range(6)])
    assume(_clear_of_the_cut(faces))
    values, errs = vol4_batch(faces)
    defect = sum((-1) ** j * v for j, v in enumerate(values))
    assert abs(defect) <= errs.sum()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(_ROW4, min_size=5, max_size=5),
       st.integers(0, 2**31 - 1))
def test_vol4_equivariance_property(rows, seed):
    X = _points(rows)
    g = random_isometry(np.random.default_rng(seed), 4, max_translation=1.5)
    moved = np.array([act_ideal(g, IdealPoint(x)).coords for x in X])
    assume(_clear_of_the_cut(np.array([X, moved])))
    values, errs = vol4_batch(np.array([X, moved]))
    assert abs(values[1] - g.sign * values[0]) <= errs.sum()


# n = 2, 3: the exact evaluators, through the batch form the smearing runs
_ROWS = {n: st.lists(_COORD, min_size=n, max_size=n) for n in (2, 3)}
# vol2 takes the exact values 0 and +-pi, so its identities hold exactly
_TOL = {2: 0.0, 3: 1e-12}


@pytest.mark.parametrize("n", (2, 3))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_vol_batch_cocycle_identity_property(n, data):
    X = _points(data.draw(st.lists(_ROWS[n], min_size=n + 2,
                                   max_size=n + 2)))
    faces = np.array([np.delete(X, j, axis=0) for j in range(n + 2)])
    assume(_clear_of_the_cut(faces))
    values = vol_batch(faces)
    defect = sum((-1) ** j * v for j, v in enumerate(values))
    assert abs(defect) <= _TOL[n]


@pytest.mark.parametrize("n", (2, 3))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_vol_batch_equivariance_property(n, data):
    X = _points(data.draw(st.lists(_ROWS[n], min_size=n + 1,
                                   max_size=n + 1)))
    g = random_isometry(np.random.default_rng(data.draw(
        st.integers(0, 2**31 - 1))), n, max_translation=1.5,
        orientation=data.draw(st.sampled_from((1, -1))))
    moved = np.array([act_ideal(g, IdealPoint(x)).coords for x in X])
    assume(_clear_of_the_cut(np.array([X, moved])))
    values = vol_batch(np.array([X, moved]))
    assert abs(values[1] - g.sign * values[0]) <= _TOL[n]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.lists(_COORD, min_size=3, max_size=3),
                min_size=4, max_size=4),
       st.one_of(st.none(), st.integers(1, 12)))
def test_vol3_matches_voln_property(rows, flatness):
    """vol3 against the quadrature oracle on generated tetrahedra; with
    flatness = k the vertices are first put on a circle of S^2 and the
    last is moved off it by 10^-k, so near-flat ones are included."""
    P = _points(rows)
    if flatness is not None:
        u = np.array([0.6, 0.0, 0.8])
        W = P - np.outer(P @ u, u)
        assume(np.all(np.linalg.norm(W, axis=1) > 0.1))
        P = 0.3 * u + math.sqrt(0.91) * W / np.linalg.norm(
            W, axis=1, keepdims=True)
        P[3] += 10.0 ** -flatness * u
        P[3] /= np.linalg.norm(P[3])
    gaps = [math.dist(x, y) for x, y in itertools.combinations(P, 2)]
    assume(min(gaps) > 1e-3)
    pts = [IdealPoint(x) for x in P]
    try:
        q = voln(pts, tol=1e-7)
    except QuadratureBudgetExceeded:
        # the oracle gave no answer, which says nothing about vol3
        assume(False)
    value = vol3(pts).value
    # the oracle reaches its target to about twice its tolerance
    assert abs(value - q.value) <= 2e-7 + q.abs_error
    if q.value == 0.0:
        # the oracle's zero is the degeneracy cut: a flat simplex
        assert abs(value) < 1e-7
    else:
        assert abs(value) < 2e-7 + q.abs_error or \
            np.sign(value) == np.sign(q.value)
