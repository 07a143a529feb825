import math
import warnings

import numpy as np
import pytest

from hyprig.errors import (
    BarycentricOutOfRange,
    DegenerateConfiguration,
    IdealFullWeight,
    NotLorentz,
    OutOfModel,
    TimeReversing,
    TooManyPoints,
)
from hyprig.hypcore import (
    Isometry,
    IdealPoint,
    _frame_signs,
    _frames,
    _lorentz_stack,
    SpacePoint,
    act_ideal,
    act_point,
    basepoint,
    convert,
    halfspace_to_hyperboloid,
    hyperplane_through,
    identity_isometry,
    make_isometry,
    mink,
    minkowski_matrix,
    null_lifts,
    random_isometries,
    random_isometry,
    reflect_in,
    straighten,
    transvection_frames,
)
from oracles import halfspace_to_boundary, translation_to


def random_space_point(rng, n, scale=1.0):
    u = rng.standard_normal(n) * scale
    return SpacePoint(np.append(np.sinh(np.linalg.norm(u)) * u / np.linalg.norm(u),
                                np.cosh(np.linalg.norm(u))))


def random_ideal_point(rng, n):
    v = rng.standard_normal(n)
    return IdealPoint(v / np.linalg.norm(v))


def test_point_validation():
    basepoint(3)
    with pytest.raises(OutOfModel):
        SpacePoint(np.array([0.0, 0.0, 0.0, 2.0]))
    with pytest.raises(OutOfModel):
        SpacePoint(np.array([0.0, 0.0, 0.0, -1.0]))
    with pytest.raises(OutOfModel):
        IdealPoint(np.array([1.0, 1.0, 0.0]))


def test_make_isometry_accepts_and_repairs():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for _ in range(20):
            g = random_isometry(rng, n)
            M = g.matrix + rng.standard_normal(g.matrix.shape) * 1e-10
            h = make_isometry(M)
            J = minkowski_matrix(n)
            assert np.max(np.abs(h.matrix.T @ J @ h.matrix - J)) < 1e-12
            assert np.max(np.abs(h.matrix - g.matrix)) < 1e-8


def test_make_isometry_rejects():
    with pytest.raises(NotLorentz):
        make_isometry(np.eye(4) * 1.1)
    with pytest.raises(TimeReversing):
        make_isometry(minkowski_matrix(3))
    bad = np.eye(4) + 1e-6
    with pytest.raises(NotLorentz):
        make_isometry(bad)
    with pytest.raises(NotLorentz, match="form defect"):
        make_isometry(np.full((4, 4), np.nan))


def _gram_schmidt_j(M):
    """Modified Gram-Schmidt of the columns of one matrix against the
    Minkowski form, one column at a time: the reference for the stacked
    repair."""
    n = len(M) - 1
    Q = M.astype(float).copy()
    for j in range(n + 1):
        v = Q[:, j].copy()
        for i in range(j):
            qi = Q[:, i]
            v -= (mink(v, qi) / mink(qi, qi)) * qi
        Q[:, j] = v / np.sqrt(abs(mink(v, v)))
    return Q


def _relative_defect(M):
    """max|M^T J M - J| / max(1, max|M|)^2 of a stack M (..., n+1, n+1)."""
    J = minkowski_matrix(M.shape[-1] - 1)
    defect = np.abs(np.swapaxes(M, -1, -2) @ J @ M - J).max(axis=(-2, -1))
    return defect / np.maximum(1.0, np.abs(M).max(axis=(-2, -1))) ** 2


def _make_isometry_by_formula(M):
    """make_isometry on one matrix, as a reference for the stacked checks:
    kept at rounding for its scale, repaired while the defect is small,
    rejected beyond."""
    J = minkowski_matrix(len(M) - 1)
    defect = float(np.max(np.abs(M.T @ J @ M - J)))
    if _relative_defect(M) > 1e-13:
        if defect > 1e-8:
            raise NotLorentz(f"form defect {defect:.3e} exceeds 1e-08")
        M = _gram_schmidt_j(M)
    if M[-1, -1] <= 0:
        raise TimeReversing("matrix reverses the time orientation")
    return Isometry(M, 1 if np.linalg.det(M) > 0 else -1)


def _random_isometry_by_objects(rng, n, max_translation=1.0,
                                orientation=None):
    """random_isometry one draw at a time: the frame Q, the translation
    length d and the direction u, read as the batched draws read them,
    and the isometry formed from the frame rotation and the transvection
    objects, through the midpoint and two point symmetries."""
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if orientation is not None and np.sign(np.linalg.det(Q)) != orientation:
        Q[:, 0] = -Q[:, 0]
    d = rng.uniform(0.0, max_translation)
    u = rng.standard_normal(n)
    u = u / np.linalg.norm(u)
    target = SpacePoint(np.append(np.sinh(d) * u, np.cosh(d)))
    M = np.eye(n + 1)
    M[:n, :n] = Q
    return Q, d, u, translation_to(target) @ _make_isometry_by_formula(M)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("orientation", [None, 1, -1])
def test_random_isometries_match_frame_and_transvection(n, orientation):
    # checked against properties that share no code with
    # transvection_frames; the bounds are in units of eps max(1, max|M|)
    # (eps max|t| for the frame), about twice the largest measured over
    # 9 720 draws (form 4.9, frame 0.94, object route 5.0)
    eps = np.finfo(float).eps
    J = minkowski_matrix(n)
    for seed in range(6):
        for window in (1.0, 2.5, 10.0):
            batched, single, looped = (np.random.default_rng(seed)
                                       for _ in range(3))
            M, signs = random_isometries(batched, n, 9, window, orientation)
            ref = [_random_isometry_by_objects(looped, n, window, orientation)
                   for _ in range(9)]
            one = [random_isometry(single, n, window, orientation)
                   for _ in range(9)]
            assert np.array_equal(M, np.array([g.matrix for g in one]))
            assert signs.tolist() == [g.sign for *_, g in ref] == [g.sign for g in one]
            if orientation is not None:
                assert set(signs.tolist()) == {orientation}
            for G, (Q, d, u, g) in zip(M, ref):
                scale = max(1.0, np.abs(G).max())
                assert np.abs(G.T @ J @ G - J).max() <= 10 * eps * scale ** 2
                # the basepoint goes to (sinh(d) u, cosh d)
                o = np.zeros(n + 1)
                o[n] = 1.0
                point = np.append(np.sinh(d) * u, np.cosh(d))
                assert np.abs(G @ o - point).max() <= 2 * eps * scale
                # the frame block is the QR frame plus a rank-one term
                t = np.outer(G[:n, n], G[n, :n]) / (1.0 + G[n, n])
                assert (np.abs(G[:n, :n] - t - Q).max()
                        <= 2 * eps * max(1.0, np.abs(t).max()))
                # the midpoint route rounds its form at relative eps cosh d
                assert np.abs(G - g.matrix).max() <= 10 * eps * scale ** 2
            # the generators are left in the same state
            assert batched.random() == looped.random() == single.random()


def _random_isometries_three_calls(rng, n, k, max_translation,
                                   orientation):
    """`random_isometries` read the way it was first written: three
    generator calls per draw, the frame block, ``uniform`` for the
    translation length and the direction, each direction normalised on
    its own."""
    A = np.empty((k, n, n))
    d = np.empty(k)
    u = np.empty((k, n))
    for i in range(k):
        rng.standard_normal(out=A[i])
        d[i] = rng.uniform(0.0, max_translation)
        v = rng.standard_normal(out=u[i])
        v /= math.sqrt(v.dot(v))
    frames = _frames(A, orientation)
    with np.errstate(all="ignore"):
        P = np.concatenate([np.sinh(d)[:, None] * u, np.cosh(d)[:, None]],
                           axis=1)
        return transvection_frames(P, frames), _frame_signs(frames)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_isometries_are_the_three_call_loop_bit_for_bit(n):
    # two generator calls per draw read the stream the three-call loop
    # reads, and the stacked normalisation rounds as ndarray.dot does:
    # every matrix and sign is bit for bit the loop's, and the generator
    # is left in the same state
    for seed in range(5):
        for k in (1, 2, 8, 20):
            for window in (0.0, 0.5, 2.5, 10.0):
                for orientation in (None, 1, -1):
                    fast, loop = (np.random.default_rng([seed, n, k])
                                  for _ in range(2))
                    M, signs = random_isometries(fast, n, k, window,
                                                 orientation)
                    M0, signs0 = _random_isometries_three_calls(
                        loop, n, k, window, orientation)
                    assert M.tobytes() == M0.tobytes()
                    assert signs.tolist() == signs0.tolist()
                    assert fast.bit_generator.state == loop.bit_generator.state
    # no draw reads the generator, and a window numpy's uniform refuses
    # is refused with its error
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    M, signs = random_isometries(rng, n, 0)
    assert M.shape == (0, n + 1, n + 1) and signs.shape == (0,)
    assert rng.bit_generator.state == state
    for window in (-0.5, math.inf, math.nan):
        with pytest.raises((ValueError, OverflowError)) as expect:
            np.random.default_rng(0).uniform(0.0, window)
        with pytest.raises(expect.type, match=str(expect.value)):
            random_isometries(rng, n, 3, window)


def test_act_ideal_matches_formula_bit_for_bit():
    # the one-point action and the null lifts keep the arithmetic of the
    # formulas below, which consensus repeats on its stack of seeds so
    # that its seed vertices are bit for bit those act_ideal gives
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        G, signs = random_isometries(rng, n, 20, 2.5)
        X = rng.standard_normal((30, n))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        lifts = np.concatenate([X, np.ones((30, 1))], axis=1)
        assert np.array_equal(null_lifts(X), lifts)
        for M, sign in zip(G, signs):
            g = Isometry(M, int(sign))
            for x, lift in zip(X, lifts):
                y = M @ lift
                v = y[:-1] / y[-1]
                got = act_ideal(g, IdealPoint(x)).coords
                assert np.array_equal(got, v / np.linalg.norm(v))


def test_random_isometries_past_overflow_raise_out_of_model():
    # translation lengths past about 355, where sinh(d)^2 overflows, leave
    # the transvection non-finite; the draw raises instead of returning
    # NaN matrices, with no warning, after reading the generator as any
    # draw does.  The first draws at 4000 have d = 2400, 455 and 3876.
    for n in (2, 3, 4):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfModel, match="translation length"):
                random_isometries(rng, n, 3, max_translation=2000.0)
            with pytest.raises(OutOfModel, match="translation length"):
                random_isometry(np.random.default_rng(n), n,
                                max_translation=4000.0)
        for _ in range(3):
            ref.standard_normal((n, n))
            ref.uniform(0.0, 2000.0)
            ref.standard_normal(n)
        assert rng.random() == ref.random()
    # a finite draw is returned, however long: d = 227 has entries near
    # 2.7e98 and its form rounded at their scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = random_isometry(np.random.default_rng(3), 3,
                            max_translation=2000.0).matrix
    assert np.isfinite(M).all() and 1e98 < np.abs(M).max() < 1e99
    assert _relative_defect(M) <= 10 * np.finfo(float).eps


def test_lorentz_stack_repairs_and_raises_like_make_isometry():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        exact, _ = random_isometries(rng, n, 12, 1.5)
        # rows 1, 4, ... drift and take the Gram-Schmidt repair; the rest
        # pass unchanged
        M = exact.copy()
        M[1::3] += rng.standard_normal(M[1::3].shape) * 1e-10
        out, signs = _lorentz_stack(M)
        for i, (row, got, sign) in enumerate(zip(M, out, signs)):
            ref = _make_isometry_by_formula(row)
            assert sign == ref.sign
            if i % 3 != 1:
                assert np.array_equal(got, row)
                continue
            # the stacked CGS2 and the per-matrix MGS agree to rounding
            scale = max(1.0, np.abs(row).max())
            assert np.abs(got - ref.matrix).max() <= 1e-12 * scale
            assert _relative_defect(got) <= 2e-15
            # and the repair lands next to the matrix that drifted
            assert np.abs(got - exact[i]).max() <= 1e-9 * scale
            assert not np.array_equal(got, row)
        # the first failing row in stack order raises its own error
        bad = M.copy()
        bad[5] = minkowski_matrix(n)
        bad[7] = np.eye(n + 1) * 1.1
        with pytest.raises(TimeReversing):
            _lorentz_stack(bad)
        bad[3] = np.eye(n + 1) + 1e-6
        with pytest.raises(NotLorentz, match="form defect"):
            _lorentz_stack(bad)


def test_make_isometry_accepts_long_random_isometries():
    # the form defect of the library's own isometries is rounded at about
    # eps max|M|^2, which an absolute bound rejected at these lengths;
    # test_make_isometry_rejects keeps the matrices it must still reject
    for window in (10.0, 15.0):
        M, signs = random_isometries(np.random.default_rng(3), 3, 20, window)
        assert np.abs(M).max() > 1e3
        for row, sign in zip(M, signs):
            g = make_isometry(row)
            assert g.sign == sign
            assert np.abs(g.matrix - row).max() <= 1e-12 * np.abs(row).max()
            assert _relative_defect(g.matrix) <= 1e-14


def test_make_isometry_sign_from_the_frame():
    """make_isometry takes the orientation sign from the frame R that the
    matrix rotates by before its transvection, not from det M = +-1,
    which cancels: on 300 draws each at max_translation 20, 25, 30 and 35
    every sign is the draw's, where det M got 4, 37, 50 and 65 wrong.  R
    is recovered to about u cosh d, so past cosh d of about 1/u (d of
    about 37) the sign is noise again; the d = 227 draw past it is still
    packaged without a warning."""
    for w in (20.0, 25.0, 30.0, 35.0):
        for seed in range(300):
            g = random_isometry(np.random.default_rng(seed), 3,
                                max_translation=w)
            assert make_isometry(g.matrix).sign == g.sign, (w, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = random_isometry(np.random.default_rng(3), 3,
                            max_translation=2000.0).matrix
        assert make_isometry(M).sign in (1, -1)


def test_make_isometry_repairs_only_what_it_moves_little():
    # Gram-Schmidt against the form moves the entries by about the
    # absolute defect times max|M|.  On a boost with cosh r = 1e6, entries
    # a relative 1e-13 off give an absolute defect near 1: that must
    # raise, not come back 10% away from the input.  Rounding-level drift
    # at that scale is kept as it is.
    rng = np.random.default_rng(5)
    for c in (1e2, 1e4, 1e6):
        B = np.eye(4)
        B[0, 0] = B[3, 3] = c
        B[0, 3] = B[3, 0] = np.sqrt(c * c - 1.0)
        for eta in (1e-15, 1e-14, 1e-13, 1e-12):
            M = B * (1.0 + eta * rng.standard_normal(B.shape))
            try:
                g = make_isometry(M)
            except NotLorentz:
                # drift at rounding for the scale is never refused
                assert eta >= 1e-13
                continue
            # what comes back lies next to the input and to the boost
            assert np.abs(g.matrix - M).max() <= 1e-8 * c
            assert np.abs(g.matrix - B).max() <= 1e-8 * c
            if eta <= 1e-14:
                assert np.array_equal(g.matrix, M)
    M = B * (1.0 + 1e-13 * rng.standard_normal(B.shape))
    with pytest.raises(NotLorentz, match="form defect"):
        make_isometry(M)


def test_sign_is_multiplicative():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(30):
            g = random_isometry(rng, n)
            h = random_isometry(rng, n)
            gh = g @ h
            assert gh.sign == g.sign * h.sign
            # sign agrees with the determinant
            assert gh.sign == int(np.sign(np.linalg.det(gh.matrix)))


def test_orientation_request():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for eps in (1, -1):
            for _ in range(10):
                g = random_isometry(rng, n, orientation=eps)
                assert g.sign == eps


def test_isometries_preserve_distance():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        x = random_space_point(rng, n)
        y = random_space_point(rng, n)
        d = -mink(x.coords, y.coords)
        for _ in range(15):
            g = random_isometry(rng, n, max_translation=2.0)
            gx, gy = act_point(g, x), act_point(g, y)
            assert abs(-mink(gx.coords, gy.coords) - d) < 1e-10


def test_inverse_and_compose():
    rng = np.random.default_rng(5)
    g = random_isometry(rng, 3, max_translation=1.5)
    gi = g.inverse()
    assert np.max(np.abs((g @ gi).matrix - np.eye(4))) < 1e-12
    assert gi.sign == g.sign


def test_hyperplane_contains_points_and_reflection_fixes_them():
    rng = np.random.default_rng(29)
    for n in (2, 3, 4):
        for _ in range(10):
            pts = [random_space_point(rng, n) for _ in range(rng.integers(1, n + 1))]
            h = hyperplane_through(pts)
            r = reflect_in(h)
            assert r.sign == -1
            assert np.max(np.abs((r @ r).matrix - np.eye(n + 1))) < 1e-10
            for p in pts:
                assert abs(mink(p.coords, h.normal)) < 1e-9
                assert np.max(np.abs(act_point(r, p).coords - p.coords)) < 1e-10


def test_hyperplane_with_ideal_vertices():
    rng = np.random.default_rng(31)
    n = 3
    pts = [random_ideal_point(rng, n), random_ideal_point(rng, n),
           random_space_point(rng, n)]
    h = hyperplane_through(pts)
    r = reflect_in(h)
    for p in pts[:2]:
        assert np.max(np.abs(act_ideal(r, p).coords - p.coords)) < 1e-9


def test_hyperplane_too_many_points():
    rng = np.random.default_rng(37)
    pts = [random_space_point(rng, 2) for _ in range(3)]
    with pytest.raises(TooManyPoints):
        hyperplane_through(pts)


def test_straighten_vertices_and_interior():
    rng = np.random.default_rng(41)
    n = 3
    verts = [random_space_point(rng, n) for _ in range(n + 1)]
    for i in range(n + 1):
        t = np.eye(n + 1)[i]
        out = straighten(verts, t)
        assert np.max(np.abs(out.coords - verts[i].coords)) < 1e-12
    mid = straighten(verts, np.full(n + 1, 1.0 / (n + 1)))
    assert abs(mink(mid.coords, mid.coords) + 1.0) < 1e-12


def test_straighten_equivariance_finite_vertices():
    rng = np.random.default_rng(43)
    for n in (2, 3):
        verts = [random_space_point(rng, n) for _ in range(n + 1)]
        for _ in range(10):
            g = random_isometry(rng, n, max_translation=1.5)
            t = rng.dirichlet(np.ones(n + 1))
            a = act_point(g, straighten(verts, t))
            b = straighten([act_point(g, v) for v in verts], t)
            assert np.max(np.abs(a.coords - b.coords)) < 1e-9


def test_straighten_errors():
    rng = np.random.default_rng(47)
    verts = [random_space_point(rng, 2) for _ in range(3)]
    with pytest.raises(BarycentricOutOfRange):
        straighten(verts, [0.5, 0.6, -0.1])
    with pytest.raises(BarycentricOutOfRange):
        straighten(verts, [0.5, 0.4])
    iverts = [random_ideal_point(rng, 2) for _ in range(2)] + [verts[0]]
    with pytest.raises(IdealFullWeight):
        straighten(iverts, [1.0, 0.0, 0.0])
    # but interior weights with ideal vertices are fine
    out = straighten(iverts, [0.3, 0.3, 0.4])
    assert abs(mink(out.coords, out.coords) + 1.0) < 1e-12
    with pytest.raises(DegenerateConfiguration):
        straighten([iverts[0], iverts[0]], [0.5, 0.5])


def test_model_round_trips():
    rng = np.random.default_rng(53)
    for n in (2, 3, 4):
        for _ in range(20):
            x = random_space_point(rng, n, scale=0.8).coords
            for a in ("hyperboloid", "klein", "poincare", "halfspace"):
                y = convert(x, "hyperboloid", a)
                back = convert(y, a, "hyperboloid")
                assert np.max(np.abs(back - x)) < 1e-11
                for b in ("klein", "poincare", "halfspace"):
                    z = convert(y, a, b)
                    assert np.max(np.abs(convert(z, b, a) - y)) < 1e-10


def test_convert_accepts_what_space_point_accepts_far_out():
    # the form of (sinh r u, cosh r) cancels to about cosh(r)^2 eps
    rng = np.random.default_rng(59)
    for r in (10.0, 12.0, 15.0):
        u = rng.standard_normal((200, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        for h in np.hstack([math.sinh(r) * u, np.full((200, 1), math.cosh(r))]):
            SpacePoint(h)
            ball = convert(h, "hyperboloid", "poincare")
            assert np.linalg.norm(ball) < 1.0
            assert np.allclose(convert(ball, "poincare", "hyperboloid"), h,
                               rtol=1e-6, atol=0.0)
    with pytest.raises(OutOfModel):
        convert(np.array([0.0, 0.0, 1.0 + 1e-9]), "hyperboloid", "poincare")


def test_model_known_values():
    o = basepoint(3).coords
    assert np.max(np.abs(convert(o, "hyperboloid", "klein"))) == 0.0
    assert np.max(np.abs(convert(o, "hyperboloid", "poincare"))) == 0.0
    hs = convert(o, "hyperboloid", "halfspace")
    assert np.max(np.abs(hs - np.array([0.0, 0.0, 1.0]))) < 1e-14
    with pytest.raises(OutOfModel):
        convert(np.array([0.0, 0.0, -0.5]), "halfspace", "poincare")
    with pytest.raises(OutOfModel):
        convert(np.array([1.5, 0.0]), "klein", "poincare")


def test_halfspace_chart_against_distance_identity():
    """cosh d = -<P, Q> on the hyperboloid and 1 + |p - q|^2 / (2 t_p t_q)
    in upper half-space; convert inverts the chart, which, as t -> 0,
    meets the boundary chart."""
    rng = np.random.default_rng(67)
    for n in (2, 3, 4):
        p, q = (np.column_stack([rng.uniform(-2.0, 2.0, (50, n - 1)),
                                 rng.uniform(0.1, 3.0, 50)]) for _ in range(2))
        P = halfspace_to_hyperboloid(p[:, :-1], p[:, -1])
        Q = halfspace_to_hyperboloid(q[:, :-1], q[:, -1])
        cosh = -np.array([mink(a, b) for a, b in zip(P, Q)])
        ref = 1.0 + np.sum((p - q) ** 2, axis=1) / (2.0 * p[:, -1] * q[:, -1])
        assert np.max(np.abs(cosh - ref) / ref) < 1e-12
        for a in P:
            assert a[-1] > 0 and abs(mink(a, a) + 1.0) < 1e-12 * a[-1] ** 2
        for a, b in zip(P, p):
            assert np.max(np.abs(convert(a, "hyperboloid", "halfspace") - b)) < 1e-12
        for w in p[:5, :-1]:
            a = halfspace_to_hyperboloid(w, 1e-7)
            xi = halfspace_to_boundary(w, n).coords
            assert np.max(np.abs(a[:-1] / a[-1] - xi)) < 1e-12


def _cayley_inversion(p):
    """Inversion in the sphere of radius sqrt(2) centered at e_n."""
    e = np.zeros_like(p)
    e[-1] = 1.0
    d = p - e
    return e + 2.0 * d / float(d @ d)


def _flip_last(p):
    out = p.copy()
    out[-1] = -out[-1]
    return out


def test_halfspace_convert_matches_cayley_inversion():
    """The Cayley map, inversion then a flip of the last coordinate, takes
    the Poincare ball to the upper half-space; the flip then the inversion
    takes it back."""
    rng = np.random.default_rng(71)
    for n in (2, 3, 4):
        for _ in range(30):
            x = random_space_point(rng, n, scale=0.8).coords
            ball = convert(x, "hyperboloid", "poincare")
            hs = convert(x, "hyperboloid", "halfspace")
            assert np.max(np.abs(hs - _flip_last(_cayley_inversion(ball)))) < 1e-12
            back = convert(hs, "halfspace", "poincare")
            assert np.max(np.abs(back - _cayley_inversion(_flip_last(hs)))) < 1e-12


def test_identity_isometry():
    g = identity_isometry(4)
    assert g.sign == 1
    assert np.max(np.abs(g.matrix - np.eye(5))) == 0.0
