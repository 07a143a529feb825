import itertools

import numpy as np
import pytest

from hyprig import boundary, rigidity, smear, volcocycle
from hyprig.boundary import BoundaryMap, make_boundary_map
from hyprig.errors import (
    BudgetExceeded,
    DegenerateSimplex,
    GeneratorCountMismatch,
    HyprigError,
    ImageNotRegular,
    NoConsensus,
    NoExactSolve,
    NotLorentz,
    NotRegular,
    OrbitMismatch,
    OutOfTable,
    TimeReversing,
)
from hyprig.hypcore import (
    IdealPoint,
    _lorentz_stack,
    stack_det,
    Isometry,
    act_ideal,
    act_ideal_many,
    identity_isometry,
    make_isometry,
    minkowski_matrix,
    null_lifts,
    random_isometries,
    random_isometry,
)
from hyprig.lattice import load_preset
from hyprig.regref import (MAX_WALK_SIZE, RegularSimplex, face_reflections,
                           orbit, reference_regular, reference_vertices,
                           reflection_walk, walk_size)
from hyprig.rigidity import (
    _pair_isometries,
    _scale_fit,
    _walk_planes,
    consensus,
    isometry_from_simplex_pair,
    preserves_regular,
    reconstruct_isometry,
    verify_conjugacy,
)
from hyprig.volcocycle import (COINCIDENCE_TOL, DEGENERATE_DET_TOL,
                               IdealSimplex, is_regular, orientation_sign,
                               regular_mask)


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


def test_preserves_regular_reports_none_when_no_trial_passes():
    phi = make_boundary_map("constant", point=IdealPoint(np.eye(3)[0]))
    rep = preserves_regular(phi, 3, trials=10, seed=1)
    assert (rep.pass_fraction, rep.orientation_mode) == (0.0, "none")


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
    mode = modes.pop() if len(modes) == 1 else "mixed" if modes else "none"
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


def _orientation_signs_rows(P):
    """orientation_signs by its row formula on vertex orders P
    (N, n+1, n): the closed-form determinant of the differences at
    n <= 3 and LAPACK's of the null lifts at n = 4, then the degeneracy
    cut and the coincidence test on pair gaps summed along the last
    axis."""
    n = P.shape[-1]
    dets = ((-1) ** n * stack_det(P[:, 1:] - P[:, :1]) if n <= 3
            else np.linalg.det(null_lifts(P)))
    size, signs = np.abs(dets), np.sign(dets).astype(int)
    near = np.flatnonzero(size <= DEGENERATE_DET_TOL * 2.0 ** (n + 1))
    i, j = np.array(list(itertools.combinations(range(n + 1), 2))).T
    diff = P[near][:, i] - P[near][:, j]
    gaps2 = np.add.reduce(diff * diff, axis=-1)
    flat = size[near] ** n <= DEGENERATE_DET_TOL ** n * np.prod(gaps2, axis=1)
    signs[near[flat | np.any(gaps2 < COINCIDENCE_TOL ** 2, axis=1)]] = 0
    return signs


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _degenerate_vertex_lists(rng, n, m, V):
    """m vertex lists (m, V, n) of random points, of points on
    (n-2)-spheres moved off them by 1e-12 to 1e-6 (near-flat simplices
    on both sides of the degeneracy cut when n >= 3), and of points a
    COINCIDENCE_TOL apart, in blocks of n+1."""
    P = _unit(rng.standard_normal((m * V // (n + 1), n + 1, n)))
    u = _unit(rng.standard_normal((len(P), n)))
    W = rng.standard_normal((len(P), n + 1, n))
    W = _unit(W - np.sum(W * u[:, None], axis=-1, keepdims=True) * u[:, None])
    c = rng.uniform(-0.8, 0.8, (len(P), 1, 1))
    flat = c * u[:, None] + np.sqrt(1.0 - c * c) * W
    delta = 10.0 ** rng.uniform(-12.0, -6.0, len(P))
    flat[:, -1] = _unit(flat[:, -1] + delta[:, None] * u)
    P[1::3] = flat[1::3]
    P[2::9, 1] = _unit(P[2::9, 0] + COINCIDENCE_TOL * rng.standard_normal(n))
    return P.reshape(m, V, n)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_walk_planes_orientations_are_the_row_formula(n):
    """The consensus walk's orientations, `orientation_signs` on the
    transposed view of the coordinate planes that `_walk_planes` gathers,
    are bit for bit the row formula on mapped[:, index]: on blocks of each list as simplices and
    on random index rows, some with a repeated vertex, among near-flat
    simplices straddling the degeneracy cut and pairs a COINCIDENCE_TOL
    apart, where the sign takes its near-cut branch on a column subset
    of the planes."""
    rng = np.random.default_rng(90 + n)
    m, V = 8, 60 * (n + 1)
    mapped = _degenerate_vertex_lists(rng, n, m, V)
    index = np.concatenate([np.arange(V).reshape(-1, n + 1),
                            rng.integers(0, V, (200, n + 1))])
    index[-20:, 1] = index[-20:, 0]
    planes = _walk_planes(mapped, index)
    rows = mapped[:, index].reshape(-1, n + 1, n)
    assert np.array_equal(planes, rows.transpose(2, 1, 0))
    got = volcocycle.orientation_signs(planes.T)
    want = _orientation_signs_rows(rows)
    assert np.array_equal(got, want)
    assert np.array_equal(volcocycle.orientation_signs(rows), want)
    zero = want == 0
    assert 0 < zero.sum() < len(want)
    if n >= 3:
        # near-flat blocks on both sides of the cut
        near = zero[:V // (n + 1)][1::3]
        assert 0 < near.sum() < len(near)


def _to_hyperplane(X):
    """The points of S^(n-1) projected onto the great sphere x_(n-1) = 0:
    every image simplex is flat, its lifts' determinant rounding noise
    below the degeneracy cut."""
    Y = X.copy()
    Y[:, -1] = 0.0
    return _unit(Y)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_preserves_regular_signs_are_the_row_formula(n, monkeypatch):
    """preserves_regular gathers the passing images and sources into one
    stack of coordinate planes: its signs are bit for bit the row
    formula's on np.concatenate([img[ok], src[ok]]), also for flat
    images admitted by a loose tolerance, whose signs are 0."""
    seen = []

    def spy(P):
        seen.append(volcocycle.orientation_signs(P))
        return seen[-1]

    monkeypatch.setattr(rigidity, "orientation_signs", spy)
    g = random_isometry(np.random.default_rng(95 + n), n, 1.0)
    maps = [(planted(g), 1e-6), (make_boundary_map(
        "perturbed", g=g, amplitude=1e-8, seed=1), 1e-6)]
    if n >= 3:
        maps.append((BoundaryMap("flat", {}, None, _to_hyperplane), 1.0))
    for seed, (phi, tol) in enumerate(maps):
        rep = preserves_regular(phi, n, trials=60, tol=tol, seed=seed)
        G, _ = random_isometries(np.random.default_rng(seed), n, 60,
                                 max_translation=rigidity.WINDOW)
        src = act_ideal_many(G, reference_vertices(n))
        img = phi.evaluate_many(src.reshape(-1, n)).reshape(src.shape)
        ok = regular_mask(img, tol)
        assert rep.pass_fraction == ok.mean() > 0
        want = _orientation_signs_rows(np.concatenate([img[ok], src[ok]]))
        assert np.array_equal(seen[-1], want)
        if phi.kind == "flat":
            assert (want[:ok.sum()] == 0).all() and rep.orientation_mode == "opposite"


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


def _pair_solve_by_formula(X, Y, regularity_tol):
    """isometry_from_simplex_pair on one pair of vertex arrays (n+1, n),
    one arithmetic step at a time: the reference for the stacked solve."""
    for P in (X, Y):
        if not is_regular([IdealPoint(x) for x in P], regularity_tol):
            raise NotRegular("input simplex fails the regularity test")
    S = null_lifts(X)
    T = null_lifts(Y)
    m = len(S)
    J = minkowski_matrix(m - 1)
    GS = S @ J @ S.T
    GT = T @ J @ T.T
    i, j = np.array(list(itertools.combinations(range(m), 2))).T
    rows = np.eye(m)[i] + np.eye(m)[j]
    rhs = np.log(GS[i, j] / GT[i, j])
    lam = np.exp(np.linalg.lstsq(rows, rhs, rcond=None)[0])
    M = np.linalg.solve(S, lam[:, None] * T).T
    try:
        g = make_isometry(M)
    except (NotLorentz, TimeReversing) as exc:
        raise NoExactSolve(f"simplices are not congruent: {exc}") from exc
    worst = float(np.max(np.abs(act_ideal_many(g.matrix, S[:, :-1])
                                - T[:, :-1])))
    if worst > rigidity.SOLVE_RESIDUAL_TOL:
        raise NoExactSolve(f"vertex residual {worst:.3e} after projection")
    return g


def _congruent_pairs(rng, n, m, orientation=None):
    """m regular sources g1.ref and their images under g2 of the given
    orientation, as vertex stacks (m, n+1, n)."""
    G1, _ = random_isometries(rng, n, m, max_translation=1.5)
    G2, _ = random_isometries(rng, n, m, 1.5, orientation)
    X = act_ideal_many(G1, reference_vertices(n))
    return X, act_ideal_many(G2, X)


def test_stacked_pair_solve_matches_formula_bit_for_bit():
    rng = np.random.default_rng(59)
    for n in (2, 3, 4):
        for eps in (1, -1):
            for _ in range(25):
                X, Y = _congruent_pairs(rng, n, 8, eps)
                M, signs = _pair_isometries(X, Y, 1e-6)
                for Xi, Yi, Mi, si in zip(X, Y, M, signs):
                    ref = _pair_solve_by_formula(Xi, Yi, 1e-6)
                    assert np.array_equal(Mi, ref.matrix)
                    assert si == ref.sign == eps


def _spoil(rng, X, Y, i, kind):
    """Pair i of the stacks spoilt so that its solve fails: a source that
    is not regular, a target with coincident vertices, a target too far
    from congruent for the Lorentz repair, or one the repair takes but
    the residual test (at 1e-12, see the caller) rejects."""
    if kind == "degenerate":
        Y[i, 1] = Y[i, 0]
        return
    P, size = {"source": (X, 1e-3), "lorentz": (Y, 1e-7),
               "residual": (Y, 1e-10)}[kind]
    v = P[i, 0] + size * rng.standard_normal(P.shape[-1])
    P[i, 0] = v / np.linalg.norm(v)


_SPOILT = {"source": (NotRegular, "input simplex fails"),
           "degenerate": (DegenerateSimplex, "vertex gap"),
           "lorentz": (NoExactSolve, "simplices are not congruent: form"),
           "residual": (NoExactSolve, "vertex residual")}


def _first_failure(X, Y):
    """The formula's matrices before the first failing pair, and its
    error."""
    done = []
    for Xi, Yi in zip(X, Y):
        try:
            done.append(_pair_solve_by_formula(Xi, Yi, 1e-6))
        except HyprigError as exc:
            return done, exc
    return done, None


def test_stacked_pair_solve_raises_the_first_failing_pairs_error(monkeypatch):
    # at this residual tolerance a 1e-10 nudge survives the Lorentz repair
    # but not the residual test, while exact pairs pass
    monkeypatch.setattr(rigidity, "SOLVE_RESIDUAL_TOL", 1e-12)
    rng = np.random.default_rng(61)
    for n in (3, 4):
        cases = [(k,) for k in _SPOILT] + list(itertools.permutations(
            _SPOILT, 2))
        for kinds in cases:
            X, Y = _congruent_pairs(rng, n, 5)
            for i, kind in zip((1, 3), kinds):
                _spoil(rng, X, Y, i, kind)
            done, expect = _first_failure(X, Y)
            assert len(done) == 1
            assert isinstance(expect, _SPOILT[kinds[0]][0])
            assert str(expect).startswith(_SPOILT[kinds[0]][1])
            with pytest.raises(HyprigError):
                _pair_isometries(X, Y, 1e-6)
            # one pair at a time, as consensus replays its seeds
            solved, failures = [], []
            for i in range(len(X)):
                try:
                    solved.append(_pair_isometries(X[i:i + 1], Y[i:i + 1],
                                                   1e-6))
                except HyprigError as exc:
                    failures.append((i, exc))
                    break
            [(i, exc)] = failures
            assert (i, type(exc), str(exc)) == (1, type(expect), str(expect))
            assert np.array_equal([M[0] for M, _ in solved],
                                  [g.matrix for g in done])
            assert [signs[0] for _, signs in solved] == [g.sign for g in done]
            # the pair alone raises the formula's error
            source, target = (
                RegularSimplex(IdealSimplex(tuple(map(IdealPoint, P[1]))), 1)
                for P in (X, Y))
            with pytest.raises(type(expect)) as alone:
                isometry_from_simplex_pair(source, target, regularity_tol=1e-6)
            assert str(alone.value) == str(expect)


def _pair_isometries_two_passes(X, Y, regularity_tol):
    """`_pair_isometries` as first written, each side's regularity test,
    null lifts and Gram stack in a pass of its own."""
    for P in (X, Y):
        ok = regular_mask(P, regularity_tol)
        if not ok.all():
            verts = [IdealPoint(x) for x in P[np.argmin(ok)]]
            if not is_regular(verts, regularity_tol):
                raise NotRegular("input simplex fails the regularity test")
    S, T = null_lifts(X), null_lifts(Y)
    J = minkowski_matrix(X.shape[-1])
    GS = S @ J @ np.swapaxes(S, -1, -2)
    GT = T @ J @ np.swapaxes(T, -1, -2)
    i, j, rows = _scale_fit(X.shape[1])
    rhs = np.log(GS[:, i, j] / GT[:, i, j])
    lam = np.exp(np.linalg.lstsq(rows, rhs.T, rcond=None)[0]).T
    M = np.swapaxes(np.linalg.solve(S, lam[..., None] * T), -1, -2)
    try:
        M, signs = _lorentz_stack(M)
    except (NotLorentz, TimeReversing) as exc:
        raise NoExactSolve(f"simplices are not congruent: {exc}") from exc
    worst = np.max(np.abs(act_ideal_many(M, X) - Y), axis=(-2, -1))
    if np.any(worst > rigidity.SOLVE_RESIDUAL_TOL):
        raise NoExactSolve(f"vertex residual {np.max(worst):.3e} "
                           "after projection")
    return M, signs


def _raised(solve, X, Y):
    try:
        solve(X, Y, 1e-6)
    except HyprigError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_isometries_are_the_two_pass_solve_bit_for_bit(n):
    # both sides in one pass: the same matrices and signs on congruent
    # stacks, and the same error, the source's first, when the source,
    # the target or both fail the regularity test
    rng = np.random.default_rng(67 + n)
    for m in (1, 2, 8, 20):
        for eps in (None, 1, -1):
            X, Y = _congruent_pairs(rng, n, m, eps)
            M, signs = _pair_isometries(X, Y, 1e-6)
            M0, signs0 = _pair_isometries_two_passes(X, Y, 1e-6)
            assert M.tobytes() == M0.tobytes()
            assert signs.tolist() == signs0.tolist()
    # every ideal triangle is regular, so at n = 2 only a repeated
    # vertex fails the test
    kinds = ("degenerate",) if n == 2 else ("irregular", "degenerate")
    spoils = [((side, kind),) for side in "XY" for kind in kinds]
    spoils += list(itertools.product(
        [("X", kind) for kind in kinds], [("Y", kind) for kind in kinds]))
    for case in spoils:
        for rows in ((1, 3), (3, 1)):
            X, Y = _congruent_pairs(rng, n, 5)
            for i, (side, kind) in zip(rows, case):
                P = X if side == "X" else Y
                if kind == "degenerate":
                    P[i, 1] = P[i, 0]
                else:
                    v = P[i, 0] + 1e-3 * rng.standard_normal(n)
                    P[i, 0] = v / np.linalg.norm(v)
            expect = _raised(_pair_isometries_two_passes, X, Y)
            assert expect is not None
            assert expect[0] in (NotRegular, DegenerateSimplex)
            assert _raised(_pair_isometries, X, Y) == expect


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
    # an image tolerance below the solve's regularity tolerance: the
    # images and the pair are tested apart, with the same candidate
    strict = reconstruct_isometry(planted(g), ref, depth=2, image_tol=1e-10)
    loose = reconstruct_isometry(planted(g), ref, depth=2)
    assert strict.h.matrix.tobytes() == loose.h.matrix.tobytes()


def _assert_rounding_apart(h, expect):
    """h within rounding of expect, with the same sign: a plain callable
    maps the seed vertices one point at a time through act_ideal, whose
    arithmetic differs from the batch's act_ideal_many in the last bits,
    and h inherits that difference."""
    scale = max(1.0, float(np.max(np.abs(expect.matrix))))
    assert np.max(np.abs(h.matrix - expect.matrix)) <= 4e-15 * scale
    assert h.sign == expect.sign


def test_reconstruct_plain_callable_matches_boundary_map():
    # a callable without a batch evaluator is mapped point by point
    rng = np.random.default_rng(12)
    ref = reference_regular(3, 1)
    for eps in (1, -1):
        g = random_isometry(rng, 3, 1.0, orientation=eps)
        res = reconstruct_isometry(lambda xi: act_ideal(g, xi), ref, depth=3)
        batch = reconstruct_isometry(planted(g), ref, depth=3)
        _assert_rounding_apart(res.h, batch.h)
        assert batch.h.sign == eps
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


def _consensus_by_loop(phi, n, m, depth, tol=1e-7, seed=0):
    """consensus one seed at a time, each certified on its own reflection
    walk: the reference for the one-pass consensus."""
    rng = np.random.default_rng(seed)
    ref = reference_regular(n, 1)
    results = []
    for _ in range(m):
        g = random_isometry(rng, n, max_translation=1.0)
        verts = tuple(act_ideal(g, v) for v in ref.base.vertices)
        seed_s = RegularSimplex(IdealSimplex(verts), orientation_sign(verts))
        results.append(reconstruct_isometry(phi, seed_s, depth))
    mats = [r.h.matrix for r in results]
    for other in mats[1:]:
        if np.max(np.abs(other - mats[0])) > tol:
            raise NoConsensus("reconstructions disagree",
                              candidates=[r.h for r in results])
    return results[0].h


def _outcome(f, *args, **kwargs):
    """The returned matrix and sign, or the error's type, message,
    mismatch and candidate matrices."""
    try:
        h = f(*args, **kwargs)
    except HyprigError as exc:
        return (type(exc), str(exc), getattr(exc, "mismatch", None),
                [c.matrix.tobytes() for c in getattr(exc, "candidates", [])])
    return h.matrix.tobytes(), h.sign


def _assert_same_outcome(phi, n, m, depth, seed, tol=1e-7):
    """consensus gives the loop's h bit for bit, or the loop's error.  An
    OrbitMismatch's mismatch is a difference taken on the walk vertices,
    which the one-pass walk reaches as g applied to the reference walk
    rather than through the seed's own reflections; the two walks agree
    within 1e-12 (see test_regref), and so do the mismatches."""
    got = _outcome(consensus, phi, n, m=m, depth=depth, tol=tol, seed=seed)
    expect = _outcome(_consensus_by_loop, phi, n, m, depth, tol, seed)
    if len(expect) == 4 and expect[2] is not None:
        assert got[2] == pytest.approx(expect[2], rel=0, abs=1e-12)
        got = got[:2] + expect[2:3] + got[3:]
    assert got == expect
    return expect


def _piecewise_map():
    rng = np.random.default_rng(19)
    g1 = identity_isometry(3)
    g2 = random_isometry(rng, 3, 1.5)

    def ev(xi):
        g = g1 if xi.coords[2] >= 0 else g2
        return act_ideal(g, xi)

    return BoundaryMap("piecewise", {}, ev)


def test_consensus_piecewise_map_disagrees():
    expect = _assert_same_outcome(_piecewise_map(), 3, 8, 2, seed=23)
    assert expect[0] in (NoConsensus, ImageNotRegular, OrbitMismatch)


def test_consensus_matches_seed_loop_on_planted_maps():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        for eps in (1, -1):
            g = random_isometry(rng, n, 1.0, orientation=eps)
            for seed, (m, depth) in enumerate(((2, 0), (5, 3), (8, 4))):
                h, sign = _assert_same_outcome(planted(g), n, m, depth, seed)
                assert sign == eps
    # a tolerance no two reconstructions meet: the same candidates
    expect = _assert_same_outcome(planted(g), 4, 4, 2, seed=3, tol=0.0)
    assert expect[0] is NoConsensus and len(expect[3]) == 4


def test_consensus_matches_seed_loop_on_benchmark_panel():
    # the 20 planted maps of hyprig_bench's reconstruct_fig8 panel, drawn
    # as workloads.ReconstructFig8.item draws them
    for j in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([0, j]))
        eps = 1 if j % 2 == 0 else -1
        g = random_isometry(rng, 3, max_translation=1.0, orientation=eps)
        rng.integers(2**31)
        seed = int(rng.integers(2**31))
        h, sign = _assert_same_outcome(planted(g), 3, 8, 4, seed)
        assert sign == eps


def test_consensus_matches_seed_loop_on_failing_maps():
    rng = np.random.default_rng(13)
    g = random_isometry(rng, 3, 1.0)
    maps = [(make_boundary_map("perturbed", g=g, amplitude=1e-3, seed=6),
             ImageNotRegular),
            (make_boundary_map("perturbed", g=g, amplitude=2e-6, seed=6),
             (ImageNotRegular, NoExactSolve)),
            (make_boundary_map("perturbed", g=g, amplitude=1e-8, seed=6),
             (NoExactSolve, OrbitMismatch)),
            (make_boundary_map("constant", point=IdealPoint(np.eye(3)[0])),
             ImageNotRegular),
            (_piecewise_map(), (NoConsensus, ImageNotRegular, OrbitMismatch))]
    for phi, types in maps:
        for seed in range(4):
            expect = _assert_same_outcome(phi, 3, 6, 3, seed)
            assert issubclass(expect[0], types)


def _seed_tables(g, depths, seed, corrupt):
    """A tabulated map carrying consensus's seeds (m = len(depths), drawn
    from seed) to their images under g, on each seed's orbit to its depth
    (None: no table).  corrupt maps (seed index, orbit point index) to a
    displacement of that point's image; index -1 is the last point, one
    the walk reaches only at the full depth."""
    rng = np.random.default_rng(seed)
    points, images = [], []
    for i, depth in enumerate(depths):
        s = moved_regular(random_isometry(rng, 3, max_translation=1.0))
        if depth is None:
            continue
        pts = orbit(s, depth)[1]
        for k, p in enumerate(pts):
            img = act_ideal(g, IdealPoint(p)).coords + corrupt.get(
                (i, k), corrupt.get((i, k - len(pts)), 0.0))
            points.append(IdealPoint(p))
            images.append(IdealPoint(img / np.linalg.norm(img)))
    return make_boundary_map("tabulated", points=points, images=images,
                             radius=1e-6)


def test_consensus_raises_the_first_failing_seeds_error():
    rng = np.random.default_rng(47)
    g = random_isometry(rng, 3, 1.0)
    nudge = 1e-5 * np.array([0.3, -0.7, 0.2])
    # seed 1 fails in its walk, seed 2 already at its seed image: the
    # walk error of the earlier seed wins
    phi = _seed_tables(g, (3, 3, 3, 3), 5, {(1, 9): nudge, (2, 0): 1e2 * nudge})
    expect = _assert_same_outcome(phi, 3, 4, 3, seed=5)
    assert expect[0] is OrbitMismatch and expect[2] > 1e-8
    # seed 2's image is regular within the 1e-6 gate but not congruent
    # to its seed, so the stacked seed solve raises before any walk; seed
    # 1 fails at depth 1, and its walk error wins
    alone = _seed_tables(g, (3, 3, 3, 3), 5, {(2, 0): 1e-2 * nudge})
    phi = _seed_tables(g, (3, 3, 3, 3), 5, {(1, 5): nudge,
                                            (2, 0): 1e-2 * nudge})
    assert _assert_same_outcome(alone, 3, 4, 3, seed=5)[0] is NoExactSolve
    expect = _assert_same_outcome(phi, 3, 4, 3, seed=5)
    assert expect[0] is OrbitMismatch and expect[2] > 1e-8
    # seed 2 has no table at all, seed 1 fails at depth 1
    phi = _seed_tables(g, (3, 3, None, 3), 5, {(1, 5): nudge})
    assert _assert_same_outcome(phi, 3, 4, 3, seed=5)[0] is OrbitMismatch
    # seed 0 runs off its table at depth 3, and seed 1 fails at depth 1:
    # phi maps every walk vertex before any check, so the pass raises
    # seed 0's error, and so does seed 0 replayed alone
    phi = _seed_tables(g, (2, 3, 3, 3), 5, {(1, 5): nudge})
    assert _assert_same_outcome(phi, 3, 4, 3, seed=5)[0] is OutOfTable
    # likewise within one seed: its own depth-1 mismatch comes too late
    phi = _seed_tables(g, (2, 3, 3, 3), 5, {(0, 5): nudge})
    assert _assert_same_outcome(phi, 3, 4, 3, seed=5)[0] is OutOfTable
    # seed 1 runs off its table at depth 3, where seed 0 fails: the pass
    # raises seed 1's error, and seed 0 replayed alone raises its own
    phi = _seed_tables(g, (3, 2, 3, 3), 5, {(0, -1): nudge})
    expect = _assert_same_outcome(phi, 3, 4, 3, seed=5)
    assert expect[0] is OrbitMismatch
    # without the corruptions every seed passes
    phi = _seed_tables(g, (3, 3, 3, 3), 5, {})
    h, _ = _assert_same_outcome(phi, 3, 4, 3, seed=5)
    assert np.max(np.abs(np.frombuffer(h).reshape(4, 4) - g.matrix)) < 1e-8


def test_consensus_replays_the_seeds_only_when_the_pass_fails(monkeypatch):
    calls = []
    reconstruct = rigidity._reconstruct

    def counted(phi, X, *args):
        calls.append(len(X))
        return reconstruct(phi, X, *args)

    monkeypatch.setattr(rigidity, "_reconstruct", counted)
    rng = np.random.default_rng(71)
    for n in (2, 3, 4):
        calls.clear()
        consensus(planted(random_isometry(rng, n, 1.0)), n, m=8, depth=3,
                  seed=n)
        assert calls == [8]
    # seed 1 fails in its walk: the pass, then seeds 0 and 1 alone
    g = random_isometry(np.random.default_rng(47), 3, 1.0)
    nudge = 1e-5 * np.array([0.3, -0.7, 0.2])
    calls.clear()
    with pytest.raises(OrbitMismatch):
        consensus(_seed_tables(g, (3, 3, 3, 3), 5, {(1, 5): nudge}), 3, m=4,
                  depth=3, seed=5)
    assert calls == [4, 1, 1]


def test_one_pass_maps_every_walk_vertex_in_one_call():
    # the seed vertices and every fresh vertex of every walk: m (n + 1 +
    # walk_size - 1) rows, 1 312 at n = 3, depth 4, m = 8
    g = random_isometry(np.random.default_rng(73), 3, 1.0)
    calls = []

    def point(xi):
        calls.append(1)
        return act_ideal(g, xi)

    def batch(X):
        calls.append(len(X))
        return act_ideal_many(g.matrix, X)

    phi = BoundaryMap("counted", {}, point, batch)
    h = consensus(phi, 3, m=8, depth=4, seed=1)
    assert calls == [8 * (3 + walk_size(3, 4))] == [1312]
    assert np.max(np.abs(h.matrix - g.matrix)) < 1e-8
    calls.clear()
    reconstruct_isometry(phi, reference_regular(3, 1), depth=4)
    assert calls == [3 + walk_size(3, 4)]


def test_walk_budget_refuses_deep_reconstructions():
    phi = planted(identity_isometry(3))
    with pytest.raises(BudgetExceeded):
        consensus(phi, 3, m=2, depth=30)
    with pytest.raises(BudgetExceeded):
        reconstruct_isometry(phi, reference_regular(3, 1), depth=30)


def test_consensus_budget_counts_all_seeds_walks():
    # 8 walks of depth 9 at n = 3 hold 8 * 39 365 simplices, past the
    # budget; 2 of them fit, and run
    assert walk_size(3, 9) == 39_365
    assert 2 * walk_size(3, 9) <= MAX_WALK_SIZE < 8 * walk_size(3, 9)
    mapped = []

    def phi(p):
        mapped.append(p)
        return p

    with pytest.raises(BudgetExceeded):
        consensus(phi, 3, m=8, depth=9)
    assert mapped == []
    h = consensus(planted(identity_isometry(3)), 3, m=2, depth=9)
    assert np.max(np.abs(h.matrix - np.eye(4))) < 1e-9


@pytest.mark.parametrize("n", (2, 3, 4))
def test_walk_size_counts_the_walk(n):
    ref = reference_regular(n, 1)
    levels = reflection_walk(ref, face_reflections(ref), 4)
    assert walk_size(n, 4) == 1 + sum(len(letters) for letters, *_ in levels)


# the module names hyprig_bench's traced run replaces by span recorders
_TRACED_NAMES = {
    rigidity: ("preserves_regular", "consensus", "reconstruct_isometry",
               "isometry_from_simplex_pair", "verify_conjugacy",
               "face_reflections", "is_regular", "act_ideal"),
    smear: ("act_ideal",),
    boundary: ("act_ideal",),
    volcocycle: ("vol2", "vol3", "voln", "integrate_simplex"),
}


def test_rigidity_verbs_run_traced(monkeypatch):
    # as in a traced benchmark run: every traced name wrapped in a plain
    # pass-through function, and the map a plain function without a
    # batch evaluator or attributes
    rng = np.random.default_rng(67)
    preset = load_preset("figure_eight_3d")
    g = random_isometry(rng, 3, 1.0, orientation=-1)
    rho = [g @ gen @ g.inverse() for gen in preset.generators]
    seed_s = moved_regular(random_isometry(rng, 3, 1.0))

    def run(phi):
        rep = rigidity.preserves_regular(phi, 3, trials=20, seed=1)
        h = rigidity.consensus(phi, 3, m=8, depth=4, seed=2)
        resid = rigidity.verify_conjugacy(h, preset, rho)
        res = rigidity.reconstruct_isometry(phi, seed_s, depth=4)
        return (rep, h.matrix.tobytes(), h.sign, resid,
                res.h.matrix.tobytes(), res.h.sign, res.max_orbit_mismatch)

    def isometries(outcome):
        return [Isometry(np.frombuffer(outcome[i]).reshape(4, 4),
                         outcome[i + 1]) for i in (1, 4)]

    phi = planted(g)
    expect = run(lambda xi: phi(xi))
    for h, batch_h in zip(isometries(expect), isometries(run(phi))):
        _assert_rounding_apart(h, batch_h)
    calls = []

    def pass_through(name, fn):
        def traced(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return traced

    for module, names in _TRACED_NAMES.items():
        for name in names:
            monkeypatch.setattr(module, name,
                                pass_through(name, getattr(module, name)))
    assert run(lambda xi: phi(xi)) == expect
    assert {"preserves_regular", "consensus", "reconstruct_isometry",
            "verify_conjugacy", "face_reflections"} <= set(calls)
