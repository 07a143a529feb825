"""From boundary maps back to isometries.

A boundary map that sends regular ideal simplices to regular ideal
simplices is the boundary action of a single isometry; these routines
make that effective.  `isometry_from_simplex_pair` solves for the unique
isometry matching two regular simplices vertex by vertex; it is the
one-pair case of a stacked solve that takes m pairs through each step
at once.  `reconstruct_isometry` certifies the candidate on
`regref.reflection_walk` of the seed simplex.  `consensus` reconstructs
from m random seeds g.ref in one pass: all m seed isometries come from
one stacked solve, the walk of g.ref is g applied to the cached walk of
the reference simplex (`regref.reference_flat_walk`), phi maps every vertex
of all m walks in one call, and all word lengths are checked at once;
the m reconstructions must agree.  The pass raises the first failure it
meets; only then are the seeds replayed one by one, so that the error
is the first failing seed's.  `verify_conjugacy` confirms the resulting
conjugation of lattice generators.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
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
    TimeReversing,
)
from .boundary import evaluate_many
# act_ideal is not called here; hyprig_bench's tracer patches
# rigidity.act_ideal by name, so the name stays importable from this module.
from .hypcore import (Isometry, IdealPoint, _lorentz_stack,
                      act_ideal, act_ideal_many,  # noqa: F401
                      minkowski_matrix, null_lifts, random_isometries)
from .lattice import LatticePreset
from .regref import (MAX_WALK_SIZE, RegularSimplex, face_reflections,
                     flat_walk, reference_flat_walk, reference_vertices,
                     reflection_walk, walk_size)
from .volcocycle import is_regular, orientation_signs, regular_mask

REGULARITY_TOL = 1e-9
IMAGE_TOL = 1e-6
ORBIT_TOL = 1e-8
SOLVE_RESIDUAL_TOL = 1e-7
WINDOW = 1.0  # largest translation of the isometries placing the simplices


@dataclass(frozen=True)
class PreservationReport:
    trials: int
    pass_fraction: float
    orientation_mode: str  # same / opposite / mixed; none if no trial passes
    tol: float


@dataclass(frozen=True)
class ReconstructionResult:
    h: Isometry
    max_orbit_mismatch: float
    depth: int


def preserves_regular(phi, n: int, trials: int, tol: float = IMAGE_TOL,
                      seed=0) -> PreservationReport:
    """Sample random regular simplices and test their images.

    Each trial takes g random in the compact WINDOW, applies phi to the
    vertices of g times the reference simplex, and checks regularity of
    the image at tol; among passing trials the image orientation is
    compared with the source orientation.  The isometries are drawn as
    one stack; all trials are then mapped and tested as one batch, the
    images and sources copied once into coordinate planes that the
    regularity and orientation tests read through transposed views.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    G, _ = random_isometries(rng, n, trials, max_translation=WINDOW)
    src = act_ideal_many(G, reference_vertices(n))
    img = evaluate_many(phi, src.reshape(-1, n)).reshape(src.shape)
    # images, then sources, as coordinate planes (n, n+1, 2 trials)
    planes = np.concatenate([img.T, src.T], axis=-1)
    ok = regular_mask(planes[..., :trials].T, tol)
    passed = int(ok.sum())
    # image and source orientations of the passing trials in one call
    signs = orientation_signs(planes[..., np.concatenate([ok, ok])].T)
    same = signs[:passed] == signs[passed:]
    modes = {"same" if s else "opposite" for s in same}
    mode = modes.pop() if len(modes) == 1 else "mixed" if modes else "none"
    return PreservationReport(trials=trials,
                              pass_fraction=passed / trials,
                              orientation_mode=mode, tol=tol)


def isometry_from_simplex_pair(source: RegularSimplex,
                               target: RegularSimplex,
                               regularity_tol: float = REGULARITY_TOL) -> Isometry:
    """The unique isometry carrying source vertices to target vertices:
    `_pair_isometries` on one pair.  A simplex failing the regularity
    test raises NotRegular (DegenerateSimplex on coincident vertices),
    and a pair that is not congruent raises NoExactSolve.
    """
    M, signs = _pair_isometries(_vertex_array(source)[None],
                                _vertex_array(target)[None], regularity_tol)
    return Isometry(M[0], int(signs[0]))


def _vertex_array(s: RegularSimplex) -> np.ndarray:
    return np.array([v.coords for v in s.base.vertices])


@functools.cache
def _scale_fit(k: int):
    """The vertex pairs (i, j), i < j, of a k-vertex simplex and the rows
    of the least-squares system log lam_i + log lam_j = rhs_ij over them,
    read-only; computed on the first call for each k."""
    i, j = np.array(list(itertools.combinations(range(k), 2))).T
    rows = np.eye(k)[i] + np.eye(k)[j]
    for a in (i, j, rows):
        a.setflags(write=False)
    return i, j, rows


def _pair_isometries(X, Y, regularity_tol, ok=None):
    """The isometries carrying source vertices X (m, n+1, n) to target
    vertices Y, pair by pair: matrices (m, n+1, n+1) and signs (m,).
    ok, if given, is the caller's `regular_mask` of [X; Y] at
    regularity_tol.

    Null lifts are determined only up to positive scale, so the scales
    are first normalized by a log-least-squares fit making the two Gram
    matrices equal; the linear solve then gives the matrix, which is
    re-orthogonalized against the form.  Every step takes the whole
    stack, both sides at once where they are alike: one regularity test,
    one null-lift stack and one Gram stack on [X; Y], one least-squares
    call with the m fits as columns, one stacked solve, `_lorentz_stack`
    and one residual test; each pair's arithmetic is bit for bit that of
    solving it alone.  An irregular X raises before an irregular Y.  A
    failing pair raises: for m = 1 the pair's own error, and for a larger
    stack some pair's error, not necessarily the first's (`consensus`
    replays the seeds one by one to find the first).
    """
    m = len(X)
    XY = np.concatenate([X, Y])
    if ok is None:
        ok = regular_mask(XY, regularity_tol)
    for P, okP in ((X, ok[:m]), (Y, ok[m:])):
        if not okP.all():
            verts = [IdealPoint(x) for x in P[np.argmin(okP)]]
            if not is_regular(verts, regularity_tol):
                raise NotRegular("input simplex fails the regularity test")
    L = null_lifts(XY)
    G = L @ minkowski_matrix(X.shape[-1]) @ np.swapaxes(L, -1, -2)
    S, T, GS, GT = L[:m], L[m:], G[:m], G[m:]

    # lam_i lam_j = GS_ij / GT_ij on off-diagonal entries (both Grams are
    # strictly negative there); solve for log lam in least squares, the m
    # pairs as the columns of one right-hand side
    i, j, rows = _scale_fit(X.shape[1])
    rhs = np.log(GS[:, i, j] / GT[:, i, j])
    lam = np.exp(np.linalg.lstsq(rows, rhs.T, rcond=None)[0]).T

    M = np.swapaxes(np.linalg.solve(S, lam[..., None] * T), -1, -2)
    try:
        M, signs = _lorentz_stack(M)
    except (NotLorentz, TimeReversing) as exc:
        raise NoExactSolve(f"simplices are not congruent: {exc}") from exc
    worst = np.max(np.abs(act_ideal_many(M, X) - Y), axis=(-2, -1))
    if np.any(worst > SOLVE_RESIDUAL_TOL):
        raise NoExactSolve(f"vertex residual {np.max(worst):.3e} "
                           "after projection")
    return M, signs


def reconstruct_isometry(phi, seed_simplex: RegularSimplex, depth: int,
                         tol: float = ORBIT_TOL,
                         image_tol: float = IMAGE_TOL) -> ReconstructionResult:
    """Candidate isometry from the seed simplex, certified on its
    reflection orbit.

    The candidate h solves phi on the seed vertices alone; it is then
    tested on the vertex each breadth-first face reflection adds, to the
    given depth, with the image orientation required to alternate in
    step with the source orientation.  phi maps all walk vertices in one
    batch before any check, so an error phi raises itself comes first;
    the checks raise at the first failing child in walk order.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    fresh, index, parity = flat_walk(seed_simplex.base.n, reflection_walk(
        seed_simplex, face_reflections(seed_simplex), depth))
    H, signs, worst = _reconstruct(phi, _vertex_array(seed_simplex)[None],
                                   fresh[None], index, parity, tol, image_tol)
    return ReconstructionResult(h=Isometry(H[0], int(signs[0])),
                                max_orbit_mismatch=float(worst[0]),
                                depth=depth)


def _reconstruct(phi, X, fresh, index, parity, tol, image_tol):
    """`reconstruct_isometry` on m seed simplices, the rows of X
    (m, n+1, n), at once: their candidates as matrices (m, n+1, n+1) and
    signs (m,), and their largest orbit mismatches (m,).

    fresh (m, F, n), index and parity are each seed's walk as
    `regref.flat_walk` gives it; seed i's vertex list is X[i], then fresh[i].
    One `evaluate_many` call maps all vertex lists; one regularity test
    of the seeds and their images gates the images and, when its
    tolerance is the solve's, stands in for the test of the one stacked
    `_pair_isometries`.
    One `act_ideal_many` compares every fresh image with the candidates',
    and one `orientation_signs`, on the image simplices gathered into
    coordinate planes by `_walk_planes` (a transposed view), checks every
    image simplex against the root image's orientation times its parity.
    The first failing seed raises at its first failing child, in walk
    order.
    """
    m, k, n = X.shape
    points = np.concatenate([X, fresh], axis=1)
    mapped = evaluate_many(phi, points.reshape(-1, n)).reshape(points.shape)
    Y = mapped[:, :k]
    ok = regular_mask(np.concatenate([X, Y]), image_tol)
    for i in np.flatnonzero(~ok[m:]):
        try:  # is_regular tells coincident vertices from irregular ones
            is_regular([IdealPoint(y) for y in Y[i]], image_tol)
        except DegenerateSimplex as exc:
            raise ImageNotRegular(str(exc)) from exc
        raise ImageNotRegular("image of the seed simplex is not regular")
    pair_tol = max(REGULARITY_TOL, image_tol)
    H, signs = _pair_isometries(X, Y, pair_tol,
                                ok if pair_tol == image_tol else None)
    gaps = np.max(np.abs(act_ideal_many(H, fresh) - mapped[:, k:]), axis=-1)
    orient = orientation_signs(_walk_planes(mapped, index).T
                               ).reshape(len(X), -1)
    bad = (gaps > tol) | (orient[:, 1:] != parity[1:] * orient[:, :1])
    failing = np.flatnonzero(bad.any(axis=1))
    if len(failing):
        i = failing[0]
        gap = float(gaps[i, np.argmax(bad[i])])
        raise OrbitMismatch(f"orbit vertex deviates by {gap:.3e} > {tol:.3e}"
                            if gap > tol else
                            "image orientation fails to alternate",
                            mismatch=gap)
    return H, signs, np.max(gaps, axis=1, initial=0.0)


def _walk_planes(mapped, index):
    """The simplices mapped[i, index[s]] of m vertex lists mapped
    (m, V, n), seed by seed, as coordinate planes (n, k, m S): one
    np.take of the vertex planes, which gathers contiguous rows where
    mapped[:, index] would gather rows of n elements each."""
    m, V, n = mapped.shape
    columns = index.T[:, None] + V * np.arange(m)[:, None]
    return np.take(mapped.reshape(-1, n).T, columns.reshape(len(columns), -1),
                   axis=1)


def consensus(phi, n: int, m: int, depth: int, tol: float = 1e-7,
              seed=0) -> Isometry:
    """Reconstruction from m random seed simplices g.ref, required to
    agree within tol in max-abs matrix norm.

    The m isometries g are drawn as one stack, and each seed's walk is g
    applied to the cached reference walk: its vertex list starts with the
    seed vertices, and only the fresh vertices are moved.  All seeds are
    reconstructed in one pass, in which phi maps every vertex of every
    walk before any check, so an error phi raises itself anywhere on a
    walk comes before a failing check of the same seed.  If the pass
    raises, the seeds are reconstructed again one by one, and the first
    that raises on its own raises its error: the error of reconstructing
    the seeds one after the other.

    The pass holds all m walks at once, so it raises BudgetExceeded,
    before phi sees any point, when they would hold more than
    MAX_WALK_SIZE simplices in all."""
    if m < 2:
        raise ValueError("consensus needs at least 2 seeds")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if m * walk_size(n, depth) > MAX_WALK_SIZE:
        raise BudgetExceeded(f"{m} walks of depth {depth} would exceed "
                             f"{MAX_WALK_SIZE} simplices")
    rng = np.random.default_rng(seed)
    G, _ = random_isometries(rng, n, m, max_translation=WINDOW)
    ref = reference_vertices(n)
    # act_ideal's own arithmetic on the stack, so that the seed vertices
    # are bit for bit act_ideal(g, v)
    Y = (G[:, None] @ null_lifts(ref)[None, :, :, None])[..., 0]
    X = Y[..., :-1] / Y[..., -1:]
    X = X / np.sqrt(X[..., None, :] @ X[..., :, None])[..., 0]
    fresh, index, parity = reference_flat_walk(n, depth)

    def reconstruct(k):
        return _reconstruct(phi, X[k], act_ideal_many(G[k], fresh), index,
                            parity, ORBIT_TOL, IMAGE_TOL)

    try:
        H, signs, _ = reconstruct(slice(None))
    except HyprigError:
        for i in range(m):
            reconstruct(slice(i, i + 1))
        raise
    if np.any(np.max(np.abs(H - H[0]), axis=(-2, -1)) > tol):
        raise NoConsensus("reconstructions disagree",
                          candidates=[Isometry(h, int(s))
                                      for h, s in zip(H, signs)])
    return Isometry(H[0], int(signs[0]))


def verify_conjugacy(h: Isometry, preset: LatticePreset, rho_images) -> float:
    """Max over generators of the conjugation defect
    || h gamma h^{-1} - rho(gamma) || in the matrix sup norm."""
    rho_images = list(rho_images)
    if len(rho_images) != len(preset.generators):
        raise GeneratorCountMismatch(
            f"{len(rho_images)} images for {len(preset.generators)} generators")
    hinv = h.inverse()
    worst = 0.0
    for gen, img in zip(preset.generators, rho_images):
        conj = (h @ gen @ hinv).matrix
        worst = max(worst, float(np.max(np.abs(conj - img.matrix))))
    return worst
