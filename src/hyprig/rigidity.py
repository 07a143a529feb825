"""From boundary maps back to isometries.

A boundary map that sends regular ideal simplices to regular ideal
simplices is the boundary action of a single isometry; these routines
make that effective.  `isometry_from_simplex_pair` solves for the unique
isometry matching two regular simplices vertex by vertex, and
`reconstruct_isometry` certifies the candidate on `regref.reflection_walk`
of the seed simplex.  `consensus` reconstructs from m random seeds g.ref
in one pass: the walk of g.ref is g applied to the cached walk of the
reference simplex (`regref.reference_walk`), so each word length of all
m walks is mapped and checked in one batch, and the m reconstructions
must agree.  `verify_conjugacy` confirms the resulting conjugation of
lattice generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
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
from .hypcore import (Isometry, IdealPoint, act_ideal,  # noqa: F401
                      act_ideal_many, make_isometry, minkowski_matrix,
                      null_lifts, random_isometries)
from .lattice import LatticePreset
from .regref import (RegularSimplex, face_reflections, reference_regular,
                     reference_walk, reflection_walk)
from .volcocycle import (IdealSimplex, is_regular, orientation_signs,
                         regular_mask)

REGULARITY_TOL = 1e-9
IMAGE_TOL = 1e-6
ORBIT_TOL = 1e-8
SOLVE_RESIDUAL_TOL = 1e-7
WINDOW = 1.0  # largest translation of the isometries placing the simplices


@dataclass(frozen=True)
class PreservationReport:
    trials: int
    pass_fraction: float
    orientation_mode: str  # same / opposite / mixed
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
    one stack; all trials are then mapped and tested as one batch.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    ref = np.array([v.coords for v in reference_regular(n, 1).base.vertices])
    G, _ = random_isometries(rng, n, trials, max_translation=WINDOW)
    src = act_ideal_many(G, ref)
    img = evaluate_many(phi, src.reshape(-1, n)).reshape(src.shape)
    ok = regular_mask(img, tol)
    same = orientation_signs(img[ok]) == orientation_signs(src[ok])
    modes = {"same" if s else "opposite" for s in same}
    mode = modes.pop() if len(modes) == 1 else "mixed" if modes else "same"
    return PreservationReport(trials=trials,
                              pass_fraction=int(ok.sum()) / trials,
                              orientation_mode=mode, tol=tol)


def isometry_from_simplex_pair(source: RegularSimplex,
                               target: RegularSimplex,
                               regularity_tol: float = REGULARITY_TOL) -> Isometry:
    """The unique isometry carrying source vertices to target vertices.

    Null lifts are determined only up to positive scale, so the scales
    are first normalized by a log-least-squares fit making the two Gram
    matrices equal; the linear solve then gives the matrix, which is
    re-orthogonalized against the form.
    """
    for s in (source, target):
        if not is_regular(list(s.base.vertices), regularity_tol):
            raise NotRegular("input simplex fails the regularity test")
    S = null_lifts([v.coords for v in source.base.vertices])
    T = null_lifts([v.coords for v in target.base.vertices])
    m = len(S)
    J = minkowski_matrix(m - 1)
    GS = S @ J @ S.T
    GT = T @ J @ T.T

    # lam_i lam_j = GS_ij / GT_ij on off-diagonal entries (both Grams are
    # strictly negative there); solve for log lam in least squares
    i, j = np.array(list(itertools.combinations(range(m), 2))).T
    rows = np.eye(m)[i] + np.eye(m)[j]
    rhs = np.log(GS[i, j] / GT[i, j])
    lam = np.exp(np.linalg.lstsq(rows, rhs, rcond=None)[0])
    Tn = lam[:, None] * T

    M = np.linalg.solve(S, Tn).T
    try:
        g = make_isometry(M)
    except (NotLorentz, TimeReversing) as exc:
        raise NoExactSolve(f"simplices are not congruent: {exc}") from exc
    worst = float(np.max(np.abs(act_ideal_many(g.matrix, S[:, :-1])
                                - T[:, :-1])))
    if worst > SOLVE_RESIDUAL_TOL:
        raise NoExactSolve(f"vertex residual {worst:.3e} after projection")
    return g


def reconstruct_isometry(phi, seed_simplex: RegularSimplex, depth: int,
                         tol: float = ORBIT_TOL,
                         image_tol: float = IMAGE_TOL) -> ReconstructionResult:
    """Candidate isometry from the seed simplex, certified on its
    reflection orbit.

    The candidate h solves phi on the seed vertices alone; it is then
    tested on the vertex each breadth-first face reflection adds, to the
    given depth, with the image orientation required to alternate in
    step with the source orientation.  Each level is mapped by phi in one
    batch before its checks, which raise at the first failing child.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    walk = ((letters, V[None]) for letters, _, V in reflection_walk(
        seed_simplex, face_reflections(seed_simplex), depth))
    (h,), worst = _reconstruct(phi, [seed_simplex], walk, tol, image_tol)
    return ReconstructionResult(h=h, max_orbit_mismatch=float(worst[0]),
                                depth=depth)


def _reconstruct(phi, seeds, walk, tol, image_tol):
    """`reconstruct_isometry` on m seed simplices at once: their
    candidates and largest orbit mismatches (m,).

    walk yields, per word length, the letters (K, L) and the vertices
    (m, K, n+1, n) of every seed's reflection walk.  The seed images are
    taken one point at a time and solved seed by seed; each walk level
    of all seeds is mapped by one `evaluate_many` call and checked in
    one batch.  The error raised is the one that reconstructing the
    seeds one after the other would raise first: a seed is checked up to
    its first failure, and the seeds after a failing one are dropped.
    """
    alive, error = len(seeds), None  # the seeds before alive pass so far

    def fail(i, exc):
        nonlocal alive, error
        alive, error = i, exc

    images = []
    for i, s in enumerate(seeds):
        try:
            images.append([phi(v) for v in s.base.vertices])
        except HyprigError as exc:
            fail(i, exc)
            break
    if not alive:
        raise error
    Y = np.array([[v.coords for v in img] for img in images])
    irregular = ~regular_mask(Y, image_tol)
    img_or = orientation_signs(Y)
    hs = []
    for i in range(alive):
        try:
            if irregular[i]:
                _check_seed_image(images[i], image_tol)
            target = RegularSimplex(IdealSimplex(tuple(images[i])),
                                    int(img_or[i]))
            hs.append(isometry_from_simplex_pair(
                seeds[i], target,
                regularity_tol=max(REGULARITY_TOL, image_tol)))
        except HyprigError as exc:
            fail(i, exc)
            break
    H = np.array([h.matrix for h in hs])
    worst = np.zeros(alive)
    for letters, V in walk:
        if not alive:
            break
        img = _walk_images(phi, V[:alive], fail)
        V = V[:alive]
        added = slice(None), np.arange(len(letters)), letters[:, -1]
        gaps = np.max(np.abs(act_ideal_many(H[:alive], V[added])
                             - img[added]), axis=-1)
        misoriented = (orientation_signs(img.reshape(-1, *img.shape[2:]))
                       .reshape(gaps.shape)
                       != (-1) ** letters.shape[1] * img_or[:alive, None])
        bad = (gaps > tol) | misoriented
        failing = np.flatnonzero(bad.any(axis=1))
        if len(failing):
            i = failing[0]
            gap = float(gaps[i, np.argmax(bad[i])])
            fail(i, OrbitMismatch(
                f"orbit vertex deviates by {gap:.3e} > {tol:.3e}"
                if gap > tol else "image orientation fails to alternate",
                mismatch=gap))
        worst[:alive] = np.maximum(worst[:alive], np.max(gaps[:alive], axis=1))
    if error is not None:
        raise error
    return hs, worst


def _check_seed_image(img_verts, image_tol):
    """The regularity gate on one seed image, with the error of its test."""
    try:
        if not is_regular(img_verts, image_tol):
            raise ImageNotRegular("image of the seed simplex is not regular")
    except DegenerateSimplex as exc:
        raise ImageNotRegular(str(exc)) from exc


def _walk_images(phi, V, fail):
    """phi on one walk level V (a, K, n+1, n) of a seeds, in one batch.
    If that raises, the seeds are mapped one by one up to the first that
    raises, which `fail` records, and the images before it are returned."""
    try:
        return evaluate_many(phi, V.reshape(-1, V.shape[-1])).reshape(V.shape)
    except HyprigError:
        pass
    out = []
    for i, Vi in enumerate(V):
        try:
            out.append(evaluate_many(phi, Vi.reshape(-1, V.shape[-1]))
                       .reshape(Vi.shape))
        except HyprigError as exc:
            fail(i, exc)
            break
    return np.array(out).reshape(-1, *V.shape[1:])


def consensus(phi, n: int, m: int, depth: int, tol: float = 1e-7,
              seed=0) -> Isometry:
    """Reconstruction from m random seed simplices g.ref, required to
    agree within tol in max-abs matrix norm.

    The m isometries g are drawn as one stack, each seed's walk is g
    applied to the cached reference walk, and all seeds are
    reconstructed in one pass.  The error raised is the first that
    reconstructing the seeds one after the other would raise; nothing is
    skipped."""
    if m < 2:
        raise ValueError("consensus needs at least 2 seeds")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rng = np.random.default_rng(seed)
    G, _ = random_isometries(rng, n, m, max_translation=WINDOW)
    ref = np.array([v.coords for v in reference_regular(n, 1).base.vertices])
    # act_ideal's own arithmetic on the stack, so that the seed vertices
    # are bit for bit act_ideal(g, v)
    Y = (G[:, None] @ null_lifts(ref)[None, :, :, None])[..., 0]
    X = Y[..., :-1] / Y[..., -1:]
    X = X / np.sqrt(X[..., None, :] @ X[..., :, None])[..., 0]
    seeds = [RegularSimplex(IdealSimplex(tuple(IdealPoint(x) for x in Xi)),
                            int(sign))
             for Xi, sign in zip(X, orientation_signs(X))]
    walk = ((letters, act_ideal_many(G[:, None], V))
            for letters, V in reference_walk(n, depth))
    hs, _ = _reconstruct(phi, seeds, walk, ORBIT_TOL, IMAGE_TOL)
    for h in hs[1:]:
        if np.max(np.abs(h.matrix - hs[0].matrix)) > tol:
            raise NoConsensus("reconstructions disagree", candidates=hs)
    return hs[0]


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
