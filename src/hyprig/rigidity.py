"""From boundary maps back to isometries.

A boundary map that sends regular ideal simplices to regular ideal
simplices is the boundary action of a single isometry; these routines
make that effective.  `isometry_from_simplex_pair` solves for the unique
isometry matching two regular simplices vertex by vertex,
`reconstruct_isometry` certifies the candidate on `regref.reflection_walk`
of the seed simplex, `consensus` cross-checks reconstructions from
independent seeds, and `verify_conjugacy` confirms the resulting
conjugation of lattice generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSimplex,
    GeneratorCountMismatch,
    ImageNotRegular,
    NoConsensus,
    NoExactSolve,
    NotLorentz,
    NotRegular,
    OrbitMismatch,
    TimeReversing,
)
from .boundary import evaluate_many
from .hypcore import (Isometry, act_ideal, act_ideal_many, make_isometry,
                      minkowski_matrix, null_lifts, random_isometry)
from .lattice import LatticePreset
from .regref import (RegularSimplex, face_reflections, reference_regular,
                     reflection_walk)
from .volcocycle import (IdealSimplex, is_regular, orientation_sign,
                         orientation_signs, regular_mask)

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
    compared with the source orientation.  The isometries are drawn in
    trial order; all trials are then mapped and tested as one batch.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    ref = np.array([v.coords for v in reference_regular(n, 1).base.vertices])
    G = np.array([random_isometry(rng, n, max_translation=WINDOW).matrix
                  for _ in range(trials)])
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
    src_verts = list(seed_simplex.base.vertices)
    img_verts = [phi(v) for v in src_verts]
    try:
        if not is_regular(img_verts, image_tol):
            raise ImageNotRegular("image of the seed simplex is not regular")
    except DegenerateSimplex as exc:
        raise ImageNotRegular(str(exc)) from exc
    img_or = orientation_sign(img_verts)
    target = RegularSimplex(IdealSimplex(tuple(img_verts)), img_or)
    h = isometry_from_simplex_pair(seed_simplex, target,
                                   regularity_tol=max(REGULARITY_TOL, image_tol))

    worst = 0.0
    for letters, _, V in reflection_walk(seed_simplex,
                                         face_reflections(seed_simplex), depth):
        img = evaluate_many(phi, V.reshape(-1, V.shape[2])).reshape(V.shape)
        added = np.arange(len(V)), letters[:, -1]
        gaps = np.max(np.abs(act_ideal_many(h.matrix, V[added]) - img[added]),
                      axis=1)
        misoriented = orientation_signs(img) != (-1) ** letters.shape[1] * img_or
        bad = np.flatnonzero((gaps > tol) | misoriented)
        if len(bad):
            gap = float(gaps[bad[0]])
            if gap > tol:
                raise OrbitMismatch(
                    f"orbit vertex deviates by {gap:.3e} > {tol:.3e}",
                    mismatch=gap)
            raise OrbitMismatch("image orientation fails to alternate",
                                mismatch=gap)
        worst = max(worst, float(np.max(gaps)))
    return ReconstructionResult(h=h, max_orbit_mismatch=worst, depth=depth)


def consensus(phi, n: int, m: int, depth: int, tol: float = 1e-7,
              seed=0) -> Isometry:
    """Reconstruction from m independent seed simplices, required to
    agree within tol in max-abs matrix norm.  Errors from any single
    reconstruction propagate; nothing is skipped."""
    if m < 2:
        raise ValueError("consensus needs at least 2 seeds")
    rng = np.random.default_rng(seed)
    ref = reference_regular(n, 1)
    results = []
    for _ in range(m):
        g = random_isometry(rng, n, max_translation=WINDOW)
        verts = tuple(act_ideal(g, v) for v in ref.base.vertices)
        seed_s = RegularSimplex(IdealSimplex(verts), orientation_sign(verts))
        results.append(reconstruct_isometry(phi, seed_s, depth))
    mats = [r.h.matrix for r in results]
    for other in mats[1:]:
        if np.max(np.abs(other - mats[0])) > tol:
            raise NoConsensus("reconstructions disagree",
                              candidates=[r.h for r in results])
    return results[0].h


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
