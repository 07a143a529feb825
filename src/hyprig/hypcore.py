"""Models of hyperbolic n-space and its isometry group.

The canonical model is the hyperboloid in Minkowski space R^(n,1) with the
form  <x, y> = x_0 y_0 + ... + x_{n-1} y_{n-1} - x_n y_n  (time coordinate
last, positive on the upper sheet).  Points of the boundary sphere at
infinity are stored as unit vectors of S^{n-1}; when Minkowski algebra is
needed they are lifted to the null vector (xi, 1) by :func:`null_lifts`.

Klein ball, Poincare ball and upper half-space coordinates are charts
reachable through :func:`convert`; all group computations stay on the
hyperboloid where isometries are exact linear algebra.  The upper
half-space model sends the pole (0, ..., 0, 1) to infinity; its charts are
:func:`halfspace_chart` on the boundary and :func:`halfspace_to_hyperboloid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BarycentricOutOfRange,
    DegenerateConfiguration,
    DimensionMismatch,
    IdealFullWeight,
    NotLorentz,
    OutOfModel,
    TimeReversing,
    TooManyPoints,
)

# Invariant tolerances (see the type contracts).
POINT_TOL = 1e-12
FORM_TOL = 1e-10
REPAIR_TOL = 1e-8

MODELS = ("hyperboloid", "klein", "poincare", "halfspace")


def minkowski_matrix(n: int) -> np.ndarray:
    """The Gram matrix J = diag(1, ..., 1, -1) of R^(n,1)."""
    J = np.eye(n + 1)
    J[n, n] = -1.0
    return J


def null_lifts(X) -> np.ndarray:
    """The fixed-scale null vectors (xi, 1) in R^(n,1) of boundary points,
    the rows of X (..., n), as (..., n+1)."""
    X = np.asarray(X, dtype=float)
    lifts = np.empty(X.shape[:-1] + (X.shape[-1] + 1,))
    lifts[..., :-1] = X
    lifts[..., -1] = 1.0
    return lifts


def stack_det(M) -> np.ndarray:
    """Determinants of a stack of k x k matrices M (..., k, k): the 2x2
    formula at k = 2 and the cofactor expansion along the first column at
    k = 3, without LAPACK's per-matrix overhead, and LAPACK's LU
    determinant otherwise."""
    M = np.asarray(M, dtype=float)
    k = M.shape[-1]
    if k == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    if k == 3:
        (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = (
            [M[..., i, j] for j in range(3)] for i in range(3))
        return (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
                + a2 * (b0 * c1 - b1 * c0))
    return np.linalg.det(M)


def _frame_signs(Q: np.ndarray) -> np.ndarray:
    """sign(det Q) of orthogonal frames Q (..., n, n), as +1 or -1, from
    `stack_det` (det Q = +-1 to rounding, so the sign is never in
    doubt)."""
    return np.where(stack_det(Q) > 0, 1, -1)


def mink(x, y) -> float:
    """Minkowski inner product of two vectors (time coordinate last)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.dot(x[:-1], y[:-1]) - x[-1] * y[-1])


def _on_hyperboloid(x) -> bool:
    """Whether <x, x> = -1 within POINT_TOL max(1, x_n^2): the form is
    evaluated with cancellation of order |x|^2 eps, so the tolerance has to
    scale for points far from the basepoint."""
    return abs(mink(x, x) + 1.0) <= POINT_TOL * max(1.0, x[-1] ** 2)


@dataclass(frozen=True)
class SpacePoint:
    """A point of H^n, stored as its hyperboloid representative."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        if not _on_hyperboloid(c):
            raise OutOfModel(f"not on the hyperboloid: <x,x> = {mink(c, c)}")
        if c[-1] <= 0:
            raise OutOfModel("time coordinate must be positive")

    @property
    def n(self) -> int:
        return len(self.coords) - 1


@dataclass(frozen=True)
class IdealPoint:
    """A boundary point, stored as a unit vector of S^{n-1}."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        # the norm as np.linalg.norm forms it, without its call overhead
        if abs(math.sqrt(c.dot(c)) - 1.0) > POINT_TOL:
            raise OutOfModel(f"not a unit vector: |xi| = {np.linalg.norm(c)}")

    @property
    def n(self) -> int:
        return len(self.coords)

    def null_lift(self) -> np.ndarray:
        """The fixed-scale null vector (xi, 1) in R^(n,1)."""
        return null_lifts(self.coords)


@dataclass(frozen=True)
class Isometry:
    """An isometry of H^n: a time-orientation preserving O(n,1) matrix.

    ``sign`` is the orientation character: +1 for orientation preserving,
    -1 for orientation reversing.  Build through :func:`make_isometry`,
    which validates and repairs the matrix.
    """

    matrix: np.ndarray
    sign: int

    @property
    def n(self) -> int:
        return len(self.matrix) - 1

    def inverse(self) -> "Isometry":
        J = minkowski_matrix(self.n)
        # O(n,1): M^{-1} = J M^T J, exact up to roundoff.
        return Isometry(J @ self.matrix.T @ J, self.sign)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        if self.n != other.n:
            raise DimensionMismatch("isometries of different dimension")
        return Isometry(self.matrix @ other.matrix, self.sign * other.sign)


@dataclass(frozen=True)
class Hyperplane:
    """A totally geodesic hyperplane, stored as a unit spacelike normal."""

    normal: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.normal, dtype=float)
        object.__setattr__(self, "normal", u)
        if abs(mink(u, u) - 1.0) > FORM_TOL:
            raise OutOfModel("normal is not unit spacelike")

    @property
    def n(self) -> int:
        return len(self.normal) - 1


def gram_schmidt(A, form=None) -> np.ndarray:
    """Columns of a stack A (..., k, k) orthonormalised in order by
    classical Gram-Schmidt run twice per column (CGS2: Giraud, Langou and
    Rozloznik 2005), in the Euclidean product or in the diagonal form
    ``form`` (k,) of +-1.  The second pass keeps them orthonormal to
    rounding for ill-conditioned A; Gaussian A give the Haar frames of
    O(k), the Q of A = QR with positive R diagonal (Mezzadri 2007)."""
    cols = [A[..., :, j].copy() for j in range(A.shape[-1])]
    duals = []  # q form / <q, q>: the coefficient of v along q is <dual, v>
    for v in cols:
        for _ in range(2):
            coef = [np.einsum("...i,...i->...", d, v) for d in duals]
            for q, c in zip(cols, coef):
                v -= c[..., None] * q
        # sample_haar's frames: a form of ones slows the smear workloads 4%
        if form is None:
            v /= np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]
            duals.append(v)
        else:
            norm2 = np.einsum("...i,...i->...", v * form, v)
            v /= np.sqrt(np.abs(norm2))[..., None]
            duals.append(v * form * np.sign(norm2)[..., None])
    return np.stack(cols, axis=-1)


def make_isometry(matrix) -> Isometry:
    """Validate a Lorentz matrix and package it with its orientation sign.

    A form defect |M^T J M - J| within 1e-13 of max(1, max|M|)^2, the
    scale of its rounding, is kept; one up to 1e-8 is repaired by
    Gram-Schmidt against the form, which moves entries by about the
    defect times max|M|; beyond that :class:`NotLorentz` is raised.
    Time-reversing matrices raise :class:`TimeReversing`.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 3:
        raise NotLorentz(f"bad shape {M.shape}")
    M, signs = _lorentz_stack(M[None])
    return Isometry(M[0], int(signs[0]))


def _lorentz_stack(M: np.ndarray):
    """:func:`make_isometry` on a stack M (k, n+1, n+1): the matrices and
    their orientation signs (k,), drifted rows repaired by one Minkowski
    `gram_schmidt`; the first failing row in stack order raises.

    The sign is that of det R for the frame R that M rotates by before
    its transvection, not that of det M = +-1, the difference of
    products of order cosh(d)^(n+1) for a transvection of length d,
    which is rounding noise from d of about 19.  Recovering R cancels
    too, with an error of about u cosh d in its entries, so past
    cosh d of about 1/u (d of about 37) the matrix no longer determines
    R and the sign is noise again."""
    J = minkowski_matrix(M.shape[-1] - 1)
    defect = np.max(np.abs(np.swapaxes(M, -1, -2) @ J @ M - J), axis=(-2, -1))
    # written so that a NaN or infinite matrix fails
    if not ((defect <= 1e-14) & (M[:, -1, -1] > 0)).all():
        kept = defect / np.abs(M).max(axis=(-2, -1)).clip(1.0) ** 2 <= 1e-13
        repair = ~kept & (defect <= REPAIR_TOL)
        if repair.any():
            M = M.copy()
            M[repair] = gram_schmidt(M[repair], np.diag(J))
        fails = ~((kept | repair) & (M[:, -1, -1] > 0))
        if fails.any():
            i = np.argmax(fails)
            if not (kept[i] or repair[i]):
                raise NotLorentz(f"form defect {defect[i]:.3e} exceeds {REPAIR_TOL}")
            raise TimeReversing("matrix reverses the time orientation")
    # M = T(p) diag(R, 1) with p = (y, y0) its last column:
    # `transvection_frames` solved for R
    n = M.shape[-1] - 1
    y, y0 = M[:, :n, n], M[:, n, n]
    R = M[:, :n, :n] - (y[:, :, None] * M[:, n, None, :n]
                        / (1.0 + y0)[:, None, None])
    return M, _frame_signs(R)


def identity_isometry(n: int) -> Isometry:
    return Isometry(np.eye(n + 1), 1)


def act_point(g: Isometry, x: SpacePoint) -> SpacePoint:
    """Apply an isometry to a point of H^n."""
    if g.n != x.n:
        raise DimensionMismatch(f"isometry of H^{g.n} on point of H^{x.n}")
    y = g.matrix @ x.coords
    # Renormalize: long products drift off the sheet at roundoff scale.
    y = y / np.sqrt(-mink(y, y))
    return SpacePoint(y)


def act_ideal(g: Isometry, xi: IdealPoint) -> IdealPoint:
    """Apply an isometry to a boundary point (action on null rays)."""
    if g.n != xi.n:
        raise DimensionMismatch(f"isometry of H^{g.n} on point of S^{xi.n - 1}")
    # the arithmetic of g.matrix @ lift and np.linalg.norm(v), without
    # their call overhead
    y = g.matrix.dot(xi.null_lift())
    v = y[:-1] / y[-1]
    return IdealPoint(v / math.sqrt(v.dot(v)))


def act_ideal_many(M, X) -> np.ndarray:
    """act_ideal in array form: each isometry matrix of M (..., n+1, n+1)
    applied to a block of boundary points X (..., k, n), the leading axes
    broadcast, giving unit vectors (..., k, n).

    One matrix on N points is M (n+1, n+1) with X (N, n); N matrices on
    the same k points is M (N, n+1, n+1) with X (k, n).

    The images are formed on coordinate planes: the null lifts are
    written as columns L^T (..., n+1, k), and Y = M L^T (..., n+1, k) is
    one GEMM per matrix, so that the division by the last plane and the
    normalisation run over contiguous rows of length k rather than along
    an axis n+1 long; the result is copied back into C-contiguous rows
    once.  Each entry of Y is the same dot product of a matrix row with a
    lift as in the row form L M^T, and np.add.reduce over the coordinate
    axis, shorter than 8, adds in index order whatever the layout, so the
    values are bit for bit those of the row form."""
    M = np.asarray(M, dtype=float)
    X = np.asarray(X, dtype=float)
    n, k = X.shape[-1], X.shape[-2]
    if M.shape[-1] != n + 1:
        raise DimensionMismatch(f"isometry of H^{M.shape[-1] - 1} on point "
                                f"of S^{n - 1}")
    lifts = np.empty(X.shape[:-2] + (n + 1, k))
    lifts[..., :-1, :] = np.swapaxes(X, -1, -2)
    lifts[..., -1, :] = 1.0
    Y = np.matmul(M, lifts)
    V = Y[..., :-1, :]
    V /= Y[..., -1:, :]
    # the arithmetic of np.linalg.norm(V, axis=-2), without its call overhead
    V /= np.sqrt(np.add.reduce(V * V, axis=-2, keepdims=True))
    return np.ascontiguousarray(np.swapaxes(V, -1, -2))


def _lift(p) -> np.ndarray:
    if isinstance(p, SpacePoint):
        return p.coords
    if isinstance(p, IdealPoint):
        return p.null_lift()
    raise TypeError(f"expected SpacePoint or IdealPoint, got {type(p)}")


def hyperplane_through(points) -> Hyperplane:
    """A hyperplane containing the given <= n points (ideal ones on its
    boundary sphere).

    The choice is deterministic: the span of the Minkowski lifts is
    completed to an n-dimensional subspace by standard basis vectors taken
    in order, and the normal is the unit spacelike vector orthogonal to
    that subspace, oriented so its first nonzero coordinate is positive.
    """
    if not points:
        raise DegenerateConfiguration("no points given")
    n = points[0].n
    if any(p.n != n for p in points):
        raise DimensionMismatch("mixed dimensions")
    if len(points) > n:
        raise TooManyPoints(f"{len(points)} points in H^{n}: at most {n}")

    rows = [_lift(p) for p in points]
    span = np.array(rows)
    rank = np.linalg.matrix_rank(span, tol=1e-9)
    basis = list(span[:rank] if rank == len(rows) else _row_basis(span, rank))
    for j in range(n + 1):
        if len(basis) == n:
            break
        cand = np.vstack(basis + [np.eye(n + 1)[j]])
        if np.linalg.matrix_rank(cand, tol=1e-9) > len(basis):
            basis.append(np.eye(n + 1)[j])
    if len(basis) != n:
        raise DegenerateConfiguration("could not complete the span")
    W = np.vstack(basis)

    # Normal solves W J u = 0; W J is n x (n+1) of full row rank, so the
    # kernel is spanned by the last right singular vector.
    _, _, vt = np.linalg.svd(W @ minkowski_matrix(n))
    u = vt[-1]
    q = mink(u, u)
    if q <= 1e-10:
        raise DegenerateConfiguration("orthogonal complement is not spacelike")
    u = u / np.sqrt(q)
    nz = np.nonzero(np.abs(u) > 1e-9)[0]
    if len(nz) and u[nz[0]] < 0:
        u = -u
    return Hyperplane(u)


def _row_basis(rows: np.ndarray, rank: int):
    basis: list[np.ndarray] = []
    for r in rows:
        cand = np.vstack(basis + [r]) if basis else r[None, :]
        if np.linalg.matrix_rank(cand, tol=1e-9) > len(basis):
            basis.append(r)
        if len(basis) == rank:
            break
    return basis


def reflect_in(h: Hyperplane) -> Isometry:
    """The Lorentz reflection x -> x - 2<x,u>u in the hyperplane."""
    n = h.n
    u = h.normal
    M = np.eye(n + 1) - 2.0 * np.outer(u, u) @ minkowski_matrix(n)
    return Isometry(M, -1)


def straighten(vertices, t) -> SpacePoint:
    """Evaluate the geodesic-straightened simplex at a barycentric point.

    Finite vertices enter through their hyperboloid representatives, ideal
    vertices through the fixed null lift (xi, 1); the Minkowski-affine
    combination is normalized back to the hyperboloid.
    """
    t = np.asarray(t, dtype=float)
    if len(t) != len(vertices):
        raise BarycentricOutOfRange("coordinate count != vertex count")
    if np.any(t < -POINT_TOL) or abs(t.sum() - 1.0) > POINT_TOL:
        raise BarycentricOutOfRange(f"not in the standard simplex: {t}")
    for ti, v in zip(t, vertices):
        if isinstance(v, IdealPoint) and ti >= 1.0 - POINT_TOL:
            raise IdealFullWeight("full weight on an ideal vertex")
    combo = sum(ti * _lift(v) for ti, v in zip(t, vertices))
    q = mink(combo, combo)
    if q >= -1e-14:
        raise DegenerateConfiguration("combination is not timelike")
    return SpacePoint(combo / np.sqrt(-q))


# -- model conversions ------------------------------------------------------

def convert(x, from_model: str, to_model: str) -> np.ndarray:
    """Exact change of model coordinates (hyperboloid / klein / poincare /
    upper half-space).  Round trips are identities to machine precision."""
    if from_model not in MODELS or to_model not in MODELS:
        raise OutOfModel(f"unknown model; choose from {MODELS}")
    hyp = _to_hyperboloid(np.asarray(x, dtype=float), from_model)
    return _from_hyperboloid(hyp, to_model)


def _to_hyperboloid(x, model):
    if model == "hyperboloid":
        if not _on_hyperboloid(x) or x[-1] <= 0:
            raise OutOfModel("not on the upper hyperboloid sheet")
        return x
    if model == "klein":
        r2 = float(np.dot(x, x))
        if r2 >= 1.0:
            raise OutOfModel("Klein coordinates must have norm < 1")
        t = 1.0 / np.sqrt(1.0 - r2)
        return np.append(t * x, t)
    if model == "poincare":
        r2 = float(np.dot(x, x))
        if r2 >= 1.0:
            raise OutOfModel("Poincare coordinates must have norm < 1")
        return np.append(2.0 * x / (1.0 - r2), (1.0 + r2) / (1.0 - r2))
    if x[-1] <= 0:
        raise OutOfModel("half-space coordinates must have last entry > 0")
    return halfspace_to_hyperboloid(x[:-1], x[-1])


def _from_hyperboloid(h, model):
    if model == "hyperboloid":
        return h
    if model == "klein":
        return h[:-1] / h[-1]
    if model == "poincare":
        return h[:-1] / (1.0 + h[-1])
    t = 1.0 / (h[-1] - h[-2])
    return np.append(t * h[:-2], t)


def halfspace_to_hyperboloid(x, t) -> np.ndarray:
    """Upper half-space points (x, t), feet x (..., n-1) and heights
    t (...) > 0, on the hyperboloid: (x/t, (s-1)/(2t), (s+1)/(2t)) with
    s = |x|^2 + t^2.  :func:`convert` inverts it by t = 1/(y_n - y_{n-1}),
    x = t y_{<n-1}."""
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    s = np.einsum("...i,...i->...", x, x) + t * t
    return np.concatenate([x / t[..., None], ((s - 1.0) / (2.0 * t))[..., None],
                           ((s + 1.0) / (2.0 * t))[..., None]], axis=-1)


def halfspace_chart(X) -> np.ndarray:
    """Boundary chart of the upper half-space model: stereographic
    projection from the pole (0, ..., 0, 1) of boundary points, the rows
    of X (..., n), to R^{n-1}, the boundary of upper half-space."""
    return X[..., :-1] / (1.0 - X[..., -1:])


# -- basic isometry constructors -------------------------------------------

def basepoint(n: int) -> SpacePoint:
    """The hyperboloid basepoint (0, ..., 0, 1)."""
    c = np.zeros(n + 1)
    c[-1] = 1.0
    return SpacePoint(c)


def transvection_frames(P, R) -> np.ndarray:
    """The Lorentz matrices T(p) diag(R, 1) (N, n+1, n+1) of hyperboloid
    points P (N, n+1) and orthogonal frames R (N, n, n): the rotation by R
    followed by the transvection T(p) carrying the basepoint to p.

    With p = (y, y0) the product is written out,
    [[R + y (y^T R) / (1 + y0), y], [y^T R, y0]], so that no matrix
    product is formed and nothing cancels (1 + y0 >= 2)."""
    n = R.shape[-1]
    y, y0 = P[:, :n], P[:, n]
    yR = np.einsum("ij,ijk->ik", y, R)
    M = np.empty((len(R), n + 1, n + 1))
    M[:, :n, :n] = R + (y[:, :, None] * yR[:, None, :]
                       / (1.0 + y0)[:, None, None])
    M[:, :n, n] = y
    M[:, n, :n] = yR
    M[:, n, n] = y0
    return M


def random_rotation(rng, n: int, orientation=None) -> np.ndarray:
    """Haar-uniform element of O(n) (or of the requested SO/reversing
    component) from an orthonormal-frame completion of Gaussian vectors."""
    return _frames(rng.standard_normal((n, n)), orientation)


def _frames(A, orientation=None) -> np.ndarray:
    """The orthonormal frames of Gaussian blocks A (..., n, n): the QR
    factor Q with the signs of R's diagonal moved into it, its first
    column negated where `_frame_signs` is not the requested
    orientation."""
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]
    if orientation is not None:
        flip = _frame_signs(Q) != orientation
        Q[..., :, 0] *= np.where(flip, -1.0, 1.0)[..., None]
    return Q


def random_isometry(rng, n: int, max_translation: float = 1.0,
                    orientation=None) -> Isometry:
    """A random isometry from a compact window: uniform frame rotation
    composed with a transvection of length <= max_translation."""
    M, signs = random_isometries(rng, n, 1, max_translation, orientation)
    return Isometry(M[0], int(signs[0]))


def random_isometries(rng, n: int, k: int, max_translation: float = 1.0,
                      orientation=None):
    """k draws of :func:`random_isometry` as matrices (k, n+1, n+1) and
    orientation signs (k,).

    The generator is read as k calls read it, in two calls per draw:
    the Gaussian block A_0 of the first frame, then per draw i one
    ``rng.random()`` for the translation length and one
    ``standard_normal`` filling the direction u_i and the next frame's
    block A_(i+1), which follow each other in the stream (the last call
    fills u_(k-1) alone).  d_i = max_translation * U_i is
    ``uniform(0, max_translation)`` bit for bit, and the directions are
    normalised on the whole stack with the arithmetic of
    ``v / sqrt(v . v)``.  The frames R and their orientation signs are
    then formed on the whole stack, and each matrix is
    :func:`transvection_frames` of the point (sinh(d) u, cosh d) and R,
    the transvection carrying the basepoint there after the rotation.  A
    translation too long for floating point, one that leaves a matrix
    entry infinite or NaN (from d of about 355, where sinh(d)^2
    overflows), raises OutOfModel."""
    # the window checks of numpy's uniform(0, max_translation)
    if not math.isfinite(max_translation):
        raise OverflowError("high - low range exceeds valid bounds")
    if max_translation < 0:
        raise ValueError("high - low < 0")
    # draw i's block [A_i, u_i] is row i of G, so u_i and A_(i+1) are
    # one contiguous slice of the flat buffer
    s = n * n + n
    G = np.empty(k * s)
    if k:
        rng.standard_normal(out=G[:n * n])
    d = np.empty(k)
    for i, start in enumerate(range(n * n, k * s, s)):
        d[i] = rng.random()
        rng.standard_normal(out=G[start:start + s])
    d *= max_translation
    G = G.reshape(k, s)
    A = G[:, :n * n].reshape(k, n, n)
    u = G[:, n * n:]
    # stacked 1 x n by n x 1 products sum as ndarray.dot does
    u = u / np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
    frames = _frames(A, orientation)
    signs = _frame_signs(frames)
    with np.errstate(all="ignore"):
        P = np.concatenate([np.sinh(d)[:, None] * u, np.cosh(d)[:, None]],
                           axis=1)
        M = transvection_frames(P, frames)
    finite = np.isfinite(M).all(axis=(1, 2))
    if not finite.all():
        raise OutOfModel(f"translation length {d[np.argmin(finite)]:.6g} "
                         "overflows the hyperboloid coordinates")
    return M, signs
