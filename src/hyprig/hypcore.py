"""Models of hyperbolic n-space and its isometry group.

The canonical model is the hyperboloid in Minkowski space R^(n,1) with the
form  <x, y> = x_0 y_0 + ... + x_{n-1} y_{n-1} - x_n y_n  (time coordinate
last, positive on the upper sheet).  Points of the boundary sphere at
infinity are stored as unit vectors of S^{n-1}; when Minkowski algebra is
needed they are lifted to the null vector (xi, 1).

Klein ball, Poincare ball and upper half-space coordinates are charts
reachable through :func:`convert`; all group computations stay on the
hyperboloid where isometries are exact linear algebra.
"""

from __future__ import annotations

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


def mink(x, y) -> float:
    """Minkowski inner product of two vectors (time coordinate last)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.dot(x[:-1], y[:-1]) - x[-1] * y[-1])


@dataclass(frozen=True)
class SpacePoint:
    """A point of H^n, stored as its hyperboloid representative."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        # the form is evaluated with cancellation of order |x|^2 eps, so
        # the tolerance has to scale for points far from the basepoint
        if abs(mink(c, c) + 1.0) > POINT_TOL * max(1.0, c[-1] ** 2):
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
        if abs(np.linalg.norm(c) - 1.0) > POINT_TOL:
            raise OutOfModel(f"not a unit vector: |xi| = {np.linalg.norm(c)}")

    @property
    def n(self) -> int:
        return len(self.coords)

    def null_lift(self) -> np.ndarray:
        """The fixed-scale null vector (xi, 1) in R^(n,1)."""
        return np.append(self.coords, 1.0)


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


def _lorentz_defect(M: np.ndarray) -> float:
    n = len(M) - 1
    J = minkowski_matrix(n)
    return float(np.max(np.abs(M.T @ J @ M - J)))


def _gram_schmidt_j(M: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt of the columns against the Minkowski form."""
    n = len(M) - 1
    Q = M.astype(float).copy()
    # Spacelike columns first, the time column last; small-drift input
    # keeps every pivot well away from the light cone.
    for j in range(n + 1):
        v = Q[:, j].copy()
        for i in range(j):
            qi = Q[:, i]
            v -= (mink(v, qi) / mink(qi, qi)) * qi
        norm2 = mink(v, v)
        Q[:, j] = v / np.sqrt(abs(norm2))
    return Q


def make_isometry(matrix) -> Isometry:
    """Validate a Lorentz matrix and package it with its orientation sign.

    Orthogonality drift up to 1e-8 is silently repaired by Gram-Schmidt
    against the form; beyond that :class:`NotLorentz` is raised.  Matrices
    reversing the time orientation raise :class:`TimeReversing`.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 3:
        raise NotLorentz(f"bad shape {M.shape}")
    defect = _lorentz_defect(M)
    if defect > REPAIR_TOL:
        raise NotLorentz(f"form defect {defect:.3e} exceeds {REPAIR_TOL}")
    if defect > 1e-14:
        M = _gram_schmidt_j(M)
    if M[-1, -1] <= 0:
        raise TimeReversing("matrix reverses the time orientation")
    sign = 1 if np.linalg.det(M) > 0 else -1
    return Isometry(M, sign)


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
    y = g.matrix @ xi.null_lift()
    v = y[:-1] / y[-1]
    return IdealPoint(v / np.linalg.norm(v))


def act_ideal_many(M, X) -> np.ndarray:
    """act_ideal in array form: each isometry matrix of M (..., n+1, n+1)
    applied to a block of boundary points X (..., k, n), the leading axes
    broadcast, giving unit vectors (..., k, n).

    One matrix on N points is M (n+1, n+1) with X (N, n); N matrices on
    the same k points is M (N, n+1, n+1) with X (k, n)."""
    M = np.asarray(M, dtype=float)
    X = np.asarray(X, dtype=float)
    if M.shape[-1] != X.shape[-1] + 1:
        raise DimensionMismatch(f"isometry of H^{M.shape[-1] - 1} on point "
                                f"of S^{X.shape[-1] - 1}")
    lifts = np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)
    Y = np.matmul(lifts, np.swapaxes(M, -1, -2))
    V = Y[..., :-1] / Y[..., -1:]
    return V / np.linalg.norm(V, axis=-1, keepdims=True)


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
        if abs(mink(x, x) + 1.0) > 1e-9 or x[-1] <= 0:
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
    # halfspace -> poincare ball via the Cayley inversion.
    if x[-1] <= 0:
        raise OutOfModel("half-space coordinates must have last entry > 0")
    y = x.copy()
    y[-1] = -y[-1]
    return _to_hyperboloid(_invert(y), "poincare")


def _from_hyperboloid(h, model):
    if model == "hyperboloid":
        return h
    if model == "klein":
        return h[:-1] / h[-1]
    if model == "poincare":
        return h[:-1] / (1.0 + h[-1])
    return _cayley(_from_hyperboloid(h, "poincare"))


def _invert(p):
    """Inversion in the sphere of radius sqrt(2) centered at e_n."""
    e = np.zeros_like(p)
    e[-1] = 1.0
    d = p - e
    r2 = float(np.dot(d, d))
    if r2 == 0.0:
        raise OutOfModel("Cayley map undefined at the inversion center")
    return e + 2.0 * d / r2


def _cayley(p):
    """Cayley map from the Poincare ball to the upper half-space: the
    inversion above followed by a flip of the last coordinate.  It sends
    the ball origin to (0, ..., 0, 1) and the boundary sphere minus the
    pole e_n to the plane t = 0 by stereographic projection."""
    out = _invert(p)
    out[-1] = -out[-1]
    return out


def boundary_to_halfspace(xi: IdealPoint):
    """Boundary chart of the upper half-space model: stereographic
    projection of S^{n-1} from the pole e_n.  Returns a vector of length
    n-1, or None for the pole itself (the point at infinity)."""
    c = xi.coords
    if 1.0 - c[-1] < 1e-13:
        return None
    return c[:-1] / (1.0 - c[-1])


def halfspace_to_boundary(w, n: int) -> IdealPoint:
    """Inverse of :func:`boundary_to_halfspace`; ``w`` is None for the
    point at infinity."""
    if w is None:
        c = np.zeros(n)
        c[-1] = 1.0
        return IdealPoint(c)
    w = np.asarray(w, dtype=float)
    r2 = float(np.dot(w, w))
    c = np.append(2.0 * w, r2 - 1.0) / (r2 + 1.0)
    return IdealPoint(c / np.linalg.norm(c))


# -- basic isometry constructors -------------------------------------------

def basepoint(n: int) -> SpacePoint:
    """The hyperboloid basepoint (0, ..., 0, 1)."""
    c = np.zeros(n + 1)
    c[-1] = 1.0
    return SpacePoint(c)


def point_symmetry(p: SpacePoint) -> Isometry:
    """The geodesic symmetry at a point: -Id on the tangent space."""
    n = p.n
    M = -np.eye(n + 1) - 2.0 * np.outer(p.coords, p.coords) @ minkowski_matrix(n)
    return Isometry(M, 1 if n % 2 == 0 else -1)


def transvection(p: SpacePoint, q: SpacePoint) -> Isometry:
    """The hyperbolic translation along the geodesic carrying p to q."""
    if p.n != q.n:
        raise DimensionMismatch("points of different dimension")
    s = p.coords + q.coords
    m = SpacePoint(s / np.sqrt(-mink(s, s)))
    g = point_symmetry(m) @ point_symmetry(p)
    return Isometry(g.matrix, 1)


def translation_to(x: SpacePoint) -> Isometry:
    """The canonical transvection carrying the basepoint to x."""
    return transvection(basepoint(x.n), x)


def rotation_isometry(R) -> Isometry:
    """Embed an orthogonal matrix of R^n as an isometry fixing the
    basepoint."""
    R = np.asarray(R, dtype=float)
    n = len(R)
    M = np.eye(n + 1)
    M[:n, :n] = R
    return make_isometry(M)


def random_rotation(rng, n: int, orientation=None) -> np.ndarray:
    """Haar-uniform element of O(n) (or of the requested SO/reversing
    component) from an orthonormal-frame completion of Gaussian vectors."""
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if orientation is not None and np.sign(np.linalg.det(Q)) != orientation:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_isometry(rng, n: int, max_translation: float = 1.0,
                    orientation=None) -> Isometry:
    """A random isometry from a compact window: uniform frame rotation
    composed with a transvection of length <= max_translation."""
    R = random_rotation(rng, n, orientation=orientation)
    d = rng.uniform(0.0, max_translation)
    u = rng.standard_normal(n)
    u = u / np.linalg.norm(u)
    target = SpacePoint(np.append(np.sinh(d) * u, np.cosh(d)))
    return translation_to(target) @ rotation_isometry(R)


def isometry_from_sl2(m, n: int) -> Isometry:
    """The Lorentz image of an SL(2) matrix.

    For n = 3 an element of SL(2, C) acting on the boundary sphere through
    the chart w = (xi_1 + i xi_2) / (1 - xi_3); for n = 2 an element of
    SL(2, R) acting on the boundary circle through w = xi_1 / (1 - xi_2).
    The action on Hermitian (symmetric) matrices H -> m H m* gives the
    linear action on R^(n,1).
    """
    m = np.asarray(m, dtype=complex)
    if abs(np.linalg.det(m) - 1.0) > 1e-9:
        raise NotLorentz("matrix is not in SL(2)")
    if n == 2 and np.max(np.abs(m.imag)) > 1e-12:
        raise DimensionMismatch("n = 2 requires a real SL(2) matrix")
    if n not in (2, 3):
        raise DimensionMismatch("SL(2) lifts exist only for n = 2, 3")

    def to_herm(v):
        # (x, y, z, t) -> [[t+z, x+iy], [x-iy, t-z]]; n = 2 drops y.
        x = v[0]
        y = v[1] if n == 3 else 0.0
        z, t = v[-2], v[-1]
        return np.array([[t + z, x + 1j * y], [x - 1j * y, t - z]])

    def from_herm(H):
        t = 0.5 * np.real(H[0, 0] + H[1, 1])
        z = 0.5 * np.real(H[0, 0] - H[1, 1])
        x = np.real(H[0, 1])
        if n == 3:
            return np.array([x, np.imag(H[0, 1]), z, t])
        return np.array([x, z, t])

    cols = [from_herm(m @ to_herm(e) @ m.conj().T) for e in np.eye(n + 1)]
    return make_isometry(np.array(cols).T)
