"""Independent references for the tests: constructions that the package
itself no longer uses, kept to check its closed forms against a route
that shares no code with them.

- The midpoint transvection: the geodesic symmetries at the midpoint and
  at p compose to the translation carrying p to q, a check on
  `hypcore.transvection_frames`.
- The SL(2) lifts: SL(2, C) on the boundary sphere of H^3 and SL(2, R) on
  the boundary circle of H^2, acting on Hermitian (symmetric) matrices,
  with the half-space boundary chart and its inverse for one point.
"""

import numpy as np

from hyprig.errors import DimensionMismatch, NotLorentz
from hyprig.hypcore import (
    IdealPoint,
    Isometry,
    SpacePoint,
    basepoint,
    halfspace_chart,
    make_isometry,
    mink,
    minkowski_matrix,
)


def point_symmetry(p: SpacePoint) -> Isometry:
    """The geodesic symmetry at a point: -Id on the tangent space."""
    return Isometry(_symmetries(p.coords), 1 if p.n % 2 == 0 else -1)


def _symmetries(P) -> np.ndarray:
    """Matrices of the geodesic symmetries at the hyperboloid points P
    (..., n+1): -Id - 2 p p^T J."""
    n = P.shape[-1] - 1
    return (-np.eye(n + 1) - 2.0 * (P[..., :, None] * P[..., None, :])
            @ minkowski_matrix(n))


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


def boundary_to_halfspace(xi: IdealPoint):
    """`hypcore.halfspace_chart` of one boundary point, or None for the
    pole itself (the point at infinity)."""
    c = xi.coords
    if 1.0 - c[-1] < 1e-13:
        return None
    return halfspace_chart(c)


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
