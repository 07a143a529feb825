"""The signed volume cocycle on tuples of ideal points.

Vol_n(xi_0, ..., xi_n) is the signed hyperbolic volume of the straightened
simplex spanned by n+1 boundary points: exact (up to Lobachevsky-series
truncation) for n = 2, 3 and adaptive quadrature for n = 4.  The sign is
the orientation of the vertex order, read off the determinant of the null
lifts, and the cocycle is normalized to be positive on the reference
regular simplex with positive orientation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSimplex, UnsupportedDimension
from .hypcore import IdealPoint
from .quadrature import integrate_simplex

COINCIDENCE_TOL = 1e-12
DEGENERATE_DET_TOL = 1e-9


@dataclass(frozen=True)
class IdealSimplex:
    """An ordered tuple of n+1 boundary points of H^n."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))

    @property
    def n(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class VolumeResult:
    value: float
    abs_error: float
    method: str


def _vertex_list(simplex):
    if isinstance(simplex, IdealSimplex):
        return list(simplex.vertices)
    return list(simplex)


# -- Lobachevsky function ---------------------------------------------------

_ZETA_TERMS = 40


def _zeta_even(m: int) -> np.ndarray:
    """zeta(2), zeta(4), ..., zeta(2m), from zeta(2) = pi^2/6 and
    (k + 1/2) zeta(2k) = sum_{j=1}^{k-1} zeta(2j) zeta(2k - 2j)."""
    z = [math.pi ** 2 / 6.0]
    for k in range(2, m + 1):
        z.append(math.fsum(z[j - 1] * z[k - j - 1] for j in range(1, k))
                 / (k + 0.5))
    return np.array(z)


_K = np.arange(1, _ZETA_TERMS + 1)
_SERIES = _zeta_even(_ZETA_TERMS) / (_K * (2 * _K + 1))


def lobachevsky(theta):
    """The Lobachevsky function, odd and pi-periodic.

    Evaluated by the log-accelerated series
    L(t) = t - t log|2t| + sum_k zeta(2k)/(k(2k+1)) t^{2k+1}/pi^{2k},
    valid on |t| <= pi/2 where the reduction lands; truncation error is
    below 1e-15 there.
    """
    theta = np.asarray(theta, dtype=float)
    t = np.mod(theta + 0.5 * np.pi, np.pi) - 0.5 * np.pi
    # L(0) = 0: there log|2t| is replaced by log 1
    acc = t - t * np.log(np.abs(2.0 * t) + (t == 0.0))
    ratio = (t / np.pi) ** 2
    # ratio^k, k = 1.._ZETA_TERMS, along a new last axis
    powers = np.cumprod(ratio[..., None] * np.ones(_ZETA_TERMS), axis=-1)
    out = acc + t * (powers @ _SERIES)
    return float(out) if t.ndim == 0 else out


V2 = math.pi
V3 = 3.0 * lobachevsky(math.pi / 3.0)

_VN_CACHE = {2: V2, 3: V3}


# -- orientation and degeneracy --------------------------------------------

def _null_lift_matrix(points):
    return np.array([np.append(p.coords, 1.0) for p in points])


def _coincident_rows(P):
    """Per simplex of a batch P (N, k, n): whether two vertices coincide."""
    i, j = np.array(list(itertools.combinations(range(P.shape[1]), 2))).T
    diff = P[:, i] - P[:, j]
    gaps2 = np.einsum("...i,...i->...", diff, diff)
    return np.any(gaps2 < COINCIDENCE_TOL ** 2, axis=1)


def _coincident_pair(points) -> bool:
    return bool(_coincident_rows(np.array([p.coords for p in points])[None])[0])


def orientation_sign(simplex) -> int:
    """Orientation of the vertex order: sign of det of the null lifts.

    Zero when the points lie on the boundary sphere of a hyperplane (the
    straightened simplex is flat)."""
    points = _vertex_list(simplex)
    d = float(np.linalg.det(_null_lift_matrix(points)))
    if abs(d) < DEGENERATE_DET_TOL:
        return 0
    return 1 if d > 0 else -1


# -- exact low-dimensional evaluators ---------------------------------------
#
# The batch forms take an (N, n+1, n) array of vertex coordinates on the
# sphere; the scalar vol2/vol3 wrap them, so each formula lives once.

def vol2_batch(P) -> np.ndarray:
    """Signed areas of N ideal triangles, P of shape (N, 3, 2): exactly
    +pi or -pi by cyclic orientation, exactly 0 when two vertices
    coincide or the null-lift determinant is below the degeneracy cut."""
    P = np.asarray(P, dtype=float)
    lifts = np.concatenate([P, np.ones(P.shape[:2] + (1,))], axis=2)
    d = np.linalg.det(lifts)
    out = np.where(d > 0, math.pi, -math.pi)
    out[(np.abs(d) < DEGENERATE_DET_TOL) | _coincident_rows(P)] = 0.0
    return out


def vol2(simplex) -> VolumeResult:
    """Signed area of an ideal triangle: +/- pi by cyclic orientation."""
    P = np.array([p.coords for p in _vertex_list(simplex)])
    return VolumeResult(float(vol2_batch(P[None])[0]), 0.0, "exact2")


def _homogeneous_chart(P):
    """Boundary points of H^3, rows of P (..., 3), as projective pairs
    (a : b), w = a/b, in the half-space chart w = (xi_1 + i xi_2)/(1 - xi_3).
    Both representatives agree where defined; the better conditioned one
    is returned."""
    x, y, z = P[..., 0], P[..., 1], P[..., 2]
    w = x + 1j * y
    # near the poles one of the representatives degenerates to (0, 0);
    # on the sphere their squared norms are 2 - 2 xi_3 and 2 + 2 xi_3, so
    # the lower hemisphere takes the first
    south = z <= 0.0
    return np.where(south, w, 1.0 + z), np.where(south, 1.0 - z, w.conj())


def vol3_batch(P) -> np.ndarray:
    """Signed volumes of N ideal tetrahedra, P of shape (N, 4, 3), via
    the cross-ratio of the vertices on the Riemann sphere.

    The tetrahedron with cross-ratio z has volume
    L(arg z) + L(arg 1/(1-z)) + L(arg (z-1)/z), signed by the half-plane
    of z; coincident vertices and real cross-ratios give exactly 0."""
    P = np.asarray(P, dtype=float)
    a, b = _homogeneous_chart(P)

    def det(i, j):
        return a[:, i] * b[:, j] - a[:, j] * b[:, i]

    # Cross-ratio sending vertices 0, 1, 2 to 0, 1, infinity, evaluated at
    # vertex 3; projective determinants avoid the point at infinity.
    num = det(3, 0) * det(1, 2)
    den = det(3, 2) * det(1, 0)
    flat = (den == 0) | _coincident_rows(P)
    z = num / np.where(flat, 1.0, den)
    flat |= (z.imag == 0) | (z == 0.0) | (z == 1.0)
    z = np.where(flat, 1j, z)
    angles = np.stack([np.angle(z), np.angle(1.0 / (1.0 - z)),
                       np.angle((z - 1.0) / z)], axis=1)
    out = np.sum(lobachevsky(angles), axis=1)
    out[flat] = 0.0
    return out


def vol3(simplex) -> VolumeResult:
    """Signed volume of an ideal tetrahedron via the cross-ratio of its
    vertices on the Riemann sphere."""
    P = np.array([p.coords for p in _vertex_list(simplex)])
    value = float(vol3_batch(P[None])[0])
    # the exact zeros of degenerate tetrahedra carry no series truncation
    return VolumeResult(value, 0.0 if value == 0.0 else 1e-12, "lobachevsky3")


# -- general quadrature evaluator ------------------------------------------

def _chart_points(points, apex):
    """Stereographic chart sending the apex vertex to infinity.

    A Householder rotation of the sphere carries the apex to the pole
    e_{n-1}; projection from the pole maps the rest to R^{n-2} ... R^{n-1}
    (the boundary of upper half-space)."""
    n = points[0].n
    pole = np.zeros(n)
    pole[-1] = 1.0
    a = points[apex].coords
    v = a - pole
    nv = np.linalg.norm(v)
    if nv < 1e-13:
        R = np.eye(n)
    else:
        v = v / nv
        R = np.eye(n) - 2.0 * np.outer(v, v)  # swaps apex and pole
    out = []
    for i, p in enumerate(points):
        if i == apex:
            continue
        c = R @ p.coords
        out.append(c[:-1] / (1.0 - c[-1]))
    return np.array(out)


def _circumsphere(W):
    """Center and radius of the sphere through d+1 points of R^d."""
    A = 2.0 * (W[1:] - W[0])
    b = np.sum(W[1:] ** 2, axis=1) - np.sum(W[0] ** 2)
    c = np.linalg.solve(A, b)
    r = float(np.linalg.norm(W[0] - c))
    return c, r


def voln(simplex, tol: float = 1e-6, max_evals: int = 2_000_000,
         threads: int = 1) -> VolumeResult:
    """Signed volume of the straightened ideal simplex by quadrature.

    The vertex best separated from the others is rotated to the pole and
    sent to infinity in the upper half-space model, where the vertical
    integral of the volume form is analytic; what remains is the integral
    of (r^2 - |x - c|^2)^{-(n-1)/2} over the Euclidean base simplex, with
    (c, r) the circumsphere of the base vertices.
    """
    points = _vertex_list(simplex)
    n = len(points) - 1
    if _coincident_pair(points):
        return VolumeResult(0.0, 0.0, "quadrature")
    if n < 2 or n > 4:
        raise UnsupportedDimension(f"quadrature evaluator covers n = 2..4, got {n}")
    sign = orientation_sign(points)
    if sign == 0:
        return VolumeResult(0.0, 0.0, "quadrature")

    # Apex choice: maximize the minimal chordal gap to the others, keeping
    # the chart coordinates of the base bounded.
    gaps = []
    for i, p in enumerate(points):
        gaps.append(min(np.linalg.norm(p.coords - q.coords)
                        for j, q in enumerate(points) if j != i))
    apex = int(np.argmax(gaps))
    W = _chart_points(points, apex)
    c, r = _circumsphere(W)
    d = n - 1

    def integrand(X):
        diff = X - c
        h2 = r * r - np.einsum("ij,ij->i", diff, diff)
        return np.maximum(h2, 1e-300) ** (-0.5 * d)

    value, err, evals = integrate_simplex(
        integrand, W, [True] * (d + 1), tol=tol * (n - 1),
        max_evals=max_evals, threads=threads)
    return VolumeResult(sign * value / (n - 1), err / (n - 1), "quadrature")


def vol(simplex, tol: float = 1e-6, **kw) -> VolumeResult:
    """Dispatch to the best evaluator for the dimension."""
    points = _vertex_list(simplex)
    n = len(points) - 1
    if n == 2:
        return vol2(points)
    if n == 3:
        return vol3(points)
    return voln(points, tol=tol, **kw)


def vol_batch(P) -> np.ndarray:
    """Signed volumes of N ideal simplices, P of shape (N, n+1, n): the
    exact batch forms for n = 2, 3, quadrature simplex by simplex above."""
    P = np.asarray(P, dtype=float)
    n = P.shape[-1]
    if n == 2:
        return vol2_batch(P)
    if n == 3:
        return vol3_batch(P)
    return np.array([voln([IdealPoint(p) for p in s]).value for s in P])


def vol_defect(points, tol: float = 1e-6) -> float:
    """Alternating sum of Vol_n over the faces of an (n+2)-tuple; the
    cocycle identity makes it vanish."""
    points = _vertex_list(points)
    total = 0.0
    for j in range(len(points)):
        face = points[:j] + points[j + 1:]
        total += (-1) ** j * vol(face, tol=tol).value
    return total


def v_n(n: int, tol: float = 1e-7) -> float:
    """Volume of the regular ideal n-simplex, the maximum of |Vol_n|."""
    if n < 2:
        raise UnsupportedDimension("hyperbolic volume needs n >= 2")
    if n not in _VN_CACHE:
        from .regref import reference_regular
        ref = reference_regular(n, 1)
        _VN_CACHE[n] = abs(vol(ref.base.vertices, tol=tol).value)
    return _VN_CACHE[n]


# -- regularity -------------------------------------------------------------

def is_regular(simplex, tol: float = 1e-9) -> bool:
    """Whether some isometry carries the simplex onto the reference
    regular one.

    Tested through the full set of absolute cross-ratios of chordal
    distances, (d_ij d_kl)/(d_ik d_jl) over vertex quadruples, which are
    a complete system of Moebius invariants; for the regular simplex all
    of them equal 1."""
    points = _vertex_list(simplex)
    m = len(points)
    D = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            D[i, j] = D[j, i] = np.linalg.norm(points[i].coords - points[j].coords)
    off = D[np.triu_indices(m, 1)]
    if np.min(off) < max(tol, COINCIDENCE_TOL):
        raise DegenerateSimplex(f"vertex gap {np.min(off):.3e} below tolerance")
    if m < 4:
        return True
    for quad in _quadruples(m):
        i, j, k, l = quad
        for (a, b), (c, e), (f, g), (h, p) in (((i, j), (k, l), (i, k), (j, l)),
                                               ((i, k), (j, l), (i, l), (j, k)),
                                               ((i, j), (k, l), (i, l), (j, k))):
            ratio = (D[a, b] * D[c, e]) / (D[f, g] * D[h, p])
            if abs(ratio - 1.0) > tol:
                return False
    return True


def _quadruples(m):
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                for l in range(k + 1, m):
                    yield i, j, k, l
