"""The signed volume cocycle on tuples of ideal points.

Vol_n(xi_0, ..., xi_n) is the signed hyperbolic volume of the straightened
simplex spanned by n+1 boundary points, in closed form for n = 2, 3, 4:
exact for n = 2, up to Lobachevsky-series truncation for n = 3, and up to
a derived rounding-error bound for n = 4.  Adaptive quadrature (`voln`)
is the independent oracle the tests check them against; no default path
reaches it.  The sign is the orientation of the vertex order, read off the
determinant of the null lifts, and the cocycle is normalized to be
positive on the reference regular simplex with positive orientation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplex, UnsupportedDimension
from .hypcore import POINT_TOL, halfspace_chart, null_lifts, stack_det
from .quadrature import integrate_simplex

COINCIDENCE_TOL = 1e-12
DEGENERATE_DET_TOL = 1e-9

_U = np.finfo(float).eps / 2.0      # unit roundoff


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

# the degree-13 polynomial interpolating
# sum_k zeta(2k)/(k(2k+1)) r^(k-1) at the 14 Chebyshev nodes of r in
# [0, 1/4], coefficients of r^0 ... r^13 rounded from 50 digits
_SERIES = np.array([
    0.5483113556160755, 0.10823232337111433, 0.04844490771341241,
    0.027891037685691296, 0.018199900649012703, 0.012823690465249858,
    0.009523929541276318, 0.007359441730084177, 0.0057870186039473,
    0.005167600971404188, 0.0020866351020545296, 0.00907650882024014,
    -0.008135395315161739, 0.013294394690308683])


def lobachevsky(theta):
    """The Lobachevsky function, odd and pi-periodic.

    Evaluated by the log-accelerated series
    L(t) = t - t log|2t| + sum_k zeta(2k)/(k(2k+1)) t^{2k+1}/pi^{2k}
    on |t| <= pi/2, where the reduction lands: the sum is t r P(r) in
    r = (t/pi)^2 <= 1/4, with P the degree-13 Chebyshev interpolant of
    sum_k zeta(2k)/(k(2k+1)) r^(k-1) there, summed by Horner's rule.
    P with its rounded coefficients is within 1.2e-17 of the series on
    [0, 1/4], 4.6e-18 in L, so rounding sets the error.
    """
    theta = np.asarray(theta, dtype=float)
    # t = theta - k pi is exact for k = 0, so small angles keep every bit
    t = theta - np.pi * np.round(theta / np.pi)
    # L(0) = 0: there log|2t| is replaced by log 1
    acc = t - t * np.log(np.abs(2.0 * t) + (t == 0.0))
    ratio = (t / np.pi) ** 2
    poly = np.full_like(ratio, _SERIES[-1])
    for c in _SERIES[-2::-1]:
        poly *= ratio
        poly += c
    out = acc + t * (poly * ratio)
    return float(out) if t.ndim == 0 else out


V2 = math.pi
V3 = 3.0 * lobachevsky(math.pi / 3.0)


# -- orientation and degeneracy --------------------------------------------

@functools.cache
def _index_sets(m):
    """Index arrays (k, C(m, k)) of the vertex pairs and the vertex
    quadruples of an m-vertex simplex, in lexicographic order."""
    return tuple(np.array(list(itertools.combinations(range(m), k)),
                          dtype=int).reshape(-1, k).T for k in (2, 4))


@functools.cache
def _cross_ratio_columns(m):
    """Rows (3, C(m, 4)) of `_plane_gaps2`, twice: per vertex quadruple
    i < j < k < l, those of the pairs ij, ik, il and of kl, jl, jk, the
    factors of the products d_ij d_kl, d_ik d_jl and d_il d_jk; read-only,
    computed on the first call for each m."""
    (a, b), (i, j, k, l) = _index_sets(m)
    col = np.zeros((m, m), dtype=int)
    col[a, b] = np.arange(len(a))
    left, right = col[[i, i, i], [j, k, l]], col[[k, j, j], [l, l, k]]
    for c in (left, right):
        c.setflags(write=False)
    return left, right


def _plane_gaps2(X):
    """Squared chordal distances |xi_i - xi_j|^2 of the vertex pairs i < j
    from coordinate planes X (n, k, N), as (C(k, 2), N) in lexicographic
    order, summed d_0^2 + d_1^2 + ... in coordinate order: np.add.reduce
    over an axis shorter than 8 adds in index order, whatever the
    layout, so planes and row views of one batch give the same bits.
    (np.einsum need not: with AVX2 it adds d_0^2 + d_2^2 first.)"""
    i, j = _index_sets(X.shape[1])[0]
    diff = X[:, i] - X[:, j]
    diff *= diff
    return np.add.reduce(diff, axis=0)


def _coincident_rows(gaps2):
    """Per simplex, from its squared pair gaps (C(k, 2), N) of
    `_plane_gaps2`: whether two vertices coincide."""
    return np.any(gaps2 < COINCIDENCE_TOL ** 2, axis=0)


def _plane_signs(X, dets) -> np.ndarray:
    """Orientations of the vertex orders given as coordinate planes
    X (n, n+1, N) from the determinants of their null lifts (or any value
    equal to them up to rounding): the sign of det, 0 where two vertices
    coincide or below the degeneracy cut

        |det|^n <= DEGENERATE_DET_TOL^n prod_{i<j} |xi_i - xi_j|^2.

    The ratio |det| / prod |xi_i - xi_j|^(2/n) is unchanged by every
    isometry up to the orientation character: it is exactly 1/2 for an
    ideal triangle, so no triangle is flat, and for n >= 3 it goes to 0
    as a simplex flattens but not as it shrinks.  Every gap is at most 2,
    so only rows with |det| <= tol 2^(n+1) can fall below the cut, and
    the gaps are taken on those rows alone."""
    n = len(X)
    size = np.abs(dets)
    signs = np.sign(dets).astype(int)
    near = np.flatnonzero(size <= DEGENERATE_DET_TOL * 2.0 ** (n + 1))
    if len(near):
        gaps2 = _plane_gaps2(X[:, :, near])
        flat = (size[near] ** n
                <= DEGENERATE_DET_TOL ** n * np.prod(gaps2, axis=0))
        signs[near[flat | _coincident_rows(gaps2)]] = 0
    return signs


def _plane_dets(X) -> np.ndarray:
    """The determinants of the null lifts of N vertex orders given as
    coordinate planes X (n, n+1, N).

    Subtracting the first lift from the others leaves one 1 in the last
    column, so det[(xi_i, 1)] = (-1)^n det[xi_i - xi_0], i = 1..n; at
    n = 2, 3 that n x n determinant of the differences is taken in closed
    form (`stack_det`) on contiguous planes (X is copied once if it is
    not), so the differences and every entry `stack_det` reads are
    contiguous rows.  At n >= 4 the lifts go through LAPACK."""
    n = len(X)
    if n <= 3:
        X = np.ascontiguousarray(X)
        diff = X[:, 1:] - X[:, :1]
        return (-1) ** n * stack_det(diff.transpose(2, 1, 0))
    return np.linalg.det(null_lifts(X.transpose(2, 1, 0)))


def orientation_signs(P) -> np.ndarray:
    """Orientations of N vertex orders P (N, n+1, n): the sign of det of
    the null lifts (`_plane_dets`), 0 where two vertices coincide or below
    the degeneracy cut of `_plane_signs`, where the points lie on the
    boundary sphere of a hyperplane (the straightened simplex is flat).
    The kernels read the coordinate planes P.transpose(2, 1, 0); a
    transposed view of planes passes them in without a copy."""
    X = np.asarray(P, dtype=float).transpose(2, 1, 0)
    return _plane_signs(X, _plane_dets(X))


def orientation_sign(simplex) -> int:
    """Orientation of the vertex order, 0 for a flat simplex."""
    P = np.array([p.coords for p in _vertex_list(simplex)])
    return int(orientation_signs(P[None])[0])


# -- exact low-dimensional evaluators ---------------------------------------
#
# The batch forms take an (N, n+1, n) array of vertex coordinates on the
# sphere; the scalar vol2/vol3 wrap them, so each formula lives once.

def vol2_batch(P) -> np.ndarray:
    """Signed areas of N ideal triangles, P of shape (N, 3, 2): exactly
    +pi or -pi by cyclic orientation, exactly 0 when two vertices
    coincide."""
    return math.pi * orientation_signs(P)


def vol2(simplex) -> VolumeResult:
    """Signed area of an ideal triangle: +/- pi by cyclic orientation."""
    P = np.array([p.coords for p in _vertex_list(simplex)])
    return VolumeResult(float(vol2_batch(P[None])[0]), 0.0, "exact2")


# of the six vertex pairs of a tetrahedron, lexicographic as in
# `_plane_gaps2`, the four whose projective determinants make the
# cross-ratio: 03, 12, 23 and 01
_CROSS_PAIRS = [2, 3, 5, 0]


def _vol3_planes(P):
    """`vol3_batch` on P (N, 4, 3), with the angles (3, N) and the
    squared pair gaps (6, N) it computed them from."""
    X = np.ascontiguousarray(np.asarray(P, dtype=float).transpose(2, 1, 0))
    x, y, t = X
    # vertex k as the projective pair (a_k : b_k), w = a/b, in the
    # half-space chart w = (xi_1 + i xi_2)/(1 - xi_3).  Near the poles one
    # representative degenerates to (0, 0); on the sphere their squared
    # norms are 2 - 2 xi_3 and 2 + 2 xi_3, so the lower hemisphere takes
    # the first.
    south = t <= 0.0
    a = np.where(south, x + 1j * y, 1.0 + t)
    b = np.where(south, 1.0 - t, x - 1j * y)

    def det(i, j):
        return a[i] * b[j] - a[j] * b[i]

    # the cross-ratio sending vertices 0, 1, 2 to 0, 1, infinity, at
    # vertex 3; projective determinants avoid the point at infinity
    num = det(3, 0) * det(1, 2)
    den = det(3, 2) * det(1, 0)
    gaps2 = _plane_gaps2(X)
    flat = (den == 0) | _coincident_rows(gaps2)
    z = num / np.where(flat, 1.0, den)
    re, im = z.real, z.imag
    flat |= im == 0
    # the angles of the triangle 0, 1, z at 0, at 1 and at z: the
    # arguments of z, 1/(1 - z) and (z - 1)/z, whose real parts over the
    # common imaginary part Im z are Re z, 1 - Re z and Re((z - 1) conj z)
    angles = np.empty((3, len(re)))
    angles[0] = re
    np.subtract(1.0, re, out=angles[1])
    np.multiply(re, re - 1.0, out=angles[2])
    angles[2] += im * im
    L = lobachevsky(np.arctan2(im, angles, out=angles))
    out = L[0] + L[1] + L[2]
    out[flat] = 0.0
    return out, angles, gaps2


def vol3_batch(P) -> np.ndarray:
    """Signed volumes of N ideal tetrahedra, P of shape (N, 4, 3), via
    the cross-ratio z of the vertices on the Riemann sphere: the
    Lobachevsky sum L(theta_0) + L(theta_1) + L(theta_2) over the angles
    of the triangle 0, 1, z (Milnor), signed by the half-plane of z.
    Coincident vertices (`_coincident_rows`'s test, bit for bit) and real
    cross-ratios give exactly 0.

    P is copied once into coordinate planes (3, 4, N), so every step
    reads contiguous rows.  The angles come from one arctan2 with the
    common numerator Im z: theta = atan2(Im z, x), x = Re z, 1 - Re z and
    Re z (Re z - 1) + Im z^2."""
    return _vol3_planes(P)[0]


def _vol3_error(P, angles, gaps2):
    """First-order bound on the error of `vol3_batch` on P (N, 4, 3)
    against the tetrahedra of the vertices projected onto the sphere,
    from the angles theta_k (3, N) of its triangles 0, 1, z and the
    squared pair gaps (6, N) of the vertices, and whether first order
    holds.

    The chart pair of a vertex is that of its projection up to a
    relative error u, and up to |xi|^2 - 1 in its last component (both
    representatives read 1 +- xi_3 for |xi| +- xi_3).  The projective
    determinant of a pair at chordal gap g has modulus |s_i| |s_j| g/2
    for the pairs' norms |s| >= sqrt(2), so it carries a relative error
    of at most (9u + e_i + e_j)/g + u, e = ||xi|^2 - 1| (each product
    sqrt(5)u + 2u).  With two products and a division more, z carries
    rho = sum (9u + e_i + e_j)/g + 16u over its four pairs 03, 12, 23,
    01.  Moving z by dz turns theta_0 = arg z by |dz|/|z| and
    theta_1 = -arg(1 - z) by |dz|/|1 - z|; theta_2 is pi minus both, so
    the Lobachevsky slopes L'(theta) = -log|2 sin theta| give
    dVol = sum_{k<2} log|sin theta_2 / sin theta_k| dtheta_k, and by the
    law of sines |z| = s_1/s_2 and |1 - z| = s_0/s_2, s_k = |sin theta_k|.
    The angle formulas and the reduction by pi move each angle by at most
    12u |theta| more, where the slope is at most |log 2 s| + 1, and the
    sum of the three terms adds 4u.  Where z may move by a quarter of |z|
    or of |1 - z|, first order does not hold."""
    i, j = (k[_CROSS_PAIRS] for k in _index_sets(4)[0])
    e = np.abs(np.add.reduce(P * P, axis=-1) - 1.0).T
    rho = 16.0 * _U + np.sum((9.0 * _U + e[i] + e[j])
                             / np.sqrt(gaps2[_CROSS_PAIRS]), axis=0)
    s0, s1, s2 = s = np.abs(np.sin(angles))
    shift = np.abs(angles) * (np.abs(np.log(2.0 * s)) + 1.0)
    err = (rho * (np.abs(np.log(s0 / s2)) + s1 / s0 * np.abs(np.log(s1 / s2)))
           + 12.0 * _U * np.sum(shift, axis=0) + 4.0 * _U)
    return err, rho * np.maximum(1.0, s1 / s0) < 0.25


def vol3(simplex) -> VolumeResult:
    """Signed volume of an ideal tetrahedron via the cross-ratio of its
    vertices on the Riemann sphere; abs_error is `_vol3_error`'s bound,
    0 on the exact zeros of degenerate tetrahedra."""
    P = np.array([p.coords for p in _vertex_list(simplex)])
    value, angles, gaps2 = _vol3_planes(P[None])
    value = float(value[0])
    if value == 0.0:
        return VolumeResult(0.0, 0.0, "lobachevsky3")
    err, bounded = _vol3_error(P[None], angles, gaps2)
    err = float(err[0]) if bounded[0] else abs(value) + V3
    return VolumeResult(value, err, "lobachevsky3")


# -- the closed form for n = 4 ----------------------------------------------
#
# Every 2-face of an ideal 4-simplex is an ideal triangle of area pi, so
# Schlaefli's formula dVol = -(1/3) sum_F Vol(F) dtheta_F makes the volume
# an affine function of the ten dihedral angles (Milnor, "The Schlaefli
# differential equality"; Kellerhals, Math. Ann. 1989).

V4 = 4.0 * math.pi ** 2 / 3.0 - (10.0 * math.pi / 3.0) * math.acos(1.0 / 3.0)


def _det_error(M):
    """First-order bound on the rounding error of `np.linalg.det` on each
    matrix of M (..., n, n), whose entries may carry a relative error up
    to 6u.

    LU with partial pivoting returns det(M + E) with |E_rc| at most
    n^2 2^(n-1) u max|M|, 2^(n-1) being the worst-case growth factor, and
    the determinant is multilinear in the rows, so by Hadamard's
    inequality |det(M + E) - det M| <= sum_r |E_r| prod_{s != r} |M_s|.
    The entry errors add 6u n prod_s |M_s|, and the product of the pivots
    n u |det| <= n u prod_s |M_s|."""
    n = M.shape[-1]
    rows = np.sqrt(np.einsum("...i,...i->...", M, M))
    hadamard = rows.prod(axis=-1)
    eta = (n * n * math.sqrt(n) * 2.0 ** (n - 1) * _U
           * np.abs(M).max(axis=(-2, -1)))
    return (eta * (hadamard[..., None] / rows).sum(axis=-1)
            + 7.0 * n * _U * hadamard)


_EDGE_I, _EDGE_J = np.triu_indices(5, 1)
# the Gram entry (r, c) as a column of the pair gaps of `_plane_gaps2`,
# lexicographic like _EDGE_I, _EDGE_J, padded by a zero column for r = c
_PAIR = np.full((5, 5), 10)
_PAIR[_EDGE_I, _EDGE_J] = _PAIR[_EDGE_J, _EDGE_I] = np.arange(10)
# the 4x4 minors of the 5x5 Gram matrix that vol4_batch needs: the five
# principal ones, then the ten (i, j), i < j, with row i and column j cut
_MINOR_ROWS = np.array([[r for r in range(5) if r != i]
                        for i in [*range(5), *_EDGE_I]])
_MINOR_COLS = np.array([[c for c in range(5) if c != j]
                        for j in [*range(5), *_EDGE_J]])
_MINORS = _PAIR[_MINOR_ROWS[:, :, None], _MINOR_COLS[:, None, :]]
_COFACTOR_SIGNS = (-1.0) ** (_EDGE_I + _EDGE_J)
# for each pair i < j, the pairs kl, km, lm of the other three vertices
_OTHERS = np.array([[k for k in range(5) if k not in (i, j)]
                    for i, j in zip(_EDGE_I, _EDGE_J)]).T
_FACE_PAIRS = _PAIR[_OTHERS[[0, 0, 1]], _OTHERS[[1, 2, 2]]]
# `_det_error` of the null lifts (xi, 1): every row has |xi| = 1 within
# POINT_TOL, so the bound is the same for every simplex up to rounding.
# Taken at rows of norm 1 + 2 POINT_TOL, the largest IdealPoint admits
# with as much again for the rounding of the norms, it bounds them all.
_LIFT_DET_ERROR = float(_det_error(null_lifts(
    np.tile([1.0 + 2.0 * POINT_TOL, 0.0, 0.0, 0.0], (5, 1)))))


def vol4_batch(P):
    """Signed volumes of N ideal 4-simplices, P of shape (N, 5, 4), and a
    bound on the rounding error of each, as (values, abs_errors).

    D_ij = -|xi_i - xi_j|^2/2 is the Gram matrix of the null lifts and
    G = D^-1 the Gram matrix of the facet normals, so the dihedral angles
    have cos theta_ij = -G_ij/sqrt(G_ii G_jj), and
    Vol = eps (pi/3) |4 pi - sum_{i<j} theta_ij|, eps = `orientation_signs`.
    Flat simplices and coincident vertices (eps = 0) give exactly 0.

    D^-1 is not formed: its condition grows like 1/det(lifts)^2, and near
    flat simplices it loses every digit.  With C the cofactors of D,
    G = C/det D and det D = -det(lifts)^2, so
    cos theta_ij = C_ij/sqrt(C_ii C_jj), and Jacobi's identity for the 2x2
    minors of an inverse gives
    sin theta_ij = |det(lifts)| sqrt(-2 D_kl D_km D_lm/(C_ii C_jj)),
    {k, l, m} the other three vertices; theta_ij = atan2(sin, cos).  Each
    C_ii is the Gram determinant of a facet, so no step divides by a small
    determinant of the whole simplex.  D itself is not formed either: the
    ten pair gaps, with a zero for the diagonal, are the only distinct
    entries, and the 15 minors and the sine numerators are read from them
    by one gather each.

    The bound is derived from the computation, not assumed: `_det_error`
    bounds each minor, and for det(lifts) it is a constant, since every
    lift (xi, 1) has |xi| = 1 within POINT_TOL.  That bounds each cosine
    and sine to first order; an angle moves by at most
    (pi/2) |(dcos, dsin)|/|(cos, sin)|, and the ten angles and the
    rounding of their sum make the bound.  Where a facet determinant or
    det(lifts) is not known to within a quarter, the bound is
    |value| + V4, since no ideal 4-simplex is larger than the regular one.
    """
    P = np.asarray(P, dtype=float)
    X = P.transpose(2, 1, 0)
    det = _plane_dets(X)
    eps = _plane_signs(X, det)
    dead = eps == 0
    any_dead = dead.any()
    det = np.abs(det)
    D = np.zeros((len(P), 11))
    np.multiply(_plane_gaps2(X).T, -0.5, out=D[:, :10])
    if any_dead:
        # the dead rows compute the regular simplex, whose vertex gaps
        # are sqrt(5/2), then are set to 0
        D[dead, :10] = -1.25
        det[dead] = 1.0

    M = D[:, _MINORS]
    minors = np.linalg.det(M)
    d_minors = _det_error(M)
    diag = np.abs(minors[:, :5])          # |C_ii|; every C_ii is < 0
    rel = d_minors[:, :5] / diag
    i, j = _EDGE_I, _EDGE_J
    den = np.sqrt(diag[:, i] * diag[:, j])
    kl, km, lm = D[:, _FACE_PAIRS].transpose(1, 0, 2)
    cos = _COFACTOR_SIGNS * minors[:, 5:] / den
    sin = det[:, None] * np.sqrt(-2.0 * kl * km * lm) / den
    # cumsum adds in index order whatever N is (sum may go pairwise), so
    # a simplex gets the same value alone and in a batch
    value = eps * (math.pi / 3.0) * np.abs(
        4.0 * math.pi - np.arctan2(sin, cos).cumsum(axis=-1)[:, -1])

    rel_det = _LIFT_DET_ERROR / det
    pair_rel = rel[:, i] + rel[:, j]
    dcos = (2.0 * (d_minors[:, 5:] / den + 0.5 * np.abs(cos) * pair_rel)
            + 4.0 * _U)
    dsin = 2.0 * sin * (rel_det[:, None] + 0.5 * pair_rel + 14.0 * _U)
    reach = np.hypot(dcos, dsin) / np.hypot(cos, sin)
    dtheta = np.where(reach < 1.0, 0.5 * math.pi * reach, math.pi)
    trivial = np.abs(value) + V4
    bounded = (rel < 0.25).all(axis=-1) & (rel_det < 0.25)
    err = np.where(bounded, np.minimum(
        (math.pi / 3.0) * (dtheta.sum(axis=-1) + 64.0 * math.pi * _U),
        trivial), trivial)
    if any_dead:
        value[dead] = 0.0
        err[dead] = 0.0
    return value, err


# -- quadrature, the oracle -------------------------------------------------

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
    return halfspace_chart(np.array([R @ p.coords for i, p in enumerate(points)
                                     if i != apex]))


def voln(simplex, tol: float = 1e-6,
         max_evals: int = 2_000_000) -> VolumeResult:
    """Signed volume of the straightened ideal simplex by quadrature: the
    oracle for the exact evaluators, with which it shares only the
    orientation sign, coincidence test included.

    The vertex best separated from the others is rotated to the pole and
    sent to infinity in the upper half-space model, where the vertical
    integral of the volume form is analytic; what remains is the integral
    of h^{-(n-1)} over the Euclidean base simplex W, h the height of the
    circumsphere of W over the base.  At barycentric coordinates lam,
    h^2 = sum_{i<j} lam_i lam_j |W_i - W_j|^2, which stays accurate where
    r^2 - |x - c|^2 would cancel (near-flat simplices, whose base is thin
    and circumsphere huge), so the integral is taken over the standard
    simplex in lam and scaled by the base's |det(W_i - W_0)|.
    """
    points = _vertex_list(simplex)
    n = len(points) - 1
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
    d = n - 1
    D = np.sum((W[:, None] - W[None]) ** 2, axis=-1)
    # x = (lam_1, ..., lam_d) and lam_0 = 1 - sum x turn the sum for h^2
    # into the quadratic x.g0 + x^T Q x
    g0 = D[0, 1:]
    Q = 0.5 * (D[1:, 1:] - g0[:, None] - g0[None, :])
    jac = abs(np.linalg.det(W[1:] - W[0]))

    def integrand(X):
        XT = X.T
        h2 = np.einsum("in,in->n", Q @ XT + g0[:, None], XT)
        return jac * np.maximum(h2, 1e-300) ** (-0.5 * d)

    value, err, evals = integrate_simplex(
        integrand, np.vstack([np.zeros(d), np.eye(d)]), [True] * (d + 1),
        tol=tol * (n - 1), max_evals=max_evals)
    return VolumeResult(sign * value / (n - 1), err / (n - 1), "quadrature")


def vol(simplex, tol: float = 1e-6) -> VolumeResult:
    """Vol_n of a simplex of n+1 ideal points, n = 2..4, by the closed form
    for the dimension.  ``tol`` is accepted for callers that ask for an
    accuracy; the closed forms do not read it and report their own
    abs_error."""
    points = _vertex_list(simplex)
    n = len(points) - 1
    if n == 2:
        return vol2(points)
    if n == 3:
        return vol3(points)
    if n == 4:
        P = np.array([p.coords for p in points])
        value, err = vol4_batch(P[None])
        return VolumeResult(float(value[0]), float(err[0]), "schlafli4")
    raise UnsupportedDimension(f"Vol_n is evaluated for n = 2..4, got {n}")


def vol_batch(P) -> np.ndarray:
    """Signed volumes of N ideal simplices, P of shape (N, n+1, n), n = 2..4,
    by the batch forms of the exact evaluators."""
    P = np.asarray(P, dtype=float)
    n = P.shape[-1]
    if n == 2:
        return vol2_batch(P)
    if n == 3:
        return vol3_batch(P)
    if n == 4:
        return vol4_batch(P)[0]
    raise UnsupportedDimension(f"Vol_n is evaluated for n = 2..4, got {n}")


def vol_defect(points) -> float:
    """Alternating sum of Vol_n over the faces of an (n+2)-tuple; the
    cocycle identity makes it vanish.  The n+2 faces go through one
    `vol_batch` call; face j drops vertex j."""
    P = np.array([p.coords for p in _vertex_list(points)])
    c = np.arange(len(P) - 1)
    vols = vol_batch(P[c + (c >= np.arange(len(P))[:, None])])
    vols[1::2] *= -1.0
    # cumsum adds in face order, as a loop over the faces would
    return float(vols.cumsum()[-1])


def v_n(n: int) -> float:
    """Volume of the regular ideal n-simplex, the maximum of |Vol_n|, for
    n = 2..4."""
    if n not in (2, 3, 4):
        raise UnsupportedDimension(f"v_n is known for n = 2..4, got {n}")
    return (V2, V3, V4)[n - 2]


# -- regularity -------------------------------------------------------------

def regular_mask(P, tol: float = 1e-9) -> np.ndarray:
    """Per simplex of a batch P (N, m, n): whether some isometry carries it
    onto the reference regular one.  Simplices with a vertex gap below
    max(tol, COINCIDENCE_TOL) are not regular.

    Tested through the full set of absolute cross-ratios of chordal
    distances, (d_ij d_kl)/(d_ik d_jl) over vertex quadruples, which are
    a complete system of Moebius invariants; for the regular simplex all
    of them equal 1.  They are read from the coordinate planes
    P.transpose(2, 1, 0): the pair distances are the rows (C(m, 2), N) of
    `_plane_gaps2`, and every product and ratio of them is a row
    operation."""
    X = np.asarray(P, dtype=float).transpose(2, 1, 0)
    D = np.sqrt(_plane_gaps2(X))
    ok = np.min(D, axis=0) >= max(tol, COINCIDENCE_TOL)
    left, right = _cross_ratio_columns(X.shape[1])
    D = D[:, ok]
    # d_ij d_kl, d_ik d_jl and d_il d_jk per quadruple
    prod = D[left] * D[right]
    ratios = prod[[0, 1, 0]] / prod[[1, 2, 2]]
    ok[ok] = np.all(np.abs(ratios - 1.0) <= tol, axis=(0, 1))
    return ok


def is_regular(simplex, tol: float = 1e-9) -> bool:
    """`regular_mask` on one simplex; raises DegenerateSimplex when two
    vertices come closer than max(tol, COINCIDENCE_TOL)."""
    P = np.array([p.coords for p in _vertex_list(simplex)])
    if regular_mask(P[None], tol)[0]:
        return True
    gap = math.sqrt(np.min(_plane_gaps2(P.T[..., None])))
    if gap < max(tol, COINCIDENCE_TOL):
        raise DegenerateSimplex(f"vertex gap {gap:.3e} below tolerance")
    return False
