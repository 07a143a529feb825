"""Adaptive quadrature over simplices with vertex singularities.

Cells are affine simplices in R^d (d = 1, 2, 3).  Each cell carries the
indices of its vertices that sit on the singular locus of the integrand
(for the hyperbolic volume form: on the circumsphere of the base).  Cells
with one singular vertex are integrated in Duffy coordinates with a
square-root substitution on the radial variable, which turns a
dist^{-d/2} blow-up into a smooth integrand; regular cells use the plain
ordered Duffy map.  Refinement is midpoint (red) subdivision driven by a
max-heap on the two-rule error estimate.
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np

from .errors import QuadratureBudgetExceeded

_LOW_ORDER = 5
_HIGH_ORDER = 9


def _gauss01(p):
    x, w = np.polynomial.legendre.leggauss(p)
    return 0.5 * (x + 1.0), 0.5 * w


@functools.cache
def _cube_rule(d, p):
    """Tensor Gauss-Legendre nodes/weights on the open unit cube."""
    x1, w1 = _gauss01(p)
    xg = np.meshgrid(*([x1] * d), indexing="ij")
    wg = np.meshgrid(*([w1] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in xg], axis=1)
    wts = np.prod(np.stack([g.ravel() for g in wg], axis=1), axis=1)
    return pts, wts


def _duffy(U, sqrt_first):
    """Map cube points to barycentric coordinates (lambda_0 first).

    The first cube coordinate is the distance-like parameter t = 1 -
    lambda_0 measured from vertex 0; with ``sqrt_first`` it is squared so
    Gauss points resolve a t^{d/2 - 1} density.  Returns (lambda, weight)
    arrays of shapes (N, d+1) and (N,), the weight absorbing every
    Jacobian factor of the chain cube -> (t, stick-breaking) -> barycentric.
    """
    N, d = U.shape
    if sqrt_first:
        t = U[:, 0] * U[:, 0]
        w = 2.0 * U[:, 0]
    else:
        t = U[:, 0]
        w = np.ones(N)
    w = w * t ** (d - 1)
    lam = np.empty((N, d + 1))
    lam[:, 0] = 1.0 - t
    rest = np.ones(N)
    for j in range(1, d):
        lam[:, j] = t * U[:, j] * rest
        w *= rest
        rest = rest * (1.0 - U[:, j])
    lam[:, d] = t * rest
    return lam, w


@functools.cache
def _duffy_rules(d, sqrt_first):
    """Both quadrature rules pushed through the Duffy map, cached:
    (lam_lo, w_lo, lam_hi, w_hi) with the Gauss weights folded in."""
    plo, wlo = _cube_rule(d, _LOW_ORDER)
    phi, whi = _cube_rule(d, _HIGH_ORDER)
    llo, dlo = _duffy(plo, sqrt_first)
    lhi, dhi = _duffy(phi, sqrt_first)
    return llo, wlo * dlo, lhi, whi * dhi


@functools.cache
def _child_table(d):
    """Red refinement as barycentric rows: T[k] @ V gives the vertices of
    child k of the simplex with vertex rows V.  Child j <= d is the corner
    child of vertex j, listed first, then the midpoints of its edges."""
    e = np.eye(d + 1)

    def m(i, j):
        return 0.5 * (e[i] + e[j])

    kids = [[e[j]] + [m(j, k) for k in range(d + 1) if k != j]
            for j in range(d + 1)]
    if d == 2:
        kids.append([m(0, 1), m(0, 2), m(1, 2)])
    elif d == 3:
        # the central octahedron, cut along the (m01, m23) diagonal
        a, b = m(0, 1), m(2, 3)
        kids += [[a, b, m(0, 2), m(0, 3)], [a, b, m(0, 3), m(1, 3)],
                 [a, b, m(1, 3), m(1, 2)], [a, b, m(1, 2), m(0, 2)]]
    elif d != 1:
        raise ValueError(f"red refinement covers d = 1..3, got {d}")
    return np.array(kids)


@functools.cache
def _step_rules(d, singular):
    """Nodes and weights for one refinement step, whose children carry the
    singular flags ``singular``: barycentric nodes of shape (K, d+1, P),
    each child's 9^d high-order nodes followed by its 5^d low-order ones,
    and the (K, 9^d) and (K, 5^d) weights."""
    rules = [_duffy_rules(d, s) for s in singular]
    lam = np.stack([np.concatenate([lhi, llo]).T for llo, _, lhi, _ in rules])
    whi = np.stack([r[3] for r in rules])
    wlo = np.stack([r[1] for r in rules])
    return lam, whi, wlo


def integrate_simplex(f, vertices, singular_mask, tol, max_evals=2_000_000):
    """Integrate f over the simplex, adaptively, to absolute accuracy tol.

    ``f`` maps an (N, d) array of points to the (N,) array of values.  It
    is called once per refinement step, on the quadrature nodes of all
    children of the refined cell at once, laid out coordinate-major
    (Fortran order).  ``singular_mask[i]`` marks vertex i as lying on the
    singular locus.
    Returns (value, error_estimate, evals).  Raises
    :class:`QuadratureBudgetExceeded` when the budget runs out first.
    """
    V = np.asarray(vertices, dtype=float)
    d = V.shape[1]
    table = _child_table(d)
    K = len(table)
    n_hi = _HIGH_ORDER ** d
    step_evals = K * (_LOW_ORDER ** d + n_hi)
    # red children have 2^-d of their parent's volume
    scale = 0.5 ** d

    def refine(V, jac, singular):
        """Vertices (K, d+1, d), values and error estimates of the
        children of the cell V, each child with Jacobian jac."""
        C = table @ V                                    # (K, d+1, d)
        lam, whi, wlo = _step_rules(d, singular)
        Xt = np.empty((d, K, lam.shape[2]))
        np.matmul(C.transpose(0, 2, 1), lam, out=Xt.transpose(1, 0, 2))
        vals = np.asarray(f(Xt.reshape(d, -1).T), dtype=float).reshape(K, -1)
        hi = jac * np.einsum("kp,kp->k", vals[:, :n_hi], whi)
        lo = jac * np.einsum("kp,kp->k", vals[:, n_hi:], wlo)
        return C, hi.tolist(), np.abs(hi - lo).tolist()

    # One forced red refinement separates the singular vertices, so every
    # live cell has at most one, listed first: the corner child of a
    # singular vertex.  After that only corner child 0 of a singular cell
    # keeps the flag; midpoints lie strictly inside the singular sphere.
    first = tuple(bool(singular_mask[j]) if j <= d else False
                  for j in range(K))
    corner0 = tuple(j == 0 for j in range(K))
    regular = (False,) * K

    jac = scale * abs(np.linalg.det(V[1:] - V[0]))
    C, hi, err = refine(V, jac, first)
    evals = step_evals
    # heap entries: (-error, order, value, vertices, jacobian, singular)
    heap = [(-err[k], k, hi[k], C[k], jac, first[k]) for k in range(K)]
    heapq.heapify(heap)
    counter = K
    total_err = sum(err)

    while True:
        if total_err <= tol:
            # the running sum drifts; decide on the exact one
            total_err = math.fsum(-c[0] for c in heap)
            if total_err <= tol:
                break
        if evals + step_evals > max_evals:
            raise QuadratureBudgetExceeded(
                f"error {total_err:.3e} > tol {tol:.3e} at {evals} evals")
        neg_err, _, _, W, jac, sing = heapq.heappop(heap)
        total_err += neg_err
        jac *= scale
        flags = corner0 if sing else regular
        C, hi, err = refine(W, jac, flags)
        evals += step_evals
        for k in range(K):
            heapq.heappush(heap, (-err[k], counter, hi[k], C[k], jac,
                                  flags[k]))
            counter += 1
            total_err += err[k]

    return math.fsum(c[2] for c in heap), total_err, evals
