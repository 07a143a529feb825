import heapq
import math

import numpy as np
import pytest

from hyprig.errors import QuadratureBudgetExceeded
from hyprig.quadrature import _duffy_rules, integrate_simplex


def _midpoint_children(V):
    """Red refinement of the simplex with vertex rows V, in Cartesian
    coordinates; corner child j lists vertex j first."""
    d = V.shape[1]
    m = {(i, j): 0.5 * (V[i] + V[j])
         for i in range(d + 1) for j in range(i + 1, d + 1)}
    kids = [[V[j]] + [m[min(j, k), max(j, k)] for k in range(d + 1) if k != j]
            for j in range(d + 1)]
    if d == 2:
        kids.append([m[0, 1], m[0, 2], m[1, 2]])
    if d == 3:
        a, b = m[0, 1], m[2, 3]
        kids += [[a, b, m[0, 2], m[0, 3]], [a, b, m[0, 3], m[1, 3]],
                 [a, b, m[1, 3], m[1, 2]], [a, b, m[1, 2], m[0, 2]]]
    return [np.array(k) for k in kids]


def _reference(f, V, singular_mask, tol, max_evals=2_000_000):
    """The cell-by-cell form of the adaptive rule: two integrand calls per
    cell, singular flags found by comparing vertices, and the error total
    summed again over the live cells after every step."""
    d = V.shape[1]

    def integrate(W, sing):
        E = W[1:] - W[0]
        jac = abs(np.linalg.det(E))
        llo, wlo, lhi, whi = _duffy_rules(d, sing)
        hi = jac * float(whi @ f(W[0] + lhi[:, 1:] @ E))
        lo = jac * float(wlo @ f(W[0] + llo[:, 1:] @ E))
        return hi, abs(hi - lo)

    cells = []
    for W in _midpoint_children(V):
        hits = [k for k, row in enumerate(W) for i in range(d + 1)
                if singular_mask[i] and np.allclose(row, V[i])]
        if hits:
            k = hits[0]
            W = W[[k] + [j for j in range(d + 1) if j != k]]
        cells.append((W, bool(hits)))
    per_step = len(cells) * (5 ** d + 9 ** d)
    heap, counter, evals = [], 0, per_step
    for W, sing in cells:
        hi, err = integrate(W, sing)
        heap.append((-err, counter, hi, W, sing))
        counter += 1
    heapq.heapify(heap)
    while math.fsum(-c[0] for c in heap) > tol:
        if evals + per_step > max_evals:
            raise QuadratureBudgetExceeded("budget")
        _, _, _, W, sing = heapq.heappop(heap)
        for K in _midpoint_children(W):
            ksing = sing and np.allclose(K[0], W[0])
            hi, err = integrate(K, ksing)
            heapq.heappush(heap, (-err, counter, hi, K, ksing))
            counter += 1
        evals += per_step
    return (math.fsum(c[2] for c in heap), math.fsum(-c[0] for c in heap),
            evals)


def _sphere_integrand(rng, d):
    """A base simplex inscribed in a sphere and the integrand of the
    hyperbolic volume form over it, singular at every vertex."""
    c = rng.standard_normal(d)
    r = 0.5 + rng.random()
    U = rng.standard_normal((d + 1, d))
    V = c + r * U / np.linalg.norm(U, axis=1, keepdims=True)

    def f(X):
        diff = X - c
        return np.maximum(r * r - np.sum(diff * diff, axis=1),
                          1e-300) ** (-0.5 * d)

    return f, V


class Counting:
    """Records the shape and layout of every integrand call."""

    def __init__(self, f):
        self.f = f
        self.rows = []
        self.fortran = []

    def __call__(self, X):
        self.rows.append(len(X))
        self.fortran.append(X.flags.f_contiguous)
        return self.f(X)


def test_d1_closed_form_both_ends_singular():
    c, r = 0.3, 1.7

    def f(X):
        return np.maximum(r * r - (X[:, 0] - c) ** 2, 1e-300) ** -0.5

    value, err, evals = integrate_simplex(
        f, [[c - r], [c + r]], [True, True], tol=1e-10)
    assert abs(value - np.pi) <= max(err, 1e-14) + 1e-13
    assert err <= 1e-10


def test_d3_regular_cell_gives_euclidean_volume():
    V = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0],
                  [0.3, 1.1, 0.0], [0.2, 0.4, 0.9]])
    value, err, evals = integrate_simplex(
        lambda X: np.ones(len(X)), V, [False] * 4, tol=1e-12)
    assert value == pytest.approx(abs(np.linalg.det(V[1:] - V[0])) / 6,
                                  rel=1e-13)
    assert evals == 8 * (5 ** 3 + 9 ** 3)


@pytest.mark.parametrize("d", [2, 3])
def test_one_call_per_refinement_step(d):
    f, V = _sphere_integrand(np.random.default_rng(d), d)
    g = Counting(f)
    value, err, evals = integrate_simplex(g, V, [True] * (d + 1),
                                          tol=3e-6)
    per_step = 2 ** d * (5 ** d + 9 ** d)
    # the forced first refinement, then one call per refined cell
    assert len(g.rows) >= 2
    assert g.rows == [per_step] * len(g.rows)
    assert all(g.fortran)
    assert evals == sum(g.rows) == len(g.rows) * per_step
    assert err <= 3e-6


@pytest.mark.parametrize("seed", range(6))
def test_matches_cell_by_cell_reference(seed):
    f, V = _sphere_integrand(np.random.default_rng(100 + seed), 3)
    got = integrate_simplex(f, V, [True] * 4, tol=3e-6)
    ref = _reference(f, V, [True] * 4, tol=3e-6)
    assert got[2] == ref[2]
    assert got[0] == pytest.approx(ref[0], rel=1e-13)
    assert got[1] == pytest.approx(ref[1], rel=1e-6)


def test_budget_exceeded_before_max_evals():
    f, V = _sphere_integrand(np.random.default_rng(7), 3)
    g = Counting(f)
    per_step = 8 * (5 ** 3 + 9 ** 3)
    max_evals = 5 * per_step + per_step // 2
    with pytest.raises(QuadratureBudgetExceeded):
        integrate_simplex(g, V, [True] * 4, tol=1e-14, max_evals=max_evals)
    assert sum(g.rows) == 5 * per_step
