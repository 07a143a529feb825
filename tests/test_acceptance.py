"""Acceptance gate: one test per headline criterion.

Each test prints a single PASS line (visible with -v through the test
outcome, and with -s through the print) and asserts the stated tolerance.
Budgeted runtimes are generous on a single core; the random streams are
all seeded.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from hyprig.boundary import (
    BoundaryMeasure,
    conformal_barycenter,
    make_boundary_map,
    push_forward,
)
from hyprig.errors import QuadratureBudgetExceeded
from hyprig.hypcore import (
    IdealPoint,
    act_ideal,
    act_point,
    basepoint,
    hyperplane_through,
    identity_isometry,
    mink,
    random_isometry,
    reflect_in,
    straighten,
)
from hyprig.lattice import load_preset
from hyprig.rigidity import consensus, preserves_regular, verify_conjugacy
from hyprig.smear import milnor_wood_check, volume_ratio
from hyprig.volcocycle import V3, is_regular, v_n, vol, vol3, vol_defect


def _report(num, name):
    print(f"criterion {num:2d} ({name}): PASS")


def random_ideal(rng, n, count):
    v = rng.standard_normal((count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [IdealPoint(x) for x in v]


@pytest.fixture(scope="module")
def fig8():
    return load_preset("figure_eight_3d")


def test_criterion_01_cocycle_identity():
    rng = np.random.default_rng(101)
    t0 = time.time()
    for _ in range(1000):
        tup = random_ideal(rng, 3, 5)
        assert abs(vol_defect(tup)) <= 1e-9
    for _ in range(200):
        tup = random_ideal(rng, 4, 6)
        total, err = 0.0, 0.0
        for j in range(6):
            face = tup[:j] + tup[j + 1:]
            try:
                r = vol(face, tol=3e-4)
            except QuadratureBudgetExceeded:
                r = vol(face, tol=3e-3)
            total += (-1) ** j * r.value
            err += r.abs_error
        assert abs(total) <= err
    assert time.time() - t0 <= 60.0
    _report(1, "cocycle identity")


def test_criterion_02_equivariance():
    rng = np.random.default_rng(102)
    for n in (2, 3):
        for _ in range(250):
            pts = random_ideal(rng, n, n + 1)
            g = random_isometry(rng, n, max_translation=1.5)
            moved = [act_ideal(g, p) for p in pts]
            gap = abs(vol(moved).value - g.sign * vol(pts).value)
            assert gap <= 1e-9
    _report(2, "epsilon-equivariance")


def _sphere_chart(w):
    n2 = w @ w
    return np.append(2.0 * w, n2 - 1.0) / (n2 + 1.0)


def test_criterion_03_maximality():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10_000):
        pts = random_ideal(rng, 3, 4)
        worst = max(worst, abs(vol3(pts).value))
    assert worst <= V3 + 1e-9

    def objective(params):
        pts = [IdealPoint(_sphere_chart(params[2 * i:2 * i + 2]))
               for i in range(4)]
        return -abs(vol3(pts).value)

    for _ in range(20):
        # a start with substantial volume and all vertices inside the
        # stereographic chart
        while True:
            v = rng.standard_normal((4, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            if abs(vol3([IdealPoint(x) for x in v]).value) > 0.3 * V3 \
                    and np.max(v[:, 2]) < 0.9:
                break
        x0 = np.concatenate([x[:2] / (1.0 - x[2]) for x in v])
        res = minimize(objective, x0, method="Nelder-Mead",
                       options=dict(xatol=1e-9, fatol=1e-12,
                                    maxiter=20000, maxfev=40000))
        final = [IdealPoint(_sphere_chart(res.x[2 * i:2 * i + 2]))
                 for i in range(4)]
        assert V3 - abs(vol3(final).value) <= 1e-6
        assert is_regular(final, 1e-4)
    assert time.time() - t0 <= 120.0
    _report(3, "maximality at the regular simplex")


def test_criterion_04_proportionality(fig8):
    assert abs(fig8.covolume / v_n(3) - 2.0) <= 1e-6
    _report(4, "proportionality spot-check")


def test_criterion_05_smearing_identity(fig8):
    t0 = time.time()
    phi = make_boundary_map("planted_isometry", g=identity_isometry(3))
    lam = volume_ratio(fig8, phi, 25_000, seed=105, m=8)
    for val, sig, bias in lam.per_simplex:
        assert abs(val - 1.0) <= 3.0 * sig + bias
    band = 3.0 * lam.std_error + lam.bias_bound
    assert band <= 0.05
    assert abs(lam.value - 1.0) <= band
    assert time.time() - t0 <= 300.0
    _report(5, "smearing recovers the identity ratio")


def test_criterion_06_sign_covariance(fig8):
    rng = np.random.default_rng(106)
    tau = random_isometry(rng, 3, max_translation=0.5, orientation=-1)
    phi = make_boundary_map("planted_isometry", g=tau)
    lam = volume_ratio(fig8, phi, 25_000, seed=106, m=8)
    assert abs(lam.value + 1.0) <= 3.0 * lam.std_error + lam.bias_bound
    _report(6, "sign covariance")


def test_criterion_07_milnor_wood(fig8):
    rng = np.random.default_rng(107)
    maps = [make_boundary_map("planted_isometry", g=identity_isometry(3))]
    maps += [make_boundary_map("planted_isometry",
                               g=random_isometry(rng, 3, 1.0))
             for _ in range(5)]
    for i, phi in enumerate(maps):
        lam = volume_ratio(fig8, phi, 4000, seed=200 + i, m=4)
        assert milnor_wood_check(lam)["passes"]
    xi0 = IdealPoint(np.array([0.0, 0.0, 1.0]))
    lam = volume_ratio(fig8, make_boundary_map("constant", point=xi0),
                       4000, seed=207, m=4)
    assert abs(lam.value) <= 3.0 * lam.std_error
    _report(7, "Milnor-Wood bound")


def test_criterion_08_rigidity_pipeline(fig8):
    t0 = time.time()
    rng = np.random.default_rng(108)
    for _ in range(20):
        g = random_isometry(rng, 3, max_translation=1.0)
        phi = make_boundary_map("planted_isometry", g=g)
        rep = preserves_regular(phi, 3, trials=20, seed=int(rng.integers(2**31)))
        assert rep.pass_fraction == 1.0
        h = consensus(phi, 3, m=8, depth=4, seed=int(rng.integers(2**31)))
        rho = [g @ gen @ g.inverse() for gen in fig8.generators]
        assert verify_conjugacy(h, fig8, rho) <= 1e-7
    assert time.time() - t0 <= 120.0
    _report(8, "end-to-end rigidity pipeline")


def test_criterion_09_reflection_fixes_inputs():
    rng = np.random.default_rng(109)
    for n in (3, 4):
        for _ in range(50):
            q1 = int(rng.integers(1, n + 1))  # q + 1 points, q + 1 <= n
            pts = random_ideal(rng, n, q1)
            tau = reflect_in(hyperplane_through(pts))
            assert tau.sign == -1
            for p in pts:
                assert np.max(np.abs(act_ideal(tau, p).coords - p.coords)) \
                    <= 1e-10
    _report(9, "reflections fixing low-dimensional tuples")


def test_criterion_10_barycenter_equivariance():
    rng = np.random.default_rng(110)
    done = 0
    while done < 100:
        n = 2 + done % 2
        pts = random_ideal(rng, n, 5)
        w = rng.dirichlet(np.full(5, 2.0))
        if np.max(w) >= 0.45:
            continue
        mu = BoundaryMeasure(tuple(zip(pts, w)))
        g = random_isometry(rng, n, max_translation=1.0)
        lhs = conformal_barycenter(push_forward(g, mu)).coords
        rhs = act_point(g, conformal_barycenter(mu)).coords
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
        done += 1
    _report(10, "barycenter equivariance")


def test_criterion_11_straightening_preserves_horoballs():
    rng = np.random.default_rng(111)
    n = 3
    for _ in range(100):
        eta = random_ideal(rng, n, 1)[0]
        nu = eta.null_lift()
        verts = [act_point(random_isometry(rng, n, 1.5), basepoint(n))
                 for _ in range(n + 1)]
        # the smallest horoball at eta containing every vertex
        c = max(-mink(v.coords, nu) for v in verts)
        for _ in range(100):
            t = rng.dirichlet(np.ones(n + 1))
            x = straighten(verts, t)
            assert -mink(x.coords, nu) <= c * (1.0 + 1e-9)
    _report(11, "straightening preserves horoballs")
