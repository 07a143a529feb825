"""The test oracles' own properties: the midpoint transvection carries
its endpoint, the point symmetry is an involution fixing its center, and
the SL(2) lifts are homomorphisms acting on the half-space boundary chart
by Moebius transformations."""

import numpy as np

from hyprig.hypcore import IdealPoint, act_ideal, act_point, basepoint
from oracles import (
    boundary_to_halfspace,
    halfspace_to_boundary,
    isometry_from_sl2,
    point_symmetry,
    translation_to,
    transvection,
)
from test_hypcore import random_ideal_point, random_space_point


def test_transvection_carries_endpoint():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        p = random_space_point(rng, n)
        q = random_space_point(rng, n)
        t = transvection(p, q)
        assert t.sign == 1
        assert np.max(np.abs(act_point(t, p).coords - q.coords)) < 1e-10
        b = translation_to(q)
        assert np.max(np.abs(act_point(b, basepoint(n)).coords - q.coords)) < 1e-10


def test_point_symmetry_fixes_center():
    rng = np.random.default_rng(2)
    p = random_space_point(rng, 3)
    s = point_symmetry(p)
    assert np.max(np.abs(act_point(s, p).coords - p.coords)) < 1e-12
    assert np.max(np.abs((s @ s).matrix - np.eye(4))) < 1e-12


def test_boundary_chart_round_trip():
    rng = np.random.default_rng(59)
    for n in (2, 3):
        for _ in range(25):
            xi = random_ideal_point(rng, n)
            w = boundary_to_halfspace(xi)
            back = halfspace_to_boundary(w, n)
            assert np.max(np.abs(back.coords - xi.coords)) < 1e-10
        pole = np.zeros(n)
        pole[-1] = 1.0
        assert boundary_to_halfspace(IdealPoint(pole)) is None
        assert np.max(np.abs(halfspace_to_boundary(None, n).coords - pole)) < 1e-15


def test_sl2_homomorphism():
    rng = np.random.default_rng(61)
    for _ in range(15):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = a / np.sqrt(np.linalg.det(a))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = b / np.sqrt(np.linalg.det(b))
        ga, gb = isometry_from_sl2(a, 3), isometry_from_sl2(b, 3)
        gab = isometry_from_sl2(a @ b, 3)
        assert np.max(np.abs((ga @ gb).matrix - gab.matrix)) < 1e-9
        assert ga.sign == 1


def test_sl2_moebius_action_on_chart():
    rng = np.random.default_rng(67)
    for _ in range(20):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = m / np.sqrt(np.linalg.det(m))
        g = isometry_from_sl2(m, 3)
        w = complex(*rng.standard_normal(2))
        xi = halfspace_to_boundary([w.real, w.imag], 3)
        img = boundary_to_halfspace(act_ideal(g, xi))
        expect = (m[0, 0] * w + m[0, 1]) / (m[1, 0] * w + m[1, 1])
        assert abs(complex(img[0], img[1]) - expect) < 1e-8


def test_sl2_real_acts_on_circle():
    rng = np.random.default_rng(71)
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        d = np.linalg.det(m)
        if d <= 0:
            m[0] = -m[0]
            d = -d
        m = m / np.sqrt(d)
        g = isometry_from_sl2(m, 2)
        w = rng.standard_normal()
        xi = halfspace_to_boundary([w], 2)
        img = boundary_to_halfspace(act_ideal(g, xi))
        expect = (m[0, 0] * w + m[0, 1]) / (m[1, 0] * w + m[1, 1])
        assert abs(img[0] - expect) < 1e-8


def test_parabolic_fixes_infinity():
    g = isometry_from_sl2(np.array([[1.0, 1.0], [0.0, 1.0]]), 3)
    pole = IdealPoint(np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(act_ideal(g, pole).coords - pole.coords)) < 1e-12
