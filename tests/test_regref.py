import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyprig.errors import BudgetExceeded
from hyprig.hypcore import (
    act_ideal,
    act_ideal_many,
    identity_isometry,
    minkowski_matrix,
    random_isometry,
    straighten,
)
from hyprig.regref import (
    RegularSimplex,
    density_probe,
    face_reflections,
    flat_walk,
    orbit,
    reference_flat_walk,
    reference_regular,
    reference_vertices,
    reflection_walk,
    walk_size,
)
from hyprig.volcocycle import (IdealSimplex, is_regular, orientation_sign,
                               regular_mask)


def test_reference_regular_shapes():
    for n in (2, 3, 4):
        for eps in (1, -1):
            s = reference_regular(n, eps)
            assert orientation_sign(s.base.vertices) == eps
            assert is_regular(s.base.vertices, 1e-9)
            # inscribed regular Euclidean simplex: dot products -1/n
            V = np.array([p.coords for p in s.base.vertices])
            G = V @ V.T
            off = G[~np.eye(n + 1, dtype=bool)]
            assert np.max(np.abs(off + 1.0 / n)) < 1e-12
            assert np.max(np.abs(V[0] - np.eye(n)[0])) < 1e-12


def test_reference_regular_n2_equally_spaced():
    s = reference_regular(2, 1)
    angles = sorted(np.arctan2(p.coords[1], p.coords[0]) for p in s.base.vertices)
    gaps = np.diff(angles + [angles[0] + 2 * np.pi])
    assert np.max(np.abs(gaps - 2 * np.pi / 3)) < 1e-12


def test_face_reflections_fix_face_vertices():
    for n in (2, 3, 4):
        s = reference_regular(n, 1)
        refs = face_reflections(s)
        assert len(refs) == n + 1
        for i, r in enumerate(refs):
            assert r.sign == -1
            assert np.max(np.abs((r @ r).matrix - np.eye(n + 1))) < 1e-10
            for j, v in enumerate(s.base.vertices):
                if j != i:
                    img = act_ideal(r, v)
                    assert np.max(np.abs(img.coords - v.coords)) < 1e-10


def test_face_reflection_flips_orientation_keeps_regular():
    s = reference_regular(3, 1)
    for i, r in enumerate(face_reflections(s)):
        moved = [act_ideal(r, v) for v in s.base.vertices]
        assert is_regular(moved, 1e-9)
        assert orientation_sign(moved) == -1


def test_orbit_depth_zero_and_one():
    s = reference_regular(3, 1)
    entries, pts = orbit(s, 0)
    assert len(entries) == 1
    assert entries[0][0].letters == ()
    assert len(pts) == 4

    entries, pts = orbit(s, 1)
    assert len(entries) == 5
    for word, child in entries[1:]:
        assert len(word.letters) == 1
        i = word.letters[0]
        # shares the face opposite vertex i with the root
        for j in range(4):
            if j != i:
                assert np.max(np.abs(child.base.vertices[j].coords
                                     - s.base.vertices[j].coords)) < 1e-12
    assert len(pts) == 8


def test_orbit_sign_and_orientation_alternate():
    s = reference_regular(3, 1)
    entries, _ = orbit(s, 3)
    for word, child in entries:
        k = len(word.letters)
        assert word.resolved.sign == (-1) ** k
        assert child.orientation == (-1) ** k
        assert orientation_sign(child.base.vertices) == (-1) ** k


def test_orbit_word_resolves_to_child():
    s = reference_regular(3, 1)
    entries, _ = orbit(s, 3)
    for word, child in entries:
        for a, b in zip(s.base.vertices, child.base.vertices):
            img = act_ideal(word.resolved, a)
            assert np.max(np.abs(img.coords - b.coords)) < 1e-9


def test_orbit_regularity():
    s = reference_regular(3, 1)
    entries, _ = orbit(s, 4)
    P = np.array([[v.coords for v in child.base.vertices]
                  for _, child in entries])
    assert regular_mask(P, 1e-8).all()


def test_orbit_tiling_disjoint_interiors():
    # depth-4 orbit of the H^3 tiling: interior sample points of distinct
    # simplices stay apart, and distinct orbit vertices stay apart
    s = reference_regular(3, 1)
    entries, pts = orbit(s, 4)
    centers = []
    w = np.full(4, 0.25)
    for _, child in entries:
        centers.append(straighten(child.base.vertices, w).coords)
    centers = np.array(centers)
    # words may revisit a tile exactly (the group has relations around
    # edges); what must not happen is two tiles at a small nonzero offset
    for i in range(len(centers)):
        d = -centers[i + 1:] @ np.diag([1, 1, 1, -1]) @ centers[i]
        dist = np.arccosh(np.maximum(d, 1.0))
        # arccosh amplifies roundoff near 1 to about sqrt(eps), hence the
        # 1e-6 floor on what counts as "distinct"
        assert not np.any((dist > 1e-6) & (dist < 0.1))

    gram = pts @ pts.T
    np.fill_diagonal(gram, -1.0)
    # chordal distance between closest distinct vertices
    closest = np.sqrt(np.min(2.0 - 2.0 * np.where(gram > 1, 1, gram)))
    assert closest > 1e-2


def test_orbit_budget():
    s = reference_regular(3, 1)
    with pytest.raises(BudgetExceeded):
        orbit(s, 10, max_size=50)
    # depth 1 has n + 1 = 4 children: 5 simplices in all
    with pytest.raises(BudgetExceeded):
        orbit(s, 1, max_size=4)
    assert len(orbit(s, 1, max_size=5)[0]) == 5
    assert len(orbit(s, 3, max_size=53)[0]) == 53
    # depth 30 would hold 1 + 4 (3^30 - 1) / 2 simplices: the walk
    # refuses before its first level
    walk = reflection_walk(s, face_reflections(s), 30)
    with pytest.raises(BudgetExceeded):
        next(walk)
    assert len(list(reflection_walk(s, face_reflections(s), 3,
                                    max_size=53))) == 3
    with pytest.raises(BudgetExceeded):
        next(reflection_walk(s, face_reflections(s), 3, max_size=52))


def _per_simplex_bfs(s, depth):
    """Reference walk: solve the face reflections of every simplex
    visited, move vertex i by the reflection in face i, and compose that
    reflection on the left of the parent's word."""
    levels = []
    frontier = [((), identity_isometry(s.base.n), s)]
    for _ in range(depth):
        level = []
        for letters, g, simplex in frontier:
            for i, r in enumerate(face_reflections(simplex)):
                if letters and i == letters[-1]:
                    continue
                verts = list(simplex.base.vertices)
                verts[i] = act_ideal(r, verts[i])
                child = RegularSimplex(IdealSimplex(tuple(verts)),
                                       -simplex.orientation)
                level.append((letters + (i,), r @ g, child))
        levels.append(level)
        frontier = level
    return levels


def _walk_vertices(s, walk):
    """Per level of a reflection walk of s, the vertices (K, n+1, n) of
    its simplices, gathered from the walk's vertex list."""
    points = [np.array([v.coords for v in s.base.vertices])]
    for _, _, index, fresh in walk:
        points.append(fresh)
        yield np.concatenate(points)[index]


def test_reflection_walk_matches_per_simplex_bfs():
    for n in (2, 3, 4):
        s = reference_regular(n, 1)
        walk = list(reflection_walk(s, face_reflections(s), 3))
        ref = _per_simplex_bfs(s, 3)
        assert len(walk) == len(ref) == 3
        for (letters, G, _, _), V, level in zip(walk, _walk_vertices(s, walk),
                                                ref):
            assert [tuple(w) for w in letters.tolist()] == \
                [w for w, _, _ in level]
            M = np.array([g.matrix for _, g, _ in level])
            X = np.array([[v.coords for v in c.base.vertices]
                          for _, _, c in level])
            assert np.max(np.abs(G - M)) < 1e-9
            assert np.max(np.abs(V - X)) < 1e-9


@pytest.mark.parametrize("n", (2, 3, 4))
def test_reflection_walk_maps_each_vertex_once(n):
    # a child keeps its parent's vertices but the one its last letter
    # moves, so its index row is its parent's but at that letter, and the
    # vertex list holds the root's n + 1 vertices and one per word
    s = reference_regular(n, 1)
    ref = _per_simplex_bfs(s, 5)
    for depth in range(6):
        walk = list(reflection_walk(s, face_reflections(s), depth))
        rows = n + 1
        parent_index = np.arange(n + 1)[None]
        for (letters, _, index, fresh), V, level in zip(
                walk, _walk_vertices(s, walk), ref):
            K = len(letters)
            assert index.shape == (K, n + 1) and fresh.shape == (K, n)
            X = np.array([[v.coords for v in c.base.vertices]
                          for _, _, c in level])
            assert np.max(np.abs(V - X)) < 1e-12
            # children come by parent, n to each but the root's n + 1
            parent = np.arange(K) // (n + 1 if letters.shape[1] == 1 else n)
            last = letters[:, -1]
            kept = np.arange(n + 1) != last[:, None]
            assert np.array_equal(index[kept], parent_index[parent][kept])
            assert np.array_equal(index[np.arange(K), last],
                                  rows + np.arange(K))
            rows += K
            parent_index = index
        assert rows == n + 1 + sum(len(w) for w, *_ in walk)
        assert rows == walk_size(n, depth) + n
    assert walk_size(3, 4) + 3 == 164


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 4), depth=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([1, -1]))
def test_reference_flat_walk_moved_by_g_is_the_walk_of_g_ref(n, depth, seed,
                                                             eps):
    # the face reflections of g.ref are g r_i g^-1, so the walk of g.ref
    # is g applied to the reference walk, letter for letter, with the
    # same vertex list layout
    g = random_isometry(np.random.default_rng(seed), n, 1.0, orientation=eps)
    verts = tuple(act_ideal(g, v) for v in reference_regular(n, 1).base.vertices)
    s = RegularSimplex(IdealSimplex(verts), orientation_sign(verts))
    own_fresh, own_index, own_parity = flat_walk(
        n, reflection_walk(s, face_reflections(s), depth))
    fresh, index, parity = reference_flat_walk(n, depth)
    assert np.array_equal(index, own_index)
    assert np.array_equal(parity, own_parity)
    assert len(fresh) == len(own_fresh) == walk_size(n, depth) - 1
    assert np.max(np.abs(act_ideal_many(g.matrix, fresh) - own_fresh),
                  initial=0.0) < 1e-12


def test_reference_vertices_are_cached_read_only_and_filled_on_first_call():
    for n in (2, 3, 4):
        X = reference_vertices(n)
        assert reference_vertices(n) is X
        assert np.array_equal(X, [v.coords for v in
                                  reference_regular(n, 1).base.vertices])
        with pytest.raises(ValueError):
            X[0, 0] = 0.0
    # importing the package leaves the caches empty
    code = ("import hyprig.cli, hyprig.regref as r; "
            "print(r.reference_flat_walk.cache_info().currsize, "
            "r.reference_vertices.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


def test_reference_flat_walk_is_the_cached_walk_flattened_once():
    for n, depth in ((2, 5), (3, 3), (4, 2)):
        flat = reference_flat_walk(n, depth)
        assert reference_flat_walk(n, depth) is flat
        ref = reference_regular(n, 1)
        walk = reflection_walk(ref, face_reflections(ref), depth)
        for got, want in zip(flat, flat_walk(n, walk)):
            assert np.array_equal(got, want)
            with pytest.raises(ValueError):
                got.flat[0] = 0
        fresh, index, parity = flat
        assert len(index) == len(parity) == walk_size(n, depth)
        assert len(fresh) == walk_size(n, depth) - 1


def test_orbit_deep_words_stay_lorentz():
    # past the re-orthogonalization at 8 letters; for n = 2 the matrix
    # entries reach about 3e3 at 9 letters, where the form defect is
    # rounded at about eps max|M|^2: every word of the level stays within
    # the scale the Lorentz check keeps
    s = reference_regular(2, 1)
    entries, pts = orbit(s, 9)
    assert len(entries) == 1 + 3 * (2 ** 9 - 1)
    J = minkowski_matrix(2)
    level = entries[-3 * 2 ** 8:]
    assert {len(word.letters) for word, _ in level} == {9}
    for word, child in level:
        M = word.resolved.matrix
        scale = max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(M.T @ J @ M - J)) <= 1e-13 * scale ** 2
        assert word.resolved.sign == -1
        assert child.orientation == -1
        assert is_regular(child.base.vertices, 1e-8)


def test_density_probe_trivial_targets():
    from hyprig.hypcore import identity_isometry

    word, d = density_probe(4, identity_isometry(4), 0)
    assert word == () and d == 0.0
    s = reference_regular(4, 1)
    r = face_reflections(s)[2]
    word, d = density_probe(4, r, 1)
    assert word == (2,) and d < 1e-12


def test_density_probe_monotone():
    rng = np.random.default_rng(101)
    for _ in range(5):
        target = random_isometry(rng, 4, max_translation=0.5)
        _, d1 = density_probe(4, target, 1)
        _, d3 = density_probe(4, target, 3)
        assert d3 <= d1 + 1e-12


def test_reflection_walk_n2_depth_16_stays_lorentz_at_its_scale():
    # entries reach 2.6e6 at 16 letters, where the form defect is rounded
    # at about eps max|G|^2; measured against that scale it stays at
    # rounding on every level.  The Lorentz check must leave such rows
    # alone: a repair there would move them by about the absolute defect
    # times max|G|, so at 8 and 16 letters the matrices stay within 1e-13
    # of the letters' products taken without repair, in floats on the
    # whole level and in 40 digits on a sample with its worst row
    s = reference_regular(2, 1)
    R = np.array([r.matrix for r in face_reflections(s)])
    J = minkowski_matrix(2)
    rng = np.random.default_rng(16)
    for letters, G, _, _ in reflection_walk(s, face_reflections(s), 16):
        scale = np.maximum(1.0, np.abs(G).max(axis=(1, 2)))
        defect = np.abs(np.swapaxes(G, 1, 2) @ J @ G - J).max(axis=(1, 2))
        assert (defect / scale ** 2).max() <= 1e-13
        if letters.shape[1] not in (8, 16):
            continue
        P = np.broadcast_to(np.eye(3), G.shape)
        for column in letters.T:
            P = P @ R[column]
        assert (np.abs(G - P).max(axis=(1, 2)) / scale).max() <= 1e-13
        sample = np.append(rng.choice(len(G), 8, replace=False),
                           np.argmax(defect))
        with mpmath.workdps(40):
            Rm = [mpmath.matrix(r.tolist()) for r in R]
            for k in sample:
                exact = mpmath.eye(3)
                for a in letters[k]:
                    exact = exact * Rm[a]
                exact = np.array(exact.tolist(), dtype=float)
                assert np.abs(G[k] - exact).max() <= 1e-13 * scale[k]
    assert letters.shape == (3 * 2 ** 15, 16) and np.abs(G).max() > 1e6


def _density_probe_by_orbit(entries, target):
    """density_probe as a loop over orbit's entries: the reference for
    the scan of the walk's matrices."""
    best = None
    best_d = np.inf
    for word, _ in entries:
        d = float(np.max(np.abs(word.resolved.matrix - target.matrix)))
        if d < best_d - 1e-15:
            best_d = d
            best = word.letters
    return best, best_d


@pytest.mark.parametrize("n", (2, 3, 4))
def test_density_probe_matches_orbit_loop(n):
    # the orbit of depth 5 lists every shorter orbit as its prefix
    entries, _ = orbit(reference_regular(n, 1), 5)
    rng = np.random.default_rng(110 + n)
    targets = [random_isometry(rng, n, max_translation=0.5) for _ in range(20)]
    # words as targets, where distinct words give the same matrix to
    # rounding and the 1e-15 margin decides
    targets += [entries[k][0].resolved for k in rng.integers(len(entries), size=5)]
    for target in targets:
        for depth in range(6):
            got = density_probe(n, target, depth)
            assert got == _density_probe_by_orbit(
                entries[:walk_size(n, depth)], target)
            assert type(got[1]) is float
