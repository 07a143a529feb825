"""Regular ideal simplices and their face-reflection orbits.

The reference regular simplex has the vertices of a regular Euclidean
n-simplex inscribed in the boundary sphere, first vertex at e_1.  The
group generated by reflections in its faces tiles H^3 and is dense in the
isometry group for n >= 4.  `reflection_walk` enumerates reflection words
breadth first as products of the root's face reflections (the reflection
in face i of g.s is g r_i g^-1).  Letter i moves vertex i alone, so the
walk computes only the one vertex each word moves, and gives every
image simplex as a row of indices into one vertex list.  `orbit` and
`rigidity.reconstruct_isometry` walk it; `reference_vertices` caches the
vertices of the reference simplex and `reference_flat_walk` its walk
flattened into one vertex list, which `rigidity.consensus` moves onto
each seed g.ref, since the walk of g.ref is g applied to it letter for
letter.  A walk grows n-fold per letter, so each is held to
MAX_WALK_SIZE simplices by default (`walk_size` counts them) and refuses
a deeper one with BudgetExceeded before it starts.  `density_probe`
measures how well the words approximate a target, scanning the walk's
matrices level by level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DegenerateFace
from .hypcore import (
    IdealPoint,
    Isometry,
    _lorentz_stack,
    act_ideal_many,
    hyperplane_through,
    identity_isometry,
    reflect_in,
)
from .volcocycle import IdealSimplex, orientation_sign

DEDUP_GRID = 1e-7
DEDUP_RECHECK = 1e-9
REORTH_EVERY = 8
MAX_WALK_SIZE = 200_000  # simplices in a walk, the root included


@dataclass(frozen=True)
class RegularSimplex:
    base: IdealSimplex
    orientation: int


@dataclass(frozen=True)
class ReflectionWord:
    letters: tuple
    resolved: Isometry


def reference_regular(n: int, orientation: int = 1) -> RegularSimplex:
    """The regular ideal n-simplex with first vertex e_1.

    Vertices are the regular Euclidean simplex inscribed in S^{n-1}
    (pairwise dot products -1/n), rotated deterministically so the first
    vertex is e_1; the requested orientation is arranged by swapping the
    last two vertices if needed.
    """
    # Project the n+1 standard basis vectors of R^{n+1} onto the
    # complement of (1, ..., 1) and normalize: a regular simplex.
    E = np.eye(n + 1) - np.full((n + 1, n + 1), 1.0 / (n + 1))
    # Deterministic orthonormal basis of the complement via QR of the
    # first n projected vectors.
    Q, _ = np.linalg.qr(E[:, :n])
    verts = (E.T @ Q)
    verts = verts / np.linalg.norm(verts, axis=1)[:, None]
    # Householder map sending the first vertex to e_1.
    e1 = np.eye(n)[0]
    v = verts[0] - e1
    if np.linalg.norm(v) > 1e-13:
        v = v / np.linalg.norm(v)
        verts = verts - 2.0 * np.outer(verts @ v, v)
    points = [IdealPoint(p / np.linalg.norm(p)) for p in verts]
    if orientation_sign(points) != orientation:
        points[-1], points[-2] = points[-2], points[-1]
    return RegularSimplex(IdealSimplex(tuple(points)), orientation)


def face_reflections(s: RegularSimplex):
    """Reflections in the n+1 face hyperplanes; entry i omits vertex i."""
    verts = list(s.base.vertices)
    out = []
    for i in range(len(verts)):
        face = [v for j, v in enumerate(verts) if j != i]
        try:
            h = hyperplane_through(face)
        except Exception as exc:
            raise DegenerateFace(f"face {i} does not span a hyperplane") from exc
        out.append(reflect_in(h))
    return out


def walk_size(n: int, depth: int) -> int:
    """Simplices in a reflection walk of depth letters in H^n, the root
    included: n+1 words of length 1, each growing n-fold per letter."""
    return 1 + sum((n + 1) * n ** k for k in range(depth))


def reflection_walk(s: RegularSimplex, reflections, depth: int,
                    max_size: int = MAX_WALK_SIZE):
    """Breadth-first reflection words of s, given its face reflections.

    Yields for each length L = 1..depth the letters (K, L), by parent and
    then new letter, which never repeats the last one; the matrices
    (K, n+1, n+1), Lorentz-checked every REORTH_EVERY letters; and the
    images of s as rows of the walk's vertex list: index (K, n+1) and the
    fresh vertices (K, n) the level adds to the list.  The list is the
    n+1 vertices of s, then every level's fresh vertices in order, so the
    vertices of the images are vertices[index].  Letter i moves vertex i
    alone: a child's one fresh vertex is G X_i, and its index row is its
    parent's with entry i replaced by the fresh vertex's row.  The walk
    grows n-fold per letter; before its first level it raises
    BudgetExceeded if it would hold more than max_size simplices, s
    included.
    """
    if walk_size(len(reflections) - 1, depth) > max_size:
        raise BudgetExceeded(f"walk would exceed {max_size} simplices")
    R = np.array([r.matrix for r in reflections])
    X = np.array([v.coords for v in s.base.vertices])
    letters = np.zeros((1, 0), dtype=np.int64)
    last = np.array([-1])
    G = np.eye(len(R))[None]
    index = np.arange(len(R))[None]
    rows = len(R)
    for length in range(1, depth + 1):
        parent, last = np.nonzero(np.arange(len(R)) != last[:, None])
        letters = np.concatenate([letters[parent], last[:, None]], axis=1)
        G = G[parent] @ R[last]
        if length % REORTH_EVERY == 0:
            G = _lorentz_stack(G)[0]
        index = index[parent]
        index[np.arange(len(last)), last] = rows + np.arange(len(last))
        rows += len(last)
        yield letters, G, index, act_ideal_many(G, X[last, None])[:, 0]


@functools.cache
def reference_vertices(n: int) -> np.ndarray:
    """The vertices (n+1, n) of reference_regular(n, 1), read-only;
    computed on the first call for each n."""
    X = np.array([v.coords for v in reference_regular(n, 1).base.vertices])
    X.setflags(write=False)
    return X


def flat_walk(n, walk):
    """The levels of a `reflection_walk` as one: the fresh vertices (F, n)
    in breadth-first order, and the index rows (1+F, n+1) and parities
    (-1)^L (1+F,) of its simplices, the root first, into the root's n+1
    vertices followed by the fresh ones.  Each level's matrices are
    dropped as it is read."""
    root = (np.zeros((1, 0), dtype=np.int64), np.arange(n + 1)[None],
            np.empty((0, n)))
    letters, index, fresh = zip(root, *((w, i, f) for w, _, i, f in walk))
    parity = np.concatenate([np.full(len(w), (-1) ** w.shape[1])
                             for w in letters])
    return np.concatenate(fresh), np.concatenate(index), parity


@functools.cache
def reference_flat_walk(n: int, depth: int):
    """`reflection_walk` of reference_regular(n, 1) to the given depth as
    `flat_walk` gives it, (fresh, index, parity), read-only; its vertex
    list starts with `reference_vertices(n)`.  Walked and flattened once,
    on the first call for each (n, depth)."""
    ref = reference_regular(n, 1)
    flat = flat_walk(n, reflection_walk(ref, face_reflections(ref), depth))
    for a in flat:
        a.setflags(write=False)
    return flat


def _grid_key(coords):
    return tuple(np.round(coords / DEDUP_GRID).astype(np.int64))


class _VertexSet:
    """Tolerance-grid deduplicated point set on the sphere."""

    def __init__(self):
        self._buckets: dict = {}
        self.points: list = []

    def add(self, coords) -> bool:
        key = _grid_key(coords)
        for nb in self._neighbors(key):
            for idx in self._buckets.get(nb, ()):
                if np.max(np.abs(self.points[idx] - coords)) < DEDUP_RECHECK:
                    return False
        self.points.append(np.asarray(coords, dtype=float))
        self._buckets.setdefault(key, []).append(len(self.points) - 1)
        return True

    @staticmethod
    def _neighbors(key):
        # The recheck radius is far below the grid pitch, so only the
        # cell and its face neighbors can collide.
        yield key
        for j in range(len(key)):
            for dlt in (-1, 1):
                yield key[:j] + (key[j] + dlt,) + key[j + 1:]


def orbit(s: RegularSimplex, depth: int, max_size: int = MAX_WALK_SIZE):
    """Breadth-first reflection orbit of a regular simplex.

    Returns (entries, vertex_points): entries are (ReflectionWord,
    RegularSimplex) pairs including the root with the empty word, and
    vertex_points is the deduplicated array of all orbit vertices.
    Raises BudgetExceeded if the orbit has more than max_size simplices.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = s.base.n
    entries = [(ReflectionWord((), identity_isometry(n)), s)]
    points = [np.array([v.coords for v in s.base.vertices])]
    vertices = _VertexSet()
    for v in points[0]:
        vertices.add(v)
    for letters, G, index, fresh in reflection_walk(
            s, face_reflections(s), depth, max_size):
        points.append(fresh)
        V = np.concatenate(points)[index]
        sign = (-1) ** letters.shape[1]
        for word, g, verts, new in zip(letters.tolist(), G, V, fresh):
            vertices.add(new)
            child = IdealSimplex(tuple(IdealPoint(v) for v in verts))
            entries.append((ReflectionWord(tuple(word), Isometry(g, sign)),
                            RegularSimplex(child, sign * s.orientation)))
    return entries, np.array(vertices.points)


def density_probe(n: int, target: Isometry, depth: int,
                  max_size: int = MAX_WALK_SIZE):
    """Best approximation of a target isometry by reflection words.

    Scans the matrices of the reference regular simplex's reflection walk
    to the given depth and returns (letters, distance) minimizing the
    max-abs matrix distance: the first word in breadth-first order, the
    empty word first, that beats the choice so far by more than 1e-15.
    The minimum is non-increasing in depth.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    s = reference_regular(n, 1)
    best, best_d = (), float(np.max(np.abs(np.eye(n + 1) - target.matrix)))
    for letters, G, _, _ in reflection_walk(s, face_reflections(s), depth,
                                            max_size):
        d = np.max(np.abs(G - target.matrix), axis=(-2, -1))
        # a winner lies below every earlier distance: only records can win
        prior = np.minimum.accumulate(np.concatenate([[best_d], d[:-1]]))
        for k in np.flatnonzero(d < prior):
            if d[k] < best_d - 1e-15:
                best, best_d = tuple(letters[k].tolist()), float(d[k])
    return best, best_d
