"""Concrete finite-covolume lattices and Haar sampling on the quotient.

A preset ships a lattice as data: generator matrices, relator words, an
ideal triangulation of a fundamental domain (every cell with one vertex
at the cusp point at infinity, so the half-space picture has analytic
vertical integrals).  Nothing in the file is trusted: relators, face
gluings and cell volumes are verified at load time.

Sampling of the invariant probability measure on the quotient uses the
decomposition of an isometry into (base point, frame): base points are
importance-sampled in the fundamental domain, cusp included, against the
volume form, frames are Haar-uniform in O(n), and each sample carries a
density-ratio weight whose batch average is 1.  The samples are kept as
(base point, frame), and act on ideal points without a matrix.  The
cells are drawn by inverse CDF and the feet as normalised exponential
spacings, the very draws of Generator.choice and Generator.dirichlet;
the frames are the Gram-Schmidt orthonormalisations of Gaussian
matrices by `hypcore.gram_schmidt` (Mezzadri, Notices AMS 54, 2007).
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import PresetCorrupt, UnknownPreset
from .hypcore import (
    IdealPoint,
    Isometry,
    _frame_signs,
    act_ideal,
    gram_schmidt,
    halfspace_chart,
    halfspace_to_hyperboloid,
    identity_isometry,
    make_isometry,
    transvection_frames,
)
from .volcocycle import v_n, vol

RELATOR_TOL = 1e-8
GLUING_TOL = 1e-8
POLE_TOL = 1e-9
PRESET_DIR_ENV = "HYPRIG_PRESET_DIR"


@dataclass(frozen=True)
class _Charts:
    """The half-space geometry of the cells, one row per cell."""

    base: np.ndarray       # (C, n, n-1) chart coordinates of non-pole vertices
    center: np.ndarray     # (C, n-1) circumcenter of the base
    radius: np.ndarray     # (C,) circumradius of the base
    area: np.ndarray       # (C,) Euclidean volume of the base simplex
    volume: np.ndarray     # (C,) hyperbolic volume of the full cell


@dataclass(frozen=True)
class LatticePreset:
    name: str
    n: int
    generators: tuple
    relators: tuple
    cells: tuple           # of tuples of IdealPoint
    face_pairings: tuple
    charts: _Charts
    covolume: float        # sum of |Vol_n| over the cells


@dataclass(frozen=True)
class HaarSample:
    g: Isometry
    weight: float
    cell: int


@dataclass(frozen=True)
class HaarBatch:
    """N weighted samples of the invariant measure, stored as drawn.

    Sample i is the isometry g = (transvection to a base point) o
    (frame rotation): ``points`` (N, n+1) are the base points (y, y0) on
    the hyperboloid and ``frames`` (N, n, n) the rotations in O(n);
    ``signs`` are the orientation characters, ``weights`` the density
    ratios and ``cells`` the cells of the base points.  `act_ideal`
    moves ideal points by the samples without forming a matrix;
    ``matrices`` forms the (N, n+1, n+1) Lorentz matrices once, on first
    use.  Indexing or iterating builds one :class:`HaarSample` at a time
    from them."""

    points: np.ndarray
    frames: np.ndarray
    signs: np.ndarray
    weights: np.ndarray
    cells: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> HaarSample:
        return HaarSample(Isometry(self.matrices[i], int(self.signs[i])),
                          float(self.weights[i]), int(self.cells[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    # g = [[I + y y^T/(1+y0), y], [y^T, y0]] @ diag(R, 1): the transvection
    # carrying the basepoint to (y, y0), after the frame rotation R.
    # `matrices` writes it out by `transvection_frames`, the formula
    # `random_isometries` also uses, and `act_ideal` applies it to null
    # lifts.

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        """The Lorentz matrices (N, n+1, n+1) of the samples."""
        return transvection_frames(self.points, self.frames)

    def act_ideal(self, X) -> np.ndarray:
        """Ideal points X (k, m, n) moved by the samples, as unit vectors
        (N, m, n): the N rows split into k equal blocks in order (the
        streams of a stacked batch), and each sample of block i moves the
        m points X[i].

        With eta = R xi, g (xi, 1) is (eta + y ((y.eta)/(1+y0) + 1),
        y.eta + y0), whose last entry is positive, so its first n entries
        normalised are the image; y.eta is taken as (R^T y).xi.  Each
        block's rotations act on its points in one matrix product."""
        k, m, n = X.shape
        XT = np.swapaxes(X, -1, -2)
        y = self.points[:, :n]
        # eta[i, s, :, a] = R xi_a for sample s of block i
        eta = np.matmul(self.frames.reshape(k, -1, n), XT).reshape(k, -1, n, m)
        yR = np.einsum("ij,ijk->ik", y, self.frames)   # R^T y
        s = np.matmul(yR.reshape(k, -1, n), XT)
        c = s / (1.0 + self.points[:, n]).reshape(k, -1, 1) + 1.0
        V = eta + c[:, :, None, :] * y.reshape(k, -1, n, 1)
        V /= np.sqrt(np.einsum("...ia,...ia->...a", V, V))[..., None, :]
        return np.swapaxes(V, -1, -2).reshape(-1, m, n)


def _resolve_word(generators, word) -> Isometry:
    n = generators[0].n
    g = identity_isometry(n)
    for letter in word:
        if letter == 0 or abs(letter) > len(generators):
            raise PresetCorrupt(f"bad generator index {letter}")
        gen = generators[abs(letter) - 1]
        g = g @ (gen if letter > 0 else gen.inverse())
    return g


def _circumsphere(W):
    """Center and radius of the sphere through d+1 points of R^d."""
    A = 2.0 * (W[1:] - W[0])
    b = np.sum(W[1:] ** 2, axis=1) - np.sum(W[0] ** 2)
    c = np.linalg.solve(A, b)
    r = float(np.linalg.norm(W[0] - c))
    return c, r


def _chart_cell(points):
    """Project a cell with a vertex at the pole to its half-space base:
    the `_Charts` fields of the cell, base, center, radius, area and
    volume."""
    n = points[0].n
    pole = np.zeros(n)
    pole[-1] = 1.0
    apex = [i for i, p in enumerate(points)
            if np.linalg.norm(p.coords - pole) < POLE_TOL]
    if len(apex) != 1:
        raise PresetCorrupt("each cell needs exactly one vertex at the cusp "
                            "point at infinity")
    W = halfspace_chart(np.array([p.coords for i, p in enumerate(points)
                                  if i != apex[0]]))
    center, radius = _circumsphere(W)
    d = n - 1
    area = abs(np.linalg.det((W[1:] - W[0]).T)) / math.factorial(d) \
        if d > 1 else abs(W[1, 0] - W[0, 0])
    volume = abs(vol(points, tol=1e-9).value)
    return W, center, radius, area, volume


def _search_path():
    """Preset directories in search order: the override, then the
    packaged presets."""
    packaged = resources.files("hyprig") / "presets"
    override = os.environ.get(PRESET_DIR_ENV)
    return [Path(override), packaged] if override else [packaged]


def _preset_path(name: str) -> str:
    for d in _search_path():
        cand = d / f"{name}.json"
        if cand.is_file():
            return str(cand)
    raise UnknownPreset(f"no preset named {name!r}")


def preset_names() -> list:
    """Names of the presets on the search path, override directory first;
    a name is listed once, as the first directory that has it."""
    names = []
    for d in _search_path():
        if d.is_dir():
            names += sorted(f.name.removesuffix(".json") for f in d.iterdir()
                            if f.name.endswith(".json"))
    return list(dict.fromkeys(names))


def load_preset(name: str) -> LatticePreset:
    """Load and verify a lattice preset.

    Verification is mandatory: relators must resolve to the identity at
    1e-8, each face pairing must carry its source face onto its target
    face at 1e-8, and the covolume must come out finite and positive.
    """
    path = _preset_path(name)
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise PresetCorrupt(f"cannot read preset {name!r}: {exc}") from exc

    try:
        n = int(raw["n"])
        generators = tuple(make_isometry(np.asarray(m, dtype=float))
                           for m in raw["generators"])
        cells = tuple(tuple(IdealPoint(np.asarray(v, dtype=float)) for v in cell)
                      for cell in raw["cells"])
        relators = tuple(tuple(wd) for wd in raw.get("relators", ()))
        pairings = tuple(raw.get("face_pairings", ()))
    except Exception as exc:
        raise PresetCorrupt(f"malformed preset {name!r}: {exc}") from exc

    for g in generators:
        if g.sign != 1:
            raise PresetCorrupt("generators must preserve orientation")
    for wd in relators:
        r = _resolve_word(generators, wd)
        if np.max(np.abs(r.matrix - np.eye(n + 1))) > RELATOR_TOL:
            raise PresetCorrupt(f"relator {wd} does not resolve to identity")

    for pr in pairings:
        src = cells[pr["cell"]]
        tgt = cells[pr["target_cell"]]
        sface = [v for i, v in enumerate(src) if i != pr["face"]]
        tface = [v for i, v in enumerate(tgt) if i != pr["target_face"]]
        g = _resolve_word(generators, pr["word"])
        for v in sface:
            img = act_ideal(g, v).coords
            if min(np.max(np.abs(img - u.coords)) for u in tface) > GLUING_TOL:
                raise PresetCorrupt(
                    f"face pairing {pr} does not glue (vertex mismatch)")

    charts = _Charts(*map(np.array, zip(*(_chart_cell(list(cell))
                                          for cell in cells))))
    covol = float(charts.volume.sum())
    if not np.isfinite(covol) or covol <= 0:
        raise PresetCorrupt("covolume is not finite positive")
    if np.any(charts.volume > v_n(n) + 1e-9):
        raise PresetCorrupt("cell volume exceeds the regular ideal bound")

    return LatticePreset(name=str(raw["name"]), n=n, generators=generators,
                         relators=relators, cells=cells, face_pairings=pairings,
                         charts=charts, covolume=covol)


def sample_haar(preset: LatticePreset, seed, N: int,
                stream=None) -> HaarBatch:
    """Draw N weighted samples of the invariant measure on the quotient.

    Each sample is g = (transvection to a base point) o (frame rotation):
    the base point is drawn in the fundamental domain by importance
    sampling (a cell by its share of the covolume, a foot uniform on the
    cell base, and the analytic t^{-n} height marginal up to infinity),
    the frame is Haar-uniform in O(n).  The weight is the density ratio,
    so weighted averages estimate integrals against the invariant
    probability measure.  The batch keeps each sample as its base point
    and frame; no isometry matrix is formed unless ``matrices`` is read.

    ``(seed, stream)`` names one random stream: ``stream=None`` is the
    root ``SeedSequence(seed)``, an integer k is its child k (the one
    ``SeedSequence(seed).spawn()`` gives k-th).  A stream's N samples
    are drawn at once, in this order: the cell uniforms, the exponential
    spacings of the barycentric coordinates on the cell bases, the height
    quantiles and the Gaussian frames.  Identical (seed, stream) pairs
    give identical batches; distinct streams spawned from one seed are
    independent.

    ``stream`` may also be a sequence of stream ids.  Each id's N
    samples are drawn as above into one stream-major stack of
    len(stream) * N rows, equal bit for bit to concatenating the
    single-stream batches; everything after the draws, cells and
    Dirichlet normalisation included, runs once on all rows.
    """
    n = preset.n
    d = n - 1
    ch = preset.charts
    streams = [stream] if stream is None or np.ndim(stream) == 0 else stream
    K = len(streams)
    # random() and the out= forms give uniform(size=N) and the sized
    # draws' numbers bit for bit
    u_cell, u = np.empty((K, N)), np.empty((K, N))
    E = np.empty((K, N, d + 1))
    gauss = np.empty((K, N, n, n))
    for i, k in enumerate(streams):
        # stream k is child k of SeedSequence(seed).spawn(), made directly
        rng = np.random.default_rng(np.random.SeedSequence(
            seed, spawn_key=() if k is None else (k,)))
        rng.random(out=u_cell[i])
        rng.standard_exponential(out=E[i])
        rng.random(out=u[i])
        rng.standard_normal(out=gauss[i])
    N *= K
    # the cells by inverse CDF, as Generator.choice(p=p_cell) draws them
    cdf = (ch.volume / preset.covolume).cumsum()
    cdf /= cdf[-1]
    cells = cdf.searchsorted(u_cell.reshape(N), side="right")
    # the feet's barycentric coordinates as normalised exponential
    # spacings, as Generator.dirichlet(np.ones(d + 1)) draws them
    E = E.reshape(N, d + 1)
    lam = E * (1.0 / E.sum(axis=1, keepdims=True))

    # base point: uniform foot x on the cell base, height t in [h, oo)
    # with density proportional to t^{-n}, h the floor sphere above x;
    # 1 - u > 0, so t is finite
    x = np.einsum("ij,ijk->ik", lam, ch.base[cells])
    off = x - ch.center[cells]
    h2 = np.maximum(ch.radius[cells] ** 2 - np.einsum("ij,ij->i", off, off),
                    1e-300)
    h = np.sqrt(h2)
    t = h * (1.0 - u.reshape(N)) ** (-1.0 / d)
    # the density ratio: h^{-d}/d is the volume of the column over the
    # foot, and volume/area the cell's mean column
    weights = ch.area[cells] * h ** (-d) / (d * ch.volume[cells])

    frames = gram_schmidt(gauss.reshape(N, n, n))
    return HaarBatch(points=halfspace_to_hyperboloid(x, t), frames=frames,
                     signs=_frame_signs(frames), weights=weights, cells=cells)
