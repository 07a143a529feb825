"""Concrete finite-covolume lattices and Haar sampling on the quotient.

A preset ships a lattice as data: generator matrices, relator words, an
ideal triangulation of a fundamental domain (every cell with one vertex
at the cusp point at infinity, so the half-space picture has analytic
vertical integrals) and cusp floors.  Nothing in the file is trusted:
relators, face gluings and cell volumes are verified at load time.

Sampling of the invariant probability measure on the quotient uses the
decomposition of an isometry into (base point, frame): base points are
importance-sampled in the truncated fundamental domain against the
volume form, frames are Haar-uniform in O(n), and each sample carries a
density-ratio weight whose batch average is the truncated mass.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import BadTruncation, PresetCorrupt, UnknownPreset
from .hypcore import (
    IdealPoint,
    Isometry,
    act_ideal,
    identity_isometry,
    make_isometry,
)
from .volcocycle import v_n, vol

RELATOR_TOL = 1e-8
GLUING_TOL = 1e-8
POLE_TOL = 1e-9
PRESET_DIR_ENV = "HYPRIG_PRESET_DIR"
DEFAULT_BIAS_TARGET = 1e-3


@dataclass(frozen=True)
class _CellChart:
    """Half-space geometry of one cell: base simplex, circumsphere, areas."""

    base: np.ndarray       # (n, n-1) chart coordinates of non-pole vertices
    center: np.ndarray
    radius: float
    area: float            # Euclidean volume of the base simplex
    volume: float          # hyperbolic volume of the full cell


@dataclass(frozen=True)
class _Charts:
    """The cell charts stacked into arrays, one row per cell; indexing
    gives one cell's chart."""

    base: np.ndarray       # (C, n, n-1)
    center: np.ndarray     # (C, n-1)
    radius: np.ndarray     # (C,)
    area: np.ndarray       # (C,)
    volume: np.ndarray     # (C,)

    @classmethod
    def stack(cls, charts):
        return cls(*(np.array([getattr(ch, f) for ch in charts])
                     for f in ("base", "center", "radius", "area", "volume")))

    def __getitem__(self, i) -> _CellChart:
        return _CellChart(self.base[i], self.center[i], float(self.radius[i]),
                          float(self.area[i]), float(self.volume[i]))


@dataclass(frozen=True)
class LatticePreset:
    name: str
    n: int
    generators: tuple
    relators: tuple
    cells: tuple           # of tuples of IdealPoint
    face_pairings: tuple
    cusp_floor: float
    charts: _Charts
    covolume: float


@dataclass(frozen=True)
class HaarSample:
    g: Isometry
    weight: float
    cell: int


@dataclass(frozen=True)
class HaarBatch:
    """N weighted samples of the invariant measure, stored as arrays.

    ``matrices`` (N, n+1, n+1) are the Lorentz matrices of the sampled
    isometries, ``signs`` their orientation characters, ``weights`` the
    density ratios and ``cells`` the cells of the base points.  Indexing
    or iterating builds one :class:`HaarSample` at a time."""

    matrices: np.ndarray
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


def _resolve_word(generators, word) -> Isometry:
    n = generators[0].n
    g = identity_isometry(n)
    for letter in word:
        if letter == 0 or abs(letter) > len(generators):
            raise PresetCorrupt(f"bad generator index {letter}")
        gen = generators[abs(letter) - 1]
        g = g @ (gen if letter > 0 else gen.inverse())
    return g


def _chart_cell(points):
    """Project a cell with a vertex at the pole to its half-space base."""
    n = points[0].n
    pole = np.zeros(n)
    pole[-1] = 1.0
    apex = [i for i, p in enumerate(points)
            if np.linalg.norm(p.coords - pole) < POLE_TOL]
    if len(apex) != 1:
        raise PresetCorrupt("each cell needs exactly one vertex at the cusp "
                            "point at infinity")
    base = []
    for i, p in enumerate(points):
        if i != apex[0]:
            c = p.coords
            base.append(c[:-1] / (1.0 - c[-1]))
    W = np.array(base)
    A = 2.0 * (W[1:] - W[0])
    b = np.sum(W[1:] ** 2, axis=1) - np.sum(W[0] ** 2)
    center = np.linalg.solve(A, b)
    radius = float(np.linalg.norm(W[0] - center))
    d = n - 1
    area = abs(np.linalg.det((W[1:] - W[0]).T)) / math.factorial(d) \
        if d > 1 else abs(W[1, 0] - W[0, 0])
    volume = abs(vol(points, tol=1e-9).value)
    return _CellChart(W, center, radius, area, volume)


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
        floor = max(float(c["floor_height"]) for c in raw["cusps"])
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

    charts = _Charts.stack([_chart_cell(list(cell)) for cell in cells])
    covol = float(charts.volume.sum())
    if not np.isfinite(covol) or covol <= 0:
        raise PresetCorrupt("covolume is not finite positive")
    if np.any(charts.volume > v_n(n) + 1e-9):
        raise PresetCorrupt("cell volume exceeds the regular ideal bound")

    return LatticePreset(name=str(raw["name"]), n=n, generators=generators,
                         relators=relators, cells=cells, face_pairings=pairings,
                         cusp_floor=floor, charts=charts, covolume=covol)


def covolume(preset: LatticePreset) -> float:
    """Total volume of the fundamental domain: sum of |Vol_n| over cells,
    as verified by load_preset."""
    return preset.covolume


def truncation_error_bound(preset: LatticePreset, T: float) -> float:
    """Bias bound for estimates on the T-truncated domain.

    The cusp volume above height T is sum_cells area/((n-1) T^{n-1}),
    analytic in half-space; since every integrand of interest is bounded
    by v_n, the bias is at most v_n times the missing mass fraction.
    """
    n = preset.n
    removed = preset.charts.area.sum() / ((n - 1) * T ** (n - 1))
    return float(v_n(n) * removed / preset.covolume)


def default_truncation(preset: LatticePreset,
                       bias: float = DEFAULT_BIAS_TARGET) -> float:
    """Smallest truncation height with truncation_error_bound <= bias."""
    n = preset.n
    total_area = preset.charts.area.sum()
    T = (v_n(n) * total_area / ((n - 1) * preset.covolume * bias)) ** (1.0 / (n - 1))
    return float(max(T, preset.cusp_floor * 1.01))


def sample_haar(preset: LatticePreset, seed, N: int, T: float = None,
                stream: int = None) -> HaarBatch:
    """Draw N weighted samples of the invariant measure on the quotient.

    Each sample is g = (transvection to a base point) o (frame rotation):
    the base point is drawn in the T-truncated fundamental domain by
    importance sampling (uniform over the cell base, analytic t^{-n}
    height marginal), the frame is Haar-uniform in O(n).  The weight is
    the density ratio, so weighted averages estimate integrals against
    the invariant probability measure up to the truncation bias.

    All N samples are drawn at once, in this order: the cells, the
    barycentric coordinates on the cell bases, the height quantiles and
    the Gaussian frames.  Identical (seed, stream) pairs give identical
    batches; distinct streams spawned from one seed are independent.
    """
    n = preset.n
    if T is None:
        T = default_truncation(preset)
    if T <= preset.cusp_floor:
        raise BadTruncation(
            f"T = {T} is not above the cusp floor {preset.cusp_floor}")

    # stream k is child k of SeedSequence(seed).spawn(), made directly
    ss = np.random.SeedSequence(seed, spawn_key=() if stream is None
                                else (stream,))
    rng = np.random.default_rng(ss)

    d = n - 1
    ch = preset.charts
    trunc_vols = ch.volume - ch.area / (d * T ** d)
    if np.any(trunc_vols <= 0):
        raise BadTruncation("truncation leaves an empty cell")
    p_cell = trunc_vols / trunc_vols.sum()

    cells = rng.choice(len(p_cell), size=N, p=p_cell)
    lam = rng.dirichlet(np.ones(d + 1), size=N)
    u = rng.uniform(size=N)
    gauss = rng.standard_normal((N, n, n))

    # base point: uniform foot x on the cell base, height t in [h, T]
    # with density proportional to t^{-n}, h the floor sphere above x
    x = np.einsum("ij,ijk->ik", lam, ch.base[cells])
    off = x - ch.center[cells]
    h2 = np.maximum(ch.radius[cells] ** 2 - np.einsum("ij,ij->i", off, off),
                    1e-300)
    h = np.minimum(np.sqrt(h2), T)
    t = (h ** (-d) - u * (h ** (-d) - T ** (-d))) ** (-1.0 / d)
    intensity = (h ** (-d) - T ** (-d)) / d
    weights = ch.area[cells] * intensity / (preset.covolume * p_cell[cells])

    # half-space (x, t) on the hyperboloid, in closed form:
    # (x/t, (s-1)/(2t), (s+1)/(2t)) with s = |x|^2 + t^2
    s = np.einsum("ij,ij->i", x, x) + t * t
    y = np.concatenate([x / t[:, None], ((s - 1.0) / (2.0 * t))[:, None]],
                       axis=1)
    y0 = (s + 1.0) / (2.0 * t)

    # Haar frames: QR of Gaussian matrices, column signs fixed by diag(R)
    Q, R = np.linalg.qr(gauss)
    frames = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]

    # g = [[I + y y^T/(1+y0), y], [y^T, y0]] @ diag(frame, 1): the
    # transvection carrying the basepoint to (y, y0) after the rotation
    yR = np.einsum("ij,ijk->ik", y, frames)
    M = np.empty((N, n + 1, n + 1))
    M[:, :n, :n] = frames + y[:, :, None] * yR[:, None, :] / (1.0 + y0)[:, None, None]
    M[:, :n, n] = y
    M[:, n, :n] = yR
    M[:, n, n] = y0
    signs = np.where(np.linalg.det(frames) > 0, 1, -1)
    return HaarBatch(matrices=M, signs=signs, weights=weights, cells=cells)
