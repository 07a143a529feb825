"""Atomic measures on the boundary sphere and evaluatable boundary maps.

The measure side carries the two tools of the atom/no-atom case split:
`dominant_atom` reports a unique atom of mass at least 1/2 when there is
one, and `conformal_barycenter` solves the Douady-Earle vector-field
equation when there is none.  The map side packages the boundary maps the
smearing and rigidity machinery consumes: planted isometries, smooth
seeded perturbations of them, tabulated samples and constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DominantAtom,
    NoConvergence,
    OutOfModel,
    OutOfTable,
)
from .hypcore import (
    IdealPoint,
    Isometry,
    SpacePoint,
    act_ideal,
    act_ideal_many,
    convert,
    make_isometry,
    translation_to,
)

MEASURE_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryMeasure:
    """A finite atomic probability measure on the boundary sphere."""

    atoms: tuple  # of (IdealPoint, weight)

    def __post_init__(self):
        atoms = tuple((p, float(w)) for p, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > MEASURE_TOL:
            raise OutOfModel(f"weights sum to {total}, not 1")
        if any(w < 0 for _, w in atoms):
            raise OutOfModel("negative atom weight")
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                if np.linalg.norm(atoms[i][0].coords - atoms[j][0].coords) < MEASURE_TOL:
                    raise OutOfModel("coincident atoms")

    @property
    def n(self) -> int:
        return self.atoms[0][0].n


def push_forward(g: Isometry, mu: BoundaryMeasure) -> BoundaryMeasure:
    return BoundaryMeasure(tuple((act_ideal(g, p), w) for p, w in mu.atoms))


def dominant_atom(mu: BoundaryMeasure):
    """The unique atom of mass >= 1/2, or None.

    Two atoms of mass exactly 1/2 tie, so neither dominates."""
    heavy = [p for p, w in mu.atoms if w >= 0.5]
    if len(heavy) == 1:
        return heavy[0]
    return None


def _gamma_field(mu: BoundaryMeasure, x: np.ndarray) -> np.ndarray:
    """The conformal vector field V(x) = sum w_i gamma_x(xi_i) in ball
    coordinates, gamma_x the canonical Moebius map taking x to the
    origin."""
    n = mu.n
    hx = SpacePoint(convert(x, "poincare", "hyperboloid"))
    ginv = translation_to(hx).inverse()
    out = np.zeros(n)
    for p, w in mu.atoms:
        out += w * act_ideal(ginv, p).coords
    return out


def conformal_barycenter(mu: BoundaryMeasure, tol: float = 1e-10,
                         max_iter: int = 100) -> SpacePoint:
    """The unique zero of the conformal vector field of the measure.

    Damped Newton on ball coordinates: the step is halved until the field
    norm decreases and the iterate stays in the open ball.  Requires that
    no atom carries mass 1/2 or more (the field has no zero otherwise).
    """
    if any(w >= 0.5 for _, w in mu.atoms):
        raise DominantAtom("an atom of mass >= 1/2 blocks the barycenter")
    n = mu.n
    x = 0.5 * sum(w * p.coords for p, w in mu.atoms)
    v = _gamma_field(mu, x)
    res = np.linalg.norm(v)
    h = 1e-7
    for _ in range(max_iter):
        if res <= tol:
            return SpacePoint(convert(x, "poincare", "hyperboloid"))
        jac = np.empty((n, n))
        for j in range(n):
            dx = np.zeros(n)
            dx[j] = h
            jac[:, j] = (_gamma_field(mu, x + dx) - _gamma_field(mu, x - dx)) / (2 * h)
        try:
            step = np.linalg.solve(jac, -v)
        except np.linalg.LinAlgError:
            step = -v
        for _ in range(40):
            cand = x + step
            if np.dot(cand, cand) < 1.0 - 1e-12:
                vc = _gamma_field(mu, cand)
                if np.linalg.norm(vc) < res:
                    x, v, res = cand, vc, np.linalg.norm(vc)
                    break
            step *= 0.5
        else:
            break
    if res <= tol:
        return SpacePoint(convert(x, "poincare", "hyperboloid"))
    raise NoConvergence(f"barycenter residual {res:.3e} > tol {tol:.3e}",
                        residual=res)


# -- boundary maps ----------------------------------------------------------

@dataclass(frozen=True)
class BoundaryMap:
    """An evaluatable boundary map.  ``evaluate`` takes one IdealPoint;
    ``batch``, where the kind has one, takes an (N, n) array of unit
    vectors to the (N, n) array of their images."""

    kind: str
    params: dict = field(compare=False)
    evaluate: Callable[[IdealPoint], IdealPoint] = field(compare=False)
    batch: Callable[[np.ndarray], np.ndarray] = field(default=None,
                                                     compare=False)

    def __call__(self, xi: IdealPoint) -> IdealPoint:
        return self.evaluate(xi)

    def evaluate_many(self, X) -> np.ndarray:
        """Images of the rows of X, (N, n) -> (N, n)."""
        return evaluate_many(self, X)


def evaluate_many(phi, X) -> np.ndarray:
    """Images of the rows of X (N, n) under a boundary map, as (N, n).

    A BoundaryMap with a batch evaluator runs it; any other callable on
    IdealPoints is applied row by row."""
    X = np.asarray(X, dtype=float)
    if isinstance(phi, BoundaryMap) and phi.batch is not None:
        return phi.batch(X)
    return np.array([phi(IdealPoint(x)).coords for x in X]).reshape(X.shape)


def eval_map(phi: BoundaryMap, xi: IdealPoint) -> IdealPoint:
    return phi.evaluate(xi)


# entries of the query-by-table difference block a tabulated lookup holds
_TABLE_BLOCK = 1 << 20


def make_boundary_map(kind: str, **params) -> BoundaryMap:
    """Build an evaluatable boundary map.

    kinds:
      planted_isometry(g)              boundary action of an isometry
      perturbed(g, amplitude, seed)    smooth seeded field added on top,
                                       sup chordal distance <= amplitude
      tabulated(points, images, radius) nearest-neighbor lookup
      constant(point)                  collapses everything to one point
    """
    if kind == "planted_isometry":
        g = params["g"]
        return BoundaryMap(kind, dict(params), lambda xi: act_ideal(g, xi),
                           lambda X: act_ideal_many(g.matrix, X))

    if kind == "perturbed":
        g = params["g"]
        amplitude = float(params.get("amplitude", 0.0))
        seed = int(params.get("seed", 0))
        rng = np.random.default_rng(seed)
        n = g.n
        A = rng.standard_normal((n, n))
        c = rng.standard_normal(n)
        bound = np.linalg.norm(A, 2) + np.linalg.norm(c)

        def ev(xi):
            eta = act_ideal(g, xi).coords
            raw = (A @ xi.coords + c) / bound
            tang = raw - np.dot(raw, eta) * eta
            out = eta + amplitude * tang
            return IdealPoint(out / np.linalg.norm(out))

        def ev_many(X):
            eta = act_ideal_many(g.matrix, X)
            raw = (X @ A.T + c) / bound
            tang = raw - np.einsum("ij,ij->i", raw, eta)[:, None] * eta
            out = eta + amplitude * tang
            return out / np.linalg.norm(out, axis=1, keepdims=True)

        return BoundaryMap(kind, dict(params), ev, ev_many)

    if kind == "tabulated":
        pts = np.array([p.coords for p in params["points"]])
        images = list(params["images"])
        image_coords = np.array([q.coords for q in images])
        radius = float(params["radius"])

        def ev(xi):
            d = np.linalg.norm(pts - xi.coords, axis=1)
            i = int(np.argmin(d))
            if d[i] > radius:
                raise OutOfTable(f"nearest table point at {d[i]:.3e} > {radius}")
            return images[i]

        step = max(1, _TABLE_BLOCK // pts.size)

        def ev_many(X):
            # the distances ev computes, a block of queries at a time, so
            # that near-coincident table points rank as they do there
            idx = np.empty(len(X), dtype=int)
            d = np.empty(len(X))
            for k in range(0, len(X), step):
                diff = X[k:k + step, None, :] - pts
                dk = np.sqrt(np.add.reduce(diff * diff, axis=-1))
                idx[k:k + step] = np.argmin(dk, axis=1)
                d[k:k + step] = dk[np.arange(len(dk)), idx[k:k + step]]
            if np.any(d > radius):
                raise OutOfTable(
                    f"nearest table point at {d.max():.3e} > {radius}")
            return image_coords[idx]

        return BoundaryMap(kind, dict(params), ev, ev_many)

    if kind == "constant":
        p = params["point"]
        return BoundaryMap(kind, dict(params), lambda xi: p,
                           lambda X: np.tile(p.coords, (len(X), 1)))

    raise ValueError(f"unknown boundary map kind: {kind}")


# -- JSON plumbing ----------------------------------------------------------

def measure_to_json(mu: BoundaryMeasure):
    return [{"point": p.coords.tolist(), "weight": w} for p, w in mu.atoms]


def measure_from_json(obj) -> BoundaryMeasure:
    return BoundaryMeasure(tuple(
        (IdealPoint(np.asarray(a["point"], dtype=float)), float(a["weight"]))
        for a in obj))


def map_to_json(phi: BoundaryMap):
    out = {"kind": phi.kind}
    p = phi.params
    if phi.kind in ("planted_isometry", "perturbed"):
        out["matrix"] = p["g"].matrix.tolist()
    if phi.kind == "perturbed":
        out["amplitude"] = float(p.get("amplitude", 0.0))
        out["seed"] = int(p.get("seed", 0))
    if phi.kind == "tabulated":
        out["points"] = [q.coords.tolist() for q in p["points"]]
        out["images"] = [q.coords.tolist() for q in p["images"]]
        out["radius"] = float(p["radius"])
    if phi.kind == "constant":
        out["point"] = p["point"].coords.tolist()
    return out


def map_from_json(obj) -> BoundaryMap:
    kind = obj["kind"]
    if kind in ("planted_isometry", "perturbed"):
        g = make_isometry(np.asarray(obj["matrix"], dtype=float))
        if kind == "planted_isometry":
            return make_boundary_map(kind, g=g)
        return make_boundary_map(kind, g=g,
                                 amplitude=float(obj.get("amplitude", 0.0)),
                                 seed=int(obj.get("seed", 0)))
    if kind == "tabulated":
        pts = [IdealPoint(np.asarray(q, dtype=float)) for q in obj["points"]]
        ims = [IdealPoint(np.asarray(q, dtype=float)) for q in obj["images"]]
        return make_boundary_map(kind, points=pts, images=ims,
                                 radius=float(obj["radius"]))
    if kind == "constant":
        return make_boundary_map(
            kind, point=IdealPoint(np.asarray(obj["point"], dtype=float)))
    raise ValueError(f"unknown boundary map kind: {kind}")
