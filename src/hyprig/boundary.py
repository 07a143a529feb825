"""Atomic measures on the boundary sphere and evaluatable boundary maps.

The measure side carries the two tools of the atom/no-atom case split:
`dominant_atom` reports a unique atom of mass at least 1/2 when there is
one, and `conformal_barycenter` solves the Douady-Earle vector-field
equation when there is none, by damped Newton on atoms moved so that
every step is taken at the origin.  The map side packages the boundary
maps the smearing and rigidity machinery consumes: planted isometries,
smooth seeded perturbations of them, tabulated samples and constants.
"""

from __future__ import annotations

import math
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
)

MEASURE_TOL = 1e-12
BARYCENTER_MAX_ITER = 100


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
        X = np.array([p.coords for p, _ in atoms])
        diff = X[:, None] - X[None]
        gaps2 = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(gaps2, np.inf)
        if np.any(gaps2 < MEASURE_TOL ** 2):
            raise OutOfModel("coincident atoms")

    @property
    def n(self) -> int:
        return self.atoms[0][0].n


def push_forward(g: Isometry, mu: BoundaryMeasure) -> BoundaryMeasure:
    """The image measure g_* mu: every atom moved by g in one
    `act_ideal_many` call, its weight kept."""
    X = act_ideal_many(g.matrix, np.array([p.coords for p, _ in mu.atoms]))
    return BoundaryMeasure(tuple((IdealPoint(x), w)
                                 for x, (_, w) in zip(X, mu.atoms)))


def dominant_atom(mu: BoundaryMeasure):
    """The unique atom of mass >= 1/2, or None.

    Two atoms of mass exactly 1/2 tie, so neither dominates."""
    heavy = [p for p, w in mu.atoms if w >= 0.5]
    if len(heavy) == 1:
        return heavy[0]
    return None


def _atom_arrays(mu: BoundaryMeasure):
    """The atoms as a point array (k, n) and a weight array (k,)."""
    return (np.array([p.coords for p, _ in mu.atoms]),
            np.array([w for _, w in mu.atoms]))


def _gamma(eta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The points eta (k, n) of the sphere moved by gamma_s, the canonical
    Moebius map taking s to the origin:
    gamma_s(eta) = (1 - |s|^2) D / |D|^2 - s with D = eta - s."""
    D = eta - s
    return (1.0 - s @ s) / np.einsum("ij,ij->i", D, D)[:, None] * D - s


def _mobius_add(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a + z in the Poincare ball: the canonical translation taking the
    origin to a, applied to z."""
    az, aa, zz = a @ z, a @ a, z @ z
    num = (1.0 + 2.0 * az + zz) * a + (1.0 - aa) * z
    return num / (1.0 + 2.0 * az + aa * zz)


def conformal_barycenter(mu: BoundaryMeasure, tol: float = 1e-10) -> SpacePoint:
    """The unique zero of the conformal vector field of the measure.

    Requires that no atom carries mass 1/2 or more (the field has no zero
    otherwise).  Damped Newton, every step taken at the origin: the atoms
    are moved to eta so that the current point is the origin, where the
    field is w.eta and its Jacobian 2 sum w_i eta_i eta_i^T - 2I stays
    well conditioned however far out the point lies.  The Newton step s is
    halved until the field norm decreases, and gamma_s moves the atoms
    again.  The barycenter is the origin carried back through the accepted
    steps, s_1 + (s_2 + ... (s_k + 0)) by Moebius addition.
    """
    if any(w >= 0.5 for _, w in mu.atoms):
        raise DominantAtom("an atom of mass >= 1/2 blocks the barycenter")
    eta, w = _atom_arrays(mu)
    eye = np.eye(mu.n)
    v = w @ eta
    # the residual norm as np.linalg.norm forms it, without its overhead
    res = math.sqrt(v.dot(v))
    steps = []
    for _ in range(BARYCENTER_MAX_ITER):
        if res <= tol:
            break
        s = np.linalg.solve(2.0 * (eta.T * w) @ eta - 2.0 * eye, -v)
        for _ in range(40):
            if s @ s < 1.0 - 1e-12:
                moved = _gamma(eta, s)
                v_s = w @ moved
                res_s = math.sqrt(v_s.dot(v_s))
                if res_s < res:
                    break
            s = 0.5 * s
        else:
            break
        eta, v, res = moved, v_s, res_s
        steps.append(s)
    if res > tol:
        raise NoConvergence(f"barycenter residual {res:.3e} > tol {tol:.3e}",
                            residual=res)
    z = np.zeros(mu.n)
    for s in reversed(steps):
        z = _mobius_add(s, z)
    return SpacePoint(convert(z, "poincare", "hyperboloid"))


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


# entries of the query-by-table difference block a tabulated lookup holds
_TABLE_BLOCK = 1 << 20


def _pointwise(batch):
    """The one-point evaluate of a map given by its batch evaluator."""
    return lambda xi: IdealPoint(batch(xi.coords[None])[0])


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

        def ev_many(X):
            eta = act_ideal_many(g.matrix, X)
            raw = (X @ A.T + c) / bound
            tang = raw - np.einsum("ij,ij->i", raw, eta)[:, None] * eta
            out = eta + amplitude * tang
            return out / np.sqrt(np.einsum("ij,ij->i", out, out))[:, None]

        return BoundaryMap(kind, dict(params), _pointwise(ev_many), ev_many)

    if kind == "tabulated":
        pts = np.array([p.coords for p in params["points"]])
        images = np.array([q.coords for q in params["images"]])
        radius = float(params["radius"])
        step = max(1, _TABLE_BLOCK // pts.size)

        def ev_many(X):
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
            return images[idx]

        return BoundaryMap(kind, dict(params), _pointwise(ev_many), ev_many)

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
