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
    act_point,
    basepoint,
    convert,
    make_isometry,
    translation_to,
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


def _atom_arrays(mu: BoundaryMeasure):
    """The atoms as a point array (k, n) and a weight array (k,)."""
    return (np.array([p.coords for p, _ in mu.atoms]),
            np.array([w for _, w in mu.atoms]))


def _gamma_field(X: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The conformal vector field V(x) = sum w_i gamma_x(xi_i) in ball
    coordinates of the measure with atoms X (k, n) and weights w (k,),
    gamma_x the canonical Moebius map taking x to the origin.

    On the sphere gamma_x(xi) = (1 - |x|^2) D / |D|^2 - x with D = xi - x,
    so V(x) = (1 - |x|^2) sum w_i D_i / q_i - x, q_i = |D_i|^2."""
    D = X - x
    s = (w / np.einsum("ij,ij->i", D, D)) @ D
    return (1.0 - x @ x) * s - x


def _gamma_jacobian(X: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Jacobian of `_gamma_field` at x, with s = sum w_i D_i / q_i:
    (1 - |x|^2)(2 sum w_i D_i D_i^T / q_i^2 - sum w_i / q_i I) - 2 s x^T - I."""
    D = X - x
    q = np.einsum("ij,ij->i", D, D)
    eye = np.eye(len(x))
    inner = 2.0 * (D.T * (w / q ** 2)) @ D - np.sum(w / q) * eye
    return (1.0 - x @ x) * inner - 2.0 * np.outer((w / q) @ D, x) - eye


def _newton_step(X, w, x, v, res):
    """A damped Newton step on the field from x, where it is v with norm
    res: the step is halved until the field norm decreases and the iterate
    stays in the open ball.  Returns the new (x, v, res), or None when 40
    halvings find no decrease."""
    try:
        step = np.linalg.solve(_gamma_jacobian(X, w, x), -v)
    except np.linalg.LinAlgError:
        step = -v
    for _ in range(40):
        cand = x + step
        if np.dot(cand, cand) < 1.0 - 1e-12:
            vc = _gamma_field(X, w, cand)
            if np.linalg.norm(vc) < res:
                return cand, vc, np.linalg.norm(vc)
        step *= 0.5
    return None


def conformal_barycenter(mu: BoundaryMeasure, tol: float = 1e-10) -> SpacePoint:
    """The unique zero of the conformal vector field of the measure.

    Damped Newton on ball coordinates with the exact Jacobian.  Requires
    that no atom carries mass 1/2 or more (the field has no zero
    otherwise).  Near the sphere the ball Jacobian degenerates and |V|
    can stall at a spurious minimum; when the line search finds no
    decrease, the solve goes on by `_recentered_newton`.
    """
    if any(w >= 0.5 for _, w in mu.atoms):
        raise DominantAtom("an atom of mass >= 1/2 blocks the barycenter")
    X, w = _atom_arrays(mu)
    x = 0.5 * sum(wi * p.coords for p, wi in mu.atoms)
    v = _gamma_field(X, w, x)
    res = np.linalg.norm(v)
    for _ in range(BARYCENTER_MAX_ITER):
        if res <= tol:
            return SpacePoint(convert(x, "poincare", "hyperboloid"))
        moved = _newton_step(X, w, x, v, res)
        if moved is None:
            return _recentered_newton(X, w, x, tol)
        x, v, res = moved
    if res <= tol:
        return SpacePoint(convert(x, "poincare", "hyperboloid"))
    raise NoConvergence(f"barycenter residual {res:.3e} > tol {tol:.3e}",
                        residual=res)


def _recentered_newton(X, w, x, tol):
    """The barycenter solve continued from x in hyperbolic coordinates.

    The translation T taking the basepoint to x moves the atoms to
    eta = T^-1 xi, and the field of the moved measure at the origin has
    the norm of V(x).  There the Jacobian is 2 sum w_i eta_i eta_i^T - 2I,
    well conditioned however far out x lies, so each damped Newton step s
    is taken at the origin; the translation S to s then moves the atoms
    again, and T becomes T S."""
    origin = np.zeros(len(x))
    T = translation_to(SpacePoint(convert(x, "poincare", "hyperboloid")))
    eta = act_ideal_many(T.inverse().matrix, X)
    v = w @ eta
    res = np.linalg.norm(v)
    for _ in range(BARYCENTER_MAX_ITER):
        if res <= tol:
            return act_point(T, basepoint(len(x)))
        moved = _newton_step(eta, w, origin, v, res)
        if moved is None:
            break
        S = translation_to(SpacePoint(convert(moved[0], "poincare",
                                              "hyperboloid")))
        T = T @ S
        eta = act_ideal_many(S.inverse().matrix, eta)
        v = w @ eta
        res = np.linalg.norm(v)
    if res <= tol:
        return act_point(T, basepoint(len(x)))
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
            return out / np.linalg.norm(out, axis=1, keepdims=True)

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
