"""The benchmark workloads: seeded inputs, the timed calls into hyprig's
public API, and an oracle check per operation.

Every input of item i of a run is drawn from SeedSequence([seed, i]), so
a seed fixes the inputs and an item does not depend on how many came
before it.  The exception are the panel workloads (cocycle_n4,
reconstruct_fig8), whose cost varies so much from input to input that
the few dozen items a run holds would make every run measure a
different average.  Each of their runs cycles through the same panel of
items, drawn once from SeedSequence([PANEL_SEED, j]); the seed draws,
from SeedSequence([seed]), the order in which a pass visits the panel
and, for cocycle_n4, a rotation applied to all of its points.  Only
whole passes count.  hyprig receives only the generated inputs.  All
calls into the package go through module attributes
(``smear.volume_ratio``, not a name imported into this file), so the
tracer can wrap them in place.

An operation fails when it raises a HyprigError, returns a non-finite
value, or misses its oracle grossly.  A cocycle_n4 volume whose
quadrature runs out of budget at the requested tolerance is not a
failure: like a caller of ``vol``, the workload asks again at a ten
times looser tolerance until it gets an answer, and the operation counts
as answered below tolerance (status LOOSE, reported in at_tol_frac), its
latency covering every attempt.  The oracles never share the code
path they check:
  smear_*           lambda = eps(phi) exactly for the planted and
                    perturbed maps; a miss is an estimate whose nearest
                    Milnor-Wood class in {-1, 0, +1} is not eps (the
                    wrong sign included);
  cocycle_n4        the alternating sum of the six face volumes of a
                    6-tuple must stay within the sum of their abs_error;
  reconstruct_fig8  all 20 regularity trials pass with the planted
                    orientation, the conjugacy residual against
                    g gamma g^-1 is at most 1e-7, and the barycenter of
                    the push-forward matches the moved barycenter to 1e-8.
The known bias of the lambda estimate is reported as err_abs, never as a
failure, so reordered random draws cannot flip an operation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from hyprig import boundary, hypcore, lattice, rigidity, smear, volcocycle
from hyprig.errors import HyprigError, QuadratureBudgetExceeded

SMEAR_N = 32           # samples per test simplex (CLI smear --samples 256)
SMEAR_M = 8            # test simplices per estimate (CLI default)
PANEL_SEED = 0
COCYCLE_PANEL = 60     # 6-tuples, 360 volumes a pass
RECON_PANEL = 20       # planted maps a pass
COCYCLE_TOL = 1e-6     # CLI cocycle-check default
COCYCLE_RETRIES = 4    # looser tolerances after a budget failure, 1e-5..1e-2
RECON_TRIALS = 20
RECON_SEEDS = 8        # CLI reconstruct defaults
RECON_DEPTH = 4
CONJUGACY_TOL = 1e-7   # acceptance-gate tolerances
EQUIVARIANCE_TOL = 1e-8

OK, LOOSE, RAISED, WRONG = "ok", "loose", "raised", "wrong"
ANSWERED = (OK, LOOSE)


@dataclass
class Verdict:
    """Outcome of one item: a status and work units per operation, and
    the item's figures for the err_abs and err_band metrics (defined per
    workload in README.md)."""

    status: list
    units: list
    err_abs: list = field(default_factory=list)
    err_band: list = field(default_factory=list)


@dataclass
class Item:
    calls: list                      # zero-argument callables, one per op
    check: object                    # list of results -> Verdict


def _rng(seed, i):
    return np.random.default_rng(np.random.SeedSequence([seed, i]))


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


class Workload:
    name = ""
    unit = ""        # what work_per_s counts
    tail_q = 0.9     # nominal tail percentile, lowered for short runs
    err_stat = staticmethod(statistics.fmean)   # err_abs and err_band
    panel = 0        # items a pass; 0 for fresh inputs per item
    dim = 0          # the dimension a panel's rotation acts in; 0: none

    def __init__(self):
        self.wrap_map = lambda phi: phi
        self._panel_seed = None

    def panel_item(self, seed, i):
        """For a panel workload: the generator of the panel item that item
        i of the seed's run visits, its panel index, and the seed's
        rotation of the panel."""
        if self._panel_seed != seed:
            rng = np.random.default_rng(np.random.SeedSequence([seed]))
            self._order = rng.permutation(self.panel)
            self._rotation = hypcore.random_rotation(
                rng, self.dim, orientation=1) if self.dim else None
            self._panel_seed = seed
        j = int(self._order[i % self.panel])
        return _rng(PANEL_SEED, j), j, self._rotation

    def setup(self):
        """Imports are done; load presets and fill first-call caches."""

    def item(self, seed: int, i: int) -> Item:
        raise NotImplementedError


class _Smear(Workload):
    unit = "samples"
    preset_name = ""

    def setup(self):
        self.preset = lattice.load_preset(self.preset_name)
        volcocycle.v_n(self.preset.n)

    def _map(self, rng, eps):
        raise NotImplementedError

    def item(self, seed, i):
        rng = _rng(seed, i)
        eps = 1 if i % 2 == 0 else -1
        phi = self.wrap_map(self._map(rng, eps))
        est_seed = int(rng.integers(2**31))
        preset = self.preset

        def call():
            return smear.volume_ratio(preset, phi, SMEAR_N, est_seed,
                                      m=SMEAR_M)

        def check(results):
            lam = results[0]
            if isinstance(lam, Exception):
                return Verdict([RAISED], [0])
            band = 3.0 * lam.std_error + lam.bias_bound
            if not _finite([lam.value, band]) or round(lam.value) != eps:
                return Verdict([WRONG], [0])
            return Verdict([OK], [lam.n_samples], [abs(lam.value - eps)],
                           [band])

        return Item([call], check)


class SmearFig8(_Smear):
    name = "smear_fig8"
    preset_name = "figure_eight_3d"

    def _map(self, rng, eps):
        g = hypcore.random_isometry(rng, 3, max_translation=1.0,
                                    orientation=eps)
        return boundary.make_boundary_map("planted_isometry", g=g)


class SmearRefl2d(_Smear):
    name = "smear_refl2d"
    preset_name = "test_reflection_2d"

    def _map(self, rng, eps):
        # A 0.1 perturbation of a circle isometry is still a circle
        # homeomorphism with the same cyclic order, so lambda = eps.
        g = hypcore.random_isometry(rng, 2, max_translation=0.5,
                                    orientation=eps)
        return boundary.make_boundary_map(
            "perturbed", g=g, amplitude=0.1, seed=int(rng.integers(2**31)))


class CocycleN4(Workload):
    name = "cocycle_n4"
    unit = "volumes"
    # Budget retries put about 4% of the volumes far out in the tail; p90
    # stays clear of them and moves with the quadrature itself.
    tail_q = 0.9
    # A retried volume reports a 10 to 10^4 times larger abs_error; medians
    # keep the error figures on the volumes answered at tolerance.
    err_stat = staticmethod(statistics.median)
    panel = COCYCLE_PANEL
    dim = 4

    def setup(self):
        volcocycle.v_n(4)

    def item(self, seed, i):
        rng, _, rot = self.panel_item(seed, i)
        pts = rng.standard_normal((6, 4)) @ rot.T
        tup = [hypcore.IdealPoint(p / np.linalg.norm(p)) for p in pts]
        faces = [tup[:j] + tup[j + 1:] for j in range(6)]

        def face_call(face):
            def call():
                tol = COCYCLE_TOL
                for _ in range(COCYCLE_RETRIES):
                    try:
                        return volcocycle.vol(face, tol=tol), tol
                    except QuadratureBudgetExceeded:
                        tol *= 10
                return volcocycle.vol(face, tol=tol), tol
            return call

        def check(results):
            status = []
            for r in results:
                if isinstance(r, Exception):
                    status.append(RAISED)
                elif not _finite([r[0].value, r[0].abs_error]):
                    status.append(WRONG)
                else:
                    status.append(OK if r[1] == COCYCLE_TOL else LOOSE)
            done = [r[0] for r, s in zip(results, status) if s in ANSWERED]
            units = [int(s in ANSWERED) for s in status]
            if len(done) < 6:
                return Verdict(status, units,
                               err_band=[r.abs_error for r in done])
            defect = abs(sum((-1) ** j * r.value for j, r in enumerate(done)))
            bar = sum(r.abs_error for r in done)
            if defect > bar:
                return Verdict([WRONG] * 6, [0] * 6)
            return Verdict(status, units, [bar], [r.abs_error for r in done])

        return Item([face_call(f) for f in faces], check)


class ReconstructFig8(Workload):
    name = "reconstruct_fig8"
    unit = "maps"
    tail_q = 0.85
    # No rotation: the error figures are rounding errors of a few units in
    # the last place, which any rotation of the inputs redraws.
    panel = RECON_PANEL

    def setup(self):
        self.preset = lattice.load_preset("figure_eight_3d")
        volcocycle.v_n(3)

    def item(self, seed, i):
        rng, j, _ = self.panel_item(seed, i)
        eps = 1 if j % 2 == 0 else -1
        g = hypcore.random_isometry(rng, 3, max_translation=1.0,
                                    orientation=eps)
        phi = self.wrap_map(boundary.make_boundary_map("planted_isometry", g=g))
        trial_seed = int(rng.integers(2**31))
        consensus_seed = int(rng.integers(2**31))
        rho = [g @ gen @ g.inverse() for gen in self.preset.generators]
        while True:
            w = rng.dirichlet(np.full(5, 2.0))
            if np.max(w) < 0.45:
                break
        v = rng.standard_normal((5, 3))
        pts = [hypcore.IdealPoint(x / np.linalg.norm(x)) for x in v]
        mu = boundary.BoundaryMeasure(tuple(zip(pts, w)))
        preset = self.preset

        def call():
            rep = rigidity.preserves_regular(phi, 3, trials=RECON_TRIALS,
                                             seed=trial_seed)
            h = rigidity.consensus(phi, 3, m=RECON_SEEDS, depth=RECON_DEPTH,
                                   seed=consensus_seed)
            resid = rigidity.verify_conjugacy(h, preset, rho)
            b_mu = boundary.conformal_barycenter(mu)
            b_push = boundary.conformal_barycenter(boundary.push_forward(g, mu))
            return rep, h, resid, b_mu, b_push

        def check(results):
            r = results[0]
            if isinstance(r, Exception):
                return Verdict([RAISED], [0])
            rep, h, resid, b_mu, b_push = r
            gap = float(np.max(np.abs(hypcore.act_point(g, b_mu).coords
                                      - b_push.coords)))
            h_err = float(np.mean(np.abs(h.matrix - g.matrix)))
            mode = "same" if eps > 0 else "opposite"
            good = (_finite([resid, gap, h_err]) and rep.pass_fraction == 1.0
                    and rep.orientation_mode == mode
                    and resid <= CONJUGACY_TOL and gap <= EQUIVARIANCE_TOL)
            if not good:
                return Verdict([WRONG], [0])
            return Verdict([OK], [1], [h_err], [resid])

        return Item([call], check)


WORKLOADS = {w.name: w for w in (SmearFig8, SmearRefl2d, CocycleN4,
                                 ReconstructFig8)}


def run_item(item: Item, clock):
    """Time each call of the item; exceptions other than HyprigError
    propagate, since they are bugs rather than failed operations."""
    results, times = [], []
    for call in item.calls:
        t0 = clock()
        try:
            out = call()
        except HyprigError as exc:
            out = exc
        times.append(clock() - t0)
        results.append(out)
    return results, times


def tail_index(n: int, nominal_q: float):
    """Percentile (whole percent) and index into n sorted latencies for the
    highest percentile, up to nominal_q, that leaves at least ten samples
    beyond it."""
    if n <= 10:
        return 100, n - 1
    pct = min(int(100 * nominal_q), math.floor(100 * (n - 10) / n))
    idx = max(math.ceil(pct / 100 * n) - 1, 0)
    return pct, idx
