"""The three benchmark workloads and their correctness gates.

``fem_sweep`` and ``full_study`` call ``thinjunction.run_study`` on a
fixed plan whose source amplitude comes from the seed; the work does
not depend on the amplitude, and every error scales with it exactly.
``field_queries`` builds one order-2 ``Expansion`` and serves small
point batches drawn uniformly by volume over the true thin domain.
Everything is driven through the package's public names.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

import thinjunction
from thinjunction.config import TRANSVERSE_AXES

HERE = os.path.dirname(os.path.abspath(__file__))
PLANS = os.path.join(HERE, "plans")
GOLDEN = os.path.join(HERE, "golden")

# Conjugate gradients stop at a relative residual of 1e-10; the error
# of the solved field is that times the condition number.  1e4 x rtol
# admits any solver that meets the same tolerance (tightening rtol to
# 1e-12 moves the study errors by 1.3e-12 relative at the seed).
GOLDEN_RTOL = 1e4 * 1e-10
# Served results against a bulk re-evaluation of the same points: the
# arithmetic per point is identical, so only summation order differs.
CONSISTENCY_RTOL = 1e-9


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def amplitude(seed):
    """Source amplitude of the study workloads, +-[0.5, 2] from the seed."""
    rng = np.random.default_rng([seed, 1])
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))


def scaled_plan(name, amp):
    """Plan document of a study workload with its source scaled by amp."""
    doc = read_json(os.path.join(PLANS, f"{name}.json"))
    for term in doc["spec"]["f"]["terms"]:
        term["coef"] *= amp
    return doc


def close(got, want, rtol, scale=None):
    """Elementwise |got - want| <= rtol * scale (scale defaults to |want|)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    ref = np.abs(want) if scale is None else scale
    return bool(np.all(np.abs(got - want) <= rtol * ref))


class StudyWorkload:
    """One ``run_study`` call per operation on a fixed plan."""

    kind = "study"

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.amp = amplitude(seed)
        self.golden = read_json(os.path.join(GOLDEN, f"{name}.json"))

    def setup(self):
        return thinjunction.load_plan(scaled_plan(self.name, self.amp))

    def operate(self, plan):
        return thinjunction.run_study(plan)

    def check(self, report):
        """(ok, notes): errors against the golden table scaled by |amp|."""
        notes = []
        ok = True
        for t in report.targets:
            want = self.golden["errors"].get(t.target)
            got = [e / abs(self.amp) for e in t.errors]
            good = (want is not None
                    and [float(e) for e in t.epsilons]
                    == self.golden["epsilons"]
                    and close(got, want, GOLDEN_RTOL))
            ok &= good
            notes.append(
                f"target {t.target}: errors/|amp| "
                + " ".join(f"{e:.9e}" for e in got)
                + f" slope {t.slope:.4f} predicted {t.predicted} "
                f"pass-flag {t.passed} golden {'match' if good else 'MISMATCH'}")
        return ok, notes


def tube_volume_weights(spec, eps, n=2001):
    """(region volumes, max radius per tube) of the thin domain at eps.

    Region 0..2 are the tubes x_i in (eps*ell, 1), region 3 the bulge
    cube (-eps*ell, eps*ell)^3.
    """
    lo = eps * spec.ell
    xs = np.linspace(lo, 1.0, n)
    vols, hmax = [], []
    for i in range(3):
        h = spec.h[i](xs)
        vols.append(math.pi * eps * eps * np.trapezoid(h * h, xs))
        hmax.append(float(h.max()))
    vols.append((2.0 * lo) ** 3)
    return np.array(vols), hmax


def sample_points(spec, eps, n, rng, weights=None):
    """n points uniform by volume over the true (circular) thin domain."""
    vols, hmax = weights or tube_volume_weights(spec, eps)
    region = rng.choice(4, size=n, p=vols / vols.sum())
    pts = np.empty((n, 3))
    lo = eps * spec.ell
    cube = region == 3
    pts[cube] = rng.uniform(-lo, lo, size=(int(cube.sum()), 3))
    for i in range(3):
        rows = np.flatnonzero(region == i)
        xs = np.empty(0)
        while xs.size < rows.size:
            # axial density proportional to the cross-section area
            cand = rng.uniform(lo, 1.0, size=2 * (rows.size - xs.size) + 8)
            keep = rng.uniform(size=cand.size) * hmax[i] ** 2 \
                < spec.h[i](cand) ** 2
            xs = np.concatenate([xs, cand[keep]])
        x = xs[:rows.size]
        r = eps * spec.h[i](x) * np.sqrt(rng.uniform(size=rows.size))
        th = rng.uniform(0.0, 2.0 * math.pi, size=rows.size)
        a, b = TRANSVERSE_AXES[i]
        pts[rows, i] = x
        pts[rows, a] = r * np.cos(th)
        pts[rows, b] = r * np.sin(th)
    return pts


def matching_zone(spec, pts, eps):
    """Points where the junction field is evaluated (x < 3 ell eps^alpha)."""
    return pts.max(axis=1) < 3.0 * spec.ell * eps ** spec.alpha


class QueryStream:
    """Deterministic request stream: (epsilon, points) per request."""

    def __init__(self, spec, epsilons, batch, seed):
        self.spec = spec
        self.epsilons = list(epsilons)
        self.batch = batch
        self.rng = np.random.default_rng([seed, 2])
        self._weights = {e: tube_volume_weights(spec, e) for e in epsilons}

    def next(self):
        eps = self.epsilons[int(self.rng.integers(len(self.epsilons)))]
        return eps, sample_points(self.spec, eps, self.batch, self.rng,
                                  self._weights[eps])


class QueryWorkload:
    """Small field-query batches against one built order-2 expansion."""

    kind = "query"
    name = "field_queries"
    min_requests = 1000

    def __init__(self, seed):
        self.seed = seed
        self.plan = read_json(os.path.join(PLANS, "field_queries.json"))
        self.spec = thinjunction.load_spec(self.plan["spec"])

    @functools.cached_property
    def golden(self):
        return read_json(os.path.join(GOLDEN, "field_queries.json"))

    def setup(self):
        """Build the expansion and serve one warm-up point per epsilon, so
        lazily built state (the point locator) is part of set-up."""
        spec = thinjunction.load_spec(self.plan["spec"])
        exp = thinjunction.Expansion(
            spec, junction_R=self.plan["junction_R"],
            junction_refine=self.plan["junction_refine"])
        for eps in self.plan["epsilons"]:
            warm = np.array([[0.5 * spec.ell * eps, 1e-3 * eps, 2e-3 * eps]])
            exp.evaluate(warm, eps, gradient=True)
        return exp

    def stream(self):
        return QueryStream(self.spec, self.plan["epsilons"],
                           self.plan["batch"], self.seed)

    @staticmethod
    def operate(exp, eps, pts):
        return exp.evaluate(pts, eps, gradient=True)

    def consistency(self, exp, served):
        """Served (eps, pts, vals, grads) against one bulk evaluation per
        epsilon.  Returns the number of requests that disagree."""
        bad = 0
        for eps in self.plan["epsilons"]:
            mine = [s for s in served if s[0] == eps]
            if not mine:
                continue
            pts = np.concatenate([s[1] for s in mine])
            vals = np.empty(len(pts))
            grads = np.empty((len(pts), 3))
            for lo in range(0, len(pts), 4096):
                sl = slice(lo, lo + 4096)
                try:
                    vals[sl], grads[sl] = exp.evaluate(pts[sl], eps,
                                                       gradient=True)
                except Exception:  # noqa: BLE001 - NaN fails every request
                    vals[sl], grads[sl] = np.nan, np.nan
            vscale = 1.0 + np.abs(vals)
            gscale = 1.0 + np.abs(grads)
            row = 0
            for _, p, v, g in mine:
                sl = slice(row, row + len(p))
                row += len(p)
                if not (close(v, vals[sl], CONSISTENCY_RTOL, vscale[sl])
                        and close(g, grads[sl], CONSISTENCY_RTOL,
                                  gscale[sl])):
                    bad += 1
        return bad

    def golden_gate(self, exp):
        """Evaluate the recorded check set in request-sized batches.

        Returns (requests, mismatched requests, notes).  The scale of each
        comparison is the largest golden magnitude at that epsilon.
        """
        batch = self.plan["batch"]
        requests = mismatched = 0
        notes = []
        for key, rec in self.golden["check"].items():
            eps = float(key)
            pts = np.array(rec["points"])
            want_v = np.array(rec["values"])
            want_g = np.array(rec["gradients"])
            vscale = float(np.abs(want_v).max())
            gscale = float(np.abs(want_g).max())
            for lo in range(0, len(pts), batch):
                sl = slice(lo, lo + batch)
                requests += 1
                try:
                    v, g = exp.evaluate(pts[sl], eps, gradient=True)
                except Exception as exc:  # noqa: BLE001 - a failure is data
                    mismatched += 1
                    notes.append(f"golden eps={eps}: raised {exc!r}")
                    continue
                if not (close(v, want_v[sl], GOLDEN_RTOL, vscale)
                        and close(g, want_g[sl], GOLDEN_RTOL, gscale)):
                    mismatched += 1
                    dv = float(np.abs(v - want_v[sl]).max()) / vscale
                    notes.append(f"golden eps={eps} batch {lo // batch}: "
                                 f"MISMATCH, max rel diff {dv:.3e}")
        return requests, mismatched, notes

    def outside_probe(self, exp):
        """Re-run the recorded outside-the-mesh points one at a time."""
        still = total = 0
        for key, pts in self.golden["outside"].items():
            for p in pts:
                total += 1
                try:
                    exp.evaluate(np.array([p]), float(key), gradient=True)
                except Exception:  # noqa: BLE001 - any error still fails
                    still += 1
        return still, total


def mesh_bytes(nodes, tets, nnz):
    """Computed bytes of one mesh's arrays: coordinates, int32 tets, P1
    gradients and volumes, and the CSR stiffness (float64 + int32)."""
    return (nodes * 3 * 8 + tets * 4 * 4 + tets * (4 * 3 + 1) * 8
            + nnz * 12 + (nodes + 1) * 4)


def make(name, seed):
    if name == "field_queries":
        return QueryWorkload(seed)
    if name in ("fem_sweep", "full_study"):
        return StudyWorkload(name, seed)
    raise ValueError(f"unknown workload {name}")


WORKLOADS = ("fem_sweep", "field_queries", "full_study")
