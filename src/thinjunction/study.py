"""Convergence studies in the slenderness parameter.

A study sweeps a decreasing list of slenderness values, measures one or
more error quantities against the matched expansion, fits a log-log
slope, and compares it with the predicted exponent.  Each target is one
record of ``TARGETS``:

==================  ============  =============================================
T0_M                whole         H1 distance to the full partial sum
COR42_H1_U0         whole         H1 distance to the order-0 sum
COR42_H1_U0_REL     whole         the same divided by the root of the measure
COR42_L2_U0         whole         L2 distance to the order-0 sum
COR42_H1_U1         whole         H1 distance to the order-1 sum
COR42_CYL           outer-tubes   worst H1 distance to the limit profile
COR42_JUNC          bulge         H1 distance to the first junction sum
COR43_POINTWISE     stations      worst station gap to the limit profile
COR44_POINTWISE     stations      worst station gap to the 2-term axis profile
RESID_1 .. RESID_7  sample-cloud  sampled sup of one interior residual term
==================  ============  =============================================

The whole, outer-tubes and bulge targets are read off one norm pass per
slenderness and partial-sum order: its per-tet squared errors, summed
over the whole domain, each tube beyond the matching band, or the
bulge (``_WholePasses``).

Pointwise and residual targets have two-sided pass bands around the
predicted slope; energy norms use a one-sided bound because the proven
rates need not be sharp.  RESID_2 .. RESID_7 are report-only (no
prediction): their size mixes exponential tails with cutoff powers and
has no clean slope.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import special

from . import __version__
from .config import TRANSVERSE_AXES, ProblemSpec, is_number, load_spec
from .expansion import Expansion
from .fem3d import norm_triple
from .mesh3d import _layout_params, thin_stations
from .reference import (
    ReferenceSolution,
    default_axial,
    solve_reference,
    with_epsilon,
)

NODE_BUDGET = 2_000_000

# Axial positions per tube of the residual cloud, by 5 radii and 8 angles.
CLOUD_AXIAL = 160


class StudyError(ValueError):
    """Invalid plan or target/data mismatch."""


# Plan restrictions in the order a plan checks them: what a target that
# needs one says when the spec fails it, and the test of the spec.
RESTRICTIONS = {
    "requires constant radii": lambda s: all(h.is_constant() for h in s.h),
    "requires zero wall load": lambda s: all(p.is_zero() for p in s.phi),
    "requires a source depending on a single coordinate": lambda s: len(
        {ax for pw, _ in s.f.poly.terms() for ax in range(3) if pw[ax]}) < 2,
}


@dataclass(frozen=True)
class Target:
    """One estimate: its ``region``, the partial-sum ``order`` compared
    against (None: the built one), the lowest expansion order it needs,
    the slope ``exponent(spec)`` (None: report-only) and its (lower,
    upper or None) pass ``band``, and the ``RESTRICTIONS`` it imposes.
    ``norm`` ("h1", "l2", "h1/measure") and residual ``term`` pick what
    a whole-domain or sample-cloud target reads."""

    region: str
    order: int = 0
    min_order: int = 0
    exponent: callable = None
    band: tuple = (0.3, None)
    restrictions: tuple = ()
    norm: str = "h1"
    term: int = None


_POINTWISE = dict(region="stations", band=(0.4, 0.4))
_RESIDUAL = dict(region="sample-cloud", order=None, min_order=2)

TARGETS = {
    "T0_M": Target("whole", order=None,
                   exponent=lambda s: s.alpha * (s.order - 0.5) + 0.5),
    "COR42_H1_U0": Target("whole", exponent=lambda s: 1.0 + 0.5 * s.alpha),
    "COR42_H1_U0_REL": Target("whole", norm="h1/measure", band=(0.15, None),
                              exponent=lambda s: 0.5 * s.alpha),
    "COR42_L2_U0": Target("whole", norm="l2",
                          exponent=lambda s: 1.5 * s.alpha + 0.5),
    "COR42_H1_U1": Target("whole", order=1, min_order=1,
                          exponent=lambda s: 1.0 + s.alpha),
    "COR42_CYL": Target("outer-tubes", exponent=lambda s: 2.0),
    "COR42_JUNC": Target("bulge", order=1, min_order=1,
                         exponent=lambda s: 2.5),
    "COR43_POINTWISE": Target(**_POINTWISE, exponent=lambda s: 1.0,
                              restrictions=("requires constant radii",)),
    "COR44_POINTWISE": Target(**_POINTWISE, order=1, min_order=1,
                              exponent=lambda s: 2.0,
                              restrictions=tuple(RESTRICTIONS)),
    "RESID_1": Target(**_RESIDUAL, term=1, band=(0.3, 0.3),
                      exponent=lambda s: s.order - 1.0),
    **{f"RESID_{j}": Target(**_RESIDUAL, term=j) for j in range(2, 8)},
}


@dataclass
class StudyPlan:
    spec: ProblemSpec
    epsilons: list
    targets: list
    junction_R: float = None
    junction_refine: float = None
    axial: float = None
    fem_refine: float = 1.0

    def __post_init__(self):
        if not isinstance(self.epsilons, (list, tuple)) or not all(
                is_number(e) and 0.0 < e < 1.0 for e in self.epsilons):
            raise StudyError(f"epsilons must be a list of numbers in (0, 1), "
                             f"not {self.epsilons!r}")
        eps = [float(e) for e in self.epsilons]
        if len(eps) < 3:
            raise StudyError("need at least three slenderness values")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise StudyError("slenderness list must be strictly decreasing")
        self.epsilons = eps
        _check_positive("fem_refine", self.fem_refine)
        for name in ("axial", "junction_refine"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))
        short = self.spec.ell + 3.0
        if self.junction_R is not None and not (
                is_number(self.junction_R) and self.junction_R > short):
            raise StudyError(f"junction_R must be a number greater than "
                             f"ell + 3 = {short:g}, not {self.junction_R!r}")
        if not isinstance(self.targets, (list, tuple)):
            raise StudyError(f"unknown targets: {self.targets!r} is not a "
                             f"list of target names")
        # a tuple, so that an unhashable entry is unknown, not a TypeError
        bad = [t for t in self.targets if t not in tuple(TARGETS)]
        if bad:
            raise StudyError(f"unknown targets: {bad}")
        twice = [t for n, t in enumerate(self.targets)
                 if t in self.targets[:n]]
        if twice:
            raise StudyError(f"targets listed twice: {twice}")
        self._check_restrictions()

    def _check_restrictions(self):
        spec = self.spec
        for text, holds in RESTRICTIONS.items():
            for t in self.targets:
                if text in TARGETS[t].restrictions and not holds(spec):
                    raise StudyError(f"{t} {text}")
        for t in self.targets:
            n = TARGETS[t].min_order
            if spec.order < n:
                raise StudyError(f"{t} needs expansion order >= {n}")

    def needs_fem(self):
        return any(TARGETS[t].region != "sample-cloud" for t in self.targets)


def _check_positive(name, value):
    if not (is_number(value) and value > 0.0):
        raise StudyError(f"{name} must be a positive number, not {value!r}")


@dataclass
class TargetResult:
    target: str
    region: str
    predicted: float
    slope: float
    ci95: tuple
    passed: bool
    status: str
    epsilons: list
    errors: list
    # per slenderness, the ms spent in this target; the norm pass of an
    # order, which every whole, outer-tubes and bulge target of that
    # order reads, is charged to the first of them in the plan
    wall_ms: list


@dataclass
class StudyReport:
    spec_hash: str
    version: str
    targets: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    # per slenderness, the reference solve's ``ReferenceSolution.record``
    references: list = field(default_factory=list)

    @property
    def passed(self):
        return all(t.passed for t in self.targets)

    def to_json(self):
        return {
            "spec_hash": self.spec_hash,
            "version": self.version,
            "passed": self.passed,
            "notes": list(self.notes),
            "references": [dict(r) for r in self.references],
            "targets": [{
                "target": t.target, "region": t.region,
                "predicted": t.predicted, "slope": t.slope,
                "ci95": list(t.ci95) if t.ci95 is not None else None,
                "passed": t.passed, "status": t.status,
                "rows": [{"epsilon": e, "error": err, "wall_ms": w}
                         for e, err, w in zip(t.epsilons, t.errors,
                                              t.wall_ms)],
            } for t in self.targets],
        }


def spec_digest(spec: ProblemSpec) -> str:
    payload = json.dumps(spec.to_json(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def estimate_nodes(spec, epsilon, axial, refine):
    """Node count of the thin mesh that ``solve_reference`` builds, from
    the builder's own layout: each tube's stations past the bulge face
    (``mesh3d.thin_stations``) times the disk nodes, plus the bulge
    box's shells of cube-surface nodes and its centre.  Each face holds
    its centre and its rings but the rim, and the rims' nodes are shared
    along the cube's 12 edges and 8 corners (segments is a multiple of
    8, so every rim has its corners and its edge nodes meet)."""
    spec = with_epsilon(spec, epsilon)
    ax = default_axial(spec.epsilon) if axial is None else axial
    segments, rings, blend, shells = _layout_params(refine)
    stations = sum(len(thin_stations(spec, i, ax, refine)) - 1
                   for i in range(3))
    surface = 6 * (1 + (rings + blend - 1) * segments) + 3 * segments - 4
    return stations * (1 + rings * segments) + shells * surface + 1


def residual_cloud(spec, epsilon):
    """Deterministic sample points covering all three tubes."""
    eps = float(epsilon)
    pts = []
    for i in range(3):
        a, b = TRANSVERSE_AXES[i]
        xs = np.linspace(eps * spec.ell * 1.01, 0.995, CLOUD_AXIAL)
        rr = np.linspace(0.0, 0.92, 5)
        th = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        x, r, t = (g.ravel() for g in np.meshgrid(xs, rr, th, indexing="ij"))
        h = spec.h[i](x)
        p = np.zeros((x.size, 3))
        p[:, i] = x
        p[:, a] = eps * h * r * np.cos(t)
        p[:, b] = eps * h * r * np.sin(t)
        pts.append(p)
    return np.vstack(pts)


def _station_gap(exp: Expansion, ref: ReferenceSolution, order):
    worst = 0.0
    for i in range(3):
        xs, means = ref.station_values(i)
        vals, _ = exp.tube_profiles(i, xs)
        model = np.zeros_like(xs)
        for k in range(order + 1):
            model += ref.epsilon ** k * vals[:, k]
        worst = max(worst, float(np.max(np.abs(means - model))))
    return worst


class _WholePasses:
    """The norm passes at one slenderness: one whole-domain pass per
    partial-sum order, run when a target first needs it and kept as its
    per-tet numbers, which every target of that order reads over its
    tets (``norm_triple`` of a subset, summed in tet order).

    COR42_CYL is the worst H1 distance, over each tube's tets beyond the
    matching band (``tube_mask``), to the limit profile w_0.  The band's
    edge is a station of every tube (``mesh3d.thin_stations``), so these
    tets lie wholly past it, and at their quadrature points the order-0
    sum is w_0 exactly (chi = 1, its slope 0, and no corrector or end
    layer exists below order 2).  COR42_JUNC is the H1 distance, over
    the bulge's tets (``bulge_mask``, centroids within 2 eps ell), to the
    order-1 sum.  They lie wholly before the matching band's first plane
    2 ell eps^alpha, where chi = 0 and its slope is 0, so there that sum
    is the junction's: its constant plus eps N_1 at x / eps."""

    def __init__(self, exp, ref):
        self.exp, self.ref = exp, ref
        self._per_tet = {}

    def __call__(self, order, subset=None):
        """(L2, H1 semi, H1) of the whole domain, or of the tets where
        the boolean ``subset`` holds."""
        if order not in self._per_tet:
            exp, ref = self.exp, self.ref
            self._per_tet[order] = ref.norms_against(
                lambda pts: exp.evaluate(pts, ref.epsilon, m=order,
                                         gradient=True))
        l2, h1 = self._per_tet[order]
        if subset is not None:
            l2, h1 = l2[subset], h1[subset]
        return norm_triple(l2, h1)


def _order(target, exp):
    """Partial-sum order of a target."""
    return exp.order if target.order is None else target.order


def _target_error(target, exp, ref, whole, terms):
    """Error of one target at one slenderness.  ``whole`` gives the norm
    passes (``_WholePasses``) and ``terms`` the residual terms on the
    sample cloud."""
    region = target.region
    if region == "sample-cloud":
        return float(np.max(np.abs(terms[target.term])))
    if region == "stations":
        return _station_gap(exp, ref, target.order)
    order = _order(target, exp)
    if region == "outer-tubes":
        return max(whole(order, ref.tube_mask(i))[2] for i in range(3))
    if region == "bulge":
        return whole(order, ref.bulge_mask())[2]
    l2, _h1s, h1 = whole(order)
    if target.norm == "l2":
        return l2
    if target.norm == "h1/measure":
        return h1 / np.sqrt(ref.domain_measure())
    return h1


def _fit(epsilons, errors):
    """Least-squares slope of log error against log epsilon and its 95%
    Student t interval, in the closed form of ``scipy.stats.linregress``."""
    errs = np.asarray(errors, dtype=float)
    if np.any(errs <= 0.0) or np.max(errs) < 1e-250:
        return None, None, "degenerate"
    n = len(epsilons)
    ssxm, ssxym, _, ssym = np.cov(np.log(epsilons), np.log(errs),
                                  bias=1).flat
    slope = ssxym / ssxm
    half = np.inf
    if n > 2:
        with np.errstate(invalid="ignore"):
            r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
        stderr = np.sqrt((1.0 - r ** 2) * ssym / ssxm / (n - 2))
        half = special.stdtrit(n - 2, 0.975) * stderr
    return float(slope), (float(slope - half), float(slope + half)), "ok"


def run_study(plan: StudyPlan) -> StudyReport:
    spec = plan.spec
    report = StudyReport(spec_hash=spec_digest(spec), version=__version__)
    for eps in plan.epsilons:
        guess = estimate_nodes(spec, eps, plan.axial, plan.fem_refine)
        if plan.needs_fem() and guess > NODE_BUDGET:
            report.notes.append(
                f"epsilon={eps}: forecast {guess} mesh nodes exceeds the "
                f"budget {NODE_BUDGET}")
    exp = Expansion(spec, junction_R=plan.junction_R,
                    junction_refine=plan.junction_refine)

    table = {t: [] for t in plan.targets}
    timing = {t: [] for t in plan.targets}
    term_keys = [TARGETS[t].term for t in plan.targets
                 if TARGETS[t].region == "sample-cloud"]
    for eps in plan.epsilons:
        # the previous slenderness' solve goes before the next is built
        ref = whole = None
        if plan.needs_fem():
            ref = solve_reference(with_epsilon(spec, eps), axial=plan.axial,
                                  refine=plan.fem_refine)
            report.references.append(ref.record())
        whole = _WholePasses(exp, ref)
        terms = {}
        if term_keys:
            terms = exp.residual_terms(residual_cloud(spec, eps), eps,
                                       which=term_keys)
        for t in plan.targets:
            t0 = time.perf_counter()
            table[t].append(_target_error(TARGETS[t], exp, ref, whole, terms))
            timing[t].append(int(1000 * (time.perf_counter() - t0)))

    for t in plan.targets:
        target = TARGETS[t]
        slope, ci, status = _fit(plan.epsilons, table[t])
        pred = None if target.exponent is None else target.exponent(spec)
        if status == "degenerate":
            passed = True
        elif pred is None:
            status = "reported"
            passed = True
        else:
            lo, hi = target.band
            passed = slope >= pred - lo and (hi is None or slope <= pred + hi)
        report.targets.append(TargetResult(
            target=t, region=target.region, predicted=pred, slope=slope,
            ci95=ci, passed=bool(passed), status=status,
            epsilons=list(plan.epsilons), errors=table[t],
            wall_ms=timing[t]))
    return report


def emit(report: StudyReport, fmt="json", path=None):
    """Serialize a report; returns the written path or the text."""
    if fmt == "json":
        text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["target", "epsilon", "error", "predicted",
                         "region", "wall_ms"])
        for t in report.targets:
            for e, err, w in zip(t.epsilons, t.errors, t.wall_ms):
                writer.writerow([t.target, f"{e:.12g}", f"{err:.12g}",
                                 "" if t.predicted is None
                                 else f"{t.predicted:.12g}",
                                 t.region, w])
        text = buf.getvalue()
    else:
        raise StudyError(f"unknown format: {fmt}")
    if path is None:
        return text
    with open(path, "w", encoding="ascii") as out:
        out.write(text)
    return path


def load_plan(source) -> StudyPlan:
    """Build a plan from a JSON file path or an already-parsed dict."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            source = json.load(fh)
    data = dict(source)
    unknown = sorted(set(data) - {f.name for f in fields(StudyPlan)})
    if unknown:
        raise StudyError(f"unknown plan keys: {unknown}")
    missing = [k for k in ("spec", "epsilons", "targets") if k not in data]
    if missing:
        raise StudyError(f"missing plan keys: {missing}")
    return StudyPlan(**{**data, "spec": load_spec(data["spec"])})
