"""Convergence studies in the slenderness parameter.

A study sweeps a decreasing list of slenderness values, measures one or
more error quantities against the matched expansion, fits a log-log
slope, and compares it with the predicted exponent.  Targets:

==================  ====================================================
T0_M                H1 distance to the full partial sum, whole domain
COR42_H1_U0         H1 distance to the order-0 sum, whole domain
COR42_H1_U0_REL     the same scaled by the square root of the measure
COR42_L2_U0         L2 distance to the order-0 sum, whole domain
COR42_H1_U1         H1 distance to the order-1 sum, whole domain
COR42_CYL           worst H1 distance to the limit profile, outer tubes
COR42_JUNC          H1 distance to the first junction sum, bulge zone
COR43_POINTWISE     worst station gap to the limit profile
COR44_POINTWISE     worst station gap to the two-term axis profile
RESID_1 .. RESID_7  sampled sup of one interior residual term
==================  ====================================================

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
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import __version__
from .config import TRANSVERSE_AXES, ProblemSpec, load_spec
from .expansion import Expansion
from .reference import ReferenceSolution, solve_reference, with_epsilon

NODE_BUDGET = 2_000_000

_ENERGY_TARGETS = ("T0_M", "COR42_H1_U0", "COR42_H1_U0_REL", "COR42_L2_U0",
                   "COR42_H1_U1", "COR42_CYL", "COR42_JUNC")
_POINTWISE_TARGETS = ("COR43_POINTWISE", "COR44_POINTWISE")
_RESIDUAL_TARGETS = tuple(f"RESID_{j}" for j in range(1, 8))
ALL_TARGETS = _ENERGY_TARGETS + _POINTWISE_TARGETS + _RESIDUAL_TARGETS

_REGIONS = {
    "T0_M": "whole", "COR42_H1_U0": "whole", "COR42_H1_U0_REL": "whole",
    "COR42_L2_U0": "whole", "COR42_H1_U1": "whole",
    "COR42_CYL": "outer-tubes", "COR42_JUNC": "bulge",
    "COR43_POINTWISE": "stations", "COR44_POINTWISE": "stations",
    **{t: "sample-cloud" for t in _RESIDUAL_TARGETS},
}


class StudyError(ValueError):
    """Invalid plan or target/data mismatch."""


@dataclass
class StudyPlan:
    spec: ProblemSpec
    epsilons: list
    targets: list
    junction_R: float = None
    junction_refine: float = None
    axial: float = None
    fem_refine: float = 1.0
    rtol: float = 1e-10

    def __post_init__(self):
        eps = [float(e) for e in self.epsilons]
        if len(eps) < 3:
            raise StudyError("need at least three slenderness values")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise StudyError("slenderness list must be strictly decreasing")
        self.epsilons = eps
        bad = [t for t in self.targets if t not in ALL_TARGETS]
        if bad:
            raise StudyError(f"unknown targets: {bad}")
        self._check_restrictions()

    def _check_restrictions(self):
        spec = self.spec
        point = [t for t in self.targets if t in _POINTWISE_TARGETS]
        if point and not all(spec.h[i].is_constant() for i in range(3)):
            raise StudyError(f"{point[0]} requires constant radii")
        if "COR44_POINTWISE" in self.targets:
            if not all(p.is_zero() for p in spec.phi):
                raise StudyError("COR44_POINTWISE requires zero wall load")
            used = {ax for pw, _ in spec.f.poly.terms()
                    for ax in range(3) if pw[ax] > 0}
            if len(used) > 1:
                raise StudyError(
                    "COR44_POINTWISE requires a source depending on a "
                    "single coordinate")
        order = spec.order
        need = {"COR42_H1_U1": 1, "COR42_JUNC": 1, "COR44_POINTWISE": 1,
                "COR43_POINTWISE": 0}
        for t in self.targets:
            if t.startswith("RESID"):
                need[t] = 2
        for t, n in need.items():
            if t in self.targets and order < n:
                raise StudyError(f"{t} needs expansion order >= {n}")

    def needs_fem(self):
        return any(not t.startswith("RESID") for t in self.targets)


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
    wall_ms: list


@dataclass
class StudyReport:
    spec_hash: str
    version: str
    targets: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(t.passed for t in self.targets)

    def to_json(self):
        return {
            "spec_hash": self.spec_hash,
            "version": self.version,
            "passed": self.passed,
            "notes": list(self.notes),
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


def predicted_exponent(target, spec):
    alpha = spec.alpha
    table = {
        "T0_M": alpha * (spec.order - 0.5) + 0.5,
        "COR42_H1_U0": 1.0 + 0.5 * alpha,
        "COR42_H1_U0_REL": 0.5 * alpha,
        "COR42_L2_U0": 1.5 * alpha + 0.5,
        "COR42_H1_U1": 1.0 + alpha,
        "COR42_CYL": 2.0,
        "COR42_JUNC": 2.5,
        "COR43_POINTWISE": 1.0,
        "COR44_POINTWISE": 2.0,
        "RESID_1": spec.order - 1.0,
    }
    return table.get(target)


def slope_band(target):
    """(lower margin, upper margin or None) around the prediction."""
    if target in _POINTWISE_TARGETS:
        return 0.4, 0.4
    if target == "RESID_1":
        return 0.3, 0.3
    if target == "COR42_H1_U0_REL":
        return 0.15, None
    return 0.3, None


def estimate_nodes(spec, epsilon, axial, refine):
    """Crude node count forecast for the thin mesh."""
    eps = float(epsilon)
    ax = axial if axial is not None else max(0.01, 0.1 * eps)
    per_disk = 24.0 * (6.0 * refine) * (7.0 * refine) / 2.0
    stations = 3.0 * (1.0 / (ax / refine) + 10.0)
    return int(per_disk * stations)


def residual_cloud(spec, epsilon, n_axial=160, n_radial=5, n_angle=8):
    """Deterministic sample points covering all three tubes."""
    eps = float(epsilon)
    pts = []
    for i in range(3):
        a, b = TRANSVERSE_AXES[i]
        xs = np.linspace(eps * spec.ell * 1.01, 0.995, n_axial)
        rr = np.linspace(0.0, 0.92, n_radial)
        th = np.linspace(0.0, 2.0 * np.pi, n_angle, endpoint=False)
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
    eps = ref.epsilon
    for i in range(3):
        xs, means = ref.station_values(i, ref.observation_interval())
        vals, _ = exp.profiles[i].evaluate(xs)
        model = np.zeros_like(xs)
        for k in range(order + 1):
            model += eps ** k * vals[:, k]
        worst = max(worst, float(np.max(np.abs(means - model))))
    return worst


def _tube_profile_h1(exp: Expansion, ref: ReferenceSolution):
    worst = 0.0
    lo, _hi = ref.observation_interval()
    for i in range(3):
        def fn(pts, i=i):
            vals, slopes = exp.profiles[i].evaluate(pts[:, i])
            grads = np.zeros_like(pts)
            grads[:, i] = slopes[:, 0]
            return vals[:, 0], grads

        mask = ref.tube_mask(i, (lo, 1.0))
        _l2, _h1s, h1 = ref.norms_against(fn, mask=mask)
        worst = max(worst, h1)
    return worst


def _junction_h1(exp: Expansion, ref: ReferenceSolution):
    eps = ref.epsilon
    base = exp.graph[0].edges[0].vertex_value
    nf = exp.nfields[1]

    mask = ref.bulge_mask(margin=2.0)

    def fn(pts):
        # only the masked tets are integrated; quadrature points of the
        # others may lie beyond the truncated junction (x > R eps)
        v, g = nf.evaluate(pts / eps)
        return base + eps * v, g

    _l2, _h1s, h1 = ref.norms_against(fn, mask=mask)
    return h1


def _energy_error(target, exp, ref, whole):
    """Energy error of one target; ``whole`` keeps the whole-domain norms
    per partial-sum order, so targets of one order share one evaluation."""
    eps = ref.epsilon
    if target == "COR42_CYL":
        return _tube_profile_h1(exp, ref)
    if target == "COR42_JUNC":
        return _junction_h1(exp, ref)
    order = {"T0_M": exp.order, "COR42_H1_U1": 1}.get(target, 0)

    def fn(pts):
        return exp.evaluate(pts, eps, m=order, gradient=True)

    if order not in whole:
        whole[order] = ref.norms_against(fn)
    l2, _h1s, h1 = whole[order]
    if target == "COR42_L2_U0":
        return l2
    if target == "COR42_H1_U0_REL":
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
    for eps in plan.epsilons:
        ref = None
        if plan.needs_fem():
            ref = solve_reference(with_epsilon(spec, eps), axial=plan.axial,
                                  refine=plan.fem_refine, rtol=plan.rtol)
        whole = {}
        cloud = None
        res_vals = {}
        res_js = [int(t.split("_")[1]) for t in plan.targets
                  if t.startswith("RESID")]
        if res_js:
            cloud = residual_cloud(spec, eps)
            res_vals = exp.residual_terms(cloud, eps, which=res_js)
        for t in plan.targets:
            t0 = time.perf_counter()
            if t.startswith("RESID"):
                err = float(np.max(np.abs(res_vals[int(t.split("_")[1])])))
            elif t in _POINTWISE_TARGETS:
                order = 1 if t == "COR44_POINTWISE" else 0
                err = _station_gap(exp, ref, order)
            else:
                err = _energy_error(t, exp, ref, whole)
            table[t].append(err)
            timing[t].append(int(1000 * (time.perf_counter() - t0)))

    for t in plan.targets:
        slope, ci, status = _fit(plan.epsilons, table[t])
        pred = predicted_exponent(t, spec)
        if status == "degenerate":
            passed = True
        elif pred is None:
            status = "reported"
            passed = True
        else:
            lo, hi = slope_band(t)
            passed = slope >= pred - lo and (hi is None or slope <= pred + hi)
        report.targets.append(TargetResult(
            target=t, region=_REGIONS[t], predicted=pred, slope=slope,
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
    spec = load_spec(data.pop("spec"))
    kwargs = {k: data[k] for k in ("junction_R", "junction_refine", "axial",
                                   "fem_refine", "rtol") if k in data}
    return StudyPlan(spec=spec, epsilons=data["epsilons"],
                     targets=data["targets"], **kwargs)
