"""Convergence studies: plan handling and the junction-zone target."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from thinjunction import reference
from thinjunction.expansion import Expansion
from thinjunction.reference import solve_reference, with_epsilon
from thinjunction.study import StudyPlan, _fit, residual_cloud, run_study

# COR42_JUNC errors of this plan at eps = 0.3 and 0.25, recorded when the
# junction field was still evaluated over the whole thin domain (which
# is possible only for eps >= 1/R).
SEED_JUNC_ERRORS = (0.0005686021943586247, 0.00038499497333610827)


def test_junction_target_below_inverse_truncation(fx_spec):
    # R = ell + 4 = 4.3, so eps = 0.2 < 1/R puts thin-domain quadrature
    # points beyond the truncated junction; only the bulge zone counts
    plan = StudyPlan(spec=fx_spec, epsilons=[0.3, 0.25, 0.2],
                     targets=["COR42_JUNC"], junction_R=fx_spec.ell + 4.0,
                     junction_refine=0.5, axial=0.04, fem_refine=0.4)
    report = run_study(plan)
    (result,) = report.targets
    assert result.region == "bulge"
    errors = result.errors
    assert errors[:2] == pytest.approx(SEED_JUNC_ERRORS, rel=1e-6)
    assert math.isfinite(errors[2]) and 0.0 < errors[2] < errors[1]
    assert result.status == "ok"


def test_tube_target_matches_direct_norms(fx_spec):
    # COR42_CYL: worst H1 distance, over the tubes beyond the matching
    # band, to the order-0 graph profile of each tube
    spec = dataclasses.replace(fx_spec, order=0)
    plan = StudyPlan(spec=spec, epsilons=[0.3, 0.25, 0.2],
                     targets=["COR42_CYL"], axial=0.05, fem_refine=0.4)
    (result,) = run_study(plan).targets
    edges = Expansion(spec).graph[0].edges
    for j, eps in enumerate(plan.epsilons):
        ref = solve_reference(with_epsilon(spec, eps), axial=plan.axial,
                              refine=plan.fem_refine, rtol=plan.rtol)
        cent = ref.mesh.nodes[ref.mesh.tets].mean(axis=1)
        lo = 3.0 * spec.ell * eps ** spec.alpha
        worst = 0.0
        for i, edge in enumerate(edges):
            def fn(pts, i=i, edge=edge):
                grads = np.zeros_like(pts)
                grads[:, i] = edge.d1(pts[:, i])
                return edge.value(pts[:, i]), grads

            x = cent[:, i]
            mask = (x > eps * spec.ell) & (x > lo) & (x < 1.0)
            worst = max(worst, ref.norms_against(fn, mask=mask * 1.0)[2])
        assert result.errors[j] == pytest.approx(worst, rel=1e-9)


def test_whole_domain_targets_share_one_norm_evaluation(fx_spec, monkeypatch):
    spec = dataclasses.replace(fx_spec, order=0)
    plan = StudyPlan(spec=spec, epsilons=[0.3, 0.25, 0.2],
                     targets=["COR42_H1_U0", "COR42_L2_U0",
                              "COR42_H1_U0_REL", "T0_M"],
                     axial=0.05, fem_refine=0.4)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return norms(*args, **kwargs)

    norms = reference.norms
    monkeypatch.setattr(reference, "norms", counted)
    report = run_study(plan)
    assert len(calls) == len(plan.epsilons)

    exp = Expansion(spec)
    for j, eps in enumerate(plan.epsilons):
        ref = solve_reference(with_epsilon(spec, eps), axial=plan.axial,
                              refine=plan.fem_refine, rtol=plan.rtol)
        l2, _h1s, h1 = ref.norms_against(
            lambda pts: exp.evaluate(pts, eps, m=0, gradient=True))
        want = {"COR42_H1_U0": h1, "T0_M": h1, "COR42_L2_U0": l2,
                "COR42_H1_U0_REL": h1 / np.sqrt(ref.domain_measure())}
        for t in report.targets:
            assert t.errors[j] == want[t.target], t.target


def test_residual_targets_through_the_study(rich_spec, exp_rich):
    # the plan builds its own expansion with the settings of exp_rich
    epsilons = [0.2, 0.1, 0.05]
    targets = [f"RESID_{j}" for j in range(1, 8)]
    plan = StudyPlan(spec=rich_spec, epsilons=epsilons, targets=targets,
                     junction_R=rich_spec.ell + 4.0, junction_refine=0.7)
    report = run_study(plan)
    assert [r.target for r in report.targets] == targets
    for r in report.targets:
        assert r.region == "sample-cloud"
        if r.target == "RESID_1":
            assert r.status == "ok" and r.passed
            assert r.predicted == rich_spec.order - 1.0
        else:
            assert r.status == "reported" and r.passed
            assert r.predicted is None
    for n, eps in enumerate(epsilons):
        terms = exp_rich.residual_terms(residual_cloud(rich_spec, eps), eps)
        for j, r in enumerate(report.targets, start=1):
            assert r.errors[n] == float(np.max(np.abs(terms[j])))


def test_fit_matches_scipy_stats():
    # the closed-form slope and interval against linregress and the
    # Student t quantile they replace, bit for bit
    rng = np.random.default_rng(2017)
    for _ in range(400):
        n = int(rng.integers(3, 7))
        # lists, as a study plan holds them
        eps = sorted(rng.uniform(0.01, 0.5, n), reverse=True)
        errs = list(np.exp(rng.normal(0.0, 2.0, n))
                    * np.array(eps) ** rng.uniform(0, 3))
        fit = stats.linregress(np.log(eps), np.log(errs))
        half = stats.t.ppf(0.975, n - 2) * fit.stderr
        want = (float(fit.slope), (float(fit.slope - half),
                                   float(fit.slope + half)), "ok")
        assert _fit(eps, errs) == want
    slope, band, status = _fit([0.2, 0.1], [4e-2, 1e-2])
    assert status == "ok" and slope == pytest.approx(2.0)
    assert band == (-np.inf, np.inf)
    assert _fit([0.2, 0.1, 0.05], [1e-2, 0.0, 1e-3]) == (None, None,
                                                         "degenerate")
