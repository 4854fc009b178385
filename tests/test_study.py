"""Convergence studies: plan handling, the target table and the
junction-zone target."""

import dataclasses
import itertools
import json
import math
import pathlib
import re

import numpy as np
import pytest
from scipy import stats

import study_oracle
from block_oracle import norms_reference
from thinjunction import fem3d, reference, study
from thinjunction.config import LateralLoad, RadiusProfile, SourceField
from thinjunction.expansion import Expansion
from thinjunction.fem3d import norm_triple
from thinjunction.mesh3d import build_thin_mesh
from thinjunction.poly import Poly3
from thinjunction.reference import (default_axial, solve_reference,
                                    with_epsilon)
from thinjunction.study import (RESTRICTIONS, TARGETS, StudyError, StudyPlan,
                                StudyReport, _fit, estimate_nodes, load_plan,
                                residual_cloud, run_study)

EPSILONS = [0.3, 0.25, 0.2]


def _restricted_specs(fx_spec):
    """fx_spec and every combination of a bumped radius, a wall load and
    a source of two coordinates, each failing one plan restriction."""
    bumped = (fx_spec.h[0], RadiusProfile.smooth_bump(0.25, 0.2),
              fx_spec.h[2])
    wall = (LateralLoad.zero(), LateralLoad(Poly3.constant(0.05)),
            LateralLoad.zero())
    two = Poly3.from_terms([((1, 0, 0), 1.0), ((0, 2, 0), 0.5)])
    out = []
    for radius, load, source in itertools.product((False, True), repeat=3):
        spec = fx_spec
        if radius:
            spec = dataclasses.replace(spec, h=bumped)
        if load:
            spec = dataclasses.replace(spec, phi=wall)
        if source:
            spec = dataclasses.replace(spec, f=SourceField(two))
        out.append(spec)
    return out


def _raised(check):
    try:
        check()
    except StudyError as err:
        return str(err)
    return None


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
    edges = Expansion(spec).graph[0]
    for j, eps in enumerate(plan.epsilons):
        ref = solve_reference(with_epsilon(spec, eps), axial=plan.axial,
                              refine=plan.fem_refine)
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
            worst = max(worst, norms_reference(ref.ctx, ref.u, fn, mask)[2])
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
                              refine=plan.fem_refine)
        l2, _h1s, h1 = norm_triple(*ref.norms_against(
            lambda pts: exp.evaluate(pts, eps, m=0, gradient=True)))
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


def test_target_table_matches_the_former_policy(fx_spec):
    assert list(TARGETS) == list(study_oracle.ALL_TARGETS)
    for alpha, order in itertools.product((0.7, 0.8, 0.95), range(5)):
        spec = dataclasses.replace(fx_spec, alpha=alpha, order=order)
        for name, target in TARGETS.items():
            assert target.region == study_oracle._REGIONS[name]
            want = study_oracle.predicted_exponent(name, spec)
            got = None if target.exponent is None else target.exponent(spec)
            assert got == want and type(got) is type(want), name
            assert target.band == study_oracle.slope_band(name)
            assert set(target.restrictions) <= set(RESTRICTIONS)
            # fx_spec meets every restriction, so the former check
            # raises for the expansion order alone
            fails = _raised(lambda: study_oracle.check_restrictions(
                spec, [name])) is not None
            assert fails == (order < target.min_order), (name, order)


def test_restrictions_raise_the_former_messages(fx_spec):
    for base in _restricted_specs(fx_spec):
        for order in range(5):
            try:
                spec = dataclasses.replace(base, order=order)
            except ValueError as err:
                # the spec itself refuses order 4 on a varying radius
                assert order == 4 and not base.h[1].is_constant()
                assert "needs constant radii" in str(err)
                continue
            for name in TARGETS:
                want = _raised(lambda: study_oracle.check_restrictions(
                    spec, [name]))
                got = _raised(lambda: StudyPlan(spec, EPSILONS, [name]))
                assert got == want, (name, order)


def test_a_plan_names_its_first_offending_target(fx_spec):
    """Two targets raise the former message, except when both need a
    higher expansion order: then the plan names the first it lists."""
    for base in _restricted_specs(fx_spec):
        for order in range(3):
            spec = dataclasses.replace(base, order=order)
            for pair in itertools.permutations(TARGETS, 2):
                want = _raised(lambda: study_oracle.check_restrictions(
                    spec, list(pair)))
                got = _raised(lambda: StudyPlan(spec, EPSILONS, list(pair)))
                short = [t for t in pair if order < TARGETS[t].min_order]
                if want is not None and "needs" in want and len(short) == 2:
                    n = TARGETS[short[0]].min_order
                    want = f"{short[0]} needs expansion order >= {n}"
                assert got == want, pair


def test_module_docstring_lists_every_target():
    rows = {}
    for line in study.__doc__.splitlines():
        row = re.match(r"([A-Z]\w*)(?: \.\. \w+_(\d+))?\s{2,}(\S+)\s", line)
        if row is None:
            continue
        name, last, region = row.groups()
        if last is None:
            rows[name] = region
        else:
            stem, first = name.rsplit("_", 1)
            for j in range(int(first), int(last) + 1):
                rows[f"{stem}_{j}"] = region
    assert rows == {n: t.region for n, t in TARGETS.items()}


def test_plan_rejects_unknown_targets(fx_spec):
    for targets in (["T0_M", "COR45"], [["T0_M"]], "T0_M"):
        with pytest.raises(StudyError, match="unknown targets"):
            StudyPlan(fx_spec, EPSILONS, targets)


def test_plan_rejects_a_target_listed_twice(fx_spec):
    with pytest.raises(StudyError, match=re.escape(
            "targets listed twice: ['COR43_POINTWISE']")):
        StudyPlan(fx_spec, EPSILONS, ["COR43_POINTWISE", "COR43_POINTWISE"])


def _plan_doc(fx_spec, **extra):
    return {"spec": fx_spec.to_json(), "epsilons": EPSILONS,
            "targets": ["COR43_POINTWISE"], **extra}


def test_load_plan_rejects_unknown_keys(fx_spec):
    assert load_plan(_plan_doc(fx_spec, fem_refine=0.5)).fem_refine == 0.5
    with pytest.raises(StudyError, match=re.escape(
            "unknown plan keys: ['fem_refin']")):
        load_plan(_plan_doc(fx_spec, fem_refin=0.5))
    # the CG tolerance is fem3d.CG_RTOL, not a plan setting
    with pytest.raises(StudyError, match=re.escape(
            "unknown plan keys: ['rtol']")):
        load_plan(_plan_doc(fx_spec, rtol=1e-10))


@pytest.mark.parametrize("key, value, message", [
    ("epsilons", "0.3", "epsilons must be a list of numbers in (0, 1)"),
    ("epsilons", [0.3, 0.2, -0.1], "epsilons must be a list of numbers"),
    ("epsilons", [2.0, 1.5, 1.2], "epsilons must be a list of numbers"),
    ("epsilons", [0.3, "0.2", 0.1], "epsilons must be a list of numbers"),
    ("targets", "COR42_CYL", "'COR42_CYL' is not a list of target names"),
    ("fem_refine", -1, "fem_refine must be a positive number, not -1"),
    ("fem_refine", "0.5", "fem_refine must be a positive number, not '0.5'"),
    ("fem_refine", True, "fem_refine must be a positive number, not True"),
    ("fem_refine", None, "fem_refine must be a positive number, not None"),
    ("axial", -0.1, "axial must be a positive number, not -0.1"),
    ("junction_refine", "0.7", "junction_refine must be a positive number"),
    ("junction_R", 1.0, "junction_R must be a number greater than "
                        "ell + 3 = 3.3, not 1.0"),
    ("junction_R", "4.3", "junction_R must be a number greater than"),
])
def test_load_plan_rejects_bad_values(fx_spec, key, value, message):
    with pytest.raises(StudyError, match=re.escape(message)):
        load_plan(_plan_doc(fx_spec, **{key: value}))


def test_load_plan_accepts_values_in_range(fx_spec):
    plan = load_plan(_plan_doc(fx_spec, epsilons=(0.5, 0.25, 0.125),
                               fem_refine=1, axial=0.05, junction_refine=0.7,
                               junction_R=fx_spec.ell + 3.1))
    assert plan.epsilons == [0.5, 0.25, 0.125]
    assert (plan.fem_refine, plan.junction_R) == (1, fx_spec.ell + 3.1)


@pytest.mark.parametrize("key", ["spec", "epsilons", "targets"])
def test_load_plan_rejects_missing_keys(fx_spec, key):
    doc = _plan_doc(fx_spec)
    del doc[key]
    with pytest.raises(StudyError, match=re.escape(
            f"missing plan keys: ['{key}']")):
        load_plan(doc)


def test_tube_profile_is_evaluated_once_per_axial_position(fx_spec,
                                                           monkeypatch):
    # COR42_CYL is read off the order-0 whole-domain pass, which
    # evaluates the profiles at the distinct axial positions of each
    # block's tube points and gathers, as the former masked passes did
    # (study_oracle.tube_profile_h1): the profile values do not depend on
    # the batch, so this is bitwise the per-point pass
    spec = dataclasses.replace(fx_spec, order=0)
    exp = Expansion(spec)
    ref = solve_reference(with_epsilon(spec, 0.25), axial=0.05, refine=0.4)
    for i in range(3):
        mask = ref.tube_mask(i)
        pts, _, _ = ref.ctx.quad_points(2, np.flatnonzero(mask))
        x = pts.reshape(-1, 3)[:, i]
        xs, at = np.unique(x, return_inverse=True)
        assert len(xs) < len(x) // 10
        per_point = exp.tube_profiles(i, x)
        for whole, distinct in zip(per_point, exp.tube_profiles(i, xs)):
            assert np.array_equal(distinct[at], whole)
    worst = study_oracle.tube_profile_h1(exp, ref)
    seen = []

    def counted(self, xu, xcut):
        seen.append(len(xu))
        return profiles(self, xu, xcut)

    def refused(*args):
        raise AssertionError("the tube target evaluates the profiles per "
                             "tube")

    profiles = Expansion._profiles
    monkeypatch.setattr(Expansion, "_profiles", counted)
    monkeypatch.setattr(Expansion, "tube_profiles", refused)
    passes = study._WholePasses(exp, ref)
    assert study._target_error(TARGETS["COR42_CYL"], exp, ref, passes,
                               {}) == worst
    assert 0 < sum(seen) < 4 * ref.mesh.num_tets // 10


def _norm_calls(monkeypatch):
    """The norm passes of the study, each as whether it returned the
    numbers of every tet of its mesh."""
    calls = []

    def counted(ctx, *args, **kwargs):
        l2, h1 = norms(ctx, *args, **kwargs)
        calls.append(l2.shape == h1.shape == (ctx.mesh.num_tets,))
        return l2, h1

    norms = reference.norms
    monkeypatch.setattr(reference, "norms", counted)
    return calls


def _captured_study(plan, monkeypatch):
    """run_study of the plan, its expansion, and its norm passes."""
    built = []

    def expansion(*args, **kwargs):
        built.append(Expansion(*args, **kwargs))
        return built[-1]

    with monkeypatch.context() as patched:
        patched.setattr(study, "Expansion", expansion)
        calls = _norm_calls(patched)
        report = run_study(plan)
    (exp,) = built
    return report, exp, calls


@pytest.mark.parametrize("order, targets, passes", [
    # the order-0 pass serves the whole-domain targets and COR42_CYL
    (0, ["COR42_H1_U0", "COR42_CYL", "COR42_L2_U0"], [True]),
    # without an order-0 whole-domain target, COR42_CYL runs that pass
    # alone, and no masked one
    (0, ["COR42_CYL"], [True]),
    (1, ["COR42_CYL", "T0_M"], [True, True]),
])
def test_tube_target_is_read_off_the_order_0_pass(fx_spec, monkeypatch,
                                                  order, targets, passes):
    # one norm pass per slenderness and partial-sum order serves every
    # whole-domain target, and COR42_CYL is read off the order-0 one,
    # which runs whether or not a whole-domain target needs it; the tube
    # target is bitwise the three masked passes of the oracle
    spec = dataclasses.replace(fx_spec, order=order)
    plan = StudyPlan(spec=spec, epsilons=[0.3, 0.25, 0.2], targets=targets,
                     axial=0.05, fem_refine=0.4, junction_R=spec.ell + 4.0,
                     junction_refine=0.5)
    report, exp, calls = _captured_study(plan, monkeypatch)
    assert calls == passes * len(plan.epsilons)
    (cyl,) = [t for t in report.targets if t.target == "COR42_CYL"]
    for j, eps in enumerate(plan.epsilons):
        ref = solve_reference(with_epsilon(spec, eps), axial=plan.axial,
                              refine=plan.fem_refine)
        assert cyl.errors[j] == study_oracle.tube_profile_h1(exp, ref)
        assert report.references[j] == ref.record()


def test_tube_target_is_one_pass_where_forced_planes_crowd(fx_spec,
                                                          monkeypatch):
    # at eps = 0.81 the station nearest the end band's plane 0.8 is the
    # one on the matching band's edge; it stays there and 0.8 gets its
    # own station beside it, so no tube tet straddles the edge, and
    # COR42_CYL is the one per-tet order-0 pass, bitwise the oracle's
    # masked passes against w_0
    eps = 0.81
    spec = dataclasses.replace(fx_spec, order=0)
    exp = Expansion(spec)
    ref = solve_reference(with_epsilon(spec, eps), axial=0.05, refine=0.4)
    lo = 3.0 * spec.ell * eps ** spec.alpha
    x = ref.mesh.nodes[ref.mesh.tets]
    for i in range(3):
        xs = [st.x for st in ref.mesh.stations[i]]
        assert xs.index(0.8) == xs.index(lo) + 1
        across = (x[:, :, i].min(axis=1) < lo) & (x[:, :, i].max(axis=1)
                                                  > lo)
        assert not across.any()
    want = study_oracle.tube_profile_h1(exp, ref)
    calls = _norm_calls(monkeypatch)
    passes = study._WholePasses(exp, ref)
    got = study._target_error(TARGETS["COR42_CYL"], exp, ref, passes, {})
    assert got == want
    assert calls == [True]


def test_report_carries_each_reference_record(fx_spec):
    spec = dataclasses.replace(fx_spec, order=0)
    plan = StudyPlan(spec=spec, epsilons=[0.3, 0.25, 0.2],
                     targets=["COR42_H1_U0"], axial=0.05, fem_refine=0.4)
    report = run_study(plan)
    rows = report.to_json()["references"]
    assert [r["epsilon"] for r in rows] == plan.epsilons
    for row in rows:
        assert set(row) == {"epsilon", "nodes", "tets", "cg_iterations",
                            "cg_restarts", "relative_residual"}
        assert row["nodes"] > 0 and row["tets"] > row["nodes"]
        assert row["cg_iterations"] > 0 and row["cg_restarts"] >= 0
        assert 0.0 < row["relative_residual"] <= fem3d.CG_RTOL
    assert json.loads(study.emit(report))["references"] == rows
    # a report of no solve lists no record
    assert StudyReport("", "").to_json()["references"] == []


def test_node_forecast_and_mesh_share_the_default_spacing(fx_spec):
    eps = 0.25
    ref = solve_reference(with_epsilon(fx_spec, eps), refine=0.4)
    assert ref.mesh.meta["axial"] == default_axial(eps)
    assert estimate_nodes(fx_spec, eps, None, 0.4) == estimate_nodes(
        fx_spec, eps, default_axial(eps), 0.4)


def _bench_plan(name):
    return load_plan(str(pathlib.Path(__file__).resolve().parents[1]
                         / "bench" / "plans" / f"{name}.json"))


def test_node_forecast_is_the_built_mesh(rich_spec):
    # each slenderness of both study plans, and the default spacing at
    # refine 1.0 and on varying radii with a radius breakpoint
    cases = [(plan.spec, eps, plan.axial, plan.fem_refine)
             for plan in map(_bench_plan, ("fem_sweep", "full_study"))
             for eps in plan.epsilons]
    cases += [(_bench_plan("fem_sweep").spec, 0.1, None, 1.0),
              (rich_spec, 0.2, None, 0.5)]
    for spec, eps, axial, refine in cases:
        ref_axial = default_axial(eps) if axial is None else axial
        mesh = build_thin_mesh(with_epsilon(spec, eps), axial=ref_axial,
                               refine=refine)
        assert estimate_nodes(spec, eps, axial, refine) == mesh.num_nodes


def test_junction_target_is_read_off_the_order_1_pass(fx_spec, monkeypatch):
    # COR42_JUNC and COR42_H1_U1 share one norm pass per slenderness; the
    # bulge's tets lie before the matching band, where the order-1 sum is
    # the junction sum, so COR42_JUNC is the former masked pass against
    # it (study_oracle.junction_h1) to rounding; eps = 0.2 < 1 / R puts
    # quadrature points of the tubes' ends beyond the truncated junction
    plan = StudyPlan(spec=fx_spec, epsilons=[0.3, 0.25, 0.2],
                     targets=["COR42_JUNC", "COR42_H1_U1"],
                     junction_R=fx_spec.ell + 4.0, junction_refine=0.5,
                     axial=0.04, fem_refine=0.4)
    report, exp, calls = _captured_study(plan, monkeypatch)
    assert calls == [True] * len(plan.epsilons)
    junc, h1_u1 = report.targets
    for j, eps in enumerate(plan.epsilons):
        ref = solve_reference(with_epsilon(fx_spec, eps), axial=plan.axial,
                              refine=plan.fem_refine)
        want = study_oracle.junction_h1(exp, ref)
        assert junc.errors[j] == pytest.approx(want, rel=1e-13, abs=0.0)
        l2, h1 = ref.norms_against(
            lambda pts: exp.evaluate(pts, eps, m=1, gradient=True))
        bulge = ref.bulge_mask()
        assert junc.errors[j] == norm_triple(l2[bulge], h1[bulge])[2]
        assert h1_u1.errors[j] == norm_triple(l2, h1)[2]
