"""Convergence studies: plan handling and the junction-zone target."""

import math

import pytest

from thinjunction.study import StudyPlan, run_study

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
