"""Former code of ``thinjunction.study``, kept as oracles.

Before the ``TARGETS`` table, a target's region, predicted exponent,
pass band and plan restrictions were written out name by name in these
functions.  ``test_study.py`` checks that the table gives the same
values and raises the same messages for every target.

``tube_profile_h1`` is the former COR42_CYL pass: one masked norm pass
per tube against the limit profile w_0, which the study now reads off
its order-0 whole-domain pass.  ``junction_h1`` is the former
COR42_JUNC pass: one norm pass over the bulge against the junction sum
base + eps N_1, which the study now reads off its order-1 pass.  Both
run their masked passes with ``block_oracle.norms_reference``.
"""

import numpy as np

from block_oracle import norms_reference
from thinjunction.study import StudyError

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


def check_restrictions(spec, targets):
    """``StudyPlan._check_restrictions`` of a plan with these targets."""
    point = [t for t in targets if t in _POINTWISE_TARGETS]
    if point and not all(spec.h[i].is_constant() for i in range(3)):
        raise StudyError(f"{point[0]} requires constant radii")
    if "COR44_POINTWISE" in targets:
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
    for t in targets:
        if t.startswith("RESID"):
            need[t] = 2
    for t, n in need.items():
        if t in targets and order < n:
            raise StudyError(f"{t} needs expansion order >= {n}")


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


def tube_profile_h1(exp, ref):
    """Worst H1 distance, over the tubes beyond the matching band, to the
    order-0 graph profile: three masked passes, each over the tube's tets
    whose centroids lie past eps ell and 3 ell eps^alpha, evaluating the
    profile once per distinct axial position of its points."""
    spec, eps = ref.spec, ref.epsilon
    lo = 3.0 * spec.ell * eps ** spec.alpha
    cent = ref.mesh.nodes[ref.mesh.tets].mean(axis=1)
    worst = 0.0
    for i in range(3):
        def fn(pts, i=i):
            xs, at = np.unique(pts[:, i], return_inverse=True)
            vals, slopes = exp.tube_profiles(i, xs)
            grads = np.zeros_like(pts)
            grads[:, i] = slopes[at, 0]
            return vals[at, 0], grads

        x = cent[:, i]
        mask = (x > eps * spec.ell) & (x > lo) & (x < 1.0)
        worst = max(worst, norms_reference(ref.ctx, ref.u, fn, mask)[2])
    return worst


def junction_h1(exp, ref):
    """H1 distance, over the bulge's tets (centroids within 2 eps ell),
    to the order-1 junction sum: the vertex value of the limit problem
    plus eps times the first junction field at x / eps."""
    eps = ref.epsilon
    base = exp.graph[0][0].vertex_value

    def fn(pts):
        # only the bulge is integrated; quadrature points of the other
        # tets may lie beyond the truncated junction (x > R eps)
        v, g = exp.nfields[1].evaluate(pts / eps)
        return base + eps * v, g

    cent = ref.mesh.nodes[ref.mesh.tets].mean(axis=1)
    mask = cent.max(axis=1) < 2.0 * eps * ref.spec.ell
    return norms_reference(ref.ctx, ref.u, fn, mask)[2]
