"""The former per-name target policy of ``thinjunction.study``.

Before the ``TARGETS`` table, a target's region, predicted exponent,
pass band and plan restrictions were written out name by name in these
functions.  ``test_study.py`` checks that the table gives the same
values and raises the same messages for every target.
"""

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
