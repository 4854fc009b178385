"""Interior residual terms of the assembled expansion."""

import math

import numpy as np

from thinjunction.study import predicted_exponent, residual_cloud, slope_band


def _bands(exp, pts, eps):
    """Axial-cutoff and end-cutoff band membership of tube points."""
    edge = np.argmax(pts, axis=1)
    x = pts[np.arange(len(pts)), edge]
    lo, hi = exp.cut_axial.support
    zeta = x / eps ** exp.spec.alpha
    axial = (zeta > lo) & (zeta < hi)
    lo, hi = exp.cut_end.support
    end = (x > lo) & (x < hi)
    return axial, end


def test_residual_terms_on_the_sample_cloud(exp_rich):
    spec = exp_rich.spec
    sup = {}
    for eps in (0.1, 0.05):
        cloud = residual_cloud(spec, eps)
        terms = exp_rich.residual_terms(cloud, eps)
        assert sorted(terms) == list(range(1, 8))
        for j, vals in terms.items():
            assert vals.shape == (len(cloud),)
            assert np.all(np.isfinite(vals)), j
        axial, end = _bands(exp_rich, cloud, eps)
        for j, band in ((2, axial), (3, end), (6, axial), (7, axial)):
            assert np.all(terms[j][~band] == 0.0), j
            assert np.any(terms[j][band] != 0.0), j
        sup[eps] = float(np.max(np.abs(terms[1])))

    assert sup[0.05] < sup[0.1]
    slope = math.log(sup[0.1] / sup[0.05]) / math.log(0.1 / 0.05)
    pred = predicted_exponent("RESID_1", spec)
    lo, hi = slope_band("RESID_1")
    assert pred - lo <= slope <= pred + hi
