"""Per-interval Chebyshev evaluation with numpy's Clenshaw ``chebval``.

The former evaluation paths, kept as the oracle of the stacked kernel in
``thinjunction.cheb``: a piecewise series evaluates each interval's
numpy ``Chebyshev`` on its own points, and a corrector's modal arrays
come from ``chebval`` over each interval's coefficients, with the
Chebyshev derivative rebuilt on every call.  Both read the built
objects and never change them.  The three-term recurrence that built
the kernel's table before the doubling one is kept as its oracle.
"""

import numpy as np
from numpy.polynomial import chebyshev as npcheb

_EVAL_CHUNK = 8192


def three_term_table(t, deg):
    """T_0..T_deg at the points t, one row per degree, by the three-term
    recurrence T_{j} = 2 t T_{j-1} - T_{j-2}."""
    T = np.empty((deg + 1, t.size))
    T[0] = 1.0
    if deg:
        T[1] = t
    t2 = 2.0 * t
    for j in range(2, deg + 1):
        T[j] = t2 * T[j - 1] - T[j - 2]
    return T


def piecewise_call(pc, x):
    """``PiecewiseCheb`` at x, one numpy series call per interval."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    idx = np.clip(np.searchsorted(pc.breakpoints, x, side="right") - 1,
                  0, len(pc.series) - 1)
    out = np.empty_like(x)
    for j, s in enumerate(pc.series):
        m = idx == j
        if np.any(m):
            out[m] = s(x[m])
    return out[0] if scalar else out


def modal_batch(corr, x, deriv=0):
    """Per-point modal arrays of d^deriv u / dx^deriv of a corrector."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size,) + corr.coeffs[0].shape[1:])
    idx = np.clip(np.searchsorted(corr.breakpoints, x, side="right") - 1,
                  0, len(corr.coeffs) - 1)
    for j in np.unique(idx):
        sel = np.where(idx == j)[0]
        xl, xr = corr.breakpoints[j], corr.breakpoints[j + 1]
        c = corr.coeffs[j]
        if deriv:
            c = npcheb.chebder(c, deriv, scl=2.0 / (xr - xl), axis=0)
        t = (2.0 * x[sel] - (xl + xr)) / (xr - xl)
        for lo in range(0, sel.size, _EVAL_CHUNK):
            piece = sel[lo: lo + _EVAL_CHUNK]
            v = npcheb.chebval(t[lo: lo + _EVAL_CHUNK], c, tensor=True)
            out[piece] = np.moveaxis(v, -1, 0)
    return out
