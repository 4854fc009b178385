"""Piecewise Chebyshev series on [0, 1], all of one type, ChebStack.

The graph profiles (:func:`interpolate`, :func:`antiderivative`) and the
correctors' modal coefficients are evaluated by one kernel,
:meth:`ChebStack.at`.  It maps each point to the variable t of its
interval and builds T_0(t) .. T_deg(t) by doubling: given the rows
T_0 .. T_m, the product identity T_{m+j} = 2 T_m T_j - T_{m-j} gives the
rows T_{m+1} .. T_{2m} in one vectorised pass, so degree 65 takes 7
passes where the three-term recurrence takes 64 steps.  On the few dozen
distinct positions of a served request each step costs mostly its ufunc
calls, so the passes are what count.  A :class:`ChebStack` holds many
series stacked along trailing axes, and one matrix product per interval
gives all of them.  Its grid may be several breakpoint grids whose
intervals are numbered in turn, each point looked up on its own grid:
when an expansion is served, the graph profiles of all orders and the
correctors' modal coefficients of all three tubes come from one table
and one contraction per request.  A tube function lives on its radius'
breakpoints, the only places where it may kink: the source and the
lateral load are polynomials.  The identity holds for |t| > 1 too, so
points outside a grid are extrapolated by the polynomial of the end
interval.  Every step is elementwise, so a point's row does not depend
on its batch.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import Chebyshev


def _recurrence(t, deg):
    """T_0..T_deg at the points t, one row per degree, by doubling."""
    T = np.empty((deg + 1, t.size))
    T[0] = 1.0
    if deg:
        T[1] = t
    m = 1
    while m < deg:
        # T_{m+j} = 2 T_m T_j - T_{m-j} for j = 1 .. min(m, deg - m)
        j = min(m, deg - m)
        new = T[m + 1: m + j + 1]
        np.multiply(T[1: j + 1], 2.0 * T[m], out=new)
        np.subtract(new, T[m - j: m][::-1], out=new)
        m += j
    return T


class ChebStack:
    """Piecewise Chebyshev series on breakpoint grids, stacked.

    ``breakpoints`` is one grid, or several whose intervals are numbered
    in turn (``grids``).  ``coeffs`` has shape (intervals, deg+1, *shape);
    evaluating at points of shape S gives an array of shape S + shape.
    """

    def __init__(self, breakpoints, coeffs):
        if np.ndim(breakpoints[0]) == 0:
            breakpoints = [breakpoints]
        self.grids = grids = [np.asarray(bp, dtype=float)
                              for bp in breakpoints]
        a = np.concatenate([bp[:-1] for bp in grids])
        b = np.concatenate([bp[1:] for bp in grids])
        # numpy's map of each interval [a, b] onto [-1, 1], each grid's
        # inner breakpoints and the number of its first interval
        self._offset, self._scale = (-b - a) / (b - a), 2.0 / (b - a)
        self._inner = [bp[1:-1] for bp in grids]
        self._first = np.cumsum([0] + [bp.size - 1 for bp in grids]).tolist()
        c = np.asarray(coeffs, dtype=float)
        self.coeffs = c
        self.deg = c.shape[1] - 1
        self.shape = c.shape[2:]
        c = c.reshape(c.shape[:2] + (-1,))
        self._cols = c.shape[2]
        # BLAS answers a product with one row or one column by gemv, whose
        # sums run in an order that depends on the number of rows; with
        # at least two of each (a zero column here, a doubled lone point
        # in ``at``) every point's value is independent of its batch
        self._coeffs = np.zeros(c.shape[:2] + (max(self._cols, 2),))
        self._coeffs[:, :, : self._cols] = c

    def __call__(self, x):
        """Every stacked series at x, on a stack of one grid."""
        return self.at(x)[0]

    def at(self, x, cut=None):
        """(values, intervals): every stacked series at x, and the
        interval of each point, numbered in turn over the grids, the end
        ones extended outwards.  On several grids, the points
        x[cut[g]:cut[g + 1]] are on grid g.

        The points are sorted by interval once, so the table T_0..T_deg
        has columns that run interval by interval, and the stack is
        contracted with one product per interval.  The table takes
        8 (deg + 1) bytes a point: the caller bounds the points of a
        call.
        """
        x = np.asarray(x, dtype=float)
        shape, x = x.shape, x.ravel()
        cut = [0, x.size] if cut is None else list(cut)
        nint = self._first[-1]
        # the interval of each point on its own grid, the end ones
        # extended outwards, numbered after the earlier grids' intervals
        interval = np.empty(x.size, np.intp)
        for inner, first, a, b in zip(self._inner, self._first, cut[:-1],
                                      cut[1:]):
            interval[a:b] = np.searchsorted(inner, x[a:b],
                                            side="right") + first
        # a stable sort of keys of 16 bits or fewer is a radix sort
        order = np.argsort(interval.astype(np.min_scalar_type(nint)),
                           kind="stable")
        idx = interval[order]
        T = _recurrence(self._offset[idx] + self._scale[idx] * x[order],
                        self.deg)
        bounds = np.searchsorted(idx, np.arange(nint + 1)).tolist()
        out = np.empty((x.size, self._cols))
        for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            if b - a == 1:
                seg = np.repeat(T[:, a:b], 2, axis=1)
            elif b > a:
                seg = T[:, a:b]
            else:
                continue
            out[order[a:b]] = (seg.T @ self._coeffs[j])[: b - a, : self._cols]
        out = out.reshape(shape + self.shape)
        return out[()] if out.ndim == 0 else out, interval.reshape(shape)


def _series(stack):
    """The numpy series of a one-grid, one-column stack, per interval."""
    (bp,) = stack.grids
    return [Chebyshev(c, domain=[a, b])
            for c, a, b in zip(stack.coeffs, bp[:-1], bp[1:])]


def interpolate(fn, breakpoints, deg):
    """Chebyshev interpolant of degree ``deg`` of fn on every interval of
    the breakpoints, as a one-column stack."""
    bp = np.asarray(breakpoints, dtype=float)
    return ChebStack(bp, [Chebyshev.interpolate(fn, deg, domain=[a, b]).coef
                          for a, b in zip(bp[:-1], bp[1:])])


def antiderivative(stack, start=0.0):
    """Continuous antiderivative of a one-column stack, equal to
    ``start`` at the left end of its grid, with the coefficients that
    numpy trims zero-padded."""
    acc = float(start)
    out = []
    for s in _series(stack):
        a = s.integ(lbnd=s.domain[0]) + acc
        out.append(a.coef)
        acc = a(s.domain[1])
    coeffs = np.zeros((len(out), max(c.size for c in out)))
    for j, c in enumerate(out):
        coeffs[j, : c.size] = c
    return ChebStack(stack.grids[0], coeffs)


def integral(stack):
    """Integral of a one-column stack over its grid."""
    total = 0.0
    for s in _series(stack):
        total += s.integ(lbnd=s.domain[0])(s.domain[1])
    return total


def gauss_piecewise(fn, breakpoints):
    """Composite 48-point Gauss-Legendre integral of ``fn`` on the span."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    bp = np.asarray(breakpoints, dtype=float)
    total = 0.0
    for a, b in zip(bp[:-1], bp[1:]):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.dot(weights, fn(x))
    return total
