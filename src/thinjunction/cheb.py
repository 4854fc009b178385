"""Piecewise Chebyshev series on [0, 1] used by the edge ODE solves.

Every Chebyshev-in-x quantity of the package is evaluated by one kernel,
:meth:`ChebStack.at`.  It maps each point to the variable t of its
interval and builds T_0(t) .. T_deg(t), in blocks of ``BLOCK`` points, by
doubling: given the rows T_0 .. T_m, the product identity
T_{m+j} = 2 T_m T_j - T_{m-j} gives the rows T_{m+1} .. T_{2m} in one
vectorised pass, so degree 65 takes 7 passes where the three-term
recurrence takes 64 steps.  On the few dozen distinct positions of a
served request each step costs mostly its ufunc calls, so the passes
are what count.  A :class:`ChebStack` holds many series stacked along
trailing axes, and one matrix product per interval of a block gives all
of them.  Its grid may be several breakpoint grids whose intervals are
numbered in turn, each point looked up on its own grid: when an
expansion is served, the graph profiles of all orders and the
correctors' modal coefficients of all three tubes come from one table
and one contraction per request.  The identity holds for |t| > 1 too,
so points outside a grid are extrapolated by the polynomial of the end
interval.  Every step is elementwise, so a point's row does not depend
on its batch.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.polynomial import Chebyshev

# points per table block; bounds the table of a large call to a few MB
BLOCK = 4096


def merge_breakpoints(*lists):
    pts = np.concatenate([np.asarray(l, dtype=float) for l in lists])
    pts = np.sort(pts)
    keep = [pts[0]]
    for p in pts[1:]:
        if p - keep[-1] > 1e-12:
            keep.append(p)
    return np.asarray(keep)


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
    in turn.  ``coeffs`` has shape (intervals, deg+1, *shape); evaluating
    at points of shape S gives an array of shape S + shape.
    """

    def __init__(self, breakpoints, coeffs):
        if np.ndim(breakpoints[0]) == 0:
            breakpoints = [breakpoints]
        grids = [np.asarray(bp, dtype=float) for bp in breakpoints]
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

    def __call__(self, x, cut=None):
        """Every stacked series at x; on several grids, the points
        x[cut[g]:cut[g + 1]] are on grid g."""
        return self.at(x, cut)[0]

    def at(self, x, cut=None):
        """(values, intervals): every stacked series at x, as a call
        gives them, and the interval of each point, numbered in turn over
        the grids, the end ones extended outwards.

        Each block of ``BLOCK`` points is sorted by interval, so its
        table T_0..T_deg has columns that run interval by interval, and
        the stack is contracted with one product per interval segment.
        """
        x = np.asarray(x, dtype=float)
        shape, x = x.shape, x.ravel()
        cut = [0, x.size] if cut is None else list(cut)
        nint = self._first[-1]
        out = np.empty((x.size, self._cols))
        interval = np.empty(x.size, np.intp)
        for lo in range(0, x.size, BLOCK):
            xb = x[lo: lo + BLOCK]
            # the interval of each point on its own grid, the end ones
            # extended outwards, numbered after the earlier grids' intervals
            idx = np.empty(xb.size, np.intp)
            for inner, first, a, b in zip(self._inner, self._first, cut[:-1],
                                          cut[1:]):
                a, b = max(a - lo, 0), min(b - lo, xb.size)
                if b > a:
                    idx[a:b] = np.searchsorted(inner, xb[a:b],
                                               side="right") + first
            # a stable sort of keys of 16 bits or fewer is a radix sort
            order = np.argsort(idx.astype(np.min_scalar_type(nint)),
                               kind="stable")
            idx = idx[order]
            interval[lo + order] = idx
            T = _recurrence(self._offset[idx] + self._scale[idx] * xb[order],
                            self.deg)
            bounds = np.searchsorted(idx, np.arange(nint + 1)).tolist()
            res = np.empty((xb.size, self._cols))
            for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                if b - a == 1:
                    seg = np.repeat(T[:, a:b], 2, axis=1)
                elif b > a:
                    seg = T[:, a:b]
                else:
                    continue
                res[a:b] = (seg.T @ self._coeffs[j])[: b - a, : self._cols]
            out[lo + order] = res
        out = out.reshape(shape + self.shape)
        return out[()] if out.ndim == 0 else out, interval.reshape(shape)


class PiecewiseCheb:
    """Chebyshev interpolants per interval with continuous antiderivatives."""

    def __init__(self, breakpoints, series):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.series = list(series)

    @classmethod
    def interpolate(cls, fn, breakpoints, deg=64):
        bp = np.asarray(breakpoints, dtype=float)
        series = [Chebyshev.interpolate(fn, deg, domain=[bp[j], bp[j + 1]])
                  for j in range(len(bp) - 1)]
        return cls(bp, series)

    @property
    def deg(self):
        return max(s.coef.size for s in self.series) - 1

    def coeffs(self, deg=None):
        """(intervals, deg+1) coefficients, zero-padded to ``deg``."""
        deg = self.deg if deg is None else deg
        out = np.zeros((len(self.series), deg + 1))
        for j, s in enumerate(self.series):
            out[j, : s.coef.size] = s.coef
        return out

    @cached_property
    def _stack(self):
        return ChebStack(self.breakpoints, self.coeffs())

    def __call__(self, x):
        return self._stack(x)

    def deriv(self, m=1):
        return PiecewiseCheb(self.breakpoints, [s.deriv(m) for s in self.series])

    def antiderivative(self, start=0.0):
        """Continuous antiderivative equal to ``start`` at the left endpoint."""
        acc = float(start)
        out = []
        for s in self.series:
            a = s.integ(lbnd=s.domain[0])
            a = a + acc
            out.append(a)
            acc = a(s.domain[1])
        return PiecewiseCheb(self.breakpoints, out)

    def integral(self):
        total = 0.0
        for s in self.series:
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
