"""Recurrence orchestration and assembly of the matched expansion.

An :class:`Expansion` builds, once per problem, every ingredient up to
the requested order: axis profiles on the graph, cross-section
correctors, end layers, junction correctors with their transmission
jumps and flux constants.  None of these depend on the slenderness
parameter, so a single instance serves a whole parameter sweep.  The
instance then evaluates the glued partial sum, its gradient, and the
individual interior residual terms at arbitrary points of the thin
domain for any slenderness value.
"""

from __future__ import annotations

import math

import numpy as np

from .cheb import ChebStack
from .config import TRANSVERSE_AXES, ProblemSpec, horner
from .corrector import _modal_eval, build_corrector, corrector_rhs
from .graph import TransmissionData, solve_limit, solve_omega_k
from .junction import (
    JunctionField,
    TruncatedJunction,
    build_inner_rhs,
    check_solvability,
    compute_delta,
    compute_dstar,
    solve_decaying,
    solve_special,
)
from .layers import build_pi

# Points per block of Expansion.evaluate: a larger call is served block
# by block, so it holds its outputs (32 bytes a point) and the
# transients of one block, at most about 700 bytes a point at order 1
# and 360 at order 0 (tracemalloc, over the quadrature points of the
# benchmark's study meshes at eps = 0.1): under 6 MB.
EVAL_BLOCK = 8_192


class RecurrenceError(RuntimeError):
    """Internal inconsistency while building the expansion terms."""


def _distinct(x, cut):
    """Per group x[cut[i]:cut[i + 1]], its distinct values and the index
    that gathers them back, as ``np.unique(group, return_inverse=True)``
    gives them (NaNs aside): the groups' values in turn, the index into
    them per point, and each group's bounds in the values.  One sort per
    group and one pass over all: on the three tubes of a served request,
    about half the time of ``np.unique`` per group."""
    order = np.concatenate([lo + np.argsort(x[lo:hi])
                            for lo, hi in zip(cut[:-1], cut[1:])])
    xs = x[order]
    new = np.empty(x.size, bool)
    np.not_equal(xs[1:], xs[:-1], out=new[1:])
    new[cut[:-1][cut[:-1] < x.size]] = True
    count = np.cumsum(new)
    at = np.empty(x.size, np.intp)
    at[order] = count - 1
    return xs[new], at, np.concatenate([[0], count])[cut]


# per tube, the axis of its axial and of its two transverse coordinates
_AXES = np.array([(i,) + TRANSVERSE_AXES[i] for i in range(3)])


class _TubeRows:
    """A request's tube points, grouped by tube once.

    ``rows`` lists the tube points, tube 0's first, then tube 1's and
    tube 2's (:meth:`tube`).  ``flat`` holds per row the flat indices
    3 row + axis of its axial and its two transverse coordinates,
    through which the rows are gathered and their results scattered.
    ``x`` is the axial coordinate, ``ta`` and ``tb`` the transverse ones
    over eps.  ``xu`` holds each tube's distinct axial positions in turn
    (:meth:`positions`), and ``at`` gathers them back per row: every
    factor of x alone is elementwise or a Chebyshev stack, whose values
    do not depend on the batch, so evaluated once per distinct x and
    gathered, it is bitwise the per-point value.
    """

    def __init__(self, pts, eps, edge):
        sels = [np.flatnonzero(edge == i) for i in range(3)]
        self.rows = np.concatenate(sels)
        self.cut = np.cumsum([0] + [sel.size for sel in sels])
        self.flat = np.empty((3, self.rows.size), np.intp)
        for i, sel in enumerate(sels):
            self.flat[:, self.tube(i)] = 3 * sel + _AXES[i, :, None]
        self.x, ta, tb = pts.take(self.flat)
        self.ta, self.tb = ta / eps, tb / eps
        self.xu, self.at, self.xcut = _distinct(self.x, self.cut)

    def tube(self, i):
        """Tube i's part of the rows."""
        return slice(self.cut[i], self.cut[i + 1])

    def positions(self, i):
        """Tube i's part of the distinct positions."""
        return slice(self.xcut[i], self.xcut[i + 1])


class Expansion:
    """All expansion terms of one problem up to ``spec.order``.

    The junction model is built lazily (orders >= 1 need it) and can be
    shared by passing ``junction``.  ``epsilon`` enters only at
    evaluation time, never during construction.
    """

    def __init__(self, spec: ProblemSpec, junction: TruncatedJunction = None,
                 junction_R=None, junction_refine=None):
        self.spec = spec
        self.order = spec.order
        self.cut_axial = spec.matching_band()
        self.cut_end = spec.end_band()
        self.graph = {}
        self.correctors = {}
        self.layers = {}
        self.inner = {}
        self.trans = {}
        self.nfields = {}
        self.solvability = {}
        self._junction = junction
        self._junction_R = junction_R
        self._junction_refine = junction_refine
        self._specials = None
        self._build()

    # -- construction ---------------------------------------------------

    @property
    def junction(self):
        if self._junction is None:
            self._junction = TruncatedJunction(
                self.spec, R=self._junction_R, refine=self._junction_refine)
        return self._junction

    def specials(self):
        if self._specials is None:
            tj = self.junction
            self._specials = (solve_special(tj, 1), solve_special(tj, 2))
        return self._specials

    def _germ_depth(self, k):
        return max(4, self.order - k) + 2 * ((self.order - k) // 2)

    def _build(self):
        spec = self.spec
        self.graph[0] = solve_limit(spec)
        for k in range(1, self.order + 1):
            if k >= 2:
                prev = self.correctors.get(k - 2)
                self.correctors[k] = tuple(
                    build_corrector(spec, i, k, self.graph[k - 2][i],
                                    prev=None if prev is None else prev[i],
                                    jmax=self._germ_depth(k))
                    for i in range(3))
            data = build_inner_rhs(spec, k, self._omega_taylor(),
                                   self._corrector_germs())
            self.inner[k] = data
            defect = check_solvability(spec, data)
            self.solvability[k] = defect
            if abs(defect) > 1e-8 * self._data_scale(k):
                raise RecurrenceError(
                    f"order-{k} junction data violate the flux balance by "
                    f"{defect:.3e}; the recurrence state is inconsistent")
            dstar = compute_dstar(spec, k)
            nhat = solve_decaying(self.junction, data)
            jumps = compute_delta(nhat.load, self.specials())
            trans = TransmissionData(delta2=float(jumps[0]),
                                     delta3=float(jumps[1]), dstar=dstar)
            self.trans[k] = trans
            rhs = [corrector_rhs(spec, i, k,
                                 self.correctors.get(k, (None,) * 3)[i])
                   for i in range(3)]
            self.graph[k] = solve_omega_k(spec, rhs, trans)
            self.nfields[k] = nhat.with_growth(
                data.growth, constant=self.graph[k][0].vertex_value)
            if k >= 2:
                self.layers[k] = tuple(
                    build_pi(spec, i, self.correctors[k][i],
                             omega=self.graph[k][i])
                    for i in range(3))
        self._build_stack()
        if self.nfields:
            self.inner_field = JunctionField.stack(
                [self.nfields[k] for k in range(1, self.order + 1)])

    def _build_stack(self):
        """One Chebyshev stack of every tube term that is a function of x
        alone, on the three tubes' grids in turn.  Its columns are the
        profile w_k and the flux antiderivative s_k of every order, then
        for k >= 2 the joined modal coefficients of u_k and du/dx,
        zero-padded to the order's (N, P) and to the highest degree.
        Every function of tube i lives on its radius' breakpoints, so the
        stack's intervals are the radii's pieces."""
        grids = [self.spec.h[i].breakpoints for i in range(3)]
        edges = [[self.graph[k][i] for k in range(self.order + 1)]
                 for i in range(3)]
        joined = {k: [c._joined.coeffs for c in corr]
                  for k, corr in self.correctors.items()}
        # the common (N, P) of each order's three correctors
        self._modal_shape = {
            k: tuple(np.max([c.shape[1:] for c in corr], axis=0).tolist())
            for k, corr in self.correctors.items()}
        deg = max([f.deg for row in edges for e in row for f in (e._w, e._s)]
                  + [c.shape[1] - 1 for cs in joined.values() for c in cs])
        first = np.cumsum([0] + [grid.size - 1 for grid in grids])
        nint, nk = first[-1], self.order + 1
        prof = np.zeros((nint, deg + 1, 2, nk))
        for i, row in enumerate(edges):
            for k, e in enumerate(row):
                prof[first[i]:first[i + 1], :, 0, k] = e._w.coeffs(deg)
                prof[first[i]:first[i + 1], :, 1, k] = e._s.coeffs(deg)
        blocks = [prof.reshape(nint, deg + 1, -1)]
        self._modal_cols = {}
        ncols = 2 * nk
        for k, cs in joined.items():
            A = np.zeros((nint, deg + 1, 2, 2) + self._modal_shape[k])
            for i, c in enumerate(cs):
                _, d, _, _, n, p = c.shape
                A[first[i]:first[i + 1], :d, :, :, :n, :p] = c
            blocks.append(A.reshape(nint, deg + 1, -1))
            self._modal_cols[k] = slice(ncols, ncols + A[0, 0].size)
            ncols += A[0, 0].size
        self._stack = ChebStack(grids, np.concatenate(blocks, axis=2))
        # the radii's power coefficients, one column per stack interval
        width = max(self.spec.h[i].power_coeffs().shape[0] for i in range(3))
        self._h_pieces = np.concatenate(
            [self.spec.h[i].power_coeffs(width) for i in range(3)], axis=1)
        # per tube and order, the affine tail p + q x and the flux c_k
        self._p, self._q, self._c0 = np.array(
            [[(e.affine[0], e.affine[1], e.c0) for e in row]
             for row in edges]).transpose(2, 0, 1)

    def _data_scale(self, k):
        scale = 1.0
        for i in range(3):
            g = self.inner[k].growth[i]
            scale = max(scale, float(np.max(np.abs(g.coeffs))))
        return scale

    def _omega_taylor(self):
        return [
            {m: edges[i].germ().coef for m, edges in self.graph.items()}
            for i in range(3)]

    def _corrector_germs(self):
        return [
            {m: corr[i].germ for m, corr in self.correctors.items()}
            for i in range(3)]

    # -- point classification --------------------------------------------

    def _split(self, pts, epsilon):
        """Tube membership per point: edge index or -1 for the bulge."""
        lim = epsilon * self.spec.ell
        edge = np.argmax(pts, axis=1)
        peak = pts[np.arange(len(pts)), edge]
        edge = np.where(peak > lim, edge, -1)
        return edge

    def _profiles(self, xu, xcut):
        """The stack's columns at the positions xu, tube i's being
        xu[xcut[i]:xcut[i + 1]], and there the profiles w_k with their
        slopes (c_k - s_k) / (pi h^2) + q_k, each (positions, orders)."""
        out, interval = self._stack.at(xu, xcut)
        nk = self.order + 1
        tube = np.repeat(np.arange(3), np.diff(xcut))
        hx = self._radii(xu, interval)
        q = self._q[tube]
        values = out[:, :nk] + self._p[tube] + q * xu[:, None]
        slopes = (self._c0[tube] - out[:, nk:2 * nk]) \
            / (math.pi * hx[:, None] ** 2) + q
        return out, values, slopes

    def _radii(self, xu, interval):
        """The radius h at the positions xu, each of the stack's
        ``interval`` (its tube's piece), in one Horner pass over the
        three tubes' stacked pieces: bitwise each tube's own pass."""
        return horner(self._h_pieces[:, interval], xu)

    def tube_profiles(self, i, x):
        """Values and slopes of the graph profiles w_k of every order on
        tube i at the axial positions x, each (points, orders)."""
        x = np.asarray(x, dtype=float)
        return self._profiles(x, np.where(np.arange(4) > i, x.size, 0))[1:]

    def _tube_terms(self, g, m, pick=None):
        """w_k + u_k, its axial slope and the two components of the
        transverse gradient of u_k, stacked, at the tube rows of ``g``
        (or its rows ``pick``), one column per built order, filled for
        k = 0..m.  One table per request: the profiles of every order
        and the correctors' modal arrays of all three tubes come from one
        Chebyshev table of the distinct positions and one contraction.
        An order's modal arrays, zero-padded to one shape in the stack
        and gathered per row, go through one modal pass: the padding
        adds exact zeros at the ends of its fixed-order sums, which
        leaves them bitwise."""
        at, ta, tb = ((g.at, g.ta, g.tb) if pick is None
                      else (g.at[pick], g.ta[pick], g.tb[pick]))
        out, core, d_ax = self._profiles(g.xu, g.xcut)
        terms = np.zeros((4, at.size, self.order + 1))
        terms[0], terms[1] = core[at], d_ax[at]
        for k in range(2, m + 1):
            A = out[:, self._modal_cols[k]].reshape(
                (-1, 2, 2) + self._modal_shape[k])
            (cv, cx), terms[2, :, k], terms[3, :, k] = _modal_eval(A[at],
                                                                   ta, tb)
            terms[0, :, k] += cv
            terms[1, :, k] += cx
        return terms

    # -- partial sum -----------------------------------------------------

    def _inputs(self, points, epsilon, m):
        """(points, eps, m) of a call, checked before any term runs:
        points of shape (n, 3), all finite, eps in (0, 1) as
        ``ProblemSpec`` requires, and an integer partial sum order m in
        [0, order], the built order by default.  A failure raises
        ``ValueError`` naming the input."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), not "
                             f"{pts.shape}")
        if not np.isfinite(pts).all():
            row = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise ValueError(f"point {row} is not finite: {pts[row]}")
        eps = float(epsilon)
        if not 0.0 < eps < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), not {epsilon!r}")
        m = self.order if m is None else m
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValueError(f"partial sum order m must be an integer, not "
                             f"{m!r}")
        if m > self.order:
            raise ValueError(f"partial sum order {m} exceeds the built "
                             f"order {self.order}")
        if m < 0:
            raise ValueError(f"partial sum order m must be at least 0, "
                             f"not {m}")
        return pts, eps, int(m)

    def evaluate(self, points, epsilon, m=None, gradient=False):
        """Glued partial sum of order m (and gradient) at physical points.

        Each term is evaluated once with its gradient; ``gradient`` only
        picks whether the gradients are returned.  Points that are not
        of shape (n, 3) or not finite, eps outside (0, 1) and m outside
        [0, order] raise ``ValueError`` before any term runs
        (``_inputs``).  The points are served ``EVAL_BLOCK`` at a time
        into the outputs; each row is bitwise its one-point batch, so the
        blocks do not change a bit.
        """
        pts, eps, m = self._inputs(points, epsilon, m)
        n = len(pts)
        vals = np.zeros(n)
        grads = np.zeros((n, 3))
        for lo in range(0, n, EVAL_BLOCK):
            blk = slice(lo, lo + EVAL_BLOCK)
            self._evaluate_block(pts[blk], eps, m, vals[blk], grads[blk])
        return (vals, grads) if gradient else vals

    def _evaluate_block(self, pts, eps, m, vals, grads):
        """The partial sum of order m and its gradient at the points,
        added into the zeroed ``vals`` and ``grads``."""
        alpha = self.spec.alpha
        n = len(pts)
        edge = self._split(pts, eps)
        g = _TubeRows(pts, eps, edge)
        chi, dchi = self.cut_axial.value_slope(g.xu / eps ** alpha)
        chi, dchi = chi[g.at], dchi[g.at]
        weight = np.ones(n)
        weight[g.rows] = 1.0 - chi
        wslope = np.zeros(n)
        wslope[g.rows] = -dchi * eps ** (-alpha)

        if g.rows.size:
            # the orders' terms, their axial slopes and transverse
            # gradients, each summed with the weights eps^k, order by
            # order (a sum over the short order axis would run a loop
            # per point)
            ek = eps ** np.arange(m + 1)
            terms = self._tube_terms(g, m)
            sums = terms[:, :, 0] * ek[0]
            for k in range(1, m + 1):
                sums += terms[:, :, k] * ek[k]
            u, ux, ua, ub = sums
            val = chi * u
            dx = eps ** (-alpha) * dchi * u + chi * ux
            da = chi * ua / eps
            db = chi * ub / eps
            # the end layers live where the end cutoff is nonzero
            layers = [(i, ek[k], self.layers[k][i]) for i in range(3)
                      for k in range(2, m + 1)
                      if not self.layers[k][i].is_zero]
            end = np.flatnonzero(g.x > self.cut_end.lo)
            if layers and end.size:
                cut, dcut = self.cut_end.value_slope(g.xu)
                cut, dcut = cut[g.at[end]], dcut[g.at[end]]
                s_end = (1.0 - g.x[end]) / eps
                bounds = np.searchsorted(end, g.cut)
                for i, e, layer in layers:
                    lo, hi = bounds[i], bounds[i + 1]
                    if lo == hi:
                        continue
                    rows = end[lo:hi]
                    lv, ds, la, lb = layer.gradient(s_end[lo:hi], g.ta[rows],
                                                    g.tb[rows])
                    c, dc = cut[lo:hi], dcut[lo:hi]
                    val[rows] += e * c * lv
                    dx[rows] += e * (dc * lv - c * ds / eps)
                    da[rows] += e * c * la / eps
                    db[rows] += e * c * lb / eps
            vals[g.rows] = val
            flat = grads.reshape(-1)
            flat[g.flat[0]] = dx
            flat[g.flat[1]] = da
            flat[g.flat[2]] = db

        live = np.flatnonzero(weight > 0.0)
        if live.size:
            tube = edge[live] >= 0
            rows = live[tube]
            nv = np.full(live.size, self.graph[0][0].vertex_value)
            ng = np.zeros((live.size, 3))
            if m >= 1:
                inner, inner_grad = self.inner_field.evaluate(
                    pts[live] / eps, eps ** np.arange(1, m + 1))
                nv += inner
                ng = inner_grad / eps
            vals[live] += weight[live] * nv
            grads[live] += weight[live, None] * ng
            grads[rows, edge[rows]] += wslope[rows] * nv[tube]

    # -- interior residual terms ------------------------------------------

    def residual_terms(self, points, epsilon, m=None, which=None):
        """Sampled interior residual contributions, keyed 1..7.

        1: uncancelled axial curvature of the two top tube orders.
        2: junction-matching commutator (axial cutoff band).
        3: end-layer commutator (end cutoff band).
        4: transverse Taylor remainder of the source in the tubes.
        5: full Taylor remainder of the source in the bulge zone.
        6, 7: vertex Taylor remainders of the tube terms hit by cutoff
        derivatives (first and second order).  The inputs are checked
        as :meth:`evaluate` checks them.
        """
        pts, eps, m = self._inputs(points, epsilon, m)
        which = tuple(range(1, 8)) if which is None else tuple(which)
        alpha = self.spec.alpha
        out = {j: np.zeros(len(pts)) for j in which}
        edge = self._split(pts, eps)
        g = _TubeRows(pts, eps, edge)
        zeta = g.xu / eps ** alpha
        chi, dchi = self.cut_axial.value_slope(zeta)
        chi, dchi = chi[g.at], dchi[g.at]
        d2chi = self.cut_axial.deriv2(zeta)[g.at]
        weight = np.ones(len(pts))
        weight[g.rows] = 1.0 - chi
        # the matching cutoff band, where its derivatives act, and the
        # tube terms there for the vertex remainders
        band = np.flatnonzero((dchi != 0.0) | (d2chi != 0.0))
        if band.size and (6 in which or 7 in which):
            core, d_ax = self._tube_terms(g, m, band)[:2]

        for i in range(3):
            rows = g.tube(i)
            sel = g.rows[rows]
            if not sel.size:
                continue
            xu = g.xu[g.positions(i)]
            at = g.at[rows] - g.xcut[i]
            x, ta, tb = g.x[rows], g.ta[rows], g.tb[rows]

            if 1 in which:
                acc = np.zeros(sel.size)
                for k in range(max(m - 1, 0), m + 1):
                    term = self.graph[k][i].d2(xu)[at]
                    corr = self.correctors.get(k)
                    if corr is not None:
                        term = term + corr[i].values(xu, ta, tb, xderiv=2,
                                                     at=at)
                    acc += eps ** k * term
                out[1][sel] += chi[rows] * acc

            if 3 in which:
                dchid = self.cut_end.deriv(xu)[at]
                d2chid = self.cut_end.deriv2(xu)[at]
                end = (dchid != 0.0) | (d2chid != 0.0)
                if end.any():
                    s = (1.0 - x[end]) / eps
                    acc = np.zeros(end.sum())
                    for k in range(2, m + 1):
                        lay = self.layers[k][i]
                        if lay.is_zero:
                            continue
                        lv, ds, _, _ = lay.gradient(s, ta[end], tb[end])
                        acc += eps ** k * (-2.0 / eps * dchid[end] * ds
                                           + d2chid[end] * lv)
                    out[3][sel[end]] += acc

            if 4 in which:
                fref = self.spec.f(pts[sel, 0], pts[sel, 1], pts[sel, 2])
                taylor = np.zeros(sel.size)
                for q in range(0, m - 1):
                    sl = self.spec.f.transverse_taylor(i, q)
                    taylor += eps ** q * sl(x, ta, tb)
                out[4][sel] += chi[rows] * (fref - taylor)

            lo, hi = np.searchsorted(band, g.cut[i:i + 2])
            if lo == hi:
                continue
            here = band[lo:hi]
            x, ta, tb = g.x[here], g.ta[here], g.tb[here]
            d1 = eps ** (-alpha) * dchi[here]
            d2 = eps ** (-2.0 * alpha) * d2chi[here]
            if 2 in which and m >= 1:
                dval, val = self._matching_mismatch(i, x, ta, tb, eps, m)
                out[2][g.rows[here]] += -2.0 / eps * d1 * dval - d2 * val
            if 6 in which or 7 in which:
                r6, r7 = self._vertex_remainders(i, x, ta, tb, eps, m,
                                                 core[lo:hi], d_ax[lo:hi])
                if 6 in which:
                    out[6][g.rows[here]] += 2.0 * d1 * r6
                if 7 in which:
                    out[7][g.rows[here]] += d2 * r7

        if 5 in which:
            live = weight > 0
            if live.any():
                p = pts[live]
                fv = self.spec.f(p[:, 0], p[:, 1], p[:, 2])
                trunc = self.spec.f.poly.total_degree_truncate(m - 2)
                out[5][live] += weight[live] * (fv - trunc(p[:, 0], p[:, 1],
                                                           p[:, 2]))
        return out

    def _matching_mismatch(self, i, x, ta, tb, eps, m):
        """Axial slope and value of the inner sum sum_{k=1..m} eps^k N_k
        minus its tube limit (constant, jump and outlet growth) at tube
        points, in the fast variables."""
        a, b = TRANSVERSE_AXES[i]
        xi = np.empty((x.size, 3))
        xi[:, i] = x / eps
        xi[:, a] = ta
        xi[:, b] = tb
        ek = eps ** np.arange(1, m + 1)
        val, grad = self.inner_field.evaluate(xi, ek)
        psi, dpsi, _, _ = self.inner_field.outlet_growth(i, xi[:, i], ta, tb,
                                                         ek)
        limit = sum(eps ** k * (self.nfields[k].constant
                                + self.trans[k].jumps[i])
                    for k in range(1, m + 1))
        return grad[:, i] - dpsi, val - limit - psi

    def _vertex_remainders(self, i, x, ta, tb, eps, m, core, dcore):
        """Taylor remainders about the vertex of the tube terms ``core``
        (w_k + u_k per column) and their axial slopes ``dcore``."""
        valid = self.spec.h[i].plateau0
        if x.size and float(x.max()) > valid + 1e-12:
            raise RecurrenceError(
                "cutoff band leaves the constant-radius stretch; vertex "
                "Taylor data are not valid there")
        r6 = np.zeros(x.size)
        r7 = np.zeros(x.size)
        for k in range(0, m + 1):
            depth = m - k
            tay = np.zeros(x.size)
            dtay = np.zeros(x.size)
            wg = self.graph[k][i].germ().coef
            for j in range(min(depth, len(wg) - 1) + 1):
                tay += wg[j] * x ** j
                if j >= 1:
                    dtay += j * wg[j] * x ** (j - 1)
            corr = self.correctors.get(k)
            if corr is not None:
                c = corr[i]
                for j in range(min(depth, len(c.germ) - 1) + 1):
                    gv = c.germ[j].evaluate(ta, tb)
                    tay += gv * x ** j
                    if j >= 1:
                        dtay += j * gv * x ** (j - 1)
            r6 += eps ** k * (dcore[:, k] - dtay)
            r7 += eps ** k * (core[:, k] - tay)
        return r6, r7
