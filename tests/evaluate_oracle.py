"""Term-by-term reference for ``Expansion.evaluate`` and ``residual_terms``.

The former serving path, kept as the oracle the one-pass evaluation must
match: each order's graph profile and each corrector go through numpy's
per-interval Clenshaw sums (``cheb_oracle``), every order k of the
junction part is located and interpolated on its own, each corrector is
evaluated once for values, once for the axial derivative and once for
the transverse gradient (rebuilding the Chebyshev derivative on every
call), and each end layer rebuilds its mode table for values and again,
mode by mode, for the gradient.  The per-term methods it called are
copied in as functions of the built objects, which it reads but never
changes.

``evaluate_per_point`` and ``residual_terms_per_point`` keep the
one-pass serving path as it was before the distinct-axial-position
pass: the same kernels, with every axial factor (cut-offs, Chebyshev
table, profiles, corrector modal arrays) evaluated at every point, and
with one Chebyshev stack of profiles and one of each corrector's modal
arrays per tube, each tube's modal arrays unpadded.  The served pass,
one table and one contraction for all three tubes, must match them bit
for bit where the modal kernel's sums keep their order (one harmonic,
at most four powers), and within rounding otherwise.
"""

import numpy as np
from scipy import special

from cheb_oracle import modal_batch, piecewise_call
from thinjunction.cheb import ChebStack
from thinjunction.config import TRANSVERSE_AXES
from thinjunction.corrector import _modal_eval


# -- graph profiles -----------------------------------------------------------

def edge_value(w, x):
    p, q = w.affine
    return piecewise_call(w._w, x) + p + q * np.asarray(x, dtype=float)


def _edge_slope(w, x):
    return (w.c0 - piecewise_call(w._s, x)) / (np.pi * w.h(x) ** 2)


def edge_d1(w, x):
    return _edge_slope(w, x) + w.affine[1]


def edge_d2(w, x):
    h = w.h(x)
    return (-w.rhs(x) - 2.0 * np.pi * h * w.h.deriv(x) * _edge_slope(w, x)) \
        / (np.pi * h ** 2)


# -- modal kernels of the cross-section correctors --------------------------

def _polar(xa, xb):
    return np.hypot(xa, xb), np.arctan2(xb, xa)


def _trig_tables(theta, N):
    ang = theta[:, None] * np.arange(N)
    return np.cos(ang), np.sin(ang)


def _power_table(r, P, shift=0):
    p = np.maximum(np.arange(P) - shift, 0)
    return r[:, None] ** p


def _modal_values(A, xa, xb):
    r, t = _polar(xa, xb)
    N, P = A.shape[2], A.shape[3]
    if A.shape[0] == 1 and xa.size > 1:
        A = np.broadcast_to(A, (xa.size,) + A.shape[1:])
    cosm, sinm = _trig_tables(t, N)
    rp = _power_table(r, P)
    return (np.einsum("knp,kn,kp->k", A[:, 0], cosm, rp)
            + np.einsum("knp,kn,kp->k", A[:, 1], sinm, rp))


def _modal_gradient(A, xa, xb):
    r, t = _polar(xa, xb)
    N, P = A.shape[2], A.shape[3]
    if A.shape[0] == 1 and xa.size > 1:
        A = np.broadcast_to(A, (xa.size,) + A.shape[1:])
    cosm, sinm = _trig_tables(t, N)
    rp1 = _power_table(r, P, shift=1)
    pfac = np.arange(P, dtype=float)
    nfac = np.arange(N, dtype=float)
    Ac = A[:, 0] * pfac
    As = A[:, 1] * pfac
    ur = (np.einsum("knp,kn,kp->k", Ac, cosm, rp1)
          + np.einsum("knp,kn,kp->k", As, sinm, rp1))
    Bc = A[:, 0] * nfac[:, None]
    Bs = A[:, 1] * nfac[:, None]
    ut = (np.einsum("knp,kn,kp->k", Bs, cosm, rp1)
          - np.einsum("knp,kn,kp->k", Bc, sinm, rp1))
    ct, st = np.cos(t), np.sin(t)
    return ct * ur - st * ut, st * ur + ct * ut


def _disk_batch(d):
    return np.stack([d.cos, d.sin])[None, :, :, :]


def disk_evaluate(d, xa, xb):
    xa = np.asarray(xa, dtype=float)
    out = _modal_values(_disk_batch(d), xa.ravel(),
                        np.asarray(xb, float).ravel())
    return out.reshape(xa.shape) if xa.shape else float(out[0])


def disk_gradient(d, xa, xb):
    xa = np.asarray(xa, dtype=float)
    ga, gb = _modal_gradient(_disk_batch(d), xa.ravel(),
                             np.asarray(xb, float).ravel())
    if xa.shape:
        return ga.reshape(xa.shape), gb.reshape(xa.shape)
    return float(ga[0]), float(gb[0])


def corr_values(corr, x, xa, xb, xderiv=0):
    return _modal_values(modal_batch(corr, x, xderiv),
                         np.asarray(xa, float).ravel(),
                         np.asarray(xb, float).ravel())


def corr_transverse_gradient(corr, x, xa, xb, xderiv=0):
    return _modal_gradient(modal_batch(corr, x, xderiv),
                           np.asarray(xa, float).ravel(),
                           np.asarray(xb, float).ravel())


# -- end layers --------------------------------------------------------------

def _jn_over_r(n, lam, r):
    r = np.asarray(r, dtype=float)
    small = r < 1e-300
    safe = np.where(small, 1.0, r)
    out = special.jv(n, lam * r) / safe
    if np.any(small):
        limit = 0.5 * lam if n == 1 else 0.0
        out = np.where(small, limit, out)
    return out


def _mode_values(mode, r, theta):
    if mode.kind == "const":
        return np.ones(np.broadcast(r, theta).shape)
    radial = special.jv(mode.n, mode.lam * r)
    if mode.kind == "cos":
        return radial * np.cos(mode.n * theta)
    return radial * np.sin(mode.n * theta)


def _mode_gradient_polar(mode, r, theta):
    if mode.kind == "const":
        z = np.zeros(np.broadcast(r, theta).shape)
        return z, z.copy()
    lam = mode.lam
    dr = lam * special.jvp(mode.n, lam * r)
    over_r = mode.n * _jn_over_r(mode.n, lam, r)
    if mode.kind == "cos":
        return dr * np.cos(mode.n * theta), -over_r * np.sin(mode.n * theta)
    return dr * np.sin(mode.n * theta), over_r * np.cos(mode.n * theta)


def layer_values(term, s, xa, xb):
    s = np.asarray(s, dtype=float)
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    if term.is_zero:
        return np.zeros(np.broadcast(s, xa).shape)
    r = np.hypot(xa, xb)
    t = np.arctan2(xb, xa)
    V = np.column_stack([_mode_values(m, np.ravel(r), np.ravel(t))
                         for m in term.spectrum.modes])
    E = np.exp(-np.outer(np.ravel(np.broadcast_to(s, r.shape)),
                         term.spectrum.rates))
    out = (V * E) @ term.coeffs
    return out.reshape(r.shape) if r.shape else float(out[0])


def layer_gradient(term, s, xa, xb):
    s = np.asarray(s, dtype=float).ravel()
    xa = np.asarray(xa, dtype=float).ravel()
    xb = np.asarray(xb, dtype=float).ravel()
    if term.is_zero:
        z = np.zeros(xa.shape)
        return z, z.copy(), z.copy()
    r = np.hypot(xa, xb)
    t = np.arctan2(xb, xa)
    rates = term.spectrum.rates
    E = np.exp(-np.outer(s, rates)) * term.coeffs
    ds = np.zeros(xa.shape)
    ga = np.zeros(xa.shape)
    gb = np.zeros(xa.shape)
    ct, st = np.cos(t), np.sin(t)
    for j, mode in enumerate(term.spectrum.modes):
        if term.coeffs[j] == 0.0:
            continue
        w = E[:, j]
        ds -= rates[j] * w * _mode_values(mode, r, t)
        dr, dt_over_r = _mode_gradient_polar(mode, r, t)
        ga += w * (ct * dr - st * dt_over_r)
        gb += w * (st * dr + ct * dt_over_r)
    return ds, ga, gb


# -- junction fields ---------------------------------------------------------

def growth_value(g, ax, ta, tb):
    ax = np.asarray(ax, dtype=float)
    out = np.zeros_like(ax)
    for j in range(len(g.coeffs) - 1, -1, -1):
        term = np.full_like(ax, g.coeffs[j])
        if g.disks[j] is not None:
            term = term + disk_evaluate(g.disks[j], ta, tb)
        out = out * ax + term
    return out


def growth_axial_slope(g, ax, ta, tb):
    ax = np.asarray(ax, dtype=float)
    out = np.zeros_like(ax)
    for j in range(len(g.coeffs) - 1, 0, -1):
        term = np.full_like(ax, j * g.coeffs[j])
        if g.disks[j] is not None:
            term = term + j * disk_evaluate(g.disks[j], ta, tb)
        out = out * ax + term
    return out


def growth_transverse_gradient(g, ax, ta, tb):
    ax = np.asarray(ax, dtype=float)
    ga = np.zeros_like(ax)
    gb = np.zeros_like(ax)
    for j, d in enumerate(g.disks):
        if d is None:
            continue
        da, db = disk_gradient(d, ta, tb)
        ga += ax ** j * da
        gb += ax ** j * db
    return ga, gb


def locator_evaluate(loc, u, points, gradient=False):
    tet, lam = loc.locate(points)
    if np.any(tet < 0):
        raise ValueError("points outside the mesh")
    nodal = u[loc._tets[tet]]
    vals = np.einsum("pa,pa->p", nodal, lam)
    if not gradient:
        return vals
    # the locator holds rows 1-3 of each tet's barycentric gradients;
    # row 0 is minus their sum, in tet_gradients' order
    rows = loc._grads[tet]
    first = -(rows[:, 0] + rows[:, 1] + rows[:, 2])
    grads = np.einsum("pad,pa->pd",
                      np.concatenate([first[:, None], rows], axis=1), nodal)
    return vals, grads


def field_evaluate(nf, points, gradient=False):
    points = np.asarray(points, dtype=float)
    loc = nf.junction.ctx.locator()
    if gradient:
        vals, grads = locator_evaluate(loc, nf.decay, points, gradient=True)
        grads = grads.copy()
    else:
        vals = locator_evaluate(loc, nf.decay, points)
    vals = vals + nf.constant
    step = nf.junction.step
    for i in range(3):
        g = nf.growth[i]
        if g is None:
            continue
        ax = points[:, i]
        live = ax > step.lo
        if not live.any():
            continue
        a, b = TRANSVERSE_AXES[i]
        axl, ta, tb = ax[live], points[live, a], points[live, b]
        chi = step(axl)
        gval = growth_value(g, axl, ta, tb)
        vals[live] += chi * gval
        if gradient:
            grads[live, i] += (step.deriv(axl) * gval
                               + chi * growth_axial_slope(g, axl, ta, tb))
            ga, gb = growth_transverse_gradient(g, axl, ta, tb)
            grads[live, a] += chi * ga
            grads[live, b] += chi * gb
    return (vals, grads) if gradient else vals


# -- the expansion -----------------------------------------------------------

def evaluate_reference(exp, points, epsilon, m=None, gradient=False):
    pts = np.asarray(points, dtype=float)
    eps = float(epsilon)
    m = exp.order if m is None else int(m)
    alpha = exp.spec.alpha
    n = len(pts)
    vals = np.zeros(n)
    grads = np.zeros((n, 3)) if gradient else None

    edge = exp._split(pts, eps)
    weight = np.ones(n)
    wslope = np.zeros(n)

    for i in range(3):
        sel = np.flatnonzero(edge == i)
        if sel.size == 0:
            continue
        a, b = TRANSVERSE_AXES[i]
        x = pts[sel, i]
        ta, tb = pts[sel, a] / eps, pts[sel, b] / eps
        zeta = x / eps ** alpha
        chi = exp.cut_axial(zeta)
        dchi = exp.cut_axial.deriv(zeta)
        weight[sel] = 1.0 - chi
        wslope[sel] = -dchi * eps ** (-alpha)
        chid = exp.cut_end(x)
        dchid = exp.cut_end.deriv(x)

        for k in range(0, m + 1):
            ek = eps ** k
            w = exp.graph[k][i]
            core = edge_value(w, x)
            corr = exp.correctors.get(k)
            corr = corr[i] if corr is not None else None
            if corr is not None:
                core = core + corr_values(corr, x, ta, tb)
            vals[sel] += ek * chi * core
            if gradient:
                d_ax = edge_d1(w, x)
                if corr is not None:
                    d_ax = d_ax + corr_values(corr, x, ta, tb, xderiv=1)
                    ga, gb = corr_transverse_gradient(corr, x, ta, tb)
                    grads[sel, a] += ek * chi * ga / eps
                    grads[sel, b] += ek * chi * gb / eps
                grads[sel, i] += ek * (eps ** (-alpha) * dchi * core
                                       + chi * d_ax)
            layer = exp.layers.get(k)
            if layer is not None and not layer[i].is_zero:
                s = (1.0 - x) / eps
                lv = layer_values(layer[i], s, ta, tb)
                vals[sel] += ek * chid * lv
                if gradient:
                    ds, ga, gb = layer_gradient(layer[i], s, ta, tb)
                    grads[sel, i] += ek * (dchid * lv - chid * ds / eps)
                    grads[sel, a] += ek * chid * ga / eps
                    grads[sel, b] += ek * chid * gb / eps

    live = np.flatnonzero(weight > 0.0)
    if live.size:
        xi = pts[live] / eps
        base = exp.graph[0][0].vertex_value
        vals[live] += weight[live] * base
        if gradient:
            tube_live = edge[live] >= 0
            rows = live[tube_live]
            grads[rows, edge[rows]] += wslope[rows] * base
        for k in range(1, m + 1):
            ek = eps ** k
            if gradient:
                nv, ng = field_evaluate(exp.nfields[k], xi, gradient=True)
                grads[live] += ek * weight[live, None] * ng / eps
                rows = live[tube_live]
                grads[rows, edge[rows]] += (ek * wslope[rows]
                                            * nv[tube_live])
            else:
                nv = field_evaluate(exp.nfields[k], xi)
            vals[live] += ek * weight[live] * nv
    return (vals, grads) if gradient else vals


def residual_terms_reference(exp, points, epsilon, m=None, which=None):
    pts = np.asarray(points, dtype=float)
    eps = float(epsilon)
    m = exp.order if m is None else int(m)
    which = tuple(range(1, 8)) if which is None else tuple(which)
    alpha = exp.spec.alpha
    out = {j: np.zeros(len(pts)) for j in which}
    edge = exp._split(pts, eps)

    for i in range(3):
        sel = np.flatnonzero(edge == i)
        if sel.size == 0:
            continue
        a, b = TRANSVERSE_AXES[i]
        x = pts[sel, i]
        ta, tb = pts[sel, a] / eps, pts[sel, b] / eps
        zeta = x / eps ** alpha
        chi = exp.cut_axial(zeta)
        dchi = exp.cut_axial.deriv(zeta)
        d2chi = exp.cut_axial.deriv2(zeta)

        if 1 in which:
            acc = np.zeros(sel.size)
            for k in range(max(m - 1, 0), m + 1):
                term = edge_d2(exp.graph[k][i], x)
                corr = exp.correctors.get(k)
                if corr is not None:
                    term = term + corr_values(corr[i], x, ta, tb, xderiv=2)
                acc += eps ** k * term
            out[1][sel] += chi * acc

        if 2 in which:
            _matching_commutator(exp, out[2], sel, i, x, ta, tb, eps, m,
                                 dchi, d2chi)

        if 3 in which:
            chid = exp.cut_end(x)
            dchid = exp.cut_end.deriv(x)
            d2chid = exp.cut_end.deriv2(x)
            band = (dchid != 0.0) | (d2chid != 0.0)
            if band.any():
                s = (1.0 - x[band]) / eps
                acc = np.zeros(band.sum())
                for k in range(2, m + 1):
                    lay = exp.layers[k][i]
                    if lay.is_zero:
                        continue
                    ds, _, _ = layer_gradient(lay, s, ta[band], tb[band])
                    lv = layer_values(lay, s, ta[band], tb[band])
                    acc += eps ** k * (-2.0 / eps * dchid[band] * ds
                                       + d2chid[band] * lv)
                out[3][sel[band]] += acc

        if 4 in which:
            fref = exp.spec.f(pts[sel, 0], pts[sel, 1], pts[sel, 2])
            taylor = np.zeros(sel.size)
            for q in range(0, m - 1):
                sl = exp.spec.f.transverse_taylor(i, q)
                taylor += eps ** q * sl(x, ta, tb)
            out[4][sel] += chi * (fref - taylor)

        if 6 in which or 7 in which:
            band = (dchi != 0.0) | (d2chi != 0.0)
            if band.any():
                r6, r7 = _vertex_remainders(
                    exp, i, x[band], ta[band], tb[band], eps, m)
                if 6 in which:
                    out[6][sel[band]] += (2.0 * eps ** (-alpha)
                                          * dchi[band] * r6)
                if 7 in which:
                    out[7][sel[band]] += (eps ** (-2.0 * alpha)
                                          * d2chi[band] * r7)

    if 5 in which:
        weight = np.ones(len(pts))
        tube = edge >= 0
        if tube.any():
            zeta = pts[tube, :][np.arange(tube.sum()), edge[tube]] \
                / eps ** alpha
            weight[tube] = 1.0 - exp.cut_axial(zeta)
        live = weight > 0
        if live.any():
            p = pts[live]
            fv = exp.spec.f(p[:, 0], p[:, 1], p[:, 2])
            trunc = exp.spec.f.poly.total_degree_truncate(m - 2)
            out[5][live] += weight[live] * (fv - trunc(p[:, 0], p[:, 1],
                                                       p[:, 2]))
    return out


def _matching_commutator(exp, target, sel, i, x, ta, tb, eps, m, dchi,
                         d2chi):
    band = (dchi != 0.0) | (d2chi != 0.0)
    if not band.any():
        return
    alpha = exp.spec.alpha
    rows = sel[band]
    xi_ax = x[band] / eps
    pts_xi = np.zeros((band.sum(), 3))
    pts_xi[:, i] = xi_ax
    a, b = TRANSVERSE_AXES[i]
    pts_xi[:, a] = ta[band]
    pts_xi[:, b] = tb[band]
    step = exp.junction.step
    chi_j = step(xi_ax)
    dchi_j = step.deriv(xi_ax)
    loc = exp.junction.ctx.locator()
    for k in range(1, m + 1):
        nf = exp.nfields[k]
        dec, dgrad = locator_evaluate(loc, nf.decay, pts_xi, gradient=True)
        delta = exp.trans[k].jumps[i]
        g = exp.inner[k].growth[i]
        psi = growth_value(g, xi_ax, ta[band], tb[band])
        dpsi = growth_axial_slope(g, xi_ax, ta[band], tb[band])
        val = dec - delta + (chi_j - 1.0) * psi
        dval = dgrad[:, i] + dchi_j * psi + (chi_j - 1.0) * dpsi
        target[rows] += eps ** k * (
            -2.0 * eps ** (-1.0 - alpha) * dchi[band] * dval
            - eps ** (-2.0 * alpha) * d2chi[band] * val)


def _vertex_remainders(exp, i, x, ta, tb, eps, m):
    valid = exp.spec.h[i].plateau0
    if x.size and float(x.max()) > valid + 1e-12:
        raise RuntimeError("cutoff band leaves the constant-radius stretch")
    r6 = np.zeros(x.size)
    r7 = np.zeros(x.size)
    for k in range(0, m + 1):
        depth = m - k
        w = exp.graph[k][i]
        core = edge_value(w, x)
        dcore = edge_d1(w, x)
        tay = np.zeros(x.size)
        dtay = np.zeros(x.size)
        wg = w.germ().coef
        for j in range(min(depth, len(wg) - 1) + 1):
            tay += wg[j] * x ** j
            if j >= 1:
                dtay += j * wg[j] * x ** (j - 1)
        corr = exp.correctors.get(k)
        if corr is not None:
            c = corr[i]
            core = core + corr_values(c, x, ta, tb)
            dcore = dcore + corr_values(c, x, ta, tb, xderiv=1)
            for j in range(min(depth, len(c.germ) - 1) + 1):
                gv = disk_evaluate(c.germ[j], ta, tb)
                tay += gv * x ** j
                if j >= 1:
                    dtay += j * gv * x ** (j - 1)
        r6 += eps ** k * (dcore - dtay)
        r7 += eps ** k * (core - tay)
    return r6, r7


# -- the one-pass path with per-point axial factors ---------------------------

def _tubes_per_point(exp, pts, eps, edge):
    for i in range(3):
        sel = np.flatnonzero(edge == i)
        if sel.size == 0:
            continue
        a, b = TRANSVERSE_AXES[i]
        x = pts[sel, i]
        yield (i, sel, x, pts[sel, a] / eps, pts[sel, b] / eps,
               x / eps ** exp.spec.alpha)


def tube_profiles_per_tube(exp, i, x):
    """Values and slopes of tube i's graph profiles of every order, each
    (points, orders), from one Chebyshev stack of the tube's w_k and s_k,
    as the tube's own stack served them before the three tubes shared
    one."""
    edges = [exp.graph[k][i] for k in range(exp.order + 1)]
    deg = max(f.deg for e in edges for f in (e._w, e._s))
    stack = ChebStack(edges[0].h.breakpoints, np.stack(
        [np.stack([e._w.coeffs(deg), e._s.coeffs(deg)], axis=-1)
         for e in edges], axis=2))
    out = stack(x)
    p, q, c0 = (np.array(v) for v in zip(*[e.affine + (e.c0,)
                                           for e in edges]))
    values = out[:, :, 0] + p + q * x[:, None]
    slopes = (c0 - out[:, :, 1]) / (np.pi * edges[0].h(x)[:, None] ** 2) \
        + q
    return values, slopes


def _tube_terms_per_point(exp, i, x, ta, tb, m):
    core, d_ax = tube_profiles_per_tube(exp, i, x)
    ga = np.zeros_like(core)
    gb = np.zeros_like(core)
    for k in range(2, m + 1):
        corr = exp.correctors[k][i]
        (cv, cx), ga[:, k], gb[:, k] = _modal_eval(corr._joined(x), ta, tb)
        core[:, k] += cv
        d_ax[:, k] += cx
    return core, d_ax, ga, gb


def evaluate_per_point(exp, points, epsilon, m=None):
    """(values, gradients) of ``Expansion.evaluate``, axial factors per
    point."""
    pts, eps, m = exp._inputs(points, epsilon, m)
    alpha = exp.spec.alpha
    n = len(pts)
    vals = np.zeros(n)
    grads = np.zeros((n, 3))
    edge = exp._split(pts, eps)
    weight = np.ones(n)
    wslope = np.zeros(n)

    for i, sel, x, ta, tb, zeta in _tubes_per_point(exp, pts, eps, edge):
        a, b = TRANSVERSE_AXES[i]
        chi = exp.cut_axial(zeta)
        dchi = exp.cut_axial.deriv(zeta)
        weight[sel] = 1.0 - chi
        wslope[sel] = -dchi * eps ** (-alpha)
        end = x > exp.cut_end.lo
        chid = exp.cut_end(x)
        dchid = exp.cut_end.deriv(x)
        ek = eps ** np.arange(m + 1)
        terms = np.stack(_tube_terms_per_point(exp, i, x, ta, tb, m))
        sums = terms[:, :, 0] * ek[0]
        for k in range(1, m + 1):
            sums += terms[:, :, k] * ek[k]
        u, ux, ua, ub = sums
        vals[sel] = chi * u
        grads[sel, i] = eps ** (-alpha) * dchi * u + chi * ux
        grads[sel, a] = chi * ua / eps
        grads[sel, b] = chi * ub / eps
        for k in range(2, m + 1):
            layer = exp.layers[k]
            if not layer[i].is_zero and end.any():
                lv, ds, la, lb = layer[i].gradient(
                    (1.0 - x[end]) / eps, ta[end], tb[end])
                c, dc = chid[end], dchid[end]
                vals[sel[end]] += ek[k] * c * lv
                grads[sel[end], i] += ek[k] * (dc * lv - c * ds / eps)
                grads[sel[end], a] += ek[k] * c * la / eps
                grads[sel[end], b] += ek[k] * c * lb / eps

    live = np.flatnonzero(weight > 0.0)
    if live.size:
        tube = edge[live] >= 0
        rows = live[tube]
        nv = np.full(live.size, exp.graph[0][0].vertex_value)
        ng = np.zeros((live.size, 3))
        if m >= 1:
            inner, inner_grad = exp.inner_field.evaluate(
                pts[live] / eps, eps ** np.arange(1, m + 1))
            nv += inner
            ng = inner_grad / eps
        vals[live] += weight[live] * nv
        grads[live] += weight[live, None] * ng
        grads[rows, edge[rows]] += wslope[rows] * nv[tube]
    return vals, grads


def residual_terms_per_point(exp, points, epsilon, m=None):
    """All seven terms of ``Expansion.residual_terms``, axial factors per
    point."""
    pts, eps, m = exp._inputs(points, epsilon, m)
    alpha = exp.spec.alpha
    out = {j: np.zeros(len(pts)) for j in range(1, 8)}
    edge = exp._split(pts, eps)
    weight = np.ones(len(pts))

    for i, sel, x, ta, tb, zeta in _tubes_per_point(exp, pts, eps, edge):
        chi = exp.cut_axial(zeta)
        dchi = exp.cut_axial.deriv(zeta)
        d2chi = exp.cut_axial.deriv2(zeta)
        weight[sel] = 1.0 - chi

        acc = np.zeros(sel.size)
        for k in range(max(m - 1, 0), m + 1):
            term = exp.graph[k][i].d2(x)
            corr = exp.correctors.get(k)
            if corr is not None:
                term = term + _modal_eval(
                    corr[i].modal_batch(x, 2)[:, None], ta, tb)[0][0]
            acc += eps ** k * term
        out[1][sel] += chi * acc

        dchid = exp.cut_end.deriv(x)
        d2chid = exp.cut_end.deriv2(x)
        band = (dchid != 0.0) | (d2chid != 0.0)
        if band.any():
            s = (1.0 - x[band]) / eps
            acc = np.zeros(band.sum())
            for k in range(2, m + 1):
                lay = exp.layers[k][i]
                if lay.is_zero:
                    continue
                lv, ds, _, _ = lay.gradient(s, ta[band], tb[band])
                acc += eps ** k * (-2.0 / eps * dchid[band] * ds
                                   + d2chid[band] * lv)
            out[3][sel[band]] += acc

        fref = exp.spec.f(pts[sel, 0], pts[sel, 1], pts[sel, 2])
        taylor = np.zeros(sel.size)
        for q in range(0, m - 1):
            sl = exp.spec.f.transverse_taylor(i, q)
            taylor += eps ** q * sl(x, ta, tb)
        out[4][sel] += chi * (fref - taylor)

        band = (dchi != 0.0) | (d2chi != 0.0)
        if not band.any():
            continue
        rows, x, ta, tb = sel[band], x[band], ta[band], tb[band]
        d1 = eps ** (-alpha) * dchi[band]
        d2 = eps ** (-2.0 * alpha) * d2chi[band]
        if m >= 1:
            dval, val = exp._matching_mismatch(i, x, ta, tb, eps, m)
            out[2][rows] += -2.0 / eps * d1 * dval - d2 * val
        core, d_ax, _, _ = _tube_terms_per_point(exp, i, x, ta, tb, m)
        r6, r7 = exp._vertex_remainders(i, x, ta, tb, eps, m, core, d_ax)
        out[6][rows] += 2.0 * d1 * r6
        out[7][rows] += d2 * r7

    live = weight > 0
    if live.any():
        p = pts[live]
        fv = exp.spec.f(p[:, 0], p[:, 1], p[:, 2])
        trunc = exp.spec.f.poly.total_degree_truncate(m - 2)
        out[5][live] += weight[live] * (fv - trunc(p[:, 0], p[:, 1],
                                                   p[:, 2]))
    return out
