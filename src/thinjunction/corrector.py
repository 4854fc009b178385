"""Cross-section correctors of the regular expansion inside each branch.

Away from the junction region the solution is, to leading order, a
function of the axial coordinate alone.  Transverse structure in the
data (source moments, lateral load, wall slope) enters through a
hierarchy of Neumann problems posed on the scaled cross-section disk,
one per expansion order; their solvability conditions in turn force the
axial ODEs of the next order.

Every datum that reaches these disk problems is polynomial in the
scaled transverse variables, so each problem is solved exactly in the
modal basis r^p cos(n t), r^p sin(n t).  The axial dependence of the
modal coefficients is stored as piecewise Chebyshev series over the
smoothness intervals of the radius profile, and the local power series
at the junction end of the branch (where the radius is constant) is
kept exactly for vertex Taylor data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as npp
from numpy.polynomial import Polynomial

from .config import ProblemSpec, RadiusProfile, eta
from .graph import EdgeFunction, EdgeRHS
from .cheb import ChebStack


class DiskCompatibilityError(ValueError):
    """Interior and rim data of a disk problem fail the flux balance."""


class DiskPoly:
    """Polynomial on a disk in modal form sum_{n,p} c[n,p] r^p trig(n t).

    ``cos[n, p]`` multiplies r^p cos(n t), ``sin[n, p]`` multiplies
    r^p sin(n t); row 0 of ``sin`` is identically zero.  Only smooth
    combinations (p >= n, p-n even) are ever created by this module.
    """

    __slots__ = ("cos", "sin")

    def __init__(self, cos, sin):
        self.cos = np.asarray(cos, dtype=float)
        self.sin = np.asarray(sin, dtype=float)

    @classmethod
    def zeros(cls, nmax=0, pmax=0):
        return cls(np.zeros((nmax + 1, pmax + 1)), np.zeros((nmax + 1, pmax + 1)))

    @classmethod
    def from_poly2(cls, coef2d):
        """Convert a bivariate coefficient array c[pa, pb] to modal form."""
        from .poly import trig_power_modes

        c = np.atleast_2d(np.asarray(coef2d, dtype=float))
        d = c.shape[0] + c.shape[1] - 2
        out = cls.zeros(d, d)
        for pa in range(c.shape[0]):
            for pb in range(c.shape[1]):
                w = c[pa, pb]
                if w == 0.0:
                    continue
                a, b = trig_power_modes(pa, pb)
                p = pa + pb
                out.cos[: p + 1, p] += w * a
                out.sin[: p + 1, p] += w * b
        return out

    def padded(self, nmax, pmax):
        cos = np.zeros((nmax + 1, pmax + 1))
        sin = np.zeros((nmax + 1, pmax + 1))
        n, p = self.cos.shape
        cos[:n, :p] = self.cos
        sin[:n, :p] = self.sin
        return DiskPoly(cos, sin)

    def trimmed(self, tol=0.0):
        mask = (np.abs(self.cos) > tol) | (np.abs(self.sin) > tol)
        if not mask.any():
            return DiskPoly.zeros()
        rows = np.where(mask.any(axis=1))[0]
        cols = np.where(mask.any(axis=0))[0]
        n, p = rows[-1], cols[-1]
        return DiskPoly(self.cos[: n + 1, : p + 1].copy(),
                        self.sin[: n + 1, : p + 1].copy())

    def __add__(self, other):
        n = max(self.cos.shape[0], other.cos.shape[0]) - 1
        p = max(self.cos.shape[1], other.cos.shape[1]) - 1
        a, b = self.padded(n, p), other.padded(n, p)
        return DiskPoly(a.cos + b.cos, a.sin + b.sin)

    def scale(self, s):
        return DiskPoly(self.cos * s, self.sin * s)

    def laplacian(self):
        """Transverse Laplacian, again in modal form."""
        N, P = self.cos.shape
        if P <= 2:
            return DiskPoly.zeros()
        n = np.arange(N)[:, None].astype(float)
        p = np.arange(2, P)[None, :].astype(float)
        fac = p * p - n * n
        return DiskPoly(fac * self.cos[:, 2:], fac * self.sin[:, 2:])

    def mean_integral(self, h):
        """Integral over the disk of radius h (only n = 0 contributes)."""
        p = np.arange(self.cos.shape[1])
        return 2.0 * math.pi * float(self.cos[0] @ (h ** (p + 2) / (p + 2)))

    def mean_value(self, h):
        return self.mean_integral(h) / (math.pi * h * h)

    def trace_fourier(self, h):
        """Harmonics of the rim trace at radius h: (cos part, sin part)."""
        hp = h ** np.arange(self.cos.shape[1])
        return self.cos @ hp, self.sin @ hp

    def rderiv_trace_fourier(self, h):
        """Harmonics of the radial derivative on the rim."""
        p = np.arange(self.cos.shape[1])
        hp = p * h ** np.maximum(p - 1, 0)
        return self.cos @ hp, self.sin @ hp

    def circle_integral(self, h):
        tc, _ = self.trace_fourier(h)
        return 2.0 * math.pi * h * float(tc[0])

    def _batch(self):
        return np.stack([self.cos, self.sin])[None, None]

    def evaluate(self, xa, xb):
        return self.gradient(xa, xb)[0]

    def gradient(self, xa, xb):
        """(value, d/dxa, d/dxb) at the given points."""
        xa = np.asarray(xa, dtype=float)
        val, ga, gb = _modal_eval(self._batch(), xa.ravel(),
                                  np.asarray(xb, float).ravel())
        out = val[0], ga, gb
        if xa.shape:
            return tuple(v.reshape(xa.shape) for v in out)
        return tuple(float(v[0]) for v in out)

    def max_abs(self):
        return max(np.abs(self.cos).max(), np.abs(self.sin).max())


def _modal_eval(A, xa, xb):
    """Values of modal fields at (xa, xb), and the Cartesian transverse
    gradient of the first.

    ``A`` is (npts, F, 2, N, P), F fields (as u and du/dx) with one
    array per point, or (1, F, 2, N, P), F polynomials for every point.
    The harmonics are summed first, n = 0, 1, .. in turn, into radial
    coefficients of the values and of the first field's angular
    derivative, and those are summed over the powers by
    :func:`_power_sum`.  Every sum is elementwise in a fixed order, so
    arrays zero-padded in N or P give bitwise the same answer.  Returns
    (values (F, npts), d/dxa, d/dxb); each field's values are those it
    has alone.
    """
    r, t = np.hypot(xa, xb), np.arctan2(xb, xa)
    N, P = A.shape[3], A.shape[4]
    # n = 0 has cos = 1 and sin = 0, and no angular derivative
    radial, angular = A[:, :, 0, 0], 0.0
    for n in range(1, N):
        c, s = np.cos(n * t)[:, None], np.sin(n * t)[:, None]
        radial = (radial + c[:, None] * A[:, :, 0, n]
                  + s[:, None] * A[:, :, 1, n])
        angular = angular + n * (c * A[:, 0, 1, n] - s * A[:, 0, 0, n])
    rp = r[:, None] ** np.arange(P)
    # r^(p-1); its p = 0 column only ever meets the factor p = 0
    rp1 = np.concatenate([np.ones((r.size, 1)), rp[:, :-1]], axis=1)
    val = _power_sum(radial, rp[:, None]).T
    ur = _power_sum(radial[:, 0] * np.arange(P), rp1)
    ct, st = np.cos(t), np.sin(t)
    if N == 1:
        return val, ct * ur, st * ur
    ut = _power_sum(angular, rp1)
    return val, ct * ur - st * ut, st * ur + ct * ut


def _power_sum(c, w):
    """sum_p c[..., p] w[..., p] by elementwise products: the even and
    the odd p in two running sums, added last (numpy's einsum order for
    up to seven terms).  Zero terms appended leave it bitwise as it is,
    where a matrix product may regroup the sum."""
    out = [c[..., q] * w[..., q] for q in range(min(2, c.shape[-1]))]
    for p in range(2, c.shape[-1]):
        out[p % 2] += c[..., p] * w[..., p]
    return out[0] if len(out) == 1 else out[0] + out[1]


def disk_compatibility_defect(g: DiskPoly, bc, h):
    """Flux mismatch int_disk g dA - oint_rim b dl of a disk problem."""
    return g.mean_integral(h) - 2.0 * math.pi * h * float(np.asarray(bc)[0])


def solve_disk_neumann(g: DiskPoly, bc, bs, h):
    """Solve -lap u = g on r < h with -du/dr = b on r = h and <u> = 0.

    ``bc``/``bs`` hold the rim harmonics of b.  The pair (g, b) must be
    flux-balanced; the defect is checked against 1e-8 scaled by the
    data size.  Everything is exact modal algebra, no discretization.
    """
    g = g.trimmed()
    bc = np.atleast_1d(np.asarray(bc, dtype=float))
    bs = np.atleast_1d(np.asarray(bs, dtype=float))
    nb = max(bc.size, bs.size) - 1
    gN, gP = g.cos.shape[0] - 1, g.cos.shape[1] - 1
    N = max(gN, nb)
    P = max(gP + 2, N, 1)

    defect = disk_compatibility_defect(g, bc, h)
    scale = max(1.0, abs(g.mean_integral(h)),
                2.0 * math.pi * h * abs(float(bc[0])))
    if abs(defect) > 1e-8 * scale:
        raise DiskCompatibilityError(
            f"disk problem data violate the flux balance by {defect:.3e} "
            f"(tolerance {1e-8 * scale:.3e})")

    u = DiskPoly.zeros(N, P)
    for n in range(gN + 1):
        for q in range(gP + 1):
            gc, gs = g.cos[n, q], g.sin[n, q]
            if gc == 0.0 and gs == 0.0:
                continue
            denom = (q + 2) ** 2 - n ** 2
            if denom == 0:
                raise ValueError(
                    f"resonant interior datum at harmonic n={n}, power {q}; "
                    "the data do not extend to a smooth function of the "
                    "cross-section variables")
            u.cos[n, q + 2] -= gc / denom
            u.sin[n, q + 2] -= gs / denom

    sc, ss = u.rderiv_trace_fourier(h)
    for n in range(1, N + 1):
        want_c = -(bc[n] if n < bc.size else 0.0)
        want_s = -(bs[n] if n < bs.size else 0.0)
        hn = n * h ** (n - 1)
        u.cos[n, n] += (want_c - sc[n]) / hn
        u.sin[n, n] += (want_s - ss[n]) / hn

    u.cos[0, 0] -= u.mean_value(h)
    return u.trimmed()


@dataclass
class EdgeCorrector:
    """One corrector u_k on one branch: modal coefficients over x.

    Like every tube function, u_k is smooth between the breakpoints of
    its radius ``h``.  ``coeffs[j]`` holds, for the j-th of those
    intervals, Chebyshev coefficients of shape (deg+1, 2, N+1, P+1) in
    the mapped variable; index 1 separates cos/sin banks.  One
    ``ChebStack`` holds them with those of du/dx and d2u/dx2.  ``germ``
    lists the exact x-power slices of u_k about x = 0, valid while the
    radius is constant.
    """

    edge: int
    order: int
    h: RadiusProfile
    coeffs: list
    germ: list

    def __post_init__(self):
        # (intervals, deg+1, 3, 2, N, P): u, du/dx and d2u/dx2, the
        # derivatives padded with zero top rows
        bp = self.h.breakpoints
        stack = np.zeros((len(self.coeffs), self.coeffs[0].shape[0], 3)
                         + self.shape)
        for j, (c, xl, xr) in enumerate(zip(self.coeffs, bp, bp[1:])):
            for m in range(3):
                d = npcheb.chebder(c, m, scl=2.0 / (xr - xl), axis=0)
                stack[j, : d.shape[0], m] = d
        self._stack = ChebStack(bp, stack)

    @property
    def shape(self):
        return self.coeffs[0].shape[1:]

    def modal_batch(self, x, deriv=0):
        """Per-point modal arrays of d^deriv u / dx^deriv, of shape
        (npts, 2, N, P)."""
        return self._stack(np.atleast_1d(x))[:, deriv]

    def modal_at(self, x, deriv=0):
        A = self.modal_batch(float(x), deriv)
        return DiskPoly(A[0, 0], A[0, 1])

    def trace_fourier(self, x, xderiv=0):
        """Rim harmonics of d^xderiv u/dx^xderiv at each x (vectorized)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        A = self.modal_batch(x, xderiv)
        hx = self.h(x)
        P = self.shape[-1]
        hp = hx[:, None] ** np.arange(P)
        tc = np.einsum("knp,kp->kn", A[:, 0], hp)
        ts = np.einsum("knp,kp->kn", A[:, 1], hp)
        return tc, ts

    def circle_integral_xderiv(self, x):
        """oint (d u/dx) dl around the rim circle at each x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        tc, _ = self.trace_fourier(x, xderiv=1)
        return 2.0 * math.pi * self.h(x) * tc[:, 0]

    def end_trace(self):
        """u_k at the sealed end x = 1 as a modal polynomial."""
        return self.modal_at(1.0)


def _poly_coef(poly: Polynomial, j):
    c = poly.coef
    return float(c[j]) if j < c.size else 0.0


def corrector_germ(spec: ProblemSpec, edge, k, omega_germ: Polynomial,
                   prev_germ, jmax):
    """Exact x-power slices of u_k about the vertex end of a branch.

    Valid on the initial interval where the radius is constant: there the
    wall is straight, the slope terms vanish, and every slice is a disk
    problem with polynomial data solved exactly.  ``prev_germ`` is the
    germ list of u_{k-2} (None for k = 2, 3) and must reach depth
    ``jmax + 2``.
    """
    h0 = spec.h0(edge)
    fcube = spec.f.transverse_taylor(edge, k - 2).coef
    phi = spec.phi[edge]
    use_phi = (k == 2) and not phi.is_zero()
    wpp = omega_germ.deriv(2)
    out = []
    for j in range(jmax + 1):
        if j < fcube.shape[0]:
            g = DiskPoly.from_poly2(fcube[j])
        else:
            g = DiskPoly.zeros()
        g = g + DiskPoly(np.array([[_poly_coef(wpp, j)]]), np.zeros((1, 1)))
        if prev_germ is not None:
            if j + 2 >= len(prev_germ):
                raise ValueError(
                    f"germ of order-{k - 2} corrector too shallow: need "
                    f"depth {jmax + 2}, have {len(prev_germ) - 1}")
            g = g + prev_germ[j + 2].scale(float((j + 1) * (j + 2)))
        if use_phi and j < phi.poly.coef.shape[0]:
            btrace = DiskPoly.from_poly2(phi.poly.coef[j])
            bc, bs = btrace.trace_fourier(h0)
        else:
            bc, bs = np.zeros(1), np.zeros(1)
        out.append(solve_disk_neumann(g, bc, bs, h0))
    return out


def build_corrector(spec: ProblemSpec, edge, k, omega: EdgeFunction,
                    prev: EdgeCorrector | None = None, jmax=4):
    """Construct u_k on one branch from omega_{k-2} and u_{k-2}.

    Solves the cross-section problem exactly at 33 Chebyshev stations of
    every smoothness interval and fits the modal coefficients, so that
    axial derivatives of u_k are coefficient operations.
    """
    if k < 2:
        raise ValueError("correctors start at order 2")
    h = spec.h[edge]
    phi = spec.phi[edge]
    fslice = spec.f.transverse_taylor(edge, k - 2)
    bp = h.breakpoints
    tpts = npcheb.chebpts1(33)
    nb = phi.max_harmonic
    if prev is not None:
        nb = max(nb, prev.shape[1] - 1)

    solutions = []
    for j in range(len(bp) - 1):
        xl, xr = bp[j], bp[j + 1]
        xs = 0.5 * (xl + xr) + 0.5 * (xr - xl) * tpts
        piece = []
        for x in xs:
            hx = float(h(x))
            hpx = float(h.deriv(x))
            g = DiskPoly.from_poly2(npp.polyval(x, fslice.coef))
            g = g + DiskPoly(np.array([[float(omega.d2(x))]]),
                             np.zeros((1, 1)))
            if prev is not None:
                A = prev.modal_batch(x, deriv=2)[0]
                g = g + DiskPoly(A[0], A[1])
            bc = np.zeros(nb + 1)
            bs = np.zeros(nb + 1)
            bc[0] -= hpx * float(omega.d1(x))
            if prev is not None:
                D = prev.modal_at(x, deriv=1)
                tc, ts = D.trace_fourier(hx)
                bc[: tc.size] -= hpx * tc
                bs[: ts.size] -= hpx * ts
            if not phi.is_zero():
                e = float(eta(k - 2, hpx))
                if e != 0.0:
                    a, b = phi.circle_modes(x, hx, nb)
                    bc += e * a
                    bs += e * b
            piece.append(solve_disk_neumann(g, bc, bs, hx))
        solutions.append(piece)

    N = max(u.cos.shape[0] for piece in solutions for u in piece) - 1
    P = max(u.cos.shape[1] for piece in solutions for u in piece) - 1
    coeffs = []
    for piece in solutions:
        Y = np.stack([np.stack([u.padded(N, P).cos, u.padded(N, P).sin])
                      for u in piece])
        c = npcheb.chebfit(tpts, Y.reshape(tpts.size, -1), tpts.size - 1)
        coeffs.append(c.reshape(tpts.size, 2, N + 1, P + 1))

    prev_g = prev.germ if prev is not None else None
    germ = corrector_germ(spec, edge, k, omega.germ(), prev_g, jmax)
    return EdgeCorrector(edge=edge, order=k, h=h, coeffs=coeffs, germ=germ)


def corrector_rhs(spec: ProblemSpec, edge, k, corr: EdgeCorrector | None):
    """Edge ODE forcing of order k >= 1.

    Combines the disk average of the order-k source slice, the slope
    expansion of the lateral load, and the wall-slope flux of the
    order-k corrector itself (``corr``; None when u_k vanishes).
    """
    h = spec.h[edge]
    phi = spec.phi[edge]
    use_eta = (k >= 2 and k % 2 == 0 and not phi.is_zero())

    def fn(x, h=h, phi=phi, k=k, corr=corr, use_eta=use_eta):
        x = np.asarray(x, dtype=float)
        hx = h(x)
        out = spec.f.transverse_taylor_disk_integral(edge, k, x, hx)
        if use_eta:
            out = out - eta(k, h.deriv(x)) * phi.circle_integral(x, hx)
        if corr is not None:
            # the rim integral comes back at least 1-d; keep x's shape
            out = out + h.deriv(x) * corr.circle_integral_xderiv(
                x).reshape(x.shape)
        return out

    h0 = spec.h0(edge)
    sl = spec.f.transverse_taylor(edge, k)
    gcoef = np.zeros(max(sl.coef.shape[0], 1))
    from .poly import disk_monomial_integral

    for (pi, pa, pb), c in sl.terms():
        gcoef[pi] += c * disk_monomial_integral(pa, pb, h0)
    return EdgeRHS(fn=fn, germ0=Polynomial(gcoef))
