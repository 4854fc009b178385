"""Limit problems on the three-edge graph.

Each edge carries the weighted ODE -pi (h_i^2 w')' = rhs on (0, 1) with w = 0
at the outer end; the edges couple at the common vertex through prescribed
value jumps and a total-flux condition sum_i pi h_i(0)^2 w_i'(0) = flux.
The leading-order problem has zero jumps and zero total flux; the corrections
of order k carry jumps (0, delta_k^2, delta_k^3) and flux d_k^*.

The solve integrates the flux balance twice per edge (spectrally, per
smoothness piece), which reduces the coupled problem to a single linear
equation for the common vertex value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .cheb import (ChebStack, antiderivative, gauss_piecewise, integral,
                   interpolate)
from .config import ProblemSpec

# Chebyshev degree per smoothness interval of every graph profile.
DEG = 64


@dataclass
class EdgeRHS:
    """Right-hand side of one edge ODE, smooth between the breakpoints of
    its edge's radius.

    ``germ0`` is a plain polynomial that coincides with ``fn`` on the
    plateau [0, h.plateau0) of the radius; it exists because the radius
    is constant near the vertex and all problem data are polynomial, and
    it is what the vertex Taylor data of the solution are computed from.
    """

    fn: callable
    germ0: Polynomial

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def assemble_rhs0(spec: ProblemSpec):
    """Leading-order edge data: pi h^2 f|axis - (lateral load circle integral)."""
    out = []
    for i in range(3):
        h = spec.h[i]
        ax = spec.f.axis_profile(i)
        phi = spec.phi[i]

        def fn(x, h=h, ax=ax, phi=phi):
            return math.pi * h(x) ** 2 * ax(x) - phi.circle_integral(x, h(x))

        h0 = h.value0
        germ = math.pi * h0 ** 2 * ax
        if not phi.is_zero():
            from .poly import circle_monomial_integral

            gcoef = np.zeros(phi.poly.coef.shape[0])
            for (pi_, pa, pb), c in phi.poly.terms():
                gcoef[pi_] += c * circle_monomial_integral(pa, pb, h0)
            germ = germ - Polynomial(gcoef)
        out.append(EdgeRHS(fn=fn, germ0=germ))
    return out


class EdgeFunction:
    """One edge of a graph solution with exact derivative formulas.

    The value is reconstructed from the integrated flux: with
    c0 = pi h(0)^2 w'(0) and s(x) = int_0^x rhs,
        w'(x) = (c0 - s(x)) / (pi h(x)^2),
        w''(x) = (-rhs(x) - 2 pi h h' w') / (pi h^2).
    ``s`` is the interpolated flux antiderivative of the solve.  Like
    every tube function, the edge is smooth between the breakpoints of
    its radius ``h``, on which it is interpolated.  An optional affine
    tail ``p + q x`` supports the jump substitution.  The vertex value
    and slope are computed once, when the function is built or shifted.
    """

    def __init__(self, h, rhs: EdgeRHS, s: ChebStack, vertex_value, flux0):
        self.h = h
        self.rhs = rhs
        self.c0 = float(flux0)
        self._s = s
        self._w = antiderivative(
            interpolate(self._deriv_exact, h.breakpoints, DEG),
            float(vertex_value))
        self.affine = (0.0, 0.0)
        self._set_vertex()

    def _set_vertex(self):
        self.vertex_value = float(self.value(0.0))
        self.vertex_slope = float(self.d1(0.0))

    def _deriv_exact(self, x):
        return (self.c0 - self._s(x)) / (math.pi * self.h(x) ** 2)

    def with_affine(self, p, q):
        """Return self shifted by the affine function p + q x (shared core)."""
        import copy

        other = copy.copy(self)
        other.affine = (self.affine[0] + p, self.affine[1] + q)
        other._set_vertex()
        return other

    def value(self, x):
        p, q = self.affine
        return self._w(x) + p + q * np.asarray(x, dtype=float)

    def d1(self, x):
        return self._deriv_exact(x) + self.affine[1]

    def d2(self, x):
        h = self.h(x)
        return (-self.rhs(x) - 2.0 * math.pi * h * self.h.deriv(x)
                * self._deriv_exact(x)) / (math.pi * h ** 2)

    def germ(self):
        """Exact Taylor polynomial at x = 0 (valid while h is constant there).

        Uses w'' = -rhs/(pi h0^2) near the vertex, where the rhs germ is a
        polynomial, so the germ is the full local power series.
        """
        h0 = self.h.value0
        wpp = self.rhs.germ0 * (-1.0 / (math.pi * h0 ** 2))
        germ = wpp.integ(2)
        germ = germ + Polynomial([self.vertex_value, self.vertex_slope])
        return germ

    def derivs_at_zero(self, qmax):
        """[w(0), w'(0), w''(0), ...] up to order qmax, exactly."""
        g = self.germ()
        return [float(g.deriv(q)(0.0)) if q <= g.degree() else 0.0
                for q in range(qmax + 1)]


@dataclass
class TransmissionData:
    """Vertex data of one graph problem: value jumps and the total flux."""

    delta2: float = 0.0
    delta3: float = 0.0
    dstar: float = 0.0

    @property
    def jumps(self):
        return (0.0, self.delta2, self.delta3)


def _solve_continuous(spec, rhs_list, flux_total):
    """Common-vertex-value problem: continuity at the vertex, w(1) = 0."""
    A = np.empty(3)
    B = np.empty(3)
    s_funcs = []
    for i in range(3):
        h = spec.h[i]
        bp = h.breakpoints
        s = antiderivative(interpolate(rhs_list[i], bp, DEG))
        A[i] = integral(interpolate(
            lambda x, h=h: 1.0 / (math.pi * h(x) ** 2), bp, DEG))
        B[i] = integral(interpolate(
            lambda x, h=h, s=s: s(x) / (math.pi * h(x) ** 2), bp, DEG))
        s_funcs.append(s)
    # w_i(1) = v + c_i A_i - B_i = 0 and sum_i c_i = flux_total
    v = (np.sum(B / A) - flux_total) / np.sum(1.0 / A)
    c = (B - v) / A
    edges = [EdgeFunction(spec.h[i], rhs_list[i], s_funcs[i], v, c[i])
             for i in range(3)]
    return edges, v, c


def solve_limit(spec: ProblemSpec, rhs_list=None):
    """Leading-order graph problem: continuous at the vertex, zero total
    flux.  Returns the three edges' :class:`EdgeFunction`."""
    if rhs_list is None:
        rhs_list = assemble_rhs0(spec)
    return tuple(_solve_continuous(spec, rhs_list, 0.0)[0])


def solve_omega_k(spec: ProblemSpec, rhs_list,
                  transmission: TransmissionData):
    """Correction problem with vertex jumps (0, d2, d3) and total flux d*;
    returns the three edges' :class:`EdgeFunction`.

    Internally substitutes w_i - jump_i (1 - x_i), which restores vertex
    continuity, shifts the edge data by -2 pi jump_i h h', and shifts the
    total flux by pi h_i(0)^2 jump_i.
    """
    jumps = transmission.jumps
    subst = []
    for i in range(3):
        base = rhs_list[i]
        if jumps[i] == 0.0:
            subst.append(base)
            continue
        j = jumps[i]

        def fn(x, base=base, h=spec.h[i], j=j):
            return base(x) - 2.0 * math.pi * j * h(x) * h.deriv(x)

        subst.append(EdgeRHS(fn=fn, germ0=base.germ0))
    flux = transmission.dstar + sum(
        math.pi * spec.h0(i) ** 2 * jumps[i] for i in (1, 2))
    edges, _, _ = _solve_continuous(spec, subst, flux)
    return tuple(e.with_affine(j, -j) if j != 0.0 else e
                 for e, j in zip(edges, jumps))


def weak_residual(spec: ProblemSpec, edges, rhs_list,
                  transmission: TransmissionData):
    """Max defect of the weak identity over a 30-function test basis.

    The substituted solution u_i = w_i - jump_i (1 - x_i) is tested against
      sum_i pi int h^2 u' psi' = sum_i int Phi_i psi
                                 - (d* + sum pi h_i(0)^2 jump_i) psi(0)
    with Phi_i the substituted edge data.
    """
    jumps = transmission.jumps
    flux = transmission.dstar + sum(
        math.pi * spec.h0(i) ** 2 * jumps[i] for i in (1, 2))

    def u_prime(i, x):
        return edges[i].d1(x) + jumps[i]

    def phi_data(i, x):
        base = rhs_list[i](x)
        if jumps[i] == 0.0:
            return base
        return base - 2.0 * math.pi * jumps[i] * spec.h[i](x) * spec.h[i].deriv(x)

    # vertex-continuous test functions vanishing at the outer ends
    hats = [("hat", q) for q in (1, 2, 3)]
    bubbles = [("bubble", (i, q)) for i in range(3) for q in range(1, 10)]
    worst = 0.0
    for kind, p in hats + bubbles:
        lhs = 0.0
        rhs_val = 0.0
        for i in range(3):
            h = spec.h[i]
            bp = h.breakpoints
            if kind == "hat":
                psi = lambda x, q=p: (1.0 - x) ** q
                dpsi = lambda x, q=p: -q * (1.0 - x) ** (q - 1)
                active = True
            else:
                j, q = p
                active = i == j
                psi = lambda x, q=q: x ** q * (1.0 - x)
                dpsi = lambda x, q=q: q * x ** (q - 1) * (1.0 - x) - x ** q
            if not active:
                continue
            lhs += gauss_piecewise(
                lambda x, i=i, h=h, dpsi=dpsi:
                math.pi * h(x) ** 2 * u_prime(i, x) * dpsi(x), bp)
            rhs_val += gauss_piecewise(
                lambda x, i=i, psi=psi: phi_data(i, x) * psi(x), bp)
        if kind == "hat":
            rhs_val -= flux  # psi(0) = 1 for every hat function
        worst = max(worst, abs(lhs - rhs_val))
    return worst
