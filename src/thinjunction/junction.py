"""Solvers on the stretched junction domain.

The junction (box bulge plus three half-infinite outlet tubes) is
truncated at outlet length ``R`` and discretized with linear elements.
Decaying fields are solved with natural end conditions: the load is
projected to zero sum and one node is pinned, and each field is then
normalised on the outlets.  The module provides

* the two special harmonic fields with prescribed linear growth, used to
  read off transmission jumps through a bilinear pairing,
* the decaying corrector of one expansion order from its interior and
  wall data,
* the exact flux budget constant entering the vertex balance, and
* a mesh-independent solvability check of the corrector data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TRANSVERSE_AXES, ProblemSpec
from .fem3d import (
    FemContext,
    PointLocator,
    _solve_spd,
    coarse_labels,
    station_average,
    station_profile,
    submatrix,
)
from .mesh3d import build_junction_mesh, tet_blocks
from .poly import (
    Poly3,
    box_monomial_integral,
    circle_monomial_integral,
    disk_monomial_integral,
)

def _gauss(lo, hi):
    x, w = np.polynomial.legendre.leggauss(16)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


@dataclass
class OutletGrowth:
    """Polynomial outlet behaviour sum_j t^j (c_j + d_j(transverse)).

    ``t`` is the outlet's axial coordinate, ``coeffs[j]`` the scalar part
    and ``disks[j]`` an optional cross-section polynomial.
    """

    edge: int
    coeffs: np.ndarray
    disks: tuple = None

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.disks is None:
            self.disks = (None,) * len(self.coeffs)
        if len(self.disks) != len(self.coeffs):
            raise ValueError("one disk slot per power")
        # an all-zero cross-section profile adds exact zeros
        self.disks = tuple(None if d is None or not (d.cos.any()
                                                     or d.sin.any()) else d
                           for d in self.disks)

    def evaluate(self, ax, ta, tb):
        """(value, d/dax, d/dta, d/dtb) at each point.

        Horner's scheme in the axial power, with each cross-section
        profile evaluated once together with its gradient.
        """
        ax = np.asarray(ax, dtype=float)
        val, slope, ga, gb = (np.zeros_like(ax) for _ in range(4))
        for j in range(len(self.coeffs) - 1, -1, -1):
            term, da, db = np.full_like(ax, self.coeffs[j]), 0.0, 0.0
            if self.disks[j] is not None:
                dv, da, db = self.disks[j].gradient(ta, tb)
                term = term + dv
            slope = slope * ax + val
            val = val * ax + term
            ga = ga * ax + da
            gb = gb * ax + db
        return val, slope, ga, gb

    @staticmethod
    def combine(growths, weights):
        """The growth sum_k weights[k] growths[k] of one outlet as one
        polynomial, None where every growth is None."""
        pairs = [(w, g) for w, g in zip(weights, growths) if g is not None]
        if not pairs:
            return None
        coeffs = np.zeros(max(g.coeffs.size for _, g in pairs))
        disks = [None] * coeffs.size
        for w, g in pairs:
            coeffs[:g.coeffs.size] += w * g.coeffs
            for j, d in enumerate(g.disks):
                if d is not None:
                    d = d.scale(w)
                    disks[j] = d if disks[j] is None else disks[j] + d
        return OutletGrowth(pairs[0][1].edge, coeffs, tuple(disks))

    def cross_integrals(self, radius):
        """Disk integral of each power's cross-section profile."""
        area = math.pi * radius * radius
        out = []
        for c, d in zip(self.coeffs, self.disks):
            v = c * area
            if d is not None:
                v += d.mean_integral(radius)
            out.append(v)
        return np.array(out)


def _has_growth(g):
    """Whether an outlet growth (or None) is nonzero."""
    return g is not None and (np.any(g.coeffs != 0.0)
                              or any(d is not None for d in g.disks))


@dataclass
class InnerData:
    """Interior and wall data of one corrector order on the junction."""

    k: int
    growth: tuple
    fpart: Poly3 = None
    walls: tuple = (None, None, None)


def build_inner_rhs(spec: ProblemSpec, k, omega_taylor, corrector_germs):
    """Corrector data of order k from the lower-order expansion state.

    ``omega_taylor[i][m]`` holds the Taylor coefficients at the vertex of
    the order-m axis profile on edge i (coefficient j multiplies x^j);
    ``corrector_germs[i][m]`` holds the vertex Taylor coefficients of the
    order-m cross-section corrector as DiskPoly entries per axial power.
    Only orders m < k (profiles) and m <= k (correctors) are read.
    """

    if k < 1:
        raise ValueError("corrector orders start at k = 1")
    growth = []
    for i in range(3):
        coeffs = np.zeros(k + 1)
        disks = [None] * (k + 1)
        for j in range(1, k + 1):
            tay = omega_taylor[i][k - j]
            if tay is not None and len(tay) > j:
                coeffs[j] = tay[j]
        for j in range(0, k - 1):
            germ = corrector_germs[i].get(k - j) if corrector_germs else None
            if germ is not None and j < len(germ) and germ[j] is not None:
                disks[j] = germ[j]
        growth.append(OutletGrowth(i, coeffs, tuple(disks)))

    fpart = None
    if k >= 2:
        part = spec.f.poly.total_degree_part(k - 2)
        if part.terms():
            fpart = part

    walls = []
    for i in range(3):
        ld = spec.phi[i]
        if k < 2 or ld.is_zero():
            walls.append(None)
            continue
        base = ld.x_deriv(k - 2).poly
        terms = [((k - 2, pa, pb), c / math.factorial(k - 2))
                 for (px, pa, pb), c in base.terms() if px == 0]
        walls.append(Poly3.from_terms(terms) if terms else None)
    return InnerData(k=k, growth=tuple(growth), fpart=fpart,
                     walls=tuple(walls))


def check_solvability(spec: ProblemSpec, data: InnerData):
    """Net flux defect of the corrector data over the unbounded junction.

    Computed with exact cross-section integrals and band quadrature, so
    the result is independent of any mesh.  A well-posed decaying
    corrector requires a zero defect.
    """

    step = spec.junction_band()
    lo, hi = step.support
    xg, wg = _gauss(lo, hi)
    dchi = step.deriv(xg)
    total = 0.0
    for i in range(3):
        g = data.growth[i]
        if g is None:
            continue
        cross = g.cross_integrals(spec.h0(i))
        for j in range(1, len(cross)):
            if cross[j] == 0.0:
                continue
            total += j * float(np.sum(wg * xg ** (j - 1) * dchi)) * cross[j]

    if data.fpart is not None:
        total += _box_integral(data.fpart, spec.ell)
        for i in range(3):
            prof = _disk_profile(data.fpart, i, spec.h0(i))
            total += _outlet_integral(prof, spec.ell, step)

    for i in range(3):
        wall = data.walls[i]
        if wall is None:
            continue
        prof = _circle_profile(wall, spec.h0(i))
        total -= _outlet_integral(prof, spec.ell, step)
    return total


def _box_integral(p: Poly3, ell):
    return sum(c * box_monomial_integral(pw, ell) for pw, c in p.terms())


def _disk_profile(p: Poly3, edge, radius):
    """1-D polynomial in the outlet axis after disk integration."""
    coeffs = {}
    for (p0, p1, p2), c in p.terms():
        pw = (p0, p1, p2)
        pax = pw[edge]
        a, b = TRANSVERSE_AXES[edge]
        val = c * disk_monomial_integral(pw[a], pw[b], radius)
        if val != 0.0:
            coeffs[pax] = coeffs.get(pax, 0.0) + val
    return coeffs


def _circle_profile(p: Poly3, radius):
    coeffs = {}
    for (px, pa, pb), c in p.terms():
        val = c * circle_monomial_integral(pa, pb, radius)
        if val != 0.0:
            coeffs[px] = coeffs.get(px, 0.0) + val
    return coeffs


def _outlet_integral(profile, ell, step):
    """int over (ell, inf) of (1 - chi) times a power profile."""
    lo, hi = step.support
    total = 0.0
    xg1, wg1 = _gauss(ell, lo)
    xg2, wg2 = _gauss(lo, hi)
    fall = 1.0 - step(xg2)
    for pw, c in profile.items():
        total += c * float(np.sum(wg1 * xg1 ** pw))
        total += c * float(np.sum(wg2 * fall * xg2 ** pw))
    return total


class TruncatedJunction:
    """Finite-element model of the junction truncated at outlet length R.

    Its mesh is the only one where a study or a served request locates
    points, so the junction builds the package's one point locator
    (``locator``) with it, outside the first pass that locates points."""

    def __init__(self, spec: ProblemSpec, R=None, refine=None):
        self.spec = spec
        self.mesh = build_junction_mesh(spec, R=R, refine=refine)
        self.ctx = FemContext(self.mesh)
        self.R = float(self.mesh.meta["R"])
        self.ell = spec.ell
        self.radii = tuple(spec.h0(i) for i in range(3))
        self.step = spec.junction_band()
        # the tets a cut-off source reaches: those whose extent on axis i
        # cuts the open band, and those wholly past it on some axis,
        # where 1 - sum chi is exactly 0
        lo, hi = self.step.support
        n = self.mesh.num_tets
        self.band_tets = np.empty((n, 3), dtype=bool)
        self.past_band = np.empty(n, dtype=bool)
        for blk in tet_blocks(n):
            x = self.mesh.nodes[self.mesh.tets[blk]]
            low, high = x.min(axis=1), x.max(axis=1)
            self.band_tets[blk] = (high > lo) & (low < hi)
            self.past_band[blk] = (low >= hi).any(axis=1)
        self.labels = coarse_labels(self.mesh)
        self.locator = PointLocator(self.mesh)


def _source_values(junction: TruncatedJunction, data: InnerData, pts):
    """Interior data evaluated at points of the truncated junction."""
    step = junction.step
    lo, hi = step.support
    out = np.zeros(len(pts))
    for i in range(3):
        ax = pts[:, i]
        g = data.growth[i]
        if not _has_growth(g):
            continue
        band = (ax > lo) & (ax < hi)
        if not band.any():
            continue
        a, b = TRANSVERSE_AXES[i]
        axb = ax[band]
        gv, gs, _, _ = g.evaluate(axb, pts[band, a], pts[band, b])
        out[band] += gv * step.deriv2(axb) + 2.0 * gs * step.deriv(axb)
    if data.fpart is not None:
        chi_sum = step(pts[:, 0]) + step(pts[:, 1]) + step(pts[:, 2])
        out += (1.0 - chi_sum) * data.fpart(pts[:, 0], pts[:, 1], pts[:, 2])
    return out


def assemble_load(junction: TruncatedJunction, data: InnerData):
    """Weak-form load vector of one corrector order.

    The interior data are integrated over the tets where they can be
    nonzero only: the band of each outlet with growth and, with an
    interior part, every tet not wholly past the band.
    """
    ctx = junction.ctx
    grows = [_has_growth(g) for g in data.growth]
    live = junction.band_tets[:, grows].any(axis=1)
    if data.fpart is not None:
        live |= ~junction.past_band
    b = ctx.volume_load(lambda pts: _source_values(junction, data, pts),
                        degree=5, live=np.flatnonzero(live))
    for i in range(3):
        wall = data.walls[i]
        if wall is None:
            continue
        a, bb = TRANSVERSE_AXES[i]

        def trace(pts, wall=wall, i=i, a=a, bb=bb):
            fall = 1.0 - junction.step(pts[:, i])
            return fall * wall(pts[:, i], pts[:, a], pts[:, bb])

        b -= ctx.surface_load(f"lateral_{i}", trace, degree=4)
    return b


class JunctionField:
    """Solved junction fields: decaying nodal part plus analytic growth.

    A solved field keeps the assembled ``load`` its decaying part solves
    for.  A stack of K solved fields (:meth:`stack`) has none: its
    ``decay``, ``constant`` and each outlet's ``growth`` hold one column
    or entry per field, and it serves their weighted sums.
    """

    def __init__(self, junction: TruncatedJunction, decay, load, growth=None,
                 constant=0.0, info=None):
        self.junction = junction
        self.decay = decay
        self.load = load
        self.growth = growth if growth is not None else (None, None, None)
        self.constant = constant
        self.info = info or {}
        self._total = None

    @classmethod
    def stack(cls, fields):
        """The solved fields as the columns of one field."""
        return cls(fields[0].junction,
                   np.column_stack([f.decay for f in fields]), None,
                   growth=tuple(zip(*(f.growth for f in fields))),
                   constant=np.array([f.constant for f in fields]))

    def with_growth(self, growth, constant=0.0):
        return JunctionField(self.junction, self.decay, self.load,
                             growth=growth, constant=constant,
                             info=self.info)

    def outlet_growth(self, i, ax, ta, tb, weights=None):
        """(value, d/dax, d/dta, d/dtb) of the growth on outlet i; of a
        stack, of sum_k weights[k] times the growth of its column k,
        summed into one polynomial before one Horner pass."""
        g = self.growth[i]
        if weights is not None:
            g = OutletGrowth.combine(g, weights)
        if g is None:
            return (np.zeros_like(ax),) * 4
        return g.evaluate(ax, ta, tb)

    def _add_growth(self, pts, vals, grads=None, weights=None):
        """Add the cut-off outlet growths (and their gradients) at pts."""
        step = self.junction.step
        for i in range(3):
            ax = pts[:, i]
            live = ax > step.lo
            if not live.any():
                continue
            a, b = TRANSVERSE_AXES[i]
            axl = ax[live]
            gv, gs, ga, gb = self.outlet_growth(i, axl, pts[live, a],
                                                pts[live, b], weights)
            chi, dchi = step.value_slope(axl)
            vals[live] += chi * gv
            if grads is not None:
                grads[live, i] += dchi * gv + chi * gs
                grads[live, a] += chi * ga
                grads[live, b] += chi * gb

    def nodal_total(self):
        if self._total is None:
            self._total = self.decay + self.constant
            self._add_growth(self.junction.mesh.nodes, self._total)
        return self._total

    def plateau(self, edge):
        return _plateau(self.junction, self.nodal_total(), edge)

    def far_slope(self, edge):
        xs, means = station_profile(self.junction.mesh, self.nodal_total(),
                                    edge)
        keep = xs >= self.junction.spec.far_field_start()
        fit = np.polyfit(xs[keep], means[keep], 1)
        return float(fit[0])

    def evaluate(self, points, weights=None):
        """(values, gradients) of the whole field at junction points; of a
        stack, of sum_k weights[k] times its column k, with one location
        and one gather of the points for all those columns."""
        points = np.asarray(points, dtype=float)
        decay, constant = self.decay, self.constant
        if weights is not None:
            k = len(weights)
            decay, constant = decay[:, :k], weights @ constant[:k]
        vals, grads = self.junction.locator.evaluate(decay, points, weights)
        vals += constant
        self._add_growth(points, vals, grads, weights)
        return vals, grads


def _plateau(junction: TruncatedJunction, u, edge):
    """Mean of the station means of u over the last 1.5 of an outlet."""
    xs, means = station_profile(junction.mesh, u, edge)
    return float(means[xs >= junction.R - 1.5].mean())


def _solve_load(junction: TruncatedJunction, data: InnerData):
    """(field, load, info) of the solve for the load of data.

    Flux conditions alone fix the field up to a constant, so the load is
    projected to zero sum and node 0 is pinned to 0; the callers remove
    the constant by their own normalisation.  The raw load is returned.
    """
    b = assemble_load(junction, data)
    u = np.zeros_like(b)
    free = np.ones(b.size, dtype=bool)
    free[0] = False
    u[1:], info = _solve_spd(submatrix(junction.ctx.matrix, free),
                             (b - b.mean())[1:], labels=junction.labels[1:])
    return u, b, info


def solve_decaying(junction: TruncatedJunction, data: InnerData):
    """Decaying corrector field, zeroed on the first outlet's end disk.

    The field keeps the load it solves for, which :func:`compute_delta`
    pairs with the special fields.
    """
    u, b, info = _solve_load(junction, data)
    shift = station_average(junction.mesh, u, junction.mesh.stations[0][-1])
    return JunctionField(junction, u - shift, b, info=info)


def solve_special(junction: TruncatedJunction, edge):
    """Harmonic field draining outlet ``edge`` into outlet 0.

    Grows like -t/(pi r_0^2) along outlet 0 and +t/(pi r_edge^2) along
    the given outlet, normalized to vanish at the first outlet's end.
    Its far-field slopes and plateaus are read on demand
    (:meth:`JunctionField.far_slope`, :meth:`JunctionField.plateau`).
    """

    if edge not in (1, 2):
        raise ValueError("special fields pair outlet 0 with outlet 1 or 2")
    r0, re = junction.radii[0], junction.radii[edge]
    growth = [None, None, None]
    growth[0] = OutletGrowth(0, [0.0, -1.0 / (math.pi * r0 * r0)])
    growth[edge] = OutletGrowth(edge, [0.0, 1.0 / (math.pi * re * re)])
    u, b, info = _solve_load(junction, InnerData(k=0, growth=tuple(growth)))
    decay = u - _plateau(junction, u, 0)
    return JunctionField(junction, decay, b, growth=tuple(growth), info=info)


def compute_delta(load, specials):
    """Transmission jumps of one corrector order via the bilinear pairing.

    ``load`` is the order's assembled load vector (:func:`assemble_load`,
    kept as ``JunctionField.load`` by :func:`solve_decaying`) and
    ``specials`` are the two fields from :func:`solve_special` (edges 1
    and 2).  The pairing of the data with a special field is the load
    applied to the field's nodal values.  Returns the jumps on outlets 1
    and 2 relative to outlet 0.
    """
    return np.array([float(load @ s.nodal_total()) for s in specials])


def compute_dstar(spec: ProblemSpec, k):
    """Exact flux budget constant of order k for the vertex balance."""
    if k < 0:
        raise ValueError("order must be >= 0")
    if k == 0:
        return 0.0
    total = 0.0
    for i in range(3):
        r = spec.h0(i)
        for j in range(1, k + 1):
            sl = spec.f.transverse_taylor(i, k - j).deriv(0, j - 1)
            val = sum(c * disk_monomial_integral(pa, pb, r)
                      for (px, pa, pb), c in sl.terms() if px == 0)
            total += spec.ell ** j / math.factorial(j) * val
        if not spec.phi[i].is_zero():
            dphi = spec.phi[i].x_deriv(k - 1).poly
            val = sum(c * circle_monomial_integral(pa, pb, r)
                      for (px, pa, pb), c in dphi.terms() if px == 0)
            total -= spec.ell ** k / math.factorial(k) * val
    fpart = spec.f.poly.total_degree_part(k - 1)
    if fpart.terms():
        total -= _box_integral(fpart, spec.ell)
    return total
