"""Exponential end layers that restore the sealed-end condition.

The regular expansion does not vanish on the end disk of a branch: its
cross-section corrector leaves a zero-mean trace there.  Each layer term
cancels that trace with a harmonic function of the stretched axial
distance, expanded over Neumann disk modes, every component decaying
like exp(-lam * distance).  The slowest rate is the first nonzero mode
frequency of the end disk, which makes the decay certifiable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .config import ProblemSpec
from .corrector import EdgeCorrector
from .diskspec import DiskQuadrature, DiskSpectrum

# Neumann disk modes per harmonic of an end layer; the series converges
# algebraically (a test trace of 2.5e-3 cancels to 4.4e-5, 1.2e-5 at 120).
MODE_DEPTH = 40


@dataclass
class BoundaryLayerTerm:
    """One end layer: coefficients against the end-disk Neumann modes.

    Evaluates sum_p a_p Theta_p(transverse) exp(-lam_p s) where s >= 0 is
    the stretched distance from the sealed end.  The flat-mode
    coefficient is identically zero (the trace has zero mean), so the
    whole term decays at least like exp(-lam_1 s).
    """

    edge: int
    order: int
    spectrum: DiskSpectrum
    coeffs: np.ndarray
    tail_norm: float = 0.0

    def __post_init__(self):
        # the modes with nonzero weight, as arrays for one table per call
        live = np.flatnonzero(self.coeffs)
        modes = [self.spectrum.modes[j] for j in live]
        self._coeffs = self.coeffs[live]
        self._n = np.array([m.n for m in modes])
        self._lam = np.array([m.lam for m in modes])
        self._sin = np.array([m.kind == "sin" for m in modes], dtype=bool)
        # J_{n-1}, J_n, J_{n+1} of every mode from one Bessel value per
        # distinct |order| and frequency: a cos and a sin mode share
        # theirs, and J_{-1} = -J_1 (bitwise in scipy's jv)
        orders = self._n + np.array([-1, 0, 1])[:, None]
        lam = np.broadcast_to(self._lam, orders.shape)
        keys, at = np.unique(np.stack([np.abs(orders), lam]).reshape(2, -1),
                             axis=1, return_inverse=True)
        self._bessel_order, self._bessel_lam = keys
        self._bessel_at = at.reshape(orders.shape)
        self._bessel_sign = np.where(orders < 0, -1.0, 1.0)

    @classmethod
    def zero(cls, edge, order, radius):
        sp = DiskSpectrum.for_harmonics(radius, (), 0)
        return cls(edge=edge, order=order, spectrum=sp,
                   coeffs=np.zeros(1), tail_norm=0.0)

    @property
    def is_zero(self):
        return not np.any(self.coeffs)

    @property
    def decay_rate(self):
        """Certified decay rate: smallest frequency with nonzero weight."""
        nz = np.nonzero(self.coeffs)[0]
        if nz.size == 0:
            return math.inf
        return float(self.spectrum.rates[nz[0]])

    def values(self, s, xa, xb):
        """Layer values at stretched distance s and transverse points."""
        shape = np.broadcast(s, xa, xb).shape
        out = self.gradient(s, xa, xb)[0]
        return out.reshape(shape) if shape else float(out[0])

    def gradient(self, s, xa, xb):
        """(value, d/ds, d/dxa, d/dxb) of the layer at the given points.

        One Bessel table J_{n-1}, J_n, J_{n+1} of all weighted modes
        serves the value and the gradient: J_n' and n J_n / (lam r) are
        the half difference and the half sum of the neighbours.
        """
        s, xa, xb = (np.ravel(v).astype(float)
                     for v in np.broadcast_arrays(s, xa, xb))
        r = np.hypot(xa, xb)
        t = np.arctan2(xb, xa)
        lam = self._lam
        bessel = special.jv(self._bessel_order, r[:, None] * self._bessel_lam)
        jm, jn, jp = bessel[:, self._bessel_at].transpose(1, 0, 2) \
            * self._bessel_sign[:, None]
        ang = t[:, None] * self._n
        trig = np.where(self._sin, np.sin(ang), np.cos(ang))
        dtrig = np.where(self._sin, np.cos(ang), -np.sin(ang))
        w = np.exp(-s[:, None] * lam) * self._coeffs
        radial = w * jn * trig
        val = radial.sum(axis=1)
        ds = -(radial @ lam)
        dr = (w * (jm - jp) * trig) @ (0.5 * lam)
        dt_over_r = (w * (jm + jp) * dtrig) @ (0.5 * lam)
        ct, st = np.cos(t), np.sin(t)
        return val, ds, ct * dr - st * dt_over_r, st * dr + ct * dt_over_r

    def amplitude(self):
        """Certified sup-norm constant: sum |a_p| sup|Theta_p|."""
        total = 0.0
        for a, mode in zip(self.coeffs, self.spectrum.modes):
            if a == 0.0:
                continue
            rr = np.linspace(0.0, mode.radius, 257)
            total += abs(a) * np.max(np.abs(mode.values(rr, 0.0 * rr)))
        return total

    def decay_certificate(self, s):
        """(certified bound, observed sup over disk samples) at distance s."""
        bound = self.amplitude() * math.exp(-self.decay_rate * float(s))
        if self.is_zero:
            return 0.0, 0.0
        h = self.spectrum.radius
        rr = np.linspace(0.0, h, 48)
        tt = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
        R, T = np.meshgrid(rr, tt)
        xa = (R * np.cos(T)).ravel()
        xb = (R * np.sin(T)).ravel()
        vals = self.values(np.full(xa.shape, float(s)), xa, xb)
        return bound, float(np.max(np.abs(vals)))


def build_pi(spec: ProblemSpec, edge, corr: EdgeCorrector | None,
             omega=None):
    """Layer term of order k at the sealed end of one branch.

    Projects the negated end trace of the corrector onto the end-disk
    modes.  Orders 0 and 1 have no corrector and produce the zero term.
    The flat-mode coefficient must come out zero (the trace has zero
    mean); a violation signals an upstream mean-constraint bug.
    """
    h1 = spec.h[edge].value1
    if corr is None:
        return BoundaryLayerTerm.zero(edge, 0, h1)
    if omega is not None:
        end = float(omega.value(1.0))
        if abs(end) > 1e-9:
            raise ValueError(f"axial solution does not vanish at the end "
                             f"(value {end:.3e}); trace data would be wrong")
    trace = corr.end_trace().trimmed(1e-15)
    if trace.max_abs() == 0.0:
        return BoundaryLayerTerm.zero(edge, corr.order, h1)
    present = np.where((np.abs(trace.cos) > 0).any(axis=1)
                       | (np.abs(trace.sin) > 0).any(axis=1))[0]
    spectrum = DiskSpectrum.for_harmonics(h1, present, depth=MODE_DEPTH)
    # enough radial points to resolve the most oscillatory retained mode
    nr = max(64, int(0.6 * spectrum.max_root) + 32)
    ntheta = max(128, 4 * (int(present.max()) + 1))
    quad = DiskQuadrature(h1, nr=nr, ntheta=ntheta)
    phi_vals = -trace.evaluate(quad.r * np.cos(quad.theta),
                               quad.r * np.sin(quad.theta))
    coeffs = spectrum.project(phi_vals, quad)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if abs(coeffs[0]) > 1e-10 * scale:
        raise ValueError(
            f"flat-mode weight {coeffs[0]:.3e} exceeds 1e-10; "
            "the corrector trace is not mean-free")
    coeffs[0] = 0.0
    tail = float(np.sqrt(np.sum(coeffs[-5:] ** 2)))
    return BoundaryLayerTerm(edge=edge, order=corr.order, spectrum=spectrum,
                             coeffs=coeffs, tail_norm=tail)
