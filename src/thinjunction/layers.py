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

# Truncation of an end layer's mode series, relative to its amplitude
# A = sum_p |a_p|.  At stretched distance s >= 0 a point keeps the
# shortest prefix of the modes, in order of frequency, whose dropped
# tail sum |a_p| (1 + lam_p) exp(-lam_p s) is at most TAIL_RTOL * A, and
# at least the slowest mode, so that far from the end the layer keeps
# its leading exponential instead of reading zero.  A mode
# J_n(lam r) trig(n t) is at most 1 in size and its transverse gradient
# at most lam (|J_n| <= 1 for real arguments, Watson), so the value and
# each derivative move by at most TAIL_RTOL * A, the rounding of a sum
# of size A.
TAIL_RTOL = 1e-16


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

    def __post_init__(self):
        # the modes with nonzero weight in order of frequency, as arrays
        # for one table per call
        live = np.flatnonzero(self.coeffs)
        live = live[np.argsort(self.spectrum.rates[live], kind="stable")]
        modes = [self.spectrum.modes[j] for j in live]
        self._coeffs = self.coeffs[live]
        self._n = np.array([m.n for m in modes])
        self._lam = np.array([m.lam for m in modes])
        self._half_lam = 0.5 * self._lam
        self._sin = np.array([m.kind == "sin" for m in modes], dtype=bool)
        # each mode's share of the tail bound, |a_p| (1 + lam_p)
        self._bound = np.abs(self._coeffs) * (1.0 + self._lam)
        self._amplitude = float(np.abs(self._coeffs).sum())
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
        # the first mode that reads each Bessel value: a point that keeps
        # K modes needs the values whose first reader comes before K
        self._first_use = np.full(keys.shape[1], self._n.size)
        np.minimum.at(self._first_use, self._bessel_at,
                      np.broadcast_to(np.arange(self._n.size), orders.shape))

    @classmethod
    def zero(cls, edge, order, radius):
        sp = DiskSpectrum(radius, (), 0)
        return cls(edge=edge, order=order, spectrum=sp, coeffs=np.zeros(1))

    @property
    def is_zero(self):
        return not self._lam.size

    @property
    def decay_rate(self):
        """Certified decay rate: smallest frequency with nonzero weight."""
        nz = np.nonzero(self.coeffs)[0]
        if nz.size == 0:
            return math.inf
        return float(self.spectrum.rates[nz[0]])

    def values(self, s, xa, xb):
        """Layer values at stretched distance s and transverse points."""
        s, xa, xb = np.broadcast_arrays(s, xa, xb)
        out = self.gradient(s, xa, xb)[0]
        return out.reshape(s.shape) if s.shape else float(out[0])

    def kept(self, decay):
        """Per point (row of ``decay``, the factors exp(-lam_p s) of the
        modes), which modes the series keeps: the shortest nonempty
        prefix whose dropped tail bound is at most ``TAIL_RTOL`` times
        the amplitude."""
        tail = np.cumsum((decay * self._bound)[:, ::-1], axis=1)[:, ::-1]
        kept = tail > TAIL_RTOL * self._amplitude
        kept[:, :1] = True
        return kept

    def gradient(self, s, xa, xb):
        """(value, d/ds, d/dxa, d/dxb) of the layer at the points given
        by arrays s, xa, xb of one shape, flattened.

        Each point sums the modes it keeps (:meth:`kept`); what the rest
        would add is at most ``TAIL_RTOL`` times the amplitude in the
        value and in each derivative.  One Bessel table J_{n-1}, J_n,
        J_{n+1} of the kept modes serves the value and the gradient: J_n'
        and n J_n / (lam r) are the half difference and the half sum of
        the neighbours.  Each sum runs over every mode, a dropped one as
        zero, in one order for every point, so a point's answer does not
        depend on the batch it comes in.
        """
        s, xa, xb = (np.asarray(v, dtype=float).ravel() for v in (s, xa, xb))
        r = np.hypot(xa, xb)
        t = np.arctan2(xb, xa)
        lam = self._lam
        decay = np.exp(-s[:, None] * lam)
        kept = self.kept(decay)
        # J only at the (point, value) pairs that a kept mode reads
        p, q = np.nonzero(self._first_use < kept.sum(axis=1)[:, None])
        bessel = np.zeros((s.size, self._bessel_lam.size))
        bessel[p, q] = special.jv(self._bessel_order[q],
                                  r[p] * self._bessel_lam[q])
        # np.take keeps the point axis outermost: fancy indexing would
        # lay the points innermost, and numpy then sums a large batch's
        # modes in another order than a small one's
        jm, jn, jp = np.take(bessel, self._bessel_at, axis=1).transpose(
            1, 0, 2) * self._bessel_sign[:, None]
        ang = t[:, None] * self._n
        cos, sin = np.cos(ang), np.sin(ang)
        trig = np.where(self._sin, sin, cos)
        dtrig = np.where(self._sin, cos, -sin)
        w = np.where(kept, decay * self._coeffs, 0.0)
        radial = w * jn * trig
        val = radial.sum(axis=1)
        ds = -(radial * lam).sum(axis=1)
        dr = (w * (jm - jp) * trig * self._half_lam).sum(axis=1)
        dt_over_r = (w * (jm + jp) * dtrig * self._half_lam).sum(axis=1)
        ct, st = np.cos(t), np.sin(t)
        return val, ds, ct * dr - st * dt_over_r, st * dr + ct * dt_over_r

    def amplitude(self):
        """Certified sup-norm constant sum |a_p| sup|Theta_p|, with
        sup|Theta_p| <= 1 from the radial factor alone: |J_n(x)| <= 1 for
        real x (Watson, A Treatise on the Theory of Bessel Functions)."""
        return self._amplitude

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
    spectrum = DiskSpectrum(h1, present, depth=MODE_DEPTH)
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
    return BoundaryLayerTerm(edge=edge, order=corr.order, spectrum=spectrum,
                             coeffs=coeffs)
