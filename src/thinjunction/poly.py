"""Small exact-arithmetic polynomial helpers (trivariate cubes, trig powers)."""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npp


class Poly3:
    """Trivariate polynomial stored as a dense coefficient cube.

    ``coef[i, j, k]`` multiplies ``v0**i * v1**j * v2**k``.  The variable
    meaning is up to the caller (physical coordinates for source fields,
    (x_i, transverse a, transverse b) for lateral loads and Taylor slices).
    """

    __slots__ = ("coef",)

    def __init__(self, coef):
        c = np.asarray(coef, dtype=float)
        if c.ndim != 3:
            raise ValueError("Poly3 expects a 3-D coefficient array")
        self.coef = c

    @classmethod
    def zero(cls):
        return cls(np.zeros((1, 1, 1)))

    @classmethod
    def constant(cls, value):
        return cls(np.full((1, 1, 1), float(value)))

    @classmethod
    def from_terms(cls, terms):
        """terms: iterable of ((i, j, k), coef)."""
        terms = [(tuple(int(p) for p in pw), float(c)) for pw, c in terms]
        if not terms:
            return cls.zero()
        shape = tuple(max(pw[d] for pw, _ in terms) + 1 for d in range(3))
        c = np.zeros(shape)
        for pw, v in terms:
            c[pw] += v
        return cls(c)

    def __call__(self, v0, v1, v2):
        return npp.polyval3d(np.asarray(v0, dtype=float),
                             np.asarray(v1, dtype=float),
                             np.asarray(v2, dtype=float), self.coef)

    def deriv(self, axis, m=1):
        if m == 0:
            return self
        if self.coef.shape[axis] <= m:
            return Poly3.zero()
        return Poly3(npp.polyder(self.coef, m=m, axis=axis))

    def terms(self):
        idx = np.argwhere(self.coef != 0.0)
        return [(tuple(i), self.coef[tuple(i)]) for i in idx]

    @property
    def total_degree(self):
        t = self.terms()
        return max((sum(pw) for pw, _ in t), default=0)

    def scale(self, s):
        return Poly3(self.coef * float(s))

    def total_degree_part(self, k):
        """Homogeneous part of total degree k (Taylor term about the origin)."""
        out = np.zeros_like(self.coef)
        for pw, v in self.terms():
            if sum(pw) == k:
                out[pw] = v
        return Poly3(out)

    def total_degree_truncate(self, p):
        """Taylor polynomial about the origin of total degree <= p."""
        out = np.zeros_like(self.coef)
        for pw, v in self.terms():
            if sum(pw) <= p:
                out[pw] = v
        return Poly3(out)


def trig_power_modes(p, q):
    """Exact harmonic expansion of cos^p(t) sin^q(t).

    Returns (a, b) with cos^p sin^q = a[0] + sum_{k>=1} a[k] cos(kt) + b[k] sin(kt),
    arrays of length p+q+1.
    """
    # (e^{it}+e^{-it})^p (e^{it}-e^{-it})^q / (2^p (2i)^q), exponents m-2j.
    za = np.zeros(2 * (p + q) + 1, dtype=complex)  # index shift by p+q
    for j in range(p + 1):
        for l in range(q + 1):
            k = (p - 2 * j) + (q - 2 * l)
            za[k + p + q] += math.comb(p, j) * math.comb(q, l) * (-1) ** l
    za /= 2 ** p * (2j) ** q
    n = p + q
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    a[0] = za[n].real
    for k in range(1, n + 1):
        a[k] = 2.0 * za[n + k].real
        b[k] = -2.0 * za[n + k].imag
    return a, b


def trig_integral(p, q):
    """int_0^{2pi} cos^p t sin^q t dt, exactly."""
    a, _ = trig_power_modes(p, q)
    return 2.0 * math.pi * a[0]


def disk_monomial_integral(p, q, h):
    """int over the disk of radius h of xa^p xb^q dA."""
    return trig_integral(p, q) * h ** (p + q + 2) / (p + q + 2)


def circle_monomial_integral(p, q, h):
    """int over the circle of radius h of xa^p xb^q arclength."""
    return trig_integral(p, q) * h ** (p + q + 1)


def box_monomial_integral(powers, ell):
    """int over (-ell, ell)^3 of x1^a x2^b x3^c."""
    out = 1.0
    for p in powers:
        if p % 2 == 1:
            return 0.0
        out *= 2.0 * ell ** (p + 1) / (p + 1)
    return out


def compose_poly1(outer, inner):
    """outer(inner(x)) for 1-D numpy Polynomial objects (Horner)."""
    from numpy.polynomial import Polynomial

    result = Polynomial([0.0])
    for c in outer.coef[::-1]:
        result = result * inner + Polynomial([c])
    return result
