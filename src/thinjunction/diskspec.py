"""Neumann eigenpairs of the Laplacian on a disk cross-section.

Near each sealed outer end the solution relaxes to the end condition
through an exponentially decaying tail.  Separation of variables in a
half-infinite circular cylinder produces disk eigenfunctions
``J_n(lam r) cos(n t)`` and ``J_n(lam r) sin(n t)`` whose radial
derivative vanishes on the rim, each paired with an axial decay rate
equal to its frequency ``lam``.  This module enumerates those pairs for
a disk of given radius and given angular orders, with closed-form norms
and a tensor quadrature used to project end traces onto the basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre
from scipy import special


def _polish_root(n, x0):
    """Tighten a positive root of J_n' by Newton steps on J_n', with J_n''
    from ``special.jvp``, inside the narrowest of a few brackets about
    x0 that holds a sign change; a step that leaves the bracket is
    replaced by its midpoint."""
    for w in (1e-10, 1e-8, 1e-6, 1e-4):
        a, b = x0 * (1.0 - w), x0 * (1.0 + w)
        fa = special.jvp(n, a)
        if fa * special.jvp(n, b) < 0.0:
            break
    else:
        return x0
    x = x0
    for _ in range(64):
        f = special.jvp(n, x)
        if f == 0.0:
            return x
        if (f < 0.0) == (fa < 0.0):
            a = x
        else:
            b = x
        step = f / special.jvp(n, x, 2)
        if abs(step) <= 4.0 * np.spacing(x):
            return min(max(x - step, a), b)
        x = x - step if a < x - step < b else 0.5 * (a + b)
    return x


def radial_derivative_roots(n, count):
    """First ``count`` positive roots of J_n', refined to machine precision."""
    raw = special.jnp_zeros(n, count)
    return np.array([_polish_root(n, x) for x in raw])


@dataclass(frozen=True)
class DiskMode:
    """One Neumann eigenfunction of the disk of radius ``radius``.

    ``kind`` is "const" for the flat mode, else "cos" or "sin"; ``root``
    is the associated positive root of J_n' (0 for the flat mode).
    """

    n: int
    kind: str
    root: float
    radius: float

    @property
    def lam(self):
        """Transverse frequency; also the axial decay rate of the tail."""
        return self.root / self.radius

    @cached_property
    def norm2(self):
        """Squared L2 norm over the disk, in closed form."""
        h = self.radius
        if self.kind == "const":
            return math.pi * h * h
        jn = special.jv(self.n, self.root)
        radial = 0.5 * h * h * (1.0 - (self.n / self.root) ** 2) * jn * jn
        angular = 2.0 * math.pi if self.n == 0 else math.pi
        return radial * angular

    def radial(self, r):
        """The radial factor J_n(lam r), 1 for the flat mode."""
        r = np.asarray(r, dtype=float)
        if self.kind == "const":
            return np.ones(r.shape)
        return special.jv(self.n, self.lam * r)

    def angular(self, theta):
        """The angular factor cos(n t) or sin(n t), 1 for the flat mode."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "sin":
            return np.sin(self.n * theta)
        return np.cos(self.n * theta)

    def values(self, r, theta):
        return self.radial(r) * self.angular(theta)

    def rim_slope(self):
        """|J_n'| at the rim; a direct check of the lateral condition."""
        if self.kind == "const":
            return 0.0
        return abs(float(special.jvp(self.n, self.root)))


class DiskQuadrature:
    """Tensor rule on the disk: Gauss-Legendre radially, uniform angles.

    The points run radius by radius: at each of the ``nr`` radii
    ``radii`` come the ``ntheta`` angles ``angles``, all with the weight
    ``radial_w`` of that radius.
    """

    def __init__(self, radius, nr=64, ntheta=128):
        self.radius = float(radius)
        self.nr, self.ntheta = int(nr), int(ntheta)
        gx, gw = legendre.leggauss(nr)
        s = 0.5 * (gx + 1.0)
        ws = 0.5 * gw
        self.radii = self.radius * s
        wr = self.radius ** 2 * ws * s  # weight r dr mapped from [0,1]
        self.angles = 2.0 * math.pi * np.arange(ntheta) / ntheta
        self.radial_w = wr * (2.0 * math.pi / ntheta)
        self.r = np.repeat(self.radii, ntheta)
        self.theta = np.tile(self.angles, nr)
        self.w = np.repeat(self.radial_w, ntheta)


class DiskSpectrum:
    """The Neumann modes of a disk of the given angular orders, ``depth``
    radial modes each, ordered by frequency after the flat mode.

    Suited to projecting data with known harmonic content: the radial
    series then converges to depth instead of being diluted across unused
    angular orders.  Each order n >= 1 gives a cos and a sin mode per
    root of J_n'.
    """

    def __init__(self, radius, harmonics, depth):
        self.radius = float(radius)
        entries = []
        for n in sorted(set(int(n) for n in harmonics)):
            for root in radial_derivative_roots(n, depth):
                entries.append((root, n))
        entries.sort()
        self.modes = [DiskMode(0, "const", 0.0, self.radius)]
        for root, n in entries:
            self.modes.append(DiskMode(n, "cos", root, self.radius))
            if n >= 1:
                self.modes.append(DiskMode(n, "sin", root, self.radius))

    @property
    def max_root(self):
        return max(m.root for m in self.modes)

    @property
    def rates(self):
        """Decay rates of all modes (0 first, then increasing)."""
        return np.array([m.lam for m in self.modes])

    def values_matrix(self, r, theta):
        """Mode values at points, shape (npoints, modes)."""
        return np.column_stack([m.values(r, theta) for m in self.modes])

    def project(self, values, quad: DiskQuadrature):
        """L2 coefficients of sampled data against each mode.

        The rule is a tensor product, so the data are summed over the
        angles once per harmonic and kind, and each mode contracts those
        sums with its radial factor at the ``nr`` radii.
        """
        vals = np.asarray(values, dtype=float).reshape(quad.nr, quad.ntheta)
        sums = {}
        out = np.empty(len(self.modes))
        for j, m in enumerate(self.modes):
            key = (m.n, m.kind == "sin")
            if key not in sums:
                sums[key] = quad.radial_w * (vals @ m.angular(quad.angles))
            out[j] = m.radial(quad.radii) @ sums[key] / m.norm2
        return out

    def gram_matrix(self, quad: DiskQuadrature):
        """Normalized Gram matrix under ``quad`` (identity if exact)."""
        V = self.values_matrix(quad.r, quad.theta)
        scale = np.array([m.norm2 for m in self.modes])
        G = (V * quad.w[:, None]).T @ V
        return G / np.sqrt(np.outer(scale, scale))
