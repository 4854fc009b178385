"""Disk Neumann eigenpairs used for end layers and junction tails."""

import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq

from thinjunction import DiskSpectrum
from thinjunction.diskspec import DiskQuadrature, radial_derivative_roots
from thinjunction.layers import BoundaryLayerTerm


def _bisect_first_root_n1():
    # Independent oracle: J1'(x) = J0(x) - J1(x)/x via the j0/j1 routines,
    # bisected to machine precision.
    def d(x):
        return special.j0(x) - special.j1(x) / x

    a, b = 1.0, 3.0
    assert d(a) > 0 > d(b)
    for _ in range(80):
        m = 0.5 * (a + b)
        if d(m) > 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def test_first_root_matches_bisection():
    lam = radial_derivative_roots(1, 1)[0]
    assert lam == pytest.approx(_bisect_first_root_n1(), abs=1e-12)
    assert lam == pytest.approx(1.8411837813, abs=1e-8)


def _brentq_polish(n, x0):
    """The former polish: brentq on J_n' in the same brackets."""
    def fun(x):
        return special.jvp(n, x)

    for w in (1e-10, 1e-8, 1e-6, 1e-4):
        a = x0 * (1.0 - w)
        b = x0 * (1.0 + w)
        if fun(a) * fun(b) < 0.0:
            return brentq(fun, a, b, xtol=1e-15, rtol=8.9e-16)
    return x0


def test_newton_polish_matches_brentq_within_two_ulp():
    # every root the package builds: a spectrum takes MODE_DEPTH = 40
    # roots per harmonic, and no end trace has a harmonic past 40
    for n in range(41):
        got = radial_derivative_roots(n, 40)
        want = np.array([_brentq_polish(n, x)
                         for x in special.jnp_zeros(n, 40)])
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want)), n


def test_roots_interlace_and_increase():
    r1 = radial_derivative_roots(1, 5)
    r2 = radial_derivative_roots(2, 5)
    assert np.all(np.diff(r1) > 0)
    # Roots of successive orders interlace.
    assert np.all(r1[:4] < r2[:4])
    assert np.all(r2[:4] < r1[1:])


def test_gram_matrix_orthonormal():
    spec = DiskSpectrum(1.0, range(8), 2)
    quad = DiskQuadrature(1.0)
    g = spec.gram_matrix(quad)
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) <= 1e-10
    assert np.max(np.abs(np.diag(g) - 1.0)) <= 1e-10


def test_modes_satisfy_helmholtz():
    spec = DiskSpectrum(0.8, range(5), 1)
    pts = [(0.31, 0.12), (-0.2, 0.45), (0.1, -0.5)]
    d = 1e-4
    for mode in spec.modes[:6]:
        lam = mode.lam
        for (x, y) in pts:
            r = np.hypot(x, y)
            th = np.arctan2(y, x)

            def v(xx, yy):
                return mode.values(np.hypot(xx, yy), np.arctan2(yy, xx))

            lap = (v(x + d, y) + v(x - d, y) + v(x, y + d) + v(x, y - d)
                   - 4 * v(x, y)) / d ** 2
            val = mode.values(np.array([r]), np.array([th]))[0]
            assert lap == pytest.approx(-lam ** 2 * val,
                                        abs=2e-3 * max(1.0, lam ** 2))


def test_rim_slope_vanishes():
    spec = DiskSpectrum(0.8, range(5), 1)
    th = np.linspace(0, 2 * np.pi, 13)
    xa, xb = 0.8 * np.cos(th), 0.8 * np.sin(th)
    for j, mode in enumerate(spec.modes[:8]):
        assert mode.rim_slope() < 1e-11
        # the radial derivative of the mode through a one-mode end layer
        coeffs = np.zeros(len(spec.modes))
        coeffs[j] = 1.0
        term = BoundaryLayerTerm(edge=0, order=2, spectrum=spec,
                                 coeffs=coeffs)
        _, _, ga, gb = term.gradient(np.zeros_like(th), xa, xb)
        dr = ga * np.cos(th) + gb * np.sin(th)
        assert np.max(np.abs(dr)) < 1e-11


def test_projection_recovers_coefficients():
    spec = DiskSpectrum(1.0, range(5), 2)
    quad = DiskQuadrature(1.0)
    coeffs = np.zeros(len(spec.modes))
    coeffs[0] = 0.7
    coeffs[3] = -1.2
    vals = spec.values_matrix(quad.r, quad.theta) @ coeffs
    got = spec.project(vals, quad)
    assert np.allclose(got, coeffs, atol=1e-10)


def _project_per_mode(spec, values, quad):
    # the former projection: every mode evaluated at every tensor point
    return np.array([quad.w @ (values * m.values(quad.r, quad.theta))
                     / m.norm2 for m in spec.modes])


@pytest.mark.parametrize("spec", [
    # "count": the eight harmonics 0..7 at depth 5, 76 modes
    DiskSpectrum(1.0, range(8), depth=5),
    DiskSpectrum(0.25, [0, 1, 3], depth=40),
], ids=["count", "harmonics"])
def test_separable_projection_matches_the_per_mode_sums(spec):
    # the radii and angle counts build_pi picks for these spectra
    nr = max(64, int(0.6 * spec.max_root) + 32)
    quad = DiskQuadrature(spec.radius, nr=nr, ntheta=128)
    xa = quad.r * np.cos(quad.theta) / spec.radius
    xb = quad.r * np.sin(quad.theta) / spec.radius
    vals = np.exp(xa) * (1.0 + xb ** 3) - 0.4 * xa * xb + np.cos(3.0 * xb)
    want = _project_per_mode(spec, vals, quad)
    got = spec.project(vals, quad)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_for_harmonics_selection():
    spec = DiskSpectrum(0.5, [0, 2], depth=4)
    assert {m.n for m in spec.modes} <= {0, 2}
    assert np.all(np.diff(spec.rates) >= -1e-12)
    assert spec.rates[1] == pytest.approx(np.min(spec.rates[1:]))
    # Rates scale inversely with the radius.
    wide = DiskSpectrum(1.0, [0, 2], depth=4)
    assert spec.rates[1] == pytest.approx(2.0 * wide.rates[1], rel=1e-12)
