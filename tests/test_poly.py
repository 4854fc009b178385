"""Trivariate polynomials and the associated exact integrals."""

import numpy as np
import pytest

from thinjunction.poly import (
    Poly3,
    box_monomial_integral,
    circle_monomial_integral,
    compose_poly1,
    disk_monomial_integral,
    trig_integral,
    trig_power_modes,
)


def test_evaluation_matches_monomial_sum(rng):
    terms = [((1, 0, 0), 2.0), ((0, 2, 1), -0.5), ((3, 1, 0), 0.25)]
    p = Poly3.from_terms(terms)
    pts = rng.uniform(-1.0, 1.0, size=(20, 3))
    want = sum(c * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** d
               for (a, b, d), c in terms)
    got = p(pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_derivative_is_exact(rng):
    p = Poly3.from_terms([((2, 1, 0), 3.0), ((0, 0, 3), 1.0)])
    dx = p.deriv(0)
    dzz = p.deriv(2, m=2)
    x, y, z = rng.uniform(-1, 1, size=(3, 8))
    assert np.allclose(dx(x, y, z), 6.0 * x * y, atol=1e-14)
    assert np.allclose(dzz(x, y, z), 6.0 * z, atol=1e-14)


def test_total_degree_split(rng):
    p = Poly3.from_terms([((1, 1, 0), 1.0), ((2, 0, 0), 2.0),
                          ((0, 0, 1), -1.0)])
    x, y, z = rng.uniform(-1, 1, size=(3, 6))
    parts = [p.total_degree_part(k) for k in range(4)]
    total = sum(q(x, y, z) for q in parts)
    assert np.allclose(total, p(x, y, z), atol=1e-14)
    trunc = p.total_degree_truncate(1)
    assert np.allclose(trunc(x, y, z), -z, atol=1e-14)
    assert p.total_degree_truncate(-2).total_degree == 0
    assert np.allclose(p.total_degree_truncate(-2)(x, y, z), 0.0)


def test_arithmetic(rng):
    a = Poly3.from_terms([((1, 0, 0), 1.0)])
    x, y, z = rng.uniform(-1, 1, size=(3, 5))
    assert np.allclose(a.scale(-3.0)(x, y, z), -3 * x, atol=1e-14)
    assert Poly3.zero().total_degree == 0
    assert Poly3.constant(2.5)(x, y, z) == pytest.approx(2.5)


def _quad_disk(p, q, h, n=24):
    # Gauss-Legendre in radius (exact for monomials at this order) and an
    # equispaced angular rule (exact for trig polynomials below degree n).
    nodes, weights = np.polynomial.legendre.leggauss(n)
    r = 0.5 * h * (nodes + 1.0)
    wr = 0.5 * h * weights
    t = (np.arange(4 * n) + 0.5) * 2 * np.pi / (4 * n)
    rr, tt = np.meshgrid(r, t, indexing="ij")
    vals = (rr * np.cos(tt)) ** p * (rr * np.sin(tt)) ** q * rr
    return (vals * wr[:, None]).sum() * (2 * np.pi / (4 * n))


@pytest.mark.parametrize("p,q", [(0, 0), (2, 0), (0, 2), (2, 2), (4, 0),
                                 (1, 0), (1, 1), (3, 1)])
def test_disk_monomial_integral(p, q):
    h = 0.7
    want = _quad_disk(p, q, h)
    got = disk_monomial_integral(p, q, h)
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("p,q", [(0, 0), (2, 0), (0, 4), (2, 2), (1, 0)])
def test_circle_monomial_integral(p, q):
    h = 0.6
    t = np.linspace(0.0, 2 * np.pi, 20001)
    vals = (h * np.cos(t)) ** p * (h * np.sin(t)) ** q
    want = np.trapezoid(vals, t) * h
    got = circle_monomial_integral(p, q, h)
    assert got == pytest.approx(want, abs=1e-9)


def test_box_monomial_integral():
    L = 0.6
    # Cube (-L, L)^3; odd powers vanish, even powers separate.
    assert box_monomial_integral((0, 0, 0), L) == pytest.approx(
        (2 * L) ** 3, rel=1e-13)
    assert box_monomial_integral((1, 0, 0), L) == pytest.approx(0.0,
                                                                abs=1e-15)
    want = (2 * L ** 3 / 3) * (2 * L) ** 2
    assert box_monomial_integral((2, 0, 0), L) == pytest.approx(
        want, rel=1e-13)


@pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (2, 0), (2, 2),
                                 (3, 1), (0, 4)])
def test_trig_power_modes_match_fft(p, q):
    n = 64
    t = np.arange(n) * 2 * np.pi / n
    vals = np.cos(t) ** p * np.sin(t) ** q
    spec = np.fft.rfft(vals) / n
    a, b = trig_power_modes(p, q)
    recon = np.full(n, a[0])
    for k in range(1, len(a)):
        recon += a[k] * np.cos(k * t) + b[k] * np.sin(k * t)
    assert np.allclose(recon, vals, atol=1e-12)
    # Mean mode equals the FFT circle average.
    assert a[0] == pytest.approx(spec[0].real, abs=1e-12)
    assert trig_integral(p, q) == pytest.approx(2 * np.pi * a[0], abs=1e-12)


def test_compose_poly1():
    outer = np.polynomial.Polynomial([1.0, 2.0, 3.0])   # 1 + 2t + 3t^2
    inner = np.polynomial.Polynomial([0.5, -1.0])        # 0.5 - x
    comp = compose_poly1(outer, inner)
    x = np.linspace(-1, 1, 7)
    assert np.allclose(comp(x), outer(inner(x)), atol=1e-13)
