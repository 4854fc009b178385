"""One-dimensional vertex problems on the three-edge graph."""

import math

import numpy as np
import pytest

from thinjunction import (
    LateralLoad,
    RadiusProfile,
    SourceField,
    TransmissionData,
    solve_limit,
    solve_omega_k,
)
from thinjunction.cheb import antiderivative, interpolate
from thinjunction.graph import (
    DEG,
    EdgeFunction,
    _solve_continuous,
    assemble_rhs0,
    weak_residual,
)
from thinjunction.poly import Poly3

from conftest import make_spec


@pytest.fixture(scope="module")
def unit_radius_spec():
    # Unit radii are fine here: no 3-D mesh is attached to the vertex.
    f = SourceField(Poly3.from_terms([((1, 0, 0), 1.0)]))
    return make_spec(f, h=(RadiusProfile.constant(1.0),) * 3)


def test_limit_closed_form(unit_radius_spec):
    """f = x1, h = 1: cubic on the loaded edge, linear on the others."""
    gf = solve_limit(unit_radius_spec)
    x = np.linspace(0.0, 1.0, 401)
    w1 = -x ** 3 / 6.0 + x / 9.0 + 1.0 / 18.0
    w23 = (1.0 - x) / 18.0
    assert np.max(np.abs(gf[0].value(x) - w1)) < 1e-10
    assert np.max(np.abs(gf[1].value(x) - w23)) < 1e-10
    assert np.max(np.abs(gf[2].value(x) - w23)) < 1e-10


def test_limit_vertex_continuity_and_flux(unit_radius_spec):
    gf = solve_limit(unit_radius_spec)
    v = [e.vertex_value for e in gf]
    assert v[0] == pytest.approx(v[1], abs=1e-12)
    assert v[0] == pytest.approx(v[2], abs=1e-12)
    flux = sum(math.pi * unit_radius_spec.h0(i) ** 2 * gf[i].vertex_slope
               for i in range(3))
    assert flux == pytest.approx(0.0, abs=1e-10)
    assert np.allclose([e.value(1.0) for e in gf], 0.0, atol=1e-12)


def test_limit_weak_residual_random_source(rng):
    f = SourceField(Poly3.from_terms(
        [((2, 0, 0), 0.7), ((0, 0, 0), -0.4), ((1, 0, 0), 1.3)]))
    h = (RadiusProfile.constant(0.25),
         RadiusProfile.smooth_bump(0.25, 0.4),
         RadiusProfile.constant(0.2))
    spec = make_spec(f, h=h)
    gf = solve_limit(spec)
    rhs = assemble_rhs0(spec)
    res = weak_residual(spec, gf, rhs, TransmissionData())
    assert res < 1e-9
    # The edges reuse the solve's flux antiderivative: an edge built from
    # a fresh interpolation of its rhs is bitwise the same.
    _, v, c = _solve_continuous(spec, rhs, 0.0)
    x = np.linspace(0.0, 1.0, 257)
    for i, edge in enumerate(gf):
        s = antiderivative(interpolate(rhs[i], h[i].breakpoints, DEG))
        fresh = EdgeFunction(h[i], rhs[i], s, v, c[i])
        for name in ("value", "d1", "d2"):
            assert np.array_equal(getattr(fresh, name)(x),
                                  getattr(edge, name)(x))


def test_limit_with_lateral_load():
    f = SourceField.constant(1.0)
    phi = (LateralLoad(Poly3.constant(0.1)), LateralLoad.zero(),
           LateralLoad.zero())
    spec = make_spec(f, phi=phi)
    gf = solve_limit(spec)
    res = weak_residual(spec, gf, assemble_rhs0(spec),
                        TransmissionData())
    assert res < 1e-9
    # The load drains energy: the solution differs from the no-load one.
    base = solve_limit(make_spec(f))
    x = np.linspace(0, 1, 11)
    assert np.max(np.abs(gf[0].value(x) - base[0].value(x))) > 1e-3


def test_omega_k_jump_and_flux_conditions(fx_spec):
    trans = TransmissionData(delta2=0.03, delta3=-0.02, dstar=0.05)
    rhs = assemble_rhs0(fx_spec)
    gf = solve_omega_k(fx_spec, rhs, trans)
    v = [e.vertex_value for e in gf]
    assert v[1] - v[0] == pytest.approx(0.03, abs=1e-11)
    assert v[2] - v[0] == pytest.approx(-0.02, abs=1e-11)
    # Total vertex flux matches the prescribed defect.
    total = sum(math.pi * fx_spec.h0(i) ** 2 * gf[i].vertex_slope
                for i in range(3))
    assert total == pytest.approx(0.05, abs=1e-10)
    assert weak_residual(fx_spec, gf, rhs, trans) < 1e-9


def test_omega_k_zero_data_is_zero(fx_spec):
    zero_rhs = [type(r)(fn=lambda x: np.zeros_like(np.asarray(x, float)),
                        germ0=r.germ0 * 0.0)
                for r in assemble_rhs0(fx_spec)]
    gf = solve_omega_k(fx_spec, zero_rhs, TransmissionData())
    x = np.linspace(0, 1, 11)
    for i in range(3):
        assert np.max(np.abs(gf[i].value(x))) < 1e-12


def test_germ_matches_values_near_vertex(fx_spec):
    gf = solve_limit(fx_spec)
    for i in range(3):
        g = gf[i].germ()
        x = np.linspace(0.0, 0.05, 21)
        assert np.max(np.abs(g(x) - gf[i].value(x))) < 1e-9


def test_derivs_at_zero_consistent(fx_spec):
    gf = solve_limit(fx_spec)
    for i in range(3):
        ds = gf[i].derivs_at_zero(3)
        assert ds[0] == pytest.approx(gf[i].vertex_value, abs=1e-12)
        assert ds[1] == pytest.approx(gf[i].vertex_slope, abs=1e-12)
        d = 1e-4
        fd2 = (gf[i].value(np.array([2 * d]))[0]
               - 2 * gf[i].value(np.array([d]))[0]
               + gf[i].vertex_value) / d ** 2
        assert ds[2] == pytest.approx(fd2, abs=1e-3)


def test_vertex_data_are_kept_from_construction(exp_rich):
    """Vertex value and slope equal the profile at x = 0, also after the
    affine shift of the jump substitution, and the stacked profiles
    match each edge function's own value and slope."""
    x = np.linspace(0.0, 1.0, 37)
    for i in range(3):
        edges = [exp_rich.graph[k][i] for k in sorted(exp_rich.graph)]
        for e in edges + [edges[-1].with_affine(0.3, -0.2)]:
            assert e.vertex_value == float(e.value(0.0))
            assert e.vertex_slope == float(e.d1(0.0))
        vals, slopes = exp_rich.tube_profiles(i, x)
        for k, e in enumerate(edges):
            assert np.allclose(vals[:, k], e.value(x), rtol=1e-14, atol=0)
            assert np.allclose(slopes[:, k], e.d1(x), rtol=1e-14, atol=0)
    assert any(e.affine != (0.0, 0.0)
               for g in exp_rich.graph.values() for e in g)
