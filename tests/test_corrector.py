"""Exact cross-section solves and axial families of correctors."""

import numpy as np
import pytest

from thinjunction import DiskCompatibilityError, build_corrector, solve_disk_neumann
from thinjunction.corrector import DiskPoly, _modal_eval
from thinjunction.graph import solve_limit

from fd_disk import richardson_pair


def disk_points(h, n, rng):
    r = h * np.sqrt(rng.uniform(0.02, 0.95, n))
    t = rng.uniform(0, 2 * np.pi, n)
    return r * np.cos(t), r * np.sin(t)


class TestDiskPoly:
    def test_from_poly2_matches_cartesian(self, rng):
        coef = np.zeros((3, 3))
        coef[1, 0] = 2.0   # xa
        coef[0, 2] = -0.5  # xb^2
        coef[2, 1] = 0.7   # xa^2 xb
        p = DiskPoly.from_poly2(coef)
        xa, xb = disk_points(1.0, 40, rng)
        want = 2.0 * xa - 0.5 * xb ** 2 + 0.7 * xa ** 2 * xb
        assert np.allclose(p.evaluate(xa, xb), want, atol=1e-13)

    def test_gradient_and_laplacian(self, rng):
        coef = np.zeros((4, 4))
        coef[3, 0] = 1.0
        coef[1, 2] = -0.6
        p = DiskPoly.from_poly2(coef)
        xa, xb = disk_points(0.9, 25, rng)
        d = 1e-6
        _, ga, gb = p.gradient(xa, xb)
        fa = (p.evaluate(xa + d, xb) - p.evaluate(xa - d, xb)) / (2 * d)
        fb = (p.evaluate(xa, xb + d) - p.evaluate(xa, xb - d)) / (2 * d)
        assert np.max(np.abs(ga - fa)) < 1e-8
        assert np.max(np.abs(gb - fb)) < 1e-8
        lap = p.laplacian().evaluate(xa, xb)
        want = 6.0 * xa - 0.6 * 2.0 * xa
        assert np.allclose(lap, want, atol=1e-12)

    def test_mean_and_circle_integral(self):
        p = DiskPoly.zeros(0, 2)
        p.cos[0, 2] = 1.0  # r^2
        h = 0.5
        assert p.mean_integral(h) == pytest.approx(np.pi * h ** 4 / 2,
                                                   rel=1e-13)
        assert p.mean_value(h) == pytest.approx(h ** 2 / 2, rel=1e-13)
        assert p.circle_integral(h) == pytest.approx(2 * np.pi * h ** 3,
                                                     rel=1e-13)


class TestSolveDiskNeumann:
    def test_radial_closed_form(self):
        # Constant rim slope c balanced by the constant source 2c/h:
        # u(r) = -(c / (2h)) r^2 + c h / 4.
        c, h = 0.8, 0.6
        g = DiskPoly.zeros(0, 0)
        g.cos[0, 0] = 2.0 * c / h
        u = solve_disk_neumann(g, [c], [0.0], h)
        r = np.linspace(0, h, 33)
        want = -(c / (2 * h)) * r ** 2 + c * h / 4
        got = u.evaluate(r, np.zeros_like(r))
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12

    def test_matches_polar_fd_oracle(self, rng):
        h = 0.7
        g = DiskPoly.zeros(2, 2)
        g.cos[1, 1] = 1.5
        g.sin[2, 2] = -0.8
        bc = np.array([0.0, 0.2, 0.0])
        bs = np.array([0.0, 0.0, 0.3])
        exact = solve_disk_neumann(g, bc, bs, h)

        def gfun(r, t):
            return 1.5 * r * np.cos(t) - 0.8 * r ** 2 * np.sin(2 * t)

        def bfun(t):
            return 0.2 * np.cos(t) + 0.3 * np.sin(2 * t)

        r, th, u_star, rate = richardson_pair(gfun, bfun, h, 64, 64)
        assert 1.7 < rate < 2.3
        R, T = np.meshgrid(r, th, indexing="ij")
        vals = exact.evaluate((R * np.cos(T)).ravel(),
                              (R * np.sin(T)).ravel()).reshape(R.shape)
        rel = np.max(np.abs(u_star - vals)) / np.max(np.abs(vals))
        assert rel <= 1e-5

    def test_solution_properties(self, rng):
        h = 0.55
        g = DiskPoly.zeros(1, 1)
        g.cos[1, 1] = 2.0
        u = solve_disk_neumann(g, [0.0], [0.0], h)
        # Mean zero, interior equation, rim condition.
        assert u.mean_value(h) == pytest.approx(0.0, abs=1e-13)
        xa, xb = disk_points(h, 30, rng)
        assert np.allclose(-u.laplacian().evaluate(xa, xb),
                           g.evaluate(xa, xb), atol=1e-12)
        sc, ss = u.rderiv_trace_fourier(h)
        assert np.max(np.abs(sc)) < 1e-12
        assert np.max(np.abs(ss)) < 1e-12

    def test_incompatible_data_rejected(self):
        g = DiskPoly.zeros(0, 0)
        g.cos[0, 0] = 1.0  # net interior flux, nothing on the rim
        with pytest.raises(DiskCompatibilityError):
            solve_disk_neumann(g, [0.0], [0.0], 0.5)

    def test_resonant_data_rejected(self):
        g = DiskPoly.zeros(2, 0)
        g.cos[2, 0] = 1.0  # harmonic 2 at power 0: (q+2)^2 = n^2
        with pytest.raises(ValueError, match="resonant"):
            solve_disk_neumann(g, [0.0], [0.0], 0.5)


@pytest.fixture(scope="module")
def rich_corr(rich_spec):
    gf = solve_limit(rich_spec)
    return build_corrector(rich_spec, 1, 2, omega=gf[1]), gf


class TestEdgeCorrector:
    def test_interior_equation(self, rich_corr, rich_spec, rng):
        corr, gf = rich_corr
        # -lap_transverse u2 = f-slice + omega0'' pointwise in x.
        h = rich_spec.h[1]
        fslice = rich_spec.f.transverse_taylor(1, 0)
        for x in (0.2, 0.5, 0.77):
            hx = float(h(np.array([x]))[0])
            xa, xb = disk_points(hx, 20, rng)
            lap = corr.modal_at(x).laplacian().evaluate(xa, xb)
            want = -(fslice(np.full(xa.size, x), xa, xb)
                     + float(gf[1].d2(np.array([x]))[0]))
            assert np.max(np.abs(lap - want)) < 1e-9

    def test_wall_condition(self, rich_corr, rich_spec):
        corr, gf = rich_corr
        # -du/drho at the rim equals phi - h' omega0'.
        h = rich_spec.h[1]
        phi = rich_spec.phi[1]
        th = np.linspace(0, 2 * np.pi, 9)
        for x in (0.3, 0.5, 0.62):
            hx = float(h(np.array([x]))[0])
            hp = float(h.deriv(np.array([x]))[0])
            w1 = float(gf[1].d1(np.array([x]))[0])
            xa, xb = hx * np.cos(th), hx * np.sin(th)
            _, ga, gb = corr.modal_at(x).gradient(xa, xb)
            radial = ga * np.cos(th) + gb * np.sin(th)
            want = phi(np.full(th.size, x), xa, xb) - hp * w1
            assert np.max(np.abs(-radial - want)) < 1e-9

    def test_mean_zero_sections(self, rich_corr, rich_spec):
        corr, _ = rich_corr
        h = rich_spec.h[1]
        for x in (0.1, 0.45, 0.9):
            hx = float(h(np.array([x]))[0])
            u = corr.modal_at(x)
            assert u.mean_value(hx) == pytest.approx(0.0, abs=1e-11)

    def test_germ_matches_values_near_zero(self, rich_corr, rich_spec, rng):
        corr, _ = rich_corr
        hx = rich_spec.h[1].value0
        xa, xb = disk_points(hx, 12, rng)
        for x in (1e-3, 0.02):
            direct = corr.values(np.full(xa.size, x), xa, xb)
            germ = sum(
                corr.germ[j].evaluate(xa, xb) * x ** j
                for j in range(len(corr.germ)))
            assert np.max(np.abs(direct - germ)) < 1e-9

    def test_axial_derivative_consistency(self, rich_corr, rng):
        corr, _ = rich_corr
        xa, xb = disk_points(0.2, 10, rng)
        x0, d = 0.5, 1e-5
        fd = (corr.values(np.full(xa.size, x0 + d), xa, xb)
              - corr.values(np.full(xa.size, x0 - d), xa, xb)) / (2 * d)
        got = corr.values(np.full(xa.size, x0), xa, xb, xderiv=1)
        assert np.max(np.abs(fd - got)) < 1e-7

    def test_zero_data_edge_gives_zero(self, rich_spec, rng):
        # On the first edge the mean part of the source balances omega0''
        # exactly, the radius is flat and the load vanishes: u2 = 0.
        gf = solve_limit(rich_spec)
        corr = build_corrector(rich_spec, 0, 2, omega=gf[0])
        xa, xb = disk_points(0.25, 10, rng)
        vals = corr.values(np.full(xa.size, 0.4), xa, xb)
        assert np.max(np.abs(vals)) < 1e-11


@pytest.mark.parametrize("edge", [0, 2])
def test_order_four_corrector_from_order_two(exp_rich, rng, edge):
    """u4 is built from u2 (``prev``) on the constant-radius edges and
    solves -lap u4 = f-slice_2 + omega2'' + d^2 u2/dx^2.  An order-2
    expansion keeps germs of depth 4, so u4 reaches depth 2."""
    spec = exp_rich.spec
    omega = exp_rich.graph[2][edge]
    u2 = exp_rich.correctors[2][edge]
    u4 = build_corrector(spec, edge, 4, omega=omega, prev=u2, jmax=2)
    fslice = spec.f.transverse_taylor(edge, 2)
    xa, xb = disk_points(spec.h0(edge), 20, rng)
    for x in (0.2, 0.5, 0.77):
        xs = np.full(xa.size, x)
        lap = u4.modal_at(x).laplacian().evaluate(xa, xb)
        want = -(fslice(xs, xa, xb) + float(omega.d2(np.array([x]))[0])
                 + u2.values(xs, xa, xb, xderiv=2))
        assert np.max(np.abs(lap - want)) < 1e-9
    assert len(u4.germ) == 3
    for x in (1e-3, 0.02):
        direct = u4.values(np.full(xa.size, x), xa, xb)
        germ = sum(u4.germ[j].evaluate(xa, xb) * x ** j for j in range(3))
        assert np.max(np.abs(direct - germ)) < 1e-9


def test_zero_padding_leaves_the_modal_pass_bitwise(rng):
    """Modal arrays zero-padded in harmonics and powers, as the served
    pass pads an order's three tubes to one shape, give bitwise the
    values and gradient of the arrays alone, per point and shared."""
    for N in range(1, 5):
        for P in range(1, 8):
            xa, xb = disk_points(0.3, 23, rng)
            for rows in (23, 1):
                A = rng.standard_normal((rows, 2, 2, N, P))
                padded = np.zeros((rows, 2, 2, N + 2, P + 3))
                padded[..., :N, :P] = A
                for got, want in zip(_modal_eval(padded, xa, xb),
                                     _modal_eval(A, xa, xb)):
                    assert np.array_equal(got, want), (N, P, rows)


def test_joined_modal_pass_equals_one_pass_per_field(exp_rich, rng):
    """u, its transverse gradient and du/dx from one contraction of the
    joined stack and one modal pass, against a pass over u and one
    over du/dx, each from its own array."""
    for corr in exp_rich.correctors[2]:
        x = np.concatenate([rng.uniform(0.0, 1.0, 30), corr.breakpoints])
        xa, xb = disk_points(corr.h.value0, x.size, rng)
        A = corr.modal_batch(x, (0, 1))
        assert A.shape == (x.size, 2) + corr.shape
        (u, ux), ga, gb = _modal_eval(A, xa, xb)
        for d, want in ((0, u), (1, ux)):
            alone = np.ascontiguousarray(corr.modal_batch(x, d))
            assert np.array_equal(alone, A[:, d])
            v, da, db = _modal_eval(alone[:, None], xa, xb)
            assert np.array_equal(v[0], want)
            if d == 0:
                assert np.array_equal(da, ga) and np.array_equal(db, gb)
