"""End layers: trace cancellation, harmonicity, certified decay."""

import numpy as np
import pytest
from scipy import special

from thinjunction import build_corrector, build_pi, diskspec, layers
from thinjunction.diskspec import DiskSpectrum
from thinjunction.layers import BoundaryLayerTerm
from thinjunction.graph import solve_limit

from evaluate_oracle import layer_gradient, layer_values


@pytest.fixture(scope="module")
def pi2(rich_spec):
    gf = solve_limit(rich_spec)
    corr = build_corrector(rich_spec, 1, 2, omega=gf[1])
    return build_pi(rich_spec, 1, corr, omega=gf[1]), corr


def test_zero_orders_have_zero_layers(rich_spec):
    term = build_pi(rich_spec, 0, None)
    assert term.is_zero
    assert term.decay_rate == np.inf
    assert term.values(np.array([0.3]), np.array([0.1]),
                       np.array([0.0]))[0] == 0.0


def test_zero_layer_searches_no_roots(monkeypatch):
    """A zero layer's single flat mode needs no J_n' root."""
    calls = []
    roots = diskspec.radial_derivative_roots
    monkeypatch.setattr(diskspec, "radial_derivative_roots",
                        lambda *args: calls.append(args) or roots(*args))
    term = BoundaryLayerTerm.zero(1, 2, 0.25)
    assert calls == []
    assert term.is_zero
    assert term.spectrum.modes == DiskSpectrum(0.25, (), 0).modes


def test_trace_cancellation(pi2, rich_spec, monkeypatch):
    term, corr = pi2
    # the polar grid of BoundaryLayerTerm.decay_certificate: 48 radii up
    # to and including the rim, by 96 angles
    r, t = np.meshgrid(np.linspace(0.0, term.spectrum.radius, 48),
                       np.linspace(0.0, 2 * np.pi, 96, endpoint=False))
    xa, xb = (r * np.cos(t)).ravel(), (r * np.sin(t)).ravel()
    trace = corr.values(np.ones(xa.size), xa, xb)
    # At the end disk the layer cancels the corrector trace up to the
    # modal truncation tail (the trace has a nonzero rim slope, so the
    # Neumann-mode series converges algebraically, not spectrally).
    layer0 = term.values(np.zeros(xa.size), xa, xb)
    res40 = np.max(np.abs(layer0 + trace))
    assert res40 < 1e-4
    monkeypatch.setattr(layers, "MODE_DEPTH", 120)
    rich = build_pi(rich_spec, 1, corr)
    res120 = np.max(np.abs(rich.values(np.zeros(xa.size), xa, xb) + trace))
    assert res120 < 0.5 * res40


def test_layer_is_harmonic(pi2, rng):
    term, _ = pi2
    # (d^2/ds^2 + lap_transverse) of the layer vanishes: check via FD.
    xa = np.array([0.05, -0.08, 0.02])
    xb = np.array([0.01, 0.03, -0.06])
    s = np.full(3, 0.4)
    d = 1e-4

    def v(ss, a, b):
        return term.values(ss, a, b)

    lap = (v(s + d, xa, xb) + v(s - d, xa, xb)
           + v(s, xa + d, xb) + v(s, xa - d, xb)
           + v(s, xa, xb + d) + v(s, xa, xb - d)
           - 6 * v(s, xa, xb)) / d ** 2
    assert np.max(np.abs(lap)) < 1e-4


def test_gradient_matches_fd(pi2):
    term, _ = pi2
    s = np.array([0.25])
    xa, xb = np.array([0.07]), np.array([-0.04])
    _, ds, ga, gb = term.gradient(s, xa, xb)
    d = 1e-6
    fds = (term.values(s + d, xa, xb) - term.values(s - d, xa, xb)) / (2 * d)
    fga = (term.values(s, xa + d, xb) - term.values(s, xa - d, xb)) / (2 * d)
    fgb = (term.values(s, xa, xb + d) - term.values(s, xa, xb - d)) / (2 * d)
    assert ds[0] == pytest.approx(fds[0], abs=1e-7)
    assert ga[0] == pytest.approx(fga[0], abs=1e-7)
    assert gb[0] == pytest.approx(fgb[0], abs=1e-7)


def _sin_layer():
    """A layer of one sin mode, 0.8 on the first sin mode of harmonic 1:
    zero on the ray t = 0."""
    spectrum = DiskSpectrum(1.0, [1], depth=2)
    coeffs = np.zeros(len(spectrum.modes))
    coeffs[2] = 0.8
    assert spectrum.modes[2].kind == "sin"
    return BoundaryLayerTerm(edge=0, order=2, spectrum=spectrum,
                             coeffs=coeffs)


def test_decay_certificate(pi2):
    term, _ = pi2
    sin = _sin_layer()
    # sup |Theta_p| <= 1 from the radial factor: a sin mode counts too
    assert sin.amplitude() == 0.8
    for layer in (term, sin):
        for s in (0.5, 1.0, 2.0):
            bound, observed = layer.decay_certificate(s)
            assert 0.0 < observed <= bound + 1e-12
        b1, _ = layer.decay_certificate(1.0)
        b2, _ = layer.decay_certificate(2.0)
        # One extra unit of distance costs at least one decay-rate factor.
        assert b2 <= b1 * np.exp(-layer.decay_rate) + 1e-15


def _mixed_layer(rng):
    """Cos and sin modes of harmonics 0, 1, 2 and 5 with random weights."""
    spectrum = DiskSpectrum(0.25, [0, 1, 2, 5], depth=12)
    coeffs = rng.standard_normal(len(spectrum.modes)) \
        * np.exp(-0.1 * np.arange(len(spectrum.modes)))
    coeffs[0] = 0.0
    return BoundaryLayerTerm(edge=1, order=2, spectrum=spectrum,
                             coeffs=coeffs)


@pytest.mark.parametrize("tol", [layers.TAIL_RTOL, 1e-8, 1e-3])
def test_truncation_stays_within_its_stated_bound(pi2, rng, monkeypatch,
                                                   tol):
    """The kept modes' value and each derivative differ from the full
    series by at most tol times the amplitude, plus the rounding of the
    full sums, at random s >= 0 and disk points, at s = 0 and on the
    axis, for cos and sin modes."""
    monkeypatch.setattr(layers, "TAIL_RTOL", tol)
    dropped = 0
    for term in (pi2[0], _sin_layer(), _mixed_layer(rng)):
        h = term.spectrum.radius
        n = 400
        r = h * np.sqrt(rng.uniform(0.0, 1.0, n))
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        xa, xb = r * np.cos(t), r * np.sin(t)
        xa[:2] = xb[:2] = 0.0
        s = rng.exponential(0.6 / term.decay_rate * 10.0, n)
        s[::3] = 0.0
        got = term.gradient(s, xa, xb)
        want = (layer_values(term, s, xa, xb),) + layer_gradient(
            term, s, xa, xb)
        decay = np.exp(-s[:, None] * term._lam)
        # the full sums' rounding: a few ulps of their terms' sizes
        size = (np.abs(term._coeffs) * (1.0 + term._lam) * decay).sum(1)
        slack = tol * term.amplitude() + 64 * np.finfo(float).eps * size
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= slack)
        dropped += int((~term.kept(decay)).sum())
    assert dropped > 0


def test_single_mode_decay_is_exact():
    spectrum = DiskSpectrum(1.0, [1], depth=1)
    coeffs = np.zeros(len(spectrum.modes))
    coeffs[1] = 0.8  # first nonflat mode
    term = BoundaryLayerTerm(edge=0, order=2, spectrum=spectrum,
                             coeffs=coeffs)
    lam = term.decay_rate
    star = 5.0 / lam
    xa, xb = np.array([0.3]), np.array([0.2])
    v0 = term.values(np.zeros(1), xa, xb)[0]
    vs = term.values(np.full(1, star), xa, xb)[0]
    assert abs(vs / v0) == pytest.approx(np.exp(-lam * star), abs=1e-12)


def _gradient_with_a_bessel_row_per_mode(term, s, xa, xb):
    """The layer gradient from J_{n-1}, J_n and J_{n+1} of every kept
    mode, one Bessel call per order and mode, and zeros for the rest."""
    r, t = np.hypot(xa, xb), np.arctan2(xb, xa)
    lam = term._lam
    decay = np.exp(-s[:, None] * lam)
    kept = term.kept(decay)
    orders = term._n + np.array([-1, 0, 1])[:, None, None]
    jm, jn, jp = np.where(kept, special.jv(orders, r[:, None] * lam), 0.0)
    ang = t[:, None] * term._n
    trig = np.where(term._sin, np.sin(ang), np.cos(ang))
    dtrig = np.where(term._sin, np.cos(ang), -np.sin(ang))
    w = np.where(kept, decay * term._coeffs, 0.0)
    radial = w * jn * trig
    dr = (w * (jm - jp) * trig * (0.5 * lam)).sum(axis=1)
    dt_over_r = (w * (jm + jp) * dtrig * (0.5 * lam)).sum(axis=1)
    ct, st = np.cos(t), np.sin(t)
    return (radial.sum(axis=1), -(radial * lam).sum(axis=1),
            ct * dr - st * dt_over_r, st * dr + ct * dt_over_r)


def test_shared_bessel_values_change_no_bit(rng):
    """Cos and sin modes of one root share their Bessel values, J_{-1}
    is -J_1, and a Bessel value that no kept mode reads is not computed:
    the gradient is bitwise the one with a Bessel row per order and kept
    mode, on the axis too."""
    spectrum = DiskSpectrum(0.25, [0, 1, 2, 5], depth=12)
    coeffs = rng.standard_normal(len(spectrum.modes))
    coeffs[0] = 0.0
    term = BoundaryLayerTerm(edge=1, order=2, spectrum=spectrum,
                             coeffs=coeffs)
    assert term._bessel_order.size < 3 * term._n.size
    r = 0.25 * np.sqrt(rng.uniform(0.0, 1.0, 40))
    t = rng.uniform(0.0, 2.0 * np.pi, 40)
    xa, xb = r * np.cos(t), r * np.sin(t)
    xa[0] = xb[0] = 0.0
    s = rng.uniform(0.0, 3.0, 40)
    for got, want in zip(term.gradient(s, xa, xb),
                         _gradient_with_a_bessel_row_per_mode(term, s, xa,
                                                               xb)):
        assert np.array_equal(got, want)


def test_nonvanishing_axial_end_rejected(rich_spec):
    gf = solve_limit(rich_spec)
    corr = build_corrector(rich_spec, 1, 2, omega=gf[1])
    shifted = gf[1].with_affine(0.0, 0.05)  # now omega(1) != 0
    with pytest.raises(ValueError, match="vanish at the end"):
        build_pi(rich_spec, 1, corr, omega=shifted)


def test_each_point_of_a_large_batch_is_its_single_point_batch():
    """A point's layer terms do not depend on the batch it comes in, also
    in a batch of thousands of points, where numpy would sum modes laid
    out point-innermost in another order than a small batch's."""
    rng = np.random.default_rng(21)
    term = _mixed_layer(rng)
    n = 6000
    r = 0.25 * np.sqrt(rng.uniform(0.0, 1.0, n))
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    xa, xb = r * np.cos(t), r * np.sin(t)
    s = rng.uniform(0.0, 0.05, n)
    got = np.stack(term.gradient(s, xa, xb), axis=1)
    for j in range(n):
        one = term.gradient(s[j:j + 1], xa[j:j + 1], xb[j:j + 1])
        assert np.array_equal(got[j], np.concatenate(one)), j
