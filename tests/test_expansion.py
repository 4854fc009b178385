"""The assembled expansion: served values and gradients, residual terms."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from numpy.polynomial import chebyshev as npcheb

from evaluate_oracle import (
    evaluate_per_point,
    evaluate_reference,
    residual_terms_per_point,
    residual_terms_reference,
)
from thinjunction import (
    LateralLoad,
    build_thin_mesh,
    cheb,
    expansion,
    study,
    with_epsilon,
)
from thinjunction.config import TRANSVERSE_AXES, RadiusProfile
from thinjunction.corrector import EdgeCorrector
from thinjunction.expansion import Expansion, _distinct
from thinjunction.fem3d import FemContext, PointLocator
from thinjunction.junction import JunctionField
from thinjunction.study import TARGETS, residual_cloud


def _bands(exp, pts, eps):
    """Axial-cutoff and end-cutoff band membership of tube points."""
    edge = np.argmax(pts, axis=1)
    x = pts[np.arange(len(pts)), edge]
    lo, hi = exp.cut_axial.support
    zeta = x / eps ** exp.spec.alpha
    axial = (zeta > lo) & (zeta < hi)
    lo, hi = exp.cut_end.support
    end = (x > lo) & (x < hi)
    return axial, end


def test_residual_terms_on_the_sample_cloud(exp_rich):
    spec = exp_rich.spec
    sup = {}
    for eps in (0.1, 0.05):
        cloud = residual_cloud(spec, eps)
        terms = exp_rich.residual_terms(cloud, eps)
        assert sorted(terms) == list(range(1, 8))
        for j, vals in terms.items():
            assert vals.shape == (len(cloud),)
            assert np.all(np.isfinite(vals)), j
        axial, end = _bands(exp_rich, cloud, eps)
        for j, band in ((2, axial), (3, end), (6, axial), (7, axial)):
            assert np.all(terms[j][~band] == 0.0), j
            assert np.any(terms[j][band] != 0.0), j
        sup[eps] = float(np.max(np.abs(terms[1])))

    assert sup[0.05] < sup[0.1]
    slope = math.log(sup[0.1] / sup[0.05]) / math.log(0.1 / 0.05)
    pred = TARGETS["RESID_1"].exponent(spec)
    lo, hi = TARGETS["RESID_1"].band
    assert pred - lo <= slope <= pred + hi


def test_orders_above_the_built_order_are_rejected(flat_spec):
    exp = Expansion(dataclasses.replace(flat_spec, order=0))
    cloud = residual_cloud(exp.spec, 0.1)
    with pytest.raises(ValueError, match="exceeds the built order"):
        exp.evaluate(cloud, 0.1, m=1)
    with pytest.raises(ValueError, match="exceeds the built order"):
        exp.residual_terms(cloud, 0.1, m=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(exp_fx, bad):
    """A NaN or infinite coordinate raises ``ValueError`` naming the
    first such row, before any term runs: the locator's layout seed
    would take a NaN for an index, and an infinity would give NaN."""
    pts = np.full((5, 3), 0.01)
    pts[2, 1] = pts[4, 0] = bad
    for gradient in (False, True):
        with pytest.raises(ValueError, match="point 2 is not finite"):
            exp_fx.evaluate(pts, 0.1, gradient=gradient)
    assert np.isfinite(exp_fx.evaluate(pts[:2], 0.1)).all()


_GOOD = np.full((4, 3), 0.01)


@pytest.mark.parametrize("points, epsilon, m, match", [
    (np.full(3, 0.01), 0.1, None, r"points must have shape \(n, 3\)"),
    (np.full((4, 2), 0.01), 0.1, None, r"points must have shape \(n, 3\)"),
    (_GOOD, 0.0, None, r"epsilon must lie in \(0, 1\), not 0.0"),
    (_GOOD, -0.1, None, r"epsilon must lie in \(0, 1\), not -0.1"),
    (_GOOD, 1.0, None, r"epsilon must lie in \(0, 1\), not 1.0"),
    (_GOOD, np.nan, None, r"epsilon must lie in \(0, 1\)"),
    (_GOOD, 0.1, -1, "order m must be at least 0, not -1"),
    (_GOOD, 0.1, 2, "order 2 exceeds the built order 1"),
    (_GOOD, 0.1, 0.5, "order m must be an integer, not 0.5"),
    (_GOOD, 0.1, True, "order m must be an integer, not True"),
])
def test_inputs_outside_the_contract_are_rejected(exp_fx, monkeypatch,
                                                  points, epsilon, m, match):
    """Points not of shape (n, 3), eps outside (0, 1) and m outside the
    integers [0, order] raise ``ValueError`` naming the input, from
    ``evaluate`` and ``residual_terms`` alike, before any term runs (no
    point is split by tube)."""
    assert exp_fx.order == 1

    def refuse(*args):
        raise AssertionError("a term ran")

    monkeypatch.setattr(exp_fx, "_split", refuse)
    for call in (exp_fx.evaluate, exp_fx.residual_terms):
        with pytest.raises(ValueError, match=match):
            call(points, epsilon, m=m)


def test_integer_orders_in_range_are_served(exp_fx):
    """numpy integers are orders too, and m = 0 .. order are served."""
    for m in (0, 1, np.int64(1), None):
        assert exp_fx.evaluate(_GOOD, 0.1, m=m).shape == (4,)
        assert exp_fx.residual_terms(_GOOD, 0.1, m=m)[1].shape == (4,)


def _cloud(spec, eps, rng, n=60):
    """Points of the bulge, the matching band, the tube interiors and the
    end-layer band, at most 0.9 of the radius off the axis."""
    lo = eps * spec.ell
    out = [rng.uniform(-lo, lo, (n, 3))]
    match = 3.0 * spec.ell * eps ** spec.alpha
    for i in range(3):
        a, b = TRANSVERSE_AXES[i]
        for xl, xh in ((lo, match), (match, 0.7), (0.75, 1.0)):
            x = rng.uniform(xl, xh, n)
            r = 0.9 * eps * spec.h[i](x) * np.sqrt(rng.uniform(size=n))
            th = rng.uniform(0.0, 2.0 * np.pi, n)
            p = np.zeros((n, 3))
            p[:, i] = x
            p[:, a] = r * np.cos(th)
            p[:, b] = r * np.sin(th)
            out.append(p)
    return np.vstack(out)


def _assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * (1.0 + np.abs(want)))


def test_evaluate_matches_the_term_by_term_oracle(exp_rich):
    rng = np.random.default_rng(11)
    for eps in (0.2, 0.1, 0.05):
        pts = _cloud(exp_rich.spec, eps, rng)
        for m in (0, 1, 2):
            vals, grads = exp_rich.evaluate(pts, eps, m=m, gradient=True)
            want_v, want_g = evaluate_reference(exp_rich, pts, eps, m=m,
                                                gradient=True)
            _assert_close(vals, want_v)
            _assert_close(grads, want_g)
            _assert_close(exp_rich.evaluate(pts, eps, m=m), want_v)


def test_residual_terms_match_the_term_by_term_oracle(exp_rich,
                                                     monkeypatch):
    monkeypatch.setattr(study, "CLOUD_AXIAL", 60)
    for eps in (0.2, 0.1, 0.05):
        cloud = residual_cloud(exp_rich.spec, eps)
        for m in (0, 1, 2):
            got = exp_rich.residual_terms(cloud, eps, m=m)
            want = residual_terms_reference(exp_rich, cloud, eps, m=m)
            assert sorted(got) == sorted(want) == list(range(1, 8))
            for j in want:
                _assert_close(got[j], want[j])


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _tube_x(pts):
    return pts[np.arange(len(pts)), np.argmax(pts, axis=1)]


@pytest.fixture(scope="module")
def mesh_clouds(rich_spec):
    """Per slenderness: the quadrature points of a coarse thin mesh, which
    repeat few axial positions, and the residual sample cloud."""
    out = {}
    for eps in (0.2, 0.1):
        mesh = build_thin_mesh(with_epsilon(rich_spec, eps), axial=0.05,
                               refine=0.5)
        quad = FemContext(mesh).quad_points(2, slice(None))[0].reshape(-1, 3)
        out[eps] = np.vstack([quad, residual_cloud(rich_spec, eps)])
    return out


def test_mesh_clouds_repeat_axial_positions_in_both_bands(exp_rich,
                                                          mesh_clouds):
    for eps, pts in mesh_clouds.items():
        axial, end = _bands(exp_rich, pts, eps)
        assert axial.any() and end.any()
        assert np.unique(_tube_x(pts)).size < len(pts) / 10


def test_distinct_positions_are_those_of_np_unique(mesh_clouds):
    rng = np.random.default_rng(5)
    clouds = [_tube_x(pts) for pts in mesh_clouds.values()]
    clouds += [rng.random(64), rng.random(1), np.empty(0),
               rng.integers(0, 4, 50) / 3.0]
    for x in clouds:
        xu, at, bounds = _distinct(x, np.array([0, x.size]))
        want_u, want_at = np.unique(x, return_inverse=True)
        assert _same_bits(xu, want_u)
        assert np.array_equal(at, want_at)
        assert _same_bits(xu[at], x)
        assert list(bounds) == [0, xu.size]
    # the clouds as consecutive groups, empty ones among them: each
    # group's values and indices are those of its own np.unique
    x = np.concatenate(clouds)
    cut = np.cumsum([0] + [c.size for c in clouds])
    xu, at, bounds = _distinct(x, cut)
    for j, c in enumerate(clouds):
        want_u, want_at = np.unique(c, return_inverse=True)
        assert _same_bits(xu[bounds[j]:bounds[j + 1]], want_u)
        assert np.array_equal(at[cut[j]:cut[j + 1]] - bounds[j], want_at)
    assert _same_bits(xu[at], x)


def test_evaluate_matches_the_per_point_pass_bitwise(exp_rich, mesh_clouds):
    for eps, pts in mesh_clouds.items():
        for m in (0, 1, 2):
            vals, grads = exp_rich.evaluate(pts, eps, m=m, gradient=True)
            want_v, want_g = evaluate_per_point(exp_rich, pts, eps, m=m)
            assert _same_bits(vals, want_v)
            assert _same_bits(grads, want_g)
            assert _same_bits(exp_rich.evaluate(pts, eps, m=m), want_v)


def test_residual_terms_match_the_per_point_pass_bitwise(exp_rich,
                                                        mesh_clouds):
    for eps, pts in mesh_clouds.items():
        for m in (0, 1, 2):
            got = exp_rich.residual_terms(pts, eps, m=m)
            want = residual_terms_per_point(exp_rich, pts, eps, m=m)
            assert sorted(got) == sorted(want)
            for j in want:
                assert _same_bits(got[j], want[j]), j


def _assert_rows_are_single_point_batches(exp, rng):
    for eps in (0.2, 0.05):
        pts = _cloud(exp.spec, eps, rng, n=24)
        pts[-1, 1:] = 0.0
        axial, end = _bands(exp, pts, eps)
        edge = exp._split(pts, eps)
        assert axial.any() and end.any() and set(edge) == {-1, 0, 1, 2}
        for m in (0, 1, 2):
            vals, grads = exp.evaluate(pts, eps, m=m, gradient=True)
            for j, p in enumerate(pts):
                v, g = exp.evaluate(p[None], eps, m=m, gradient=True)
                assert _same_bits(vals[j:j + 1], v), (eps, m, j)
                assert _same_bits(grads[j:j + 1], g), (eps, m, j)


def test_each_row_is_its_single_point_batch_bitwise(exp_rich):
    """A point's value and gradient do not depend on the batch it comes
    in: every row of a batch is bitwise its own one-point batch, in the
    bulge, the matching band, the tube interiors and the end band of all
    three tubes, and on a tube axis."""
    _assert_rows_are_single_point_batches(exp_rich,
                                          np.random.default_rng(15))


@pytest.fixture(scope="module")
def exp_harmonics(rich_spec, exp_rich):
    """The rich problem with lateral loads of harmonics 1 and 2 on tubes
    1 and 2: its order-2 correctors carry 1, 2 and 3 harmonics, so the
    served pass zero-pads two tubes' modal arrays."""
    phi = (LateralLoad.zero(),
           LateralLoad.from_terms([((0, 0, 0), 0.05), ((0, 1, 0), 0.04)]),
           LateralLoad.from_terms([((0, 0, 1), 0.03), ((0, 2, 0), 0.02)]))
    return Expansion(dataclasses.replace(rich_spec, phi=phi),
                     junction=exp_rich.junction)


def test_several_harmonics_stay_within_rounding_of_the_per_tube_pass(
        exp_harmonics):
    """With two or more harmonics the one contraction for all three
    tubes zero-pads two tubes' modal arrays; it stays within rounding of
    the per-tube pass."""
    assert [c.shape[1] for c in exp_harmonics.correctors[2]] == [1, 2, 3]
    rng = np.random.default_rng(16)
    for eps in (0.2, 0.05):
        pts = _cloud(exp_harmonics.spec, eps, rng)
        for m in (0, 1, 2):
            vals, grads = exp_harmonics.evaluate(pts, eps, m=m,
                                                 gradient=True)
            want_v, want_g = evaluate_per_point(exp_harmonics, pts, eps, m=m)
            _assert_close(vals, want_v, rtol=1e-14)
            _assert_close(grads, want_g, rtol=1e-14)


def test_each_row_is_its_single_point_batch_with_several_harmonics(
        exp_harmonics):
    _assert_rows_are_single_point_batches(exp_harmonics,
                                          np.random.default_rng(17))


def test_evaluate_gradient_matches_finite_differences(exp_rich):
    """Tube and end-layer points beyond the matching zone, where the
    partial sum is smooth."""
    spec = exp_rich.spec
    rng = np.random.default_rng(12)
    d = 1e-6
    for eps in (0.2, 0.05):
        pts = _cloud(spec, eps, rng, n=20)
        pts = pts[pts.max(axis=1) > 3.0 * spec.ell * eps ** spec.alpha]
        assert np.any(pts.max(axis=1) > exp_rich.cut_end.lo)
        _, grads = exp_rich.evaluate(pts, eps, gradient=True)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = d * eps
            fd = (exp_rich.evaluate(pts + step, eps)
                  - exp_rich.evaluate(pts - step, eps)) / (2.0 * d * eps)
            assert np.all(np.abs(fd - grads[:, axis])
                          <= 1e-6 * (1.0 + np.abs(grads[:, axis]))), axis


def _counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_one_pass_per_request(exp_rich, monkeypatch):
    """The junction part of every order is served from one location of
    the points, and no junction field is built for a request."""
    counts = {"locate": 0, "modal_batch": 0, "field": 0}
    monkeypatch.setattr(PointLocator, "locate",
                        _counted(counts, "locate", PointLocator.locate))
    monkeypatch.setattr(EdgeCorrector, "modal_batch",
                        _counted(counts, "modal_batch",
                                 EdgeCorrector.modal_batch))
    monkeypatch.setattr(JunctionField, "__init__",
                        _counted(counts, "field", JunctionField.__init__))
    rng = np.random.default_rng(13)
    for eps in (0.2, 0.05):
        pts = _cloud(exp_rich.spec, eps, rng, n=10)
        for m in (0, 1, 2):
            for gradient in (True, False):
                counts.update(locate=0, modal_batch=0, field=0)
                exp_rich.evaluate(pts, eps, m=m, gradient=gradient)
                assert counts["locate"] == min(m, 1)
                assert counts["field"] == 0
                # the correctors' modal arrays come from the request's
                # one contraction, not from a batch per corrector
                assert counts["modal_batch"] == 0


def test_one_chebyshev_table_per_request(exp_rich, monkeypatch):
    """Graph profiles of all orders and the correctors of all three tubes
    share one table per request, with one column per distinct axial
    position of the request's tube points; numpy's chebval is never
    called."""
    counts = {"chebval": 0}
    columns = []
    recurrence = cheb._recurrence

    def counted_recurrence(t, deg):
        columns.append(t.size)
        return recurrence(t, deg)

    monkeypatch.setattr(cheb, "_recurrence", counted_recurrence)
    monkeypatch.setattr(npcheb, "chebval",
                        _counted(counts, "chebval", npcheb.chebval))
    monkeypatch.setattr(Chebyshev, "_val", staticmethod(
        _counted(counts, "chebval", Chebyshev._val)))
    rng = np.random.default_rng(14)
    for eps in (0.2, 0.05):
        pts = _cloud(exp_rich.spec, eps, rng, n=10)
        # every point again, turned about its tube axis: each axial
        # position is shared by two points
        turned = pts.copy()
        for i in range(3):
            a, b = TRANSVERSE_AXES[i]
            rows = np.argmax(pts, axis=1) == i
            turned[rows, a], turned[rows, b] = -pts[rows, b], pts[rows, a]
        pts = np.vstack([pts, turned])
        edge = exp_rich._split(pts, eps)
        distinct = 0
        for i in range(3):
            n = np.unique(pts[edge == i, i]).size
            assert 2 * n == np.sum(edge == i)
            distinct += n
        for m in (0, 2):
            counts.update(chebval=0)
            columns.clear()
            exp_rich.evaluate(pts, eps, m=m, gradient=True)
            assert counts["chebval"] == 0
            assert columns == [distinct]


def test_one_radius_pass_per_request(exp_rich, monkeypatch):
    """The radius h of the three tubes comes from one Horner pass over
    their stacked pieces, read through the stack's interval index: each
    value is bitwise its tube's own ``RadiusProfile`` pass, also on the
    smooth-bump tube at and beside its breakpoints and beyond its ends,
    and a request calls no radius profile."""
    bump = exp_rich.spec.h[1]
    assert len(bump.pieces) == 3
    bp = bump.breakpoints
    x = np.concatenate([bp, np.nextafter(bp, -np.inf),
                        np.nextafter(bp, np.inf), np.linspace(-0.2, 1.2, 701)])
    for i in range(3):
        _, interval = exp_rich._stack.at(x, np.where(np.arange(4) > i,
                                                     x.size, 0))
        got = exp_rich._radii(x, interval)
        assert got.tobytes() == exp_rich.spec.h[i](x).tobytes()
    pts = _cloud(exp_rich.spec, 0.1, np.random.default_rng(15), n=50)
    counts = {"horner": 0}
    monkeypatch.setattr(RadiusProfile, "_horner",
                        _counted(counts, "horner", RadiusProfile._horner))
    exp_rich.evaluate(pts, 0.1, m=2, gradient=True)
    assert counts["horner"] == 0


def _mixed_cloud(spec, eps, rng, n):
    """``_cloud`` in random order, so that every block of a call mixes
    the bulge, the matching band, the tube interiors and the end bands."""
    return rng.permutation(_cloud(spec, eps, rng, n=n))


def test_a_call_of_several_blocks_is_its_blocks_and_its_rows_bitwise(
        exp_rich, monkeypatch):
    """A call of more points than ``EVAL_BLOCK`` is served block by block
    into its outputs: bitwise its per-block calls and its one-point
    batches, at orders 0, 1 and 2, the last block a short one."""
    monkeypatch.setattr(expansion, "EVAL_BLOCK", 17)
    rng = np.random.default_rng(18)
    for eps in (0.2, 0.05):
        pts = _mixed_cloud(exp_rich.spec, eps, rng, n=8)
        axial, end = _bands(exp_rich, pts, eps)
        assert axial.any() and end.any() and len(pts) % 17
        blocks = range(0, len(pts), 17)
        for m in (0, 1, 2):
            vals, grads = exp_rich.evaluate(pts, eps, m=m, gradient=True)
            parts = [exp_rich.evaluate(pts[lo:lo + 17], eps, m=m,
                                       gradient=True) for lo in blocks]
            assert _same_bits(vals, np.concatenate([v for v, _ in parts]))
            assert _same_bits(grads, np.concatenate([g for _, g in parts]))
            for j, p in enumerate(pts):
                v, g = exp_rich.evaluate(p[None], eps, m=m, gradient=True)
                assert _same_bits(vals[j:j + 1], v), (eps, m, j)
                assert _same_bits(grads[j:j + 1], g), (eps, m, j)


def test_the_public_evaluate_is_entered_once_per_call(exp_rich,
                                                      monkeypatch):
    """The blocks go through the internal block pass, never back through
    ``Expansion.evaluate``, which a caller may wrap and count per call."""
    monkeypatch.setattr(expansion, "EVAL_BLOCK", 17)
    counts = {"evaluate": 0, "block": 0}
    monkeypatch.setattr(Expansion, "evaluate", _counted(
        counts, "evaluate", Expansion.evaluate))
    monkeypatch.setattr(Expansion, "_evaluate_block", _counted(
        counts, "block", Expansion._evaluate_block))
    pts = _mixed_cloud(exp_rich.spec, 0.1, np.random.default_rng(19), n=8)
    for m in (0, 1, 2):
        counts.update(evaluate=0, block=0)
        exp_rich.evaluate(pts, 0.1, m=m, gradient=True)
        assert counts == {"evaluate": 1, "block": -(-len(pts) // 17)}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_point_in_a_later_block_is_named_by_its_row(
        exp_fx, monkeypatch, bad):
    monkeypatch.setattr(expansion, "EVAL_BLOCK", 4)
    counts = {"block": 0}
    monkeypatch.setattr(Expansion, "_evaluate_block", _counted(
        counts, "block", Expansion._evaluate_block))
    pts = np.full((13, 3), 0.01)
    pts[9, 2] = pts[11, 0] = bad
    with pytest.raises(ValueError, match="point 9 is not finite"):
        exp_fx.evaluate(pts, 0.1, gradient=True)
    assert counts["block"] == 0


def test_a_large_call_holds_the_transients_of_one_block(exp_rich):
    """Beyond its outputs (32 bytes a point), an order-1 call of 100,000
    points peaks within 10% of a call of 20,000: both hold one block's
    transients."""
    rng = np.random.default_rng(20)
    pts = _mixed_cloud(exp_rich.spec, 0.1, rng, n=10_000)
    assert len(pts) == 100_000
    exp_rich.evaluate(pts[:100], 0.1, m=1, gradient=True)
    peaks = []
    for n in (20_000, 100_000):
        tracemalloc.start()
        try:
            out = exp_rich.evaluate(pts[:n], 0.1, m=1, gradient=True)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= 32 * n
        peaks.append(peak - kept)
        del out
    assert peaks[1] <= 1.1 * peaks[0], peaks
