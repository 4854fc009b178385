"""Piecewise Chebyshev interpolation on breakpoint grids."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev

from cheb_oracle import modal_batch, piecewise_call, three_term_table
from thinjunction.cheb import (
    ChebStack,
    _recurrence,
    antiderivative,
    gauss_piecewise,
    integral,
    interpolate,
)


def test_interpolates_smooth_function():
    f = interpolate(np.sin, [0.0, 0.4, 1.0], 64)
    x = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(f(x) - np.sin(x))) < 1e-13


def test_antiderivative_and_integral():
    f = interpolate(lambda x: 3.0 * x ** 2, [0.0, 0.5, 1.0], 64)
    F = antiderivative(f, start=0.0)
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(F(x), x ** 3, atol=1e-12)
    assert integral(f) == pytest.approx(1.0, abs=1e-12)


def test_stacks_are_numpy_per_interval_series_bitwise():
    """Interpolant, antiderivative and integral of a one-column stack
    carry bitwise the coefficients and values of numpy's per-interval
    series, the coefficients numpy trims zero-padded: on a grid of
    several intervals, and for a function whose antiderivative numpy
    trims to a constant."""
    for fn, bp, deg in ((np.cos, [0.0, 0.3, 0.55, 1.0], 65),
                        (np.zeros_like, [0.0, 0.4, 1.0], 0)):
        f = interpolate(fn, bp, 64)
        series = [Chebyshev.interpolate(fn, 64, domain=[a, b])
                  for a, b in zip(bp[:-1], bp[1:])]
        assert np.array_equal(f.coeffs, [s.coef for s in series])
        F = antiderivative(f, start=0.25)
        acc, total = 0.25, 0.0
        for j, s in enumerate(series):
            a = s.integ(lbnd=s.domain[0]) + acc
            total += s.integ(lbnd=s.domain[0])(s.domain[1])
            acc = a(s.domain[1])
            assert np.array_equal(F.coeffs[j, : a.coef.size], a.coef)
            assert not F.coeffs[j, a.coef.size:].any()
        assert F.deg == deg
        assert integral(f) == total


def test_piecewise_kink_is_resolved():
    # |x - 0.5| is analytic on each side of the breakpoint.
    fn = lambda x: np.abs(x - 0.5)
    f = interpolate(fn, [0.0, 0.5, 1.0], 64)
    x = np.linspace(0.0, 1.0, 401)
    assert np.max(np.abs(f(x) - fn(x))) < 1e-12


def test_gauss_piecewise_exact_for_polynomials():
    got = gauss_piecewise(lambda x: x ** 7 - 2 * x, [0.0, 0.3, 1.0])
    assert got == pytest.approx(1.0 / 8.0 - 1.0, abs=1e-14)


def _random_piecewise(rng, nint):
    """A one-column stack of decaying random coefficients, degree 0..65
    per interval and zero-padded, on nint random intervals of [0, 1]."""
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, nint - 1)),
                         [1.0]])
    series = []
    for _ in range(nint):
        deg = int(rng.integers(0, 66))
        series.append(rng.standard_normal(deg + 1) * 0.8 ** np.arange(deg + 1))
    coeffs = np.zeros((nint, max(c.size for c in series)))
    for j, c in enumerate(series):
        coeffs[j, : c.size] = c
    return ChebStack(bp, coeffs)


def _close(got, want, rtol=1e-12):
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= rtol * (1.0 + np.abs(want)))


def test_kernel_matches_the_per_interval_oracle():
    rng = np.random.default_rng(31)
    for nint in (1, 2, 3, 4):
        for _ in range(5):
            f = _random_piecewise(rng, nint)
            x = np.concatenate([rng.uniform(0.0, 1.0, 200), f.grids[0],
                                [0.0, 1.0],
                                rng.uniform(-0.05, 0.0, 10),
                                rng.uniform(1.0, 1.05, 10)])
            _close(f(x), piecewise_call(f, x))


def test_kernel_edge_shapes():
    rng = np.random.default_rng(32)
    f = _random_piecewise(rng, 3)
    got = f(0.3)
    assert np.ndim(got) == 0
    _close(got, piecewise_call(f, 0.3))
    assert f(np.empty(0)).shape == (0,)
    x = rng.uniform(-0.02, 1.02, 3 * 4096 + 1)
    _close(f(x), piecewise_call(f, x))
    grid = rng.uniform(0.0, 1.0, (4, 5))
    _close(f(grid), piecewise_call(f, grid.ravel()).reshape(4, 5))


@pytest.mark.parametrize("deg", [0, 1, 2, 3, 7, 8, 9, 32, 33, 64, 65, 100])
def test_doubling_table_matches_the_three_term_recurrence(deg):
    """Inside [-1, 1], at its ends and at extrapolated points up to
    |t| = 1.5, where the rows grow like (1.5 + 1.12)^deg."""
    rng = np.random.default_rng(36)
    t = np.concatenate([rng.uniform(-1.0, 1.0, 300), [-1.0, 0.0, 1.0],
                        rng.uniform(-1.5, -1.0, 50),
                        rng.uniform(1.0, 1.5, 50)])
    got = _recurrence(t, deg)
    assert got.shape == (deg + 1, t.size)
    _close(got, three_term_table(t, deg))
    assert np.array_equal(_recurrence(t[:7], deg), got[:, :7])


def test_stack_matches_its_columns():
    rng = np.random.default_rng(33)
    bp = [0.0, 0.35, 0.65, 1.0]
    cols = [interpolate(fn, bp, deg)
            for fn, deg in ((np.sin, 64), (np.exp, 40), (np.cos, 10))]
    coeffs = np.zeros((3, 65, 3))
    for j, c in enumerate(cols):
        coeffs[:, : c.deg + 1, j] = c.coeffs
    stack = ChebStack(bp, coeffs)
    x = rng.uniform(0.0, 1.0, 300)
    got = stack(x)
    assert got.shape == (300, 3)
    for j, c in enumerate(cols):
        _close(got[:, j], piecewise_call(c, x))


def test_stack_on_several_grids_matches_each_grid_bitwise():
    """A stack on grids whose intervals are numbered in turn looks each
    point up on its own grid, extrapolating by that grid's end
    intervals: each run of points reads bitwise what its grid's own
    stack gives, also where a run is empty or thousands of points long."""
    rng = np.random.default_rng(37)
    grids = [[0.0, 0.35, 0.65, 1.0], [0.0, 1.0], [0.0, 0.5, 1.0],
             [0.0, 0.2, 1.0]]
    coeffs = [rng.standard_normal((len(g) - 1, 41, 2, 3)) for g in grids]
    joined = ChebStack(grids, np.concatenate(coeffs))
    sizes = (4096 - 5, 0, 12, 4096 + 3)
    x = rng.uniform(-0.05, 1.05, sum(sizes))
    cut = np.cumsum((0,) + sizes)
    got = joined.at(x, cut)[0]
    assert got.shape == (x.size, 2, 3)
    for g, c, a, b in zip(grids, coeffs, cut[:-1], cut[1:]):
        assert np.array_equal(got[a:b], ChebStack(g, c)(x[a:b]))


def test_modal_batch_matches_chebval(exp_rich):
    rng = np.random.default_rng(34)
    for corr in exp_rich.correctors[2]:
        x = np.concatenate([rng.uniform(0.0, 1.0, 100), corr.h.breakpoints])
        for deriv in (0, 1, 2):
            _close(corr.modal_batch(x, deriv), modal_batch(corr, x, deriv))


_SPLIT_RNG = np.random.default_rng(35)
_SPLIT_F = _random_piecewise(_SPLIT_RNG, 4)
_SPLIT_STACK = ChebStack(_SPLIT_F.grids,
                         _SPLIT_RNG.standard_normal((4, 40, 3)))
_SPLIT_X = _SPLIT_RNG.uniform(-0.02, 1.02, 4096 + 37)
_SPLIT_WHOLE = (_SPLIT_F(_SPLIT_X), _SPLIT_STACK(_SPLIT_X))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, _SPLIT_X.size), st.integers(0, _SPLIT_X.size))
@example(0, 1)
@example(1, 4096 + 1)
@example(4096, 4096 + 1)
def test_splitting_a_batch_gives_the_same_answers(i, j):
    """One- and three-column stacks, split into up to three batches."""
    lo, hi = sorted((i, j))
    spans = ((0, lo), (lo, hi), (hi, _SPLIT_X.size))
    for fn, whole in zip((_SPLIT_F, _SPLIT_STACK), _SPLIT_WHOLE):
        parts = [fn(_SPLIT_X[a:b]) for a, b in spans]
        assert np.array_equal(np.concatenate(parts), whole)
