"""Smooth transition profiles used to glue expansion zones."""

import numpy as np
import pytest

from thinjunction.cutoffs import SmoothStep


@pytest.fixture()
def step():
    return SmoothStep(0.6, 0.9)


def test_plateaus(step):
    x = np.array([-1.0, 0.0, 0.59, 0.91, 2.0])
    assert np.allclose(step(x), [0.0, 0.0, 0.0, 1.0, 1.0])
    assert np.allclose(step.deriv(x), 0.0)
    assert np.allclose(step.deriv2(x), 0.0)


def test_monotone_and_bounded(step):
    x = np.linspace(0.55, 0.95, 401)
    v = step(x)
    assert np.all(np.diff(v) >= -1e-14)
    assert np.all((v >= 0.0) & (v <= 1.0 + 1e-14))


def test_c2_join(step):
    # Values and first two derivatives match the plateaus at both ends.
    for x0, val in [(0.6, 0.0), (0.9, 1.0)]:
        assert step(np.array([x0]))[0] == pytest.approx(val, abs=1e-14)
        assert step.deriv(np.array([x0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert step.deriv2(np.array([x0]))[0] == pytest.approx(0.0, abs=1e-10)


def test_derivatives_match_finite_differences(step):
    x = np.linspace(0.62, 0.88, 27)
    d1, d2 = 1e-6, 1e-4
    fd1 = (step(x + d1) - step(x - d1)) / (2 * d1)
    fd2 = (step(x + d2) - 2 * step(x) + step(x - d2)) / d2 ** 2
    assert np.max(np.abs(step.deriv(x) - fd1)) < 1e-7
    assert np.max(np.abs(step.deriv2(x) - fd2)) < 1e-3


def test_support(step):
    lo, hi = step.support
    assert (lo, hi) == (0.6, 0.9)
