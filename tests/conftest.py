"""Shared fixtures.

Expensive objects (truncated-junction meshes, expansions, reference
solves) are session scoped so the suite builds each of them once.
"""

import numpy as np
import pytest

from thinjunction import (
    Expansion,
    LateralLoad,
    ProblemSpec,
    RadiusProfile,
    SourceField,
    TruncatedJunction,
    solve_reference,
    solve_special,
    with_epsilon,
)
from thinjunction.poly import Poly3

CONST_H = (RadiusProfile.constant(0.25),) * 3
NO_PHI = (LateralLoad.zero(),) * 3


def make_spec(f, order=1, phi=NO_PHI, h=CONST_H, epsilon=0.1, alpha=0.8):
    return ProblemSpec(epsilon=epsilon, ell=0.3, alpha=alpha, delta_cut=0.1,
                       order=order, h=tuple(h), f=f, phi=tuple(phi))


@pytest.fixture(scope="session")
def flat_spec():
    """f constant, all radii constant, no lateral load."""
    return make_spec(SourceField.constant(1.0))


@pytest.fixture(scope="session")
def fx_spec():
    """f = x1, all radii constant, no lateral load."""
    return make_spec(SourceField(Poly3.from_terms([((1, 0, 0), 1.0)])))


@pytest.fixture(scope="session")
def rich_spec():
    """Quadratic source, one bumped radius, one nonzero lateral load."""
    f = SourceField(Poly3.from_terms([((1, 0, 0), 1.0), ((0, 2, 0), 0.5)]))
    phi = (LateralLoad.zero(),
           LateralLoad(Poly3.constant(0.05)),
           LateralLoad.zero())
    h = (RadiusProfile.constant(0.25),
         RadiusProfile.smooth_bump(0.25, 0.2),
         RadiusProfile.constant(0.2))
    return make_spec(f, order=2, phi=phi, h=h)


@pytest.fixture(scope="session")
def junction_flat6(flat_spec):
    """Truncated junction for the constant-radius geometry, R = ell + 6."""
    return TruncatedJunction(flat_spec, R=flat_spec.ell + 6.0)


@pytest.fixture(scope="session")
def specials_flat6(junction_flat6):
    return solve_special(junction_flat6, 1), solve_special(junction_flat6, 2)


@pytest.fixture(scope="session")
def exp_fx(fx_spec, junction_flat6):
    """Order-1 expansion for f = x1 on the constant-radius geometry."""
    return Expansion(fx_spec, junction=junction_flat6)


@pytest.fixture(scope="session")
def exp_rich(rich_spec):
    """Order-2 expansion on the rich configuration, coarse junction mesh."""
    return Expansion(rich_spec, junction_R=rich_spec.ell + 4.0,
                     junction_refine=0.7)


@pytest.fixture(scope="session")
def ref_flat(flat_spec):
    """One moderately fine reference solve, f constant, eps = 0.2."""
    return solve_reference(with_epsilon(flat_spec, 0.2), axial=0.02)


@pytest.fixture
def rng():
    """A fresh generator per test, so a test draws what it draws when run
    alone, whichever tests ran before it."""
    return np.random.default_rng(20260819)
