"""Reference finite-element solution on the physical thin domain."""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import TRANSVERSE_AXES, ProblemSpec
from .fem3d import FemContext, norms, solve_poisson, station_profile
from .mesh3d import build_thin_mesh


def with_epsilon(spec: ProblemSpec, epsilon) -> ProblemSpec:
    """The same problem at a different slenderness."""
    return dataclasses.replace(spec, epsilon=float(epsilon))


class ReferenceSolution:
    """Direct Galerkin solve of the thin-domain problem."""

    def __init__(self, spec, mesh, ctx, u, info):
        self.spec = spec
        self.mesh = mesh
        self.ctx = ctx
        self.u = u
        self.info = info

    @property
    def epsilon(self):
        return self.spec.epsilon

    def observation_interval(self):
        """Axial interval on which tube stations are compared: beyond the
        matching band, whose edge is a station of every tube."""
        return self.spec.matching_planes()[1], 1.0

    def station_values(self, edge):
        """Axial positions and cross-section means of one tube's stations
        in the observation interval."""
        lo, hi = self.observation_interval()
        xs, means = station_profile(self.mesh, self.u, edge)
        keep = (xs >= lo) & (xs <= hi)
        return xs[keep], means[keep]

    def tube_mask(self, edge):
        """Tetrahedra of one tube whose centroids lie in the observation
        interval (which starts past the bulge: 3 ell eps^alpha > eps ell),
        as booleans."""
        lo, hi = self.observation_interval()
        x = self.ctx.centroids[:, edge]
        return (x > lo) & (x < hi)

    def bulge_mask(self):
        """Tetrahedra of the junction zone |x_i| < 2 eps ell, as booleans."""
        lim = 2.0 * self.epsilon * self.spec.ell
        return np.max(self.ctx.centroids, axis=1) < lim

    def norms_against(self, fn):
        """Squared L2 and H1 errors per tet of the FEM field minus the
        analytic field ``fn(points) -> (values, gradients)``, in tet order
        (``fem3d.norms``; ``norm_triple`` sums them)."""
        # this module's global, which bench/tracing.py wraps
        return norms(self.ctx, self.u, reference=fn)

    def record(self):
        """The solve's record: mesh size, CG iterations and restarts, and
        the true relative residual it reached."""
        return {"epsilon": self.epsilon, "nodes": int(self.mesh.num_nodes),
                "tets": int(self.mesh.num_tets),
                "cg_iterations": int(self.info["iterations"]),
                "cg_restarts": int(self.info["restarts"]),
                "relative_residual": float(self.info["relative_residual"])}

    def domain_measure(self):
        return float(self.ctx.volumes.sum())


def default_axial(epsilon):
    """Axial station spacing of a reference mesh given none."""
    return max(0.01, 0.1 * epsilon)


def solve_reference(spec: ProblemSpec, axial=None,
                    refine=1.0) -> ReferenceSolution:
    """Solve the thin-domain problem with end constraints and wall load."""
    eps = spec.epsilon
    if axial is None:
        axial = default_axial(eps)
    mesh = build_thin_mesh(spec, axial=axial, refine=refine)
    ctx = FemContext(mesh)

    def volume(pts):
        return spec.f(pts[:, 0], pts[:, 1], pts[:, 2])

    neumann = {}
    for i in range(3):
        phi = spec.phi[i]
        if phi.is_zero():
            continue
        a, b = TRANSVERSE_AXES[i]

        def flux(pts, phi=phi, i=i, a=a, b=b):
            return -eps * phi(pts[:, i], pts[:, a] / eps, pts[:, b] / eps)

        neumann[f"lateral_{i}"] = flux

    dirichlet = {f"end_{i}": 0.0 for i in range(3)}
    u, info = solve_poisson(ctx, volume=volume, neumann=neumann,
                            dirichlet=dirichlet)
    return ReferenceSolution(spec, mesh, ctx, u, info)
