"""Finite element layer: quadrature, solves, evaluation, fluxes."""

import dataclasses
import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg, splu, spsolve
from scipy.spatial import cKDTree

from block_oracle import (
    face_adjacency_reference,
    face_keys_reference,
    norms_reference,
    norms_vdot_reference,
    tet_edges_reference,
    volume_load_reference,
)
from conftest import make_spec
from geometry_oracle import (
    cross_geometry_reference,
    station_average_reference,
    tet_geometry,
)
from locator_oracle import KdWalkOracle, LocatorOracle, WholeTableLocator
import solver_oracle
from solver_oracle import (
    solve_load_reference,
    solve_spd_reference,
    station_labels_reference,
    two_level_reference,
)
from thinjunction import (
    LateralLoad,
    SourceField,
    TruncatedJunction,
    build_thin_mesh,
    build_tube_mesh,
    compute_delta,
    fem3d,
    junction,
    mesh3d,
    solve_decaying,
    solve_limit,
    solve_reference,
    solve_special,
    with_epsilon,
)
from thinjunction.fem3d import (
    FemContext,
    PointLocator,
    coarse_labels,
    norm_triple,
    norms,
    solve_poisson,
    station_average,
    station_profile,
)
from thinjunction.mesh3d import LayoutSeed, TetMesh, _layout_params
from thinjunction.poly import Poly3
from thinjunction.reference import default_axial


@pytest.fixture(scope="module")
def tube():
    return build_tube_mesh(radius=0.5, length=1.0, axial=0.125)


@pytest.fixture(scope="module")
def ctx(tube):
    return FemContext(tube)


@pytest.fixture(scope="module")
def jloc(junction_flat6):
    """The junction's point locator, the one the package builds."""
    return junction_flat6.locator


def linear_field(pts):
    return 1.0 + 2.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 2]


LINEAR_GRAD = np.array([2.0, -1.0, 0.5])


class TestQuadrature:
    def test_weights_sum_to_volume(self, ctx):
        for degree in (2, 5):
            _, wts, _ = ctx.quad_points(degree)
            assert wts.sum() == pytest.approx(ctx.mesh.volume(), rel=1e-12)

    def test_volume_load_of_one_integrates_to_volume(self, ctx):
        b = ctx.volume_load(lambda pts: np.ones(pts.shape[0]))
        assert b.sum() == pytest.approx(ctx.mesh.volume(), rel=1e-12)

    def test_volume_load_linear_exact(self, ctx, tube):
        # cross-sections are centred, so the axial moment is A * L^2 / 2
        b = ctx.volume_load(lambda pts: pts[:, 0])
        area = tube.boundary_area("end_a")
        assert b.sum() == pytest.approx(area * 0.5, rel=1e-12)

    def test_volume_load_blocks_keep_the_summation_order(self, monkeypatch,
                                                         ctx):
        def fn(pts):
            return np.sin(3.0 * pts[:, 0]) + pts[:, 1] * pts[:, 2]

        whole = ctx.volume_load(fn, degree=5)
        monkeypatch.setattr(mesh3d, "BLOCK_POINTS", 7)
        assert np.array_equal(ctx.volume_load(fn, degree=5), whole)

    def test_surface_load_constant_gives_area(self, ctx, tube):
        b = ctx.surface_load("end_b", lambda pts: np.ones(pts.shape[0]))
        assert b.sum() == pytest.approx(tube.boundary_area("end_b"),
                                        rel=1e-12)

    def test_surface_load_odd_moment_vanishes(self, ctx):
        b = ctx.surface_load("end_a", lambda pts: pts[:, 1])
        assert abs(b.sum()) < 1e-13


def _wavy_value(pts):
    return np.sin(3.0 * pts[:, 0]) + pts[:, 1] * pts[:, 2]


def _wavy_reference(pts):
    grads = np.zeros_like(pts)
    grads[:, 0] = 3.0 * np.cos(3.0 * pts[:, 0])
    grads[:, 1], grads[:, 2] = pts[:, 2], pts[:, 1]
    return _wavy_value(pts), grads


class TestBlocks:
    """Every pass over the tets, cut into blocks of two or three tets
    (``BLOCK_POINTS`` = 7), matches its whole-mesh oracle bit for bit."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(mesh3d, "BLOCK_POINTS", 7)

    @pytest.fixture(scope="class")
    def field(self, tube):
        x = tube.nodes
        return np.cos(2.0 * x[:, 0]) + x[:, 1] - 0.5 * x[:, 2] ** 2

    def test_blocks_cover_the_tets(self):
        for count in (0, 1, 2, 3, 7, 8, 9):
            blocks = mesh3d.tet_blocks(count, 4)
            sizes = [b.stop - b.start for b in blocks]
            assert sum(sizes) == count
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert count < 2 or 2 <= min(sizes) and max(sizes) <= 3

    def test_norms(self, ctx, field):
        # the per-tet numbers of one pass, summed over every tet or over
        # a tet subset, are the oracle's pass over those tets
        subset = ctx.centroids[:, 0] < 0.6
        assert 0 < subset.sum() < ctx.mesh.num_tets
        seen = []

        def reference(pts):
            seen.append(len(pts))
            return _wavy_reference(pts)

        for fn, ref in ((None, None), (reference, _wavy_reference)):
            l2, h1 = norms(ctx, field, fn)
            for m in (None, subset):
                at = slice(None) if m is None else m
                got = norm_triple(l2[at], h1[at])
                assert got == norms_reference(ctx, field, ref, m)
                # the former whole-array vdot sums, to rounding
                want = norms_vdot_reference(ctx, field, ref, m)
                assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        # the callback sees one block of two or three tets at a time
        assert max(seen) <= 12 and len(seen) > ctx.mesh.num_tets // 3

    def test_geometry(self, tube):
        volumes, grads = tet_geometry(tube.nodes, tube.tets)
        want = cross_geometry_reference(tube.nodes, tube.tets)
        assert volumes.tobytes() == want[0].tobytes()
        assert grads.tobytes() == want[1].tobytes()

    def test_face_adjacency_and_edges(self, tube):
        assert np.array_equal(
            mesh3d.face_adjacency(tube.tets, tube.num_nodes),
            face_adjacency_reference(tube.tets, tube.num_nodes))
        # edge keys a*n + b below 2**31, and on ids spread so that they
        # pass it; the edge rows are int32 either way
        spread = 50_000 // tube.num_nodes + 1
        for tets, n in ((tube.tets, tube.num_nodes),
                        (tube.tets * spread, tube.num_nodes * spread)):
            got = mesh3d.tet_edges(tets, n)
            assert got[0].dtype == np.int32 and got[1].dtype == np.int32
            for g, want in zip(got, tet_edges_reference(tets, n)):
                assert np.array_equal(g, want)

    def test_edge_keys_that_would_overflow_are_refused(self):
        """A key holds the edge key a*n + b above the bits of the slot
        numbers; node ids too large for that are refused before any key
        is made, with a ValueError that ``python -O`` keeps: two tets
        near node 2**30 would otherwise get wrong edge rows."""
        n = 1 << 30
        tets = np.arange(n - 8, n, dtype=np.int64).reshape(2, 4)
        with pytest.raises(ValueError, match=re.escape(
                f"edge keys overflow int64: {n} nodes and 2 tets, the limit "
                f"is 759250124 nodes")):
            mesh3d.tet_edges(tets, n)

    def test_face_keys_are_the_sorted_keys(self, tube):
        faces = tube.tets[:, mesh3d._FACES]
        assert np.array_equal(mesh3d.face_keys(faces, tube.num_nodes),
                              face_keys_reference(faces, tube.num_nodes))
        # every vertex order, with ids up to the largest a key can hold
        n = (1 << 21) - 1
        rng = np.random.default_rng(8)
        tri = rng.integers(0, n, size=(500, 3))
        tri[:50, 1] = tri[:50, 0]
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                     (2, 1, 0)):
            got = mesh3d.face_keys(tri[:, perm], n)
            assert np.array_equal(got, face_keys_reference(tri, n))

    def test_volume_load_and_centroids(self, tube):
        ctx = FemContext(tube)
        live = np.flatnonzero(np.arange(tube.num_tets) % 5 != 1)
        for degree, sel in ((2, None), (5, live)):
            want = volume_load_reference(ctx, _wavy_value, degree, sel)
            assert np.array_equal(
                ctx.volume_load(_wavy_value, degree, sel), want)
        assert np.array_equal(ctx.centroids,
                              tube.nodes[tube.tets].mean(axis=1))


def test_context_and_norms_hold_a_block_not_the_mesh(monkeypatch, fx_spec):
    """Peak memory of FemContext and of a norm pass with a reference
    callback, above their starting live set, on a 39,528-tet thin mesh
    in blocks of 2,048 points: at most one block's transients (256 bytes
    a point) plus a few numbers per tet.  A norm keeps its two sums per
    tet, and the context's edge sort holds its int64 keys and the int32
    edge numbers, 9 numbers per tet.  The pass that kept the weights and
    squared errors at every quadrature point took about 21 numbers per
    tet, and the argsort build of the matrix 22.  A tet subset of the
    pass is the oracle's pass over those tets, bit for bit."""
    spec = dataclasses.replace(fx_spec, order=0, epsilon=0.2)
    mesh = build_thin_mesh(spec, axial=0.05, refine=0.5)
    assert mesh.num_tets == 39_528
    monkeypatch.setattr(mesh3d, "BLOCK_POINTS", 2048)
    block = 256 * mesh3d.BLOCK_POINTS
    u = np.sin(mesh.nodes[:, 0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ctx = FemContext(mesh)
        context = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        l2, h1 = norms(ctx, u, _wavy_reference)
        norm = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    tets = mesh.num_tets
    assert context <= block + 14 * 8 * tets, context / tets
    assert norm <= block + 2 * 8 * tets, norm / tets
    subset = ctx.centroids[:, 0] < 0.6
    assert norm_triple(l2[subset], h1[subset]) == norms_reference(
        ctx, u, _wavy_reference, subset)


def test_reference_solve_and_norm_pass_peak_per_tet(fx_spec, exp_fx):
    """The traced peak of a reference solve (mesh, context, Dirichlet
    solve) and then one order-0 whole-domain norm against the expansion,
    above the heap before them, on a 61,344-tet thin mesh: at most 250
    bytes a tet.  That holds the solution's mesh and context and the
    largest transient of any stage.  A mesh that kept its barycentric
    gradients held 96 bytes a tet more, through every stage (304 bytes
    a tet in all)."""
    eps = 0.2
    spec = with_epsilon(fx_spec, eps)

    def order_0(pts):
        return exp_fx.evaluate(pts, eps, m=0, gradient=True)

    # the same stages on a coarse mesh first, so that no first-call
    # cache lands in the traced peak
    solve_reference(spec, axial=0.1, refine=0.4).norms_against(order_0)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ref = solve_reference(spec, axial=0.04, refine=0.7)
        ref.norms_against(order_0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ref.mesh.num_tets == 61_344
    assert peak <= 250 * ref.mesh.num_tets, peak / ref.mesh.num_tets


class TestSolves:
    def test_linear_patch_exact(self, ctx, tube):
        dirichlet = {tag: linear_field for tag in tube.boundary}
        u, info = solve_poisson(ctx, dirichlet=dirichlet)
        exact = linear_field(tube.nodes)
        assert np.abs(u - exact).max() < 1e-8

    def test_axial_quadratic_convergence(self):
        # u = x^2 depends on the axial coordinate only, so the polygonal
        # cross-section is not a geometry error and the rate is clean
        errs = []
        for axial in (0.2, 0.1):
            mesh = build_tube_mesh(radius=0.4, length=1.0, axial=axial)
            c = FemContext(mesh)
            u, _ = solve_poisson(
                c,
                volume=lambda pts: -2.0 * np.ones(pts.shape[0]),
                dirichlet={"end_a": 0.0,
                           "end_b": lambda pts: pts[:, 0] ** 2},
            )

            def ref(pts):
                g = np.zeros_like(pts)
                g[:, 0] = 2.0 * pts[:, 0]
                return pts[:, 0] ** 2, g

            l2, _, _ = norm_triple(*norms(c, u, reference=ref))
            errs.append(l2)
        rate = np.log2(errs[0] / errs[1])
        assert 1.6 < rate < 2.4

    def test_galerkin_residual_small(self, ctx, tube):
        # a Dirichlet solve leaves a residual only on the fixed rows, where
        # it is the reaction; a load that carries the reaction leaves none
        u, _ = solve_poisson(ctx, volume=lambda pts: pts[:, 0] - 0.5,
                             dirichlet={"end_a": 0.0})
        b = ctx.volume_load(lambda pts: pts[:, 0] - 0.5)
        scale = float(np.linalg.norm(b))

        def residual(b):
            # the largest |r . v| / |v| of r = A u - b over 20 random v
            r = ctx.matrix @ u - b
            v = np.random.default_rng(7).standard_normal((20, r.size))
            return float(np.max(np.abs(v @ r) / np.linalg.norm(v, axis=1)))

        assert residual(b) > 1e-3 * scale
        fixed = np.unique(tube.boundary["end_a"])
        b[fixed] = (ctx.matrix @ u)[fixed]
        assert residual(b) < 1e-8 * max(1.0, scale)

    def test_solve_without_dirichlet_tag_rejected(self, ctx):
        # flux conditions alone fix the solution only up to a constant
        for dirichlet in (None, {}):
            with pytest.raises(ValueError, match="Dirichlet"):
                solve_poisson(ctx, volume=lambda pts: pts[:, 0] - 0.5,
                              dirichlet=dirichlet)

    def test_missing_dirichlet_tag_rejected(self, ctx):
        with pytest.raises(KeyError):
            solve_poisson(ctx, dirichlet={"no_such_tag": 0.0})

    def test_wall_flux_follows_the_limit_profile(self):
        # a load on the wall of tube 1 only, no volume source: the
        # station means follow the order-0 graph profile to 0.10 of its
        # peak; a flipped flux sign would put them 1.9 off
        phi = (LateralLoad.zero(), LateralLoad(Poly3.constant(0.5)),
               LateralLoad.zero())
        spec = make_spec(SourceField(Poly3.zero()), order=0, phi=phi,
                         epsilon=0.2)
        ref = solve_reference(spec, axial=0.04, refine=0.7)
        edges = solve_limit(spec)
        peak = max(np.abs(e.value(np.linspace(0.0, 1.0, 201))).max()
                   for e in edges)
        for i, edge in enumerate(edges):
            xs, means = ref.station_values(i)
            assert np.abs(means - edge.value(xs)).max() < 0.2 * peak


def _end_dirichlet_system(ctx):
    """Stiffness rows and columns of the nodes off the end disks."""
    mesh = ctx.mesh
    fixed = np.zeros(mesh.num_nodes, dtype=bool)
    for tag in mesh.boundary:
        if tag.startswith("end"):
            fixed[np.unique(mesh.boundary[tag])] = True
    free = ~fixed
    return ctx.matrix[free][:, free].tocsr(), free


class TestTwoLevelCG:
    """Jacobi plus a coarse space of one unknown per tube station and one
    per bulge shell, cube face and face quadrant, and the contract that
    the true residual meets rtol."""

    @pytest.fixture(scope="class")
    def thin_ctx(self, fx_spec):
        spec = with_epsilon(fx_spec, 0.2)
        return FemContext(build_thin_mesh(spec, axial=0.05, refine=0.5))

    @pytest.fixture(scope="class")
    def junction_flat(self, flat_spec):
        return TruncatedJunction(flat_spec, R=flat_spec.ell + 3.5, refine=0.6)

    def test_labels_one_per_station_and_per_bulge_shell_face_quadrant(
            self, thin_ctx, junction_flat, tube):
        for mesh in (thin_ctx.mesh, junction_flat.mesh):
            labels = coarse_labels(mesh)
            stations = [st for edge in sorted(mesh.stations)
                        for st in mesh.stations[edge]]
            for j, st in enumerate(stations):
                assert np.all(labels[st.nodes] == j)
            bulge = np.flatnonzero(labels >= len(stations))
            x = mesh.nodes[bulge]
            size = np.abs(x).max(axis=1)
            shells = np.unique(size)
            # the builder's scaled copies of the cube surface and the centre
            assert len(shells) == _layout_params(mesh.meta["refine"])[3] + 1
            cells = set()
            for label, p, s in zip(labels[bulge], x, size):
                axis = int(np.argmax(np.abs(p)))
                others = [p[(axis + k) % 3] < 0 for k in (1, 2)]
                cells.add((label, s, axis, p[axis] < 0, *others))
            # each label is one (shell, face, quadrant) and each of those,
            # one label; the centre is a shell of its own
            assert len(cells) == len({c[1:] for c in cells})
            assert len(cells) == len(np.unique(labels[bulge]))
            assert len(cells) == 24 * (len(shells) - 1) + 1
            assert np.bincount(labels).min() > 0
        # a mesh of tube stations only keeps its station labels
        assert np.array_equal(coarse_labels(tube),
                              station_labels_reference(tube))

    def test_dirichlet_solve_matches_direct(self, thin_ctx):
        a, free = _end_dirichlet_system(thin_ctx)
        b = thin_ctx.volume_load(lambda p: p[:, 0] + np.sin(9.0 * p[:, 1]))
        b = b[free]
        u, info = fem3d._solve_spd(
            a, b, labels=coarse_labels(thin_ctx.mesh)[free])
        want = spsolve(a.tocsc(), b)
        assert np.linalg.norm(u - want) <= 1e-9 * np.linalg.norm(want)
        assert info["relative_residual"] <= 1e-10
        # the bulge aggregates against the former single one
        _, former = fem3d._solve_spd(
            a, b, labels=station_labels_reference(thin_ctx.mesh)[free])
        assert info["iterations"] <= 0.75 * former["iterations"]

    def test_junction_load_solve_matches_direct(self, monkeypatch,
                                                junction_flat):
        # a load whose sum is not zero: the solve projects it to zero sum
        # and pins node 0, and returns the raw load
        a = junction_flat.ctx.matrix
        b = junction_flat.ctx.volume_load(lambda p: p[:, 0] - p[:, 2] ** 2)
        assert abs(b.sum()) > 0.1 * np.abs(b).sum()
        monkeypatch.setattr(junction, "assemble_load", lambda *_: b)
        u, load, info = junction._solve_load(junction_flat, None)
        assert load is b
        projected = b - b.mean()
        want = np.zeros(len(b))
        want[1:] = spsolve(a[1:, 1:].tocsc(), projected[1:])
        assert u[0] == 0.0
        assert np.linalg.norm(u - want) <= 1e-9 * np.linalg.norm(want)
        assert info["relative_residual"] <= 1e-10
        # the pinned row holds too, since constants are the kernel of A
        true = np.linalg.norm(a @ u - projected) / np.linalg.norm(projected)
        assert true <= 1e-9
        # the bulge aggregates against the former single one
        _, former = fem3d._solve_spd(
            a[1:, 1:], projected[1:],
            labels=station_labels_reference(junction_flat.mesh)[1:])
        assert info["iterations"] <= 0.75 * former["iterations"]

    def test_iterations_do_not_grow_with_the_stations(self, monkeypatch,
                                                      fx_spec):
        # the paper's leading term is constant on cross-sections: one
        # coarse unknown per station removes the axial modes that make
        # Jacobi-CG grow with the number of stations
        seen = []
        solve = fem3d._solve_spd

        def record(a, b, *args, **kwargs):
            u, info = solve(a, b, *args, **kwargs)
            seen.append((a, b, info["iterations"]))
            return u, info

        monkeypatch.setattr(fem3d, "_solve_spd", record)
        for eps in (0.2, 0.1):
            ref = solve_reference(with_epsilon(fx_spec, eps), refine=0.5)
            # a solve given no spacing meshes at the one default
            assert ref.mesh.meta["axial"] == default_axial(eps)
        jacobi = []
        for a, b, _ in seen:
            count = []
            _, code = cg(a, b, rtol=1e-10, atol=0.0, maxiter=20000,
                         M=sparse.diags(1.0 / a.diagonal()),
                         callback=count.append)
            assert code == 0
            jacobi.append(len(count))
        two_level = [it for _, _, it in seen]
        assert two_level[1] <= 1.2 * two_level[0]
        assert jacobi[1] >= 1.5 * jacobi[0]
        assert 2 * two_level[1] < jacobi[1]

    @staticmethod
    def _drifting_cg(monkeypatch, drift_calls):
        """Let CG report success with an iterate off by 1e-6 relative on
        its first ``drift_calls`` calls, as a drifting recursive residual
        would."""
        calls = []
        loop = fem3d._cg

        def drifting(a, b, x0, psolve, maxiter):
            u, code, iterations = loop(a, b, x0, psolve, maxiter)
            calls.append(x0)
            if len(calls) <= drift_calls:
                u = u * (1.0 + 1e-6)
            return u, code, iterations

        monkeypatch.setattr(fem3d, "_cg", drifting)
        return calls

    def test_true_residual_above_rtol_restarts(self, monkeypatch, ctx):
        a, free = _end_dirichlet_system(ctx)
        b = ctx.volume_load(lambda p: np.ones(len(p)))[free]
        calls = self._drifting_cg(monkeypatch, drift_calls=1)
        u, info = fem3d._solve_spd(a, b)
        assert len(calls) == 2 and info["restarts"] == 1
        assert not np.any(calls[0]) and np.any(calls[1])
        assert info["relative_residual"] <= 1e-10
        true = np.linalg.norm(b - a @ u) / np.linalg.norm(b)
        assert true == info["relative_residual"]

    def test_solve_that_never_meets_rtol_raises(self, monkeypatch, ctx):
        a, free = _end_dirichlet_system(ctx)
        b = ctx.volume_load(lambda p: np.ones(len(p)))[free]
        calls = self._drifting_cg(monkeypatch, drift_calls=100)
        with pytest.raises(RuntimeError, match="true relative residual"):
            fem3d._solve_spd(a, b)
        assert len(calls) == 1 + fem3d.CG_RESTARTS

    def test_unlabelled_call_uses_one_aggregate(self):
        a = sparse.diags([2.0, 3.0, 4.0]).tocsr()
        u, info = fem3d._solve_spd(a, np.ones(3))
        assert np.allclose(u, [0.5, 1 / 3, 0.25], rtol=1e-12)
        assert info["restarts"] == 0

    @pytest.fixture(scope="class")
    def systems(self, thin_ctx, junction_flat):
        """(matrix, load, labels) of a thin-mesh Dirichlet solve and of a
        pinned junction solve."""
        a, free = _end_dirichlet_system(thin_ctx)
        b = thin_ctx.volume_load(lambda p: p[:, 0] + np.sin(9.0 * p[:, 1]))
        jn = junction_flat
        load = jn.ctx.volume_load(lambda p: p[:, 0] - p[:, 2] ** 2)
        return [(a, b[free], coarse_labels(thin_ctx.mesh)[free]),
                (jn.ctx.matrix[1:, 1:].tocsr(), (load - load.mean())[1:],
                 jn.labels[1:])]

    @staticmethod
    def _scipy_cg(a, b, x0, psolve, maxiter):
        """scipy's ``cg`` at the package's stop: (x, code, iterations)."""
        count = []
        x, code = cg(a, b, x0=x0, rtol=fem3d.CG_RTOL, atol=0.0,
                     maxiter=maxiter, callback=count.append,
                     M=LinearOperator(a.shape, matvec=psolve, dtype=float))
        return x, code, len(count)

    @pytest.mark.parametrize("start", ["zero", "restart"])
    def test_loop_is_scipys_cg(self, systems, start):
        """Same preconditioner, same iterate and count, bit for bit: from
        zero, and from a drifted iterate as a restart starts from (where
        the loop first forms b - A x0)."""
        for a, b, labels in systems:
            psolve = two_level_reference(a, labels)
            x0 = np.zeros(len(b))
            if start == "restart":
                x0 = fem3d._cg(a, b, x0, psolve, 20000)[0] * (1.0 + 1e-6)
            kept = x0.copy()
            want, code, count = self._scipy_cg(a, b, x0, psolve, 20000)
            got, got_code, iterations = fem3d._cg(a, b, x0, psolve, 20000)
            assert got.tobytes() == want.tobytes()
            assert (got_code, iterations) == (code, count)
            assert code == 0 and count > 0
            assert x0.tobytes() == kept.tobytes()

    def test_zero_load_returns_at_once(self, systems):
        a, b, labels = systems[0]

        def never(_):
            raise AssertionError("the preconditioner was called")

        zero, start = np.zeros(len(b)), np.ones(len(b))
        x, code, iterations = fem3d._cg(a, zero, start, never, 20000)
        assert (code, iterations) == (0, 0) and x is not zero
        assert x.tobytes() == self._scipy_cg(a, zero, start, never,
                                             20000)[0].tobytes()
        u, info = fem3d._solve_spd(a, zero, labels=labels)
        assert not u.any()
        assert info == {"iterations": 0, "relative_residual": 0.0,
                        "restarts": 0}

    def test_iterations_that_run_out_stall_the_solve(self, monkeypatch,
                                                     systems):
        a, b, labels = systems[0]
        psolve = two_level_reference(a, labels)
        x0 = np.zeros(len(b))
        want, code, count = self._scipy_cg(a, b, x0, psolve, 5)
        got, got_code, iterations = fem3d._cg(a, b, x0, psolve, 5)
        assert got_code == iterations == code == count == 5
        assert got.tobytes() == want.tobytes()
        loop = fem3d._cg
        monkeypatch.setattr(fem3d, "_cg", lambda a, b, x0, psolve, maxiter:
                            loop(a, b, x0, psolve, 5))
        with pytest.raises(RuntimeError, match=r"stalled \(code 5\)"):
            fem3d._solve_spd(a, b, labels=labels)

    def test_dense_coarse_inverse_is_the_sparse_factor_solve(self, systems,
                                                             rng):
        for a, _, labels in systems:
            _, agg = np.unique(labels, return_inverse=True)
            pt, coarse_inv = fem3d._coarse_space(a, agg)
            assert coarse_inv.shape == (agg.max() + 1,) * 2
            scale = np.abs(coarse_inv).max()
            assert np.abs(coarse_inv - coarse_inv.T).max() <= 1e-12 * scale
            w = rng.standard_normal((len(coarse_inv), 4))
            want = splu((pt @ a @ pt.T).tocsc()).solve(w)
            assert (np.abs(coarse_inv @ w - want).max()
                    <= 1e-12 * np.abs(want).max())


class TestOneSolvePath:
    """Junction and thin-domain solves against the former solver, which
    kept a mean-zero formulation for the junction (tests/solver_oracle.py)."""

    @staticmethod
    def _rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    def test_junction_fields_match_the_deflated_solve(self, monkeypatch,
                                                      exp_rich):
        jn = exp_rich.junction
        data = exp_rich.inner[2]
        load = junction.assemble_load(jn, data)
        # the projection has work to do: the load does not sum to zero
        assert abs(load.sum()) > 1e-6 * np.abs(load).sum()
        fields = [solve_decaying(jn, data),
                  solve_special(jn, 1), solve_special(jn, 2)]
        monkeypatch.setattr(junction, "_solve_load", solve_load_reference)
        former = [solve_decaying(jn, data),
                  solve_special(jn, 1), solve_special(jn, 2)]
        for got, want in zip(fields, former):
            assert np.array_equal(got.load, want.load)
            assert self._rel(got.decay, want.decay) <= 1e-9
            assert got.info["iterations"] <= want.info["iterations"] + 2
        jumps = compute_delta(load, fields[1:])
        assert self._rel(jumps, compute_delta(load, former[1:])) <= 1e-9

    def test_reference_solve_is_the_former_dirichlet_path(self, monkeypatch,
                                                          fx_spec):
        """The package's CG loop in place of scipy's ``cg`` in the former
        solver, with its SuperLU preconditioner: the same reference solve
        bit for bit, restarts and iteration counts included."""
        spec = with_epsilon(fx_spec, 0.2)
        monkeypatch.setattr(fem3d, "_solve_spd", solve_spd_reference)
        want = solve_reference(spec, axial=0.05, refine=0.5)

        def package_loop(op, rhs, x0, rtol, atol, maxiter, M, callback):
            assert (rtol, atol) == (fem3d.CG_RTOL, 0.0)
            u, code, iterations = fem3d._cg(op, rhs, x0, M.matvec, maxiter)
            for _ in range(iterations):
                callback(u)
            return u, code

        monkeypatch.setattr(solver_oracle, "cg", package_loop)
        got = solve_reference(spec, axial=0.05, refine=0.5)
        assert got.u.tobytes() == want.u.tobytes()
        assert got.info == want.info

    def test_reference_solve_is_the_former_one_to_rounding(self, monkeypatch,
                                                          fx_spec):
        """The package's solve against the former one: only the coarse
        solve's rounding differs (a dense inverse for SuperLU)."""
        spec = with_epsilon(fx_spec, 0.2)
        got = solve_reference(spec, axial=0.05, refine=0.5)
        monkeypatch.setattr(fem3d, "_solve_spd", solve_spd_reference)
        want = solve_reference(spec, axial=0.05, refine=0.5)
        assert self._rel(got.u, want.u) <= 1e-9
        assert abs(got.info["iterations"] - want.info["iterations"]) <= 1
        assert got.info.keys() == want.info.keys()
        assert got.info["relative_residual"] <= fem3d.CG_RTOL

    def test_systems_are_the_fancy_index_restrictions(self, monkeypatch,
                                                      ctx, tube, exp_rich):
        """The systems handed to CG, bitwise: a Dirichlet solve with
        nonzero boundary values against the former free rows by fancy
        indexing, their fixed columns' coupling and their free columns,
        and a junction solve against ``matrix[1:, 1:]``."""
        seen = []

        def record(a, b, labels=None):
            seen.append((a, b))
            return solve_spd(a, b, labels=labels)

        solve_spd = fem3d._solve_spd
        monkeypatch.setattr(fem3d, "_solve_spd", record)
        monkeypatch.setattr(junction, "_solve_spd", record)

        def volume(p):
            return np.sin(3.0 * p[:, 0])

        solve_poisson(ctx, volume=volume,
                      dirichlet={"end_a": linear_field, "end_b": 0.5})
        fixed = np.zeros(tube.num_nodes, dtype=bool)
        values = np.zeros(tube.num_nodes)
        for tag, v in (("end_a", None), ("end_b", 0.5)):
            ids = np.unique(tube.boundary[tag])
            fixed[ids] = True
            values[ids] = linear_field(tube.nodes[ids]) if v is None else v
        free = ~fixed
        rows = ctx.matrix[free]
        want = (rows[:, free].tocsr(), ctx.volume_load(volume)[free]
                - rows[:, fixed] @ values[fixed])
        jn = exp_rich.junction
        junction._solve_load(jn, exp_rich.inner[2])
        load = junction.assemble_load(jn, exp_rich.inner[2])
        assert len(seen) == 2
        for (a, b), (a_want, b_want) in zip(seen, [
                want, (jn.ctx.matrix[1:, 1:], (load - load.mean())[1:])]):
            for k in ("data", "indices", "indptr"):
                assert getattr(a, k).tobytes() == getattr(a_want, k).tobytes()
            assert b.tobytes() == b_want.tobytes()


class TestEvaluation:
    def test_locator_reproduces_linear_field(self, jloc, junction_flat6):
        # points in tube 0 of the junction, radius 0.25 from x = ell = 0.3
        u = linear_field(junction_flat6.mesh.nodes)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.35, 6.25, size=40)
        r = rng.uniform(0.0, 0.175, size=40)
        th = rng.uniform(0.0, 2.0 * np.pi, size=40)
        pts = np.column_stack([x, r * np.cos(th), r * np.sin(th)])
        vals, _ = jloc.evaluate(u, pts)
        assert np.abs(vals - linear_field(pts)).max() < 1e-12

    def test_locator_gradient_of_linear_field(self, jloc, junction_flat6):
        u = linear_field(junction_flat6.mesh.nodes)
        pts = np.array([[0.3, 0.1, -0.05], [0.7, -0.2, 0.1]])
        vals, grads = jloc.evaluate(u, pts)
        assert np.abs(vals - linear_field(pts)).max() < 1e-12
        assert np.abs(grads - LINEAR_GRAD).max() < 1e-12

    def test_locator_flags_outside_points(self, jloc, junction_flat6):
        outside = np.array([[2.5, 1.0, 0.0]])
        tet, _ = jloc.locate(outside)
        assert tet[0] == -1
        u = np.zeros(junction_flat6.mesh.num_nodes)
        with pytest.raises(ValueError, match="outside"):
            jloc.evaluate(u, outside)

    def test_station_average_linear_exact(self, ctx, tube):
        u = linear_field(tube.nodes)
        for st in tube.stations[0]:
            got = station_average(tube, u, st)
            assert got == pytest.approx(1.0 + 2.0 * st.x, abs=1e-12)

    def test_station_profile_matches_averages(self, tube):
        u = tube.nodes[:, 0] ** 2
        xs, means = station_profile(tube, u, 0)
        assert xs.shape == means.shape
        assert np.all(np.diff(xs) > 0)
        got = station_average(tube, u, tube.stations[0][3])
        assert means[3] == pytest.approx(got, abs=1e-15)

    def test_station_profile_is_the_per_station_loop(self, fx_spec,
                                                     exp_rich):
        thin = build_thin_mesh(with_epsilon(fx_spec, 0.2), axial=0.05,
                               refine=0.5)
        for mesh in (thin, exp_rich.junction.mesh):
            x = mesh.nodes
            u = np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2] - x[:, 2]
            for edge, stations in mesh.stations.items():
                _, means = station_profile(mesh, u, edge)
                want = [station_average_reference(mesh, u, st)
                        for st in stations]
                assert np.array_equal(means, want)

    def test_tet_subset_splits_volume(self, monkeypatch, ctx, tube):
        monkeypatch.setattr(mesh3d, "BLOCK_POINTS", 7)
        half = ctx.centroids[:, 0] < 0.5
        ones = np.ones(tube.num_nodes)
        l2, h1 = norms(ctx, ones)
        part = norm_triple(l2[half], h1[half])
        assert part == norms_reference(ctx, ones, mask=half)
        l2_full = norm_triple(l2, h1)[0]
        assert part[0] ** 2 == pytest.approx(0.5 * l2_full ** 2, rel=1e-12)


_ORACLES = {}


def _oracle(mesh):
    """One node-round oracle per mesh, kept with its mesh."""
    if id(mesh) not in _ORACLES:
        _ORACLES[id(mesh)] = (mesh, LocatorOracle(mesh))
    return _ORACLES[id(mesh)][1]


def _linear_coords(mesh, tet, pts):
    """Unclipped barycentric coordinates of the points in the given tets."""
    x = mesh.nodes[mesh.tets[tet]]
    local = np.linalg.solve(np.swapaxes(x[:, 1:] - x[:, :1], 1, 2),
                            (pts - x[:, 0])[..., None])[..., 0]
    return np.column_stack([1.0 - local.sum(axis=1), local])


def _assert_in_tet_or_gap(mesh, pts, tet):
    """Each located point lies in its tet within 1e-9, or beyond only
    boundary faces of it that are no end disk, at most the mesh's
    sagitta away."""
    located = np.flatnonzero(tet >= 0)
    lam = _linear_coords(mesh, tet[located], pts[located])
    row, vertex = np.nonzero(lam < -1e-9)
    if row.size == 0:
        return
    opposite = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    faces = np.sort(np.take_along_axis(
        mesh.tets[tet[located[row]]], opposite[vertex], axis=1), axis=1)
    walls = {tuple(f) for tag, tris in mesh.boundary.items()
             if not tag.startswith("end")
             for f in np.sort(tris, axis=1).tolist()}
    assert all(tuple(f) in walls for f in faces.tolist())
    x = mesh.nodes[faces]
    normal = np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
    dist = np.abs(np.einsum("fd,fd->f", pts[located[row]] - x[:, 0], normal))
    assert np.all(dist <= mesh.meta.get("sagitta", 0.0)
                  * np.linalg.norm(normal, axis=1))


def _assert_agrees_with_oracle(loc, mesh, pts):
    """The walk against the node-round oracle.

    Where the oracle's tet is unique (smallest barycentric > 1e-9) the
    walk takes the same tet and barycentrics.  Every point the oracle
    locates is located, and a random nodal field has there the P1 value
    of the oracle's tet: the linear field of that tet at the point,
    since the oracle clips the coordinates of the points it accepts
    within 1e-6 only.
    """
    tet, bary = loc.locate(pts)
    ref_tet, ref_bary, ref_gap = _oracle(mesh).locate(pts)
    unique = ref_gap > 1e-9
    assert np.array_equal(tet[unique], ref_tet[unique])
    assert np.abs(bary[unique] - ref_bary[unique]).max(initial=0.0) <= 1e-12
    found = np.flatnonzero(ref_tet >= 0)
    assert np.all(tet[found] >= 0)
    u = np.random.default_rng(0).standard_normal(mesh.num_nodes)
    nodes = mesh.tets.astype(np.int64)
    val = np.einsum("pa,pa->p", bary[found], u[nodes[tet[found]]])
    ref = np.einsum("pa,pa->p",
                    _linear_coords(mesh, ref_tet[found], pts[found]),
                    u[nodes[ref_tet[found]]])
    assert np.abs(val - ref).max(initial=0.0) <= 1e-12
    _assert_in_tet_or_gap(mesh, pts, tet)
    return tet


def _inside_points_with_tets(mesh, n, seed):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, mesh.num_tets, n)
    lam = rng.dirichlet(np.ones(4), n)
    return np.einsum("pa,pad->pd", lam, mesh.nodes[mesh.tets[t]]), t


def _inside_points(mesh, n, seed):
    return _inside_points_with_tets(mesh, n, seed)[0]


def _interior_face_centroids(mesh):
    faces = np.sort(mesh.tets[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3],
                                  [0, 1, 2]]].reshape(-1, 3), axis=1)
    uniq, count = np.unique(faces, axis=0, return_counts=True)
    return mesh.nodes[uniq[count == 2]].mean(axis=1)


def _beyond_nearest_nodes(mesh, pts, tet, k):
    """Points whose tet touches none of their k nearest nodes: the
    oracle's rounds below k never have that tet as a candidate."""
    _, near = _oracle(mesh).tree.query(pts, k=k)
    near = np.asarray(near).reshape(len(pts), -1)
    return ~(mesh.tets[tet][:, :, None] == near[:, None, :]).any(axis=(1, 2))


class TestBatchedLocator:
    """The face walk against the node-round oracle."""

    def test_random_points_in_tube(self, jloc, junction_flat6):
        # around tube 0 of the junction, from its mouth past its end
        rng = np.random.default_rng(11)
        pts = rng.uniform([0.25, -0.3, -0.3], [6.35, 0.3, 0.3],
                          size=(3000, 3))
        tet = _assert_agrees_with_oracle(jloc, junction_flat6.mesh, pts)
        assert 0 < (tet >= 0).sum() < len(pts)

    def test_random_points_in_junction(self, jloc, junction_flat6):
        mesh = junction_flat6.mesh
        pts = _inside_points(mesh, 4000, seed=12)
        lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
        rng = np.random.default_rng(13)
        box = rng.uniform(lo, np.minimum(hi, 1.5), size=(2000, 3))
        _assert_agrees_with_oracle(jloc, mesh, np.vstack([pts, box]))

    def test_vertices_and_shared_faces_tie_rule(self, jloc, junction_flat6):
        # a vertex or face centroid lies in several tets; the walk may
        # take another one than the oracle, with the same P1 value
        mesh = junction_flat6.mesh
        rng = np.random.default_rng(14)
        faces = _interior_face_centroids(mesh)
        pick = rng.choice(len(faces), min(len(faces), 2000), replace=False)
        verts = rng.choice(mesh.num_nodes, min(mesh.num_nodes, 1000),
                           replace=False)
        pts = np.vstack([mesh.nodes[verts], faces[pick]])
        tet = _assert_agrees_with_oracle(jloc, mesh, pts)
        assert np.all(tet >= 0)

    def test_points_found_only_by_wider_rounds(self, jloc, junction_flat6):
        mesh = junction_flat6.mesh
        pts, tet = _inside_points_with_tets(mesh, 40000, seed=15)
        late = {k: _beyond_nearest_nodes(mesh, pts, tet, k) for k in (1, 8)}
        # the oracle's k = 8 (k = 32) round found these; the walk finds
        # their own tet
        assert late[1].sum() > 20 and late[8].sum() > 5
        got = _assert_agrees_with_oracle(jloc, mesh, pts[late[1]])
        assert np.array_equal(got, tet[late[1]])

    def test_mesh_without_a_layout_is_refused(self, tube):
        # only the box layout a builder records seeds the walk: a mesh
        # made from nodes and tets has none, nor has a standalone tube
        bare = TetMesh(nodes=tube.nodes, tets=tube.tets, boundary={},
                       stations={}, disk_tris=tube.disk_tris)
        for mesh in (bare, tube):
            with pytest.raises(ValueError, match="no box layout"):
                PointLocator(mesh)

    def test_points_just_outside_the_wall_fall_back(self, jloc,
                                                    junction_flat6):
        mesh = junction_flat6.mesh
        p = mesh.nodes[mesh.boundary["lateral_0"]]
        cent = p.mean(axis=1)
        normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        normal *= np.sign(np.einsum("fd,fd->f", normal,
                                    cent * [0.0, 1.0, 1.0]))[:, None]
        pts = cent + 1e-7 * normal
        tet = _assert_agrees_with_oracle(jloc, mesh, pts)
        assert np.all(tet >= 0)

    def test_far_outside_points_are_not_found(self, jloc, junction_flat6):
        far = np.array([[2.5, 2.5, 0.0], [0.5, 3.0, 0.0], [-4.0, -4, -4],
                        [50.0, 50, 50]])
        tet = _assert_agrees_with_oracle(jloc, junction_flat6.mesh, far)
        assert np.all(tet == -1)

    def test_empty_batch(self, jloc):
        tet, bary = jloc.locate(np.empty((0, 3)))
        assert tet.shape == (0,) and bary.shape == (0, 4)

    def test_gradients_at_located_tets(self, jloc, junction_flat6):
        mesh = junction_flat6.mesh
        rng = np.random.default_rng(18)
        u = rng.standard_normal(mesh.num_nodes)
        pts = _inside_points(mesh, 500, seed=19)
        _, grads = jloc.evaluate(u, pts)
        tet, _ = jloc.locate(pts)
        assert np.array_equal(grads,
                              junction_flat6.ctx.field_gradients(u)[tet])

    def test_context_freed_without_cycle_collection(self, tube):
        c = FemContext(tube)
        ref = weakref.ref(c)
        gc.disable()
        try:
            del c
            assert ref() is None
        finally:
            gc.enable()

    def test_junction_freed_without_cycle_collection(self, flat_spec):
        # the junction holds its context and its locator, and neither
        # refers back to it
        tj = TruncatedJunction(flat_spec, R=flat_spec.ell + 3.5, refine=0.7)
        refs = [weakref.ref(o) for o in (tj, tj.ctx, tj.locator)]
        gc.disable()
        try:
            del tj
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestWalk:
    """Points the node rounds missed are found by the walk, and a point
    in the gap beside a curved wall gets its tet's linear field."""

    @staticmethod
    def _gap_points(mesh, edge, n, depth, seed, axial=None):
        """Points at mid-facet angles, ``depth`` sagittas outside the
        facets of tube ``edge`` (depth <= 1 stays inside the circle),
        spread over the tube or over the ``axial`` range."""
        rng = np.random.default_rng(seed)
        segments = mesh.meta.get("segments", 48)
        st0, st1 = mesh.stations[edge][1], mesh.stations[edge][-2]
        x = rng.uniform(*(axial or (st0.x, st1.x)), n)
        rim = mesh.nodes[st0.nodes]
        axes = [a for a in range(3) if a != edge]
        radius = np.hypot(*rim[:, axes].T).max()
        th = 2.0 * np.pi * (rng.integers(0, segments, n) + 0.5) / segments
        r = radius * np.cos(np.pi / segments) + depth * mesh.meta["sagitta"]
        pts = np.empty((n, 3))
        pts[:, edge] = x
        pts[:, axes[0]] = r * np.cos(th)
        pts[:, axes[1]] = r * np.sin(th)
        return pts

    def test_wall_gap_gets_the_linear_field(self, jloc, junction_flat6):
        mesh = junction_flat6.mesh
        pts = self._gap_points(mesh, 0, 200, depth=0.9, seed=21)
        tet, _ = jloc.locate(pts)
        assert np.all(tet >= 0)
        _assert_in_tet_or_gap(mesh, pts, tet)
        vals, grads = jloc.evaluate(linear_field(mesh.nodes), pts)
        assert np.abs(vals - linear_field(pts)).max() < 1e-12
        assert np.abs(grads - LINEAR_GRAD).max() < 1e-12

    def test_junction_wall_gap_answers(self, jloc, junction_flat6):
        # beside a tube mouth the box wall meets the tube wall; a gap
        # point there is seeded in its own tube prism
        mesh = junction_flat6.mesh
        ell = mesh.stations[0][0].x
        pts = np.vstack([self._gap_points(mesh, e, 100, 0.99, 22 + e)
                         for e in range(3)]
                        + [self._gap_points(mesh, e, 300, 0.9, 32 + e,
                                            axial=(ell, ell + 0.01))
                           for e in range(3)])
        _assert_in_tet_or_gap(mesh, pts, jloc.locate(pts)[0])
        vals, _ = jloc.evaluate(linear_field(mesh.nodes), pts)
        assert np.abs(vals - linear_field(pts)).max() < 1e-12

    def test_beyond_the_sagitta_still_raises(self, jloc, junction_flat6):
        mesh = junction_flat6.mesh
        u = np.zeros(mesh.num_nodes)
        for p in self._gap_points(mesh, 0, 20, depth=1.5, seed=23):
            with pytest.raises(ValueError, match="outside"):
                jloc.evaluate(u, p[None])

    def test_beyond_an_end_face_still_raises(self, jloc, junction_flat6):
        # end disks are flat: a point past one is outside the domain
        mesh, end = junction_flat6.mesh, junction_flat6.R
        s = mesh.meta["sagitta"]
        pts = np.array([[end + 0.5 * s, 0.1, 0.05], [0.0, 0.2, end + 0.5 * s]])
        for p in pts:
            with pytest.raises(ValueError, match="outside"):
                jloc.evaluate(np.zeros(mesh.num_nodes), p[None])

    def test_rounds_misses_inside_tets_are_walked_to(self, jloc,
                                                     junction_flat6):
        mesh = junction_flat6.mesh
        pts, tet = _inside_points_with_tets(mesh, 40000, seed=15)
        beyond = _beyond_nearest_nodes(mesh, pts, tet, 32)
        missed, own = pts[beyond], tet[beyond]
        assert len(missed) > 5
        assert np.all(_oracle(mesh).locate(missed)[0] == -1)
        got, bary = jloc.locate(missed)
        assert np.array_equal(got, own)
        x = mesh.nodes[mesh.tets[got]]
        assert np.abs(np.einsum("pa,pad->pd", bary, x) - missed).max() < 1e-12
        vals, _ = jloc.evaluate(linear_field(mesh.nodes), missed)
        assert np.abs(vals - linear_field(missed)).max() < 1e-12

    def test_answers_do_not_depend_on_the_batch(self, jloc, junction_flat6):
        mesh = junction_flat6.mesh
        pts = np.vstack([_inside_points(mesh, 3000, seed=24),
                         self._gap_points(mesh, 1, 300, 0.5, seed=25)])
        u = np.sin(mesh.nodes).sum(axis=1)
        whole = jloc.evaluate(u, pts)
        for size in (1, 7, 64):
            parts = [jloc.evaluate(u, pts[i:i + size])
                     for i in range(0, len(pts), size)]
            assert np.array_equal(np.concatenate([p[0] for p in parts]),
                                  whole[0])
            assert np.array_equal(np.concatenate([p[1] for p in parts]),
                                  whole[1])

    def test_points_inside_tets_are_located_within_tol(self, jloc,
                                                       junction_flat6):
        mesh = junction_flat6.mesh
        pts = _inside_points(mesh, 200_000, seed=26)
        tet, _ = jloc.locate(pts)
        assert np.all(tet >= 0)
        assert _linear_coords(mesh, tet, pts).min() >= -1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_point_inside_a_tet_is_answered(self, jloc,
                                                  junction_flat6, data):
        mesh = junction_flat6.mesh
        tets = data.draw(st.lists(
            st.integers(0, mesh.num_tets - 1), min_size=1, max_size=32))
        lam = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
            min_size=len(tets), max_size=len(tets)))) + 1e-12
        lam /= lam.sum(axis=1, keepdims=True)
        pts = np.einsum("pa,pad->pd", lam, mesh.nodes[mesh.tets[tets]])
        vals, _ = jloc.evaluate(linear_field(mesh.nodes), pts)
        # a point on a shared face or edge may take a neighbour whose
        # barycentrics are down to -1e-9 and are clipped
        assert np.abs(vals - linear_field(pts)).max() < 1e-8


def _assert_seeds_in_prisms(mesh, pts, own):
    """The layout seed of each point is the middle tet of the prism of
    its tet ``own``: three consecutive tets that span six nodes, the
    seed t with t % 3 == 1; or a cone tet (the one with the centre
    node), a prism alone."""
    seed = LayoutSeed(mesh.meta)(pts)
    tets = mesh.tets.astype(np.int64)
    centre = np.flatnonzero(~mesh.nodes.any(axis=1))
    cone = np.isin(tets[seed], centre).any(axis=1)
    assert np.array_equal(own[cone], seed[cone])
    mid = seed[~cone]
    assert np.all(mid % 3 == 1)
    prism = np.sort(tets[mid[:, None] + [-1, 0, 1]].reshape(len(mid), -1))
    assert np.all((np.diff(prism, axis=1) > 0).sum(axis=1) == 5)
    assert np.all(np.abs(own[~cone] - mid) <= 1)


class TestLayoutSeed:
    """The walk from the layout seed against the walk from the nearest
    centroid with the wall-tree restart that it replaced
    (``KdWalkOracle``), on 200,000 points inside tets of the junction
    mesh and on wall-gap points, also at the tube mouths, where the walk
    from a centroid could leave through the box wall.

    A wall-gap point can lie beyond the coplanar wall facets of two
    neighbouring prisms and within the other faces of a tet of each, so
    either walk may keep either tet, whose linear fields differ there;
    the walk from the layout seed keeps a tet of the point's own prism.
    """

    @pytest.fixture(scope="class", params=["junction"])
    def case(self, junction_flat6):
        mesh = junction_flat6.mesh
        ell = mesh.stations[0][0].x
        gap = np.vstack([TestWalk._gap_points(mesh, e, 100, 0.9, 40 + e)
                         for e in range(3)]
                        + [TestWalk._gap_points(mesh, e, 100, 0.9, 48 + e,
                                                axial=(ell, ell + 0.01))
                           for e in range(3)])
        pts, own = _inside_points_with_tets(mesh, 200_000, seed=44)
        return mesh, junction_flat6.locator, pts, own, gap

    def test_tets_and_values_match_the_kd_walk(self, case):
        mesh, loc, pts, _, gap = case
        tet, bary = loc.locate(np.vstack([pts, gap]))
        ref_tet, ref_bary = KdWalkOracle(mesh).locate(np.vstack([pts, gap]))
        assert np.all(tet >= 0) and np.all(ref_tet >= 0)
        _assert_in_tet_or_gap(mesh, gap, tet[len(pts):])
        tet, bary = tet[:len(pts)], bary[:len(pts)]
        ref_tet, ref_bary = ref_tet[:len(pts)], ref_bary[:len(pts)]
        unique = _linear_coords(mesh, ref_tet, pts).min(axis=1) > 1e-9
        assert unique.mean() > 0.99
        assert np.array_equal(tet[unique], ref_tet[unique])
        u = np.random.default_rng(45).standard_normal(mesh.num_nodes)
        nodes = mesh.tets.astype(np.int64)
        val = np.einsum("pa,pa->p", bary, u[nodes[tet]])
        ref = np.einsum("pa,pa->p", ref_bary, u[nodes[ref_tet]])
        assert np.abs(val - ref).max() <= 1e-12

    def test_compact_table_is_the_whole_table(self, case):
        """The locator's rows 1-3 with vertex 0 gathered through the tets,
        and row 0 recomputed where it is read, give bitwise the tets,
        barycentrics, values and gradients of the whole-table oracle: on
        points inside tets, in the wall gaps, at nodes and beyond the
        mesh, where the walk reads row 0 for the sagitta rule."""
        mesh, loc, pts, _, gap = case
        rng = np.random.default_rng(49)
        verts = mesh.nodes[rng.choice(mesh.num_nodes, 500, replace=False)]
        far = TestWalk._gap_points(mesh, 0, 50, 1.5, 50)
        every = np.vstack([pts, gap, verts, far, [[20.0, 0.0, 0.0],
                                                  [-4.0, -4.0, -4.0]]])
        oracle = WholeTableLocator(mesh)
        got, want = loc.locate(every), oracle.locate(every)
        assert 0 < (got[0] >= 0).sum() < len(every)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        found = every[got[0] >= 0]
        u = rng.standard_normal((mesh.num_nodes, 3))
        for args in ((u[:, 0].copy(),), (u, np.array([0.3, -1.2, 0.7]))):
            for g, w in zip(loc.evaluate(args[0], found, *args[1:]),
                            oracle.evaluate(args[0], found, *args[1:])):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_every_seed_lies_in_its_points_prism(self, case):
        # a gap point's prism is that of the tet the walk keeps
        mesh, loc, pts, own, gap = case
        inside = _linear_coords(mesh, own, pts).min(axis=1) > 1e-9
        _assert_seeds_in_prisms(
            mesh, np.vstack([pts[inside], gap]),
            np.concatenate([own[inside], loc.locate(gap)[0]]))

    def test_clipping_to_the_face_leaves_the_seeds_as_they_were(self, case):
        # with an unbounded reach the seed is that of the unclipped key
        mesh, _, pts, _, gap = case
        seed = LayoutSeed(mesh.meta)
        pts = np.vstack([pts, gap])
        got = seed(pts)
        seed.reach = np.inf
        assert np.array_equal(got, seed(pts))

    def test_far_points_are_refused_within_a_few_steps(self, junction_flat6,
                                                       monkeypatch):
        """A point far past a tube end, or far beyond a box face, is
        seeded on its own face (a coordinate past half the key span of
        a face once keyed the next face's cells) and its walk leaves
        the mesh at once."""
        mesh = junction_flat6.mesh
        pts = np.array([[20.0, 0.0, 0.0], [1e6, 3.0, 2.0], [-1e6, 0.0, 0.0],
                        [50.0, 50.0, 50.0], [0.0, -30.0, 1.0]])
        seed = LayoutSeed(mesh.meta)(pts)
        centroid = mesh.nodes[mesh.tets[seed]].mean(axis=1)
        face = np.argmax(np.hstack([pts, -pts]), axis=1)
        assert np.array_equal(
            np.argmax(np.hstack([centroid, -centroid]), axis=1), face)
        loc = junction_flat6.locator
        steps = []
        adjacent = loc._neighbours

        class Counted:
            def take(self, *args, **kwargs):
                steps.append(1)
                return adjacent.take(*args, **kwargs)

        monkeypatch.setattr(loc, "_neighbours", Counted())
        for p in pts:
            steps.clear()
            assert loc.locate(p[None])[0][0] == -1
            assert len(steps) <= 3, p

    def test_built_meshes_build_no_centroid_tree(self, junction_flat6,
                                                 rich_spec):
        thin = build_thin_mesh(rich_spec, axial=0.05, refine=0.8)
        for mesh, loc in ((junction_flat6.mesh, junction_flat6.locator),
                          (thin, PointLocator(thin))):
            loc.locate(_inside_points(mesh, 100, seed=46))
            assert not any(isinstance(v, cKDTree) for v in vars(loc).values())
        assert "centroids" not in junction_flat6.ctx.__dict__
        # a thin mesh's radius varies along a tube: its seeds too are exact
        pts, own = _inside_points_with_tets(thin, 20_000, seed=47)
        inside = _linear_coords(thin, own, pts).min(axis=1) > 1e-9
        _assert_seeds_in_prisms(thin, pts[inside], own[inside])


def test_norms_of_known_field(ctx, tube):
    # u = x has squared L2 norm A/3 and squared seminorm A on this tube
    u = tube.nodes[:, 0]
    area = tube.boundary_area("end_a")
    l2, semi, h1 = norm_triple(*norms(ctx, u))
    assert l2 ** 2 == pytest.approx(area / 3.0, rel=1e-12)
    assert semi ** 2 == pytest.approx(area, rel=1e-12)
    assert h1 ** 2 == pytest.approx(l2 ** 2 + semi ** 2, rel=1e-12)


def test_per_tet_norms_sum_to_the_masked_triples(monkeypatch, ctx, tube):
    # the per-tet numbers of one pass, in blocks of two or three tets,
    # summed over a tet subset in tet order, are bitwise the triple of
    # the oracle's pass masked to that subset
    monkeypatch.setattr(mesh3d, "BLOCK_POINTS", 7)
    u = np.sin(tube.nodes[:, 0])
    l2, h1 = norms(ctx, u, _wavy_reference)
    assert l2.shape == h1.shape == (tube.num_tets,)
    assert norm_triple(l2, h1) == norms_reference(ctx, u, _wavy_reference)
    for keep in (ctx.centroids[:, 0] < 0.6, ctx.centroids[:, 1] > 0.1):
        assert 0 < keep.sum() < tube.num_tets
        assert norm_triple(l2[keep], h1[keep]) == norms_reference(
            ctx, u, _wavy_reference, keep)
