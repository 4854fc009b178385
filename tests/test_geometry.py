"""Closed-form tet geometry and matrix-product quadrature against the
former det/inv/einsum kernels kept in ``geometry_oracle``, and the
gradients that each pass computes block by block against the whole-mesh
array of ``geometry_oracle.tet_geometry``."""

import itertools

import numpy as np
import pytest
from scipy import sparse

import thinjunction.mesh3d as mesh3d
import thinjunction.fem3d as fem3d
from boundary_faces_oracle import coded_adjacency
from geometry_oracle import (
    coo_stiffness,
    cross_geometry_reference,
    edge_csr_reference,
    geometry_reference,
    orient_reference,
    quad_points_reference,
    stiffness_reference,
    tet_geometry,
    unoriented_split_prisms,
)
from thinjunction import (
    build_junction_mesh,
    build_thin_mesh,
    build_tube_mesh,
    with_epsilon,
)
from thinjunction.fem3d import FemContext
from thinjunction.mesh3d import (
    TetMesh,
    split_prisms,
    tet_blocks,
    tet_volumes,
)

REL = 1e-13


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.fixture(scope="module", params=["thin", "junction", "tube"])
def case(request, rich_spec, exp_rich):
    """A context and a function that builds its mesh again."""
    if request.param == "thin":
        def build():
            return build_thin_mesh(with_epsilon(rich_spec, 0.2), axial=0.05,
                                   refine=0.5)
        return FemContext(build()), build
    if request.param == "junction":
        def build():
            return build_junction_mesh(rich_spec, R=rich_spec.ell + 4.0,
                                       refine=0.7)
        return exp_rich.junction.ctx, build

    def build():
        return build_tube_mesh(radius=0.5, length=1.0, axial=0.125,
                               radius_fn=lambda x: 0.5 + 0.2 * x * x)
    return FemContext(build()), build


def test_volumes_and_gradients_match_det_and_inv(case):
    ctx, _ = case
    volumes, grads = geometry_reference(ctx.mesh)
    assert rel_err(ctx.volumes, volumes) <= REL
    assert rel_err(ctx.mesh.volumes, volumes) <= REL
    assert rel_err(tet_geometry(ctx.mesh.nodes, ctx.mesh.tets)[1],
                   grads) <= REL


def test_geometry_matches_the_cross_kernel_bitwise(case):
    """The volumes-only pass that measures a mesh and the whole-mesh
    geometry are both bitwise the former closed-form kernel."""
    ctx, _ = case
    mesh = ctx.mesh
    volumes, grads = cross_geometry_reference(mesh.nodes, mesh.tets)
    assert same_bits(ctx.volumes, volumes)
    assert same_bits(tet_volumes(mesh.nodes, mesh.tets), volumes)
    got = tet_geometry(mesh.nodes, mesh.tets)
    assert same_bits(got[0], volumes)
    assert same_bits(got[1], grads)
    assert ctx.volumes is mesh.volumes


def _recorded_blocks(monkeypatch):
    """The gradient blocks that ``fem3d`` computes, each as its
    (tets, 4, 3) rows, in the order of the calls."""
    blocks = []

    def recorded(nodes, tets, out):
        det = mesh3d.tet_gradients(nodes, tets, out)
        blocks.append(out.transpose(2, 0, 1).copy())
        return det

    monkeypatch.setattr(fem3d, "tet_gradients", recorded)
    return blocks


def test_block_gradients_are_the_whole_mesh_array(case, monkeypatch):
    """The gradients that the stiffness pass, ``field_gradients`` and the
    locator compute block by block are bitwise the rows of
    ``tet_geometry``'s whole-mesh array, as are the locator's held rows
    1-3 and its row 0 recomputed from them (a tube has no locator);
    ``field_gradients`` is bitwise the einsum of that array with a field
    that is zero at some nodes, down to the sign of its zeros."""
    ctx, _ = case
    mesh = ctx.mesh
    whole = tet_geometry(mesh.nodes, mesh.tets)[1]
    blocks = _recorded_blocks(monkeypatch)
    assert same_csr(FemContext(mesh).matrix, ctx.matrix)
    assert len(blocks) == len(tet_blocks(mesh.num_tets))
    assert same_bits(np.concatenate(blocks), whole)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(mesh.num_nodes)
    u[rng.random(mesh.num_nodes) < 0.3] = 0.0
    live = np.flatnonzero(rng.random(mesh.num_tets) < 0.4)
    for sel in (slice(None), live):
        blocks.clear()
        got = ctx.field_gradients(u, sel)
        assert same_bits(np.concatenate(blocks), whole[sel])
        want = np.einsum("tad,ta->td", whole[sel], u[mesh.tets[sel]])
        assert same_bits(got, want)
    if "shells" not in mesh.meta:
        with pytest.raises(ValueError, match="no box layout"):
            fem3d.PointLocator(mesh)
        return
    blocks.clear()
    loc = fem3d.PointLocator(mesh)
    assert same_bits(np.concatenate(blocks), whole)
    assert same_bits(loc._grads, whole[:, 1:])
    assert same_bits(loc.gradients(live), whole[live])
    assert same_bits(loc.gradients(np.arange(mesh.num_tets)), whole)


def test_stiffness_matches_the_einsum(case):
    ctx, _ = case
    want = stiffness_reference(ctx.mesh, *geometry_reference(ctx.mesh))
    assert np.array_equal(ctx.matrix.indptr, want.indptr)
    assert np.array_equal(ctx.matrix.indices, want.indices)
    assert rel_err(ctx.matrix.data, want.data) <= REL


def test_stiffness_is_the_coo_assembly_and_symmetric(case):
    """The edge-pattern assembly has the CSR pattern of the former COO
    triplets and their sums to 1e-15 of the largest entry, and it equals
    its transpose bit for bit, which the COO sums did not."""
    ctx, _ = case
    a, want = ctx.matrix, coo_stiffness(ctx)
    assert np.array_equal(a.indptr, want.indptr)
    assert np.array_equal(a.indices, want.indices)
    assert np.max(np.abs(a.data - want.data)) <= 1e-15 * np.max(
        np.abs(want.data))
    at = a.T.tocsr()
    at.sort_indices()
    assert np.array_equal(at.indptr, a.indptr)
    assert np.array_equal(at.indices, a.indices)
    assert same_bits(at.data, a.data)


def same_csr(got, want):
    return got.shape == want.shape and all(
        getattr(got, k).dtype == getattr(want, k).dtype
        and same_bits(getattr(got, k), getattr(want, k))
        for k in ("data", "indices", "indptr"))


def test_stiffness_is_the_argsort_placement_bitwise(case, monkeypatch):
    """The entries placed row by row without a sort are bitwise the
    former argsort over every nonzero: values, columns and row
    pointers, with their dtypes."""
    ctx, _ = case
    monkeypatch.setattr(fem3d, "edge_csr", edge_csr_reference)
    assert same_csr(ctx.matrix, FemContext(ctx.mesh).matrix)


def test_edge_placement_with_empty_rows():
    """Nodes with no edge above, none below or none at all."""
    rng = np.random.default_rng(4)
    n = 40
    pairs = np.sort(rng.integers(0, n - 3, size=(150, 2)), axis=1)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    edges = np.unique(pairs[:, 0] * n + pairs[:, 1])
    edges = np.stack(np.divmod(edges, n), axis=1)
    off, diag = rng.standard_normal(len(edges)), rng.standard_normal(n)
    for e, o in ((edges, off), (edges[:0], off[:0])):
        assert same_csr(fem3d.edge_csr(e, o, diag),
                        edge_csr_reference(e, o, diag))


def test_submatrix_is_the_two_fancy_index_passes(case):
    """The one-pass restriction against scipy's row pass and then column
    pass, bitwise: the Dirichlet split, the junction's pinned node 0 and
    random masks, also one that drops every node."""
    ctx, _ = case
    a = ctx.matrix
    n = a.shape[0]
    rng = np.random.default_rng(5)
    for keep in (rng.random(n) < 0.8, rng.random(n) < 0.3,
                 np.arange(n) > 0, np.zeros(n, dtype=bool)):
        assert same_csr(fem3d.submatrix(a, keep), a[keep][:, keep])
    assert same_csr(fem3d.submatrix(a, np.arange(n) > 0), a[1:, 1:])


def test_submatrix_with_empty_rows():
    rng = np.random.default_rng(6)
    # rows with no entry among the others and at the end
    a = sparse.random(60, 60, density=0.04, format="csr", random_state=6)
    a = sparse.vstack([a[:55], sparse.csr_matrix((5, 60))], format="csr")
    assert np.sum(np.diff(a.indptr[:56]) == 0) >= 4
    for _ in range(5):
        keep = rng.random(60) < 0.6
        assert same_csr(fem3d.submatrix(a, keep), a[keep][:, keep])


@pytest.mark.parametrize("degree", [2, 5])
def test_quadrature_points_match_the_einsum(case, degree):
    ctx, _ = case
    pts, _, bary = ctx.quad_points(degree, slice(None))
    assert rel_err(pts, quad_points_reference(ctx.mesh, bary)) <= REL


def test_orientation_matches_the_det_sign(case, monkeypatch):
    """The tets built oriented, and the boundary and adjacency derived
    from them, are those of the former construction: the unoriented
    split and cone, then, before the boundary faces, a swap of the first
    two vertices of every tet whose ``det`` is negative."""
    ctx, build = case
    flipped = []
    boundary_faces = mesh3d._boundary_faces

    def by_det(tets, num_nodes, surface):
        oriented = orient_reference(ctx.mesh.nodes, tets)
        flipped.append(int((oriented != tets).any(axis=1).sum()))
        tets[:] = oriented
        return boundary_faces(tets, num_nodes, surface)

    monkeypatch.setattr(mesh3d, "split_prisms", lambda bottom, top, _:
                        unoriented_split_prisms(bottom, top))
    monkeypatch.setattr(mesh3d, "_prism_signs",
                        lambda tris, *_: np.ones(len(tris), dtype=int))
    monkeypatch.setattr(mesh3d, "_boundary_faces", by_det)
    want = build()
    assert len(flipped) == 1 and flipped[0] > want.num_tets // 4
    mesh = ctx.mesh
    assert np.array_equal(mesh.nodes, want.nodes)
    assert np.array_equal(mesh.tets, want.tets)
    assert np.array_equal(coded_adjacency(mesh), coded_adjacency(want))
    assert mesh.boundary.keys() == want.boundary.keys()
    for tag in want.boundary:
        assert np.array_equal(mesh.boundary[tag], want.boundary[tag])


def test_split_prisms_orients_either_way_up():
    """Every tet is positive wherever the smallest of the six ids lies,
    also on top, which the builders never give (their bottom ids come
    first), and for a prism given upside down with its orient -1."""
    ids = np.array(list(itertools.permutations(range(6))))
    ids += 6 * np.arange(len(ids))[:, None]
    corners = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                        [0.1, 0.2, 1], [1.1, 0.2, 1], [0.1, 1.2, 1]])
    nodes = np.empty((ids.size, 3))
    nodes[ids] = corners
    for tets in (split_prisms(ids[:, :3], ids[:, 3:], 1),
                 split_prisms(ids[:, 3:], ids[:, :3], -1)):
        assert np.all(tet_geometry(nodes, tets)[0] > 0)


def test_flipped_tet_is_rejected():
    tube = build_tube_mesh(radius=0.5, length=1.0, axial=0.25)
    tets = tube.tets.copy()
    tets[5, [0, 1]] = tets[5, [1, 0]]
    flipped = TetMesh(nodes=tube.nodes, tets=tets, boundary=tube.boundary,
                      stations=tube.stations, disk_tris=tube.disk_tris)
    assert flipped.volumes[5] < 0.0
    with pytest.raises(ValueError, match="non-positive"):
        FemContext(flipped)


def test_one_volumes_pass_per_thin_mesh(rich_spec, monkeypatch):
    """A thin mesh is measured once, by one volumes-only pass, and its
    FEM context measures no volume: its stiffness computes the gradients
    block by block, one ``tet_gradients`` call per block.  Neither the
    mesh nor the context keeps a (tets, 4, 3) array."""
    calls = []

    def counted(name, fn):
        def inner(nodes, tets, *out):
            calls.append((name, tets.shape[0]))
            return fn(nodes, tets, *out)
        return inner

    for name in ("tet_volumes", "tet_gradients"):
        wrapped = counted(name, getattr(mesh3d, name))
        for module in (mesh3d, fem3d):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    mesh = build_thin_mesh(with_epsilon(rich_spec, 0.2), axial=0.05,
                           refine=0.5)
    n = mesh.num_tets
    assert calls == [("tet_volumes", n)]
    calls.clear()
    ctx = FemContext(mesh)
    assert calls == [("tet_gradients", b.stop - b.start)
                     for b in tet_blocks(n)]
    assert ctx.volumes is mesh.volumes
    for obj in (mesh, ctx):
        assert not hasattr(obj, "grads")
        held = [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
        assert held and not any(v.ndim == 3 and len(v) == n for v in held)
