"""Former per-tet kernels of the mesh and FEM layers.

Volumes by batched LAPACK ``det``, barycentric gradients by ``inv``, the
local stiffness by a three-operand ``einsum``, the stiffness matrix from
COO triplets, the edge-pattern entries placed by an argsort, quadrature
points by ``einsum``, the prism split before it oriented its tets,
orientation by the sign of ``det``, one cross-section mean per station,
and the closed-form geometry by ``np.cross`` over all cofactor rows at
once.  Kept as the oracles that
the closed-form geometry, the matrix-product contractions and the
edge-pattern stiffness must match to rounding, and the orientation at
build time, the stacked station means, the component-wise closed-form
kernel and the sort-free placement of the entries bit for bit.
"""

import numpy as np
from scipy import sparse

from thinjunction.mesh3d import tet_geometry


def geometry_reference(mesh):
    """(volumes, gradients) of every tet from ``det`` and ``inv``."""
    x = mesh.nodes[mesh.tets]
    edges = x[:, 1:] - x[:, :1]
    volumes = np.linalg.det(edges) / 6.0
    grads = np.empty((mesh.num_tets, 4, 3))
    grads[:, 1:, :] = np.swapaxes(np.linalg.inv(edges), 1, 2)
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return volumes, grads


def cross_geometry_reference(nodes, tets):
    """(volumes, gradients) by the former closed-form kernel: the three
    cofactor rows from one ``np.cross`` of the permuted edge vectors."""
    x = nodes.T[:, tets.T]  # coordinate, vertex, tet
    e = x[:, 1:] - x[:, :1]
    cof = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]], axis=0)
    det = np.sum(e[:, 0] * cof[:, 0], axis=0)
    grads = np.empty((tets.shape[0], 4, 3))
    grads[:, 1:] = (cof / det).T
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return det / 6.0, grads


def stiffness_reference(mesh, volumes, grads):
    local = np.einsum("tad,tbd,t->tab", grads, grads, volumes)
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    a = sparse.coo_matrix(
        (local.ravel(), (rows.astype(np.int64), cols.astype(np.int64))),
        shape=(mesh.num_nodes, mesh.num_nodes))
    return a.tocsr()


def coo_stiffness(ctx):
    """The former assembly: the 16 local entries of every tet as COO
    triplets, summed by ``tocsr``, from the whole-mesh gradients."""
    m = ctx.mesh
    grads = tet_geometry(m.nodes, m.tets)[1]
    local = grads @ grads.transpose(0, 2, 1)
    local *= ctx.volumes[:, None, None]
    rows = np.repeat(m.tets, 4, axis=1).ravel()
    cols = np.tile(m.tets, (1, 4)).ravel()
    a = sparse.coo_matrix(
        (local.ravel(), (rows.astype(np.int64), cols.astype(np.int64))),
        shape=(m.num_nodes, m.num_nodes))
    return a.tocsr()


def edge_csr_reference(edges, off, diag):
    """The former placement of the edge-pattern entries: (a, b) and
    (b, a) per edge and (i, i) per node, put in row-major order by one
    argsort over every nonzero."""
    n = diag.size
    nodes = np.arange(n)
    rows = np.concatenate([edges[:, 0], edges[:, 1], nodes])
    cols = np.concatenate([edges[:, 1], edges[:, 0], nodes])
    order = np.argsort(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = np.concatenate([off, off, diag])[order]
    return sparse.csr_matrix(
        (data, cols[order].astype(np.int32), indptr), shape=(n, n))


def quad_points_reference(mesh, bary):
    return np.einsum("qa,tad->tqd", bary, mesh.nodes[mesh.tets])


_PRISM_PERMS = np.array([
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 4, 5, 0, 1, 2],
    [4, 5, 3, 1, 2, 0],
    [5, 3, 4, 2, 0, 1],
])
_TET_PATTERN_A = np.array([[0, 1, 2, 5], [0, 1, 5, 4], [0, 4, 5, 3]])
_TET_PATTERN_B = np.array([[0, 1, 2, 4], [0, 4, 2, 5], [0, 4, 5, 3]])


def unoriented_split_prisms(bottom, top):
    """Three tets per prism (b0, b1, b2, t0, t1, t2) by the min-vertex
    rule, of either sign: the split that ``orient_reference`` followed."""
    prisms = np.concatenate([bottom, top], axis=1).astype(np.int64)
    order = _PRISM_PERMS[np.argmin(prisms, axis=1)]
    v = np.take_along_axis(prisms, order, axis=1)
    use_a = np.minimum(v[:, 1], v[:, 5]) < np.minimum(v[:, 2], v[:, 4])
    tets = np.where(use_a[:, None, None],
                    v[:, _TET_PATTERN_A], v[:, _TET_PATTERN_B])
    return tets.reshape(-1, 4)


def orient_reference(nodes, tets):
    x = nodes[tets]
    flip = np.linalg.det(x[:, 1:] - x[:, :1]) < 0
    if np.any(flip):
        tets = tets.copy()
        tets[flip, 0], tets[flip, 1] = tets[flip, 1], tets[flip, 0]
    return tets


def station_average_reference(mesh, u, station):
    """Cross-section mean of a vertex field over one tube station."""
    pts = mesh.nodes[station.nodes]
    tri = station.nodes[mesh.disk_tris]
    p = pts[mesh.disk_tris]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    areas = 0.5 * np.linalg.norm(np.cross(v1, v2), axis=1)
    means = u[tri.astype(np.int64)].mean(axis=1)
    return float((areas * means).sum() / areas.sum())
