"""Piecewise-linear finite elements on the tetrahedral meshes.

Vectorized assembly, a conjugate-gradient solver for symmetric
positive definite systems with a two-level preconditioner (Jacobi plus
one coarse unknown per tube station and one per bulge shell, cube face
and face quadrant), quadrature-based per-tet norms, and cross-section
utilities (averages, point evaluation).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy import sparse

from .mesh3d import _EDGES, BLOCK_POINTS, END, LayoutSeed, TetMesh, \
    face_adjacency, tet_blocks, tet_edges, tet_gradients

_S5 = math.sqrt(5.0)
_TET_RULES = {
    2: (np.array([
        [(5 + 3 * _S5) / 20 if a == b else (5 - _S5) / 20
         for b in range(4)] for a in range(4)]),
        np.full(4, 0.25)),
}


def _tet_rule_5():
    rows, wts = [], []
    for a, w in ((0.0927352503108912, 0.0734930431163619),
                 (0.3108859192633005, 0.1126879257180158)):
        for k in range(4):
            row = [a] * 4
            row[k] = 1.0 - 3.0 * a
            rows.append(row)
            wts.append(w)
    a, w = 0.0455037041256497, 0.0425460207770814
    for i in range(3):
        for j in range(i + 1, 4):
            row = [0.5 - a] * 4
            row[i] = row[j] = a
            rows.append(row)
            wts.append(w)
    return np.array(rows), np.array(wts)


_TET_RULES[5] = _tet_rule_5()

_TRI_RULES = {
    2: (np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6],
                  [1 / 6, 1 / 6, 2 / 3]]), np.full(3, 1.0 / 3.0)),
}


def _tri_rule_4():
    rows, wts = [], []
    for a, w in ((0.445948490915965, 0.223381589678011),
                 (0.091576213509771, 0.109951743655322)):
        for k in range(3):
            row = [a] * 3
            row[k] = 1.0 - 2.0 * a
            rows.append(row)
            wts.append(w)
    return np.array(rows), np.array(wts)


_TRI_RULES[4] = _tri_rule_4()

# Most face steps of PointLocator's walk; one that has neither found
# its tet nor left the mesh by then is not located.
WALK_STEPS = 200

# True relative residual ||b - A u|| / ||b|| every CG solve meets.  At
# this stop, changing only the rounding path moves study errors by up to
# 3.1e-10 relative and slopes by up to 1.4e-9 (the stiffness summation
# order), or 6.5e-11 and 4.3e-10 (the bulge aggregates of coarse_labels):
# far below the discretisation errors a study measures.
CG_RTOL = 1e-10

# Restarts of CG from its own iterate when its recursive residual met
# CG_RTOL but the true residual did not.
CG_RESTARTS = 3


class FemContext:
    """Geometry (the mesh's tet volumes, and centroids) and stiffness
    matrix of one mesh, with no walk state (``PointLocator``).  Every pass
    over the tets runs in blocks of ``mesh3d.BLOCK_POINTS`` points
    (``mesh3d.tet_blocks``), and the passes that read barycentric
    gradients (the stiffness and ``field_gradients``) compute them per
    block with ``mesh3d.tet_gradients``: neither the mesh nor the context
    keeps a (tets, 4, 3) array.  The builders orient every tet; a
    non-positive volume is refused."""

    def __init__(self, mesh: TetMesh):
        self.mesh = mesh
        self.volumes = mesh.volumes
        if np.any(self.volumes <= 0):
            raise ValueError("mesh has non-positive tetrahedra")
        self.matrix = self._stiffness()

    @cached_property
    def centroids(self):
        """Tet centroids, computed on first use by the region subsets of
        ``reference.ReferenceSolution``."""
        nodes, tets = self.mesh.nodes, self.mesh.tets
        out = np.empty((self.mesh.num_tets, 3))
        for blk in tet_blocks(self.mesh.num_tets):
            # the sum in the order of ``mean(axis=1)``, bitwise its value,
            # from row gathers instead of a (tets, 4, 3) one
            t = tets[blk]
            s = nodes.take(t[:, 0], axis=0)
            for k in (1, 2, 3):
                s += nodes.take(t[:, k], axis=0)
            np.divide(s, 4.0, out=out[blk])
        return out

    def _stiffness(self):
        """The stiffness matrix in CSR form on the pattern of the mesh's
        edges: one sum per edge, shared by its two symmetric entries, and
        one per node, each a ``bincount`` of the local matrices summed
        block by block."""
        edges, tet_edge = tet_edges(self.mesh.tets, self.mesh.num_nodes)
        off, diag = self._local_sums(tet_edge, len(edges))
        del tet_edge  # six numbers a tet, not needed to place the entries
        return edge_csr(edges, off, diag)

    def _local_sums(self, tet_edge, num_edges):
        """Sums per edge and per node of the local entries g_a . g_b |T|.
        Each block's gradients are written in the (vertex, coordinate,
        tet) layout that the products run over, into buffers that the
        next block reuses."""
        m = self.mesh
        off, diag = np.zeros(num_edges), np.zeros(m.num_nodes)
        pairs = [*_EDGES, *zip(range(4), range(4))]
        blocks = tet_blocks(m.num_tets)
        size = max((b.stop - b.start for b in blocks), default=0)
        g_buf, local_buf = np.empty((4, 3, size)), np.empty((10, size))
        tmp_buf = np.empty(size)
        for blk in blocks:
            k = blk.stop - blk.start
            g, local, tmp = g_buf[..., :k], local_buf[:, :k], tmp_buf[:k]
            tet_gradients(m.nodes, m.tets[blk], g)
            vol = self.volumes[blk]
            # the coordinates summed in order, then times the volume
            for row, (a, b) in zip(local, pairs):
                np.multiply(g[a, 0], g[b, 0], out=row)
                for d in (1, 2):
                    np.multiply(g[a, d], g[b, d], out=tmp)
                    row += tmp
                row *= vol
            off += np.bincount(tet_edge[blk].T.ravel(), local[:6].ravel(),
                               minlength=num_edges)
            diag += np.bincount(m.tets[blk].T.ravel(), local[6:].ravel(),
                                minlength=m.num_nodes)
        return off, diag

    def quad_points(self, degree=2, live=None):
        """Quadrature points and weights of every tet, or of the tets
        that ``live`` indexes or slices."""
        bary, w = _TET_RULES[degree]
        tets, vols = self.mesh.tets, self.volumes
        if live is not None:
            tets, vols = tets[live], vols[live]
        # np.take gathers the vertex rows about five times faster than
        # fancy indexing, with the same values
        pts = np.matmul(bary, np.take(self.mesh.nodes, tets, axis=0))
        wts = np.outer(vols, w)
        return pts, wts, bary

    def volume_load(self, fn, degree=2, live=None):
        """Load vector of ``fn(points)`` over every tet, or over the tets
        indexed by ``live`` in increasing order, assembled in blocks.

        Blocks are added in tet order, so the sum at each node runs in
        the same order as one unblocked ``add.at``; a tet left out of
        ``live`` where ``fn`` is zero changes no bit of the load.
        """
        bary = _TET_RULES[degree][0]
        count = self.mesh.num_tets if live is None else len(live)
        b = np.zeros(self.mesh.num_nodes)
        for blk in tet_blocks(count, len(bary)):
            sel = blk if live is None else live[blk]
            pts, wts, _ = self.quad_points(degree, sel)
            vals = fn(pts.reshape(-1, 3)).reshape(wts.shape)
            # 1-D indices and values take numpy's fast add.at path, with
            # the same adds in the same order
            np.add.at(b, self.mesh.tets[sel].ravel(),
                      ((wts * vals) @ bary).ravel())
        return b

    def surface_quad(self, tag, degree=2):
        tris = self.mesh.boundary[tag]
        p = self.mesh.nodes[tris]
        bary, w = _TRI_RULES[degree]
        pts = np.matmul(bary, p)
        areas = 0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
        return tris, pts, np.outer(areas, w), bary

    def surface_load(self, tag, fn, degree=2):
        tris, pts, wts, bary = self.surface_quad(tag, degree)
        b = np.zeros(self.mesh.num_nodes)
        if tris.size == 0:
            return b
        vals = fn(pts.reshape(-1, 3)).reshape(wts.shape)
        np.add.at(b, tris.ravel(), ((wts * vals) @ bary).ravel())
        return b

    def field_gradients(self, u, live=slice(None)):
        """Gradient of the nodal field u on every tet, or on the tets
        that ``live`` indexes or slices, from barycentric gradients
        computed block by block: bitwise the contraction
        ``einsum("tad,ta->td")`` of the whole mesh's (tets, 4, 3)
        gradients with u, which sums each component's four terms in the
        same order."""
        tets = self.mesh.tets[live]
        out = np.empty((len(tets), 3))
        for blk in tet_blocks(len(tets)):
            t = tets[blk]
            g = np.empty((4, 3, len(t)))
            tet_gradients(self.mesh.nodes, t, g)
            out[blk] = np.einsum("adt,at->td", g, np.take(u, t.T))
        return out


def edge_csr(edges, off, diag):
    """The symmetric CSR matrix with ``off`` at (a, b) and (b, a) of each
    edge row (a, b) of ``edges`` (a < b, sorted by a, then b) and ``diag``
    on its diagonal.

    Row r holds its edges (a, r) by a, then (r, r), then its edges (r, b)
    by b.  The edge list is the upper part row by row, and its transpose
    (scipy's counting pass) the lower part: the entries are placed
    without a sort.  Entry j of a part's row r goes to j plus that row's
    shift, placed in blocks of rows: besides the output and the lower
    part, no array is as long as the entries.
    """
    n = diag.size
    rows = np.arange(n)
    upper = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges[:, 0], minlength=n), out=upper[1:])
    lower = sparse.csr_matrix((off, edges[:, 1], upper),
                              shape=(n, n)).T.tocsr()
    indptr = lower.indptr + upper + np.arange(n + 1)
    data = np.empty(indptr[-1])
    cols = np.empty(indptr[-1], dtype=np.int32)
    at = lower.indptr[1:] + upper[:-1] + rows
    data[at], cols[at] = diag, rows
    parts = ((lower.data, lower.indices, lower.indptr, indptr[:-1]),
             (off, edges[:, 1], upper, at + 1))
    step = BLOCK_POINTS // 16  # rows of about 15 entries each
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        for d, c, ptr, start in parts:
            lo, hi = ptr[r0], ptr[r1]
            at = np.repeat(start[r0:r1] - ptr[r0:r1], np.diff(ptr[r0:r1 + 1]))
            at += np.arange(lo, hi)
            data[at], cols[at] = d[lo:hi], c[lo:hi]
    return sparse.csr_matrix((data, cols, indptr), shape=(n, n))


def coarse_labels(mesh: TetMesh):
    """Coarse aggregate of every node: one per tube station, then one
    per (shell, cube face, quadrant of that face) for the nodes of no
    station (the bulge).  A node's shell is its max-norm |x|_inf, shared
    by the nodes of one scaled copy of the cube surface; its face is the
    axis and sign of its largest |coordinate|; its quadrant is the signs
    of the other two coordinates."""
    labels = np.full(mesh.num_nodes, -1, dtype=np.int64)
    count = 0
    for edge in sorted(mesh.stations):
        for st in mesh.stations[edge]:
            labels[st.nodes] = count
            count += 1
    bulge = np.flatnonzero(labels < 0)
    x = mesh.nodes[bulge]
    _, shell = np.unique(np.abs(x).max(axis=1), return_inverse=True)
    axis = np.abs(x).argmax(axis=1)
    # signs of the face's own coordinate and of the two across it
    signs = np.take_along_axis(x, (axis[:, None] + [0, 1, 2]) % 3, 1) < 0
    cell = (shell * 3 + axis) * 8 + signs @ [4, 1, 2]
    labels[bulge] = count + np.unique(cell, return_inverse=True)[1]
    return labels


def submatrix(a, keep):
    """``a[keep][:, keep]`` of a CSR matrix for a boolean mask, in one
    pass over its entries: each kept row's entries in kept columns, in
    their order, their columns renumbered.  The arrays are bitwise
    scipy's row and then column fancy indexing, without the matrix of
    kept rows between them."""
    size = np.diff(a.indptr)
    inside = np.repeat(keep, size)
    # fancy indexing, not ``take``: take would first copy the int32
    # column indices as intp, 8 bytes an entry
    inside &= keep[a.indices]
    # kept entries per row, one reduceat over the rows with entries
    counts = np.zeros(keep.size, dtype=a.indptr.dtype)
    filled = size > 0
    counts[filled] = np.add.reduceat(inside, a.indptr[:-1][filled],
                                     dtype=a.indptr.dtype)
    indptr = np.zeros(np.count_nonzero(keep) + 1, dtype=a.indptr.dtype)
    np.cumsum(counts[keep], out=indptr[1:])
    number = np.cumsum(keep, dtype=a.indices.dtype) - 1
    return sparse.csr_matrix(
        (a.data[inside], number[a.indices[inside]], indptr),
        shape=(indptr.size - 1,) * 2)


def _cg(a, b, x0, psolve, maxiter):
    """Preconditioned conjugate gradients (Saad, Alg. 9.1) for ``a @ x =
    b`` from ``x0`` with the preconditioner ``psolve(r)``: (x, code,
    iterations), code 0 once the recursive residual r has
    ||r|| < CG_RTOL ||b||, and ``maxiter`` when the iterations run out.

    The loop is scipy 1.17's ``sparse.linalg.cg`` operation for operation:
    b = 0 returns (a copy of) b at once, r = b - A x0 only for a nonzero
    x0, then z, rho, beta, p, q = A p, alpha, x and r in its order.  So
    given the same ``psolve`` it returns scipy's iterate and code, bit
    for bit.
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        return b.copy(), 0, 0
    atol = CG_RTOL * float(norm_b)
    x = np.array(x0, dtype=float)
    r = b - a @ x if x.any() else b.copy()
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0, it
        z = psolve(r)
        rho = np.dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = a @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, maxiter


def _coarse_space(a, agg):
    """P^T as CSR and the dense inverse of the coarse matrix P^T A P, for
    the aggregate ``agg[i]`` of each row i (numbered from 0, none empty).

    numpy has no triangular solve to apply a Cholesky factor, so the
    matrix is inverted (nc^2 doubles for nc aggregates: a few hundred
    rows on the meshes, 1-7 ms) and applied as one matrix-vector product.
    """
    n = agg.size
    nc = int(agg.max()) + 1 if n else 0
    p = sparse.csr_matrix((np.ones(n), (np.arange(n), agg)), shape=(n, nc))
    # P^T as CSR sums each aggregate in node order, as a weighted
    # bincount does, about four times faster
    pt = p.T.tocsr()
    # P^T A P as two CSR products, each summing in increasing node order
    # (the rows of the first sorted), bitwise the CSC products of
    # p.T @ a @ p, without their CSC copy of A
    pta = pt @ a
    pta.sort_indices()
    return pt, np.linalg.inv((pta @ p).toarray())


def _solve_spd(a, b, labels=None):
    """Two-level preconditioned CG for the symmetric positive definite ``a``.

    The preconditioner is additive, M^-1 r = D^-1 r + P (P^T A P)^-1 P^T r,
    where column j of P is the indicator of the nodes with ``labels == j``
    (one aggregate by default; ``coarse_labels`` gives the mesh solves one
    per tube station and one per bulge shell, cube face and quadrant).
    The coarse matrix is inverted once, dense (``_coarse_space``).

    The solve meets ``CG_RTOL`` on the true residual ||b - A u|| / ||b||:
    CG restarts from its iterate while only its recursive residual does,
    at most ``CG_RESTARTS`` times, and then raises.
    """
    n = a.shape[0]
    d = a.diagonal()
    d[d == 0.0] = 1.0
    inv = 1.0 / d
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    _, agg = np.unique(labels, return_inverse=True)
    pt, coarse_inv = _coarse_space(a, agg)

    def two_level(v):
        out = inv * v
        out += (coarse_inv @ (pt @ v)).take(agg)
        return out

    norm_b = max(float(np.linalg.norm(b)), 1e-300)
    u = np.zeros(n)
    iterations = 0
    for restarts in range(1 + CG_RESTARTS):
        u, code, its = _cg(a, b, u, two_level, maxiter=20000)
        iterations += its
        if code != 0:
            raise RuntimeError(f"conjugate gradients stalled (code {code})")
        resid = float(np.linalg.norm(a @ u - b)) / norm_b
        if resid <= CG_RTOL:
            break
    else:
        raise RuntimeError(
            f"conjugate gradients reached a true relative residual of "
            f"{resid:.3e}, above {CG_RTOL:.1e}, after {CG_RESTARTS} restarts")
    return u, {"iterations": iterations, "relative_residual": resid,
               "restarts": restarts}


def solve_poisson(ctx: FemContext, volume=None, neumann=None, dirichlet=None):
    """Galerkin solve of -div grad u = volume with the given conditions.

    ``neumann`` maps boundary tags to the outward normal derivative of
    the solution; ``dirichlet`` maps tags to boundary values (callable
    on points or scalar).  At least one Dirichlet tag is required, since
    flux conditions alone fix u only up to a constant.
    """
    if not dirichlet:
        raise ValueError("solve_poisson needs at least one Dirichlet tag")
    mesh = ctx.mesh
    b = np.zeros(mesh.num_nodes)
    if volume is not None:
        b += ctx.volume_load(volume, degree=2)
    for tag, fn in (neumann or {}).items():
        b += ctx.surface_load(tag, fn, degree=2)

    fixed = np.zeros(mesh.num_nodes, dtype=bool)
    values = np.zeros(mesh.num_nodes)
    for tag, fn in dirichlet.items():
        ids = np.unique(mesh.boundary[tag])
        fixed[ids] = True
        if callable(fn):
            values[ids] = fn(mesh.nodes[ids])
        else:
            values[ids] = float(fn)
    if not fixed.any():
        raise ValueError("dirichlet tags matched no boundary nodes")
    free = ~fixed
    # values is zero off the fixed nodes, so each row's product adds the
    # products of its fixed columns in order, and exact zeros between
    b_f = (b - ctx.matrix @ values)[free]
    u_f, info = _solve_spd(submatrix(ctx.matrix, free), b_f,
                           labels=coarse_labels(mesh)[free])
    u = values.copy()
    u[free] = u_f
    return u, info


def _point_sums(wts, err, out):
    """Each tet's sum of ``wts * err`` over its points, point by point
    in order, by elementwise products: no matrix-vector product, whose
    rounding would depend on the rows of the block."""
    err = np.broadcast_to(err, wts.shape)
    np.multiply(wts[:, 0], err[:, 0], out=out)
    for q in range(1, wts.shape[1]):
        out += wts[:, q] * err[:, q]


def norms(ctx: FemContext, u, reference=None):
    """Squared L2 and H1 errors per tet of u minus an optional analytic
    reference, in tet order.

    ``reference(points) -> (values, gradients)`` is evaluated at the
    quadrature points, one block of tets at a time.  Each tet's weighted
    squared errors are summed over its four points into one L2 and one
    H1 number, so the pass keeps two numbers per tet and one block, and
    they do not depend on the block size, bit for bit.  ``norm_triple``
    of them is the (L2, H1-seminorm, H1) triple of the whole mesh, and of
    a tet subset of them, in tet order, the triple over that subset.
    """
    tets, bary = ctx.mesh.tets, _TET_RULES[2][0]
    l2, h1 = np.empty(ctx.mesh.num_tets), np.empty(ctx.mesh.num_tets)
    for blk in tet_blocks(ctx.mesh.num_tets, len(bary)):
        vals = np.take(u, tets[blk]) @ bary.T
        grads = ctx.field_gradients(u, blk)[:, None, :]
        pts, wts, _ = ctx.quad_points(2, blk)
        if reference is not None:
            rv, rg = reference(pts.reshape(-1, 3))
            vals = vals - rv.reshape(vals.shape)
            grads = grads - rg.reshape(vals.shape + (3,))
        grads *= grads
        _point_sums(wts, vals * vals, l2[blk])
        _point_sums(wts, grads[..., 0] + grads[..., 1] + grads[..., 2],
                    h1[blk])
    return l2, h1


def norm_triple(l2, h1):
    """(L2, H1-seminorm, H1) from per-tet squared L2 and H1 numbers."""
    l2sq, h1sq = float(l2.sum()), float(h1.sum())
    return math.sqrt(l2sq), math.sqrt(h1sq), math.sqrt(l2sq + h1sq)


def station_means(mesh: TetMesh, u, stations):
    """Cross-section means of a vertex field over tube stations, from one
    gather of all their disk triangles."""

    tri = np.stack([st.nodes for st in stations])[:, mesh.disk_tris]
    p = mesh.nodes[tri]
    v1 = p[..., 1, :] - p[..., 0, :]
    v2 = p[..., 2, :] - p[..., 0, :]
    areas = 0.5 * np.linalg.norm(np.cross(v1, v2), axis=-1)
    means = u[tri.astype(np.int64)].mean(axis=-1)
    return (areas * means).sum(axis=1) / areas.sum(axis=1)


def station_average(mesh: TetMesh, u, station):
    """Cross-section mean of a vertex field over one tube station."""

    return float(station_means(mesh, u, [station])[0])


def station_profile(mesh: TetMesh, u, edge):
    """Axial positions and cross-section means along one tube."""

    stations = mesh.stations[edge]
    return (np.array([st.x for st in stations]),
            station_means(mesh, u, stations))


class PointLocator:
    """Point location by a face walk from a seed tet, on a mesh with a
    box layout: the junction's, which builds the one locator of a study
    or a served request (``junction.TruncatedJunction``).

    A point's seed is the middle tet of the prism that holds it, from
    the box layout the mesh's builder recorded (``mesh3d.LayoutSeed``),
    so the walk takes at most one step inside the mesh.  A mesh without
    one, a standalone tube or a mesh made from nodes and tets alone, is
    refused with ``ValueError``.

    The locator reads only mesh arrays.  It derives the face adjacency
    (``mesh3d.face_adjacency``, the tet across the face of each tet
    opposite each vertex) with the mesh's ``boundary_codes`` in the
    boundary slots, so a walk tells an end face from a wall.  A walk
    reads the barycentric gradients of scattered tets, one step at a
    time, so the locator computes them once, when it is built, block by
    block (``mesh3d.tet_gradients``), and holds rows 1-3 of each, shape
    (tets, 3, 3): a step reads only those.  Row 0 is recomputed for the
    tets that need it (:meth:`gradients`), and a tet's vertex 0 is
    gathered through the tets.
    """

    def __init__(self, mesh: TetMesh):
        self._seed = LayoutSeed(mesh.meta)
        self._sagitta = float(mesh.meta["sagitta"])
        # the adjacency first: its face sort's transients are gone before
        # the table is made
        adjacent = face_adjacency(mesh.tets, mesh.num_nodes)
        adjacent.T[adjacent.T < 0] = mesh.boundary_codes
        self._neighbours, self._end_face = adjacent, adjacent == END
        self._nodes = mesh.nodes
        self._tets = mesh.tets
        self._grads = np.empty((mesh.num_tets, 3, 3))
        for blk in tet_blocks(mesh.num_tets):
            g = np.empty((4, 3, blk.stop - blk.start))
            tet_gradients(mesh.nodes, mesh.tets[blk], g)
            self._grads[blk] = g[1:].transpose(2, 0, 1)

    def gradients(self, tets):
        """Barycentric gradients of the tets, shape (tets, 4, 3): the held
        rows 1-3, and row 0 as -(g_1 + g_2 + g_3), summed in
        ``tet_gradients``' order and so bitwise its row."""
        rows = self._grads.take(tets, axis=0)
        first = -(rows[:, 0] + rows[:, 1] + rows[:, 2])
        return np.concatenate([first[:, None], rows], axis=1)

    def locate(self, points):
        """(tet index, barycentric coords) per point; -1 when not located.

        Each walk starts at the point's seed tet (see the class) and
        steps across the face with the most negative barycentric among
        those with a neighbour (a visibility walk).  It ends inside
        a tet, within 1e-9, with clipped coordinates.  A walk whose
        negative faces all lie on the boundary has left the mesh: when
        none of them is an end face and the point is at most the mesh's
        sagitta beyond each, it keeps that tet with unclipped coordinates,
        i.e. the tet's linear field.  A point in the gap between a tube's
        circular wall and its facets is seeded in its own prism, and so
        gets a tet of that prism.  Otherwise, or when the walk takes more
        than ``WALK_STEPS`` steps, the tet is -1.  The walk depends only
        on the point, so answers do not depend on the batch.
        """
        points = np.asarray(points, dtype=float)
        npts = len(points)
        tet = np.full(npts, -1, dtype=np.int64)
        bary = np.zeros((npts, 4))
        cur = self._seed(points)
        live = np.arange(npts)
        for _ in range(WALK_STEPS):
            if live.size == 0:
                break
            # ndarray.take gathers rows several times faster than
            # fancy indexing, with the same values
            # vertex 0 from the gathered rows: ``take`` on the strided
            # column would first copy all of it
            origin = self._nodes.take(self._tets.take(cur, axis=0)[:, 0],
                                      axis=0)
            local = np.einsum("tkd,td->tk", self._grads.take(cur, axis=0),
                              points[live] - origin)
            lam = np.column_stack([1.0 - local.sum(axis=1), local])
            out = lam < -1e-9
            inside = ~out.any(axis=1)
            tet[live[inside]] = cur[inside]
            bary[live[inside]] = np.clip(lam[inside], 0.0, None)
            if inside.all():
                break
            nb = self._neighbours.take(cur, axis=0)
            step = np.where(out & (nb >= 0), lam, np.inf)
            face = np.argmin(step, axis=1)
            rows = np.arange(live.size)
            left = np.flatnonzero(~inside & np.isinf(step[rows, face]))
            move = ~inside
            if left.size:
                # distances beyond the faces, only for walks that left
                t, o = cur[left], out[left]
                dist = np.where(o, -lam[left], 0.0) / np.linalg.norm(
                    self.gradients(t), axis=2)
                ok = (~(o & self._end_face[t]).any(axis=1)
                      & (dist.max(axis=1) <= self._sagitta))
                tet[live[left[ok]]] = t[ok]
                bary[live[left[ok]]] = lam[left[ok]]
                move[left] = False
            live, cur = live[move], nb[rows, face][move].astype(np.int64)
        return tet, bary

    def evaluate(self, u, points, weights=None):
        """(values, gradients) of the nodal field u at the points; with K
        weights, of sum_k weights[k] u[:, k], contracted on the nodes of
        the located tets only.

        A point in the gap between a curved wall and its facets gets the
        linear field of the tet beside it (:meth:`locate`).  Raises when
        a point is not located.
        """
        tet, lam = self.locate(points)
        if np.any(tet < 0):
            raise ValueError("points outside the mesh")
        nodal = u[self._tets[tet]]
        if weights is not None:
            nodal = np.einsum("pak,k->pa", nodal, weights)
        return (np.einsum("pa,pa->p", nodal, lam),
                np.einsum("pad,pa->pd", self.gradients(tet), nodal))
