"""The former two-formulation CG solver and junction load solve.

``solve_spd_reference`` is ``fem3d._solve_spd`` as it was with its
``deflate`` branch: for the pure flux-condition junction systems it
wrapped the operator and the preconditioner in the mean-zero projection
and pinned one coarse unknown.  It keeps scipy's ``cg`` loop and
SuperLU (``splu``) for the coarse solve, as the package did before it
ran a CG loop of its own with a dense coarse inverse: without
``deflate`` it is the Dirichlet path the package keeps, whose loop must
match it bit for bit given its preconditioner
(``two_level_reference``), and whose solve must match it to rounding.
``solve_load_reference`` is the former ``junction._solve_load`` on top
of it; the package's project-and-pin solve must match it to rounding
once the constant both leave free is removed.
``station_labels_reference`` is the former coarse labelling, one
aggregate per tube station and a single one for the whole bulge.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg, splu

from thinjunction.fem3d import CG_RESTARTS, CG_RTOL
from thinjunction.junction import assemble_load


def station_labels_reference(mesh):
    labels = np.full(mesh.num_nodes, -1, dtype=np.int64)
    count = 0
    for edge in sorted(mesh.stations):
        for st in mesh.stations[edge]:
            labels[st.nodes] = count
            count += 1
    labels[labels < 0] = count
    return labels


def two_level_reference(a, labels, pinned=0):
    """The former preconditioner v -> D^-1 v + P (P^T A P)^-1 P^T v, the
    coarse matrix factored by SuperLU, with the first ``pinned``
    aggregates left out of P."""
    n = a.shape[0]
    d = a.diagonal()
    d[d == 0.0] = 1.0
    inv = 1.0 / d
    _, agg = np.unique(labels, return_inverse=True)
    nc = int(agg.max()) + 1 if n else 0
    p = sparse.csr_matrix((np.ones(n), (np.arange(n), agg)),
                          shape=(n, nc))[:, pinned:]
    coarse = np.zeros(nc)
    lu = splu((p.T @ a @ p).tocsc()) if nc > pinned else None

    def two_level(v):
        if lu is not None:
            coarse[pinned:] = lu.solve(
                np.bincount(agg, weights=v, minlength=nc)[pinned:])
        return inv * v + coarse[agg]

    return two_level


def solve_spd_reference(a, b, deflate=False, labels=None):
    n = a.shape[0]
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    two_level = two_level_reference(a, labels, pinned=1 if deflate else 0)

    if deflate:
        def project(v):
            return v - v.mean()

        op = LinearOperator((n, n), matvec=lambda v: project(a @ project(v)))
        mop = LinearOperator((n, n),
                             matvec=lambda v: project(two_level(project(v))))
        rhs = project(b)
    else:
        op, rhs = a, b
        mop = LinearOperator((n, n), matvec=two_level)

    iters = [0]

    def count(_):
        iters[0] += 1

    norm_b = max(float(np.linalg.norm(rhs)), 1e-300)
    u = np.zeros(n)
    for restarts in range(1 + CG_RESTARTS):
        u, code = cg(op, rhs, x0=u, rtol=CG_RTOL, atol=0.0, maxiter=20000,
                     M=mop, callback=count)
        if code != 0:
            raise RuntimeError(f"conjugate gradients stalled (code {code})")
        if deflate:
            u = project(u)
        resid = float(np.linalg.norm(a @ u - rhs)) / norm_b
        if resid <= CG_RTOL:
            break
    else:
        raise RuntimeError(
            f"conjugate gradients reached a true relative residual of "
            f"{resid:.3e}, above {CG_RTOL:.1e}, after {CG_RESTARTS} restarts")
    return u, {"iterations": iters[0], "relative_residual": resid,
               "restarts": restarts}


def solve_load_reference(junction, data):
    """(field, load, info) of the former mean-zero junction solve."""
    b = assemble_load(junction, data)
    u, info = solve_spd_reference(junction.ctx.matrix, b, deflate=True,
                                  labels=junction.labels)
    return u, b, info
