"""Per-point reference for ``PointLocator.locate``.

The original one-point-at-a-time loop, kept as the oracle the batched
kernel must match bit for bit.  It reads the locator's own arrays and
inverts the edge matrices itself, as the original loop did.
"""

import numpy as np


def _candidates(loc, node_ids):
    out = []
    for n in np.unique(node_ids):
        out.append(loc._adj_tets[loc._adj_ptr[n]:loc._adj_ptr[n + 1]])
    return np.unique(np.concatenate(out)) if out else np.empty(0, int)


def locate_reference(loc, points, tol=1e-9):
    points = np.asarray(points, dtype=float)
    npts = points.shape[0]
    found = np.full(npts, -1, dtype=np.int64)
    bary = np.zeros((npts, 4))
    best_gap = np.full(npts, -np.inf)
    best_tet = np.full(npts, -1, dtype=np.int64)
    best_bary = np.zeros((npts, 4))
    x = loc._tree.data[loc._tets]
    minv = np.linalg.inv(x[:, 1:] - x[:, :1])
    for k in (1, 8, 32):
        todo = np.flatnonzero(found < 0)
        if todo.size == 0:
            break
        _, near = loc._tree.query(points[todo], k=k)
        near = np.asarray(near).reshape(todo.size, -1)
        for row, p_idx in enumerate(todo):
            cand = _candidates(loc, near[row])
            if cand.size == 0:
                continue
            local = np.einsum(
                "tdk,td->tk", minv[cand],
                points[p_idx] - loc._origin[cand])
            lam = np.concatenate(
                [1.0 - local.sum(axis=1, keepdims=True), local], axis=1)
            gaps = lam.min(axis=1)
            j = int(np.argmax(gaps))
            if gaps[j] > best_gap[p_idx]:
                best_gap[p_idx] = gaps[j]
                best_tet[p_idx] = cand[j]
                best_bary[p_idx] = lam[j]
            if gaps[j] >= -tol:
                found[p_idx] = cand[j]
                bary[p_idx] = np.clip(lam[j], 0.0, None)
    missing = found < 0
    if missing.any():
        ok = best_gap >= -1e-6
        found[missing & ok] = best_tet[missing & ok]
        bary[missing & ok] = np.clip(best_bary[missing & ok], 0.0, None)
    return found, bary
