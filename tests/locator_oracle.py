"""Per-point reference for ``PointLocator.locate``.

The node-round locator the face walk replaced, one point at a time.  It
builds its own KD-tree of the mesh nodes and node-to-tet adjacency.
Rounds query the 1, 8 and 32 nearest nodes of the points still
unlocated; a point's candidates are the tets adjacent to those nodes.
A round picks the candidate with the largest smallest barycentric (the
smallest tet index among ties) and accepts it within ``tol``.  Points
never accepted fall back to their best candidate over all rounds when
it is within 1e-6.
"""

import numpy as np
from scipy.spatial import cKDTree


class LocatorOracle:
    def __init__(self, mesh):
        tets = mesh.tets.astype(np.int64)
        self.tets = tets
        self.tree = cKDTree(mesh.nodes)
        order = np.argsort(tets.ravel(), kind="stable")
        self.adj_tets = order // 4
        counts = np.bincount(tets.ravel(), minlength=mesh.num_nodes)
        self.adj_ptr = np.concatenate([[0], np.cumsum(counts)])
        x = mesh.nodes[tets]
        self.origin = x[:, 0]
        self.minv = np.linalg.inv(x[:, 1:] - x[:, :1])

    def _candidates(self, node_ids):
        out = [self.adj_tets[self.adj_ptr[n]:self.adj_ptr[n + 1]]
               for n in np.unique(node_ids)]
        return np.unique(np.concatenate(out)) if out else np.empty(0, int)

    def locate(self, points, tol=1e-9):
        """(tet, clipped barycentrics, best smallest barycentric) per point;
        the tet is -1 when not located."""
        points = np.asarray(points, dtype=float)
        npts = points.shape[0]
        found = np.full(npts, -1, dtype=np.int64)
        bary = np.zeros((npts, 4))
        best_gap = np.full(npts, -np.inf)
        best_tet = np.full(npts, -1, dtype=np.int64)
        best_bary = np.zeros((npts, 4))
        for k in (1, 8, 32):
            todo = np.flatnonzero(found < 0)
            if todo.size == 0:
                break
            _, near = self.tree.query(points[todo], k=k)
            near = np.asarray(near).reshape(todo.size, -1)
            for row, p_idx in enumerate(todo):
                cand = self._candidates(near[row])
                if cand.size == 0:
                    continue
                local = np.einsum(
                    "tdk,td->tk", self.minv[cand],
                    points[p_idx] - self.origin[cand])
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
        return found, bary, best_gap
