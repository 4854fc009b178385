"""References for ``PointLocator.locate``.

``LocatorOracle`` is the node-round locator the face walk replaced, one
point at a time.  It builds its own KD-tree of the mesh nodes and
node-to-tet adjacency.
Rounds query the 1, 8 and 32 nearest nodes of the points still
unlocated; a point's candidates are the tets adjacent to those nodes.
A round picks the candidate with the largest smallest barycentric (the
smallest tet index among ties) and accepts it within ``tol``.  Points
never accepted fall back to their best candidate over all rounds when
it is within 1e-6.

``KdWalkOracle`` is the face walk as it was seeded before the builders
recorded their layout: each walk starts at the tet whose centroid is
nearest the point, from a KD-tree of all the centroids.  It steps
across the face with the most negative barycentric among those with a
neighbour (a visibility walk; Devillers, Pion and Teillaud 2002), and
keeps the sagitta rule of ``PointLocator``; a walk that leaves the mesh
elsewhere restarts once from the tet of the nearest tube wall face, as
the walks from a centroid did beside a tube mouth.

``WholeTableLocator`` is the former ``PointLocator``: the same walk from
the layout seed, over the whole-mesh (tets, 4, 3) array of
``geometry_oracle.tet_geometry``, a copy of every tet's vertex 0 and
the coded face adjacency of ``boundary_faces_oracle``, for at most
``WALK_STEPS`` steps.  The locator, which tests only the seeded cell
and its prism partners, must match its tets, barycentrics, values and
gradients bit for bit.
"""

import numpy as np
from scipy.spatial import cKDTree

from boundary_faces_oracle import coded_adjacency
from geometry_oracle import tet_geometry
from thinjunction.mesh3d import END, LATERAL, LayoutSeed

WALK_STEPS = 200
_OPPOSITE = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


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


class KdWalkOracle:
    def __init__(self, mesh):
        self._grads = tet_geometry(mesh.nodes, mesh.tets)[1]
        self._origin = mesh.nodes[mesh.tets[:, 0]]
        self._tree = cKDTree(mesh.nodes[mesh.tets].mean(axis=1))
        self._sagitta = float(mesh.meta.get("sagitta", 0.0))
        self._neighbours = coded_adjacency(mesh)
        self._end_face = self._neighbours == END
        wall = np.flatnonzero(self._neighbours == LATERAL)
        self._wall_tets = wall // 4
        faces = mesh.tets[self._wall_tets[:, None], _OPPOSITE[wall % 4]]
        self._wall_tree = cKDTree(mesh.nodes[faces].mean(axis=1))

    def locate(self, points):
        """(tet, barycentrics) per point; the tet is -1 when not located."""
        points = np.asarray(points, dtype=float)
        npts = len(points)
        tet = np.full(npts, -1, dtype=np.int64)
        bary = np.zeros((npts, 4))
        _, cur = self._tree.query(points)
        live = np.arange(npts)
        fresh = np.full(npts, self._wall_tets.size > 0)
        for _ in range(WALK_STEPS):
            if live.size == 0:
                break
            local = np.einsum("tkd,td->tk", self._grads[cur, 1:],
                              points[live] - self._origin[cur])
            lam = np.column_stack([1.0 - local.sum(axis=1), local])
            out = lam < -1e-9
            inside = ~out.any(axis=1)
            tet[live[inside]] = cur[inside]
            bary[live[inside]] = np.clip(lam[inside], 0.0, None)
            nb = self._neighbours[cur]
            step = np.where(out & (nb >= 0), lam, np.inf)
            face = np.argmin(step, axis=1)
            rows = np.arange(live.size)
            left = np.flatnonzero(~inside & np.isinf(step[rows, face]))
            t, o = cur[left], out[left]
            dist = np.where(o, -lam[left], 0.0) / np.linalg.norm(
                self._grads[t], axis=2)
            ok = (~(o & self._end_face[t]).any(axis=1)
                  & (dist.max(axis=1) <= self._sagitta))
            tet[live[left[ok]]] = t[ok]
            bary[live[left[ok]]] = lam[left[ok]]
            again = left[~ok & fresh[live[left]]]
            fresh[live[again]] = False
            nxt = nb[rows, face].astype(np.int64)
            nxt[again] = self._wall_tets[
                self._wall_tree.query(points[live[again]])[1]]
            move = ~inside
            move[left] = False
            move[again] = True
            live, cur = live[move], nxt[move]
        return tet, bary


class WholeTableLocator:
    def __init__(self, mesh):
        self._tets = mesh.tets
        self._grads = tet_geometry(mesh.nodes, mesh.tets)[1]
        self._origin = mesh.nodes[mesh.tets[:, 0]]
        self._seed = LayoutSeed(mesh.meta)
        self._sagitta = float(mesh.meta["sagitta"])
        self._neighbours = coded_adjacency(mesh)
        self._end_face = self._neighbours == END

    def locate(self, points):
        """(tet, barycentrics) per point; the tet is -1 when not located."""
        points = np.asarray(points, dtype=float)
        npts = len(points)
        tet = np.full(npts, -1, dtype=np.int64)
        bary = np.zeros((npts, 4))
        cur = self._seed(points)
        live = np.arange(npts)
        for _ in range(WALK_STEPS):
            if live.size == 0:
                break
            local = np.einsum("tkd,td->tk",
                              self._grads.take(cur, axis=0)[:, 1:],
                              points[live] - self._origin.take(cur, axis=0))
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
                t, o = cur[left], out[left]
                dist = np.where(o, -lam[left], 0.0) / np.linalg.norm(
                    self._grads[t], axis=2)
                ok = (~(o & self._end_face[t]).any(axis=1)
                      & (dist.max(axis=1) <= self._sagitta))
                tet[live[left[ok]]] = t[ok]
                bary[live[left[ok]]] = lam[left[ok]]
                move[left] = False
            live, cur = live[move], nb[rows, face][move].astype(np.int64)
        return tet, bary

    def evaluate(self, u, points, weights=None):
        tet, lam = self.locate(points)
        if np.any(tet < 0):
            raise ValueError("points outside the mesh")
        nodal = u[self._tets[tet]]
        if weights is not None:
            nodal = np.einsum("pak,k->pa", nodal, weights)
        return (np.einsum("pa,pa->p", nodal, lam),
                np.einsum("pad,pa->pd", self._grads[tet], nodal))
