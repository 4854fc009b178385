"""Dictionary-keyed node store for ``mesh3d``'s node numbering.

The builders once added every point through this pool: one dictionary
lookup per point, keyed by its coordinates rounded to 1e-10, gives the
id of the first equal point or a fresh one.  It is kept as the oracle
the one-pass numbering must match bit for bit.
"""

import numpy as np

from thinjunction.mesh3d import _face_to_space, face_layout

_KEY_SCALE = 1e10


class NodePool:
    """Deduplicating node store keyed by rounded coordinates."""

    def __init__(self):
        self._chunks = []
        self._lookup = {}
        self._count = 0

    def add(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        keys = np.round(pts * _KEY_SCALE).astype(np.int64)
        ids = np.empty(pts.shape[0], dtype=np.int64)
        fresh = []
        for row, key in enumerate(map(tuple, keys)):
            idx = self._lookup.get(key)
            if idx is None:
                idx = self._count
                self._lookup[key] = idx
                self._count += 1
                fresh.append(pts[row])
            ids[row] = idx
        if fresh:
            self._chunks.append(np.array(fresh))
        return ids

    def coords(self):
        if not self._chunks:
            return np.zeros((0, 3))
        return np.concatenate(self._chunks, axis=0)


def pool_numbering(mesh, half, radii):
    """Ids and coordinates the pool gives a box mesh's points, added in
    the builder's order: the six cube faces, the onion shells, the
    centre, then each tube's stations after the first (their points
    read from ``mesh``).

    Returns (ids of each cube face, ids of each tube's later stations,
    coordinates).
    """
    rings, blend, segments = (mesh.meta[k]
                              for k in ("rings", "blend", "segments"))
    shells = rings + blend
    pool = NodePool()
    faces = []
    for axis in range(3):
        for sign in (1, -1):
            radius = radii[axis] if sign > 0 else 0.5 * half
            uv, _ = face_layout(half, radius, rings, blend, segments)
            faces.append(pool.add(_face_to_space(uv, axis, sign, half)))
    surface = pool.coords()
    for t in range(1, shells):
        pool.add(surface * (1.0 - t / shells))
    pool.add(np.zeros((1, 3)))
    stations = {e: [pool.add(mesh.nodes[st.nodes]) for st in sts[1:]]
                for e, sts in sorted(mesh.stations.items())}
    return faces, stations, pool.coords()
