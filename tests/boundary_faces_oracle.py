"""Row-keyed reference for ``mesh3d._boundary_faces``.

The original version, which counts duplicate faces with a structured
``np.unique(axis=0)`` over the sorted vertex triples.  It is kept as the
oracle the integer-keyed version must match bit for bit.
"""

import numpy as np


def boundary_faces_reference(tets):
    faces = np.concatenate([
        tets[:, [1, 2, 3]], tets[:, [0, 3, 2]],
        tets[:, [0, 1, 3]], tets[:, [0, 2, 1]]], axis=0)
    key = np.sort(faces, axis=1)
    _, inv, counts = np.unique(key, axis=0, return_inverse=True,
                               return_counts=True)
    return faces[counts[inv] == 1]
