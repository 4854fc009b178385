"""Face-sort references for the boundary of a built mesh.

``boundary_faces_reference`` is the original boundary pass, which counts
duplicate faces with a structured ``np.unique(axis=0)`` over the sorted
vertex triples of every face of every tet.

``face_sort_boundary`` is the former build of a mesh's boundary: the
whole-mesh face adjacency (``block_oracle.face_adjacency_reference``),
the faces of its boundary slots in their order, tags and codes from the
face centroids, and the codes written into the adjacency.  The builders
now key only the faces on their surface, and only the locator derives
the adjacency; both must match these bit for bit.

``coded_adjacency`` is the adjacency the locator walks: the package's
``face_adjacency`` with the mesh's boundary codes written into its
boundary slots, for any built mesh, a tube too.
"""

import numpy as np

from block_oracle import face_adjacency_reference
from thinjunction.mesh3d import _FACES, END, LATERAL, OTHER, face_adjacency


def boundary_faces_reference(tets):
    faces = np.concatenate([
        tets[:, [1, 2, 3]], tets[:, [0, 3, 2]],
        tets[:, [0, 1, 3]], tets[:, [0, 2, 1]]], axis=0)
    key = np.sort(faces, axis=1)
    _, inv, counts = np.unique(key, axis=0, return_inverse=True,
                               return_counts=True)
    return faces[counts[inv] == 1]


def coded_adjacency(mesh):
    """Tet across each face of a built mesh, or the boundary face's code."""
    adjacent = face_adjacency(mesh.tets, mesh.num_nodes)
    adjacent.T[adjacent.T < 0] = mesh.boundary_codes
    return adjacent


def face_sort_boundary(mesh):
    """(tags, adjacency with the boundary codes) of a built box or tube
    mesh, by the whole-mesh face sort."""
    tets, meta = mesh.tets, mesh.meta
    adjacent = face_adjacency_reference(tets, mesh.num_nodes)
    side, tet = np.nonzero(adjacent.T < 0)
    faces = tets[tet[:, None], _FACES[side]].astype(np.int64)
    cent = mesh.nodes[faces].mean(axis=1)
    if "shells" in meta:
        half = meta["half"]
        code = np.full(faces.shape[0], OTHER, dtype=np.int32)
        tags = {}
        tol = 1e-9 * max(1.0, half)
        for axis, x in meta["station_x"].items():
            on_end = np.abs(cent[:, axis] - x[-1]) < tol
            tags[f"end_{axis}"] = faces[on_end]
            code[on_end] = END
            lateral = (code == OTHER) & (cent[:, axis] > half + tol)
            tags[f"lateral_{axis}"] = faces[lateral]
            code[lateral] = LATERAL
        tags["wall"] = faces[code == OTHER]
    else:
        length = meta["length"]
        tol = 1e-9 * max(1.0, length)
        at_0 = np.abs(cent[:, 0]) < tol
        at_l = np.abs(cent[:, 0] - length) < tol
        code = np.where(at_0 | at_l, END, LATERAL)
        tags = {"end_a": faces[at_0], "end_b": faces[at_l],
                "lateral_0": faces[~(at_0 | at_l)]}
    adjacent.T[adjacent.T < 0] = code
    return tags, adjacent
