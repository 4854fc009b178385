"""Former whole-mesh passes over the tets, kept as the oracles of the
blocked passes: each must match its oracle bit for bit at any block
size.

``norms_reference`` integrates every quadrature point of every (masked)
tet at once, from one reference call, and sums each tet's four points
in order and then the tets, as ``fem3d.norms`` does block by block;
``norms_vdot_reference`` is the former ``fem3d.norms``, one ``vdot``
over every point, which it matches to rounding.
``face_keys_reference`` sorts each triangle's vertices, and
``face_adjacency_reference`` builds all face keys at once with it,
``tet_edges_reference`` numbers the edges by ``np.unique``, and
``volume_load_reference`` integrates every (live) tet in one ``add.at``.
"""

import math

import numpy as np

from thinjunction.fem3d import _TET_RULES
from thinjunction.mesh3d import _FACES, OTHER, tet_geometry

# Vertex pairs of the six edges of a tet.
_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])


def _norm_terms(ctx, u, reference, mask):
    """Weights, errors and gradient errors at every quadrature point of
    every (masked) tet at once, from one reference call."""
    live = None if mask is None else np.flatnonzero(mask)
    bary, w = _TET_RULES[2]
    tets = ctx.mesh.tets.astype(np.int64)
    vols = ctx.volumes
    # the whole-mesh gradients, which neither the mesh nor the context keeps
    grads = np.einsum("tad,ta->td", tet_geometry(ctx.mesh.nodes, tets)[1],
                      u[tets])
    if live is not None:
        tets, vols, grads = tets[live], vols[live], grads[live]
    pts = np.matmul(bary, ctx.mesh.nodes[tets])
    wts = np.outer(vols, w)
    if live is not None:
        wts = wts * mask[live, None]
    vals = u[tets] @ bary.T
    if reference is not None:
        rv, rg = reference(pts.reshape(-1, 3))
        vals = vals - rv.reshape(wts.shape)
        grads = grads[:, None, :] - rg.reshape(wts.shape + (3,))
    else:
        grads = np.broadcast_to(grads[:, None, :], wts.shape + (3,))
    return wts, vals, grads


def norms_reference(ctx, u, reference=None, mask=None):
    wts, vals, grads = _norm_terms(ctx, u, reference, mask)
    e = vals * vals
    g = grads * grads
    g = g[..., 0] + g[..., 1] + g[..., 2]
    l2 = wts[:, 0] * e[:, 0] + wts[:, 1] * e[:, 1] + wts[:, 2] * e[:, 2] \
        + wts[:, 3] * e[:, 3]
    h1 = wts[:, 0] * g[:, 0] + wts[:, 1] * g[:, 1] + wts[:, 2] * g[:, 2] \
        + wts[:, 3] * g[:, 3]
    l2sq, h1sq = float(l2.sum()), float(h1.sum())
    return math.sqrt(l2sq), math.sqrt(h1sq), math.sqrt(l2sq + h1sq)


def norms_vdot_reference(ctx, u, reference=None, mask=None):
    wts, vals, grads = _norm_terms(ctx, u, reference, mask)
    l2sq = float(np.vdot(wts, vals * vals))
    h1sq = float(np.sum(wts.ravel() @ (grads * grads).reshape(-1, 3)))
    return math.sqrt(l2sq), math.sqrt(h1sq), math.sqrt(l2sq + h1sq)


def face_keys_reference(faces, num_nodes):
    s = np.sort(np.asarray(faces, dtype=np.int64), axis=-1)
    return (s[..., 0] * num_nodes + s[..., 1]) * num_nodes + s[..., 2]


def face_adjacency_reference(tets, num_nodes):
    key = face_keys_reference(tets[:, _FACES], num_nodes).ravel()
    order = np.argsort(key, kind="stable")
    twin = np.flatnonzero(key[order][1:] == key[order][:-1])
    adjacent = np.full(key.size, OTHER, dtype=np.int32)
    adjacent[order[twin]] = order[twin + 1] // 4
    adjacent[order[twin + 1]] = order[twin] // 4
    return adjacent.reshape(-1, 4)


def tet_edges_reference(tets, num_nodes):
    pair = np.sort(tets[:, _EDGES].astype(np.int64), axis=2)
    key = pair[..., 0] * num_nodes + pair[..., 1]
    uniq, index = np.unique(key, return_inverse=True)
    return np.stack(np.divmod(uniq, num_nodes), axis=1), index.reshape(-1, 6)


def volume_load_reference(ctx, fn, degree, live=None):
    bary, w = _TET_RULES[degree]
    tets, vols = ctx.mesh.tets.astype(np.int64), ctx.volumes
    if live is not None:
        tets, vols = tets[live], vols[live]
    pts = np.matmul(bary, ctx.mesh.nodes[tets])
    wts = np.outer(vols, w)
    vals = fn(pts.reshape(-1, 3)).reshape(wts.shape)
    b = np.zeros(ctx.mesh.num_nodes)
    np.add.at(b, tets, (wts * vals) @ bary)
    return b
