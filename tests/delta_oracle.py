"""Per-quadrature-point reference for ``compute_delta``.

The former pairing of one order's data with the special fields: the
source and the wall trace are evaluated at the quadrature points of the
load rules and multiplied there by the interpolated special fields.
Kept as the oracle that the pairing of the assembled load must match.
"""

import numpy as np

from thinjunction.config import TRANSVERSE_AXES
from thinjunction.fem3d import _TET_RULES
from thinjunction.junction import _source_values


def delta_reference(junction, data, specials, block=120_000):
    ctx = junction.ctx
    mesh = junction.mesh
    bary, w = _TET_RULES[5]
    coords = mesh.nodes[mesh.tets]
    totals = [s.nodal_total() for s in specials]
    acc = np.zeros(len(specials))
    for start in range(0, mesh.num_tets, block):
        sl = slice(start, start + block)
        pts = np.einsum("qa,tad->tqd", bary, coords[sl])
        wts = np.outer(ctx.volumes[sl], w)
        src = _source_values(junction, data,
                             pts.reshape(-1, 3)).reshape(wts.shape)
        for s_idx, tot in enumerate(totals):
            nv = np.einsum("ta,qa->tq", tot[mesh.tets[sl].astype(np.int64)],
                           bary)
            acc[s_idx] += float(np.sum(wts * src * nv))

    for i in range(3):
        wall = data.walls[i]
        if wall is None:
            continue
        tris, spts, swts, sbary = ctx.surface_quad(f"lateral_{i}", degree=4)
        flat = spts.reshape(-1, 3)
        fall = 1.0 - junction.step(flat[:, i])
        a, bb = TRANSVERSE_AXES[i]
        tr = (fall * wall(flat[:, i], flat[:, a], flat[:, bb])).reshape(
            swts.shape)
        for s_idx, tot in enumerate(totals):
            nv = np.einsum("fa,qa->fq", tot[tris.astype(np.int64)], sbary)
            acc[s_idx] -= float(np.sum(swts * tr * nv))
    return acc
