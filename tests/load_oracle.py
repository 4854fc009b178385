"""Full-mesh reference for ``junction.assemble_load``.

The former assembly: the interior data integrated with the degree-5 rule
over every tet of the truncated junction, in blocks added in tet order,
minus the wall traces.  ``kernel`` picks how the quadrature points and
the nodal contributions are contracted: ``"matmul"`` as the package does
now, so the load integrated over the band tets only must match it bit
for bit, or ``"einsum"`` as the package did before, which it must match
to rounding.
"""

import numpy as np

from thinjunction.config import TRANSVERSE_AXES
from thinjunction.fem3d import _TET_RULES, _TRI_RULES
from thinjunction.junction import _source_values

KERNELS = {
    "matmul": (np.matmul, lambda wv, bary: wv @ bary),
    "einsum": (lambda bary, x: np.einsum("qa,tad->tqd", bary, x),
               lambda wv, bary: np.einsum("tq,qa->ta", wv, bary)),
}


def load_reference(junction, data, kernel="matmul", block=120_000):
    points, contract = KERNELS[kernel]
    ctx = junction.ctx
    mesh = junction.mesh
    bary, w = _TET_RULES[5]
    tets = mesh.tets.astype(np.int64)
    b = np.zeros(mesh.num_nodes)
    for start in range(0, mesh.num_tets, block):
        blk = tets[start:start + block]
        pts = points(bary, mesh.nodes[blk])
        wts = np.outer(ctx.volumes[start:start + block], w)
        vals = _source_values(junction, data,
                              pts.reshape(-1, 3)).reshape(wts.shape)
        np.add.at(b, blk, contract(wts * vals, bary))

    tbary, tw = _TRI_RULES[4]
    for i in range(3):
        wall = data.walls[i]
        if wall is None:
            continue
        a, bb = TRANSVERSE_AXES[i]
        tris = mesh.boundary[f"lateral_{i}"].astype(np.int64)
        p = mesh.nodes[tris]
        pts = points(tbary, p).reshape(-1, 3)
        areas = 0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
        wts = np.outer(areas, tw)
        fall = 1.0 - junction.step(pts[:, i])
        trace = fall * wall(pts[:, i], pts[:, a], pts[:, bb])
        s = np.zeros(mesh.num_nodes)
        np.add.at(s, tris, contract(wts * trace.reshape(wts.shape), tbary))
        b -= s
    return b
