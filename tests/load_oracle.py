"""Full-mesh reference for ``junction.assemble_load``.

The former assembly: the interior data integrated with the degree-5 rule
over every tet of the truncated junction, in blocks added in tet order,
minus the wall traces.  Kept as the oracle that the load integrated over
the band tets only must match bit for bit.
"""

import numpy as np

from thinjunction.config import TRANSVERSE_AXES
from thinjunction.fem3d import _TET_RULES
from thinjunction.junction import _source_values


def load_reference(junction, data, block=120_000):
    ctx = junction.ctx
    mesh = junction.mesh
    bary, w = _TET_RULES[5]
    tets = mesh.tets.astype(np.int64)
    b = np.zeros(mesh.num_nodes)
    for start in range(0, mesh.num_tets, block):
        blk = tets[start:start + block]
        pts = np.einsum("qa,tad->tqd", bary, mesh.nodes[blk])
        wts = np.outer(ctx.volumes[start:start + block], w)
        vals = _source_values(junction, data,
                              pts.reshape(-1, 3)).reshape(wts.shape)
        np.add.at(b, blk, np.einsum("tq,qa->ta", wts * vals, bary))

    for i in range(3):
        wall = data.walls[i]
        if wall is None:
            continue
        a, bb = TRANSVERSE_AXES[i]

        def trace(pts, wall=wall, i=i, a=a, bb=bb):
            fall = 1.0 - junction.step(pts[:, i])
            return fall * wall(pts[:, i], pts[:, a], pts[:, bb])

        b -= ctx.surface_load(f"lateral_{i}", trace, degree=4)
    return b
