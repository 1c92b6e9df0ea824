"""Per-node grid scan: the reference oracle._grid_ssr is checked against.

It builds every grid node's permittivity vector and runs the forward
model's array kernel, link_totals, on chunks of nodes, so Fresnel is
evaluated at every (node, bounce) pair. A node that leaves a link below
GAIN_FLOOR gets SSR = +inf, without taking log10 of zero.
oracle._grid_ssr must return the same SSR at every node, bit for bit.
"""

import math

import numpy as np

from permgamp.forward_model import GAIN_FLOOR, link_totals
from permgamp.oracle import GRID_SEGMENT_ELEMENTS


def grid_ssr(table, axes, y, polarization):
    """SSR of y against the link gains at every node, shaped like the grid."""
    size = math.prod(len(ax) for ax in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    eps_nodes = np.stack([m.reshape(-1) for m in mesh], axis=1)
    slots = max(1, table.friis.size * max(1, table.n_bounces))
    chunk = max(1, GRID_SEGMENT_ELEMENTS // slots)
    ssr = np.empty(size)
    for start in range(0, size, chunk):
        totals = link_totals(table, eps_nodes[start:start + chunk], polarization)
        low = (totals < GAIN_FLOOR).any(axis=1)
        resid = 10.0 * np.log10(np.where(low[:, None], 1.0, totals)) - np.asarray(y)
        ssr[start:start + chunk] = np.where(low, math.inf, np.einsum("ij,ij->i", resid, resid))
    return ssr.reshape(mesh[0].shape)
