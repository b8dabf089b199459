"""Nodal domains: connected sign components of a sampled eigenfunction.

Components of {phi > 0} and {phi < 0} are found with 4-connectivity (no
diagonal adjacency, so the checkerboard of a product mode splits into its
2m x 2n rectangles), from the runs of each sign mask along its last axis:
two runs meet when they overlap on neighbouring lines. On a periodic axis
the last line's neighbour is the first, and on a periodic last axis a run
at a line's end meets the run at its start, so the seams take no path of
their own. Grid points with |phi| at or below the sign threshold separate
domains.

``sign_components`` and ``component_inradii`` read the sign masks that
``measures.grid_seeds`` writes in the same chunks as the seeds, so no float
grid is formed. ``sign_components`` labels the two signs one after the
other and keeps only the domains' sizes: no label array is formed. The
positive domains come first, each sign's numbered by its first point in
raster order. ``component_inradii`` reads the largest inner radius: the max
over domains of each domain's max of the distance field is the field's max
over the signed points, bit for bit, which ``distance.max_distance`` reads
from the seeds' coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .distance import max_distance

# annotations only: importing measures here moves it ahead in `import nodalab`,
# which measured about 0.15 MB more RSS after the import
if TYPE_CHECKING:
    from .measures import GridSigns


def _run_domains(mask: np.ndarray, periodic: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of ``mask`` along its last axis, in raster order, and their domains:
    each run's flat start, its flat stop (exclusive) and its domain 0.., the domains
    numbered by their first point in raster order.

    Two runs meet when they overlap on neighbouring lines of a leading axis, or, on
    a periodic last axis, when one ends at its line's last point and the other
    starts at that line's first. Each round hooks the larger root of every edge
    that joins two roots onto the smaller, then jumps pointers until each run
    points at its root, so a root is its domain's smallest run. Cost: one pass
    over the points for the runs, then O(edges) per round and O(runs) per jump.
    A product mode's domains take two rounds, 5 ms for both signs of dim2's
    1280^2 grid. Masks with many small or winding domains cost more than
    scipy's ``label`` did: 0.13 s for 1280^2 points of 50% noise (scipy 0.04 s)
    and 0.07 s for a 2-wide spiral (0.01 s).
    """
    w = mask.shape[-1]
    # each padded line starts and ends outside the mask: its changes alternate start, stop
    change = np.flatnonzero(np.diff(mask.reshape(-1, w), axis=1, prepend=False, append=False))
    line, col = np.divmod(change, w + 1)
    line, start, stop = line[0::2], line[0::2] * w + col[0::2], line[1::2] * w + col[1::2]
    # the pairs of runs that meet; a 1-d box has none
    pairs = [(np.empty(0, dtype=np.int64),) * 2]
    stride = 1
    for side in reversed(mask.shape[:-1]):
        # a run meets the runs of the next line along this axis that overlap it
        wraps = line // stride % side == side - 1
        ids = np.flatnonzero(~wraps | periodic)
        base = np.where(wraps[ids], (1 - side) * stride, stride) * w
        first = np.searchsorted(stop, start[ids] + base, "right")
        count = np.searchsorted(start, stop[ids] + base) - first
        offset = np.repeat(first - (np.cumsum(count) - count), count)
        pairs.append((np.repeat(ids, count), offset + np.arange(offset.size)))
        stride *= side
    if periodic:
        # a run that ends at its line's last point meets the run at the line's first
        ids = np.flatnonzero(stop - line * w == w)
        heads = np.searchsorted(start, line[ids] * w)
        meet = start[heads] == line[ids] * w
        pairs.append((ids[meet], heads[meet]))
    u, v = (np.concatenate(ends) for ends in zip(*pairs))
    parent = np.arange(start.size)
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            break
        u, v, pu, pv = u[split], v[split], pu[split], pv[split]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
    rank = np.cumsum(parent == np.arange(start.size)) - 1
    return start, stop, rank[parent]


def _domain_sizes(mask: np.ndarray, periodic: bool) -> np.ndarray:
    """Points per domain of ``mask`` (int64), in ``_run_domains``' order."""
    start, stop, domain = _run_domains(mask, periodic)
    sizes = np.zeros(int(domain.max(initial=-1)) + 1, dtype=np.int64)
    np.add.at(sizes, domain, stop - start)
    return sizes


@dataclass
class SignComponents:
    """Nodal domains: ``signs`` and ``sizes`` (int64) per domain, the positive ones first."""

    signs: np.ndarray
    sizes: np.ndarray
    cell_volume: float

    @property
    def count(self) -> int:
        return int(self.signs.size)

    @property
    def areas(self) -> np.ndarray:
        """Grid-quadrature volume of each domain."""
        return self.sizes * self.cell_volume


def sign_components(grid: GridSigns) -> SignComponents:
    """Connected components of {phi > SIGN_EPS} and {phi < -SIGN_EPS}."""
    seeds = grid.seeds
    pos, neg = (_domain_sizes(mask, seeds.periodic) for mask in (grid.pos, grid.neg))
    signs = np.repeat(np.array([1, -1], dtype=np.int64), [pos.size, neg.size])
    return SignComponents(signs, np.concatenate([pos, neg]), float(np.prod(np.asarray(seeds.h))))


def component_inradii(grid: GridSigns) -> float:
    """The largest inner radius of the sign domains, up to grid error: the max of the
    distance field to the seeds over the signed points (0.0 when none is signed);
    ``inf`` when there are no seeds, as the field is inf everywhere.

    The field is never formed (``distance.max_distance``). Bit for bit the max
    over the domains of ``np.maximum.at`` over the whole field.
    """
    seeds = grid.seeds
    if not seeds.mask.any():
        return math.inf
    return max_distance(seeds, grid.pos | grid.neg)
