"""The reference seed raster, and the distance field from scipy's own transform of
the whole (padded) seed mask.

``seed_mask`` rounds every float coordinate of a nodal set's vertices to its
nearest grid point: the raster that ``measures.grid_seeds`` must equal bit
for bit on a sampled mode, and that hand-built vertex sets are seeded with.
The field is the reference that the maximum distance, the seed stencils'
predicates, the band blocks and the tube stream are compared with bit for bit.
"""

import math

import numpy as np
from scipy.ndimage import distance_transform_edt

from nodalab.distance import Seeds


def seed_mask(nodal) -> np.ndarray:
    """Each vertex of ``nodal`` on its nearest grid point: wrapped on a torus, clipped on a box."""
    sample = nodal.sample
    shape = np.asarray(sample.shape)
    k = np.round(nodal.vertices / np.asarray(sample.h)).astype(np.int64)
    k = k % shape if sample.periodic else np.clip(k, 0, shape - 1)
    mask = np.zeros(sample.shape, dtype=bool)
    mask[tuple(k.T)] = True
    return mask


def raster_seeds(nodal) -> Seeds:
    """The ``Seeds`` of ``seed_mask(nodal)``."""
    return Seeds(seed_mask(nodal), nodal.sample.h, nodal.sample.periodic)


def scipy_distance_field(nodal):
    """The field from scipy's own distances of the whole (padded) grid, then cropped."""
    return scipy_seed_field(seed_mask(nodal), nodal.sample.h, nodal.sample.periodic)


def scipy_seed_field(seeds, h, periodic):
    """scipy's field of a nonempty seed mask on a grid of spacing ``h``, wrapped on a torus."""
    if not periodic:
        return distance_transform_edt(~seeds, sampling=h)
    full = [s // 2 + 1 for s in seeds.shape]
    radius = seeds.size / np.count_nonzero(seeds) * min(h)
    while True:
        pads = [min(f, math.ceil(radius / hj) + 1) for f, hj in zip(full, h)]
        padded = np.pad(seeds, [(p, p) for p in pads], mode="wrap")
        dist = distance_transform_edt(~padded, sampling=h)
        dist = dist[tuple(slice(p, p + s) for p, s in zip(pads, seeds.shape))]
        reach = min((p * hj for p, f, hj in zip(pads, full, h) if p < f), default=math.inf)
        radius = float(dist.max())
        if radius < reach:
            return dist
