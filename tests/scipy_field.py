"""The distance field from scipy's own transform of the whole (padded) seed mask.

The reference that the full-range field, the block-level capped pass and the
tube stream are compared with bit for bit.
"""

import math

import numpy as np
from scipy.ndimage import distance_transform_edt

from nodalab.distance import _seed_mask


def scipy_distance_field(nodal):
    """The field from scipy's own distances of the whole (padded) grid, then cropped."""
    sample = nodal.sample
    seeds = _seed_mask(nodal)
    if not sample.periodic:
        return distance_transform_edt(~seeds, sampling=sample.h)
    full = [s // 2 + 1 for s in sample.shape]
    radius = seeds.size / np.count_nonzero(seeds) * min(sample.h)
    while True:
        pads = [min(f, math.ceil(radius / hj) + 1) for f, hj in zip(full, sample.h)]
        padded = np.pad(seeds, [(p, p) for p in pads], mode="wrap")
        dist = distance_transform_edt(~padded, sampling=sample.h)
        dist = dist[tuple(slice(p, p + s) for p, s in zip(pads, sample.shape))]
        reach = min((p * hj for p, f, hj in zip(pads, full, sample.h) if p < f), default=math.inf)
        radius = float(dist.max())
        if radius < reach:
            return dist
