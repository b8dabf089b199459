"""The whole full-range distance field, for tests that compare it point by point.

No code path in nodalab forms this field: the density radius reads the
transform's certified maximum and the inner radii fold its blocks into
per-domain maxima. ``whole_field`` is a writing fold over
``distance.full_range``, so it is the field those consumers read, block by
block.
"""

import numpy as np

from nodalab.distance import full_range


def whole_field(seeds) -> np.ndarray:
    """The float64 distance from every grid point to the nearest seed of ``seeds``,
    each block of rows written into one output; all-inf when there are no seeds."""
    if not seeds.mask.any():
        return np.full(seeds.mask.shape, np.inf)
    dist = np.empty(seeds.mask.shape)

    def write(_, rows, d):
        dist[rows] = d

    full_range(seeds, lambda: None, write)
    return dist
