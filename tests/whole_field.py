"""The whole distance field, for tests that compare it point by point.

No code path in nodalab forms this field: the density radius and the inner
radii read only its maximum (``distance.max_distance``), and the tube
stream reads seed stencils. ``whole_field`` is scipy's own transform of the
seed mask (``scipy_field.scipy_seed_field``), the bitwise reference those
are compared with.
"""

import numpy as np

from scipy_field import scipy_seed_field


def whole_field(seeds) -> np.ndarray:
    """The float64 distance from every grid point to the nearest seed of ``seeds``;
    all-inf when there are no seeds."""
    if not seeds.mask.any():
        return np.full(seeds.mask.shape, np.inf)
    return scipy_seed_field(seeds.mask, seeds.h, seeds.periodic)
