"""Distance-to-nodal-set fields on sample grids.

The field is an exact Euclidean distance transform seeded at the nodal vertices
rasterized to their nearest grid points, so pointwise it differs from the true
distance to the interpolated nodal set by at most the rasterization displacement
(half the grid diagonal), well inside the documented 2*max(h) accuracy contract.

The distances come from scipy's feature transform (each point's nearest
seed), cropped first: they are formed on the grid's own block only, with
scipy's float sequence, so the field is bit for bit scipy's distance
transform without its arithmetic and temporaries on the wrap pad.

Periodic axes are handled by wrap-padding the seed mask, transforming the padded
array and cropping. Padding axis j by p_j cells puts every seed image within
R = min_j p_j*h_j of a grid point inside the array, and the padded transform never
undercuts the periodic distance, so a cropped field whose maximum is below R is
exact. The first pad is sized from the seed density; if the certificate fails,
that field's maximum (an upper bound on the periodic distance) sizes a second pad
that passes it. A pad of half a period plus one cell holds every nearest image on
its own, so axes padded that far do not limit R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import ResourceGuardError
from .nodal import NodalApprox

PADDED_POINT_CAP = 90_000_000


@dataclass
class DistanceField:
    """Grid of distances to the extracted nodal set; all-inf when the set is empty."""

    nodal: NodalApprox
    dist: np.ndarray

    @property
    def empty(self) -> bool:
        return self.nodal.empty

    @property
    def sample(self):
        return self.nodal.sample

    @property
    def h(self) -> tuple[float, ...]:
        return self.nodal.sample.h

    @property
    def raster_error(self) -> float:
        """Bound on |field - true distance to vertices|: half the grid cell diagonal."""
        return 0.5 * math.sqrt(sum(hj * hj for hj in self.h))


def _seed_mask(nodal: NodalApprox) -> np.ndarray:
    sample = nodal.sample
    mask = np.zeros(sample.shape, dtype=bool)
    if nodal.vertices.shape[0] == 0:
        return mask
    idx = []
    for j in range(sample.n):
        k = np.round(nodal.vertices[:, j] / sample.h[j]).astype(np.int64)
        if sample.periodic:
            k %= sample.shape[j]
        else:
            k = np.clip(k, 0, sample.shape[j] - 1)
        idx.append(k)
    mask[tuple(idx)] = True
    return mask


def _cropped_distances(seeds: np.ndarray, pads, h) -> np.ndarray:
    """Distances to the nearest seed on the block inside ``pads`` cells per side.

    scipy's float sequence, on the block only: per axis the int32 index
    difference, then float64, times h_j, squared, summed over the axes in
    axis order, and the square root.
    """
    ft = distance_transform_edt(
        ~seeds, sampling=h, return_distances=False, return_indices=True
    )
    shape = tuple(s - 2 * p for s, p in zip(seeds.shape, pads))
    crop = tuple(slice(p, p + s) for p, s in zip(pads, shape))
    total = None
    for j, (p, s, hj) in enumerate(zip(pads, shape, h)):
        near = ft[j][crop]
        near -= np.arange(p, p + s, dtype=np.int32).reshape((-1,) + (1,) * (len(shape) - 1 - j))
        d = near.astype(np.float64)
        d *= hj
        np.multiply(d, d, out=d)
        if total is None:
            total = d
        else:
            total += d
    return np.sqrt(total, out=total)


def distance_field(nodal: NodalApprox, cap: int = PADDED_POINT_CAP) -> DistanceField:
    """Exact Euclidean distance transform of the rasterized nodal vertices.

    An empty nodal set yields an all-infinity field flagged ``empty`` rather
    than an error, so callers can distinguish "no zeros" from "far from zeros".
    ``cap`` bounds the number of points in any one (padded) transform.
    """
    sample = nodal.sample
    seeds = _seed_mask(nodal)
    n_seeds = np.count_nonzero(seeds)
    if n_seeds == 0:
        return DistanceField(nodal, np.full(sample.shape, np.inf))
    if not sample.periodic:
        if seeds.size > cap:
            raise ResourceGuardError(f"distance transform on {seeds.size} points (cap {cap})")
        return DistanceField(nodal, _cropped_distances(seeds, [0] * sample.n, sample.h))
    full = [s // 2 + 1 for s in sample.shape]
    # first guess: grid points per seed, about the spacing of the nodal set
    radius = seeds.size / n_seeds * min(sample.h)
    while True:  # at most twice: the second pad exceeds the first field's maximum
        pads = [min(f, math.ceil(radius / hj) + 1) for f, hj in zip(full, sample.h)]
        padded_size = math.prod(s + 2 * p for s, p in zip(sample.shape, pads))
        if padded_size > cap:
            raise ResourceGuardError(
                f"padded distance transform needs {padded_size} points (cap {cap})"
            )
        padded = np.pad(seeds, [(p, p) for p in pads], mode="wrap")
        dist = _cropped_distances(padded, pads, sample.h)
        reach = min((p * hj for p, f, hj in zip(pads, full, sample.h) if p < f), default=math.inf)
        radius = float(dist.max())
        if radius < reach:
            return DistanceField(nodal, dist)
