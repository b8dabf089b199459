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

The same certificate lets the padded transform run in row slabs, one per
usable core on a thread pool (scipy's feature transform releases the GIL).
The slab of grid rows [a, b) transforms rows [a, b + 2 p_0) of the padded
mask: its own rows with the axis-0 pad on both sides as a halo. A seed image
nearer than R to a point of the slab lies within p_0 rows of it, so inside
the window, and the field's maximum below R leaves no nearest seed outside.
Each slab writes its distances into its rows of the one output field, a few
rows at a time, so no grid-sized temporary is formed. The slab count is
bounded so the windows in flight hold at most twice the unsplit padded rows.
An unpadded grid (a box or the interval) has no halo and is one transform.

The tube volumes do not read a whole field: ``measures.streamed_tubes``
computes distances below a cap one block of rows at a time with
``capped_rows``, which runs no scipy transform. The density radius and the
sign domains' inner radii read a field's maximum, which a cap would clip, so
they keep this module's full-range field and its certificate.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import ResourceGuardError
from .nodal import NodalApprox

PADDED_POINT_CAP = 90_000_000
# grid points per block of rows in the slab distances and the tube stream's band blocks:
# bounds their temporaries
ROW_BLOCK_POINTS = 1 << 16


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


def raster_error(h) -> float:
    """Bound on |field - true distance to vertices|: half the grid cell diagonal."""
    return 0.5 * math.sqrt(sum(hj * hj for hj in h))


def raster_index(coords: np.ndarray, hj: float, nj: int, periodic: bool) -> np.ndarray:
    """Nearest grid index along an axis of ``nj`` points: wrapped on a torus, clipped on a box."""
    k = np.round(coords / hj).astype(np.int64)
    return k % nj if periodic else np.clip(k, 0, nj - 1)


def _seed_mask(nodal: NodalApprox) -> np.ndarray:
    sample = nodal.sample
    mask = np.zeros(sample.shape, dtype=bool)
    if nodal.vertices.shape[0] == 0:
        return mask
    idx = [
        raster_index(nodal.vertices[:, j], sample.h[j], sample.shape[j], sample.periodic)
        for j in range(sample.n)
    ]
    mask[tuple(idx)] = True
    return mask


def usable_cores() -> int:
    """Cores this process may run on: the threads of the EDT slabs and of the tube stream."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slab_count(rows: int, pad: int) -> int:
    """Slabs of ``rows`` grid rows, each transformed with ``pad`` halo rows per side.

    One per usable core, as long as the k windows' rows + 2 k pad stay within
    twice the unsplit rows + 2 pad; without a pad there is no halo and one slab.
    """
    if pad == 0:
        return 1
    return min(usable_cores(), rows, 2 + rows // (2 * pad))


def _cropped_distances(seeds: np.ndarray, pads, h) -> np.ndarray:
    """Distances to the nearest seed on the block inside ``pads`` cells per side.

    scipy's float sequence, on the block only: per axis the int32 index
    difference, then float64, times h_j, squared, summed over the axes in
    axis order, and the square root. The transform runs in row slabs on a
    thread pool; every worker is joined before this returns.
    """
    shape = tuple(s - 2 * p for s, p in zip(seeds.shape, pads))
    out = np.empty(shape)
    p0 = pads[0]
    slabs = _slab_count(shape[0], p0)
    edges = [shape[0] * k // slabs for k in range(slabs + 1)]
    step = max(1, ROW_BLOCK_POINTS // math.prod(shape[1:]))

    def slab(a, b):
        ft = distance_transform_edt(
            ~seeds[a : b + 2 * p0], sampling=h, return_distances=False, return_indices=True
        )
        for r in range(a, b, step):
            piece = out[r : min(r + step, b)]
            # the piece in window indices: grid row i is window row i - a + p0
            first = (r - a + p0,) + tuple(pads[1:])
            crop = tuple(slice(f, f + s) for f, s in zip(first, piece.shape))
            for j, (f, s, hj) in enumerate(zip(first, piece.shape, h)):
                near = ft[j][crop]
                along = (-1,) + (1,) * (len(shape) - 1 - j)
                near -= np.arange(f, f + s, dtype=np.int32).reshape(along)
                d = near.astype(np.float64)
                d *= hj
                if j == 0:
                    np.multiply(d, d, out=piece)
                else:
                    np.multiply(d, d, out=d)
                    piece += d
            np.sqrt(piece, out=piece)

    with ThreadPoolExecutor(slabs) as pool:
        list(pool.map(slab, edges[:-1], edges[1:]))
    return out


def capped_pads(shape, h, reach: float, periodic: bool) -> list[int]:
    """Per axis, the window cells ``capped_rows`` needs on each side for a field capped at ``reach``.

    floor(reach/h_j) + 1 cells, at most half a period plus one cell on a
    torus and the axis length less one on a box: those reach every seed.
    """
    full = [s // 2 + 1 if periodic else s - 1 for s in shape]
    return [f if reach / hj >= f else math.floor(reach / hj) + 1 for f, hj in zip(full, h)]


def capped_rows(win: np.ndarray, pads, h, reach: float) -> np.ndarray:
    """Distances below ``reach`` to the nearest seed of ``win``, ``inf`` at and above it.

    ``win`` is a seed mask padded by ``pads`` cells on each side of every axis
    (``capped_pads``): wrapped on a torus, no seeds on a box, and on axis 0
    the neighbouring rows. The result covers the rows and columns inside the
    pads. This is the separable transform of Felzenszwalb and Huttenlocher
    (Theory of Computing 8, 2012) cut off at the window. Axis 0 gives each
    point the square of its nearest seed row's offset within p_0 times h_0;
    each further axis, in axis order, the least running sum plus (l h_j)^2
    over |l| <= p_j; then the square root, and values >= reach become
    ``inf``. These are scipy's float operations in scipy's order (float(k) *
    h_j, squared, summed over the axes in axis order), and rounding is
    monotone, so each value is the least float distance over the window's
    seed images. A seed image nearer than the reach lies within p_j cells on
    every axis, so below the reach that is the least over all images: the
    distance of scipy's full-range transform, which the tests compare bit for
    bit. Each row's values depend on its own neighbourhood only, so any split
    of a grid into windows of rows gives the same bits. The work is
    O(sum_j p_j) per point.
    """
    p0 = pads[0]
    rows = win.shape[0] - 2 * p0
    # axis 0: (l h_0)^2 of the nearest seed row, l <= p0; nearer rows are written later
    d = np.full((rows,) + win.shape[1:], np.inf)
    for l in range(p0, -1, -1):
        step = l * h[0]
        near = win[p0 + l : p0 + l + rows] | win[p0 - l : p0 - l + rows]
        np.copyto(d, step * step, where=near)
    for j in range(1, win.ndim):
        pj = pads[j]
        nj = win.shape[j] - 2 * pj
        # shifted[pj + l]: the running sums l cells along axis j
        shifted = [d[(slice(None),) * j + (slice(i, i + nj),)] for i in range(2 * pj + 1)]
        d, t = shifted[pj].copy(), np.empty(shifted[pj].shape)
        for l in range(1, pj + 1):
            np.minimum(shifted[pj + l], shifted[pj - l], out=t)
            step = l * h[j]
            t += step * step
            np.minimum(d, t, out=d)
    np.sqrt(d, out=d)
    d[d >= reach] = np.inf
    return d


def distance_field(nodal: NodalApprox) -> DistanceField:
    """Exact Euclidean distance transform of the rasterized nodal vertices.

    An empty nodal set yields an all-infinity field flagged ``empty`` rather
    than an error, so callers can distinguish "no zeros" from "far from zeros".
    ``PADDED_POINT_CAP`` bounds the points of the (padded) array, whichever
    slabs it is transformed in.
    """
    cap = PADDED_POINT_CAP
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
        certified = min(
            (p * hj for p, f, hj in zip(pads, full, sample.h) if p < f), default=math.inf
        )
        radius = float(dist.max())
        if radius < certified:
            return DistanceField(nodal, dist)
