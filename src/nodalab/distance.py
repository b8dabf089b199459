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
Each slab computes its distances a few rows at a time into one buffer, so no
grid-sized temporary is formed, and the slab loop keeps their maximum for the
certificate, over every point. What becomes of a block is up to its
consumer (``full_range``). The slab count is bounded so the windows in
flight hold at most twice the unsplit padded rows. An unpadded grid (a box
or the interval) has no halo and is one transform.

The tube volumes read no distances: ``seed_stencils`` tells from a window of
seed rows whether a point's distance capped at a reach passes a threshold,
exactly: the predicate is monotone in the least, over the seeds, of scipy's
float sequence for the seed's offset l, which does not fall as any |l_j|
grows, so it is the window dilated by ``stencil_widths``. The density radius
and the sign domains' inner radii read a maximum, which a cap would clip, so
they keep the full-range transform and its certificate. No code path forms
the whole field: ``measures.density_radius`` reads the certified maximum and
``components.component_inradii`` folds each block into per-domain maxima.
Both read a ``Seeds`` (``measures.grid_seeds``), so no float grid is held.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import ResourceGuardError

PADDED_POINT_CAP = 90_000_000
# grid points per block of rows in the slab distances and the tube stream's band blocks:
# bounds their temporaries
ROW_BLOCK_POINTS = 1 << 16


def raster_error(h) -> float:
    """Bound on |field - true distance to vertices|: half the grid cell diagonal."""
    return 0.5 * math.sqrt(sum(hj * hj for hj in h))


def raster_index(coords: np.ndarray, hj: float, nj: int, periodic: bool) -> np.ndarray:
    """Nearest grid index along an axis of ``nj`` points: wrapped on a torus, clipped on a box."""
    k = np.round(coords / hj).astype(np.int64)
    return k % nj if periodic else np.clip(k, 0, nj - 1)


@dataclass
class Seeds:
    """The rasterized nodal vertices, with the grid's spacing and wrap: all a transform reads."""

    mask: np.ndarray
    h: tuple[float, ...]
    periodic: bool


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


def _cropped_distances(seeds: np.ndarray, pads, h, start, fold) -> tuple[list, float]:
    """Distances to the nearest seed on the block inside ``pads`` cells per side, folded.

    scipy's float sequence, on the block only: per axis the int32 index
    difference, then float64, times h_j, squared, summed over the axes in
    axis order, and the square root. The transform runs in row slabs on a
    thread pool. Each slab computes a few rows at a time into one buffer and
    hands them to its own accumulator ``acc = start()`` as ``fold(acc, rows,
    d)``, ``rows`` the grid rows' slice. Returns the slabs' accumulators and
    the maximum distance; every worker is joined before this returns.
    """
    shape = tuple(s - 2 * p for s, p in zip(seeds.shape, pads))
    p0 = pads[0]
    slabs = _slab_count(shape[0], p0)
    edges = [shape[0] * k // slabs for k in range(slabs + 1)]
    step = max(1, ROW_BLOCK_POINTS // math.prod(shape[1:]))

    def slab(a, b):
        ft = distance_transform_edt(
            ~seeds[a : b + 2 * p0], sampling=h, return_distances=False, return_indices=True
        )
        acc, top = start(), 0.0
        buf = np.empty((min(step, b - a),) + shape[1:])
        for r in range(a, b, step):
            piece = buf[: min(r + step, b) - r]
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
            fold(acc, slice(r, r + len(piece)), piece)
            top = max(top, float(piece.max()))
        return acc, top

    with ThreadPoolExecutor(slabs) as pool:
        done = list(pool.map(slab, edges[:-1], edges[1:]))
    return [acc for acc, _ in done], max(top for _, top in done)


def full_range(seeds: Seeds, start, fold) -> tuple[list, float]:
    """The full-range field of a nonempty seed set, folded block by block: the slabs'
    accumulators and the field's maximum.

    ``start`` and ``fold`` are as in ``_cropped_distances``: every grid point's
    distance reaches exactly one ``fold`` of the attempt whose accumulators
    and maximum are returned, the one that passes the certificate.
    ``PADDED_POINT_CAP`` bounds the points of the (padded) array, whichever
    slabs it is transformed in.
    """
    cap = PADDED_POINT_CAP
    mask, h = seeds.mask, seeds.h
    if not seeds.periodic:
        if mask.size > cap:
            raise ResourceGuardError(f"distance transform on {mask.size} points (cap {cap})")
        return _cropped_distances(mask, [0] * mask.ndim, h, start, fold)
    full = [s // 2 + 1 for s in mask.shape]
    # first guess: grid points per seed, about the spacing of the nodal set
    radius = mask.size / np.count_nonzero(mask) * min(h)
    while True:  # at most twice: the second pad exceeds the first field's maximum
        pads = [min(f, math.ceil(radius / hj) + 1) for f, hj in zip(full, h)]
        padded_size = math.prod(s + 2 * p for s, p in zip(mask.shape, pads))
        if padded_size > cap:
            raise ResourceGuardError(
                f"padded distance transform needs {padded_size} points (cap {cap})"
            )
        padded = np.pad(mask, [(p, p) for p in pads], mode="wrap")
        accs, radius = _cropped_distances(padded, pads, h, start, fold)
        certified = min(
            (p * hj for p, f, hj in zip(pads, full, h) if p < f), default=math.inf
        )
        if radius < certified:
            return accs, radius


def capped_pads(shape, h, reach: float, periodic: bool) -> list[int]:
    """Per axis, the seed window cells on each side that every seed nearer than ``reach`` lies within.

    floor(reach/h_j) + 1 cells, at most half a period plus one cell on a
    torus and the axis length less one on a box: those reach every seed.
    """
    full = [s // 2 + 1 if periodic else s - 1 for s in shape]
    return [f if reach / hj >= f else math.floor(reach / hj) + 1 for f, hj in zip(full, h)]


def stencil_widths(h, pads, reach: float, shift: float, delta: float) -> np.ndarray:
    """Per |l_j| <= p_j on axes 0 .. n-2: the largest |l_{n-1}| <= p_{n-1} (or -1) at which a
    seed l cells away has a capped distance v with fl(v + shift) < delta. v, scipy's float
    sequence sqrt(fl(... fl(fl((l_0 h_0)^2) + fl((l_1 h_1)^2)) ...)) or inf at or above
    ``reach``, does not fall as |l_{n-1}| grows, and the predicate is monotone in v, so it
    holds on a prefix of the last axis.
    """
    steps = [np.arange(p + 1) * hj for p, hj in zip(pads, h)]
    v = np.sqrt(reduce(np.add.outer, [step * step for step in steps]))
    return np.count_nonzero((v < reach) & (v + shift < delta), axis=-1) - 1


def seed_stencils(win: np.ndarray, pads, widths) -> list[np.ndarray]:
    """Per array of ``stencil_widths``: its predicate of the least capped distance to a seed of ``win``.

    ``win`` is a seed mask padded by ``pads`` cells on each side of every axis
    (``capped_pads``): wrapped on a torus, no seeds on a box, and on axis 0 the
    neighbouring rows; the masks cover the points inside the pads. The seeds, dilated
    along the last axis a cell at a time, are ORed into each mask shifted by every
    signed offset on the other axes as its width is reached.
    """
    inner = [s - 2 * p for s, p in zip(win.shape, pads)]

    def cut(j, l):
        return slice(pads[j] + l, pads[j] + l + inner[j])

    # (width, mask, signed offsets on the other axes) of every stencil row, by width
    plan = sorted(
        (int(wd[lead]), k, signed)
        for k, wd in enumerate(widths)
        for lead in np.ndindex(wd.shape)
        if wd[lead] >= 0
        for signed in itertools.product(*[(l, -l) if l else (0,) for l in lead])
    )
    masks = [np.zeros(inner, dtype=bool) for _ in widths]
    dilated, grown = win[..., cut(-1, 0)].copy(), 0
    for w, k, signed in plan:
        for grown in range(grown + 1, w + 1):
            dilated |= win[..., cut(-1, grown)]
            dilated |= win[..., cut(-1, -grown)]
        masks[k] |= dilated[tuple(cut(j, l) for j, l in enumerate(signed))]
    return masks

