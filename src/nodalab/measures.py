"""Tube volumes, nodal measures, and density radii from distance fields.

The nodal measure has one route: Vol(T_t)/(2t) extrapolated to t -> 0 from
tube volumes (in dimension one ``harness.run_yau_check`` counts vertices
instead). The 2-d cross-check against the marching-squares length runs in
``harness.run_yau_check``, which gates on it.

The tube estimator classifies every grid cell as fully inside / fully outside
/ straddling the delta level set using Lipschitz-rigorous margins from corner
distances, then adds for each straddling cell its exact share of the tube
under the closed-form distance of the separable mode. Plain grid-point
counting would carry an O(h) bias; the shares remove it. The band test runs
in blocks of about ``ROW_BLOCK_POINTS`` cells along axis 0, so no grid-sized
temporary is formed. A block reduces the corners of its rows and the next
one (row 0 after the last row of a periodic axis) once for every radius of
a ``tube_volumes`` call, and returns per radius only its fully-in count and
the sum of its straddle shares. The blocks run on a pool of
``usable_cores()`` threads, and the caller adds their results in block
order, so a volume's bits do not depend on the worker count.

The exact distance is a min over axes of 1-d distances, so a point of a cell
misses the tube iff every axis misses, and the cell's share of the tube is
1 - prod_j l_j, where l_j is the fraction of the cell's axis-j side at 1-d
distance >= delta. That distance is piecewise linear with slope +-1, its
kinks are the zeros and the gap midpoints, s_j/2 apart; at 4 or more points
per wavelength a cell spans h_j <= s_j/2, so it holds at most one kink, and
from the distances d0, d1 at its ends (one oracle call per axis on the grid
coordinates) l_j = max(0, 1 - (max(0, delta - d0) + max(0, delta - d1)) / h_j):
a monotone cell loses the stretch of its near end, a V cell (a zero inside)
is all near once delta >= h_j, and a Lambda cell (a gap midpoint inside)
keeps the far stretch around the midpoint, even with both ends near. The
straddle shares are the oracle's, so a grid tube volume departs from
``spectrum.tube_volume_exact`` only where the distance field classifies a
cell wrongly, and by rounding.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distance import ROW_BLOCK_POINTS, DistanceField, raster_error, usable_cores
from .errors import EmptyNodalSetError, ResolutionError, ValidationError
from .nodal import _edge_op
from .spectrum import DomainSpec, EigenMode, nodal_distance_exact


def _axis_mode(mode: EigenMode, j: int) -> EigenMode:
    """1-d mode of axis j: the oracle runs the same float operations on it."""
    dom = mode.domain
    return EigenMode(DomainSpec(dom.kind, (dom.alpha[j],)), (mode.m[j],))


def _axis_miss_fractions(mode: EigenMode, j: int, hj, ncells: int, delta: float) -> np.ndarray:
    """Per cell index on axis j: the fraction of the cell at 1-d distance >= delta.

    Exact for delta >= hj (see the module docstring); ``tube_volumes``' guard
    gives delta >= 2 max(h).
    """
    if mode.m[j] == 0:
        return np.ones(ncells)  # constant factor: distance inf, never hits
    x = np.arange(ncells + 1) * hj
    near = np.maximum(delta - nodal_distance_exact(_axis_mode(mode, j), x[:, None]), 0.0)
    return np.maximum(1.0 - (near[:-1] + near[1:]) / hj, 0.0)


def _block_corner_reduce(rows: np.ndarray, periodic: bool, op) -> np.ndarray:
    """Reduce over the 2^n corners of the cells between consecutive ``rows``."""
    out = op(rows[:-1], rows[1:])
    for axis in range(1, rows.ndim):
        out = _edge_op(out, axis, periodic, op)
    return out


def _band_blocks(dist: np.ndarray, periodic: bool, margin: float, bands, rows: int) -> list:
    """Per block of ``rows`` cell rows, per (delta, miss tables) band: fully-in count, straddle sum.

    A cell is fully inside when its corner minimum + margin < delta, fully
    outside when its corner maximum - margin >= delta, and straddles
    otherwise; it adds 1 - prod_j miss[j][i_j] at its index i, summed in
    row-major order. Only a periodic axis has a cell past its last grid
    point, wrapping to the first. A grid has at least two points per axis,
    so there is at least one block. The blocks run on a thread pool and come
    back in block order; every worker is joined before this returns.
    """
    s0 = dist.shape[0]
    cells0 = s0 if periodic else s0 - 1

    def block(a):
        b = min(a + rows, cells0)
        # the block's corner rows: its own and the next (row 0 past the end)
        corners = dist[a : b + 1] if b < s0 else np.concatenate([dist[a:], dist[:1]])
        lo = _block_corner_reduce(corners, periodic, np.minimum)
        lo += margin
        hi = _block_corner_reduce(corners, periodic, np.maximum)
        hi -= margin
        out = []
        for delta, miss in bands:
            fully_in = lo < delta
            straddle = ~(fully_in | (hi >= delta))
            cells = np.unravel_index(np.flatnonzero(straddle), straddle.shape)
            missed = miss[0][a + cells[0]]
            for j in range(1, len(cells)):
                missed *= miss[j][cells[j]]
            # a straddle cell's share of the tube: 1 - prod_j l_j
            share = float(np.subtract(1.0, missed, out=missed).sum())
            out.append((int(np.count_nonzero(fully_in)), share))
        return out

    with ThreadPoolExecutor(usable_cores()) as pool:
        return list(pool.map(block, range(0, cells0, rows)))


def _band_margin(h) -> float:
    """The band test's Lipschitz margin: the cell diagonal plus the raster error."""
    return float(np.linalg.norm(np.asarray(h))) + raster_error(h)


def tube_reach(h, radii) -> float:
    """Reach of a capped field that ``tube_volumes`` reads at every radius in ``radii``.

    The band test tells a cell from its corner distances below delta + margin
    only: a corner at or past it puts its cell fully outside, whatever its
    value. So a field capped at the largest radius plus the margin classifies
    every cell as the full-range field does; one more cell is slack.
    """
    return max(radii) + _band_margin(h) + max(h)


def tube_volumes(field: DistanceField, radii) -> list[float]:
    """Volumes of the tubes of the given radii around the nodal set, in order.

    One band pass serves every radius: each block reduces its corner
    distances once. Every radius needs delta >= 2 max(h): below it the grid
    cannot resolve the tube, and a ResolutionError is raised rather than
    returning a silently bad estimate. A capped field must reach delta plus
    the band margin (``tube_reach``), or a ValidationError is raised.
    """
    hmax = max(field.h)
    sample = field.sample
    margin = _band_margin(sample.h)
    for delta in radii:
        if not delta > 0:
            raise ValidationError(f"delta must be positive, got {delta}")
        if delta < 2.0 * hmax:
            raise ResolutionError(
                f"delta={delta:g} below resolution guard 2*max(h)={2 * hmax:g}"
            )
        if field.reach < delta + margin:
            raise ValidationError(
                f"distance field capped at {field.reach:g} cannot classify the tube of radius "
                f"{delta:g}: the band test reads it up to {delta + margin:g}"
            )
    if field.empty:
        return [0.0] * len(radii)
    h = np.asarray(sample.h)
    cellvol = float(np.prod(h))
    rows = max(1, ROW_BLOCK_POINTS // int(np.prod(sample.shape[1:])))
    ncells = [s if sample.periodic else s - 1 for s in sample.shape]
    # per radius, axis and cell index: the fraction of the cell where the axis misses
    bands = [
        (delta, [_axis_miss_fractions(sample.mode, j, h[j], nj, delta)
                 for j, nj in enumerate(ncells)])
        for delta in radii
    ]
    inside, share = [0] * len(bands), [0.0] * len(bands)
    for block in _band_blocks(field.dist, sample.periodic, margin, bands, rows):
        for k, (n_in, part) in enumerate(block):
            inside[k] += n_in
            share[k] += part
    return [float(n) * cellvol + cellvol * part for n, part in zip(inside, share)]


def tube_volume(field: DistanceField, delta: float) -> float:
    """Volume of the delta-tube around the nodal set: ``tube_volumes`` at one radius."""
    return tube_volumes(field, [delta])[0]


@dataclass
class NodalMeasure:
    """(n-1)-measure estimate with the tube volumes it was extrapolated from."""

    value: float
    volumes: dict           # tube radius -> Vol(T_t); empty in dimension one
    non_monotone: bool      # Vol(T_t)/(2t) fell as t shrank


def nodal_measure(field: DistanceField, t_list) -> NodalMeasure:
    """(n-1)-measure of the nodal set, for dimension two and up.

    Extrapolates Vol(T_t)/(2t) linearly to t -> 0 (Richardson step over the
    two smallest t), and flags a ratio sequence that is not monotone in t. A
    1-d nodal set is a vertex count, which ``harness.run_yau_check`` takes
    without a field; a 1-d field raises ValidationError.
    """
    if field.sample.n == 1:
        raise ValidationError("a 1-d nodal set is counted by its vertices, not measured by tubes")
    ts = sorted(set(float(t) for t in t_list), reverse=True)
    if len(ts) < 2:
        raise ValidationError("need at least two tube radii to extrapolate")
    volumes = dict(zip(ts, tube_volumes(field, ts)))
    ratios = [volumes[t] / (2.0 * t) for t in ts]
    extrap = ratios[-1] + (ratios[-1] - ratios[-2]) * ts[-1] / (ts[-2] - ts[-1])
    scale = max(abs(r) for r in ratios)
    non_monotone = any(
        b < a - 0.005 * scale for a, b in zip(ratios, ratios[1:])
    )
    return NodalMeasure(extrap, volumes, non_monotone)


def density_radius(field: DistanceField) -> float:
    """Largest distance from any grid point to the nodal set: a full-range field's maximum."""
    if field.reach < math.inf:
        raise ValidationError(
            f"density radius needs a full-range field, not one capped at {field.reach:g}"
        )
    if field.empty:
        raise EmptyNodalSetError("nodal set is empty; density radius undefined")
    return float(field.dist.max())
