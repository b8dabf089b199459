"""Tube volumes, nodal measures, and density radii from distance fields.

The nodal measure has one route: Vol(T_t)/(2t) extrapolated to t -> 0 from
tube volumes (the vertex count in dimension one). The 2-d cross-check against
the marching-squares length runs in ``harness.run_yau_check``, which gates on it.

The tube estimator classifies every grid cell as fully inside / fully outside
/ straddling the delta level set using Lipschitz-rigorous margins from corner
distances, then adds for each straddling cell its exact share of the tube
under the closed-form distance of the separable mode. Plain grid-point
counting would carry an O(h) bias; the shares remove it. The band test runs
in blocks of about ``ROW_BLOCK_POINTS`` cells along axis 0: a block reduces
the corners of its rows and the next one (row 0 after the last row of a
periodic axis), so no grid-sized temporary is formed, and the block's
straddle shares are summed before the next block is classified.

The exact distance is a min over axes of 1-d distances, so a point of a cell
misses the tube iff every axis misses, and axis j's distance depends only on
the cell index i_j and the offset u_j in [0, 1) through the oracle's float
chain ``(i_j + u_j) * h_j -> mod(x - off, s) -> min(r, s - r)``. Offsets run
over the lattice u = k * 2**-53. Every step is monotone, so within one cell
the 1-d distance is monotone in u_j, V-shaped (the cell holds a zero) or
Lambda-shaped (it holds a gap midpoint), and the cell's two end distances,
at u = 0 and u = 1 - 2**-53, decide it: both ends below delta, the axis hits
everywhere (a monotone or V cell); both ends at least delta, it misses
everywhere (a monotone or Lambda cell; a V cell's ends lie within h_j of its
zero, below delta >= 2 h_j); one end far, the far set is one interval of u
holding that end, and one bisection over k with the oracle on a 1-d mode of
the axis finds its edge. The tables are built per call. Axis j misses on a
length l_j of u (t for a prefix table, 1 - t for a suffix one), so the cell's
share of the tube is 1 - prod_j l_j. The straddle shares are the oracle's, so
a grid tube volume departs from ``spectrum.tube_volume_exact`` only where the
distance field classifies a cell wrongly, and by rounding.

The ends cannot decide a Lambda cell with both ends near and its midpoint
far. That needs s_j/2 - h_j < delta <= s_j/2, where the gap s_j - 2 delta
between neighbouring tubes is under two cells, so ``tube_volume`` refuses
the window (``_gap_floor``), the mirror of its guard delta >= 2 max(h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import ROW_BLOCK_POINTS, DistanceField
from .errors import EmptyNodalSetError, ResolutionError, ValidationError
from .nodal import _edge_op
from .spectrum import DomainSpec, EigenMode, nodal_distance_exact

# a cell offset u is k * 2**-53 for an integer k in [0, 2**53)
U_STEPS = 1 << 53
U_ULP = 2.0**-53


def _gap_floor(s: float, hj: float) -> float:
    """Lower end of an axis's gap window s/2 - hj < delta <= s/2, widened for rounding.

    A Lambda cell holds a gap midpoint, so in exact arithmetic its ends lie at
    least s/2 - hj from a zero. With u = 2^-53 and L >= s the axis length, the
    oracle's chain (the cell ends' x, x - off, the mod's added s for x < off,
    s - r) moves each end's distance by at most u (6 L + 2 s). The floor
    fl(s/2 - fl(hj (1 + 2^-20))) is at most s/2 - hj - 2^-20 hj (1 - 2 u) + u s/2,
    so below it both ends are far while L / hj < 2^29; the bound stated,
    L / hj < 2^28, keeps a factor two. A grid under ``grid.GRID_POINT_CAP``
    has fewer than 2^25 cells on an axis.
    """
    return 0.5 * s - hj * (1.0 + 2.0**-20)


def _axis_mode(mode: EigenMode, j: int) -> EigenMode:
    """1-d mode of axis j: the oracle runs the same float operations on it."""
    dom = mode.domain
    return EigenMode(DomainSpec(dom.kind, (dom.alpha[j],)), (mode.m[j],), (mode.kinds[j],))


def _axis_miss_table(mode: EigenMode, j: int, hj, ncells: int, delta: float):
    """Per cell index on axis j: where in u the axis misses (its distance >= delta).

    Returns (t, suffix): the axis misses iff ``(u < t) != suffix``, so t = 0
    never misses, t = 1 always does, and otherwise the miss set is [0, t) or,
    for a suffix, [t, 1). delta must be at least 2 hj and lie outside the
    axis's gap window (``_gap_floor``).
    """
    t = np.ones(ncells)
    suffix = np.zeros(ncells, dtype=bool)
    if mode.m[j] == 0:
        return t, suffix  # constant factor: distance inf, never hits
    s = mode.factor_zero_spacing(j)
    if delta > 0.5 * s:
        # r in [0, s]: r <= s/2 gives d = r, else d = s - r rounds to <= s/2
        return np.zeros(ncells), suffix
    one_d = _axis_mode(mode, j)
    i = np.arange(ncells)
    last = U_STEPS - 1

    def dist(cells, k):
        x = (cells + k * U_ULP) * hj
        return nodal_distance_exact(one_d, x[:, None])

    # both ends near: the axis hits at every u; both far: it misses at every u
    far0, far1 = dist(i, 0) >= delta, dist(i, last) >= delta
    t[~(far0 | far1)] = 0.0
    cross = np.flatnonzero(far0 != far1)
    if cross.size:
        # first k where (d >= delta) == far1: false at k = 0, true at k = last
        up = far1[cross]
        a = np.zeros(cross.size, dtype=np.int64)
        b = np.full(cross.size, last)
        while (b - a > 1).any():
            k = (a + b) // 2
            flip = (dist(cross, k) >= delta) == up
            a = np.where(flip, a, k)
            b = np.where(flip, k, b)
        t[cross] = b * U_ULP
        suffix[cross] = up
    return t, suffix


def _block_corner_reduce(rows: np.ndarray, periodic: bool, op) -> np.ndarray:
    """Reduce over the 2^n corners of the cells between consecutive ``rows``."""
    out = op(rows[:-1], rows[1:])
    for axis in range(1, rows.ndim):
        out = _edge_op(out, axis, periodic, op)
    return out


def _band_cells(dist: np.ndarray, periodic: bool, delta: float, margin: float, rows: int):
    """Per block of ``rows`` cell rows: (count of cells fully in the tube, straddle cell indices).

    A cell is fully inside when its corner minimum + margin < delta, fully
    outside when its corner maximum - margin >= delta. Only a periodic axis
    has a cell past its last grid point, wrapping to the first. A grid has at
    least two points per axis, so there is at least one block; the blocks'
    straddle lists, joined in order, are the whole grid's.
    """
    s0 = dist.shape[0]
    cells0 = s0 if periodic else s0 - 1
    for a in range(0, cells0, rows):
        b = min(a + rows, cells0)
        # the block's corner rows: its own and the next (row 0 past the end)
        block = dist[a : b + 1] if b < s0 else np.concatenate([dist[a:], dist[:1]])
        lo = _block_corner_reduce(block, periodic, np.minimum)
        lo += margin
        fully_in = lo < delta
        hi = _block_corner_reduce(block, periodic, np.maximum)
        hi -= margin
        straddle = ~(fully_in | (hi >= delta))
        cells = np.argwhere(straddle)
        cells[:, 0] += a
        yield int(np.count_nonzero(fully_in)), cells


def tube_volume(field: DistanceField, delta: float) -> float:
    """Volume of the delta-tube around the nodal set.

    Requires delta >= 2 max(h), and on every axis with zeros delta outside the
    gap window s_j/2 - h_j < delta <= s_j/2 (``_gap_floor``): there the grid
    cannot resolve the tube, or the gap between neighbouring tubes, and a
    ResolutionError is raised rather than returning a silently bad estimate.
    """
    if delta <= 0:
        raise ValidationError("delta must be positive")
    hmax = max(field.h)
    if delta < 2.0 * hmax:
        raise ResolutionError(
            f"delta={delta:g} below resolution guard 2*max(h)={2 * hmax:g}"
        )
    sample = field.sample
    for j, hj in enumerate(sample.h):
        s = sample.mode.factor_zero_spacing(j)
        if _gap_floor(s, hj) < delta <= 0.5 * s:
            raise ResolutionError(
                f"delta={delta:g} within h of half the zero spacing {0.5 * s:g} on axis {j}: "
                f"the gap {s - 2 * delta:g} between neighbouring tubes is under two cells"
            )
    if field.empty:
        return 0.0
    h = np.asarray(sample.h)
    cellvol = float(np.prod(h))
    diag = float(np.linalg.norm(h))
    margin = diag + field.raster_error
    rows = max(1, ROW_BLOCK_POINTS // int(np.prod(sample.shape[1:])))
    ncells = [s if sample.periodic else s - 1 for s in sample.shape]
    # per axis and cell index: the length of u where the axis misses
    miss = []
    for j in range(sample.n):
        t, suffix = _axis_miss_table(sample.mode, j, h[j], ncells[j], delta)
        miss.append(np.where(suffix, 1.0 - t, t))
    inside, share = 0, 0.0
    for n_in, cells in _band_cells(field.dist, sample.periodic, delta, margin, rows):
        inside += n_in
        missed = miss[0][cells[:, 0]]
        for j in range(1, sample.n):
            missed *= miss[j][cells[:, j]]
        # a straddle cell's share of the tube: 1 - prod_j l_j
        share += float(np.subtract(1.0, missed, out=missed).sum())
    return float(inside) * cellvol + cellvol * share


@dataclass
class NodalMeasure:
    """(n-1)-measure estimate with the tube volumes it was extrapolated from."""

    value: float
    volumes: dict           # tube radius -> Vol(T_t); empty in dimension one
    non_monotone: bool      # Vol(T_t)/(2t) fell as t shrank


def nodal_measure(field: DistanceField, t_list) -> NodalMeasure:
    """(n-1)-measure of the nodal set.

    Dimension one counts vertices. Higher dimensions extrapolate Vol(T_t)/(2t)
    linearly to t -> 0 (Richardson step over the two smallest t), and flag a
    ratio sequence that is not monotone in t.
    """
    sample = field.sample
    if sample.n == 1:
        return NodalMeasure(float(field.nodal.vertices.shape[0]), {}, False)
    ts = sorted(set(float(t) for t in t_list), reverse=True)
    if len(ts) < 2:
        raise ValidationError("need at least two tube radii to extrapolate")
    volumes = {t: tube_volume(field, t) for t in ts}
    ratios = [volumes[t] / (2.0 * t) for t in ts]
    extrap = ratios[-1] + (ratios[-1] - ratios[-2]) * ts[-1] / (ts[-2] - ts[-1])
    scale = max(abs(r) for r in ratios)
    non_monotone = any(
        b < a - 0.005 * scale for a, b in zip(ratios, ratios[1:])
    )
    return NodalMeasure(extrap, volumes, non_monotone)


def density_radius(field: DistanceField) -> float:
    """Largest distance from any grid point to the nodal set."""
    if field.empty:
        raise EmptyNodalSetError("nodal set is empty; density radius undefined")
    return float(field.dist.max())
