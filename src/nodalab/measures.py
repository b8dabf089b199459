"""Tube volumes, nodal measures, and density radii.

Every grid tube volume comes from ``streamed_tubes``, which streams a mode's
grid; ``tube_measure`` extrapolates Vol(T_t)/(2t) from its volumes to t -> 0
for the nodal measure (in dimension one ``harness.run_yau_check`` counts
vertices instead). The 2-d cross-check against the marching-squares length
runs in ``harness.run_yau_check``, which gates on it. The density radius is
the maximum of a full-range ``distance.DistanceField``.

The tube estimator classifies every grid cell as fully inside / fully outside
/ straddling the delta level set using Lipschitz-rigorous margins from corner
distances, then adds for each straddling cell its exact share of the tube
under the closed-form distance of the separable mode. Plain grid-point
counting would carry an O(h) bias; the shares remove it. The band test runs
in band blocks of about ``ROW_BLOCK_POINTS`` cells along axis 0. A block
reduces the corners of its rows and the next one (row 0 after the last row
of a periodic axis) once for every radius, and returns per radius only its
fully-in count and the sum of its straddle shares; the caller adds the
blocks' results in block order.

``streamed_tubes`` runs that estimator on a mode's grid without forming any
grid-sized array. It takes the grid in passes of whole rows, each a run of
consecutive band blocks, on a pool of ``usable_cores()`` threads. A pass
samples its corner rows plus p_0 + 1 more on each side (wrapped on a torus),
where p_0 is the capped distance window of ``distance.capped_pads`` on axis
0; ``grid.sample_grid`` is an outer product of per-axis factors, so these
rows are bitwise the whole grid's. It finds their vertices with the grid's
sign-mask code at global row indices, rasterizes them into a seed window,
and runs ``distance.capped_rows`` and the band test on each of its band
blocks. A field capped at the largest radius plus the band margin plus one
cell classifies every cell as the full-range field does, because a corner at
or past delta + margin puts its cell fully outside whatever its value. On a
2-d grid a pass can also return the marching-squares sort keys and segment
lengths of its crossed cells; the caller joins them in row-major order and
sorts and sums them once, as ``nodal.marching_squares`` does. So a volume's
and a length's bits do not depend on the worker count or the pass size, and
equal those of the band test on the whole grid's full-range field, added in
the same band blocks. ``grid.GRID_POINT_CAP`` still bounds the whole
grid's size, though no pass holds more than ``PASS_BLOCKS`` band blocks of
rows.

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
from functools import reduce

import numpy as np

from .distance import (
    ROW_BLOCK_POINTS,
    DistanceField,
    capped_pads,
    capped_rows,
    raster_error,
    raster_index,
    usable_cores,
)
from .errors import EmptyNodalSetError, ResolutionError, ValidationError
from .grid import axis_factors, grid_shape
from .nodal import _corner_reduce, _window_vertices, crossed_segments, segment_sum
from .spectrum import DomainSpec, EigenMode, nodal_distance_exact

# band blocks per pass of the tube stream, at most: bounds the rows a worker holds
PASS_BLOCKS = 16


def _axis_mode(mode: EigenMode, j: int) -> EigenMode:
    """1-d mode of axis j: the oracle runs the same float operations on it."""
    dom = mode.domain
    return EigenMode(DomainSpec(dom.kind, (dom.alpha[j],)), (mode.m[j],))


def _axis_miss_fractions(mode: EigenMode, j: int, hj, ncells: int, delta) -> np.ndarray:
    """Per cell index on axis j: the fraction of the cell at 1-d distance >= delta.

    delta is one radius, or an array of radii with one row of fractions
    each; the oracle runs once on the cell ends for all of them. Exact for
    delta >= hj (see the module docstring); the radius guard gives
    delta >= 2 max(h).
    """
    delta = np.asarray(delta, dtype=float)[..., None]
    if mode.m[j] == 0:
        # constant factor: distance inf, never hits
        return np.ones(delta.shape[:-1] + (ncells,))
    x = np.arange(ncells + 1) * hj
    near = np.maximum(delta - nodal_distance_exact(_axis_mode(mode, j), x[:, None]), 0.0)
    return np.maximum(1.0 - (near[..., :-1] + near[..., 1:]) / hj, 0.0)


def _band_margin(h) -> float:
    """The band test's Lipschitz margin: the cell diagonal plus the raster error."""
    return float(np.linalg.norm(np.asarray(h))) + raster_error(h)


def _check_radii(radii, h) -> None:
    """Every radius needs delta >= 2 max(h): below it the grid cannot resolve the tube."""
    if len(radii) == 0:
        raise ValidationError("no tube radius to measure")
    hmax = max(h)
    for delta in radii:
        if not delta > 0:
            raise ValidationError(f"delta must be positive, got {delta}")
        if delta < 2.0 * hmax:
            raise ResolutionError(
                f"delta={delta:g} below resolution guard 2*max(h)={2 * hmax:g}"
            )


def _bands(mode: EigenMode, h, shape, radii) -> list:
    """Per radius: (delta, per axis the fraction of each cell where the axis misses)."""
    periodic = mode.domain.periodic
    h = np.asarray(h)
    ncells = [s if periodic else s - 1 for s in shape]
    miss = [_axis_miss_fractions(mode, j, h[j], nj, radii) for j, nj in enumerate(ncells)]
    return [(delta, [axis[k] for axis in miss]) for k, delta in enumerate(radii)]


def _band_block(corners: np.ndarray, a: int, periodic: bool, margin: float, bands) -> list:
    """Per (delta, miss tables) band: fully-in count and straddle sum of the cells from row ``a``.

    ``corners`` holds the distance rows a .. b of the cells between them. A
    cell is fully inside when its corner minimum + margin < delta, fully
    outside when its corner maximum - margin >= delta, and straddles
    otherwise; it adds 1 - prod_j miss[j][i_j] at its index i, summed in
    row-major order.
    """
    lo = _corner_reduce(corners, periodic, np.minimum, False)
    lo += margin
    hi = _corner_reduce(corners, periodic, np.maximum, False)
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


def _block_rows(shape) -> int:
    """Cell rows per band block: about ``ROW_BLOCK_POINTS`` cells."""
    return max(1, ROW_BLOCK_POINTS // math.prod(shape[1:]))


def _volumes(blocks, h, radii) -> list[float]:
    """Tube volume per radius from the band blocks' results, added in block order."""
    cellvol = float(np.prod(np.asarray(h)))
    inside, share = [0] * len(radii), [0.0] * len(radii)
    for block in blocks:
        for k, (n_in, part) in enumerate(block):
            inside[k] += n_in
            share[k] += part
    return [float(n) * cellvol + cellvol * part for n, part in zip(inside, share)]


def _sampled_rows(factors, periodic: bool, lo: int, hi: int):
    """The rows lo .. hi - 1 of the grid whose axis factors are ``factors``.

    Returns their global indices g (on a box only those inside the grid),
    their grid rows (g wrapped on a torus) and their values: the outer
    product of the factors, bitwise the whole grid's rows.
    """
    g = np.arange(lo, hi)
    s0 = factors[0].shape[0]
    if periodic:
        at = g % s0
    else:
        g = at = g[(g >= 0) & (g < s0)]
    return g, at, reduce(np.multiply.outer, [factors[0][at]] + factors[1:])


def _seed_rows(values, g, at, h, shape, periodic: bool, lo: int, hi: int) -> np.ndarray:
    """Seed mask of the global rows lo .. hi - 1 (all-false off a box) from sampled rows.

    ``g``, ``at`` and ``values`` are ``_sampled_rows``' output for rows that
    include lo - 1 .. hi, so each of these rows has both its axis-0 edges in
    the window. A vertex takes its source row's grid index, as in the whole
    grid, and rasterizes to that row or the next.
    """
    s0 = shape[0]
    seeds = np.zeros((hi - lo,) + tuple(shape[1:]), dtype=bool)
    for src, pts in _window_vertices(values, h, periodic, at):
        k0 = raster_index(pts[:, 0], h[0], s0, periodic)
        row = g[src] + (k0 - at[src]) % s0 - lo
        keep = (0 <= row) & (row < hi - lo)
        rest = (raster_index(pts[keep, j], h[j], shape[j], periodic) for j in range(1, len(shape)))
        seeds[(row[keep], *rest)] = True
    return seeds


@dataclass
class StreamedTubes:
    """Tube volumes of a mode's grid, and on request its marching-squares length."""

    h: tuple[float, ...]
    volumes: dict           # tube radius -> Vol(T_t)
    length: float | None    # None unless segments were asked for


def streamed_tubes(mode: EigenMode, rule, radii, *, segments: bool = False) -> StreamedTubes:
    """Tube volumes at ``radii`` on the grid of ``grid.grid_shape(mode, rule)``, streamed.

    The passes of the module docstring: every volume is bitwise the band
    test's on the whole grid's full-range field, added in band blocks. With
    ``segments`` a 2-d grid also yields ``nodal.marching_squares``' length,
    bit for bit. Raises ResourceGuardError for a grid over the rule's cap,
    ValidationError for no radius or one that is not positive, and
    ResolutionError for one below 2 max(h). Every worker is joined before
    this returns.
    """
    shape, h = grid_shape(mode, rule)
    _check_radii(radii, h)
    periodic = mode.domain.periodic
    if segments and len(shape) != 2:
        raise ValidationError(f"marching squares runs on 2-d grids, not {len(shape)}-d")
    margin = _band_margin(h)
    reach = max(radii) + margin + max(h)
    pads = capped_pads(shape, h, reach, periodic)
    p0 = pads[0]
    cells0 = shape[0] if periodic else shape[0] - 1
    bands = _bands(mode, h, shape, radii)
    factors = axis_factors(mode, shape)
    rows = _block_rows(shape)
    blocks = -(-cells0 // rows)
    step = rows * max(1, min(PASS_BLOCKS, -(-blocks // usable_cores())))

    def one_pass(first):
        last = min(first + step, cells0)
        # the corner rows first .. last, and the seeds p0 rows past them
        lo, hi = first - p0, last + p0 + 1
        g, at, values = _sampled_rows(factors, periodic, lo - 1, hi + 1)
        seeds = _seed_rows(values, g, at, h, shape, periodic, lo, hi)
        pieces = None
        if segments:
            corner_rows = slice(first - g[0], last + 1 - g[0])
            pieces = crossed_segments(values[corner_rows], h, periodic, mode, at[corner_rows])
        win = np.pad(seeds, [(0, 0)] + [(p, p) for p in pads[1:]],
                     mode="wrap" if periodic else "constant")
        out = []
        for a in range(first, last, rows):
            b = min(a + rows, last)
            corners = capped_rows(win[a - first : b - first + 1 + 2 * p0], pads, h, reach)
            out.append(_band_block(corners, a, periodic, margin, bands))
        return out, pieces

    with ThreadPoolExecutor(usable_cores()) as pool:
        passes = list(pool.map(one_pass, range(0, cells0, step)))
    volumes = _volumes([block for out, _ in passes for block in out], h, radii)
    length = None
    if segments:
        # every pass's first segments, then every pass's saddle second segments
        length = segment_sum([p[0] for _, p in passes] + [p[1] for _, p in passes])
    return StreamedTubes(h, dict(zip(radii, volumes)), length)


def tube_volume(mode: EigenMode, rule, delta: float) -> float:
    """Volume of the delta-tube on the grid of ``rule``: ``streamed_tubes`` at one radius.

    No experiment calls it. It is kept as the site perfbench's tracer wraps, and
    goes when the benchmark reads spans instead (ROADMAP item 1b).
    """
    return streamed_tubes(mode, rule, [delta]).volumes[delta]


@dataclass
class NodalMeasure:
    """(n-1)-measure estimate with the tube volumes it was extrapolated from."""

    value: float
    volumes: dict           # tube radius -> Vol(T_t)
    non_monotone: bool      # Vol(T_t)/(2t) fell as t shrank


def tube_measure(volumes: dict) -> NodalMeasure:
    """(n-1)-measure of a nodal set from its tube volumes, keyed by radius.

    Extrapolates Vol(T_t)/(2t) linearly to t -> 0 (Richardson step over the
    two smallest t), and flags a ratio sequence that is not monotone in t.
    """
    ts = sorted(volumes, reverse=True)
    if len(ts) < 2:
        raise ValidationError("need at least two tube radii to extrapolate")
    ratios = [volumes[t] / (2.0 * t) for t in ts]
    extrap = ratios[-1] + (ratios[-1] - ratios[-2]) * ts[-1] / (ts[-2] - ts[-1])
    scale = max(abs(r) for r in ratios)
    non_monotone = any(
        b < a - 0.005 * scale for a, b in zip(ratios, ratios[1:])
    )
    return NodalMeasure(extrap, {t: volumes[t] for t in ts}, non_monotone)


def density_radius(field: DistanceField) -> float:
    """Largest distance from any grid point to the nodal set: a full-range field's maximum."""
    if field.empty:
        raise EmptyNodalSetError("nodal set is empty; density radius undefined")
    return float(field.dist.max())
