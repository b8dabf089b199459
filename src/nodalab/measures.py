"""Tube volumes, nodal measures, and density radii.

Every grid tube volume comes from ``streamed_tubes``, which streams a mode's
grid; ``tube_measure`` extrapolates Vol(T_t)/(2t) from its volumes to t -> 0
for the nodal measure (in dimension one ``harness.run_yau_check`` counts
vertices instead). The 2-d cross-check against the marching-squares length
runs in ``harness.run_yau_check``, which gates on it. The density radius is
the certified maximum of the full-range transform, which forms no field.

The tube estimator classifies every grid cell as fully inside / fully outside
/ straddling the delta level set using Lipschitz-rigorous margins from corner
distances, then adds for each straddling cell its exact share of the tube
under the closed-form distance of the separable mode. Plain grid-point
counting would carry an O(h) bias; the shares remove it. The band test sums
per band block of about ``ROW_BLOCK_POINTS`` cells along axis 0, but it
classifies a run of consecutive band blocks at once: as many whole blocks as
fit in a chunk's rows (below), four at the default sizes. A run forms the
bool stencils "in" and "near" (``distance.seed_stencils``) of its rows and
the next one (row 0 after the last row of a periodic axis) for every radius
and reduces their corners. Its straddle shares come from per-row counts of
its straddle cells, with no flat cell index. It returns per block and radius
the block's fully-in count and the sum of its straddle shares: the block's
segment of the run's row-major list, summed on its own, so each sum is the
one a lone block gives. The caller adds them in block order. The
runs keep the numpy calls long: a band block's calls take a few
microseconds each, and two workers making calls that short spend more time
handing the GIL over than computing.

``streamed_tubes`` runs that estimator on a mode's grid without forming any
grid-sized array. It takes the grid in passes of whole rows, each a run of
consecutive band blocks, on a pool of ``usable_cores()`` threads. A pass's
seed rows are its corner rows plus p_0 more on each side (wrapped on a
torus), where p_0 is the stencil window of ``distance.capped_pads`` on axis
0. It samples them in chunks, equal runs of at most ``CHUNK_POINTS`` points,
each with one more row on either side, into one float buffer that the pass
allocates once; ``grid.sample_grid`` is an outer product of per-axis
factors, so these rows are bitwise the whole grid's, and a worker holds the
float rows of one chunk at a time. A chunk (``_chunk``) forms the sign
masks v < 0 and v > 0 of its rows once. From them it finds their vertices
with the grid's vertex code at global row indices and sets the seeds of its
own rows in the pass's bool seed window, whose column pads are filled in
place after the last chunk. A vertex on the edge between two chunks is
found by both and seeds the same cell either time. On a 2-d grid a chunk
also gathers, from the same mask v < 0 (marching squares' class v >= 0 is
its complement), the pass's crossed cells among its rows; the chunks'
cells tile the pass's. After its last chunk the pass drops the buffer and
runs the marching-squares geometry once on its chunks' cells, joined in
row-major order; every length depends on its own cell only. It then runs
the band test on each run of its band blocks, reading only the seed
window. Stencils of a distance capped at the largest radius plus the band
margin plus one cell classify every cell as the full-range field does,
because a corner at or past delta + margin is neither in nor near whatever
its value. The caller joins the passes' first and saddle second segments as
one list in pass order, and sorts (one stable sort) and sums them once with
``nodal.segment_sum``, as on the whole grid. The order of the two kinds is
free: first segments have even keys and second ones odd keys, so no key
holds both, and each key's segments keep row-major order. So a volume's and a length's bits
do not depend on the worker count or the pass or chunk size, and equal those
of the band test on the whole grid's full-range field, added in the same
band blocks. ``grid.GRID_POINT_CAP`` still bounds the whole grid's size.

``grid_seeds`` runs the same chunks (``_seed_rows``) over every row of a grid,
one run of rows per usable core on a thread pool, each worker with its own
float buffer. Its chunks write disjoint rows of one bool seed mask, the
seeds that the density radius and the inner radii transform, and of the
sign masks v > SIGN_EPS and v < -SIGN_EPS of the rows they sampled, which
the sign domains read: every grid's seeds and signs come from this one
pass, and no float grid is formed.

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
    Seeds,
    capped_pads,
    full_range,
    raster_error,
    seed_stencils,
    stencil_widths,
    usable_cores,
)
from .errors import EmptyNodalSetError, ResolutionError, ValidationError
from .grid import axis_factors, grid_shape
from .nodal import _corner_reduce, _window_vertices, crossed_cells, crossed_segments, segment_sum
from .spectrum import DomainSpec, EigenMode, nodal_distance_exact

# band blocks per pass of the tube stream, at most: bounds the seed rows a worker holds
PASS_BLOCKS = 16
# grid points per chunk of a pass, sampled and searched for vertices at once: bounds
# the float rows a worker holds
CHUNK_POINTS = 4 * ROW_BLOCK_POINTS
# grid points with |v| at or below this are unsigned: they separate the sign domains
SIGN_EPS = 1e-12


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


def _bands(mode: EigenMode, h, shape, radii) -> tuple[list, list]:
    """The stencils' pads and, per radius, its ("in", "near") widths and per-axis miss fractions."""
    periodic = mode.domain.periodic
    margin = float(np.linalg.norm(np.asarray(h))) + raster_error(h)  # cell diagonal + raster error
    reach = max(radii) + margin + max(h)
    pads = capped_pads(shape, h, reach, periodic)
    ncells = [s if periodic else s - 1 for s in shape]
    miss = [_axis_miss_fractions(mode, j, h[j], nj, radii) for j, nj in enumerate(ncells)]
    return pads, [([stencil_widths(h, pads, reach, s, delta) for s in (margin, -margin)],
                   [axis[k] for axis in miss]) for k, delta in enumerate(radii)]


def _band_run(win: np.ndarray, pads, a: int, rows: int, periodic: bool, bands) -> list:
    """Per band block of ``rows`` cell rows from row ``a``: per band, fully-in count and straddle sum.

    ``win`` is the seed window, padded by ``pads``, of the corner rows a .. b of
    the cells between them: a run of band blocks, the last of which may be
    short. ``bands`` holds per radius its ((in, near) widths, miss tables). A
    cell is fully inside when its corner minimum v has fl(v + margin) < delta,
    so iff a corner is "in"; fully outside when its corner maximum has
    fl(v - margin) >= delta, so iff a corner is not "near"; and straddles
    otherwise, adding 1 - prod_j miss[j][i_j] at its index i, in row-major
    order. The run is classified at once. A straddle product is row i's
    miss[0] value, repeated once per straddle cell of the row, times each
    further axis's table broadcast over the run and read at the straddle
    mask: the association ((l0 l1) l2) and the row-major order of the whole
    grid. A block's straddle cells start at the count of those in the rows
    before it, and are summed on their own as a lone block's would be, so
    each block's sum keeps its bits.
    """
    masks = seed_stencils(win, pads, [w for widths, _ in bands for w in widths])
    out = []
    for inside, near, (_, miss) in zip(masks[::2], masks[1::2], bands):
        fully_in = _corner_reduce(inside, periodic, np.logical_or, False)
        straddle = _corner_reduce(near, periodic, np.logical_and, False)
        np.greater(straddle, fully_in, out=straddle)  # near, and not fully in
        n0 = straddle.shape[0]
        counts = np.count_nonzero(straddle.reshape(n0, -1), axis=1)
        missed = np.repeat(miss[0][a : a + n0], counts)
        for j in range(1, straddle.ndim):
            along = miss[j].reshape((-1,) + (1,) * (straddle.ndim - 1 - j))
            missed *= np.broadcast_to(along, straddle.shape)[straddle]
        # a straddle cell's share of the tube: 1 - prod_j l_j
        np.subtract(1.0, missed, out=missed)
        starts = range(0, n0, rows)
        parts = np.split(missed, np.cumsum(counts)[[s - 1 for s in starts[1:]]])
        out.append([(int(np.count_nonzero(fully_in[s : s + rows])), float(part.sum()))
                    for s, part in zip(starts, parts)])
    return list(zip(*out))


def _volumes(blocks, h, radii) -> list[float]:
    """Tube volume per radius from the band blocks' results, added in block order."""
    cellvol = float(np.prod(np.asarray(h)))
    inside, share = [0] * len(radii), [0.0] * len(radii)
    for block in blocks:
        for k, (n_in, part) in enumerate(block):
            inside[k] += n_in
            share[k] += part
    return [float(n) * cellvol + cellvol * part for n, part in zip(inside, share)]


def _sampled_rows(factors, periodic: bool, lo: int, hi: int, out: np.ndarray):
    """The rows lo .. hi - 1 of the grid whose axis factors are ``factors``, written into ``out``.

    Returns their global indices g (on a box only those inside the grid),
    their grid rows (g wrapped on a torus) and their values, the head of
    ``out``: the outer product of the factors, bitwise the whole grid's rows.
    """
    g = np.arange(lo, hi)
    s0 = factors[0].shape[0]
    if periodic:
        at = g % s0
    else:
        g = at = g[(g >= 0) & (g < s0)]
    values = out[: g.size]
    if len(factors) == 1:
        np.take(factors[0], at, out=values)
    else:
        head = reduce(np.multiply.outer, [factors[0][at]] + factors[1:-1])
        np.multiply.outer(head, factors[-1], out=values)
    return g, at, values


def _raster_index(coords: np.ndarray, hj: float, nj: int, periodic: bool) -> np.ndarray:
    """Nearest grid index along an axis of ``nj`` points: wrapped on a torus, clipped on a box."""
    k = np.round(coords / hj).astype(np.int64)
    return k % nj if periodic else np.clip(k, 0, nj - 1)


def _chunk(factors, h, periodic: bool, c: int, d: int, out: np.ndarray, seeds: np.ndarray,
           pass_rows, signs):
    """Sample the grid rows c - 1 .. d into ``out``; set in ``seeds`` the seeds of rows c .. d - 1.

    ``seeds`` holds the global rows c, c + 1, ... (none off a box), and the
    sampled rows give each of them both its axis-0 edges. The sign masks
    v < 0 and v > 0 are formed once, for the vertices and the crossed cells.
    A vertex takes its source row's grid index, as in the whole grid. Only
    its edge axis goes through the float chain round(fl(fl(k + t) h) / h), so
    an axis-0 crossing seeds its source row or the next; on every other axis,
    and for an exact zero, its raster index is its grid index k, as
    round(fl(k h) / h) = k. Setting a seed twice is setting it once, so
    windows may overlap. With ``pass_rows``, the pass's corner rows (first,
    last) of a 2-d grid, it returns the crossed cells (``nodal.crossed_cells``)
    between its rows among them. With ``signs``, the rows c .. d - 1 of the
    sign masks (pos, neg), it writes v > SIGN_EPS and v < -SIGN_EPS of its
    own rows into them.
    """
    shape = tuple(f.shape[0] for f in factors)
    s0 = shape[0]
    g, at, v = _sampled_rows(factors, periodic, c - 1, d + 1, out)
    if signs is not None:
        own = v[c - g[0] : d - g[0]]
        np.greater(own, SIGN_EPS, out=signs[0])
        np.less(own, -SIGN_EPS, out=signs[1])
    neg, pos = v < 0.0, v > 0.0
    for axis, idx, t in _window_vertices(v, neg, pos, periodic, g):
        row, rest = idx[0] - c, list(idx[1:])
        if axis == 0:
            k = idx[0] % s0
            row += (_raster_index((k + t) * h[0], h[0], s0, periodic) - k) % s0
        elif axis is not None:
            rest[axis - 1] = _raster_index((rest[axis - 1] + t) * h[axis], h[axis], shape[axis],
                                           periodic)
        keep = (0 <= row) & (row < seeds.shape[0])
        seeds[(row[keep], *(i[keep] for i in rest))] = True
    if pass_rows is None:
        return None
    first, last = pass_rows
    # rows past the pass's last corner row leave the cut empty
    cut = slice(max(c, first) - g[0], max(min(d, last) + 1 - g[0], 0))
    return crossed_cells(v[cut], neg[cut], periodic, at[cut])


def _seed_rows(factors, h, periodic: bool, top: int, end: int, seeds: np.ndarray, pass_rows,
               signs):
    """``_chunk`` over the rows top .. end - 1 held by ``seeds`` (and ``signs``, or None), in
    equal runs of at most ``CHUNK_POINTS`` points, into one float buffer freed on return:
    their crossed cells."""
    chunk = max(1, CHUNK_POINTS // math.prod(seeds.shape[1:]))
    n = -(-(end - top) // chunk)
    edges = [top + (end - top) * k // n for k in range(n + 1)]
    buf = np.empty((-(-(end - top) // n) + 2,) + seeds.shape[1:])
    return [_chunk(factors, h, periodic, c, d, buf, seeds[c - top : d - top], pass_rows,
                   None if signs is None else tuple(s[c - top : d - top] for s in signs))
            for c, d in zip(edges, edges[1:])]


@dataclass
class GridSigns:
    """A grid's seeds and its sign masks ``pos`` (v > SIGN_EPS) and ``neg`` (v < -SIGN_EPS):
    all that the density radius and the sign domains read."""

    seeds: Seeds
    pos: np.ndarray
    neg: np.ndarray


def grid_seeds(mode: EigenMode, rule) -> GridSigns:
    """The seeds and sign masks of the grid of ``grid.grid_shape(mode, rule)``: ``_seed_rows``
    on one run of its rows per usable core, each worker with its own float buffer. The
    chunks write disjoint rows, so the masks do not depend on the worker count or chunk
    size. Every worker is joined before this returns."""
    shape, h = grid_shape(mode, rule)
    periodic = mode.domain.periodic
    factors = axis_factors(mode, shape)
    seeds = np.zeros(shape, dtype=bool)
    # every row of the sign masks is written by exactly one chunk
    pos, neg = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    runs = min(usable_cores(), shape[0])
    edges = [shape[0] * k // runs for k in range(runs + 1)]

    def run(a, b):
        _seed_rows(factors, h, periodic, a, b, seeds[a:b], None, (pos[a:b], neg[a:b]))

    with ThreadPoolExecutor(runs) as pool:
        list(pool.map(run, edges[:-1], edges[1:]))
    return GridSigns(Seeds(seeds, h, periodic), pos, neg)


def _wrap_columns(win: np.ndarray, pads) -> None:
    """Fill the pads of axes 1 and up of ``win`` from the cells inside them, as np.pad's wrap mode."""
    for j in range(1, win.ndim):
        p, n = pads[j], win.shape[j] - 2 * pads[j]
        axis = np.moveaxis(win, j, 0)  # a view: writes go to win
        axis[:p] = axis[n : n + p]
        axis[p + n :] = axis[p : 2 * p]


@dataclass
class StreamedTubes:
    """Tube volumes of a mode's grid, and on request its marching-squares length."""

    h: tuple[float, ...]
    volumes: dict           # tube radius -> Vol(T_t)
    length: float | None    # None unless segments were asked for


def streamed_tubes(mode: EigenMode, rule, radii, *, segments: bool = False) -> StreamedTubes:
    """Tube volumes at ``radii`` on the grid of ``grid.grid_shape(mode, rule)``, streamed.

    The passes of the module docstring: each samples its rows a chunk at a
    time into one buffer, keeps a bool seed window of them and classifies
    its cells in runs of band blocks of at most a chunk's rows; every volume
    is bitwise the band test's on the whole grid's full-range field, summed
    per band block and added in block order. With ``segments`` a 2-d grid
    also yields its marching-squares length, bitwise the whole grid's: each pass
    runs the geometry once on its chunks' crossed cells, and the passes'
    segments are joined in pass order, first and second ones together, as
    their keys' parities keep one key to one kind and the sort is stable.
    Raises ResourceGuardError for a grid over the rule's cap,
    ValidationError for no radius or one that is not positive, and
    ResolutionError for one below 2 max(h). Every worker is joined before
    this returns.
    """
    shape, h = grid_shape(mode, rule)
    _check_radii(radii, h)
    periodic = mode.domain.periodic
    if segments and len(shape) != 2:
        raise ValidationError(f"marching squares runs on 2-d grids, not {len(shape)}-d")
    pads, bands = _bands(mode, h, shape, radii)
    p0 = pads[0]
    cells0 = shape[0] if periodic else shape[0] - 1
    factors = axis_factors(mode, shape)
    rows = max(1, ROW_BLOCK_POINTS // math.prod(shape[1:]))  # cell rows per band block
    blocks = -(-cells0 // rows)
    step = rows * max(1, min(PASS_BLOCKS, -(-blocks // usable_cores())))

    chunk = max(1, CHUNK_POINTS // math.prod(shape[1:]))
    run = rows * max(1, chunk // rows)  # cell rows classified at once: whole band blocks in a chunk
    inner = tuple(slice(p, p + s) for p, s in zip(pads[1:], shape[1:]))

    def one_pass(first):
        last = min(first + step, cells0)
        # the corner rows first .. last, and the seeds p0 rows past them
        lo, hi = first - p0, last + p0 + 1
        win = np.zeros((hi - lo,) + tuple(s + 2 * p for s, p in zip(shape[1:], pads[1:])), dtype=bool)
        # the seed rows, cut at a box's edges; no float row is held through the band blocks
        top, end = (lo, hi) if periodic else (max(lo, 0), min(hi, shape[0]))
        cells = _seed_rows(factors, h, periodic, top, end, win[(slice(top - lo, end - lo),) + inner],
                           (first, last) if segments else None, None)
        pieces = ()
        if segments:
            # the pass's crossed cells, in row-major chunk order: one marching-squares geometry
            pieces = crossed_segments(*(np.concatenate(part, axis=-1) for part in zip(*cells)),
                                      h, mode)
        del cells
        if periodic:
            _wrap_columns(win, pads)
        out = []
        for a in range(first, last, run):
            b = min(a + run, last)
            out += _band_run(win[a - first : b - first + 1 + 2 * p0], pads, a, rows, periodic, bands)
        return out, pieces

    with ThreadPoolExecutor(usable_cores()) as pool:
        passes = list(pool.map(one_pass, range(0, cells0, step)))
    volumes = _volumes([block for out, _ in passes for block in out], h, radii)
    length = None
    if segments:
        # every pass's first and second segments, in pass order
        length = segment_sum([piece for _, pieces in passes for piece in pieces])
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


def density_radius(seeds: Seeds) -> float:
    """Largest distance from any grid point to a seed: the full-range transform's certified maximum."""
    if not seeds.mask.any():
        raise EmptyNodalSetError("nodal set is empty; density radius undefined")
    return full_range(seeds, lambda: None, lambda acc, rows, d: None)[1]
