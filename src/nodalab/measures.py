"""Tube volumes, nodal measures, and density radii from distance fields.

The nodal measure has one route: Vol(T_t)/(2t) extrapolated to t -> 0 from
tube volumes (the vertex count in dimension one). The 2-d cross-check against
the marching-squares length runs in ``harness.run_yau_check``, which gates on it.

The tube estimator classifies every grid cell as fully inside / fully outside
/ straddling the delta level set using Lipschitz-rigorous margins from corner
distances, then stratified-samples each straddling cell with
``SAMPLES_PER_CELL`` points against the exact closed-form distance of the
separable mode. Plain grid-point counting would carry an O(h) bias; the
sampling removes it. The band test runs in blocks of about
``ROW_BLOCK_POINTS`` cells along axis 0: a block reduces the corners of its
rows and the next one (row 0 after the last row of a periodic axis), so no
grid-sized temporary is formed, and its straddle cells are appended in C
order, so the list is the whole grid's.

The exact distance is a min over axes of 1-d distances, so a sample misses the
tube iff every axis misses, and axis j's distance depends only on the cell
index i_j and the draw u_j through the oracle's float chain
``(i_j + u_j) * h_j -> mod(x - off, s) -> min(r, s - r)``. Every step is
monotone, so on a cell that keeps clear of the axis's zeros and midpoints the
1-d distance is monotone in u_j, and the set of ``Generator.random`` values
(k * 2**-53) where the axis misses is one interval, found by bisection over k
with the oracle evaluated on a 1-d mode of that axis. Cells that touch a zero
(and are narrower than delta) hit everywhere; cells that touch a midpoint miss
everywhere when the bound allows. The tables are built per call, and a sample
then costs one compare per axis against them, with the hit count bitwise the
one the per-sample oracle gives. Cells whose miss set is not certified this
way (a midpoint cell with delta near half the zero spacing) still send their
samples through the oracle.

The straddling cells are sampled in chunks on a thread pool, one worker per
usable core. ``Generator.random`` takes one PCG64 output per double, so cell
k of the straddle list owns stream doubles [k m n, (k + 1) m n) for m samples
in n dimensions; each chunk jumps its own ``PCG64(seed)`` ahead to its first
cell (``PCG64.advance``) and counts its hits, and the integer hit counts sum
to the sequential stream's whatever the worker count or chunk size. Chunks
run in waves of one per worker, so the points in flight stay within
``REFINE_CHUNK_POINTS``. The oracle calls for uncertified cells, and those
that build the miss tables, stay on the calling thread, and every worker is
joined before ``tube_volume`` returns.

Every straddle cell's doubles are drawn, even where the tables decide the
cell whole (about 70% of the cells on the Yau fields): skipping them with one
``PCG64.advance`` per run of such cells keeps the stream, but there are about
131k runs over the six default Yau torus fields, the Python call per run
holds the GIL, and the measured ``run_yau_check`` time did not fall.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distance import ROW_BLOCK_POINTS, DistanceField, usable_cores
from .errors import EmptyNodalSetError, ResolutionError, ValidationError
from .nodal import _edge_op
from .spectrum import SIN, DomainSpec, EigenMode, nodal_distance_exact

# Monte Carlo points drawn in each straddling cell
SAMPLES_PER_CELL = 64
# sample points in flight over all refinement threads (each chunk gets its
# share); bounds the chunk temporaries without changing the drawn points or
# the hit count
REFINE_CHUNK_POINTS = 1 << 20

# Generator.random returns k * 2**-53 for an integer k in [0, 2**53)
U_STEPS = 1 << 53
U_ULP = 2.0**-53
# geometry margin in units of the zero spacing; float error of the oracle's
# chain is far below it for any grid under the point caps
GEOMETRY_EPS = 1e-7


def _axis_mode(mode: EigenMode, j: int) -> EigenMode:
    """1-d mode of axis j: the oracle runs the same float operations on it."""
    dom = mode.domain
    return EigenMode(DomainSpec(dom.kind, (dom.alpha[j],)), (mode.m[j],), (mode.kinds[j],))


def _axis_miss_table(mode: EigenMode, j: int, hj, ncells: int, delta: float):
    """Per cell index on axis j: where in u the axis misses (its distance >= delta).

    Returns (t, suffix, sure): the axis misses iff ``(u < t) != suffix``, so
    t = 0 never misses, t = 1 always does, and otherwise the miss set is
    [0, t) or, for a suffix, [t, 1). Where ``sure`` is False the miss set was
    not certified to be one interval, and t = 1 carries no information.
    """
    t = np.ones(ncells)
    suffix = np.zeros(ncells, dtype=bool)
    sure = np.ones(ncells, dtype=bool)
    if mode.m[j] == 0:
        return t, suffix, sure  # constant factor: distance inf, never hits
    s = mode.factor_zero_spacing(j)
    if delta > 0.5 * s:
        # r in [0, s]: r <= s/2 gives d = r, else d = s - r rounds to <= s/2
        return np.zeros(ncells), suffix, sure
    one_d = _axis_mode(mode, j)
    off = 0.0 if mode.kinds[j] == SIN else 0.5 * s
    i = np.arange(ncells)
    last = U_STEPS - 1

    def dist(cells, k):
        x = (cells + k * U_ULP) * hj
        return nodal_distance_exact(one_d, x[:, None])

    # cell ends in zero spacings, (x - off) / s, with a margin eps
    p0, p1 = ((i + 0.0) * hj - off) / s, ((i + last * U_ULP) * hj - off) / s
    eps = GEOMETRY_EPS
    zero = np.floor(p1 + eps) >= np.ceil(p0 - eps)
    mid = np.floor(p1 - 0.5 + eps) >= np.ceil(p0 - 0.5 - eps)
    # a zero in the cell puts every point within its width of the zero
    t[zero] = 0.0
    sure[zero] = (p1 - p0 + 3 * eps)[zero] * s < delta
    # a midpoint (and no zero) keeps every point at least s/2 - width from a zero
    at_mid = mid & ~zero
    sure[at_mid] = (0.5 - (p1 - p0) - 3 * eps)[at_mid] * s > delta
    # elsewhere r stays in one half of a zero gap, where d = r rises or
    # d = s - r falls with u: the ends bound the cell, one bisection finds the edge
    half = ~(zero | mid)
    d0, d1 = dist(i, 0), dist(i, last)
    t[half & (d0 < delta) & (d1 < delta)] = 0.0
    rising = d1 >= delta
    cross = np.flatnonzero(half & ((d0 < delta) == rising))
    if cross.size:
        # first k where (d >= delta) == rising: false at k = 0, true at k = last
        up = rising[cross]
        a = np.zeros(cross.size, dtype=np.int64)
        b = np.full(cross.size, last)
        while (b - a > 1).any():
            k = (a + b) // 2
            flip = (dist(cross, k) >= delta) == up
            a = np.where(flip, a, k)
            b = np.where(flip, k, b)
        t[cross] = b * U_ULP
        suffix[cross] = up
    t[~sure] = 1.0
    return t, suffix, sure


def _block_corner_reduce(rows: np.ndarray, periodic: bool, op) -> np.ndarray:
    """Reduce over the 2^n corners of the cells between consecutive ``rows``."""
    out = op(rows[:-1], rows[1:])
    for axis in range(1, rows.ndim):
        out = _edge_op(out, axis, periodic, op)
    return out


def _band_cells(dist: np.ndarray, periodic: bool, delta: float, margin: float, rows: int):
    """Cells fully inside the delta tube (a count) and straddling it (indices, C order).

    A cell is fully inside when its corner minimum + margin < delta, fully
    outside when its corner maximum - margin >= delta. The cells are taken
    ``rows`` cell rows at a time; only a periodic axis has a cell past its
    last grid point, wrapping to the first. A grid has at least two points
    per axis, so there is at least one block.
    """
    s0 = dist.shape[0]
    cells0 = s0 if periodic else s0 - 1
    inside, parts = 0, []
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
        inside += int(np.count_nonzero(fully_in))
        cells = np.argwhere(straddle)
        cells[:, 0] += a
        parts.append(cells)
    return inside, np.concatenate(parts)


def tube_volume(field: DistanceField, delta: float, seed: int = 0) -> float:
    """Volume of the delta-tube around the nodal set; ``seed`` seeds the sampling.

    Requires delta >= 2 max(h): below that the grid cannot resolve the tube and
    a ResolutionError is raised rather than returning a silently bad estimate.
    """
    if delta <= 0:
        raise ValidationError("delta must be positive")
    hmax = max(field.h)
    if delta < 2.0 * hmax:
        raise ResolutionError(
            f"delta={delta:g} below resolution guard 2*max(h)={2 * hmax:g}"
        )
    if field.empty:
        return 0.0
    sample = field.sample
    h = np.asarray(sample.h)
    cellvol = float(np.prod(h))
    diag = float(np.linalg.norm(h))
    margin = diag + field.raster_error
    rows = max(1, ROW_BLOCK_POINTS // int(np.prod(sample.shape[1:])))
    inside, idx = _band_cells(field.dist, sample.periodic, delta, margin, rows)
    vol = float(inside) * cellvol
    if idx.shape[0] == 0:
        return vol
    n = sample.n
    ncells = [s if sample.periodic else s - 1 for s in sample.shape]
    tables = [
        _axis_miss_table(sample.mode, j, h[j], ncells[j], delta) for j in range(n)
    ]
    m = SAMPLES_PER_CELL
    workers = usable_cores()
    cells_per_chunk = max(1, REFINE_CHUNK_POINTS // workers // m)

    def chunk(start):
        """Hits of the chunk's certified cells and the points left for the oracle."""
        block = idx[start : start + cells_per_chunk]
        # cell k owns stream doubles [k m n, (k + 1) m n): one PCG64 output per double
        bits = np.random.PCG64(seed)
        bits.advance(start * m * n)
        u = np.random.Generator(bits).random((block.shape[0], m, n))
        t, suffix, sure = (
            np.stack([tab[q][block[:, j]] for j, tab in enumerate(tables)], axis=1)
            for q in range(3)
        )
        sure = sure.all(axis=1)
        # an axis that never misses makes every sample of the cell hit
        hit_all = (t == 0.0).any(axis=1)
        hits = m * int(np.count_nonzero(hit_all))
        # sure cells with every axis missing everywhere add no hits
        part = np.flatnonzero(~hit_all & sure & (t < 1.0).any(axis=1))
        if part.size:
            uc, tc, sc = u[part], t[part], suffix[part]
            miss = (uc[:, :, 0] < tc[:, 0, None]) != sc[:, 0, None]
            for j in range(1, n):
                miss &= (uc[:, :, j] < tc[:, j, None]) != sc[:, j, None]
            hits += miss.size - int(np.count_nonzero(miss))
        rest = np.flatnonzero(~hit_all & ~sure)
        return hits, ((block[rest, None, :] + u[rest]) * h).reshape(-1, n)

    # waves of one chunk per worker bound the memory in flight; the oracle runs
    # on this thread, and the hits are integers, so their sum is the same in any order
    starts = range(0, idx.shape[0], cells_per_chunk)
    hits = 0
    with ThreadPoolExecutor(workers) as pool:
        for wave in range(0, len(starts), workers):
            for chunk_hits, pts in pool.map(chunk, starts[wave : wave + workers]):
                hits += chunk_hits
                if pts.size:
                    hits += int((nodal_distance_exact(sample.mode, pts) < delta).sum())
    return vol + cellvol * hits / m


@dataclass
class NodalMeasure:
    """(n-1)-measure estimate with the tube volumes it was extrapolated from."""

    value: float
    volumes: dict           # tube radius -> Vol(T_t); empty in dimension one
    non_monotone: bool      # Vol(T_t)/(2t) fell as t shrank


def nodal_measure(field: DistanceField, t_list, seed: int = 0) -> NodalMeasure:
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
    volumes = {t: tube_volume(field, t, seed) for t in ts}
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
