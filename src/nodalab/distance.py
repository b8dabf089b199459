"""Distance-to-nodal-set fields on sample grids.

The field is an exact Euclidean distance transform seeded at the nodal vertices
rasterized to their nearest grid points, so pointwise it differs from the true
distance to the interpolated nodal set by at most the rasterization displacement
(half the grid diagonal), well inside the documented 2*max(h) accuracy contract.

Every distance is scipy's float sequence for the nearest seed's offset l
in cells: fl(l_j h_j) squared, summed in axis order, and the square root,
with each periodic axis's offset the shorter way round. Bit for bit scipy's
``distance_transform_edt`` of the (wrap-padded) seed mask, which no code
path runs: the sequence does not fall as any |l_j| grows, so each use reads
the seeds' coordinates or a window of seed rows instead.

The tube volumes read no distances: ``seed_stencils`` tells from a window of
seed rows whether a point's distance capped at a reach passes a threshold,
exactly: the predicate is monotone in the least, over the seeds, of the
sequence, so it is the window dilated by ``stencil_widths``.

The density radius and the sign domains' largest inner radius read the
field's maximum (``max_distance``; over the signed points for the radii),
from the seeds' coordinates alone, sorted into lines along each axis. A
point's distance to the nearest seed on one of its own axis lines (the
per-line offsets are the first pass of the separable transform of Meijster,
Roerdink & Hesselink, 2000) is an upper bound U, and the exact distance is
the least over the offsets o on axes 1..n-1 of the distance to the nearest
seed, in |l_0|, on the axis-0 line through the point shifted by o. The
exact distances at the centres of the longest seed-free runs give a lower
bound; only points with U above it are evaluated, enumerated from the runs
along the axis that has fewest. Cost: O(S log S + C r^(n-1)) for S seeds,
C such candidates and a reach of r cells. Product-mode nodal sets, lines
along the axes, leave no candidate beyond the bound's (at most 64) points;
a single seed or a diagonal line leaves many, and the maximum is as exact,
only slower. The density radius and the inner radii read the ``Seeds`` of
``measures.grid_seeds``, so no float grid is held.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

# grid points per block of the tube stream's band blocks, and points or (point, offset)
# pairs per block of max_distance's candidates: bounds their temporaries
ROW_BLOCK_POINTS = 1 << 16
# points whose exact distances give max_distance its first lower bound, at most
BOUND_POINTS = 64


def raster_error(h) -> float:
    """Bound on |field - true distance to vertices|: half the grid cell diagonal."""
    return 0.5 * math.sqrt(sum(hj * hj for hj in h))


@dataclass
class Seeds:
    """The rasterized nodal vertices, with the grid's spacing and wrap: all the distances read."""

    mask: np.ndarray
    h: tuple[float, ...]
    periodic: bool


def usable_cores() -> int:
    """Cores this process may run on: the threads of grid_seeds and the tube stream."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _float_distance(cells, h):
    """scipy's float distance to a seed ``cells[j]`` cells away on axis j (float
    arrays, inf for no seed): fl(l_j h_j) squared, summed in axis order, then
    the square root."""
    total = 0.0
    for l, hj in zip(cells, h):
        step = l * hj
        total = total + step * step
    return np.sqrt(total)


class _SeedLines:
    """The seeds sorted into lines along each axis, keyed ``line * s_k + position``."""

    def __init__(self, seeds):
        self.shape, self.h, self.periodic = seeds.mask.shape, seeds.h, seeds.periodic
        flat = np.flatnonzero(seeds.mask)
        coords = np.unravel_index(flat, self.shape)
        # on the last axis the key is the flat index, sorted already
        self.keys = [np.sort(self.key(coords, k)) for k in range(len(self.shape) - 1)] + [flat]

    def key(self, x, k):
        """The key of each point of ``x`` (one coordinate array per axis) on its axis-k line."""
        line = 0
        for j, (c, s) in enumerate(zip(x, self.shape)):
            if j != k:
                line = line * s + c
        return line * self.shape[k] + x[k]

    def neighbours(self, q, k):
        """Per key q on axis k, the nearest seed keys on its line before it and at or
        after it, as floats: wrapped on a torus, -inf and inf where there is none."""
        keys, s = self.keys[k], self.shape[k]
        start = q - q % s
        lo, at, hi = (np.searchsorted(keys, v) for v in (start, q, start + s))
        before = np.take(keys, at - 1, mode="clip").astype(np.float64)
        after = np.take(keys, at, mode="clip").astype(np.float64)
        if self.periodic:
            before = np.where(at > lo, before, np.take(keys, hi - 1, mode="clip") - s)
            after = np.where(at < hi, after, np.take(keys, lo, mode="clip") + s)
            none = lo == hi
            before[none], after[none] = -np.inf, np.inf
        else:
            before[at <= lo], after[at >= hi] = -np.inf, np.inf
        return before, after

    def offsets(self, x, k):
        """Cells from each point of ``x`` to the nearest seed on its axis-k line (inf for none)."""
        q = self.key(x, k)
        before, after = self.neighbours(q, k)
        return np.minimum(after - q, q - before)

    def upper(self, x):
        """Per point, the least over the axes k of the distance to the nearest seed on its
        axis-k line: a seed's distance, so at least the nearest one's."""
        u = np.inf
        for k, hk in enumerate(self.h):
            u = np.minimum(u, _float_distance([self.offsets(x, k)], [hk]))
        return u

    def nearest(self, x, best):
        """Each point's distance to its nearest seed, bit for bit scipy's, from ``best``,
        seeds' distances at or above it.

        Per offset o on axes 1..n-1 (wrapped on a torus, clipped to the grid on a
        box) the nearest seed on the axis-0 line through the point shifted by o is
        the one least in |l_0|, as the float distance does not fall as any |l_j|
        grows. The offsets run in order of their distance with l_0 = 0 until it
        reaches every point's best, ``ROW_BLOCK_POINTS`` (point, offset) pairs at
        a time (at least one offset).
        """
        shape, h = self.shape, self.h
        top = float(best.max(initial=0.0))
        if len(shape) == 1 or top == 0.0:
            return best  # on one axis the line is the grid; or no point is off the seeds
        ranges = []
        for s, hj in zip(shape[1:], h[1:]):
            cap = s // 2 if self.periodic else s - 1
            reach = np.count_nonzero(_float_distance([np.arange(cap + 1.0)], [hj]) < top) - 1
            ranges.append(np.arange(-reach, reach + 1))
        offs = np.stack([g.ravel() for g in np.meshgrid(*ranges, indexing="ij")])
        v0 = _float_distance(offs, h[1:])
        order = np.argsort(v0, kind="stable")
        offs, v0 = offs[:, order], v0[order]
        best = best.copy()
        step = max(1, ROW_BLOCK_POINTS // x.shape[1])
        for c in range(0, offs.shape[1], step):
            live = np.flatnonzero(best > v0[c])
            if live.size == 0:
                break
            o = offs[:, c : c + step, None]
            # on a box an offset past the edge reads the edge's line, whose seeds it
            # puts farther than they are: never below the nearest seed's distance
            y = [
                (x[j + 1, live] + o[j]) % s if self.periodic
                else np.clip(x[j + 1, live] + o[j], 0, s - 1)
                for j, s in enumerate(shape[1:])
            ]
            y = [np.broadcast_to(x[0, live], y[0].shape)] + y
            d = _float_distance([self.offsets(y, 0)] + [oj.astype(np.float64) for oj in o], h)
            best[live] = np.minimum(best[live], d.min(axis=0))
        return best

    def runs(self, k):
        """The seed-free runs of the seeded axis-k lines: per run its line and the
        positions lo < hi of the seeds at its ends. On a torus a line's last seed
        runs to its first plus s_k; on a box each line's ends mirror its first and
        last seed, so a run to an end is a run between seeds, clipped at the end."""
        keys, s = self.keys[k], self.shape[k]
        line, pos = np.divmod(keys, s)
        head = np.r_[True, line[1:] != line[:-1]]
        tail = np.r_[head[1:], True]
        nxt = np.r_[pos[1:], 0]
        if self.periodic:
            nxt[tail] = pos[head] + s
            return line, pos, nxt
        nxt[tail] = 2 * (s - 1) - pos[tail]
        return np.r_[line[head], line], np.r_[-pos[head], pos], np.r_[pos[head], nxt]

    def points(self, k, line, pos):
        """The points at positions ``pos`` of the axis-k lines ``line``, one row per axis."""
        rest = self.shape[:k] + self.shape[k + 1 :]
        other = np.unravel_index(line, rest) if rest else ()
        return np.stack(other[:k] + (pos,) + other[k:])

    def centre(self, x, j):
        """Moves each point of ``x`` along axis j to the centre of the seed-free run through it."""
        s = self.shape[j]
        q = self.key(x, j)
        start = q - q % s
        before, after = self.neighbours(q, j)
        before, after = before - start, after - start
        if not self.periodic:
            before, after = (np.where(np.isinf(before), -after, before),
                             np.where(np.isinf(after), 2 * (s - 1) - before, after))
        found = np.isfinite(before) & np.isfinite(after)
        x[j, found] = ((before[found] + after[found]) // 2).astype(np.int64) % s

    def bound_points(self, k, count):
        """The centres of the ``count`` longest runs along axis k, each moved to the
        centre of the run through it along every other axis in turn."""
        line, lo, hi = self.runs(k)
        top = np.argsort(lo - hi, kind="stable")[:count]
        x = self.points(k, line[top], (lo[top] + hi[top]) // 2 % self.shape[k])
        for j in range(len(self.shape)):
            if j != k:
                self.centre(x, j)
        return x

    def candidates(self, k, t):
        """The points farther than ``t`` cells from every seed of their axis-k line, as
        runs of positions: line, first position, count (> 0), wrapped on a torus."""
        s = self.shape[k]
        line, lo, hi = self.runs(k)
        first, last = lo + t + 1, hi - t - 1
        if not self.periodic:
            first, last = np.maximum(first, 0), np.minimum(last, s - 1)
        count = last - first + 1
        run = count > 0
        # lines with no seed: the whole line
        seeded, lines = np.unique(line), math.prod(self.shape) // s
        empty = np.setdiff1d(np.arange(lines), seeded, True) if seeded.size < lines else seeded[:0]
        return (np.r_[line[run], empty], np.r_[first[run], 0 * empty],
                np.r_[count[run], s + 0 * empty])


def max_distance(seeds: Seeds, where=None) -> float:
    """The largest distance from a grid point (of ``where``, if given) to the nearest of
    a nonempty seed set: bit for bit the max of scipy's distance transform, 0.0 when
    ``where`` holds no point.

    A point's distance is at most U, its least distance to a seed on one of its own
    lines along the axes. The exact distances at a few points (``bound_points``) give a
    lower bound B; only the points with U > B can exceed it, and they are enumerated
    along the axis that has fewest, from the runs between seeds, in blocks of at most
    ``ROW_BLOCK_POINTS`` points, each block raising B.
    """
    lines = _SeedLines(seeds)
    n, h = seeds.mask.ndim, seeds.h
    per = max(1, BOUND_POINTS // n)
    x = np.unique(np.concatenate([lines.bound_points(k, per) for k in range(n)], axis=1), axis=1)
    if where is not None:
        x = x[:, where[tuple(x)]]
    best = float(lines.nearest(x, lines.upper(x)).max(initial=0.0))
    runs = []
    for k, hk in enumerate(h):
        # the most cells along axis k whose distance is at most best
        t = math.floor(best / hk) + 2
        while _float_distance([float(t)], [hk]) > best:
            t -= 1
        runs.append(lines.candidates(k, t))
    k = min(range(n), key=lambda axis: runs[axis][2].sum())
    line, first, count = runs[k]
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    for a in range(0, total, ROW_BLOCK_POINTS):
        g = np.arange(a, min(a + ROW_BLOCK_POINTS, total))
        r = np.searchsorted(ends, g, side="right")
        pos = first[r] + g - (ends[r] - count[r])
        x = lines.points(k, line[r], pos % seeds.mask.shape[k])
        if where is not None:
            x = x[:, where[tuple(x)]]
        u = lines.upper(x)
        far = u > best
        if far.any():
            best = max(best, float(lines.nearest(x[:, far], u[far]).max()))
    return best


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

