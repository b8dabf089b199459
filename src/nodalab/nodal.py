"""Nodal set extraction from grid samples.

Vertices are exact-zero grid points plus linearly interpolated zero crossings on
grid edges. Separately, ``marching_squares`` measures the total length of the
marching-squares contour of a 2-d sample, visiting only the cells whose corner
signs differ; the ambiguous saddle configurations are resolved by the sign of
the eigenfunction at the cell center, which is evaluated analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSample
from .spectrum import eval_mode

# summation rank of each crossed-cell pattern (0 and 15 cross nothing): the
# length is summed group by group in this fixed order, saddles 10 and 5 last
_EMIT_RANK = np.zeros(16, dtype=np.int64)
_EMIT_RANK[[1, 14, 2, 13, 4, 11, 8, 7, 3, 12, 6, 9, 10, 5]] = np.arange(14)


@dataclass
class NodalApprox:
    """Discrete nodal set: interpolated vertices."""

    sample: GridSample
    vertices: np.ndarray              # (v, n) float coordinates

    @property
    def empty(self) -> bool:
        return self.vertices.shape[0] == 0


def _edge_op(values: np.ndarray, axis: int, periodic: bool, op) -> np.ndarray:
    """op(v[i], v[i+1]) over the grid edges along an axis.

    A periodic axis also pairs its last point with its first: both parts are
    written into one result, so the grid is never rolled into a copy.
    """
    def at(a, s):
        return a[(slice(None),) * axis + (s,)]

    head, tail = slice(0, -1), slice(1, None)
    if not periodic:
        return op(at(values, head), at(values, tail))
    out = np.empty_like(values)
    op(at(values, head), at(values, tail), out=at(out, head))
    op(at(values, slice(-1, None)), at(values, slice(0, 1)), out=at(out, slice(-1, None)))
    return out


def _corner_reduce(values: np.ndarray, periodic: bool, op):
    """Reduce over the 2^n corners of every grid cell."""
    out = values
    for axis in range(values.ndim):
        out = _edge_op(out, axis, periodic, op)
    return out


def _edge_vertices(sample: GridSample) -> np.ndarray:
    """Exact-zero grid points plus strict sign-change edge crossings."""
    v = sample.values.reshape(sample.shape)
    n = sample.n
    chunks = []
    zero_idx = np.nonzero(v == 0.0)
    if zero_idx[0].size:
        pts = np.stack([zero_idx[j] * sample.h[j] for j in range(n)], axis=1)
        chunks.append(pts)
    for axis in range(n):
        idx = np.nonzero(_edge_op(v, axis, sample.periodic, np.multiply) < 0.0)
        if idx[0].size == 0:
            continue
        # the edge's far end; only a periodic axis wraps
        far = idx[:axis] + ((idx[axis] + 1) % v.shape[axis],) + idx[axis + 1 :]
        v0, v1 = v[idx], v[far]
        t = v0 / (v0 - v1)
        pts = np.stack([idx[j].astype(float) for j in range(n)], axis=1)
        pts[:, axis] += t
        chunks.append(pts * np.asarray(sample.h))
    if not chunks:
        return np.empty((0, n))
    return np.concatenate(chunks, axis=0)


def marching_squares(sample: GridSample) -> float:
    """Total length of the marching-squares segments over all cells of a 2-d sample.

    Zeros count as the nonnegative class. Only cells whose four corners are
    not all in one class carry a segment: it joins the linear zero crossings
    on the cell's two crossed edges. A saddle cell (classes alternating round
    the corners) gets two segments, paired by the sign of the eigenfunction at
    the cell center. The lengths are summed in a fixed order (cases 1, 14, 2,
    13, 4, 11, 8, 7, 3, 12, 6, 9, then saddles 10 and 5 split by center sign
    and segment, row-major within each group), so the float is reproducible
    bit for bit.
    """
    v = sample.values
    h0, h1 = sample.h
    pos = v >= 0
    # the crossed cells: corners neither all nonnegative nor all negative
    ii, jj = np.nonzero(
        _corner_reduce(pos, sample.periodic, np.logical_and)
        != _corner_reduce(pos, sample.periodic, np.logical_or)
    )
    i1, j1 = (ii + 1) % v.shape[0], (jj + 1) % v.shape[1]
    # corners 0=(i,j) 1=(i+1,j) 2=(i+1,j+1) 3=(i,j+1); edge k joins corners k
    # and k+1 (mod 4); pattern bit k set = corner k has value >= 0
    corners = (ii, jj), (i1, jj), (i1, j1), (ii, j1)
    bits = np.stack([pos[c] for c in corners])
    pat = np.array([1, 2, 4, 8]) @ bits
    av, bv, cv, dv = (v[c] for c in corners)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.stack([(ii + av / (av - bv)) * h0, (ii + 1.0) * h0,
                      (ii + dv / (dv - cv)) * h0, ii * h0])
        y = np.stack([jj * h1, (jj + bv / (bv - cv)) * h1,
                      (jj + 1.0) * h1, (jj + av / (av - dv)) * h1])
    crossed = bits != np.roll(bits, -1, axis=0)
    first = crossed.argmax(axis=0)
    last = 3 - crossed[::-1].argmax(axis=0)
    saddle = crossed.all(axis=0)
    si, sj = ii[saddle], jj[saddle]
    plus = eval_mode(sample.mode, np.stack([(si + 0.5) * h0, (sj + 0.5) * h1], axis=1)) >= 0
    # the center joins the two corners of its own class; when those are 0 and
    # 2 the segments cut off corners 1 and 3 by edges (0,1),(2,3), else (0,3),(1,2)
    join = (bits[0, saddle] == plus).astype(np.int64)
    last[saddle] -= 2 * join
    # sum order: pattern rank, then a saddle's center sign (+ first) and segment
    key = 4 * _EMIT_RANK[pat]
    key[saddle] += 2 * ~plus
    cols = np.concatenate([np.arange(pat.size), np.flatnonzero(saddle)])
    e = np.concatenate([first, 1 + join])
    f = np.concatenate([last, 2 + join])
    dx = x[e, cols] - x[f, cols]
    dy = y[e, cols] - y[f, cols]
    lengths = np.sqrt(dx * dx + dy * dy)
    order = np.argsort(np.concatenate([key, key[saddle] + 1]), kind="stable")
    return float(lengths[order].sum())


def extract_nodal(sample: GridSample) -> NodalApprox:
    """Locate the nodal set on the grid.

    Vertices combine exact-zero grid points with strict sign-change crossings,
    interpolated linearly along edges.
    """
    return NodalApprox(sample, _edge_vertices(sample))
