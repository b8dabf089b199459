"""Nodal set extraction from grid samples.

Vertices are exact-zero grid points plus linearly interpolated zero crossings on
grid edges. Both come from two sign masks, ``v < 0`` and ``v > 0``: a zero
point is in neither, and an edge crosses where both masks differ across it,
a strict sign change. Indices are taken flat (``np.flatnonzero`` and
``np.unravel_index`` on the edge array's shape), and each crossing keeps the
interpolation ``t = v0 / (v0 - v1)``. The masks see every strict sign
change, also one between two values so tiny that their product rounds to
-0.0 (2**-537 and -(2**-538)): a test of ``v0 * v1 < 0`` would miss that
edge.

Separately, ``marching_squares`` measures the total length of the
marching-squares contour of a 2-d sample, visiting only the cells whose corner
signs differ; the ambiguous saddle configurations are resolved by the sign of
the eigenfunction at the cell center, which is evaluated analytically.

Both run on the whole grid or on a window of its rows (``rows``, their
global indices): ``extract_nodal`` and ``marching_squares`` are the
whole-grid case, and ``measures.streamed_tubes`` runs the windows of its
passes. A window's cells and axis-0 edges lie between its consecutive rows,
and its points take their rows' global indices, so a window's vertices,
segment keys and lengths are bitwise the whole grid's.
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


def _corner_reduce(values: np.ndarray, periodic: bool, op, wrap_rows: bool = True):
    """Reduce over the 2^n corners of every grid cell.

    On a window of rows (``wrap_rows`` False) axis 0 does not wrap: the
    window's cells lie between its consecutive rows.
    """
    out = values
    for axis in range(values.ndim):
        out = _edge_op(out, axis, periodic and (axis > 0 or wrap_rows), op)
    return out


def _global_index(idx: tuple, rows) -> tuple:
    """A window's index arrays with the rows taken to their global indices."""
    return idx if rows is None else (rows[idx[0]],) + idx[1:]


def _window_vertices(v: np.ndarray, h, periodic: bool, rows=None) -> list:
    """Exact-zero grid points plus strict sign-change edge crossings, as (source row, points) chunks.

    ``v`` is the whole grid when ``rows`` is None: axis 0 then wraps on a
    torus. Otherwise ``v`` holds the grid rows whose global indices are
    ``rows``: axis-0 edges join consecutive rows of ``v`` only, and a point
    takes its row's global index. A chunk's source rows index ``v``.
    """
    n = v.ndim
    neg, pos = v < 0.0, v > 0.0
    chunks = []
    zero = np.flatnonzero(~(neg | pos))
    if zero.size:
        idx = np.unravel_index(zero, v.shape)
        at = _global_index(idx, rows)
        chunks.append((idx[0], np.stack([at[j] * h[j] for j in range(n)], axis=1)))
    for axis in range(n):
        wrap = periodic and (axis > 0 or rows is None)
        edge = _edge_op(neg, axis, wrap, np.not_equal)
        edge &= _edge_op(pos, axis, wrap, np.not_equal)
        flat = np.flatnonzero(edge)
        if flat.size == 0:
            continue
        # the edge array is one row shorter than v on an axis that does not wrap
        idx = np.unravel_index(flat, edge.shape)
        # the edge's far end; only a wrapping axis goes past the last row
        far = idx[:axis] + ((idx[axis] + 1) % v.shape[axis],) + idx[axis + 1 :]
        v0, v1 = v[idx], v[far]
        t = v0 / (v0 - v1)
        at = _global_index(idx, rows)
        pts = np.stack([at[j].astype(float) for j in range(n)], axis=1)
        pts[:, axis] += t
        chunks.append((idx[0], pts * np.asarray(h)))
    return chunks


def crossed_segments(v: np.ndarray, h, periodic: bool, mode, rows=None):
    """Sort keys and lengths of the marching-squares segments of a 2-d grid's crossed cells.

    ``v`` and ``rows`` are as in ``_window_vertices``: on a window the cells
    lie between consecutive rows of ``v``. Returns ((keys, lengths) of every
    crossed cell's first segment, (keys, lengths) of the saddles' second
    segments), each row-major. ``marching_squares`` sums them.
    """
    h0, h1 = h
    pos = v >= 0
    # the crossed cells: corners neither all nonnegative nor all negative
    mixed = _corner_reduce(pos, periodic, np.logical_and, rows is None) != _corner_reduce(
        pos, periodic, np.logical_or, rows is None
    )
    pi, jj = np.unravel_index(np.flatnonzero(mixed), mixed.shape)
    p1, j1 = (pi + 1) % v.shape[0], (jj + 1) % v.shape[1]
    ii = pi if rows is None else rows[pi]
    # corners 0=(i,j) 1=(i+1,j) 2=(i+1,j+1) 3=(i,j+1); edge k joins corners k
    # and k+1 (mod 4); pattern bit k set = corner k has value >= 0
    corners = (pi, jj), (p1, jj), (p1, j1), (pi, j1)
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
    plus = eval_mode(mode, np.stack([(si + 0.5) * h0, (sj + 0.5) * h1], axis=1)) >= 0
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
    return (key, lengths[: pat.size]), (key[saddle] + 1, lengths[pat.size :])


def segment_sum(pieces) -> float:
    """Total length of (keys, lengths) pieces: one stable sort by key over all of them, one sum."""
    keys = np.concatenate([k for k, _ in pieces])
    lengths = np.concatenate([length for _, length in pieces])
    return float(lengths[np.argsort(keys, kind="stable")].sum())


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
    return segment_sum(crossed_segments(sample.values, sample.h, sample.periodic, sample.mode))


def extract_nodal(sample: GridSample) -> NodalApprox:
    """Locate the nodal set on the grid.

    Vertices combine exact-zero grid points with strict sign-change crossings,
    interpolated linearly along edges.
    """
    chunks = _window_vertices(sample.values.reshape(sample.shape), sample.h, sample.periodic)
    if not chunks:
        return NodalApprox(sample, np.empty((0, sample.n)))
    return NodalApprox(sample, np.concatenate([pts for _, pts in chunks], axis=0))
