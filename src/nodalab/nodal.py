"""Nodal set extraction from grid samples.

Vertices are exact-zero grid points plus linearly interpolated zero crossings on
grid edges. Both come from two sign masks, ``v < 0`` and ``v > 0``, which
the caller forms once: a zero point is in neither, and an edge crosses where
both masks differ across it, a strict sign change. Indices are taken flat
(``np.flatnonzero`` and ``np.unravel_index`` on the edge array's shape).
``_window_vertices`` returns them as groups of grid indices with, for each
crossing, its axis and its interpolation ``t = v0 / (v0 - v1)``;
``extract_nodal`` turns them into coordinates, and the tube stream's chunks
rasterize them into every grid's seeds (``measures.grid_seeds``). The masks see every strict sign change, also one between
two values so tiny that their product rounds to -0.0 (2**-537 and
-(2**-538)): a test of ``v0 * v1 < 0`` would miss that edge.

Separately, ``marching_squares`` measures the total length of the
marching-squares contour of a 2-d sample in two halves. ``crossed_cells``
finds the cells whose corners are neither all negative nor all nonnegative
(zeros count as nonnegative, so the class mask is the complement of
``v < 0`` and the cells come from that mask) and gathers their rows,
columns and corner values. ``crossed_segments`` is the geometry: per cell
its pattern, its one or two segments between the zero crossings on its
crossed edges, and their sort keys and lengths. The ambiguous saddle
configurations are resolved by the sign of the eigenfunction at the cell
center, which is evaluated analytically.

The vertex and crossed-cell searches run on the whole grid or on a window of
its rows (``rows``, their global indices): ``extract_nodal`` and
``marching_squares`` are the whole-grid case, and ``measures.streamed_tubes``
runs the windows of its chunks, joining a pass's crossed cells for one run
of the geometry. A window's cells and axis-0 edges lie between its
consecutive rows, and its points take their rows' global indices, so a
window's vertices, crossed cells, segment keys and lengths are bitwise the
whole grid's.
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


def _window_vertices(v: np.ndarray, neg: np.ndarray, pos: np.ndarray, periodic: bool,
                     rows=None) -> list:
    """Exact-zero grid points plus strict sign-change edge crossings, as (axis, index, t) groups.

    ``neg`` and ``pos`` are ``v < 0`` and ``v > 0``. ``v`` is the whole grid
    when ``rows`` is None: axis 0 then wraps on a torus. Otherwise ``v``
    holds the grid rows whose global indices are ``rows``: axis-0 edges join
    consecutive rows of ``v`` only, and an index takes its row's global
    index. The zeros' group has axis and t None: its vertices are the grid
    points at its index arrays. An edge group's vertex i lies a fraction
    t[i] = v0 / (v0 - v1) of the way from the point at its index to the next
    one along its axis, so on every other axis its coordinate is k h for its
    grid index k.
    """
    groups = []
    zero = np.flatnonzero(neg == pos)  # neither negative nor positive
    if zero.size:
        groups.append((None, _global_index(np.unravel_index(zero, v.shape), rows), None))
    for axis in range(v.ndim):
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
        groups.append((axis, _global_index(idx, rows), v0 / (v0 - v1)))
    return groups


def crossed_cells(v: np.ndarray, neg: np.ndarray, periodic: bool, rows=None):
    """The crossed cells of a 2-d grid: corners neither all negative nor all nonnegative.

    ``v``, ``neg`` (``v < 0``) and ``rows`` are as in ``_window_vertices``:
    on a window the cells lie between consecutive rows of ``v``. Returns
    their global rows, their columns and their corner values (4, cells),
    corners 0=(i,j) 1=(i+1,j) 2=(i+1,j+1) 3=(i,j+1), row-major.
    """
    wrap = rows is None
    mixed = _corner_reduce(neg, periodic, np.logical_and, wrap) != _corner_reduce(
        neg, periodic, np.logical_or, wrap
    )
    pi, jj = np.unravel_index(np.flatnonzero(mixed), mixed.shape)
    p1, j1 = (pi + 1) % v.shape[0], (jj + 1) % v.shape[1]
    corners = np.stack([v[pi, jj], v[p1, jj], v[p1, j1], v[pi, j1]])
    return (pi if rows is None else rows[pi]), jj, corners


def crossed_segments(ii: np.ndarray, jj: np.ndarray, corners: np.ndarray, h, mode):
    """Sort keys and lengths of the marching-squares segments of crossed cells.

    ``ii``, ``jj`` and ``corners`` are ``crossed_cells``' output, or several
    of them joined. Returns ((keys, lengths) of every cell's first segment,
    (keys, lengths) of the saddles' second segments), each in the cells'
    order. Every length depends on its own cell only.
    """
    h0, h1 = h
    a, b, c, d = corners
    # edge k joins corners k and k+1 (mod 4); pattern bit k set = corner k has value >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.stack([(ii + a / (a - b)) * h0, (ii + 1.0) * h0, (ii + d / (d - c)) * h0, ii * h0])
        y = np.stack([jj * h1, (jj + b / (b - c)) * h1, (jj + 1.0) * h1, (jj + a / (a - d)) * h1])
    bits = corners >= 0
    b8 = bits.view(np.uint8)
    pat = b8[0] | b8[1] << 1 | b8[2] << 2 | b8[3] << 3
    c0, c1, c2, c3 = bits != np.roll(bits, -1, axis=0)  # the crossed edges: two, or four
    first = 2 - 2 * c0 - (c1 & ~c0)
    last = 1 + 2 * c3 + (c2 & ~c3)
    saddle = c0 & c1 & c2 & c3
    si, sj = ii[saddle], jj[saddle]
    plus = eval_mode(mode, np.stack([(si + 0.5) * h0, (sj + 0.5) * h1], axis=1)) >= 0
    # the center joins the two corners of its own class; when those are 0 and
    # 2 the segments cut off corners 1 and 3 by edges (0,1),(2,3), else (0,3),(1,2)
    join = (bits[0, saddle] == plus).astype(np.int64)
    last[saddle] -= 2 * join
    # sum order: pattern rank, then a saddle's center sign (+ first) and segment
    key = 4 * _EMIT_RANK[pat]
    key[saddle] += 2 * ~plus
    # flat indices into x and y of each segment's two edge points
    cols = np.concatenate([np.arange(pat.size), np.flatnonzero(saddle)])
    e = np.concatenate([first, 1 + join]) * pat.size + cols
    f = np.concatenate([last, 2 + join]) * pat.size + cols
    dx = np.take(x, e) - np.take(x, f)
    dy = np.take(y, e) - np.take(y, f)
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
    v = sample.values
    cells = crossed_cells(v, v < 0.0, sample.periodic)
    return segment_sum(crossed_segments(*cells, sample.h, sample.mode))


def extract_nodal(sample: GridSample) -> NodalApprox:
    """Locate the nodal set on the grid.

    Vertices combine exact-zero grid points with strict sign-change crossings,
    interpolated linearly along edges.
    """
    v = sample.values.reshape(sample.shape)
    parts = []
    for axis, idx, t in _window_vertices(v, v < 0.0, v > 0.0, sample.periodic):
        pts = np.stack([k.astype(float) for k in idx], axis=1)
        if axis is not None:
            pts[:, axis] += t
        parts.append(pts * np.asarray(sample.h))
    if not parts:
        return NodalApprox(sample, np.empty((0, sample.n)))
    return NodalApprox(sample, np.concatenate(parts, axis=0))
