"""Nodal set extraction from grid samples.

Vertices are exact-zero grid points plus linearly interpolated zero crossings on
grid edges. In two dimensions, marching squares additionally emits segments; the
ambiguous saddle configurations are resolved by the sign of the eigenfunction at
the cell center, which is evaluated analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSample
from .spectrum import eval_mode

# marching-squares case table: pattern bit k set = corner k has value >= 0.
# corners: 0=(0,0) 1=(1,0) 2=(1,1) 3=(0,1); edges: 0=bottom 1=right 2=top 3=left.
_MS_CASES = {
    1: [(0, 3)], 14: [(0, 3)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(1, 3)], 12: [(1, 3)],
    6: [(0, 2)], 9: [(0, 2)],
}
_SADDLES = {5, 10}


@dataclass
class NodalApprox:
    """Discrete nodal set: interpolated vertices and, in 2-d, segments."""

    sample: GridSample
    vertices: np.ndarray              # (v, n) float coordinates
    segments: np.ndarray | None = None   # (s, 2, 2) float endpoints, 2-d only
    measure_2d: float | None = None

    @property
    def empty(self) -> bool:
        return self.vertices.shape[0] == 0


def _axis_pairs(values: np.ndarray, axis: int, periodic: bool):
    """(v0, v1) arrays of edge endpoint values along an axis."""
    if periodic:
        return values, np.roll(values, -1, axis=axis)
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    lo[axis] = slice(0, values.shape[axis] - 1)
    hi[axis] = slice(1, values.shape[axis])
    return values[tuple(lo)], values[tuple(hi)]


def _corner_reduce(values: np.ndarray, periodic: bool, op):
    """Reduce over the 2^n corners of every grid cell."""
    out = values
    for axis in range(values.ndim):
        a, b = _axis_pairs(out, axis, periodic)
        out = op(a, b)
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
        v0, v1 = _axis_pairs(v, axis, sample.periodic)
        cross = v0 * v1 < 0.0
        idx = np.nonzero(cross)
        if idx[0].size == 0:
            continue
        t = v0[idx] / (v0[idx] - v1[idx])
        pts = np.stack([idx[j].astype(float) for j in range(n)], axis=1)
        pts[:, axis] += t
        chunks.append(pts * np.asarray(sample.h))
    if not chunks:
        return np.empty((0, n))
    return np.concatenate(chunks, axis=0)


def _segments_2d(sample: GridSample) -> tuple[np.ndarray, float]:
    """Marching squares over all cells; zeros count as the nonnegative class."""
    v = sample.values
    per = sample.periodic
    a, d = _axis_pairs(v, 1, per)        # a: (i, j), d: (i, j+1)
    a, b = _axis_pairs(a, 0, per)        # b: (i+1, j)
    d, c = _axis_pairs(d, 0, per)        # c: (i+1, j+1)
    pattern = (
        (a >= 0).astype(np.int8)
        + 2 * (b >= 0).astype(np.int8)
        + 4 * (c >= 0).astype(np.int8)
        + 8 * (d >= 0).astype(np.int8)
    )
    h0, h1 = sample.h
    segs = []

    def edge_points(ii, jj, edge):
        av, bv, cv, dv = a[ii, jj], b[ii, jj], c[ii, jj], d[ii, jj]
        with np.errstate(divide="ignore", invalid="ignore"):
            if edge == 0:
                t = av / (av - bv)
                return np.stack([(ii + t) * h0, jj * h1], axis=1)
            if edge == 1:
                t = bv / (bv - cv)
                return np.stack([(ii + 1.0) * h0, (jj + t) * h1], axis=1)
            if edge == 2:
                t = dv / (dv - cv)
                return np.stack([(ii + t) * h0, (jj + 1.0) * h1], axis=1)
            t = av / (av - dv)
            return np.stack([ii * h0, (jj + t) * h1], axis=1)

    for pat, pairs in _MS_CASES.items():
        ii, jj = np.nonzero(pattern == pat)
        if ii.size == 0:
            continue
        for e1, e2 in pairs:
            segs.append(np.stack([edge_points(ii, jj, e1), edge_points(ii, jj, e2)], axis=1))
    for pat in _SADDLES:
        ii, jj = np.nonzero(pattern == pat)
        if ii.size == 0:
            continue
        centers = np.stack([(ii + 0.5) * h0, (jj + 0.5) * h1], axis=1)
        plus = eval_mode(sample.mode, centers) >= 0
        # pattern 5 (+ corners on the main diagonal): center + joins them,
        # isolating corners 1 and 3; pattern 10 is the mirror image.
        if pat == 5:
            first = [(0, 1), (2, 3)]
            second = [(0, 3), (1, 2)]
        else:
            first = [(0, 3), (1, 2)]
            second = [(0, 1), (2, 3)]
        for mask, pairs in ((plus, first), (~plus, second)):
            si, sj = ii[mask], jj[mask]
            if si.size == 0:
                continue
            for e1, e2 in pairs:
                segs.append(np.stack([edge_points(si, sj, e1), edge_points(si, sj, e2)], axis=1))
    if not segs:
        return np.empty((0, 2, 2)), 0.0
    segments = np.concatenate(segs, axis=0)
    lengths = np.linalg.norm(segments[:, 1] - segments[:, 0], axis=1)
    return segments, float(lengths.sum())


def extract_nodal(sample: GridSample, with_segments: bool = True) -> NodalApprox:
    """Locate the nodal set on the grid.

    Vertices combine exact-zero grid points with strict sign-change crossings,
    interpolated linearly along edges. For 2-d samples marching-squares
    segments and their total length are included unless ``with_segments`` is
    False.
    """
    vertices = _edge_vertices(sample)
    segments = measure = None
    if sample.n == 2 and with_segments:
        segments, measure = _segments_2d(sample)
    return NodalApprox(sample, vertices, segments, measure)
