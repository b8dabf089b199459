"""The whole-grid nodal set: float vertex coordinates and the marching-squares length.

The package runs the vertex and crossed-cell searches of ``nodal`` on the
tube stream's row windows (``measures.streamed_tubes`` and
``measures.grid_seeds``), and counts the interval's vertices without
placing them. These are the same searches on the whole grid, kept as the
references that the streamed seeds and lengths and the interval Yau count
are compared with bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from nodalab.grid import GridSample
from nodalab.nodal import _window_vertices, crossed_cells, crossed_segments, segment_sum


@dataclass
class NodalApprox:
    """Discrete nodal set: interpolated vertices."""

    sample: GridSample
    vertices: np.ndarray              # (v, n) float coordinates


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
