"""Boxes that meet the nodal set, counted for the tests.

No experiment counts nodal boxes. The acceptance suite checks that their
count scales like mu/delta, and the nodal tests check that the sign-change
cells hold every zero crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nodalab.boxes import Subdivision, _check_alignment, _star_sum
from nodalab.grid import GridSample
from nodalab.nodal import _corner_reduce

from whole_grid import NodalApprox


@dataclass
class NodalBoxes:
    """Boxes meeting the nodal set: count, mask, and starred-union volume."""

    count: int
    mask: np.ndarray
    star_volume: float


def sign_change_cells(sample: GridSample) -> np.ndarray:
    """Lower-corner indices of the cells whose corner signs are neither all > 0 nor all < 0."""
    sign = np.sign(sample.values).astype(np.int8)
    cmin = _corner_reduce(sign, sample.periodic, np.minimum)
    cmax = _corner_reduce(sign, sample.periodic, np.maximum)
    return np.argwhere((cmin <= 0) & (cmax >= 0))


def nodal_box_count(sub: Subdivision, nodal: NodalApprox) -> NodalBoxes:
    """Boxes containing a nodal vertex or a whole sign-change cell of the sample.

    The starred-union volume covers every flagged box plus its touching
    neighbors (the union of R_nu*), which contains the delta-tube when the
    grid resolves delta.
    """
    sample = nodal.sample
    _check_alignment(sample, sub)
    counts = np.asarray(sub.counts)
    lengths = np.asarray(sub.lengths)

    def box_of(points: np.ndarray) -> np.ndarray:
        b = np.floor(points * counts / lengths).astype(np.int64)
        if sample.periodic:
            return b % counts
        return np.clip(b, 0, counts - 1)

    mask = np.zeros(sub.counts, dtype=bool)
    mask[tuple(box_of(nodal.vertices).T)] = True
    # a cell counts only when it lies inside a single box; straddling
    # cells are represented by their crossing vertices instead
    cells = sign_change_cells(sample)
    h = np.asarray(sample.h)
    lo = box_of(cells * h)
    hi = box_of((cells + 1) * h)
    inside = np.all(lo == hi, axis=1)
    mask[tuple(lo[inside].T)] = True
    star = _star_sum(mask.astype(np.int64), sample.periodic) > 0
    return NodalBoxes(int(mask.sum()), mask, float(star.sum()) * sub.box_volume)
