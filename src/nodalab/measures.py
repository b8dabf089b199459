"""Tube volumes, nodal measures, and density radii from distance fields.

The plain tube estimator is grid-point counting: (# points with dist < delta)
times the cell volume. The optional Monte Carlo refinement reclassifies every
grid cell as fully inside / fully outside / straddling the delta level set
using Lipschitz-rigorous margins from corner distances, then stratified-samples
the straddling cells against the exact closed-form distance of the separable
mode, removing the O(h) counting bias entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import DistanceField
from .errors import EmptyNodalSetError, ResolutionError, ValidationError
from .nodal import _corner_reduce
from .spectrum import nodal_distance_exact

# sample points evaluated per refinement chunk; bounds the chunk temporaries
# for any samples_per_cell without changing the drawn points or the hit count
REFINE_CHUNK_POINTS = 1 << 20


@dataclass(frozen=True)
class McRefine:
    """Stratified per-cell refinement: sample count and RNG seed."""

    samples_per_cell: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_cell < 1:
            raise ValidationError("samples_per_cell must be >= 1")


def _refined_volume(field: DistanceField, delta: float, refine: McRefine) -> float:
    sample = field.sample
    h = np.asarray(sample.h)
    cellvol = float(np.prod(h))
    diag = float(np.linalg.norm(h))
    margin = diag + field.raster_error
    cmin = _corner_reduce(field.dist, sample.periodic, np.minimum)
    cmax = _corner_reduce(field.dist, sample.periodic, np.maximum)
    fully_in = cmin + margin < delta
    fully_out = cmax - margin >= delta
    straddle = ~(fully_in | fully_out)
    vol = float(fully_in.sum()) * cellvol
    idx = np.argwhere(straddle)
    if idx.shape[0] == 0:
        return vol
    rng = np.random.default_rng(refine.seed)
    m = refine.samples_per_cell
    cells_per_chunk = max(1, REFINE_CHUNK_POINTS // m)
    hits = 0
    for start in range(0, idx.shape[0], cells_per_chunk):
        block = idx[start : start + cells_per_chunk]
        u = rng.random((block.shape[0], m, sample.n))
        pts = (block[:, None, :] + u) * h
        d = nodal_distance_exact(sample.mode, pts.reshape(-1, sample.n))
        hits += int((d < delta).sum())
    return vol + cellvol * hits / m


def tube_volume(field: DistanceField, delta: float, refine: McRefine | None = None) -> float:
    """Volume of the delta-tube around the nodal set.

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
    if refine is not None:
        return _refined_volume(field, delta, refine)
    sample = field.sample
    count = int((field.dist < delta).sum())
    return count * float(np.prod(np.asarray(sample.h)))


@dataclass
class NodalMeasure:
    """Dual-route (n-1)-measure estimate with its internal consistency check."""

    value: float
    by_tube: float | None
    by_segments: float | None
    tube_ratios: list | None
    agreement_rel: float | None
    flagged: bool
    note: str = ""


def nodal_measure(
    field: DistanceField,
    t_list,
    refine: McRefine | None = None,
    agree_tol: float = 0.03,
) -> NodalMeasure:
    """(n-1)-measure of the nodal set.

    Dimension one counts vertices. Higher dimensions extrapolate Vol(T_t)/(2t)
    linearly to t -> 0 (Richardson step over the two smallest t), and in 2-d
    cross-check against the marching-squares segment length; disagreement
    beyond ``agree_tol`` or a non-monotone ratio sequence flags the estimate.
    """
    sample = field.sample
    if sample.n == 1:
        return NodalMeasure(
            float(field.nodal.vertices.shape[0]), None, None, None, None, False,
            "vertex count",
        )
    ts = sorted(set(float(t) for t in t_list), reverse=True)
    if len(ts) < 2:
        raise ValidationError("need at least two tube radii to extrapolate")
    ratios = [tube_volume(field, t, refine) / (2.0 * t) for t in ts]
    extrap = ratios[-1] + (ratios[-1] - ratios[-2]) * ts[-1] / (ts[-2] - ts[-1])
    scale = max(abs(r) for r in ratios)
    non_monotone = any(
        b < a - 0.005 * scale for a, b in zip(ratios, ratios[1:])
    )
    flagged = non_monotone
    note = "non-monotone tube ratio sequence" if non_monotone else ""
    seg = field.nodal.measure_2d
    agreement = None
    if sample.n == 2 and seg is not None:
        denom = max(seg, abs(extrap))
        agreement = abs(seg - extrap) / denom if denom > 0 else 0.0
        if agreement > agree_tol:
            flagged = True
            note = (note + "; " if note else "") + "segment/tube disagreement"
    return NodalMeasure(extrap, extrap, seg, list(zip(ts, ratios)), agreement, flagged, note)


def density_radius(field: DistanceField) -> float:
    """Largest distance from any grid point to the nodal set."""
    if field.empty:
        raise EmptyNodalSetError("nodal set is empty; density radius undefined")
    return float(field.dist.max())
