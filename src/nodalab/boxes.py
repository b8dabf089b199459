"""Box subdivisions and per-box statistics of eigenfunction mass.

The domain is tiled by equal axis intervals with side strictly between delta
and 2*delta. Local averages of phi^2 over a box and over its starred union
(the box plus its <= 3^n - 1 touching neighbors) drive the exceptional-set
mask: a grid point is exceptional when phi^2 there deviates from the starred
average of its box by more than the comparability factor A. The fraction of
each box that mask covers classifies the box as good or bad; boxes meeting
the nodal set are counted separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ValidationError
from .grid import GridSample
from .nodal import NodalApprox, _corner_reduce


def unit_ball_volume(n: int) -> float:
    """Volume of the n-dimensional unit ball (2, pi, 4 pi/3, ...)."""
    if n < 1:
        raise ValidationError("dimension must be >= 1")
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def goodness_threshold(n: int) -> float:
    """Default exceptional-mass fraction below which a box counts as good."""
    return unit_ball_volume(n) * 10.0 ** (-2 * n)


@dataclass(frozen=True)
class Subdivision:
    """Equal-interval tiling of an axis-aligned cube, every side in (delta, 2*delta)."""

    origin: tuple[float, ...]
    lengths: tuple[float, ...]
    delta: float
    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.lengths)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(L / c for L, c in zip(self.lengths, self.counts))

    @property
    def n_boxes(self) -> int:
        return math.prod(self.counts)

    @property
    def box_volume(self) -> float:
        return math.prod(self.sides)

    def edges(self, axis: int) -> np.ndarray:
        c = self.counts[axis]
        return self.origin[axis] + self.lengths[axis] * np.arange(c + 1) / c


def _axis_count(L: float, delta: float) -> int:
    if L <= delta:
        raise ValidationError(f"axis length {L:g} must exceed delta={delta:g}")
    N = max(1, math.floor(L / (1.5 * delta)))
    for cand in (N, N - 1, N + 1):
        if cand >= 1 and delta < L / cand < 2 * delta:
            return cand
    raise ValidationError(f"no box count puts side of axis length {L:g} in ({delta:g}, {2*delta:g})")


def subdivide(lengths, delta: float, origin=None) -> Subdivision:
    """Tile a cube with equal intervals per axis, each side strictly in (delta, 2*delta)."""
    if not delta > 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    lengths = tuple(float(L) for L in lengths)
    if origin is None:
        origin = (0.0,) * len(lengths)
    counts = tuple(_axis_count(L, delta) for L in lengths)
    return Subdivision(tuple(float(o) for o in origin), lengths, float(delta), counts)


def _check_alignment(sample: GridSample, sub: Subdivision):
    if sub.n != sample.n:
        raise ValidationError("subdivision and sample dimensions differ")
    lengths = sample.domain.lengths
    for j in range(sub.n):
        if abs(sub.origin[j]) > 1e-12 or abs(sub.lengths[j] - lengths[j]) > 1e-9:
            raise ValidationError("subdivision must tile the sample's full domain")
    for j in range(sub.n):
        if sub.sides[j] / sample.h[j] < 8.0 - 1e-9:
            raise ResolutionError(
                f"axis {j}: {sub.sides[j] / sample.h[j]:.2f} grid points per box side (need >= 8)"
            )


def _grid_box_ids(sample: GridSample, sub: Subdivision) -> np.ndarray:
    """Flat box index of every grid point, shaped like the sample."""
    per_axis = []
    for j in range(sub.n):
        x = np.arange(sample.shape[j]) * sample.h[j]
        b = np.floor(x * sub.counts[j] / sub.lengths[j]).astype(np.int64)
        per_axis.append(np.clip(b, 0, sub.counts[j] - 1))
    flat = per_axis[0]
    for j in range(1, sub.n):
        flat = flat[..., None] * sub.counts[j] + per_axis[j]
    return flat


def _box_sum(flat_ids: np.ndarray, weights: np.ndarray | None, sub: Subdivision) -> np.ndarray:
    w = None if weights is None else weights.ravel()
    out = np.bincount(flat_ids.ravel(), weights=w, minlength=sub.n_boxes)
    return out.reshape(sub.counts)


def _star_sum(arr: np.ndarray, periodic: bool) -> np.ndarray:
    """Sum over the 3^n star of boxes, separably one axis at a time."""
    out = arr
    for axis in range(arr.ndim):
        if periodic:
            out = out + np.roll(out, 1, axis=axis) + np.roll(out, -1, axis=axis)
        else:
            acc = out.copy()
            lo = [slice(None)] * arr.ndim
            hi = [slice(None)] * arr.ndim
            lo[axis] = slice(0, -1)
            hi[axis] = slice(1, None)
            acc[tuple(lo)] += out[tuple(hi)]
            acc[tuple(hi)] += out[tuple(lo)]
            out = acc
    return out


def comparability_set(sample: GridSample, sub: Subdivision, A: float):
    """Exceptional grid points: phi^2 off its starred box average by factor > A.

    Returns (mask, volume): a boolean array over the sample grid marking points
    where phi^2 / Av_{R*}(phi^2) leaves [1/A, A], and its volume, marked count
    times the grid cell volume. This is the minimal exceptional set for the
    given A; any valid choice contains it.
    """
    if not 1 < A < math.inf:
        raise ValidationError(f"comparability factor A must lie in (1, inf), got {A}")
    _check_alignment(sample, sub)
    F = sample.values**2
    ids = _grid_box_ids(sample, sub)
    sums = _box_sum(ids, F, sub)
    cnts = _box_sum(ids, None, sub)
    star_avg = _star_sum(sums, sample.periodic) / _star_sum(cnts.astype(float), sample.periodic)
    if not np.all(star_avg > 0):
        raise ValidationError("a starred box average is zero (sample vanishes there)")
    local = star_avg.reshape(-1)[ids]
    ratio = F / local
    mask = (ratio < 1.0 / A) | (ratio > A)
    volume = float(mask.sum()) * float(np.prod(np.asarray(sample.h)))
    return mask, volume


def bad_proportion(sample: GridSample, sub: Subdivision, mask: np.ndarray) -> float:
    """Fraction of boxes whose exceptional fraction is not below goodness_threshold(n).

    mask marks the exceptional grid points, as returned by comparability_set.
    """
    _check_alignment(sample, sub)
    ids = _grid_box_ids(sample, sub)
    counts = _box_sum(ids, None, sub).astype(float)
    e_frac = _box_sum(ids, mask.astype(float), sub) / counts
    good = e_frac < goodness_threshold(sub.n)
    return float((~good).sum() / good.size)


@dataclass
class NodalBoxes:
    """Boxes meeting the nodal set: count, mask, and starred-union volume."""

    count: int
    mask: np.ndarray
    star_volume: float


def _sign_change_cells(sample: GridSample) -> np.ndarray:
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
    cells = _sign_change_cells(sample)
    h = np.asarray(sample.h)
    lo = box_of(cells * h)
    hi = box_of((cells + 1) * h)
    inside = np.all(lo == hi, axis=1)
    mask[tuple(lo[inside].T)] = True
    star = _star_sum(mask.astype(np.int64), sample.periodic) > 0
    return NodalBoxes(int(mask.sum()), mask, float(star.sum()) * sub.box_volume)
