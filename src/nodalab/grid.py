"""Uniform grid sampling of eigenfunctions with exact sign fidelity.

The per-axis factor values are computed from the integer phase structure:
on a Dirichlet axis with N points the i-th phase is pi * m * i / (N - 1), on a
torus axis 2 pi * m * i / N. Reducing the integer numerator modulo the period
first keeps arguments in [0, 2 pi) at any index, and lets points that land
exactly on a factor zero be stamped to 0.0 by an integer divisibility test,
so on-grid nodal coordinates evaluate to exactly zero and every sampled sign
is trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ResourceGuardError, ValidationError
from .spectrum import DomainSpec, EigenMode

GRID_POINT_CAP = 30_000_000


@dataclass(frozen=True)
class ResolutionRule:
    """How finely to sample: points per factor wavelength, optional spacing cap."""

    points_per_wavelength: float = 32.0
    h_max: float | None = None
    min_points_per_axis: int = 16
    max_total_points: int = GRID_POINT_CAP

    def __post_init__(self):
        if self.points_per_wavelength < 4:
            raise ValidationError("need at least 4 points per wavelength")
        if self.h_max is not None and not self.h_max > 0:
            raise ValidationError("h_max must be positive")
        if self.min_points_per_axis < 2:
            raise ValidationError("need at least 2 points per axis")


@dataclass
class GridSample:
    """Eigenfunction values on a uniform axis-aligned grid over the fundamental region.

    Torus grids hold N points per axis at spacing h = period/N (the wrap duplicate
    is not stored); Dirichlet grids include both endpoints, h = length/(N-1).
    """

    mode: EigenMode
    h: tuple[float, ...]
    shape: tuple[int, ...]
    values: np.ndarray

    @property
    def domain(self) -> DomainSpec:
        return self.mode.domain

    @property
    def periodic(self) -> bool:
        return self.mode.domain.periodic

    @property
    def n(self) -> int:
        return len(self.shape)


def _axis_factor(mode: EigenMode, axis: int, npts: int) -> np.ndarray:
    """Factor values at grid indices, exact zeros stamped via integer phase tests."""
    mj = mode.m[axis]
    if mj == 0:
        return np.ones(npts)
    i = np.arange(npts, dtype=np.int64)
    if mode.domain.periodic:
        den = npts                      # phase = pi * (2 m i) / N
        num = (2 * mj * i) % (2 * den)
    else:
        den = npts - 1                  # phase = pi * (m i) / (N - 1)
        num = (mj * i) % (2 * den)
    f = np.sin(math.pi * num / den)
    f[num % den == 0] = 0.0
    return f


def sample_grid(mode: EigenMode, rule: ResolutionRule = ResolutionRule()) -> GridSample:
    """Sample the eigenfunction on a grid fine enough for the rule.

    Spacing per axis: at most (factor wavelength)/(points per wavelength) on
    oscillating axes, at most rule.h_max everywhere if given; at least
    min_points_per_axis points per axis. Raises ResourceGuardError if the
    total point count would exceed the rule's cap.
    """
    dom = mode.domain
    lengths = dom.lengths
    shape = []
    for j in range(dom.n):
        caps = []
        if mode.m[j] > 0:
            wavelength = 2.0 * math.pi / (mode.m[j] * dom.alpha[j])
            caps.append(wavelength / rule.points_per_wavelength)
        if rule.h_max is not None:
            caps.append(rule.h_max)
        if not caps:
            caps.append(lengths[j] / rule.min_points_per_axis)
        h_target = min(caps)
        if dom.periodic:
            npts = max(rule.min_points_per_axis, math.ceil(lengths[j] / h_target))
        else:
            npts = max(rule.min_points_per_axis, math.ceil(lengths[j] / h_target) + 1)
        shape.append(npts)
    total = math.prod(shape)
    if total > rule.max_total_points:
        raise ResourceGuardError(
            f"grid of shape {tuple(shape)} has {total} points (cap {rule.max_total_points})"
        )
    h, factors = [], []
    for j, npts in enumerate(shape):
        hj = lengths[j] / (npts if dom.periodic else npts - 1)
        h.append(hj)
        factors.append(_axis_factor(mode, j, npts))
    values = reduce(np.multiply.outer, factors) if dom.n > 1 else factors[0]
    return GridSample(mode, tuple(h), tuple(shape), values)
