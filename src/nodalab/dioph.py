"""Approximation of points by nodal sets: exact distances, exponents, convergence sums.

For separable modes the distance from a point to the nodal set is exact and
closed-form: the min over axes of the distance from x_j to the nearest zero of
the j-th factor, a lattice of spacing pi / (m_j alpha_j), shifted by half a
spacing for a cosine factor. That axis distance depends only on (m_j, kind_j),
so a scan over a mode list computes it once per index 0..max m_j, in a table
far shorter than a 2-d or 3-d list, and gathers the table by each row's
index. Each table entry gets the same IEEE operations the per-row formula
would (the same int64 x float spacing, the same mod and min), so the gathered
distances are bitwise equal to it. Records of the running minimum distance
drive per-point approximation exponents; exact tube volumes drive the
convergence (Borel-Cantelli style) sums, since the radii shrink below any
fixed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectrum import DomainSpec, ModeList, enumerate_modes


def _lattice_distance_table(x, spacing: np.ndarray) -> np.ndarray:
    """Entry i is the distance from x to the lattice spacing[i-1] * Z; entry 0 is inf.

    x may be a scalar or one offset point per spacing. Entry 0 stands for an
    axis with index 0, whose factor has no zero.
    """
    r = np.mod(x, spacing)
    table = np.empty(spacing.size + 1)
    table[0] = np.inf
    np.minimum(r, spacing - r, out=table[1:])
    return table


def modes_nodal_distance(point, modes: ModeList) -> np.ndarray:
    """Exact nodal distances from one point to every mode in the list."""
    dom = modes.domain
    point = np.asarray(point, dtype=float)
    if point.shape != (dom.n,):
        raise ValidationError(f"point must have {dom.n} coordinates")
    dist = np.full(modes.m.shape[0], np.inf)
    for j in range(dom.n):
        mj = modes.m[:, j]
        top = int(mj.max(initial=0))
        if top == 0:
            continue
        spacing = math.pi / (np.arange(1, top + 1) * dom.alpha[j])
        d = _lattice_distance_table(point[j], spacing)[mj]
        # kind code 0 = cos: zeros sit half a spacing off the sin lattice
        cos_rows = modes.kind_codes[:, j] == 0
        if cos_rows.any():
            cos_rows &= mj > 0
            if cos_rows.any():
                cos_table = _lattice_distance_table(point[j] - 0.5 * spacing, spacing)
                d[cos_rows] = cos_table[mj[cos_rows]]
        np.minimum(dist, d, out=dist)
    if not np.isfinite(dist).all():
        raise ValidationError("a mode in the list has an empty nodal set")
    return dist


@dataclass(frozen=True)
class ExponentEstimate:
    """Record-event regression estimate of a point's approximation exponent."""

    point: tuple[float, ...]
    exponent: float
    n_records: int
    residual: float
    mu_range: tuple[float, float]
    low_confidence: bool
    exact_hit: bool


def estimate_exponent(
    point,
    modes: ModeList,
    mu_min: float = 3.0,
    mu_max: float | None = None,
) -> ExponentEstimate:
    """Fit -log(best distance so far) against log(mu) at its record events.

    Records are the modes that strictly improve the running minimum of the
    scale-free proxy mu * dist. Raw-distance records also admit long ramps of
    intermediate denominators between genuine approximation events; those
    ramps concentrate regression weight at one end of the window and spoil
    the fitted slope. The proxy keeps only second-kind best approximations
    (convergent denominators of x/pi on the interval), and every such record
    improves the raw distance as well, so the fitted quantity is unchanged.
    A point lying exactly on some nodal set gets an infinite exponent and the
    exact_hit flag; fewer than five records flag low confidence.
    """
    if len(modes) == 0:
        raise ValidationError("mode list is empty")
    dist = modes_nodal_distance(point, modes)
    mu = modes.mu
    hi = float(mu[-1]) if mu_max is None else float(mu_max)
    if not mu_min < hi:
        raise ValidationError("empty fit window")
    pt = tuple(float(v) for v in np.atleast_1d(np.asarray(point, dtype=float)))
    zero = dist == 0.0
    if zero.any():
        hit_mu = float(mu[zero][0])
        return ExponentEstimate(pt, math.inf, 0, 0.0, (mu_min, hit_mu), False, True)
    proxy = mu * dist
    running = np.minimum.accumulate(proxy)
    prev = np.concatenate([[np.inf], running[:-1]])
    rec = (proxy < prev) & (mu >= mu_min) & (mu <= hi)
    idx = np.nonzero(rec)[0]
    n_rec = int(idx.size)
    if n_rec < 2:
        return ExponentEstimate(pt, math.nan, n_rec, math.nan, (mu_min, hi), True, False)
    X = np.log(mu[idx])
    Y = -np.log(dist[idx])
    slope, intercept = np.polyfit(X, Y, 1)
    resid = float(np.sqrt(np.mean((Y - slope * X - intercept) ** 2)))
    return ExponentEstimate(pt, float(slope), n_rec, resid, (mu_min, hi), n_rec < 5, False)


@dataclass
class BorelCantelliSums:
    """Partial sums of exact tube volumes at shrinking radii C/mu^(n+1+eps)."""

    mu: np.ndarray
    volumes: np.ndarray     # per-mode exact tube volume
    partial: np.ndarray     # S_K = cumulative sum of volumes
    comparison: np.ndarray  # cumulative sum of C * mu^-(n+eps)

    def cauchy_gap(self, K: int) -> float:
        """S_2K - S_K, the tail mass between K and 2K terms."""
        if 2 * K > self.partial.size:
            raise ValidationError(f"need {2 * K} terms, have {self.partial.size}")
        return float(self.partial[2 * K - 1] - self.partial[K - 1])


def borel_cantelli_sum(
    domain: DomainSpec, C: float, eps: float, k_max: int, mu_cap: float | None = None
) -> BorelCantelliSums:
    """Sum exact tube volumes Vol(T_{mu_k, C/mu_k^{n+1+eps}}) over the spectrum.

    Volumes come from the exact strip inclusion-exclusion oracle, never a grid:
    the radii shrink like mu^-(n+1+eps), below any fixed resolution. Also
    returns the analytic comparison series C * mu^-(n+eps) (up to the nodal
    measure constant), whose convergence the partial sums must track.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if C <= 0:
        raise ValidationError("C must be positive")
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    from .spectrum import tube_volume_exact

    n = domain.n
    if mu_cap is None:
        # Weyl-style guess, grown until enough modes exist
        mu_cap = 4.0 * max(domain.alpha) * (k_max ** (1.0 / n) + 2.0)
    modes = enumerate_modes(domain, mu_cap)
    while modes.m.shape[0] < k_max:
        mu_cap *= 1.5
        modes = enumerate_modes(domain, mu_cap)
    vols = np.empty(k_max)
    mu = modes.mu[:k_max].copy()
    for k in range(k_max):
        delta = C / mu[k] ** (n + 1 + eps)
        vols[k] = tube_volume_exact(modes[k], delta)
    comparison = C * mu ** (-(n + eps))
    return BorelCantelliSums(mu, vols, np.cumsum(vols), np.cumsum(comparison))
