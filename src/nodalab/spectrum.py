"""Model domains and their explicit Laplace eigenfunctions.

Three domain kinds are supported, all with separable trigonometric eigenbases:

- ``interval``: [0, pi] with Dirichlet ends, eigenfunctions sin(k x), frequency k.
- ``box``: an n-dimensional Dirichlet box with side lengths pi/alpha_j,
  eigenfunctions prod_j sin(m_j alpha_j x_j), all m_j >= 1.
- ``torus``: a flat torus with periods 2 pi / alpha_j, eigenfunctions products of
  sin(m_j alpha_j x_j) or cos(m_j alpha_j x_j) per axis, m not all zero.

The frequency of a mode is mu = sqrt(sum_j alpha_j^2 m_j^2); the eigenfunction
satisfies (Laplacian + mu^2) phi = 0. Because every mode is a product of 1-d
factors, its zero set is a union of axis-perpendicular hyperplane pieces whose
coordinates are known exactly; ``exact_nodal_description`` exposes them, and the
closed forms below (``tube_volume_exact`` etc.) integrate over them exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceGuardError, ValidationError

INTERVAL = "interval"
BOX = "box"
TORUS = "torus"
_KINDS = (INTERVAL, BOX, TORUS)

SIN = "sin"
COS = "cos"

# Default cap on enumerated modes; enumerate_modes refuses to build more.
MODE_COUNT_CAP = 10_000_000


@dataclass(frozen=True)
class DomainSpec:
    """A model domain: kind, dimension, and per-axis frequency weights alpha_j > 0.

    ``declared_independent`` is caller-supplied metadata asserting that
    1, alpha_1, ..., alpha_n are rationally independent (it is not verified;
    rational independence of floats is not decidable from the floats alone).
    """

    kind: str
    alpha: tuple[float, ...]
    declared_independent: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown domain kind {self.kind!r}")
        if not self.alpha:
            raise ValidationError("domain needs at least one axis")
        alpha = tuple(float(a) for a in self.alpha)
        if any(not math.isfinite(a) or a <= 0 for a in alpha):
            raise ValidationError("alpha weights must be finite and positive")
        if self.kind == INTERVAL and (len(alpha) != 1 or alpha[0] != 1.0):
            raise ValidationError("interval domain is 1-d with alpha = (1,)")
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def periodic(self) -> bool:
        return self.kind == TORUS

    @property
    def lengths(self) -> tuple[float, ...]:
        """Fundamental-region side lengths: pi/alpha_j (Dirichlet), 2pi/alpha_j (torus)."""
        span = 2.0 * math.pi if self.periodic else math.pi
        return tuple(span / a for a in self.alpha)

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "alpha": list(self.alpha),
            "declared_independent": self.declared_independent,
        }

    @staticmethod
    def interval() -> "DomainSpec":
        return DomainSpec(INTERVAL, (1.0,))

    @staticmethod
    def box(alpha) -> "DomainSpec":
        return DomainSpec(BOX, tuple(alpha))

    @staticmethod
    def torus(alpha, declared_independent=False) -> "DomainSpec":
        return DomainSpec(TORUS, tuple(alpha), declared_independent)


def _default_kinds(domain: DomainSpec, m: tuple[int, ...]) -> tuple[str, ...]:
    if domain.periodic:
        # sine factors carry nodal lines; a zero index forces the constant factor.
        return tuple(SIN if mj > 0 else COS for mj in m)
    return (SIN,) * domain.n


@dataclass(frozen=True)
class EigenMode:
    """One separable eigenfunction: per-axis integer indices and factor kinds."""

    domain: DomainSpec
    m: tuple[int, ...]
    kinds: tuple[str, ...] | None = None

    def __post_init__(self):
        m = tuple(int(v) for v in self.m)
        if len(m) != self.domain.n:
            raise ValidationError(f"mode index has {len(m)} entries for n={self.domain.n}")
        if any(v < 0 for v in m):
            raise ValidationError("mode indices must be nonnegative")
        kinds = tuple(self.kinds) if self.kinds else _default_kinds(self.domain, m)
        if len(kinds) != self.domain.n or any(k not in (SIN, COS) for k in kinds):
            raise ValidationError(f"bad factor kinds {kinds!r}")
        if self.domain.periodic:
            if all(v == 0 for v in m):
                raise ValidationError("torus mode indices must not all be zero")
            if any(v == 0 and k == SIN for v, k in zip(m, kinds)):
                raise ValidationError("a sine factor with index 0 is identically zero")
        else:
            if any(v < 1 for v in m):
                raise ValidationError("Dirichlet modes need every index >= 1")
            if any(k != SIN for k in kinds):
                raise ValidationError("Dirichlet boundary conditions force sine factors")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "kinds", kinds)

    @property
    def mu_squared(self) -> float:
        a = self.domain.alpha
        return float(sum((a[j] * self.m[j]) ** 2 for j in range(self.domain.n)))

    @property
    def mu(self) -> float:
        return math.sqrt(self.mu_squared)

    def factor_zero_spacing(self, axis: int) -> float:
        """Gap between consecutive zeros of the 1-d factor on this axis (inf if none)."""
        if self.m[axis] == 0:
            return math.inf
        return math.pi / (self.m[axis] * self.domain.alpha[axis])


def eval_mode(mode: EigenMode, points) -> np.ndarray:
    """Evaluate the eigenfunction at points of shape (..., n) (or (n,) for one point).

    Torus coordinates are taken modulo the periods. The product is computed
    factor by factor with no smoothing, so signs are exactly those of the
    floating-point factor products.
    """
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    if squeeze:
        pts = pts[None, :]
    if pts.shape[-1] != mode.domain.n:
        raise ValidationError(
            f"points have dimension {pts.shape[-1]}, mode has n={mode.domain.n}"
        )
    out = np.ones(pts.shape[:-1])
    for j in range(mode.domain.n):
        out *= _eval_factor(mode, j, pts[..., j])
    return out[0] if squeeze else out


def _eval_factor(mode: EigenMode, axis: int, x) -> np.ndarray:
    mj = mode.m[axis]
    if mj == 0:
        return np.ones_like(np.asarray(x, dtype=float))
    theta = mj * mode.domain.alpha[axis] * np.asarray(x, dtype=float)
    if mode.domain.periodic:
        theta = np.mod(theta, 2.0 * math.pi)
    return np.sin(theta) if mode.kinds[axis] == SIN else np.cos(theta)


@dataclass(frozen=True)
class NodalHyperplanes:
    """Exact nodal structure of a separable mode: per-axis zero coordinate lists.

    The nodal set is the union over axes of {x : x_j in axis_zeros[j]}; axes whose
    factor never vanishes contribute an empty list.
    """

    axis_zeros: tuple[np.ndarray, ...]

    @property
    def empty(self) -> bool:
        return all(z.size == 0 for z in self.axis_zeros)


def exact_nodal_description(mode: EigenMode) -> NodalHyperplanes:
    """Per-axis zero coordinates of the factors, exact up to float rounding.

    Dirichlet sine factor with index m: zeros at pi*l/(m*alpha), l = 0..m
    (l = 0 and l = m are the boundary faces).
    Torus factor with index m: 2m zeros per period, spacing pi/(m*alpha),
    offset by half a spacing for cosine factors.
    """
    dom = mode.domain
    zeros = []
    for j in range(dom.n):
        mj = mode.m[j]
        if mj == 0:
            zeros.append(np.empty(0))
            continue
        s = mode.factor_zero_spacing(j)
        if dom.periodic:
            offs = 0.0 if mode.kinds[j] == SIN else 0.5
            zeros.append((np.arange(2 * mj) + offs) * s)
        else:
            zeros.append(np.arange(mj + 1) * s)
    return NodalHyperplanes(tuple(zeros))


def union_radius_measure(zeros, radius: float, length: float, circular: bool) -> float:
    """Exact 1-d measure of the union of open radius-neighborhoods of ``zeros``.

    On a segment [0, length] the neighborhoods clip at the ends; on a circle of
    circumference ``length`` they wrap. Overlaps are merged exactly.
    """
    z = np.sort(np.asarray(zeros, dtype=float))
    if z.size == 0 or radius <= 0:
        return 0.0
    if circular:
        if 2.0 * radius * z.size >= length:
            gaps = np.diff(np.concatenate([z, [z[0] + length]]))
            return float(length - np.maximum(gaps - 2.0 * radius, 0.0).sum())
        # rotate the cut into the widest gap so no interval wraps
        gaps = np.diff(np.concatenate([z, [z[0] + length]]))
        cut = z[np.argmax(gaps)] + gaps.max() / 2.0
        z = np.sort(np.mod(z - cut, length))
        starts = np.maximum(z - radius, 0.0)
        ends = np.minimum(z + radius, length)
    else:
        starts = np.maximum(z - radius, 0.0)
        ends = np.minimum(z + radius, length)
    prev_end = np.concatenate([[0.0], np.maximum.accumulate(ends)[:-1]])
    return float(np.maximum(ends - np.maximum(starts, prev_end), 0.0).sum())


def tube_volume_exact(mode: EigenMode, delta: float) -> float:
    """Exact volume of {x : dist(x, nodal set) < delta} by strip inclusion-exclusion.

    The nodal set is a union of axis-perpendicular hyperplane families, so its
    delta-tube is a union of coordinate slabs U_j x (other axes); the complement
    factorizes, giving vol = prod L_j - prod (L_j - len_j) with len_j the exact
    1-d neighborhood measure on axis j.
    """
    if delta <= 0:
        return 0.0
    desc = exact_nodal_description(mode)
    L = mode.domain.lengths
    covered = 1.0
    for j in range(mode.domain.n):
        lj = union_radius_measure(desc.axis_zeros[j], delta, L[j], mode.domain.periodic)
        covered *= (L[j] - lj) / L[j]
    return mode.domain.volume * (1.0 - covered)


def nodal_measure_exact(mode: EigenMode) -> float:
    """Exact (n-1)-measure of the nodal set (zero count in dimension one)."""
    desc = exact_nodal_description(mode)
    L = mode.domain.lengths
    if mode.domain.n == 1:
        return float(desc.axis_zeros[0].size)
    vol = mode.domain.volume
    return float(sum(z.size * vol / L[j] for j, z in enumerate(desc.axis_zeros)))


def nodal_distance_exact(mode: EigenMode, points) -> np.ndarray:
    """Exact distance from points (..., n) to the nodal set, in closed form.

    The nodal set is a union of axis-perpendicular hyperplane families, so the
    distance is the min over axes of the 1-d distance from x_j to the nearest
    factor zero (the Euclidean and max-coordinate metrics coincide on such sets).
    Factor zeros are the lattice offs + spacing * Z; on the torus the spacing
    divides the period, so the plain mod-spacing formula wraps correctly.
    """
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    if squeeze:
        pts = pts[None, :]
    if pts.shape[-1] != mode.domain.n:
        raise ValidationError("point dimension does not match the mode")
    best = np.full(pts.shape[:-1], np.inf)
    for j in range(mode.domain.n):
        mj = mode.m[j]
        if mj == 0:
            continue
        s = mode.factor_zero_spacing(j)
        off = 0.0 if mode.kinds[j] == SIN else 0.5 * s
        r = np.mod(pts[..., j] - off, s)
        best = np.minimum(best, np.minimum(r, s - r))
    if not np.isfinite(best).all():
        raise ValidationError("mode has no nodal hyperplanes on any axis")
    return best[0] if squeeze else best


def density_radius_exact(mode: EigenMode) -> float:
    """Exact max over the domain of the distance to the nodal set.

    The distance to a union of axis-perpendicular hyperplane families is the min
    over axes of the per-coordinate distances, so the farthest point maximizes
    each coordinate's distance independently and the value is the smallest of
    the per-axis half-gaps.
    """
    desc = exact_nodal_description(mode)
    if desc.empty:
        raise ValidationError("mode has an empty nodal set")
    L = mode.domain.lengths
    best = math.inf
    for j, z in enumerate(desc.axis_zeros):
        if z.size == 0:
            continue
        zs = np.sort(z)
        if mode.domain.periodic:
            gaps = np.diff(np.concatenate([zs, [zs[0] + L[j]]]))
            half = gaps.max() / 2.0
        else:
            # clipped at the segment ends: end gaps count in full
            reach = np.concatenate([[zs[0]], np.diff(zs) / 2.0, [L[j] - zs[-1]]])
            half = reach.max()
        best = min(best, float(half))
    return best


@dataclass
class ModeList:
    """All admissible modes with mu <= mu_max, sorted by (mu, lexicographic m).

    Stored columnar (index matrix, frequency vector, kind codes) so that million-mode
    lists stay cheap; ``__getitem__`` materializes an EigenMode on demand.
    """

    domain: DomainSpec
    mu_max: float
    m: np.ndarray          # (K, n) int64
    mu: np.ndarray         # (K,) float64
    kind_codes: np.ndarray = field(default=None)  # (K, n) uint8, 1 = sin, 0 = cos

    def __post_init__(self):
        # scans index per-axis tables by m, where a negative index would wrap
        if self.m.size and self.m.min() < 0:
            raise ValidationError("mode indices must be nonnegative")
        if self.kind_codes is None:
            self.kind_codes = (self.m > 0).astype(np.uint8) if self.domain.periodic \
                else np.ones_like(self.m, dtype=np.uint8)

    def __len__(self) -> int:
        return self.m.shape[0]

    def __getitem__(self, i: int) -> EigenMode:
        kinds = tuple(SIN if c else COS for c in self.kind_codes[i])
        return EigenMode(self.domain, tuple(int(v) for v in self.m[i]), kinds)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def to_json(self) -> str:
        """Serialize as {domain, mu_max, modes:[{m, kinds, mu}]}, mu at 17 significant digits."""
        head = json.dumps(
            {"domain": self.domain.as_dict(), "mu_max": float(self.mu_max)},
            sort_keys=True,
        )[1:-1]
        rows = []
        for i in range(len(self)):
            m = ",".join(str(int(v)) for v in self.m[i])
            kinds = ",".join(f'"{SIN if c else COS}"' for c in self.kind_codes[i])
            rows.append(
                '{"kinds": [%s], "m": [%s], "mu": %s}' % (kinds, m, format(float(self.mu[i]), ".17g"))
            )
        return "{%s, \"modes\": [%s]}" % (head, ", ".join(rows))


def _lattice_points(alpha, mu_max, lo, cap):
    """All integer vectors m (m_j >= lo) with sum (alpha_j m_j)^2 <= mu_max^2."""
    n = len(alpha)
    budget = mu_max * mu_max
    blocks = []
    total = 0

    def rec(prefix_sq, axis, prefix):
        nonlocal total
        # +1 margin against sqrt rounding; the final mu <= mu_max filter trims it
        top = math.floor(math.sqrt(max(budget - prefix_sq, 0.0)) / alpha[axis]) + 1
        if top < lo:
            return
        ms = np.arange(lo, top + 1, dtype=np.int64)
        if axis == n - 1:
            block = np.empty((len(ms), n), dtype=np.int64)
            block[:, :axis] = prefix
            block[:, axis] = ms
            blocks.append(block)
            total += len(ms)
            if total > cap:
                raise ResourceGuardError(
                    f"mode enumeration exceeds cap of {cap} lattice points"
                )
            return
        for v in ms:
            rec(prefix_sq + (alpha[axis] * v) ** 2, axis + 1, prefix + [int(v)])

    rec(0.0, 0, [])
    if not blocks:
        return np.empty((0, n), dtype=np.int64)
    return np.concatenate(blocks, axis=0)


def _check_mu_max(mu_max: float) -> None:
    if not math.isfinite(mu_max) or mu_max < 0:
        raise ValidationError("mu_max must be finite and nonnegative")


def _sorted_modes(domain: DomainSpec, mu_max: float, m: np.ndarray) -> ModeList:
    """The rows of m with mu <= mu_max, sorted by (mu, lex m)."""
    mu_sq = ((m.astype(float) * np.asarray(domain.alpha)) ** 2).sum(axis=1)
    mu = np.sqrt(mu_sq)
    keep = mu <= mu_max
    m, mu = m[keep], mu[keep]
    order = np.lexsort(tuple(m[:, j] for j in reversed(range(domain.n))) + (mu,))
    return ModeList(domain, float(mu_max), m[order], mu[order])


def enumerate_modes(domain: DomainSpec, mu_max: float, cap: int = MODE_COUNT_CAP) -> ModeList:
    """Enumerate every admissible mode with mu <= mu_max, sorted by (mu, lex m).

    Torus modes use the default factor-kind selection (sine on every nonzero axis);
    one mode per multi-index, which is the lattice-point counting convention.
    Raises ResourceGuardError if the count would exceed ``cap``.
    """
    _check_mu_max(mu_max)
    # coarse pre-check before any allocation: the axis-aligned bounding count
    bound = 1.0
    for a in domain.alpha:
        bound *= math.floor(mu_max / a) + 1
    if bound > 40 * cap:
        raise ResourceGuardError(
            f"mu_max={mu_max:g} implies ~{bound:.3g} candidate lattice points (cap {cap})"
        )
    lo = 0 if domain.periodic else 1
    m = _lattice_points(domain.alpha, mu_max, lo, cap)
    if domain.periodic and m.shape[0]:
        m = m[(m != 0).any(axis=1)]
    return _sorted_modes(domain, mu_max, m)


def record_candidates(domain: DomainSpec, mu_max: float, cap: int = MODE_COUNT_CAP) -> ModeList:
    """The rows of enumerate_modes(domain, mu_max) that come first among their peers.

    Keeps, in list order, each row that is the first with some (axis j,
    index m_j > 0, kind). That row has every other index at its least value
    (1 in a Dirichlet box, 0 with a cosine factor on the torus), so the rows
    are built directly, O(max index) of them, and get enumerate_modes' own mu
    expression, filter and sort: the result equals enumerate_modes with the
    other rows dropped, and on one axis it is enumerate_modes. A later row
    shares the axis entry that attains its nodal distance with one of these
    rows, which comes no later and has no larger mu: it can never set a
    record of mu * dist nor be a first exact hit. Raises ResourceGuardError
    before allocating if more than ``cap`` rows would be built.
    """
    _check_mu_max(mu_max)
    n = domain.n
    lo = 0 if domain.periodic else 1
    budget = mu_max * mu_max
    # axis j runs over k = 1 .. top_j with the earlier axes at lo, where top_j is
    # _lattice_points' own bound; in a box the row of all ones is axis 0's
    prefix_sq = 0.0
    spans = []
    for j, a in enumerate(domain.alpha):
        top = math.floor(math.sqrt(max(budget - prefix_sq, 0.0)) / a) + 1
        first = 2 if lo and j else 1
        spans.append((first, max(top - first + 1, 0)))
        prefix_sq = prefix_sq + (a * np.int64(lo)) ** 2
    total = sum(count for _, count in spans)
    if total > cap:
        raise ResourceGuardError(
            f"mu_max={mu_max:g} implies {total} record candidates (cap {cap})"
        )
    m = np.full((total, n), lo, dtype=np.int64)
    row = 0
    for j, (first, count) in enumerate(spans):
        m[row:row + count, j] = np.arange(first, first + count)
        row += count
    return _sorted_modes(domain, mu_max, m)


def distinct_count(mu: np.ndarray) -> int:
    """Number of distinct eigenvalues among the sorted frequencies mu.

    Sorted mu values within 1e-12 relative of their neighbour are one
    eigenvalue. The tolerance is far above the few-ulp rounding of mu, so a
    degenerate eigenvalue reached through different index vectors counts once.
    """
    if mu.size == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(mu) > 1e-12 * mu[1:]))


def weyl_count(domain: DomainSpec, mu_max: float, distinct: bool = False,
               cap: int = MODE_COUNT_CAP) -> int:
    """Number of modes with mu <= mu_max.

    Default counts modes with multiplicity (= len(enumerate_modes)). With
    ``distinct=True`` counts distinct eigenvalues (``distinct_count``).
    """
    modes = enumerate_modes(domain, mu_max, cap)
    return distinct_count(modes.mu) if distinct else len(modes)
