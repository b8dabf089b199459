"""Model domains and their explicit Laplace eigenfunctions.

Three domain kinds are supported, all with separable trigonometric eigenbases:

- ``interval``: [0, pi] with Dirichlet ends, eigenfunctions sin(k x), frequency k.
- ``box``: an n-dimensional Dirichlet box with side lengths pi/alpha_j,
  eigenfunctions prod_j sin(m_j alpha_j x_j), all m_j >= 1.
- ``torus``: a flat torus with periods 2 pi / alpha_j, eigenfunctions
  prod_j sin(m_j alpha_j x_j), m not all zero, where a factor with m_j = 0 is 1.

Every mode is a product of sine factors. On the torus a cosine factor is a
translate of the sine one by a quarter wavelength, so it has the same tube
volumes, nodal measure, density radius and sign domains, and is not modelled.

The frequency of a mode is mu = sqrt(sum_j alpha_j^2 m_j^2); the eigenfunction
satisfies (Laplacian + mu^2) phi = 0. Because every mode is a product of 1-d
factors, its zero set is a union of axis-perpendicular hyperplane pieces. The
zeros of axis j are equally spaced, pi/(m_j alpha_j) apart: 2 m_j per torus
period, m_j + 1 on a Dirichlet side whose ends are zeros. So the gaps between
them are equal, and the closed forms below (``tube_volume_exact`` etc.) need
only the spacing and the gap count, never a list of zeros.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceGuardError, ValidationError

INTERVAL = "interval"
BOX = "box"
TORUS = "torus"
_KINDS = (INTERVAL, BOX, TORUS)

# Cap on enumerated modes: enumerate_modes and record_candidates refuse to build more.
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


@dataclass(frozen=True)
class EigenMode:
    """One separable eigenfunction prod_j sin(m_j alpha_j x_j): per-axis integer indices.

    A factor with m_j = 0 is the constant 1; only a torus mode may have one.
    """

    domain: DomainSpec
    m: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(v) for v in self.m)
        if len(m) != self.domain.n:
            raise ValidationError(f"mode index has {len(m)} entries for n={self.domain.n}")
        if any(v < 0 for v in m):
            raise ValidationError("mode indices must be nonnegative")
        if self.domain.periodic:
            if all(v == 0 for v in m):
                raise ValidationError("torus mode indices must not all be zero")
        elif any(v < 1 for v in m):
            raise ValidationError("Dirichlet modes need every index >= 1")
        object.__setattr__(self, "m", m)
        try:
            finite = math.isfinite(self.mu_squared)
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"mode {m} on alpha={self.domain.alpha}: mu^2 overflows")

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
    return np.sin(theta)


def _tube_fraction(alpha, m: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Share of the domain within delta (K,) of the nodal sets of index rows m (K, n).

    Axis j's zeros cut it into equal gaps pi/(m_j alpha_j), and the tube covers
    min(2 delta, gap) of each, the fraction f_j = min(2 delta m_j alpha_j / pi, 1);
    an axis with m_j = 0 has no zeros and f_j = 0. The tube's complement is a
    product of the uncovered axis fractions, so the share is 1 - prod_j (1 - f_j).
    It is accumulated as s <- s + (1 - s) f_j, a sum of nonnegative terms, so
    small radii lose nothing to cancellation; plain IEEE arithmetic keeps the
    result the same on every host and for any number of rows.
    """
    share = np.zeros(len(delta))
    for j, a in enumerate(alpha):
        with np.errstate(invalid="ignore"):  # 0 * inf at delta = inf
            f = np.minimum(2.0 * delta * m[:, j] * a / math.pi, 1.0)
        share += (1.0 - share) * np.where(m[:, j] > 0, f, 0.0)
    return share


def tube_volume_exact(mode: EigenMode, delta: float) -> float:
    """Exact volume of {x : dist(x, nodal set) < delta}: V (1 - prod_j (1 - f_j)).

    The nodal set is a union of axis-perpendicular hyperplane families with
    equally spaced zeros: 2 m_j gaps per torus period, m_j gaps on a Dirichlet
    side whose ends are zeros. Its delta-tube is a union of coordinate slabs
    whose complement factorizes over the axes (``_tube_fraction``).
    """
    if delta <= 0:
        return 0.0
    share = _tube_fraction(mode.domain.alpha, np.array([mode.m]), np.array([float(delta)]))
    return float(mode.domain.volume * share[0])


def nodal_measure_exact(mode: EigenMode) -> float:
    """Exact (n-1)-measure of the nodal set (zero count in dimension one).

    Axis j's factor has 2 m_j zeros per torus period and m_j + 1 on a
    Dirichlet side, each a hyperplane piece of measure V / L_j.
    """
    counts = [2 * mj if mode.domain.periodic else mj + 1 for mj in mode.m]
    L = mode.domain.lengths
    if mode.domain.n == 1:
        return float(counts[0])
    vol = mode.domain.volume
    return float(sum(c * vol / L[j] for j, c in enumerate(counts)))


def lattice_distance(x, s):
    """Distance from x to the lattice s * Z: r = mod(x, s), then min(r, s - r).

    The one float chain for a 1-d nodal distance: ``nodal_distance_exact`` and
    the per-index tables of ``dioph`` both call it, so their distances agree
    bit for bit. x and s broadcast against each other.
    """
    r = np.mod(x, s)
    return np.minimum(r, s - r)


def nodal_distance_exact(mode: EigenMode, points) -> np.ndarray:
    """Exact distance from points (..., n) to the nodal set, in closed form.

    The nodal set is a union of axis-perpendicular hyperplane families, so the
    distance is the min over axes of the 1-d distance from x_j to the nearest
    factor zero (the Euclidean and max-coordinate metrics coincide on such sets).
    Factor zeros are the lattice spacing * Z; on the torus the spacing divides
    the period, so the plain mod-spacing formula wraps correctly.
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
        best = np.minimum(best, lattice_distance(pts[..., j], mode.factor_zero_spacing(j)))
    if not np.isfinite(best).all():
        raise ValidationError("mode has no nodal hyperplanes on any axis")
    return best[0] if squeeze else best


def density_radius_exact(mode: EigenMode) -> float:
    """Exact max over the domain of the distance to the nodal set.

    The distance to a union of axis-perpendicular hyperplane families is the min
    over axes of the per-coordinate distances, so the farthest point maximizes
    each coordinate's distance independently and the value is the least half
    spacing over the axes that have zeros.
    """
    return min(mode.factor_zero_spacing(j) for j in range(mode.domain.n)) / 2.0


@dataclass
class ModeList:
    """All admissible modes with mu <= mu_max, sorted by (mu, lexicographic m).

    Stored columnar (index matrix, frequency vector) so that million-mode lists
    stay cheap; ``__getitem__`` materializes an EigenMode on demand.
    """

    domain: DomainSpec
    mu_max: float
    m: np.ndarray          # (K, n) int64
    mu: np.ndarray         # (K,) float64

    def __post_init__(self):
        # scans index per-axis tables by m, where a negative index would wrap
        if self.m.size and self.m.min() < 0:
            raise ValidationError("mode indices must be nonnegative")

    def __len__(self) -> int:
        return self.m.shape[0]

    def __getitem__(self, i: int) -> EigenMode:
        return EigenMode(self.domain, tuple(int(v) for v in self.m[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @cached_property
    def one_axis_sines(self) -> bool:
        """Whether the rows are one axis of sine modes m = 1..K with mu = fl(m alpha), rising.

        enumerate_modes and record_candidates build such a list on an interval
        or a 1-d torus, and the one-axis scans of ``dioph`` require it. The
        check runs once per list.
        """
        if self.domain.n != 1 or len(self) == 0:
            return False
        m, mu = self.m[:, 0], self.mu
        # mu = fl(m alpha) rising strictly makes m rise strictly, from 1 to K: m = 1..K
        return bool(m[0] == 1 and m[-1] == len(self)
                    and np.array_equal(mu, m * self.domain.alpha[0]) and (mu[1:] > mu[:-1]).all())

    def to_json(self) -> str:
        """Serialize as {domain, mu_max, modes:[{m, mu}]}, mu at 17 significant digits."""
        head = json.dumps(
            {"domain": self.domain.as_dict(), "mu_max": float(self.mu_max)},
            sort_keys=True,
        )[1:-1]
        rows = []
        for i in range(len(self)):
            m = ",".join(str(int(v)) for v in self.m[i])
            rows.append('{"m": [%s], "mu": %s}' % (m, format(float(self.mu[i]), ".17g")))
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


def enumerate_modes(domain: DomainSpec, mu_max: float) -> ModeList:
    """Enumerate every admissible mode with mu <= mu_max, sorted by (mu, lex m).

    One mode per multi-index, which is the lattice-point counting convention.
    Raises ResourceGuardError if the count would exceed ``MODE_COUNT_CAP``.
    """
    cap = MODE_COUNT_CAP
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


def record_candidates(domain: DomainSpec, mu_max: float) -> ModeList:
    """The rows of enumerate_modes(domain, mu_max) that come first among their peers.

    Keeps, in list order, each row that is the first with some (axis j,
    index m_j > 0). That row has every other index at its least value (1 in
    a Dirichlet box, 0 on the torus), so the rows are built directly,
    O(max index) of them, and get enumerate_modes' own mu expression, filter
    and sort: the result equals enumerate_modes with the other rows dropped,
    and on one axis it is enumerate_modes. A later row
    shares the axis entry that attains its nodal distance with one of these
    rows, which comes no later and has no larger mu: it can never set a
    record of mu * dist nor be a first exact hit. Raises ResourceGuardError
    before allocating if more than ``MODE_COUNT_CAP`` rows would be built.
    """
    cap = MODE_COUNT_CAP
    _check_mu_max(mu_max)
    n = domain.n
    lo = 0 if domain.periodic else 1
    budget = mu_max * mu_max
    # axis j runs over k = 1 .. top_j with the earlier axes at lo, where top_j is
    # _lattice_points' own bound; in a box the row of all ones is axis 0's
    prefix_sq = 0.0
    spans = []
    for j, a in enumerate(domain.alpha):
        reach = math.sqrt(max(budget - prefix_sq, 0.0)) / a
        if reach >= cap + 1:
            # this axis alone has over cap rows; checked before floor(), which
            # overflows on the infinite budget of a mu_max past 1.3e154
            raise ResourceGuardError(
                f"mu_max={mu_max:g} implies over {cap} record candidates (cap {cap})"
            )
        top = math.floor(reach) + 1
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
