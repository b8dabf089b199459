"""Approximation of points by nodal sets: exact distances, exponents, convergence sums.

For separable modes the distance from a point to the nodal set is exact and
closed-form: the min over axes of the distance from x_j to the nearest zero of
the j-th factor, a lattice of spacing pi / (m_j alpha_j). That axis distance
depends only on m_j, so a scan over a mode list computes it once per index in
a table and gathers the table by each row's index: the table holds every
index 0..max m_j, far fewer than the rows of a 2-d or 3-d list, or only the
indices a list holds when it has fewer rows than its largest index. Each
table entry gets the per-row formula's int64 x float spacing and its one
float chain, ``spectrum.lattice_distance``, so the gathered distances are
bitwise equal to it. Records of the running minimum distance drive
per-point approximation exponents; exact tube volumes drive the convergence
(Borel-Cantelli style) sums, since the radii shrink below any fixed grid.

Most rows of a list can never change a scan's result. A row's distance is
one axis entry, and the first row in list order with the same (axis, index)
has that entry too, or a smaller one, at no larger mu. Float multiplication
is monotone, so a later row never strictly lowers the running
minimum of mu * dist below that first row's, and it is an exact hit only if
that first row is. ``spectrum.record_candidates`` builds just those first
rows, so exponent estimates on it are the full list's.

On one axis (the interval, a 1-d torus) every row is a candidate, and the
scans use continued fractions instead (Khinchin, *Continued Fractions*).
With theta = x alpha / pi the nodal distance of row k is pi ||k theta|| /
(k alpha), so mu * dist is about pi ||k theta||, whose records are the
convergent denominators of theta (Lagrange's best approximations).
``estimate_exponent`` scans those rows and the windows between them that
rounding leaves uncertified, about 10 of 100,000 rows on the survey's
interval. ``tail_hits`` asks whether any row beyond a frequency cutoff
passes within its radius; where pi/(2 k^2 alpha) exceeds the radius by more
than the scan's rounding, a hit at k needs |theta - P/k| < 1/(2k^2), so by
Legendre's theorem k is a multiple of a convergent denominator. Both take the
denominators from exact integer Euclid on the floats' rational values and
give the rows they keep the scan's own float formula, so every record, hit
and flag is the full scan's bit for bit.

``tail_hits`` takes the convergents of all points in one pass
(``_axis_convergent_table``, after Lehmer's Euclid for large numbers): one
big-int step per point brackets frac(theta) between two neighbours T / 2^62
and (T + 1) / 2^62, and Euclid runs on both ends in int64 arrays, all
points in lockstep. A quotient on which both ends agree is theta's, and the
smaller end remainder bounds theta's gap from below. A point whose ends
part, or end, before its denominators pass the cutoff takes the exact
Euclid instead. A gap serves only to certify rows as misses, so a smaller
one only scans more rows, and the hits keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectrum import DomainSpec, ModeList, _tube_fraction, enumerate_modes, lattice_distance


def _lattice_distance_table(x, spacing: np.ndarray) -> np.ndarray:
    """Entry i is the distance from x to the lattice spacing[i-1] * Z; entry 0 is inf.

    x may be a scalar or one point per spacing. Entry 0 stands for an
    axis with index 0, whose factor has no zero.
    """
    table = np.empty(spacing.size + 1)
    table[0] = np.inf
    table[1:] = lattice_distance(x, spacing)
    return table


def _require_finite(points: np.ndarray) -> None:
    """Raise ValidationError naming the first non-finite coordinate of a point or of rows of points."""
    bad = np.flatnonzero(~np.isfinite(points))
    if bad.size:
        at = np.unravel_index(bad[0], points.shape)
        name = "the point" if points.ndim == 1 else f"point {at[0]}"
        raise ValidationError(f"coordinate {at[-1]} of {name} is {points[at]}, not finite")


def modes_nodal_distance(point, modes: ModeList) -> np.ndarray:
    """Exact nodal distances from one point to every mode in the list."""
    dom = modes.domain
    point = np.asarray(point, dtype=float)
    if point.shape != (dom.n,):
        raise ValidationError(f"point must have {dom.n} coordinates")
    _require_finite(point)
    dist = np.full(modes.m.shape[0], np.inf)
    for j in range(dom.n):
        mj = modes.m[:, j]
        top = int(mj.max(initial=0))
        if top == 0:
            continue
        # table entries: every index 0..top when the list has that many rows,
        # else only the indices it holds (and 0), so a sparse list stays short
        if top <= mj.size:
            index, pos = np.arange(top + 1), mj
        else:
            index, pos = np.unique(np.append(mj, 0), return_inverse=True)
            pos = pos[:-1]
        spacing = math.pi / (index[1:] * dom.alpha[j])
        np.minimum(dist, _lattice_distance_table(point[j], spacing)[pos], out=dist)
    if not np.isfinite(dist).all():
        raise ValidationError("a mode in the list has an empty nodal set")
    return dist


# relative widening of each float bound below, far above the few-ulp rounding
# of the operations that compute it
_SLACK = 2.0**-40
# (point, row) pairs _axis_tail_hits evaluates at once
_PAIR_BUDGET = 1 << 18
# the double math.pi as an exact rational
_PI_NUM, _PI_DEN = math.pi.as_integer_ratio()
# _axis_convergent_table brackets frac(theta) to 2^-_BRACKET_BITS
_BRACKET_BITS = 62


def _scan_error(x_abs: float, alpha: float) -> float:
    """A bound on |scan distance - exact distance| on a sine axis, for |x| <= x_abs.

    The scan takes the distance from x to the lattice s Z, s = fl(pi / fl(k
    alpha)); the exact lattice is S Z, S = pi / (k alpha) <= pi / alpha, with
    pi the double math.pi as an exact rational. With u = 2^-53, |s - S| <=
    2.01 u S. The lattice points nearest x have |j| <= |x| / S + 1, so they
    move by at most 2.01 u (|x| + S). np.mod is an exact fmod plus, for x < 0,
    one rounded addition of s, and min(r, s - r) rounds once more, each at
    most u s. The total is below u (2.01 |x| + 4.1 pi / alpha); the bound
    returned, 8 u (|x| + 2 pi / alpha), is about four times that.
    """
    return 2.0**-50 * (x_abs + 2.0 * math.pi / alpha)


def _theta_scale(alpha: float) -> tuple[int, int]:
    """alpha / pi as an exact ratio c_num / c_den of integers, pi the double math.pi.

    theta = x alpha / pi of a double x = x_num / x_den is then exactly
    (x_num c_num) / (x_den c_den).
    """
    a_num, a_den = float(alpha).as_integer_ratio()
    return a_num * _PI_DEN, a_den * _PI_NUM


def _axis_convergents(x: float, alpha: float, q_max: int) -> tuple[list[int], list[float]]:
    """Convergent denominators q of theta = x alpha / pi and their gaps |q theta - p|.

    theta is the exact rational x alpha / pi of the doubles x, alpha and
    math.pi, expanded by integer Euclid: the remainder after each convergent
    p/q is |q theta - p| times theta's denominator, so each gap is correctly
    rounded and the exact nodal distance of the row q is pi gap / (q alpha).
    The lists run up to and including the first q > q_max, which is absent
    when the expansion of theta ends first (its last gap is then 0).

    The convergents bound every other row (Khinchin, *Continued Fractions*):
    let q < q' be consecutive denominators and 0 < k < q', k != q. Write (k, P)
    = a (q, p) + b (q', p') in integers. The signs of q theta - p and
    q' theta - p' alternate, and k in range forces a, b of opposite signs or
    b = 0, a >= 2, so |k theta - P| >= |q theta - p| + |q' theta - p'| for
    every integer P, with equality at the semiconvergent k = q' - q.
    """
    x_num, x_den = float(x).as_integer_ratio()
    c_num, c_den = _theta_scale(alpha)
    num, den = x_num * c_num, x_den * c_den
    r_prev, r = den, num % den
    q_prev, q = 0, 1
    qs, gaps = [q], [r / den]
    while r and q <= q_max:
        a, r_next = divmod(r_prev, r)
        r_prev, r = r, r_next
        q_prev, q = q, a * q + q_prev
        qs.append(q)
        gaps.append(r / den)
    return qs, gaps


def _axis_convergent_table(
    xs: np.ndarray, alpha: float, q_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every point's convergent denominators q <= q_max with lower bounds on their gaps.

    Returns (owner, qs, gaps), sorted by owner, the index of the point in
    ``xs``: the denominators are those of ``_axis_convergents``, and each gap
    is at most its gap there. All points run one Euclid in int64 (after
    Lehmer, "Euclid's algorithm for large numbers", 1938):

    - Bracket. One exact big-int step per point gives T = floor(frac(theta)
      2^62), so frac(theta) lies in [T, T + 1] / 2^62.
    - Lockstep Euclid. Both ends, (2^62, T) and (2^62, T + 1), run Euclid side
      by side, every live point at once. The reals whose expansions begin
      a_1 .. a_k form an interval, so where both ends give the same quotient
      a_k, it is theta's, and q_k = a_k q_(k-1) + q_(k-2). On that interval
      |q_k y - p_k| is linear in y, so theta's gap is at least the smaller end
      remainder over 2^62, and that float is at most the correctly rounded
      gap. Where the ends' quotients differ, theta's lies between them, so
      the smaller one gives a q at most theta's; past q_max the point is
      done either way. a_k is clamped to q_max + 1, which changes only a q
      past q_max and keeps the product in int64: q_max is at most a list's
      row count, and q_max (q_max + 1) < 2^63 below 3e9 rows.
    - Fallback. A point whose ends disagree, or reach a zero remainder,
      before its q passes q_max runs the exact ``_axis_convergents`` instead.
    """
    c_num, c_den = _theta_scale(alpha)
    t = np.array(
        [(n * c_num % (d * c_den) << _BRACKET_BITS) // (d * c_den)
         for n, d in map(float.as_integer_ratio, xs.tolist())],
        dtype=np.int64,
    )
    scale = 2.0**-_BRACKET_BITS
    # the first convergent, 1: its gap frac(theta) is at least T / 2^62
    owners, qs, gaps = [np.arange(xs.size)], [np.ones(xs.size, dtype=np.int64)], [t * scale]
    fallback = t == 0  # the lower end's first remainder is zero
    idx = np.flatnonzero(~fallback)
    q_prev, q = np.zeros(idx.size, dtype=np.int64), qs[0][idx]
    lo_prev = hi_prev = np.full(idx.size, 1 << _BRACKET_BITS, dtype=np.int64)
    lo, hi = t[idx], t[idx] + 1
    while idx.size:
        a, lo_next = np.divmod(lo_prev, lo)
        b, hi_next = np.divmod(hi_prev, hi)
        # theta's quotient lies between the ends', so this q is at most theta's
        q_prev, q = q, np.minimum(np.minimum(a, b), q_max + 1) * q + q_prev
        r = np.minimum(lo_next, hi_next)
        live = q <= q_max
        lost = live & ((a != b) | (r == 0))
        fallback[idx[lost]] = True
        keep = live & ~lost
        idx, q_prev, q, r = idx[keep], q_prev[keep], q[keep], r[keep]
        lo_prev, hi_prev, lo, hi = lo[keep], hi[keep], lo_next[keep], hi_next[keep]
        owners.append(idx)
        qs.append(q)
        gaps.append(r * scale)
    owner = np.concatenate(owners)
    sure = ~fallback[owner]
    exact = [
        (i, q, gap)
        for i in np.flatnonzero(fallback).tolist()
        for q, gap in zip(*_axis_convergents(xs[i], alpha, q_max))
        if q <= q_max
    ]
    e_owner, e_q, e_gap = np.array(exact, dtype=float).reshape(-1, 3).T
    owner = np.concatenate([owner[sure], e_owner.astype(np.int64)])
    order = np.argsort(owner, kind="stable")
    qs = np.concatenate([np.concatenate(qs)[sure], e_q.astype(np.int64)])
    gaps = np.concatenate([np.concatenate(gaps)[sure], e_gap])
    return owner[order], qs[order], gaps[order]


def _axis_tail_hits(xs: np.ndarray, ks: np.ndarray, radius: np.ndarray, alpha: float) -> np.ndarray:
    """tail_hits on one axis, whose tail rows are the sine modes k = ks[0] .. ks[-1].

    The scan's distance at k is that of x to the lattice pi/(k alpha) Z up to
    err (``_scan_error``). Where the gap certificate pi/(2 k^2 alpha) - err >
    radius[k] holds, a hit at k puts k theta, theta = x alpha / pi, within
    1/(2k) of an integer P, so by Legendre's theorem P/k reduces to a
    convergent p/q of theta, k = t q, and the exact distance is pi |q theta -
    p| / (q alpha) for every such t. Only multiples of q whose radius
    envelope exceeds that distance, less err, can hit; rows whose certificate
    fails (small k against a large C) are kept for every point. The kept rows
    get the scan's own float formula and radius.

    The convergents of all points come from one bracketed int64 Euclid
    (``_axis_convergent_table``), with exact big-int Euclid only for the
    points whose bracket cannot settle them. Its gaps are lower bounds: a
    smaller gap lowers a convergent's limit, so more multiples are scanned,
    and a row left out is still a certified miss. Every hit is therefore the
    full scan's, bit for bit. The table comes sorted by point, as the blocked
    pair scan below needs.
    """
    k_first, k_last = int(ks[0]), int(ks[-1])
    err = _scan_error(float(np.abs(xs).max(initial=0.0)), alpha)
    # the largest radius at or beyond each row: non-increasing, so every row
    # whose radius exceeds a threshold lies in the prefix the envelope gives
    env = np.maximum.accumulate(radius[::-1])[::-1]
    gap = math.pi / (2.0 * ks * ks * alpha) * (1.0 - _SLACK) - err
    open_ks = ks[~(gap > radius)]

    owner, qs, gaps = _axis_convergent_table(xs, alpha, k_last)
    limit = math.pi * gaps / (qs * alpha) * (1.0 - _SLACK) - err
    reach = k_first - 1 + np.searchsorted(-env, -limit)
    t_lo = -(-k_first // qs)
    count = np.maximum(reach // qs - t_lo + 1, 0)
    # (point, row) pairs per point; points go in blocks of about _PAIR_BUDGET
    # pairs, so an uncertified prefix costs O(budget + k_max) memory, not O(points * k_max)
    load = np.bincount(owner, weights=count, minlength=xs.size) + open_ks.size
    ends = np.cumsum(load)
    hit = np.zeros(xs.size, dtype=bool)
    lo = 0
    while lo < xs.size:
        base = ends[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _PAIR_BUDGET, side="right")))
        c_lo, c_hi = np.searchsorted(owner, [lo, hi])
        c = count[c_lo:c_hi]
        runs = np.repeat(np.cumsum(c) - c, c)
        t = np.repeat(t_lo[c_lo:c_hi], c) + np.arange(runs.size) - runs
        pair_owner = np.concatenate(
            [np.repeat(owner[c_lo:c_hi], c), np.repeat(np.arange(lo, hi), open_ks.size)]
        )
        pair_k = np.concatenate([np.repeat(qs[c_lo:c_hi], c) * t, np.tile(open_ks, hi - lo)])
        d = _lattice_distance_table(xs[pair_owner], math.pi / (pair_k * alpha))[1:]
        hit[pair_owner[d < radius[pair_k - k_first]]] = True
        lo = hi
    return hit


def tail_hits(points, modes: ModeList, start: int, radius: np.ndarray) -> np.ndarray:
    """Per point, whether some row i >= start of the list is nearer than radius[i - start].

    Equal to ``(modes_nodal_distance(p, modes)[start:] < radius).any()`` for
    each point p. The tail of a one-axis sine list (``ModeList.one_axis_sines``)
    goes to ``_axis_tail_hits``, which scans only the multiples of convergent
    denominators (Legendre's theorem); any other tail is scanned in full,
    point by point.
    """
    points = np.asarray(points, dtype=float)
    _require_finite(points)
    rows = max(len(modes) - start, 0)
    if np.shape(radius) != (rows,):
        raise ValidationError(
            f"radius has shape {np.shape(radius)}, not one entry per tail row ({rows},)"
        )
    if start >= len(modes):
        return np.zeros(points.shape[0], dtype=bool)
    if modes.one_axis_sines:
        return _axis_tail_hits(points[:, 0], modes.m[start:, 0], radius, modes.domain.alpha[0])
    return np.array(
        [bool((modes_nodal_distance(p, modes)[start:] < radius).any()) for p in points], dtype=bool
    )


# the default lower end of estimate_exponent's fit window
EXPONENT_MU_MIN = 3.0


@dataclass(frozen=True)
class ExponentEstimate:
    """Record-event regression estimate of a point's approximation exponent."""

    exponent: float
    n_records: int
    residual: float
    low_confidence: bool
    exact_hit: bool


def _record_rows(point, modes: ModeList) -> np.ndarray | None:
    """Rows of a one-axis sine list k = 1..K that can set a float record of mu * dist.

    None for any other list (``ModeList.one_axis_sines``), or for a point the
    scan would reject. With theta = x alpha / pi the exact distance of row k is
    pi ||k theta|| / (k alpha) and the scan's d_k is within err of it
    (``_scan_error``); fl(k alpha) and the product round twice more, so the
    proxy P_k = fl(mu_k d_k) is within 2 mu_K err of pi ||k theta||.

    Every convergent denominator q_n <= K is kept. A row q_n < k < q_{n+1}
    has ||k theta|| >= ||q_n theta|| + ||q_{n+1} theta|| (``_axis_convergents``),
    so where pi ||q_{n+1} theta|| (1 - _SLACK) exceeds both proxies' bounds,
    4 mu_K err, P_k > P_{q_n} and no row of the window sets a record or is a
    first exact hit. Every row of a window that fails the certificate is
    kept. The last window (q_N, K] is certified by the first q_{N+1} > K, and
    kept whole when theta's expansion ends at q_N.
    """
    x = np.asarray(point, dtype=float)
    if not modes.one_axis_sines or x.shape != (1,) or not math.isfinite(x[0]):
        return None
    alpha, K = modes.domain.alpha[0], len(modes)
    x = float(x[0])
    bound = 4.0 * _scan_error(abs(x), alpha) * float(modes.mu[-1])
    qs, gaps = _axis_convergents(x, alpha, K)
    keep = np.zeros(K, dtype=bool)
    for q, q_next, gap_next in zip(qs, qs[1:] + [K + 1], gaps[1:] + [0.0]):
        if q > K:
            break
        keep[q - 1] = True
        if not math.pi * gap_next * (1.0 - _SLACK) > bound:
            keep[q:min(q_next - 1, K)] = True
    return np.flatnonzero(keep)


def estimate_exponent(
    point,
    modes: ModeList,
    mu_min: float = EXPONENT_MU_MIN,
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
    exact_hit flag; fewer than five records flag low confidence. The fit
    window runs from mu_min to mu_max, by default the list's enumeration cap
    ``modes.mu_max``, which a list and its record candidates share.

    On one axis of sine rows k = 1..K (an interval or 1-d torus list) only the
    convergent denominators of x alpha / pi and the windows between them that
    rounding leaves uncertified are scanned (``_record_rows``): a dropped row
    never lowers the running minimum and is never a first exact hit, so the
    records, the fit and the flags are the full scan's bit for bit.
    """
    if len(modes) == 0:
        raise ValidationError("mode list is empty")
    rows = _record_rows(point, modes)
    if rows is not None:
        modes = ModeList(modes.domain, modes.mu_max, modes.m[rows], modes.mu[rows])
    dist = modes_nodal_distance(point, modes)
    mu = modes.mu
    hi = float(modes.mu_max if mu_max is None else mu_max)
    if not mu_min < hi:
        raise ValidationError("empty fit window")
    zero = dist == 0.0
    if zero.any():
        return ExponentEstimate(math.inf, 0, 0.0, False, True)
    proxy = mu * dist
    running = np.minimum.accumulate(proxy)
    prev = np.concatenate([[np.inf], running[:-1]])
    rec = (proxy < prev) & (mu >= mu_min) & (mu <= hi)
    idx = np.flatnonzero(rec)
    n_rec = int(idx.size)
    if n_rec < 2:
        return ExponentEstimate(math.nan, n_rec, math.nan, True, False)
    X = np.log(mu[idx])
    Y = -np.log(dist[idx])
    slope, intercept = np.polyfit(X, Y, 1)
    resid = float(np.sqrt(np.mean((Y - slope * X - intercept) ** 2)))
    return ExponentEstimate(float(slope), n_rec, resid, n_rec < 5, False)


def shrinking_radii(mu: np.ndarray, C: float, b: float) -> np.ndarray:
    """Radii C / mu^b, each from a scalar ``math.pow``.

    numpy's array power runs a SIMD loop on AVX-512 hosts that rounds apart
    from scalar ``pow`` on some entries, so radii formed that way, and the
    volumes and hits that follow from them, would depend on the host. An
    exponent b = n + 1 + eps so large that mu^b overflows is invalid input.
    """
    try:
        return np.array([C / math.pow(m, b) for m in mu.tolist()], dtype=float)
    except OverflowError:
        raise ValidationError(
            f"eps is too large: mu^b overflows for b = n + 1 + eps = {b:g} up to mu = {mu.max():g}"
        ) from None


@dataclass
class BorelCantelliSums:
    """Partial sums of exact tube volumes at shrinking radii C/mu^(n+1+eps)."""

    mu: np.ndarray
    volumes: np.ndarray     # per-mode exact tube volume
    partial: np.ndarray     # S_K = cumulative sum of volumes

    def cauchy_gap(self, K: int) -> float:
        """S_2K - S_K, the tail mass between K and 2K terms."""
        if 2 * K > self.partial.size:
            raise ValidationError(f"need {2 * K} terms, have {self.partial.size}")
        return float(self.partial[2 * K - 1] - self.partial[K - 1])


def borel_cantelli_sum(domain: DomainSpec, C: float, eps: float, k_max: int) -> BorelCantelliSums:
    """Sum exact tube volumes Vol(T_{mu_k, C/mu_k^{n+1+eps}}) over the spectrum.

    Volumes come from the closed-form tube share of ``tube_volume_exact``, never
    a grid: the radii shrink like mu^-(n+1+eps), below any fixed resolution.
    """
    if not 0 < eps < math.inf:
        raise ValidationError(f"eps must lie in (0, inf), got {eps}")
    if not 0 < C < math.inf:
        raise ValidationError(f"C must lie in (0, inf), got {C}")
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    n = domain.n
    # Weyl-style guess, grown until enough modes exist
    mu_cap = 4.0 * max(domain.alpha) * (k_max ** (1.0 / n) + 2.0)
    modes = enumerate_modes(domain, mu_cap)
    while modes.m.shape[0] < k_max:
        mu_cap *= 1.5
        modes = enumerate_modes(domain, mu_cap)
    mu = modes.mu[:k_max].copy()
    radii = shrinking_radii(mu, C, n + 1 + eps)
    vols = domain.volume * _tube_fraction(domain.alpha, modes.m[:k_max], radii)
    return BorelCantelliSums(mu, vols, np.cumsum(vols))
