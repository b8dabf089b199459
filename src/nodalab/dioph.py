"""Approximation of points by nodal sets: exact distances, exponents, convergence sums.

For separable modes the distance from a point to the nodal set is exact and
closed-form: the min over axes of the distance from x_j to the nearest zero of
the j-th factor, a lattice of spacing pi / (m_j alpha_j). Every scan takes it
per row, from the row's int64 index times the float weight and one float
chain, ``spectrum.lattice_distance``, so all of them agree bit for bit.
Records of the running minimum distance drive per-point approximation
exponents; exact tube volumes drive the convergence (Borel-Cantelli style)
sums, since the radii shrink below any fixed grid.

Most rows of a list can never change a scan's result. A row's distance is
one axis entry, and the first row in list order with the same (axis, index)
has that entry too, or a smaller one, at no larger mu. Float multiplication
is monotone, so a later row never strictly lowers the running
minimum of mu * dist below that first row's, and it is an exact hit only if
that first row is. ``spectrum.record_candidates`` builds just those first
rows, so exponent estimates on it are the full list's.

Those first rows are axis families (``ModeList.axis_families``): family j
holds the rows with every index but m_j at its least value (1 in a box, 0
on a torus), k = m_j; on one axis it is the whole list. The exponent scan
uses continued fractions on each family (Khinchin, *Continued Fractions*).
With theta = x_j alpha_j / pi the family's axis puts row k at distance
pi ||k theta|| / (k alpha_j), and the other axes at a distance c_j that is
the same for every row, so with g(k) = mu_k / (k alpha_j), which does not
rise with k and is 1 on intervals and tori, the proxy mu * dist is
min(pi ||k theta|| g(k), mu_k c_j). Its records sit at the convergent
denominators q of theta (Lagrange's best approximations) and in few rows
between them. A window q < k <= top, top = min(q' - 1, K) before the next
denominator q', is dropped when

    pi ||q' theta|| g(top) > pi ||q theta|| (g(q) - g(top)) + 4 mu_K err,

err the scan's rounding (``_scan_error``), ||q' theta|| from below and
||q theta|| from above, each side widened by ``_SLACK``. A window that fails
keeps only its multiples of q and its semiconvergents q' - j q that could
still tie row q (``_record_pairs``). Where theta's expansion ends at q,
theta = p / q keeps every other row at ||k theta|| >= 1 / q: only the
multiples of q stay, and none where the scan's distance at q is already an
exact hit (x_j = 0, say). ``estimate_exponent`` scans those rows
for all points at once: about 13 of the survey box's 3,412 rows per point,
and 10 of the interval's 100,000.

``tail_hits`` asks whether any row of a list beyond a frequency cutoff
passes within its radius. A row hits iff one of its axes does, so each axis
j takes one scan against the envelope R_j(k), the largest radius among the
tail rows with m_j = k. Where pi/(2 k^2 alpha_j) exceeds R_j(k) by more
than the scan's rounding, a hit at k needs |theta - P/k| < 1/(2k^2), so by
Legendre's theorem k is a multiple of a convergent denominator. Both scans
give the rows they keep the scan's own float formula, so every record, hit
and flag is the full scan's bit for bit.

Both take the convergents of all points in one pass
(``_axis_convergent_table``, after Lehmer's Euclid for large numbers): int64
Euclid on the two ends of a 2^-62 bracket of frac(theta), all points in
lockstep, and the exact big-int Euclid (``_axis_convergents``) only for a
point whose ends part. Its gap bounds err only toward scanning more rows,
so the results keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceGuardError, ValidationError
from .spectrum import MODE_COUNT_CAP, DomainSpec, ModeList, _tube_fraction, enumerate_modes
from .spectrum import lattice_distance


def _require_finite(points: np.ndarray) -> None:
    """Raise ValidationError naming the first non-finite coordinate of a point or of rows of points."""
    bad = np.flatnonzero(~np.isfinite(points))
    if bad.size:
        at = np.unravel_index(bad[0], points.shape)
        name = "the point" if points.ndim == 1 else f"point {at[0]}"
        raise ValidationError(f"coordinate {at[-1]} of {name} is {points[at]}, not finite")


def modes_nodal_distance(point, modes: ModeList) -> np.ndarray:
    """Exact nodal distances to every mode in the list, from one point (n,) or one point per row (K, n)."""
    dom = modes.domain
    point = np.asarray(point, dtype=float)
    if point.shape not in ((dom.n,), (len(modes), dom.n)):
        raise ValidationError(f"point must have {dom.n} coordinates, or one row of them per mode")
    _require_finite(point)
    point = np.broadcast_to(point, (len(modes), dom.n))
    dist = np.full(len(modes), np.inf)
    for j in range(dom.n):
        on = modes.m[:, j] > 0
        spacing = math.pi / (modes.m[on, j] * dom.alpha[j])
        dist[on] = np.minimum(dist[on], lattice_distance(point[on, j], spacing))
    if not np.isfinite(dist).all():
        raise ValidationError("a mode in the list has an empty nodal set")
    return dist


# relative widening of each float bound below, far above the few-ulp rounding
# of the operations that compute it
_SLACK = 2.0**-40
# (point, row) pairs _axis_tail_hits evaluates, and padded entries estimate_exponent holds, at once
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


def _axis_convergents(
    xs: np.ndarray, alpha: float, q_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convergent denominators q of theta = x alpha / pi of each x of xs, with gaps |q theta - p|.

    Returns (owner, qs, gaps), sorted by owner, the index of the point in
    ``xs``, and by q within a point. theta is the exact rational x alpha / pi
    of the doubles x, alpha and math.pi, expanded by integer Euclid: the
    remainder after each convergent p/q is |q theta - p| times theta's
    denominator, so each gap is correctly rounded and the exact nodal
    distance of the row q is pi gap / (q alpha). A point's denominators run
    up to and including the first q > q_max, which is absent when the
    expansion of theta ends first (its last gap is then 0). That q comes from
    the quotient clamped to q_max + 1, as in ``_axis_convergent_table``: it
    stays past q_max, at most theta's and equal to it modulo the q before,
    and its gap is theta's.

    The convergents bound every other row (Khinchin, *Continued Fractions*):
    let q < q' be consecutive denominators and 0 < k < q', k != q. Write (k, P)
    = a (q, p) + b (q', p') in integers. The signs of q theta - p and
    q' theta - p' alternate, and k in range forces a, b of opposite signs or
    b = 0, a >= 2, so |k theta - P| >= |q theta - p| + |q' theta - p'| for
    every integer P, with equality at the semiconvergent k = q' - q.
    """
    c_num, c_den = _theta_scale(alpha)
    found = []
    for i, (x_num, x_den) in enumerate(map(float.as_integer_ratio, np.asarray(xs, dtype=float).tolist())):
        num, den = x_num * c_num, x_den * c_den
        r_prev, r = den, num % den
        q_prev, q = 0, 1
        found.append((i, q, r / den))
        while r and q <= q_max:
            a, r_next = divmod(r_prev, r)
            r_prev, r = r, r_next
            q_prev, q = q, min(a, q_max + 1) * q + q_prev
            found.append((i, q, r / den))
    owner, qs, gaps = zip(*found) if found else ((), (), ())
    return np.array(owner, dtype=np.int64), np.array(qs, dtype=np.int64), np.array(gaps, dtype=float)


def _axis_convergent_table(
    xs: np.ndarray, alpha: float, q_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every point's convergent denominators through the first past q_max, with gap bounds.

    Returns (owner, qs, gap_lo, gap_hi), sorted by owner, the index of the
    point in ``xs``, and by q within a point: the denominators are those of
    ``_axis_convergents``, gap_lo is at most the correctly rounded gap there
    and, for q <= q_max, gap_hi at least it. A point's last q is past q_max
    unless theta's expansion ends first; it may be clamped, and serves only
    to certify the window (q_N, q_max] with its gap_lo. All points run one Euclid in int64 (after
    Lehmer, "Euclid's algorithm for large numbers", 1938):

    - Bracket. One exact big-int step per point gives T = floor(frac(theta)
      2^62), so frac(theta) lies in [T, T + 1] / 2^62.
    - Lockstep Euclid. Both ends, (2^62, T) and (2^62, T + 1), run Euclid side
      by side, every live point at once. The reals whose expansions begin
      a_1 .. a_k form an interval, so where both ends give the same quotient
      a_k, it is theta's, and q_k = a_k q_(k-1) + q_(k-2). On that interval
      |q_k y - p_k| is linear in y, so theta's gap lies between the two end
      remainders over 2^62, which differ by q_k, and rounding them keeps the
      order with the correctly rounded gap. a_k is clamped to q_max + 1, which changes only
      a q past q_max and keeps the product in int64: q_max is at most a
      list's row count, and q_max (q_max + 1) < 2^63 below 3e9 rows.
    - Fallback. A point whose ends disagree, or reach a zero remainder, by
      the step that passes q_max runs the exact ``_axis_convergents``
      instead, with gap_lo = gap_hi its correctly rounded gap.
    """
    c_num, c_den = _theta_scale(alpha)
    t = np.array(
        [(n * c_num % (d * c_den) << _BRACKET_BITS) // (d * c_den)
         for n, d in map(float.as_integer_ratio, xs.tolist())],
        dtype=np.int64,
    )
    # the first convergent, 1: its gap frac(theta) lies in [T, T + 1] / 2^62
    owners, qs, rems = [np.arange(xs.size)], [np.ones(xs.size, dtype=np.int64)], [t]
    fallback = t == 0  # the lower end's first remainder is zero
    idx = np.flatnonzero(~fallback)
    q_prev, q = np.zeros(idx.size, dtype=np.int64), qs[0][idx]
    lo_prev = hi_prev = np.full(idx.size, 1 << _BRACKET_BITS, dtype=np.int64)
    lo, hi = t[idx], t[idx] + 1
    while idx.size:
        a, lo_next = np.divmod(lo_prev, lo)
        b, hi_next = np.divmod(hi_prev, hi)
        q_prev, q = q, np.minimum(a, q_max + 1) * q + q_prev
        r = np.minimum(lo_next, hi_next)
        lost = (a != b) | (r == 0)
        fallback[idx[lost]] = True
        keep = ~lost
        owners.append(idx[keep])
        qs.append(q[keep])
        rems.append(r[keep])
        go = keep & (q <= q_max)
        idx, q_prev, q = idx[go], q_prev[go], q[go]
        lo_prev, hi_prev, lo, hi = lo[go], hi[go], lo_next[go], hi_next[go]
    owners, qs, rems = (np.concatenate(v) for v in (owners, qs, rems))
    sure = ~fallback[owners]
    e_owner, e_q, e_gap = _axis_convergents(xs[fallback], alpha, q_max)
    owner = np.concatenate([owners[sure], np.flatnonzero(fallback)[e_owner]])
    order = np.argsort(owner, kind="stable")
    # the ends' remainders differ by exactly q: theta's gap lies in [r, r + q] / 2^62
    scale = 2.0**-_BRACKET_BITS
    gap_lo = np.concatenate([rems[sure] * scale, e_gap])[order]
    rems += qs
    gap_hi = np.concatenate([rems[sure] * scale, e_gap])[order]
    return owner[order], np.concatenate([qs[sure], e_q])[order], gap_lo, gap_hi


def _ramps(count: np.ndarray) -> np.ndarray:
    """0, 1, .., count[i] - 1 for each i in turn: the index within each run of np.repeat(x, count)."""
    return np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)


def _open_rows(ks: np.ndarray, radius: np.ndarray, err: np.ndarray, alpha: float):
    """The rows ks sorted by gap certificate margin pi/(2 k^2 alpha) - radius[k], and per
    point the count of them at most its err: the rows the certificate leaves open.

    A point's open rows are a prefix of that order. A NaN margin (a NaN
    radius) sorts last and is never open: it hits nothing either way.
    """
    margin = math.pi / (2.0 * ks * ks * alpha) * (1.0 - _SLACK) - radius
    order = np.argsort(margin, kind="stable")
    return ks[order], np.searchsorted(margin[order], err, side="right")


def _axis_tail_hits(xs: np.ndarray, ks: np.ndarray, radius: np.ndarray, alpha: float) -> np.ndarray:
    """Per x of xs, whether some k = ks[0] .. ks[-1] has lattice distance below radius[k - ks[0]].

    The scan's distance at k is that of x to the lattice pi/(k alpha) Z up to
    the point's own err (``_scan_error`` of |x|). Where the gap certificate
    pi/(2 k^2 alpha) - err > radius[k] holds, a hit at k puts k theta, theta
    = x alpha / pi, within 1/(2k) of an integer P, so by Legendre's theorem
    P/k reduces to a convergent p/q of theta, k = t q, and the exact distance
    is pi |q theta - p| / (q alpha) for every such t. Only multiples of q
    whose radius envelope exceeds that distance, less err, can hit; rows
    whose certificate fails (small k against a large C) are kept for the
    points it fails at, so a far point scans more rows without widening any
    other point's scan. The kept rows get the scan's own float formula and
    radius.

    The convergents of all points come sorted by point, as the blocked pair
    scan below needs, from ``_axis_convergent_table``. Its gaps are lower
    bounds: a smaller gap scans more multiples, and a row left out is still
    a certified miss, so every hit is the full scan's, bit for bit.
    """
    k_first, k_last = int(ks[0]), int(ks[-1])
    # the largest radius at or beyond each row: non-increasing, so every row
    # whose radius exceeds a threshold lies in the prefix the envelope gives
    env = np.maximum.accumulate(radius[::-1])[::-1]

    # a q past k_last gets no multiple in range below
    owner, qs, gaps, _ = _axis_convergent_table(xs, alpha, k_last)
    limit = math.pi * gaps / (qs * alpha) * (1.0 - _SLACK) - _scan_error(np.abs(xs[owner]), alpha)
    reach = k_first - 1 + np.searchsorted(-env, -limit)
    t_lo = -(-k_first // qs)
    count = np.maximum(reach // qs - t_lo + 1, 0)
    open_ks, n_open = _open_rows(ks, radius, _scan_error(np.abs(xs), alpha), alpha)
    # (point, row) pairs per point; points go in blocks of about _PAIR_BUDGET
    # pairs, so an uncertified prefix costs O(budget + k_max) memory, not O(points * k_max)
    load = np.bincount(owner, weights=count, minlength=xs.size) + n_open
    ends = np.cumsum(load)
    hit = np.zeros(xs.size, dtype=bool)
    lo = 0
    while lo < xs.size:
        base = ends[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _PAIR_BUDGET, side="right")))
        c_lo, c_hi = np.searchsorted(owner, [lo, hi])
        c = count[c_lo:c_hi]
        t = np.repeat(t_lo[c_lo:c_hi], c) + _ramps(c)
        o = n_open[lo:hi]
        pair_owner = np.concatenate([np.repeat(owner[c_lo:c_hi], c), np.repeat(np.arange(lo, hi), o)])
        pair_k = np.concatenate([np.repeat(qs[c_lo:c_hi], c) * t, open_ks[_ramps(o)]])
        d = lattice_distance(xs[pair_owner], math.pi / (pair_k * alpha))
        hit[pair_owner[d < radius[pair_k - k_first]]] = True
        lo = hi
    return hit


def tail_hits(points, modes: ModeList, start: int, radius: np.ndarray) -> np.ndarray:
    """Per point of points (P, n), whether some row i >= start of the list is nearer than radius[i - start].

    Equal to ``(modes_nodal_distance(p, modes)[start:] < radius).any()`` for
    each point p. A row hits iff one of its axes j with m_j > 0 does, and the
    rows with m_j = k hit on axis j iff the largest of their radii does: each
    axis takes one ``_axis_tail_hits`` scan of that envelope, -inf at an index
    no tail row has (on one axis, ``radius`` itself). An index past
    ``MODE_COUNT_CAP``, which no enumerated list reaches, raises ResourceGuardError.
    """
    points = np.asarray(points, dtype=float)
    n = modes.domain.n
    if points.ndim != 2 or points.shape[1] != n:
        raise ValidationError(f"points must have shape (count, {n}), got {points.shape}")
    _require_finite(points)
    if start < 0:
        raise ValidationError(f"start must be >= 0, got {start}")
    rows = max(len(modes) - start, 0)
    if np.shape(radius) != (rows,):
        raise ValidationError(
            f"radius has shape {np.shape(radius)}, not one entry per tail row ({rows},)"
        )
    if not (modes.m > 0).any(axis=1).all():
        raise ValidationError("a mode in the list has an empty nodal set")
    hit = np.zeros(points.shape[0], dtype=bool)
    for j, alpha in enumerate(modes.domain.alpha):
        on = modes.m[start:, j] > 0
        if not on.any():
            continue
        ks = modes.m[start:, j][on]
        k_lo, k_hi = ks.min(), ks.max()
        if k_hi > MODE_COUNT_CAP:
            raise ResourceGuardError(f"tail index {k_hi} on axis {j} exceeds the cap {MODE_COUNT_CAP}")
        envelope = np.full(k_hi - k_lo + 1, -np.inf)
        np.fmax.at(envelope, ks - k_lo, radius[on])
        hit |= _axis_tail_hits(points[:, j], np.arange(k_lo, k_hi + 1), envelope, alpha)
    return hit


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


def _record_pairs(points: np.ndarray, modes: ModeList) -> tuple[np.ndarray, np.ndarray]:
    """The (point, row) pairs of a family list that can set a float record of mu * dist.

    Returns (owner, row), sorted by point and then by list position.
    Family j's row k has the scan's distance min(d_j(k), c_j), c_j the
    point's fixed distance to the other axes' factors, so its proxy is
    min(fl(mu_k d_j(k)), fl(mu_k c_j)); with theta = x_j alpha_j / pi, d_j(k)
    is within err of pi ||k theta|| / (k alpha_j) (``_scan_error``), and mu_k
    rises with k. With g(k) = mu_k / (k alpha_j), fl(mu_k d_j(k)) is within
    2 mu_K err of pi ||k theta|| g(k).

    Every convergent denominator q <= K of theta is kept. Let q' be the next
    one and top = min(q' - 1, K); g(k) >= g(top) for q < k <= top, g falling
    with k up to rounding. Such a row's c_j branch is no lower than row q's,
    and row q comes first in list order, so the row sets no record and is
    no first exact hit where ||k theta|| > R, with

        R = (||q theta|| g(q) + 4 mu_K err / pi) / g(top),

    ||q theta|| from above (``_axis_convergent_table``) and g widened by
    ``_SLACK`` for its rounding. Write (k, P) = a (q, p) + b (q', p'): for
    q < k < q' either k = a q, a >= 2, and |k theta - P| = a gap_q, or a and
    b have opposite signs and |k theta - P| = |a| gap_q + |b| gap_q'
    (``_axis_convergents``), gaps from below. So a row fails only if it is a
    multiple a q with a <= R / gap_q, or has |a| <= m = (R - gap_q') / gap_q.
    When q' >= m q the latter forces b = 1, k = q' - |a| q: those multiples
    and semiconvergents are kept. When q' < m q, or gap_q rounds to 0, the
    window is kept whole. Where theta's expansion ends at q, theta = p / q
    and a row of (q, K] off the multiples of q has ||k theta|| >= 1 / q: the
    multiples are kept, and the rest only unless R < 1 / q. None is kept
    when the scan's d_j(q) is 0, an exact hit that settles the point's
    estimate (at x_j = 0 every row is one). Where m < 1 nothing is
    kept; that is pi ||q' theta|| g(top) > pi ||q theta|| (g(q) - g(top)) +
    4 mu_K err, Khinchin's bound ||k theta|| >= ||q theta|| + ||q' theta||.
    The last window, (q_N, K], is certified by the first q_{N+1} > K; a
    clamped q_{N+1} lies below theta's and equals it mod q_N, so the rows
    it keeps include theta's.
    """
    size = len(modes)
    keys = []
    for j, rows in enumerate(modes.axis_families):
        alpha, K = modes.domain.alpha[j], rows.size
        if K == 0:
            continue
        bound = 4.0 * float(modes.mu[rows[-1]]) * _scan_error(np.abs(points[:, j]), alpha)
        owner, q, gap_lo, gap_hi = _axis_convergent_table(points[:, j], alpha, K)
        # each q <= K with its point's next denominator; none is left where the expansion ends
        last = np.append(owner[1:] != owner[:-1], True)
        q_next = np.where(last, K + 1, np.roll(q, -1))
        gap_next = np.where(last, 0.0, np.roll(gap_lo, -1))
        inner = q <= K
        owner, q, q_next, gap_lo, gap_hi, gap_next, ends = (
            v[inner] for v in (owner, q, q_next, gap_lo, gap_hi, gap_next, last)
        )
        top = np.maximum(np.minimum(q_next - 1, K), q)
        g_q = modes.mu[rows[q - 1]] / (q * alpha) * (1.0 + _SLACK)
        g_top = modes.mu[rows[top - 1]] / (top * alpha) * (1.0 - _SLACK)
        R = (gap_hi * g_q + bound[owner] / math.pi) / g_top * (1.0 + _SLACK)
        gap = np.where(gap_lo > 0.0, gap_lo, 1.0)
        with np.errstate(over="ignore"):  # a subnormal gap: every multiple, and the window whole
            mult = np.minimum(np.floor(R / gap), top // q)  # multiples a q up to a = mult
            semi = np.maximum(np.floor((R - gap_next * (1.0 - _SLACK)) / gap), 0.0)  # q' - j q, j <= semi
        whole = (gap_lo == 0.0) | (q_next < semi * q)
        # theta = p / q where the expansion ends: every multiple of q, the window
        # whole unless R < 1 / q, and nothing past an exact hit at row q
        hit = np.zeros(q.size, dtype=bool)
        hit[ends] = lattice_distance(points[owner[ends], j], math.pi / (q[ends] * alpha)) == 0.0
        mult = np.where(ends, np.where(hit, 1, top // q), mult)
        whole = np.where(ends, ~hit & ~(R * q < 1.0 - _SLACK), whole)
        n_whole = np.where(whole, top - q, 0)
        n_mult = np.where(whole, 0, np.maximum(mult, 1).astype(np.int64) - 1)
        # j from the first with q' - j q <= top to the last with q' - j q > q
        j_lo = np.maximum(-((top - q_next) // q), 1)
        j_hi = np.minimum(np.minimum(semi, K), (q_next - q - 1) // q).astype(np.int64)
        n_semi = np.where(whole, 0, np.maximum(j_hi - j_lo + 1, 0))
        ks = [
            q,
            np.repeat(q, n_whole) + _ramps(n_whole) + 1,
            np.repeat(q, n_mult) * (_ramps(n_mult) + 2),
            np.repeat(q_next, n_semi) - np.repeat(q, n_semi) * (np.repeat(j_lo, n_semi) + _ramps(n_semi)),
        ]
        owners = [owner] + [np.repeat(owner, c) for c in (n_whole, n_mult, n_semi)]
        keys.append(np.concatenate(owners) * size + rows[np.concatenate(ks) - 1])
    # sorted, each pair once (a sort: numpy's hashing np.unique is many times slower here)
    key = np.sort(np.concatenate(keys))
    key = key[np.append(True, key[1:] != key[:-1])]
    return key // size, key % size


def _record_fits(mu: np.ndarray, dist: np.ndarray, mu_min: float, hi: float) -> list[ExponentEstimate]:
    """One estimate per row of the (points, rows) arrays mu and dist, +inf past a point's rows."""
    hit = (dist == 0.0).any(axis=1)
    proxy = mu * dist
    running = np.minimum.accumulate(proxy, axis=1)
    prev = np.concatenate([np.full((proxy.shape[0], 1), np.inf), running[:, :-1]], axis=1)
    rec = (proxy < prev) & (mu >= mu_min) & (mu <= hi)
    out = []
    for p in range(proxy.shape[0]):
        if hit[p]:
            out.append(ExponentEstimate(math.inf, 0, 0.0, False, True))
            continue
        idx = np.flatnonzero(rec[p])
        n_rec = int(idx.size)
        X = np.log(mu[p, idx])
        if n_rec < 2 or X[0] == X[-1]:  # no line through one mu: the records are sorted by mu
            out.append(ExponentEstimate(math.nan, n_rec, math.nan, True, False))
            continue
        Y = -np.log(dist[p, idx])
        slope, intercept = np.polyfit(X, Y, 1)
        resid = float(np.sqrt(np.mean((Y - slope * X - intercept) ** 2)))
        out.append(ExponentEstimate(float(slope), n_rec, resid, n_rec < 5, False))
    return out


def estimate_exponent(
    points,
    modes: ModeList,
    mu_min: float = EXPONENT_MU_MIN,
    mu_max: float | None = None,
) -> list[ExponentEstimate]:
    """Per point of points (P, n), fit -log(best distance so far) against log(mu) at its record events.

    Records are the modes that strictly improve the running minimum of the
    scale-free proxy mu * dist. Raw-distance records also admit long ramps of
    intermediate denominators between genuine approximation events; those
    ramps concentrate regression weight at one end of the window and spoil
    the fitted slope. The proxy keeps only second-kind best approximations
    (convergent denominators of x/pi on the interval), and every such record
    improves the raw distance as well, so the fitted quantity is unchanged.
    A point lying exactly on some nodal set gets an infinite exponent and the
    exact_hit flag; fewer than five records flag low confidence, and records
    at fewer than two distinct mu give no exponent (NaN). The fit
    window runs from mu_min to mu_max, by default the list's enumeration cap
    ``modes.mu_max``, which a list and its record candidates share.

    The list must be complete axis families (``ModeList.axis_families``), as
    ``spectrum.record_candidates`` builds: only each family's convergent
    denominators and the rows between them that the window certificate
    cannot rule out are scanned (``_record_pairs``), all points at once, in
    blocks of at most ``_PAIR_BUDGET`` padded entries. A dropped row never
    lowers the running minimum and is never a first exact hit, so the
    records, the fits and the flags are the full scan's bit for bit, and
    those of the whole ``enumerate_modes`` list that the candidates come from.
    """
    if len(modes) == 0:
        raise ValidationError("mode list is empty")
    points = np.asarray(points, dtype=float)
    n = modes.domain.n
    if points.ndim != 2 or points.shape[1] != n:
        raise ValidationError(f"points must have shape (count, {n}), got {points.shape}")
    _require_finite(points)
    if modes.axis_families is None:
        raise ValidationError(
            "the mode list is not complete axis families: take its "
            "spectrum.record_candidates, whose exponent estimates are the full list's"
        )
    hi = float(modes.mu_max if mu_max is None else mu_max)
    if not mu_min < hi:
        raise ValidationError("empty fit window")
    if points.shape[0] == 0:
        return []
    owner, rows = _record_pairs(points, modes)
    kept = ModeList(modes.domain, modes.mu_max, modes.m[rows], modes.mu[rows])
    dist = modes_nodal_distance(points[owner], kept)
    count = np.bincount(owner, minlength=points.shape[0])
    start = np.cumsum(count) - count
    order = np.argsort(count, kind="stable")
    out = [None] * points.shape[0]
    lo = 0
    while lo < order.size:
        # (points, kept rows) arrays, each point's rows in list order, +inf after
        # them: points go by row count, as many as fit _PAIR_BUDGET entries
        fit = np.arange(1, order.size - lo + 1) * count[order[lo:]] <= _PAIR_BUDGET
        block = order[lo:lo + max(1, int(np.count_nonzero(fit)))]
        c = count[block]
        at = (np.repeat(np.arange(block.size), c), _ramps(c))
        pair = np.repeat(start[block], c) + at[1]
        mu_pad, dist_pad = np.full((block.size, c.max()), np.inf), np.full((block.size, c.max()), np.inf)
        mu_pad[at], dist_pad[at] = kept.mu[pair], dist[pair]
        for p, est in zip(block.tolist(), _record_fits(mu_pad, dist_pad, mu_min, hi)):
            out[p] = est
        lo += block.size
    return out


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
