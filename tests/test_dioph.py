"""Approximation-by-nodal-sets: exact distances, hits, exponents, sums."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalab import dioph
from nodalab.dioph import (
    EXPONENT_MU_MIN,
    ExponentEstimate,
    _axis_convergents,
    borel_cantelli_sum,
    estimate_exponent,
    modes_nodal_distance,
    tail_hits,
)
from nodalab.errors import ValidationError
from nodalab.grid import ResolutionRule
from nodalab.measures import grid_seeds
from nodalab.spectrum import (
    DomainSpec,
    EigenMode,
    ModeList,
    enumerate_modes,
    nodal_distance_exact,
    record_candidates,
    tube_volume_exact,
)

from cfrac import continued_fraction
from whole_field import whole_field

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def interval_modes(k_max: int, alpha: float = 1.0) -> ModeList:
    dom = DomainSpec.interval() if alpha == 1.0 else DomainSpec.box((alpha,))
    return enumerate_modes(dom, float(alpha * k_max) + 0.5)


def nearest(point, mode: EigenMode) -> float:
    """One mode's nodal distance, through the mode-list scan."""
    one = ModeList(mode.domain, mode.mu, np.array([mode.m]), np.array([mode.mu]))
    return float(modes_nodal_distance(point, one)[0])


def hit_indices(point, modes: ModeList, b: float, C: float) -> np.ndarray:
    """Indices (in mu order) of the modes whose nodal set passes within C/mu^b."""
    return np.nonzero(modes_nodal_distance(point, modes) < C / modes.mu**b)[0]


# ---------------------------------------------------------------- distances


def test_nearest_distance_interval_midpoint():
    k = 5
    mode = EigenMode(DomainSpec.interval(), (k,))
    assert nearest([math.pi / (2 * k)], mode) == pytest.approx(
        math.pi / (2 * k), rel=1e-14
    )
    # generic point: nearest zero of sin(3x) to x=1 is pi/3
    mode3 = EigenMode(DomainSpec.interval(), (3,))
    assert nearest([1.0], mode3) == pytest.approx(math.pi / 3 - 1.0, rel=1e-12)


def test_nearest_distance_torus_product_mode():
    # (0.4, 0.4): axis zeros at multiples of pi/3 and pi/4; pi/4 is the
    # closest (|0.4 - pi/4| < 0.4), so the distance is pi/4 - 0.4
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    d = nearest([0.4, 0.4], mode)
    assert d == pytest.approx(math.pi / 4 - 0.4, rel=1e-12)


def test_nearest_distance_on_hyperplane_is_zero():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    assert nearest([math.pi / 3, 0.1], mode) == 0.0


@pytest.mark.parametrize(
    "mode",
    [
        EigenMode(DomainSpec.interval(), (9,)),
        EigenMode(DomainSpec.box((1.0, 2.0)), (3, 2)),
        EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4)),
    ],
    ids=["interval", "box", "torus"],
)
def test_closed_form_matches_distance_field(mode):
    seeds = grid_seeds(mode, ResolutionRule(points_per_wavelength=64))
    field = whole_field(seeds)
    h = seeds.h
    rng = np.random.default_rng(2024)
    pts = rng.uniform(0.0, mode.domain.lengths, size=(1000, mode.domain.n))
    idx = np.rint(pts / h).astype(np.int64)
    for j, n_j in enumerate(field.shape):
        if seeds.periodic:
            idx[:, j] %= n_j
        else:
            idx[:, j] = np.clip(idx[:, j], 0, n_j - 1)
    looked_up = field[tuple(idx.T)]
    exact = nodal_distance_exact(mode, pts)
    assert np.max(np.abs(exact - looked_up)) <= 2.0 * float(np.max(h))


def test_modes_distance_matches_per_mode_scalar():
    dom = DomainSpec.torus((1.0, 1.0))
    m = np.array([[3, 4], [1, 0], [2, 2], [5, 1]], dtype=np.int64)
    mu = np.sqrt((m.astype(float) ** 2).sum(axis=1))
    modes = ModeList(dom, float(mu.max()), m, mu)
    rng = np.random.default_rng(7)
    for pt in rng.uniform(0.0, 2 * math.pi, size=(20, 2)):
        d = modes_nodal_distance(pt, modes)
        for i in range(len(modes)):
            assert d[i] == pytest.approx(
                float(nodal_distance_exact(modes[i], pt)), rel=1e-12, abs=1e-15
            )


def test_modes_distance_rejects_bad_input():
    modes = interval_modes(10)
    with pytest.raises(ValidationError):
        modes_nodal_distance([0.1, 0.2], modes)
    empty_nodal = ModeList(
        DomainSpec.torus((1.0, 1.0)),
        1.0,
        np.array([[0, 0]], dtype=np.int64),
        np.array([0.0]),
    )
    with pytest.raises(ValidationError):
        modes_nodal_distance([0.1, 0.2], empty_nodal)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_rejected_by_name(bad):
    # not a raw float error, nor a RuntimeWarning and an "empty nodal set"
    modes = interval_modes(20)
    radius = np.ones(15)
    with pytest.raises(ValidationError, match=f"coordinate 0 of point 1 is {bad}, not finite"):
        tail_hits([[0.1], [bad]], modes, 5, radius)
    with pytest.raises(ValidationError, match=f"coordinate 0 of the point is {bad}, not finite"):
        modes_nodal_distance([bad], modes)
    with pytest.raises(ValidationError, match=f"coordinate 0 of the point is {bad}, not finite"):
        estimate_exponent([bad], modes)
    # the full-scan path of a 2-d list
    torus = enumerate_modes(DomainSpec.torus((1.0, 1.0)), 5.0)
    with pytest.raises(ValidationError, match=f"coordinate 1 of point 0 is {bad}, not finite"):
        tail_hits([[0.1, bad]], torus, 1, np.ones(len(torus) - 1))


@pytest.mark.parametrize("rows", [0, 14, 16])
def test_tail_hits_rejects_a_radius_of_another_length(rows):
    modes = interval_modes(20)
    with pytest.raises(ValidationError, match="one entry per tail row"):
        tail_hits([[0.1]], modes, 5, np.ones(rows))


def masked_scan(point, modes: ModeList) -> np.ndarray:
    """Reference: the per-row masked formula the per-axis tables replaced."""
    point = np.asarray(point, dtype=float)
    dist = np.full(modes.m.shape[0], np.inf)
    for j in range(modes.domain.n):
        mj = modes.m[:, j]
        active = mj > 0
        if not active.any():
            continue
        spacing = math.pi / (mj[active] * modes.domain.alpha[j])
        r = np.mod(point[j], spacing)
        d = np.minimum(r, spacing - r)
        dist[active] = np.minimum(dist[active], d)
    return dist


def assert_scan_bitwise(point, modes: ModeList):
    ref = masked_scan(point, modes)
    keep = np.isfinite(ref)
    if not keep.all():
        # a row with no zero on any axis rejects the list; compare the other rows
        with pytest.raises(ValidationError):
            modes_nodal_distance(point, modes)
        modes = ModeList(modes.domain, modes.mu_max, modes.m[keep], modes.mu[keep])
        ref = ref[keep]
    got = modes_nodal_distance(point, modes)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


COORD = st.floats(-20.0, 20.0, allow_nan=False)
ALPHA = st.floats(0.3, 3.0, allow_nan=False)


@given(st.data(), st.integers(1, 3), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_scan_bitwise_torus_lists(data, n, rows):
    alpha = tuple(data.draw(ALPHA) for _ in range(n))
    dom = DomainSpec.torus(alpha)
    m = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 25), min_size=n, max_size=n),
                           min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(rows, n)
    mu = np.sqrt(((m * np.asarray(alpha)) ** 2).sum(axis=1))
    modes = ModeList(dom, float(mu.max(initial=0.0)), m, mu)
    assert_scan_bitwise(np.array([data.draw(COORD) for _ in range(n)]), modes)


@given(ALPHA, ALPHA, st.floats(1.0, 60.0), COORD, COORD)
@settings(max_examples=100, deadline=None)
def test_scan_bitwise_box(a1, a2, mu_max, x1, x2):
    modes = enumerate_modes(DomainSpec.box((a1, a2 * math.sqrt(2.0))), mu_max)
    assert_scan_bitwise([x1, x2], modes)


@given(st.integers(1, 5000), COORD)
@settings(max_examples=100, deadline=None)
def test_scan_bitwise_interval(k_max, x):
    assert_scan_bitwise([x], interval_modes(k_max))


def lattice_distance_table(x, spacing: np.ndarray) -> np.ndarray:
    r = np.mod(x, spacing)
    table = np.empty(spacing.size + 1)
    table[0] = np.inf
    np.minimum(r, spacing - r, out=table[1:])
    return table


def dense_table_scan(point, modes: ModeList) -> np.ndarray:
    """Reference: per-axis tables over every index 0..max m_j, gathered by row."""
    point = np.asarray(point, dtype=float)
    dist = np.full(modes.m.shape[0], np.inf)
    for j in range(modes.domain.n):
        mj = modes.m[:, j]
        top = int(mj.max(initial=0))
        if top == 0:
            continue
        spacing = math.pi / (np.arange(1, top + 1) * modes.domain.alpha[j])
        np.minimum(dist, lattice_distance_table(point[j], spacing)[mj], out=dist)
    return dist


@given(st.data(), st.integers(1, 3), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_scan_of_sparse_lists_is_the_dense_table(data, n, rows):
    # few rows with indices up to 10^5: the scan's tables hold only the
    # indices the list has, the reference's every index up to the largest
    alpha = tuple(data.draw(ALPHA) for _ in range(n))
    index = st.one_of(st.integers(0, 3), st.integers(1, 10**5))
    m = np.array(
        data.draw(st.lists(st.lists(index, min_size=n, max_size=n), min_size=rows, max_size=rows)),
        dtype=np.int64,
    )
    m[(m == 0).all(axis=1), 0] = data.draw(st.integers(1, 10**5))
    mu = np.sqrt(((m * np.asarray(alpha)) ** 2).sum(axis=1))
    modes = ModeList(DomainSpec.torus(alpha), float(mu.max()), m, mu)
    point = np.array([data.draw(COORD) for _ in range(n)])
    got = modes_nodal_distance(point, modes)
    assert np.array_equal(got.view(np.uint64), dense_table_scan(point, modes).view(np.uint64))


def test_scan_of_empty_list():
    d = modes_nodal_distance([1.0], enumerate_modes(DomainSpec.interval(), 0.5))
    assert d.shape == (0,)


def test_mode_list_rejects_negative_index():
    # the scan gathers per-axis tables by index, so a negative one must not arrive
    with pytest.raises(ValidationError):
        ModeList(
            DomainSpec.torus((1.0, 1.0)), 5.0, np.array([[3, -4]], dtype=np.int64), np.array([5.0])
        )


# --------------------------------------------------------------------- hits


def test_interval_b1_every_mode_hits():
    modes = interval_modes(200)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, math.pi, size=5):
        assert hit_indices([x], modes, b=1.0, C=math.pi).size == len(modes) == 200


def test_golden_point_hits_at_convergent_denominators():
    # hit at mode k iff k * ||k * (x/pi)|| < 1; for the golden section that
    # happens exactly at the continued fraction convergent denominators
    x = GOLDEN * math.pi
    modes = interval_modes(1000)
    hit_ks = {round(float(modes.mu[k])) for k in hit_indices([x], modes, b=2.0, C=math.pi)}
    cf = continued_fraction(x / math.pi, depth=40, q_cap=1000)
    assert hit_ks == {q for _, q in cf.convergents}


def test_large_b_has_no_tail():
    modes = interval_modes(500)
    rng = np.random.default_rng(3)
    hits = hit_indices([rng.uniform(0.0, math.pi)], modes, b=10.0, C=math.pi)
    assert np.all(modes.mu[hits] <= 2.0)


# ---------------------------------------------------------------- exponents


def test_interval_exponent_near_two():
    modes = interval_modes(100_000)
    rng = np.random.default_rng(42)
    slopes = []
    for x in rng.uniform(0.0, math.pi, size=100):
        est = estimate_exponent([x], modes)
        assert not est.exact_hit
        if not est.low_confidence:
            slopes.append(est.exponent)
    assert len(slopes) >= 90
    mean = float(np.mean(slopes))
    assert 1.8 <= mean <= 2.2


def test_exact_hit_gives_infinite_exponent():
    modes = interval_modes(100)
    est = estimate_exponent([math.pi / 2], modes)
    assert est.exact_hit
    assert math.isinf(est.exponent)


def test_few_records_flag_low_confidence():
    modes = interval_modes(6)
    est = estimate_exponent([1.0], modes)
    assert est.low_confidence


def test_records_at_one_mu_give_no_exponent():
    # the two records are (1,3) and (3,1), both at mu = sqrt(10): a line through
    # one log(mu) is rank-deficient, where polyfit gave 0.9715 with a RankWarning
    modes = enumerate_modes(DomainSpec.box((1.0, 1.0)), 6.860305704040414)
    est = estimate_exponent((0.94911183, 1.97811926), modes)
    assert est.n_records == 2 and est.low_confidence
    assert math.isnan(est.exponent) and math.isnan(est.residual)


def test_exponent_scale_consistency():
    # halving the domain scales every distance by 1/2 and every mu by 2;
    # the record set and the fitted slope are unchanged
    x = 1.2345
    est1 = estimate_exponent([x], interval_modes(1000), mu_min=3.0, mu_max=1000.0)
    est2 = estimate_exponent([x / 2], interval_modes(1000, alpha=2.0), mu_min=6.0, mu_max=2000.0)
    assert est1.n_records == est2.n_records
    assert est2.exponent == pytest.approx(est1.exponent, abs=1e-6)


def full_scan_exponent(point, modes: ModeList, mu_min=EXPONENT_MU_MIN, mu_max=None):
    """Reference: estimate_exponent as it was before it chose rows, scanning every row."""
    if len(modes) == 0:
        raise ValidationError("mode list is empty")
    dist = modes_nodal_distance(point, modes)
    mu = modes.mu
    hi = float(modes.mu_max if mu_max is None else mu_max)
    if not mu_min < hi:
        raise ValidationError("empty fit window")
    if (dist == 0.0).any():
        return ExponentEstimate(math.inf, 0, 0.0, False, True)
    proxy = mu * dist
    running = np.minimum.accumulate(proxy)
    prev = np.concatenate([[np.inf], running[:-1]])
    idx = np.nonzero((proxy < prev) & (mu >= mu_min) & (mu <= hi))[0]
    n_rec = int(idx.size)
    X = np.log(mu[idx])
    if n_rec < 2 or X[0] == X[-1]:
        return ExponentEstimate(math.nan, n_rec, math.nan, True, False)
    Y = -np.log(dist[idx])
    slope, intercept = np.polyfit(X, Y, 1)
    resid = float(np.sqrt(np.mean((Y - slope * X - intercept) ** 2)))
    return ExponentEstimate(float(slope), n_rec, resid, n_rec < 5, False)


@st.composite
def one_axis_points(draw, alpha: float, K: int):
    """Points of a one-axis list whose theta = x alpha / pi stresses the row choice."""
    step = math.pi / alpha
    kind = draw(st.sampled_from(["uniform", "zero", "hit", "near_end", "near_rational"]))
    if kind == "uniform":
        return draw(st.floats(0.0, step, exclude_max=True))
    if kind == "zero":
        return 0.0
    if kind == "hit":
        # x = j fl(pi / (k alpha)): the scan puts a zero or a near-zero on row k and its multiples
        k = draw(st.integers(1, max(1, min(K, 60))))
        return draw(st.integers(0, k)) * (math.pi / (k * alpha))
    if kind == "near_end":
        return step * (1.0 - draw(st.sampled_from([2.0**-52, 2.0**-40, 1e-9, 1e-5])))
    # theta = p/q + eta: a huge partial quotient after q leaves windows uncertified
    q = draw(st.integers(1, 40))
    p = draw(st.integers(0, q))
    eta = draw(st.sampled_from([1e-15, 1e-13, 1e-11, 1e-9, 1e-7])) * draw(st.sampled_from([-1, 1]))
    return (p / q + eta) * step


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_exponent_on_one_axis_lists_equals_the_full_scan(data):
    kind = data.draw(st.sampled_from(["interval", "box", "torus"]))
    alpha = 1.0 if kind == "interval" else data.draw(WEIGHT)
    dom = {"interval": DomainSpec.interval(), "box": DomainSpec.box((alpha,)),
           "torus": DomainSpec.torus((alpha,))}[kind]
    K = data.draw(st.one_of(st.integers(1, 4), st.integers(5, 3000), st.just(60_000)))
    modes = enumerate_modes(dom, float(alpha * K) + 0.5 * alpha)
    assert len(modes) == K
    x = data.draw(one_axis_points(alpha, K))
    assert dioph._record_rows([x], modes) is not None
    window = {}
    if data.draw(st.booleans()):
        top = float(modes.mu[-1])
        lo = data.draw(st.floats(0.0, top))
        window = {"mu_min": lo, "mu_max": data.draw(st.floats(lo, 2.0 * top))}
    assert outcome(lambda: estimate_exponent([x], modes, **window)) == outcome(
        lambda: full_scan_exponent([x], modes, **window)
    )


@pytest.mark.parametrize("K, j, k", [(50, 9, 17), (300, 15, 46), (300, 33, 39), (3000, 11, 23)])
def test_exponent_near_a_hit_keeps_its_uncertified_windows(K, j, k):
    # x = j fl(pi/k) lies within rounding of a zero of row k, but not on it:
    # the proxies' rounding then sets float records at rows that are not
    # convergent denominators (a semiconvergent before k, a multiple after),
    # and only the windows the certificate leaves open hold them
    modes = interval_modes(K)
    x = j * (math.pi / k)
    dist = modes_nodal_distance([x], modes)
    assert dist.min() > 0.0
    proxy = modes.mu * dist
    records = set(np.nonzero(proxy < np.minimum.accumulate(np.r_[np.inf, proxy[:-1]]))[0] + 1)
    assert records - set(_axis_convergents(x, 1.0, K)[0])
    assert outcome(lambda: estimate_exponent([x], modes)) == outcome(
        lambda: full_scan_exponent([x], modes)
    )


def test_one_axis_sines_is_checked_once_per_list():
    modes = interval_modes(1000)
    assert modes.one_axis_sines
    for dom in (DomainSpec.torus((math.sqrt(2.0),)), DomainSpec.box((0.7,))):
        assert enumerate_modes(dom, 50.0).one_axis_sines
    # a missing first row, a mu one ulp off, a 2-d list, no rows
    m, mu = modes.m, modes.mu
    off = mu.copy()
    off[7] = np.nextafter(off[7], np.inf)
    for bad in (
        ModeList(modes.domain, modes.mu_max, m[1:], mu[1:]),
        ModeList(modes.domain, modes.mu_max, m, off),
        enumerate_modes(DomainSpec.torus((1.0, 1.0)), 10.0),
        ModeList(modes.domain, 0.0, m[:0], mu[:0]),
    ):
        assert not bad.one_axis_sines
    # the scans of every later point reuse the first check
    with mock.patch.object(np, "array_equal", side_effect=AssertionError):
        assert dioph._record_rows([1.0], modes) is not None
        assert tail_hits(np.array([[1.0]]), modes, 500, np.full(500, 1e-9)).shape == (1,)


# ------------------------------------------------------- record candidates


def first_rows(modes: ModeList) -> ModeList:
    """Reference: the rows that come first in list order with some (axis, index > 0)."""
    seen = set()
    keep = np.zeros(len(modes), dtype=bool)
    for i in range(len(modes)):
        for j in range(modes.domain.n):
            key = (j, int(modes.m[i, j]))
            if key[1] > 0 and key not in seen:
                seen.add(key)
                keep[i] = True
    return ModeList(modes.domain, modes.mu_max, modes.m[keep], modes.mu[keep])


def assert_same_rows(got: ModeList, want: ModeList):
    assert got.domain == want.domain and got.mu_max == want.mu_max
    assert np.array_equal(got.m, want.m)
    assert np.array_equal(got.mu.view(np.uint64), want.mu.view(np.uint64))


# weights with exact ties (1, 2, 0.5) and without; mu_max scaled so lists stay small
WEIGHT = st.one_of(st.sampled_from([1.0, 2.0, 0.5, math.sqrt(2.0), math.sqrt(3.0)]), ALPHA)
SPAN = {1: 400.0, 2: 60.0, 3: 18.0}


@st.composite
def spectral_domains(draw, n_values=(1, 2, 3)):
    n = draw(st.sampled_from(n_values))
    alpha = tuple(draw(WEIGHT) for _ in range(n))
    dom = DomainSpec.torus(alpha) if draw(st.booleans()) else DomainSpec.box(alpha)
    mu_max = draw(st.floats(0.0, SPAN[n] * min(alpha)))
    return dom, mu_max


def outcome(fn):
    """repr of the result, or the error it raises."""
    try:
        return repr(fn())
    except ValidationError as e:
        return f"ValidationError: {e}"


def domain_point(data, dom: DomainSpec) -> np.ndarray:
    """A point of the domain; on some axes exactly on a factor zero l pi / (k alpha)."""
    pt = []
    for a, length in zip(dom.alpha, dom.lengths):
        if data.draw(st.booleans()):
            k = data.draw(st.integers(1, 40))
            pt.append(data.draw(st.integers(0, k)) * math.pi / (k * a))
        else:
            pt.append(data.draw(st.floats(0.0, length, exclude_max=True)))
    return np.array(pt)


@given(spectral_domains())
@settings(max_examples=80, deadline=None)
def test_record_candidates_are_the_first_rows(case):
    dom, mu_max = case
    full = enumerate_modes(dom, mu_max)
    got = record_candidates(dom, mu_max)
    assert_same_rows(got, first_rows(full))
    if dom.n == 1:
        assert_same_rows(got, full)


def test_record_candidates_of_the_survey_box():
    box = DomainSpec.box((1.0, math.sqrt(2.0)))
    got = record_candidates(box, 2000.0)
    assert len(got) == 3412
    # one row per index on each axis, the other index at 1, sorted by mu
    assert set(map(tuple, got.m)) == {(k, 1) for k in range(1, 2000)} | {
        (1, k) for k in range(1, 1415)
    }
    assert (np.diff(got.mu) >= 0).all()


@given(spectral_domains(n_values=(2, 3)), st.data())
@settings(max_examples=60, deadline=None)
def test_exponent_on_candidates_equals_the_full_scan(case, data):
    dom, mu_max = case
    full = enumerate_modes(dom, mu_max)
    cand = record_candidates(dom, mu_max)
    point = domain_point(data, dom)
    # both lists share the enumeration cap, the default top of the fit window
    assert outcome(lambda: estimate_exponent(point, cand)) == outcome(
        lambda: estimate_exponent(point, full)
    )


@st.composite
def torus_lists(draw, max_rows=60):
    """Hand-built torus lists with zero indices, sorted by mu."""
    n = draw(st.integers(1, 3))
    alpha = tuple(draw(WEIGHT) for _ in range(n))
    rows = draw(st.integers(1, max_rows))
    m = np.array(draw(st.lists(st.lists(st.integers(0, 12), min_size=n, max_size=n),
                               min_size=rows, max_size=rows)), dtype=np.int64)
    m[(m == 0).all(axis=1), 0] = 1
    mu = np.sqrt(((m * np.asarray(alpha)) ** 2).sum(axis=1))
    order = np.argsort(mu, kind="stable")
    dom = DomainSpec.torus(alpha)
    return ModeList(dom, float(mu.max()), m[order], mu[order])


@given(torus_lists(), st.data())
@settings(max_examples=100, deadline=None)
def test_exponent_on_first_rows_of_hand_built_torus_lists(modes, data):
    point = domain_point(data, modes.domain)
    assert outcome(lambda: estimate_exponent(point, first_rows(modes))) == outcome(
        lambda: estimate_exponent(point, modes)
    )


# ---------------------------------------------------------------- tail hits


def tail_hits_reference(points, modes: ModeList, start: int, radius: np.ndarray) -> np.ndarray:
    """The full scan run_approx_theorem made before tail_hits: every row, every point."""
    return np.array([
        bool((modes_nodal_distance(p, modes)[start:] < radius).any()) for p in points
    ])


def assert_tail_hits(points, modes, start, radius):
    points = np.asarray(points, dtype=float)
    assert np.array_equal(
        tail_hits(points, modes, start, radius), tail_hits_reference(points, modes, start, radius)
    )


def near_hit_points(data, alpha: float, ks: np.ndarray, radius: np.ndarray, count: int):
    """x = l pi/(k alpha) +- r (1 +- 2^-20): just inside or outside the radius r of row k."""
    out = []
    for _ in range(count):
        i = data.draw(st.integers(0, ks.size - 1))
        k = int(ks[i])
        l = data.draw(st.integers(0, k))
        side = data.draw(st.sampled_from([-1.0, 1.0]))
        wobble = data.draw(st.sampled_from([-1.0, 0.0, 1.0]))
        out.append(l * math.pi / (k * alpha) + side * radius[i] * (1.0 + wobble * 2.0**-20))
    return out


@given(
    st.integers(2, 300),
    st.floats(0.01, 0.999),
    st.floats(0.01, 3.0),
    st.integers(1, 2500),
    st.sampled_from(["interval", "box", "torus"]),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_axis_tail_hits_match_the_full_scan(k0, c_frac, eps, extra, kind, data):
    # C up to k0/2, as run_approx_theorem allows: small eps and large C leave a
    # prefix of the tail that no gap certificate clears, scanned for every point
    C = c_frac * k0 / 2.0
    alpha = 1.0 if kind == "interval" else data.draw(ALPHA)
    dom = {"interval": DomainSpec.interval(), "box": DomainSpec.box((alpha,)),
           "torus": DomainSpec.torus((alpha,))}[kind]
    modes = enumerate_modes(dom, float(k0 + extra) + 0.5)
    start = int(np.searchsorted(modes.mu, k0, side="right"))
    if start == len(modes):
        return
    radius = C / modes.mu[start:] ** (2.0 + eps)
    length = dom.lengths[0]
    points = [data.draw(st.floats(0.0, length, exclude_max=True)) for _ in range(8)]
    points += near_hit_points(data, alpha, modes.m[start:, 0], radius, 8)
    points += [0.0, math.pi / alpha, length / 2.0]
    # dyadic theta = x alpha / pi: its last convergent sits at distance 0
    points += [math.ldexp(math.pi, -j) / alpha for j in range(0, 14, 3)]
    # a small pair budget splits the points into many blocks
    budget = data.draw(st.sampled_from([1, 50, dioph._PAIR_BUDGET]))
    with mock.patch.object(dioph, "_PAIR_BUDGET", budget):
        assert_tail_hits(np.array(points)[:, None], modes, start, radius)


def test_axis_tail_hits_default_config():
    # run_approx_theorem's defaults: 58 of 10,000 points are hit beyond k0 = 100
    modes = interval_modes(10_000)
    start = int(np.searchsorted(modes.mu, 100, side="right"))
    radius = 1.0 / modes.mu[start:] ** 3.0
    points = np.random.default_rng(2718).uniform(0.0, math.pi, size=(10_000, 1))
    got = tail_hits(points, modes, start, radius)
    assert int(got.sum()) == 58
    some = np.random.default_rng(0).choice(10_000, size=300, replace=False)
    keep = np.union1d(some, np.nonzero(got)[0])
    assert np.array_equal(got[keep], tail_hits_reference(points[keep], modes, start, radius))


def test_axis_tail_hits_with_no_certified_row():
    # C = 1.7, eps = 0.01: the radius 1.7/k^2.01 lies 3% above pi/(2k^2) on
    # this tail, so no row is certified clear and every row is scanned for
    # every point; a hit there needs no convergent denominator
    modes = interval_modes(103)
    start = int(np.searchsorted(modes.mu, 100, side="right"))
    ks = modes.m[start:, 0]
    radius = 1.7 / modes.mu[start:] ** 2.01
    assert ((math.pi / (2.0 * ks**2) < radius) & (radius < 1.04 * math.pi / (2.0 * ks**2))).all()
    rng = np.random.default_rng(9)
    points = list(rng.uniform(0.0, math.pi, size=200))
    for k, r in zip(ks, radius):
        for l in rng.integers(1, k, size=30):
            points += [l * math.pi / k + s * r * (1.0 - 2.0**-20) for s in (-1.0, 1.0)]
    points = np.array(points)[:, None]
    ref = tail_hits_reference(points, modes, start, radius)
    assert 0 < ref.sum() < ref.size
    assert np.array_equal(tail_hits(points, modes, start, radius), ref)


def test_axis_tail_hits_bound_the_memory_of_an_uncertified_prefix():
    # C = 10, eps = 0.1: the radius 10/k^2.1 stays above pi/(2k^2) up to k near
    # 1e8, so no row of this tail is certified and all 9,900 are scanned for
    # each point; 300 points x 9,900 rows in one pass peak near 170 MB
    modes = interval_modes(10_000)
    start = int(np.searchsorted(modes.mu, 100, side="right"))
    radius = 10.0 / modes.mu[start:] ** 2.1
    points = np.random.default_rng(5).uniform(0.0, math.pi, size=(300, 1))
    tracemalloc.start()
    try:
        got = tail_hits(points, modes, start, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert np.array_equal(got, tail_hits_reference(points, modes, start, radius))


@given(spectral_domains(), st.floats(0.05, 3.0), st.floats(0.05, 10.0), st.data())
@settings(max_examples=60, deadline=None)
def test_tail_hits_on_enumerated_lists(case, eps, C, data):
    dom, mu_max = case
    modes = enumerate_modes(dom, mu_max)
    if len(modes) == 0:
        return
    start = data.draw(st.integers(0, len(modes) - 1))
    radius = C / modes.mu[start:] ** (dom.n + 1 + eps)
    points = [domain_point(data, dom) for _ in range(6)]
    assert_tail_hits(points, modes, start, radius)


@given(torus_lists(max_rows=80), st.floats(0.05, 3.0), st.floats(0.05, 10.0), st.data())
@settings(max_examples=100, deadline=None)
def test_tail_hits_on_hand_built_torus_tails(modes, eps, C, data):
    start = data.draw(st.integers(0, len(modes) - 1))
    radius = C / modes.mu[start:] ** (modes.domain.n + 1 + eps)
    points = [domain_point(data, modes.domain) for _ in range(6)]
    assert_tail_hits(points, modes, start, radius)


@given(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 10**9))
@settings(max_examples=200, deadline=None)
def test_convergents_match_the_continued_fraction_oracle(x, q_cap):
    cf = continued_fraction(x, depth=200, q_cap=q_cap)
    # alpha = pi makes theta = x alpha / pi exactly x
    qs, gaps = _axis_convergents(x, math.pi, q_cap)
    within = [q for q in qs if q <= q_cap]
    # the oracle starts after the convergent 0/1 and stops on a remainder below 1e-15
    assert within[0] == 1
    assert within[1:len(cf.convergents) + 1] == [q for _, q in cf.convergents]
    if cf.exact:
        assert len(within) == len(cf.convergents) + 1
    # each gap is |q x - p|, correctly rounded
    assert gaps[0] == x
    for (p, q), gap in zip(cf.convergents, gaps[1:]):
        assert gap == float(abs(q * Fraction(x) - p))
    # the lists end at the first denominator past the cap, or where the expansion ends
    assert qs[-1] > q_cap or gaps[-1] == 0.0
    assert len(qs) == len(within) + (qs[-1] > q_cap)


@st.composite
def theta_xs(draw, alpha: float, q_max: int):
    """x with theta = x alpha / pi random, 0, subnormal, dyadic, p/q or near p/q.

    Each may move to a nextafter neighbour or two.
    """
    kind = draw(
        st.sampled_from(["random", "zero", "subnormal", "dyadic", "p/q", "near p/q", "near 1/q"])
    )
    if kind == "random":
        x = draw(st.floats(-50.0, 50.0))
    elif kind == "zero":
        x = draw(st.sampled_from([0.0, -0.0]))
    elif kind == "subnormal":
        x = draw(st.sampled_from([-1.0, 1.0])) * math.ldexp(draw(st.integers(1, 2**52 - 1)), -1074)
    elif kind == "dyadic":
        # theta = j / 2^e exactly at alpha = 1: pi has a 50-bit numerator
        x = draw(st.integers(-8, 8)) * math.ldexp(math.pi, -draw(st.integers(0, 70))) / alpha
    elif kind == "p/q":
        # q divides math.pi's numerator, so x = j 2^(s + 48) pi / q exactly and
        # theta = j alpha 2^(s + 48) / q
        q = draw(st.sampled_from([5, 7, 35]))
        pi_num = math.pi.as_integer_ratio()[0]
        j, s = draw(st.integers(-3 * q, 3 * q)), draw(st.integers(-51, -45))
        x = math.ldexp(j * (pi_num // q), s)
    elif kind == "near p/q":
        q = draw(st.integers(1, 12))
        x = draw(st.integers(-3 * q, 3 * q)) * math.pi / (q * alpha)
    else:
        # theta within about 2^-52 / q of 1/q: the bracket often holds 1/q, and
        # its ends' first quotients are q - 1 and q, on both sides of q_max at q_max + 1
        q = draw(st.one_of(st.integers(2**10, 10**6), st.sampled_from([q_max, q_max + 1])))
        x = draw(st.sampled_from([-1.0, 1.0])) * math.pi / (q * alpha)
    for _ in range(draw(st.integers(0, 2))):
        x = float(np.nextafter(x, draw(st.sampled_from([-math.inf, math.inf]))))
    return x


@given(st.sampled_from([1.0, math.sqrt(2.0), 1.0 / 3.0]), st.sampled_from([1, 2, 10**4, 10**6]),
       st.data())
@settings(max_examples=300, deadline=None)
def test_convergent_table_matches_the_exact_euclid(alpha, q_max, data):
    xs = np.array(data.draw(st.lists(theta_xs(alpha, q_max), min_size=1, max_size=12)))
    with np.errstate(all="raise"):
        owner, qs, gaps = dioph._axis_convergent_table(xs, alpha, q_max)
    assert (np.diff(owner) >= 0).all()
    for i, x in enumerate(xs):
        want_qs, want_gaps = _axis_convergents(x, alpha, q_max)
        within = [q for q in want_qs if q <= q_max]
        assert qs[owner == i].tolist() == within
        # each gap is a lower bound, at most the correctly rounded exact gap
        got = gaps[owner == i]
        assert ((0.0 <= got) & (got <= np.array(want_gaps[:len(within)]))).all()


def test_default_points_run_the_exact_euclid_only_to_fall_back():
    # run_approx_theorem's 10,000 default points: the int64 Euclid settles
    # every convergent up to k_max, so the exact big-int one runs for at most a few
    modes = interval_modes(10_000)
    start = int(np.searchsorted(modes.mu, 100, side="right"))
    radius = 1.0 / modes.mu[start:] ** 3.0
    points = np.random.default_rng(2718).uniform(0.0, math.pi, size=(10_000, 1))
    with mock.patch.object(dioph, "_axis_convergents", wraps=_axis_convergents) as exact:
        tail_hits(points, modes, start, radius)
    assert exact.call_count <= 5


# ----------------------------------------------------- convergence of sums


def test_borel_cantelli_interval_limit():
    # radii C/mu^3 give exact volumes 2k * k^-3, so S_K converges to pi^2/3
    res = borel_cantelli_sum(DomainSpec.interval(), C=1.0, eps=1.0, k_max=10_000)
    assert abs(float(res.partial[-1]) - math.pi**2 / 3) <= 3e-4
    assert np.all(np.diff(res.partial) > 0)
    # the closed form keeps every digit of the small volumes: no cancellation
    np.testing.assert_allclose(res.volumes, 2.0 * res.mu**-2.0, rtol=1e-14, atol=0.0)
    gap = res.cauchy_gap(2000)
    assert 0.0 < gap < 2.0 / 2000


def test_borel_cantelli_slow_eps_still_cauchy():
    res = borel_cantelli_sum(DomainSpec.interval(), C=1.0, eps=0.01, k_max=4000)
    gaps = [res.cauchy_gap(K) for K in (500, 1000, 2000)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_borel_cantelli_torus_cauchy():
    res = borel_cantelli_sum(DomainSpec.torus((1.0, 1.0)), C=1.0, eps=1.0, k_max=2000)
    assert np.all(np.diff(res.partial) > 0)
    gaps = [res.cauchy_gap(K) for K in (250, 500, 1000)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


@pytest.mark.parametrize(
    "domain", [DomainSpec.interval(), DomainSpec.box((1.0, math.sqrt(2.0)))], ids=["interval", "box"]
)
def test_borel_cantelli_volumes_are_the_oracle_bit_for_bit(domain):
    C, eps, k_max = 0.7, 0.5, 1500
    res = borel_cantelli_sum(domain, C=C, eps=eps, k_max=k_max)
    modes = enumerate_modes(domain, float(res.mu[-1]))
    b = domain.n + 1 + eps
    want = [tube_volume_exact(modes[k], C / math.pow(float(res.mu[k]), b)) for k in range(k_max)]
    assert res.volumes.tolist() == want


def test_borel_cantelli_validates():
    dom = DomainSpec.interval()
    with pytest.raises(ValidationError):
        borel_cantelli_sum(dom, C=1.0, eps=0.0, k_max=10)
    with pytest.raises(ValidationError):
        borel_cantelli_sum(dom, C=0.0, eps=1.0, k_max=10)
    with pytest.raises(ValidationError):
        borel_cantelli_sum(dom, C=1.0, eps=1.0, k_max=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="eps must lie in"):
            borel_cantelli_sum(dom, C=1.0, eps=bad, k_max=10)
        with pytest.raises(ValidationError, match="C must lie in"):
            borel_cantelli_sum(dom, C=bad, eps=1.0, k_max=10)
    res = borel_cantelli_sum(dom, C=1.0, eps=1.0, k_max=100)
    with pytest.raises(ValidationError):
        res.cauchy_gap(60)
