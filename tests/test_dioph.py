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
from nodalab.errors import ResourceGuardError, ValidationError
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


def exponent(point, modes: ModeList, **window) -> ExponentEstimate:
    """estimate_exponent on one point."""
    return estimate_exponent(np.asarray(point, dtype=float)[None], modes, **window)[0]


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
    seeds = grid_seeds(mode, ResolutionRule(points_per_wavelength=64)).seeds
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
                float(nodal_distance_exact(EigenMode(dom, tuple(modes.m[i])), pt)),
                rel=1e-12, abs=1e-15,
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
    with pytest.raises(ValidationError, match=f"coordinate 0 of point 0 is {bad}, not finite"):
        exponent([bad], modes)
    # a 2-d list, one envelope scan per axis
    torus = enumerate_modes(DomainSpec.torus((1.0, 1.0)), 5.0)
    with pytest.raises(ValidationError, match=f"coordinate 1 of point 0 is {bad}, not finite"):
        tail_hits([[0.1, bad]], torus, 1, np.ones(len(torus) - 1))


@pytest.mark.parametrize("rows", [0, 14, 16])
def test_tail_hits_rejects_a_radius_of_another_length(rows):
    modes = interval_modes(20)
    with pytest.raises(ValidationError, match="one entry per tail row"):
        tail_hits([[0.1]], modes, 5, np.ones(rows))


def test_tail_hits_reject_bad_points_start_and_rows_by_name():
    modes = interval_modes(20)
    # 1-d points, and two coordinates on an interval, are not read as column 0
    for bad, shape in (([0.1, 0.2], r"\(2,\)"), ([[0.1, 0.2]], r"\(1, 2\)")):
        with pytest.raises(ValidationError, match=rf"must have shape \(count, 1\), got {shape}"):
            tail_hits(bad, modes, 5, np.ones(15))
    with pytest.raises(ValidationError, match="start must be >= 0, got -1"):
        tail_hits([[0.1]], modes, -1, np.ones(21))
    # a row with every index 0, before the tail or in it
    m = np.array([[0, 0], [1, 0], [0, 1], [0, 0]], dtype=np.int64)
    empty_nodal = ModeList(DomainSpec.torus((1.0, 1.0)), 1.0, m, np.array([0.0, 1.0, 1.0, 0.0]))
    for start in (1, 2):
        with pytest.raises(ValidationError, match="a mode in the list has an empty nodal set"):
            tail_hits([[0.1, 0.2]], empty_nodal, start, np.ones(4 - start))


@pytest.mark.parametrize("modes", [
    interval_modes(100), record_candidates(DomainSpec.box((1.0, math.sqrt(2.0))), 50.0),
], ids=["interval", "box"])
def test_zero_points_give_no_estimate_and_no_hit(modes):
    points = np.empty((0, modes.domain.n))
    assert estimate_exponent(points, modes) == []
    assert tail_hits(points, modes, 3, np.ones(len(modes) - 3)).shape == (0,)
    # the window is checked whether or not there are points to fit
    with pytest.raises(ValidationError, match="empty fit window"):
        estimate_exponent(points, modes, mu_min=5.0, mu_max=4.0)


def masked_scan(point, modes: ModeList) -> np.ndarray:
    """Reference: the per-row masked formula, written out."""
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
    # few rows with indices up to 10^5: the scan takes each row's own
    # spacing, the reference a table of every index up to the largest
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
    # the scan reads an index <= 0 as a factor with no zero, so a negative one must not arrive
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
    for est in estimate_exponent(rng.uniform(0.0, math.pi, size=(100, 1)), modes):
        assert not est.exact_hit
        if not est.low_confidence:
            slopes.append(est.exponent)
    assert len(slopes) >= 90
    mean = float(np.mean(slopes))
    assert 1.8 <= mean <= 2.2


def test_exact_hit_gives_infinite_exponent():
    modes = interval_modes(100)
    est = exponent([math.pi / 2], modes)
    assert est.exact_hit
    assert math.isinf(est.exponent)


def test_few_records_flag_low_confidence():
    modes = interval_modes(6)
    est = exponent([1.0], modes)
    assert est.low_confidence


def test_records_at_one_mu_give_no_exponent():
    # the two records are (1,3) and (3,1), both at mu = sqrt(10): a line through
    # one log(mu) is rank-deficient, where polyfit gave 0.9715 with a RankWarning
    dom, mu_max, point = DomainSpec.box((1.0, 1.0)), 6.860305704040414, (0.94911183, 1.97811926)
    est = exponent(point, record_candidates(dom, mu_max))
    assert est.n_records == 2 and est.low_confidence
    assert math.isnan(est.exponent) and math.isnan(est.residual)
    assert repr(est) == repr(full_scan_exponent(point, enumerate_modes(dom, mu_max)))


def test_exponent_scale_consistency():
    # halving the domain scales every distance by 1/2 and every mu by 2;
    # the record set and the fitted slope are unchanged
    x = 1.2345
    est1 = exponent([x], interval_modes(1000), mu_min=3.0, mu_max=1000.0)
    est2 = exponent([x / 2], interval_modes(1000, alpha=2.0), mu_min=6.0, mu_max=2000.0)
    assert est1.n_records == est2.n_records
    assert est2.exponent == pytest.approx(est1.exponent, abs=1e-6)


def full_scan_exponent(point, modes: ModeList, mu_min=EXPONENT_MU_MIN, mu_max=None):
    """Reference: estimate_exponent as it was before it chose rows, one point, every row."""
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
    xs = data.draw(st.lists(one_axis_points(alpha, K), min_size=1, max_size=4))
    assert modes.axis_families is not None
    window = fit_window(data, modes)
    points = np.array(xs)[:, None]
    assert outcomes(lambda: estimate_exponent(points, modes, **window), len(xs)) == [
        outcome(lambda: full_scan_exponent(p, modes, **window)) for p in points
    ]


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
    assert records - set(_axis_convergents(np.array([x]), 1.0, K)[1].tolist())
    assert outcome(lambda: exponent([x], modes)) == outcome(lambda: full_scan_exponent([x], modes))


@pytest.mark.parametrize("dom, mu_max, point, multiple", [
    (DomainSpec.box((math.sqrt(2.0),)), 5000.0, [79 * (math.pi / (84 * math.sqrt(2.0)))], 3 * 84),
    (DomainSpec.box((1.0, math.sqrt(2.0))), 2000.0,
     [1.4003476341774095, 79 * (math.pi / (84 * math.sqrt(2.0)))], 3 * 84),
    (DomainSpec.torus((0.7,)), 3000.0, [91 * (math.pi / (95 * 0.7))], 5 * 95),
    # the double pi is 2^3 5 7 m / 2^51, so pi / 5 and pi / 7 are doubles and
    # theta is 3 / 7, 13 / 5, 15 / 56 and 26 / 5 exactly: its expansion ends
    (DomainSpec.box((3.0,)), 3000.0, [math.pi / 7], 7 * 7),
    (DomainSpec.box((13.0,)), 3000.0, [math.pi / 5], 5 * 5),
    (DomainSpec.torus((0.375,)), 3000.0, [5 * (math.pi / 7)], 7 * 56),
    (DomainSpec.box((1.0, 13.0)), 3000.0, [0.3, 2 * (math.pi / 5)], 5 * 5),
])
def test_exponent_near_a_hit_keeps_the_multiples_of_its_denominator(dom, mu_max, point, multiple):
    # theta lies within rounding of l / k, k = 84 or 95, or is l / k, k = 5, 7
    # or 56, and its next denominator is far past the list or absent, so the
    # window after k is not kept whole: the proxies' rounding sets a record at
    # a multiple of k, which only the multiples the certificate keeps hold
    modes = record_candidates(dom, mu_max)
    dist = modes_nodal_distance(point, modes)
    assert dist.min() > 0.0
    proxy = modes.mu * dist
    rows = np.nonzero(proxy < np.minimum.accumulate(np.r_[np.inf, proxy[:-1]]))[0]
    assert multiple in modes.m[rows, -1].tolist()
    assert outcome(lambda: exponent(point, modes)) == outcome(lambda: full_scan_exponent(point, modes))


@pytest.mark.parametrize("modes, point", [
    (interval_modes(60_000), [0.0]),
    (record_candidates(DomainSpec.box((1.0, math.sqrt(2.0))), 2000.0), [0.7, 0.0]),
])
def test_exponent_at_a_zero_of_a_first_row_scans_no_row_after_it(modes, point):
    # x_j = 0 puts theta's expansion's end at q = 1 and the scan's zero on
    # every row of the family: the first of them is an exact hit, which
    # settles the estimate, so the window past it is not scanned
    owner, rows = dioph._record_pairs(np.array([point]), modes)
    family = modes.axis_families[point.index(0.0)]
    assert np.intersect1d(rows, family).tolist() == [family[0]]
    assert outcome(lambda: exponent(point, modes)) == outcome(lambda: full_scan_exponent(point, modes))


def test_axis_families_are_checked_once_per_list():
    modes = interval_modes(1000)
    assert modes.axis_families is not None
    for dom in (DomainSpec.torus((math.sqrt(2.0),)), DomainSpec.box((0.7,))):
        assert enumerate_modes(dom, 50.0).axis_families is not None
    # the scans of every later point reuse the first check
    with mock.patch.object(np, "array_equal", side_effect=AssertionError):
        assert len(estimate_exponent(np.array([[1.0], [2.0]]), modes)) == 2
        assert tail_hits(np.array([[1.0]]), modes, 500, np.full(500, 1e-9)).shape == (1,)


def test_axis_families_are_the_candidate_lists():
    box = record_candidates(DomainSpec.box((1.0, math.sqrt(2.0), 0.7)), 12.0)
    assert box.m[:4].tolist() == [[1, 1, 1], [1, 1, 2], [2, 1, 1], [1, 1, 3]]
    fams = box.axis_families
    assert [f.size for f in fams] == [11, 8, 16]
    for j, f in enumerate(fams):
        # k = 1..K_j in list order; the row of all ones is k = 1 of every family
        assert np.array_equal(box.m[f, j], np.arange(1, f.size + 1)) and (np.diff(f) > 0).all()
        assert f[0] == 0 and (np.delete(box.m[f], j, axis=1) == 1).all()
    torus = record_candidates(DomainSpec.torus((1.0, 3.0)), 2.5)
    assert [f.tolist() for f in torus.axis_families] == [[0, 1], []]

    def listed(m, mu=None):
        mu = np.sqrt(((m * np.asarray(box.domain.alpha)) ** 2).sum(axis=1)) if mu is None else mu
        return ModeList(box.domain, box.mu_max, m, mu)

    m, mu = box.m, box.mu
    off = mu.copy()
    off[5] = np.nextafter(off[5], 0.0)
    two = m.copy()
    two[-1] = [2, 2, 1]
    for bad in (
        listed(m[1:]),  # no row of all ones
        listed(np.delete(m, 3, axis=0)),  # family 2 lacks k = 3
        listed(m[[0, 3, 2, 1] + list(range(4, len(m)))]),  # family 2 has k = 3 before k = 2
        listed(np.concatenate([m, m[-1:]])),  # a row twice
        listed(two),  # a row with two indices above 1
        listed(m, off),  # a mu one ulp off
        enumerate_modes(DomainSpec.box((1.0, 1.0)), 4.0),
        ModeList(torus.domain, torus.mu_max, np.array([[0, 0], [1, 0]]), np.array([0.0, 1.0])),
        listed(m[:0]),
    ):
        assert bad.axis_families is None
    assert listed(m).axis_families is not None
    # one axis: a missing first row, a mu one ulp off, no rows; and a 2-d torus list
    line = interval_modes(1000)
    up = line.mu.copy()
    up[7] = np.nextafter(up[7], np.inf)
    for bad in (
        ModeList(line.domain, line.mu_max, line.m[1:], line.mu[1:]),
        ModeList(line.domain, line.mu_max, line.m, up),
        enumerate_modes(DomainSpec.torus((1.0, 1.0)), 10.0),
        ModeList(line.domain, 0.0, line.m[:0], line.mu[:0]),
    ):
        assert bad.axis_families is None


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


def outcomes(fn, count: int) -> list[str]:
    """repr of each estimate fn returns for count points, or the error it raises, once per point."""
    try:
        return [repr(est) for est in fn()]
    except ValidationError as e:
        return [f"ValidationError: {e}"] * count


def fit_window(data, modes: ModeList) -> dict:
    """The default fit window, or a drawn one, possibly empty or past the list's mu."""
    if not data.draw(st.booleans()):
        return {}
    top = float(modes.mu[-1]) if len(modes) else 1.0
    lo = data.draw(st.floats(0.0, top))
    return {"mu_min": lo, "mu_max": data.draw(st.floats(lo, 2.0 * top))}


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


def stress_point(data, dom: DomainSpec) -> np.ndarray:
    """A point of the domain whose coordinates stress the family scan's row choice.

    Per axis: uniform; 0; dyadic; a factor zero l pi / (k alpha); or l
    fl(pi / (k alpha)), within rounding of a zero of row k and its multiples
    but not always on it, as in ``test_exponent_near_a_hit_keeps_its_uncertified_windows``.
    """
    pt = []
    for a, length in zip(dom.alpha, dom.lengths):
        kind = data.draw(st.sampled_from(["uniform", "zero", "dyadic", "on a zero", "near a zero"]))
        if kind == "uniform":
            pt.append(data.draw(st.floats(0.0, length, exclude_max=True)))
        elif kind == "zero":
            pt.append(0.0)
        elif kind == "dyadic":
            pt.append(min(data.draw(st.integers(0, 64)) / 16.0, length))
        else:
            k = data.draw(st.integers(1, 60))
            l = data.draw(st.integers(0, k))
            pt.append(l * math.pi / (k * a) if kind == "on a zero" else l * (math.pi / (k * a)))
    return np.array(pt)


@given(spectral_domains(), st.data())
@settings(max_examples=120, deadline=None)
def test_exponent_on_candidates_equals_the_full_scan(case, data):
    dom, mu_max = case
    full = enumerate_modes(dom, mu_max)
    cand = record_candidates(dom, mu_max)
    points = np.array([stress_point(data, dom) for _ in range(data.draw(st.integers(1, 8)))])
    # both lists share the enumeration cap, the default top of the fit window
    window = fit_window(data, full)
    assert outcomes(lambda: estimate_exponent(points, cand, **window), len(points)) == [
        outcome(lambda: full_scan_exponent(p, full, **window)) for p in points
    ]


# the survey's box, a 3-d box with tied weights and a 3-d torus; 200 points each,
# every fifth on or within rounding of a factor zero
SURVEY_LISTS = {
    "box2": (DomainSpec.box((1.0, math.sqrt(2.0))), 2000.0),
    "box3": (DomainSpec.box((0.5, 1.0, 2.0)), 100.0),
    "torus3": (DomainSpec.torus((2.0, 0.7, 1.3)), 80.0),
}


def survey_points(dom: DomainSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, dom.lengths, size=(200, dom.n))
    for i in range(0, 200, 5):
        j, k = int(rng.integers(dom.n)), int(rng.integers(1, 50))
        l, a = int(rng.integers(0, k + 1)), dom.alpha[j]
        # on the zero l pi / (k alpha), or l fl(pi / (k alpha)) within rounding of it
        points[i, j] = l * math.pi / (k * a) if i % 10 else l * (math.pi / (k * a))
    return points


def looser(table):
    """``_axis_convergent_table`` with gap bounds loosened unevenly, up to a factor 2 each way."""

    def wrapped(xs, alpha, q_max):
        owner, qs, gap_lo, gap_hi = table(xs, alpha, q_max)
        odd = np.arange(qs.size) % 2 == 1
        return owner, qs, gap_lo * np.where(odd, 1.0, 0.5), gap_hi * np.where(odd, 2.0, 1.0)

    return wrapped


@pytest.mark.parametrize("loose", [False, True])
@pytest.mark.parametrize("name", sorted(SURVEY_LISTS))
def test_exponent_on_survey_sized_lists_equals_the_full_scan(name, loose):
    # gap bounds loosened unevenly are still bounds: the certificate must take
    # each from its safe side, and then keeps more rows, never fewer
    dom, mu_max = SURVEY_LISTS[name]
    cand = record_candidates(dom, mu_max)
    points = survey_points(dom, seed=len(name))
    table = looser(dioph._axis_convergent_table) if loose else dioph._axis_convergent_table
    with mock.patch.object(dioph, "_axis_convergent_table", table):
        got = [repr(est) for est in estimate_exponent(points, cand)]
    assert got == [repr(full_scan_exponent(p, cand)) for p in points]


@given(spectral_domains(n_values=(2, 3)), st.data())
@settings(max_examples=60, deadline=None)
def test_exponent_stays_exact_with_looser_gap_bounds(case, data):
    dom, mu_max = case
    full = enumerate_modes(dom, mu_max)
    cand = record_candidates(dom, mu_max)
    points = np.array([stress_point(data, dom) for _ in range(data.draw(st.integers(1, 8)))])
    with mock.patch.object(dioph, "_axis_convergent_table", looser(dioph._axis_convergent_table)):
        got = outcomes(lambda: estimate_exponent(points, cand), len(points))
    assert got == [outcome(lambda: full_scan_exponent(p, full)) for p in points]


@st.composite
def hand_built_lists(draw, periodic: bool, shuffled: bool, max_rows=80):
    """Hand-built lists on 1 to 3 axes, 3 at least a third of the time, with
    repeated rows and indices and a torus's zero indices; sorted by mu, or
    with ``shuffled`` at times in random order."""
    n = draw(st.sampled_from([1, 2, 3, 3]))
    alpha = tuple(draw(WEIGHT) for _ in range(n))
    lo = 0 if periodic else 1
    rows = draw(st.integers(1, max_rows))
    m = np.array(draw(st.lists(st.lists(st.integers(lo, 12), min_size=n, max_size=n),
                               min_size=rows, max_size=rows)), dtype=np.int64)
    m[(m == 0).all(axis=1), 0] = 1
    mu = np.sqrt(((m * np.asarray(alpha)) ** 2).sum(axis=1))
    order = np.argsort(mu, kind="stable")
    if shuffled and draw(st.booleans()):
        order = np.array(draw(st.permutations(range(rows))), dtype=np.int64)
    dom = DomainSpec.torus(alpha) if periodic else DomainSpec.box(alpha)
    return ModeList(dom, float(mu.max()), m[order], mu[order])


NOT_FAMILIES = "not complete axis families: take its spectrum.record_candidates"


@given(hand_built_lists(periodic=True, shuffled=False, max_rows=60), st.data())
@settings(max_examples=100, deadline=None)
def test_exponent_on_first_rows_of_hand_built_torus_lists(modes, data):
    # the first-rows lemma, on the reference scan: dropping every row that is
    # not first with some (axis, index) changes no estimate
    points = np.array([domain_point(data, modes.domain) for _ in range(data.draw(st.integers(1, 4)))])
    first = first_rows(modes)
    want = [outcome(lambda: full_scan_exponent(p, modes)) for p in points]
    assert [outcome(lambda: full_scan_exponent(p, first)) for p in points] == want
    # estimate_exponent takes only complete axis families, and names the list that is
    if first.axis_families is None:
        with pytest.raises(ValidationError, match=NOT_FAMILIES):
            estimate_exponent(points, first)
    else:
        assert outcomes(lambda: estimate_exponent(points, first), len(points)) == want


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


def extreme_point(data, dom: DomainSpec) -> np.ndarray:
    """A point with some coordinates huge, negative or subnormal, the rest in the domain."""
    pt = domain_point(data, dom)
    for j in range(dom.n):
        kind = data.draw(st.sampled_from(["in", "huge", "negative", "subnormal"]))
        if kind == "huge":
            pt[j] = data.draw(st.sampled_from([1e300, -1e300, 1e18, 2.0**70 * math.pi]))
        elif kind == "negative":
            pt[j] = -data.draw(st.floats(0.0, 50.0))
        elif kind == "subnormal":
            sign = data.draw(st.sampled_from([-1.0, 1.0]))
            pt[j] = sign * math.ldexp(data.draw(st.integers(1, 2**52 - 1)), -1074)
    return pt


def hand_built_tail(modes, eps, C, data):
    """A start, radii C/mu^(n+1+eps) and points, six in the domain and four extreme."""
    start = data.draw(st.integers(0, len(modes) - 1))
    radius = C / modes.mu[start:] ** (modes.domain.n + 1 + eps)
    points = [domain_point(data, modes.domain) for _ in range(6)]
    points += [extreme_point(data, modes.domain) for _ in range(4)]
    return points, start, radius


@given(
    hand_built_lists(periodic=True, shuffled=True),
    st.floats(0.05, 3.0),
    st.floats(0.05, 10.0),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_tail_hits_on_hand_built_torus_tails(modes, eps, C, data):
    points, start, radius = hand_built_tail(modes, eps, C, data)
    assert_tail_hits(points, modes, start, radius)


@given(
    hand_built_lists(periodic=False, shuffled=True),
    st.floats(0.05, 3.0),
    st.floats(0.05, 10.0),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_tail_hits_on_hand_built_box_tails(modes, eps, C, data):
    points, start, radius = hand_built_tail(modes, eps, C, data)
    assert_tail_hits(points, modes, start, radius)


@pytest.mark.parametrize("modes", [
    interval_modes(50), enumerate_modes(DomainSpec.torus((1.0, 1.3)), 8.0),
], ids=["interval", "torus"])
def test_tail_hits_read_a_nan_radius_as_no_hit(modes):
    # d < nan is False, so a NaN radius hits nothing, and in the envelope's
    # running maximum it must hide no other row's hit
    rng = np.random.default_rng(0)
    radius = 0.5 / modes.mu[3:] ** 2
    radius[[4, 10]] = np.nan
    points = rng.uniform(0.0, 3.0, size=(200, modes.domain.n))
    assert tail_hits_reference(points, modes, 3, radius).sum() > 0
    assert_tail_hits(points, modes, 3, radius)


@pytest.mark.parametrize("index", [[10**12], [1, 10**12]], ids=["one row", "two rows"])
def test_tail_hits_refuse_an_index_past_the_cap_before_allocating(index):
    # an envelope over indices 1 .. 10^12 would take 8 TB
    m = np.array(index, dtype=np.int64)[:, None]
    modes = ModeList(DomainSpec.interval(), float(m.max()), m, m[:, 0].astype(float))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match="index 1000000000000 on axis 0 exceeds the cap"):
            tail_hits([[0.5]], modes, 0, np.full(len(index), 1e-30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_torus_tail_evaluates_few_of_its_pairs():
    # radii 3/mu^3.2 past k0 = 5 on a 2-d torus: each axis scans one envelope
    # of at most 101 indices in place of 6,174 tail rows, and of it only the
    # multiples of convergent denominators (222 of 1,852,200 pairs, 116 hits);
    # the pairs are counted at every lattice_distance call
    dom = DomainSpec.torus((1.0, 1.3))
    modes = enumerate_modes(dom, 100.5)
    start = int(np.searchsorted(modes.mu, 5, side="right"))
    radius = 3.0 / modes.mu[start:] ** 3.2
    points = np.random.default_rng(3).uniform(0.0, dom.lengths, size=(300, 2))
    with mock.patch.object(dioph, "lattice_distance", wraps=dioph.lattice_distance) as spy:
        got = tail_hits(points, modes, start, radius)
    pairs = sum(np.broadcast(*call.args).size for call in spy.call_args_list)
    full = points.shape[0] * (len(modes) - start)
    assert pairs * 1000 < full
    ref = tail_hits_reference(points, modes, start, radius)
    assert 0 < ref.sum() and np.array_equal(got, ref)


def test_a_far_point_leaves_the_other_points_scans_unchanged():
    # the interval's default tail (9,900 rows). Each point's rounding bound is
    # its own: x = 1e300 fails every gap certificate and scans every row, and
    # the 2,000 other points scan the same pairs as without it. With one bound
    # for all points, max |x|, every point scanned every row (2 s, not 0.01 s)
    modes = interval_modes(10_000)
    start = int(np.searchsorted(modes.mu, 100, side="right"))
    radius = 1.0 / modes.mu[start:] ** 3.0
    points = np.random.default_rng(7).uniform(0.0, math.pi, size=(2000, 1))
    far = np.vstack([points, [[1e300]]])

    def scans(pts):
        with mock.patch.object(dioph, "lattice_distance", wraps=dioph.lattice_distance) as spy:
            hits = tail_hits(pts, modes, start, radius)
        pairs = np.concatenate([np.broadcast_arrays(*call.args) for call in spy.call_args_list],
                               axis=1)
        return hits, pairs[:, np.lexsort(pairs)]

    hits, pairs = scans(points)
    far_hits, far_pairs = scans(far)
    assert hits.sum() == 15 and np.array_equal(far_hits[:-1], hits)
    near = far_pairs[0] != 1e300
    assert np.array_equal(far_pairs[:, near], pairs)
    # the far point scans every row, and the multiples of its convergents besides
    assert np.array_equal(np.unique(far_pairs[1, ~near]), np.unique(math.pi / modes.m[start:, 0]))
    assert pairs.shape[1] * 100 < points.shape[0] * (len(modes) - start)


@given(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 10**9))
@settings(max_examples=200, deadline=None)
def test_convergents_match_the_continued_fraction_oracle(x, q_cap):
    cf = continued_fraction(x, depth=200, q_cap=q_cap)
    # alpha = pi makes theta = x alpha / pi exactly x
    _, qs, gaps = _axis_convergents(np.array([x]), math.pi, q_cap)
    qs, gaps = qs.tolist(), gaps.tolist()
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
        owner, qs, gap_lo, gap_hi = dioph._axis_convergent_table(xs, alpha, q_max)
    assert (np.diff(owner) >= 0).all()
    want_owner, want_qs, want_gaps = _axis_convergents(xs, alpha, q_max)
    for i in range(xs.size):
        # every denominator through the first past q_max, clamped alike
        assert qs[owner == i].tolist() == want_qs[want_owner == i].tolist()
        # the bounds hold the correctly rounded exact gap between them, the
        # upper one up to q_max (past it q may be clamped)
        want = want_gaps[want_owner == i]
        assert ((0.0 <= gap_lo[owner == i]) & (gap_lo[owner == i] <= want)).all()
        inner = want_qs[want_owner == i] <= q_max
        assert (want[inner] <= gap_hi[owner == i][inner]).all()


def test_default_points_run_the_exact_euclid_only_to_fall_back():
    # run_approx_theorem's 10,000 default points: the int64 Euclid settles
    # every convergent up to k_max, so the exact big-int one runs for at most a few
    modes = interval_modes(10_000)
    start = int(np.searchsorted(modes.mu, 100, side="right"))
    radius = 1.0 / modes.mu[start:] ** 3.0
    points = np.random.default_rng(2718).uniform(0.0, math.pi, size=(10_000, 1))
    with mock.patch.object(dioph, "_axis_convergents", wraps=_axis_convergents) as exact:
        tail_hits(points, modes, start, radius)
    assert sum(call.args[0].size for call in exact.call_args_list) <= 5


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
    want = [
        tube_volume_exact(EigenMode(domain, tuple(modes.m[k])), C / math.pow(float(res.mu[k]), b))
        for k in range(k_max)
    ]
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
