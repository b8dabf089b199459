"""Approximation-by-nodal-sets: exact distances, hits, exponents, sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalab.dioph import borel_cantelli_sum, estimate_exponent, modes_nodal_distance
from nodalab.distance import distance_field
from nodalab.errors import ValidationError
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.nodal import extract_nodal
from nodalab.spectrum import (
    COS,
    SIN,
    DomainSpec,
    EigenMode,
    ModeList,
    enumerate_modes,
    nodal_distance_exact,
)

from cfrac import continued_fraction

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def interval_modes(k_max: int, alpha: float = 1.0) -> ModeList:
    dom = DomainSpec.interval() if alpha == 1.0 else DomainSpec.box((alpha,))
    return enumerate_modes(dom, float(alpha * k_max) + 0.5)


def nearest(point, mode: EigenMode) -> float:
    """One mode's nodal distance, through the mode-list scan."""
    codes = np.array([[k == SIN for k in mode.kinds]], dtype=np.uint8)
    one = ModeList(mode.domain, mode.mu, np.array([mode.m]), np.array([mode.mu]), codes)
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
    sample = sample_grid(mode, ResolutionRule(points_per_wavelength=64))
    field = distance_field(extract_nodal(sample))
    h = sample.h
    rng = np.random.default_rng(2024)
    pts = rng.uniform(0.0, sample.domain.lengths, size=(1000, sample.domain.n))
    idx = np.rint(pts / h).astype(np.int64)
    for j, n_j in enumerate(sample.shape):
        if sample.domain.periodic:
            idx[:, j] %= n_j
        else:
            idx[:, j] = np.clip(idx[:, j], 0, n_j - 1)
    looked_up = field.dist[tuple(idx.T)]
    exact = nodal_distance_exact(mode, pts)
    assert np.max(np.abs(exact - looked_up)) <= 2.0 * float(np.max(h))


def test_modes_distance_matches_per_mode_scalar():
    dom = DomainSpec.torus((1.0, 1.0))
    m = np.array([[3, 4], [1, 0], [2, 2], [5, 1]], dtype=np.int64)
    mu = np.sqrt((m.astype(float) ** 2).sum(axis=1))
    codes = np.array([[1, 1], [1, 0], [0, 0], [1, 0]], dtype=np.uint8)
    modes = ModeList(dom, float(mu.max()), m, mu, codes)
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
        np.array([[0, 0]], dtype=np.uint8),
    )
    with pytest.raises(ValidationError):
        modes_nodal_distance([0.1, 0.2], empty_nodal)


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
        offs = np.where(modes.kind_codes[active, j] == 0, 0.5 * spacing, 0.0)
        r = np.mod(point[j] - offs, spacing)
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
        modes = ModeList(
            modes.domain, modes.mu_max, modes.m[keep], modes.mu[keep], modes.kind_codes[keep]
        )
        ref = ref[keep]
    got = modes_nodal_distance(point, modes)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


COORD = st.floats(-20.0, 20.0, allow_nan=False)
ALPHA = st.floats(0.3, 3.0, allow_nan=False)


@given(st.data(), st.integers(1, 3), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_scan_bitwise_torus_mixed_codes(data, n, rows):
    alpha = tuple(data.draw(ALPHA) for _ in range(n))
    dom = DomainSpec.torus(alpha)
    m = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 25), min_size=n, max_size=n),
                           min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(rows, n)
    codes = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                           min_size=rows, max_size=rows)),
        dtype=np.uint8,
    ).reshape(rows, n)
    mu = np.sqrt(((m * np.asarray(alpha)) ** 2).sum(axis=1))
    modes = ModeList(dom, float(mu.max(initial=0.0)), m, mu, codes)
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


def test_scan_of_empty_list():
    d = modes_nodal_distance([1.0], enumerate_modes(DomainSpec.interval(), 0.5))
    assert d.shape == (0,)


def test_mode_list_rejects_negative_index():
    # the scan gathers per-axis tables by index, so a negative one must not arrive
    with pytest.raises(ValidationError):
        ModeList(
            DomainSpec.torus((1.0, 1.0)),
            5.0,
            np.array([[3, -4]], dtype=np.int64),
            np.array([5.0]),
            np.array([[1, 1]], dtype=np.uint8),
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


def test_exponent_scale_consistency():
    # halving the domain scales every distance by 1/2 and every mu by 2;
    # the record set and the fitted slope are unchanged
    x = 1.2345
    est1 = estimate_exponent([x], interval_modes(1000), mu_min=3.0, mu_max=1000.0)
    est2 = estimate_exponent([x / 2], interval_modes(1000, alpha=2.0), mu_min=6.0, mu_max=2000.0)
    assert est1.n_records == est2.n_records
    assert est2.exponent == pytest.approx(est1.exponent, abs=1e-6)


# ----------------------------------------------------- convergence of sums


def test_borel_cantelli_interval_limit():
    # radii C/mu^3 give exact volumes 2k * k^-3, so S_K converges to pi^2/3
    res = borel_cantelli_sum(DomainSpec.interval(), C=1.0, eps=1.0, k_max=10_000)
    assert abs(float(res.partial[-1]) - math.pi**2 / 3) <= 3e-4
    assert np.all(np.diff(res.partial) > 0)
    # merged-interval endpoints live at magnitude pi, so each exact volume
    # carries absolute float noise near ulp(pi); the sum stays far below the
    # 3e-4 gate above
    np.testing.assert_allclose(res.volumes, 2.0 * res.mu**-2.0, rtol=1e-9, atol=4e-12)
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
