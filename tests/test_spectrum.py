"""Spectrum module: domains, mode enumeration, exact nodal oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nodalab.spectrum as spectrum_mod
from nodalab.errors import ResourceGuardError, ValidationError
from nodalab.spectrum import (
    BOX,
    TORUS,
    DomainSpec,
    EigenMode,
    density_radius_exact,
    distinct_count,
    enumerate_modes,
    eval_mode,
    nodal_distance_exact,
    nodal_measure_exact,
    record_candidates,
    tube_volume_exact,
)

INTERVAL = DomainSpec.interval()
TORUS2 = DomainSpec.torus((1.0, 1.0))
BOX2 = DomainSpec.box((1.0, math.sqrt(2.0)))


def brute_modes(domain, mu_max):
    """Independent enumeration oracle: dumb nested loops over an index box."""
    lo = 0 if domain.periodic else 1
    tops = [int(mu_max / a) + 2 for a in domain.alpha]
    out = []
    if domain.n == 1:
        candidates = [(i,) for i in range(lo, tops[0] + 1)]
    else:
        candidates = [
            (i, j) for i in range(lo, tops[0] + 1) for j in range(lo, tops[1] + 1)
        ]
    for m in candidates:
        if domain.periodic and all(v == 0 for v in m):
            continue
        mu = math.sqrt(sum((a * v) ** 2 for a, v in zip(domain.alpha, m)))
        if mu <= mu_max:
            out.append((mu, m))
    out.sort()
    return out


def axis_zeros_reference(mode):
    """Per-axis zero lists of the factors, as the zero-list oracle built them.

    Dirichlet sine factor with index m: zeros at pi*l/(m*alpha), l = 0..m.
    Torus factor with index m: 2m zeros per period, spacing pi/(m*alpha);
    none for index 0.
    """
    zeros = []
    for j in range(mode.domain.n):
        mj = mode.m[j]
        if mj == 0:
            zeros.append(np.empty(0))
            continue
        s = mode.factor_zero_spacing(j)
        if mode.domain.periodic:
            zeros.append(np.arange(2 * mj) * s)
        else:
            zeros.append(np.arange(mj + 1) * s)
    return zeros


def union_radius_measure(zeros, radius, length, circular):
    """Exact 1-d measure of the union of open radius-neighborhoods of ``zeros``.

    On a segment [0, length] the neighborhoods clip at the ends; on a circle of
    circumference ``length`` they wrap. Overlaps are merged by sort and sweep.
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
    prev_end = np.concatenate([[0.0], np.maximum.accumulate(ends)[:-1]])
    return float(np.maximum(ends - np.maximum(starts, prev_end), 0.0).sum())


def tube_volume_inclusion_exclusion(mode, delta):
    """The zero-list tube oracle: prod L_j - prod (L_j - len_j), len_j the merged 1-d cover."""
    if delta <= 0:
        return 0.0
    L = mode.domain.lengths
    covered = 1.0
    for j, zeros in enumerate(axis_zeros_reference(mode)):
        lj = union_radius_measure(zeros, delta, L[j], mode.domain.periodic)
        covered *= (L[j] - lj) / L[j]
    return mode.domain.volume * (1.0 - covered)


def tube_volume_rational(mode, delta):
    """V (1 - prod_j (1 - f_j)), f_j = min(2 delta m_j alpha_j / pi, 1), in exact rationals.

    Every float input (delta, alpha_j and pi = math.pi) enters at its exact value.
    """
    pi = Fraction(math.pi)
    span = 2 * pi if mode.domain.periodic else pi
    d = Fraction(delta)
    vol, uncovered = Fraction(1), Fraction(1)
    for mj, a in zip(mode.m, mode.domain.alpha):
        a = Fraction(a)
        vol *= span / a
        uncovered *= 1 - min(2 * d * mj * a / pi, Fraction(1))
    return vol * (1 - uncovered)


def spacings(mode):
    """Zero spacings of the axes that have zeros."""
    return [mode.factor_zero_spacing(j) for j in range(mode.domain.n) if mode.m[j] > 0]


@st.composite
def oracle_modes(draw):
    """Modes on the interval, Dirichlet boxes and tori of dimension 1 to 3.

    Torus modes draw zero indices (whose factor is 1).
    """
    kind = draw(st.sampled_from(("interval", BOX, TORUS)))
    if kind == "interval":
        domain = INTERVAL
    else:
        n = draw(st.integers(1, 3))
        weight = st.one_of(st.just(1.0), st.floats(0.5, 3.0))
        domain = DomainSpec(kind, tuple(draw(st.lists(weight, min_size=n, max_size=n))))
    lo = 0 if domain.periodic else 1
    m = draw(
        st.lists(st.integers(lo, 20), min_size=domain.n, max_size=domain.n).filter(any)
    )
    return EigenMode(domain, tuple(m))


def sweep_union_measure(zeros, radius, length, circular):
    """Independent 1-d union-measure oracle: endpoint event sweep."""
    intervals = []
    for z in zeros:
        a, b = z - radius, z + radius
        if circular:
            a, b = a % length, (a % length) + 2 * radius
            if b <= length:
                intervals.append((a, b))
            else:
                intervals.append((a, length))
                intervals.append((0.0, b - length))
        else:
            intervals.append((max(a, 0.0), min(b, length)))
    intervals = [(a, min(b, length)) for a, b in intervals if b > a]
    intervals.sort()
    total, cursor = 0.0, 0.0
    for a, b in intervals:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
        cursor = max(cursor, b)
    return min(total, length)


class TestDomainSpec:
    def test_interval_geometry(self):
        assert INTERVAL.n == 1
        assert INTERVAL.lengths == (math.pi,)
        assert not INTERVAL.periodic

    def test_torus_geometry(self):
        assert TORUS2.lengths == (2 * math.pi, 2 * math.pi)
        assert TORUS2.volume == pytest.approx(4 * math.pi**2)
        assert TORUS2.periodic

    def test_box_sides(self):
        assert BOX2.lengths[0] == pytest.approx(math.pi)
        assert BOX2.lengths[1] == pytest.approx(math.pi / math.sqrt(2))

    def test_validation(self):
        with pytest.raises(ValidationError):
            DomainSpec(BOX, ())
        with pytest.raises(ValidationError):
            DomainSpec(BOX, (1.0, -2.0))
        with pytest.raises(ValidationError):
            DomainSpec("interval", (2.0,))
        with pytest.raises(ValidationError):
            DomainSpec("pretzel", (1.0,))


class TestEigenMode:
    def test_interval_mu_exact(self):
        for k in (1, 2, 7, 100, 4096):
            assert EigenMode(INTERVAL, (k,)).mu == float(k)

    def test_torus_mu(self):
        assert EigenMode(TORUS2, (3, 4)).mu == 5.0

    def test_rejections(self):
        with pytest.raises(ValidationError):
            EigenMode(TORUS2, (0, 0))
        with pytest.raises(ValidationError):
            EigenMode(BOX2, (0, 1))
        with pytest.raises(ValidationError):
            EigenMode(INTERVAL, (1, 2))
        # mu^2 overflows: (alpha m)^2 raises, 2 (1e154)^2 rounds to inf, 10^400 has no float
        for alpha, m in (
            ((1e300, 1.0), (1, 1)), ((1e154, 1e154), (1, 1)), ((1.0, 1.0), (10**400, 1))
        ):
            with pytest.raises(ValidationError, match="overflows"):
                EigenMode(DomainSpec.torus(alpha), m)


class TestEvalMode:
    def test_interval_values(self):
        mode = EigenMode(INTERVAL, (3,))
        x = np.array([[0.1], [0.7], [2.0]])
        assert eval_mode(mode, x) == pytest.approx(np.sin(3 * x[:, 0]))

    def test_product_structure(self):
        mode = EigenMode(TORUS2, (3, 4))
        p = np.array([0.37, 1.21])
        assert eval_mode(mode, p) == pytest.approx(math.sin(3 * 0.37) * math.sin(4 * 1.21))

    def test_cosine_factor(self):
        # a mode is a sine product, and a cosine factor is its translate by a
        # quarter wavelength; a zero index gives the constant factor 1
        mode = EigenMode(TORUS2, (2, 0))
        quarter = np.array([math.pi / 4, 0.0])
        x = np.random.default_rng(3).uniform(0.0, 2 * math.pi, size=(50, 2))
        np.testing.assert_allclose(eval_mode(mode, x + quarter), np.cos(2 * x[:, 0]), atol=1e-12)
        assert eval_mode(mode, np.array([math.pi / 4, 1.0])) == pytest.approx(1.0)
        assert eval_mode(mode, np.array([0.0, 0.5])) == 0.0

    def test_vanishes_on_described_zeros(self):
        # invariant: |phi| < 1e-12 at every zero of every factor, built from
        # its formula: l pi/(m alpha), 2m of them per torus period and m + 1
        # on a Dirichlet side
        for mode in (
            EigenMode(INTERVAL, (17,)),
            EigenMode(TORUS2, (3, 4)),
            EigenMode(DomainSpec.torus((1.0, math.sqrt(2.0))), (5, 2)),
            EigenMode(BOX2, (4, 7)),
        ):
            rng = np.random.default_rng(0)
            for j, mj in enumerate(mode.m):
                step = math.pi / (mj * mode.domain.alpha[j])
                count = 2 * mj if mode.domain.periodic else mj + 1
                for l in range(count):
                    p = rng.uniform(0, 1, mode.domain.n) * np.array(mode.domain.lengths)
                    p[j] = l * step
                    assert abs(eval_mode(mode, p)) < 1e-12
                    assert nodal_distance_exact(mode, p) < 1e-12

    def test_torus_periodicity(self):
        mode = EigenMode(TORUS2, (3, 4))
        p = np.array([0.37, 1.21])
        shifted = p + np.array([2 * math.pi, 4 * math.pi])
        assert eval_mode(mode, shifted) == pytest.approx(eval_mode(mode, p), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            eval_mode(EigenMode(INTERVAL, (2,)), np.zeros((4, 2)))


class TestNodalDescription:
    """The zero lattice of each axis: spacing, offset and count, read from the oracles."""

    def test_interval_zeros(self):
        mode = EigenMode(INTERVAL, (4,))
        assert mode.factor_zero_spacing(0) == math.pi / 4
        zeros = np.arange(5) * math.pi / 4
        assert nodal_distance_exact(mode, zeros[:, None]) == pytest.approx(np.zeros(5), abs=1e-15)
        assert nodal_measure_exact(mode) == 5.0

    def test_torus_sine_zero_counts(self):
        mode = EigenMode(TORUS2, (3, 4))
        # 6 vertical and 8 horizontal lines of length 2 pi
        assert nodal_measure_exact(mode) == 6 * 2 * math.pi + 8 * 2 * math.pi
        pts = np.stack([np.arange(6) * math.pi / 3, np.full(6, 0.123)], axis=1)
        assert nodal_distance_exact(mode, pts) == pytest.approx(np.zeros(6), abs=1e-15)

    def test_torus_cosine_offset(self):
        # the zeros of cos(2x) are those of the mode sin(2x), shifted half a
        # spacing: the mode's distances at the shifted points
        mode = EigenMode(TORUS2, (2, 0))
        pts = np.stack([(np.arange(4) + 0.5) * math.pi / 2, np.full(4, 0.4)], axis=1)
        shift = np.array([math.pi / 4, 0.0])
        assert nodal_distance_exact(mode, pts - shift) == pytest.approx(np.zeros(4), abs=1e-15)
        # the shifted lattice sits half a spacing from every zero of the mode
        assert nodal_distance_exact(mode, pts) == pytest.approx(np.full(4, math.pi / 4))
        assert mode.factor_zero_spacing(1) == math.inf

    def test_empty_axis_for_zero_index(self):
        mode = EigenMode(TORUS2, (0, 3))
        assert mode.factor_zero_spacing(0) == math.inf
        # only the 6 horizontal lines count
        assert nodal_measure_exact(mode) == 6 * 2 * math.pi
        assert density_radius_exact(mode) == math.pi / 6


class TestUnionRadiusMeasure:
    """The sort-and-sweep cover of the zero-list reference, against an event sweep."""

    @given(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=12),
        st.floats(1e-3, 3.0),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sweep_oracle(self, zeros, radius, circular):
        length = 10.0
        got = union_radius_measure(np.array(zeros), radius, length, circular)
        want = sweep_union_measure(zeros, radius, length, circular)
        assert got == pytest.approx(want, abs=1e-9)
        assert 0.0 <= got <= length + 1e-9

    def test_full_cover(self):
        assert union_radius_measure(np.array([1.0, 3.0]), 5.0, 6.0, True) == pytest.approx(6.0)

    def test_circular_wrap_overlap(self):
        # zeros at 0.1 and 9.9 with radius 0.3: arcs (9.8, 0.4) and (9.6, 0.2)
        # merge through the cut into one arc (9.6, 0.4) of length 0.8
        got = union_radius_measure(np.array([0.1, 9.9]), 0.3, 10.0, True)
        assert got == pytest.approx(0.8)
        assert got == pytest.approx(sweep_union_measure([0.1, 9.9], 0.3, 10.0, True))


class TestExactOracles:
    def test_interval_tube_is_2k_delta(self):
        # interior zeros contribute 2 delta, the two boundary zeros delta each
        for k in (1, 3, 10, 100):
            delta = 0.1 / k
            got = tube_volume_exact(EigenMode(INTERVAL, (k,)), delta)
            assert got == pytest.approx(2 * k * delta, rel=1e-12)

    def test_interval_tube_saturates(self):
        mode = EigenMode(INTERVAL, (4,))
        assert tube_volume_exact(mode, 10.0) == pytest.approx(math.pi)

    def test_torus_tube_inclusion_exclusion(self):
        # vol = 8 pi delta (m+n) - 16 m n delta^2 for sine/sine (m,n), alpha=(1,1)
        m, n = 3, 4
        mode = EigenMode(TORUS2, (m, n))
        for delta in (0.02, 0.05, 0.1):
            want = 8 * math.pi * delta * (m + n) - 16 * m * n * delta**2
            assert tube_volume_exact(mode, delta) == pytest.approx(want, rel=1e-12)

    def test_tube_monotone_and_bounded(self):
        mode = EigenMode(TORUS2, (3, 4))
        vols = [tube_volume_exact(mode, d) for d in (0.01, 0.05, 0.2, 1.0, 3.0)]
        assert all(b >= a for a, b in zip(vols, vols[1:]))
        assert vols[-1] == pytest.approx(TORUS2.volume)

    def test_nodal_measure_torus(self):
        # 2m vertical lines of length 2pi plus 2n horizontal: 4 pi (m+n)
        assert nodal_measure_exact(EigenMode(TORUS2, (3, 4))) == pytest.approx(28 * math.pi)

    def test_nodal_measure_interval_counts_zeros(self):
        assert nodal_measure_exact(EigenMode(INTERVAL, (7,))) == 8.0

    def test_density_radius_interval(self):
        for k in (1, 2, 9):
            got = density_radius_exact(EigenMode(INTERVAL, (k,)))
            assert got == pytest.approx(math.pi / (2 * k), rel=1e-12)

    def test_density_radius_torus_is_cell_inradius(self):
        # distance to a union of axis lines = min over families, so the
        # farthest point sits at the smaller half-gap, not the half-diagonal
        got = density_radius_exact(EigenMode(TORUS2, (3, 4)))
        assert got == pytest.approx(math.pi / 8, rel=1e-12)

    def test_density_radius_brute_force(self):
        # dense-grid brute force over the torus confirms the closed form, m=n included;
        # sin(m x) vanishes at l pi/m, l = 0..2m-1
        for m, n in ((3, 4), (5, 5)):
            mode = EigenMode(TORUS2, (m, n))
            xs = np.linspace(0, 2 * math.pi, 901, endpoint=False)
            raw_x = np.abs(xs[:, None] - (np.arange(2 * m) * math.pi / m)[None, :])
            raw_y = np.abs(xs[:, None] - (np.arange(2 * n) * math.pi / n)[None, :])
            dx = np.minimum(raw_x, 2 * math.pi - raw_x).min(axis=1)
            dy = np.minimum(raw_y, 2 * math.pi - raw_y).min(axis=1)
            brute = np.minimum(dx[:, None], dy[None, :]).max()
            assert density_radius_exact(mode) == pytest.approx(brute, abs=0.01)

    def test_density_radius_m_eq_n_times_mu(self):
        # recorded here because the measured value is pi/sqrt(2), the cell inradius
        # times mu, for every m=n sine/sine mode
        for m in (2, 5, 8):
            mode = EigenMode(TORUS2, (m, m))
            assert density_radius_exact(mode) * mode.mu == pytest.approx(
                math.pi / math.sqrt(2), rel=1e-12
            )


class TestTubeClosedForm:
    """tube_volume_exact against exact rationals and the zero-list inclusion-exclusion."""

    @given(oracle_modes(), st.floats(-12.0, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_rationals(self, mode, u):
        # from 1e-12 of the finest spacing to well past every axis' saturation
        delta = 10.0**u * min(spacings(mode))
        want = tube_volume_rational(mode, delta)
        got = tube_volume_exact(mode, delta)
        assert abs(Fraction(got) - want) <= Fraction(1e-14) * want

    @given(oracle_modes(), st.floats(-6.0, 1.5))
    @settings(max_examples=300, deadline=None)
    def test_matches_inclusion_exclusion(self, mode, u):
        delta = 10.0**u
        want = tube_volume_inclusion_exclusion(mode, delta)
        assert tube_volume_exact(mode, delta) == pytest.approx(want, rel=1e-9)

    def test_small_radii_keep_their_digits(self):
        # 1 - prod(1 - f) in logs: the 2-torus tube at tiny delta is 8 pi delta (m + n)
        mode = EigenMode(TORUS2, (3, 4))
        for delta in (1e-12, 1e-9, 1e-6):
            want = 8 * math.pi * delta * 7 - 16 * 12 * delta**2
            assert tube_volume_exact(mode, delta) == pytest.approx(want, rel=1e-15)

    def test_infinite_radius_with_a_zero_index_axis(self):
        # the zero-index axis contributes no cover, never 0 * inf
        for mode in (
            EigenMode(TORUS2, (0, 3)),
            EigenMode(DomainSpec.torus((1.0, 1.3, 2.0)), (0, 2, 0)),
        ):
            assert tube_volume_exact(mode, math.inf) == mode.domain.volume


class TestEnumerate:
    def test_interval_is_integers(self):
        modes = enumerate_modes(INTERVAL, 100.0)
        assert len(modes) == 100
        assert list(modes.mu) == [float(k) for k in range(1, 101)]

    def test_matches_brute_oracle_torus(self):
        modes = enumerate_modes(TORUS2, 5.0)
        want = brute_modes(TORUS2, 5.0)
        assert len(modes) == len(want) == 25
        for i, (mu, m) in enumerate(want):
            assert modes.mu[i] == pytest.approx(mu)
        got_sorted = sorted((float(mu), tuple(int(v) for v in mm))
                            for mu, mm in zip(modes.mu, modes.m))
        assert got_sorted == want

    def test_matches_brute_oracle_box(self):
        modes = enumerate_modes(BOX2, 7.3)
        want = brute_modes(BOX2, 7.3)
        assert sorted((float(mu), tuple(int(v) for v in mm))
                      for mu, mm in zip(modes.mu, modes.m)) == want

    def test_sorted_by_mu_then_lex(self):
        modes = enumerate_modes(TORUS2, 6.0)
        mus = modes.mu
        assert (np.diff(mus) >= 0).all()
        for i in range(len(modes) - 1):
            if mus[i] == mus[i + 1]:
                assert tuple(modes.m[i]) < tuple(modes.m[i + 1])

    @given(st.floats(0.5, 12.0), st.floats(0.5, 12.0))
    @settings(max_examples=30, deadline=None)
    def test_prefix_extension(self, a, b):
        lo, hi = sorted((a, b))
        small = enumerate_modes(TORUS2, lo)
        big = enumerate_modes(TORUS2, hi)
        assert len(small) <= len(big)
        assert np.array_equal(small.m, big.m[: len(small)])

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(spectrum_mod, "MODE_COUNT_CAP", 100)
        with pytest.raises(ResourceGuardError):
            enumerate_modes(TORUS2, 80.0)

    def test_modes_roundtrip_to_eigenmode(self):
        modes = enumerate_modes(TORUS2, 3.0)
        for m in modes.m:
            mode = EigenMode(modes.domain, tuple(m))
            assert mode.mu <= 3.0
            assert isinstance(mode, EigenMode)

    def test_empty_list(self):
        assert len(enumerate_modes(INTERVAL, 0.5)) == 0


class TestRecordCandidates:
    # equality with the first rows of enumerate_modes: tests/test_dioph.py

    def test_validation_matches_enumerate_modes(self):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValidationError, match="mu_max must be finite"):
                record_candidates(BOX2, bad)
        assert len(record_candidates(BOX2, 0.0)) == 0

    def test_cap_counts_candidates_before_allocating(self, monkeypatch):
        # about 1.7e15 candidates: the guard fires on the count, not on memory
        with pytest.raises(ResourceGuardError, match="record candidates"):
            record_candidates(BOX2, 1e15)
        # box (1, sqrt2) at mu 30: with enumerate_modes' +1 margins, k <= 31 on
        # the first axis and 2 <= k <= 22 on the second, 52 rows; 49 have mu <= 30
        monkeypatch.setattr(spectrum_mod, "MODE_COUNT_CAP", 52)
        assert len(record_candidates(BOX2, 30.0)) == 49
        monkeypatch.setattr(spectrum_mod, "MODE_COUNT_CAP", 51)
        with pytest.raises(ResourceGuardError):
            record_candidates(BOX2, 30.0)


class TestWeylCount:
    def test_equals_enumeration_length(self):
        # one torus mode per nonzero index vector m >= 0 with |m| <= mu
        for mu in (3.0, 5.0, 9.7):
            lattice = sum(1 for a in range(10) for b in range(10)
                          if 0 < a * a + b * b <= mu * mu)
            assert len(enumerate_modes(TORUS2, mu)) == lattice

    def test_interval_counts(self):
        modes = enumerate_modes(INTERVAL, 10.0)
        assert len(modes) == 10
        assert distinct_count(modes.mu) == 10

    def test_distinct_collapses_ties(self):
        # mu^2 = 25 comes from (3,4), (4,3), (0,5), (5,0): multiplicity 4, one value
        modes = enumerate_modes(TORUS2, 5.0)
        assert len(modes) == 25
        mus = {round(float(m), 9) for m in modes.mu}
        assert distinct_count(modes.mu) == len(mus)

    def test_distinct_matches_integer_arithmetic(self):
        # box (1, sqrt2): mu^2 = m1^2 + 2 m2^2 is an integer, so its distinct
        # values are exact; the bound 300.5^2 sits 0.25 away from every integer
        box = DomainSpec.box((1.0, math.sqrt(2.0)))
        bound = 300.5**2
        exact = {a * a + 2 * b * b for a in range(1, 301) for b in range(1, 213)
                 if a * a + 2 * b * b <= bound}
        assert distinct_count(enumerate_modes(box, 300.5).mu) == len(exact)
        # every interval eigenvalue k^2 is simple, up to the top of a 1e5 list
        assert distinct_count(enumerate_modes(INTERVAL, 1e5).mu) == 100_000

    def test_distinct_count_is_weyl_counts_rule(self):
        # mu^2 is an integer on these lists, so their distinct eigenvalues are exact
        for dom, mu in ((TORUS2, 9.7), (BOX2, 40.0), (INTERVAL, 30.0)):
            modes = enumerate_modes(dom, mu)
            assert distinct_count(modes.mu) == len({round(float(v) ** 2) for v in modes.mu})
        assert distinct_count(np.empty(0)) == 0
        assert distinct_count(np.array([1.0, 1.0 + 1e-15, 2.0])) == 2

    def test_growth_rate_torus(self):
        # lattice-point count grows like the ellipse area: c * mu^2
        c8 = len(enumerate_modes(TORUS2, 8.0)) / 64.0
        c32 = len(enumerate_modes(TORUS2, 32.0)) / 1024.0
        assert c32 == pytest.approx(math.pi / 4, rel=0.1)
        assert c8 == pytest.approx(c32, rel=0.25)


class TestModeListJson:
    def test_shape_and_digits(self):
        import json as _json

        txt = enumerate_modes(TORUS2, 2.0).to_json()
        doc = _json.loads(txt)
        assert doc["domain"]["kind"] == TORUS
        assert doc["mu_max"] == 2.0
        assert [tuple(mm["m"]) for mm in doc["modes"]] == [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]
        assert doc["modes"][2]["mu"] == pytest.approx(math.sqrt(2))
        assert all(sorted(mm) == ["m", "mu"] for mm in doc["modes"])
        # 17 significant digits are printed for mu
        assert "1.4142135623730951" in txt

    def test_deterministic(self):
        a = enumerate_modes(BOX2, 6.0).to_json()
        b = enumerate_modes(BOX2, 6.0).to_json()
        assert a == b
