"""Spectrum module: domains, mode enumeration, exact nodal descriptions, oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nodalab.errors import ResourceGuardError, ValidationError
from nodalab.spectrum import (
    BOX,
    COS,
    SIN,
    TORUS,
    DomainSpec,
    EigenMode,
    density_radius_exact,
    enumerate_modes,
    eval_mode,
    exact_nodal_description,
    nodal_measure_exact,
    tube_volume_exact,
    union_radius_measure,
    weyl_count,
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

    def test_default_kinds(self):
        assert EigenMode(TORUS2, (3, 0)).kinds == (SIN, COS)
        assert EigenMode(BOX2, (1, 1)).kinds == (SIN, SIN)

    def test_rejections(self):
        with pytest.raises(ValidationError):
            EigenMode(TORUS2, (0, 0))
        with pytest.raises(ValidationError):
            EigenMode(TORUS2, (0, 3), kinds=(SIN, SIN))  # sin with index 0 is zero
        with pytest.raises(ValidationError):
            EigenMode(BOX2, (0, 1))
        with pytest.raises(ValidationError):
            EigenMode(BOX2, (1, 1), kinds=(COS, SIN))
        with pytest.raises(ValidationError):
            EigenMode(INTERVAL, (1, 2))


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
        mode = EigenMode(TORUS2, (2, 0), kinds=(COS, COS))
        assert eval_mode(mode, np.array([0.0, 1.0])) == pytest.approx(1.0)
        assert abs(eval_mode(mode, np.array([math.pi / 4, 0.5]))) < 1e-12

    def test_vanishes_on_described_zeros(self):
        # invariant: |phi| < 1e-12 at every described zero coordinate
        for mode in (
            EigenMode(INTERVAL, (17,)),
            EigenMode(TORUS2, (3, 4)),
            EigenMode(TORUS2, (5, 2), kinds=(COS, SIN)),
            EigenMode(BOX2, (4, 7)),
        ):
            desc = exact_nodal_description(mode)
            rng = np.random.default_rng(0)
            for j, zeros in enumerate(desc.axis_zeros):
                for z in zeros:
                    p = rng.uniform(0, 1, mode.domain.n) * np.array(mode.domain.lengths)
                    p[j] = z
                    assert abs(eval_mode(mode, p)) < 1e-12

    def test_torus_periodicity(self):
        mode = EigenMode(TORUS2, (3, 4))
        p = np.array([0.37, 1.21])
        shifted = p + np.array([2 * math.pi, 4 * math.pi])
        assert eval_mode(mode, shifted) == pytest.approx(eval_mode(mode, p), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            eval_mode(EigenMode(INTERVAL, (2,)), np.zeros((4, 2)))


class TestNodalDescription:
    def test_interval_zeros(self):
        desc = exact_nodal_description(EigenMode(INTERVAL, (4,)))
        assert desc.axis_zeros[0] == pytest.approx(np.arange(5) * math.pi / 4)

    def test_torus_sine_zero_counts(self):
        desc = exact_nodal_description(EigenMode(TORUS2, (3, 4)))
        assert len(desc.axis_zeros[0]) == 6
        assert len(desc.axis_zeros[1]) == 8
        assert desc.axis_zeros[0] == pytest.approx(np.arange(6) * math.pi / 3)

    def test_torus_cosine_offset(self):
        desc = exact_nodal_description(EigenMode(TORUS2, (2, 0), kinds=(COS, COS)))
        assert desc.axis_zeros[0] == pytest.approx((np.arange(4) + 0.5) * math.pi / 2)
        assert desc.axis_zeros[1].size == 0

    def test_empty_axis_for_zero_index(self):
        desc = exact_nodal_description(EigenMode(TORUS2, (0, 3)))
        assert desc.axis_zeros[0].size == 0
        assert not desc.empty


class TestUnionRadiusMeasure:
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
        # dense-grid brute force over the torus confirms the closed form, m=n included
        for m, n in ((3, 4), (5, 5)):
            mode = EigenMode(TORUS2, (m, n))
            desc = exact_nodal_description(mode)
            xs = np.linspace(0, 2 * math.pi, 901, endpoint=False)
            raw_x = np.abs(xs[:, None] - desc.axis_zeros[0][None, :])
            raw_y = np.abs(xs[:, None] - desc.axis_zeros[1][None, :])
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

    def test_resource_cap(self):
        with pytest.raises(ResourceGuardError):
            enumerate_modes(TORUS2, 80.0, cap=100)

    def test_modes_roundtrip_to_eigenmode(self):
        modes = enumerate_modes(TORUS2, 3.0)
        for mode in modes:
            assert mode.mu <= 3.0
            assert isinstance(mode, EigenMode)

    def test_empty_list(self):
        assert len(enumerate_modes(INTERVAL, 0.5)) == 0


class TestWeylCount:
    def test_equals_enumeration_length(self):
        for mu in (3.0, 5.0, 9.7):
            assert weyl_count(TORUS2, mu) == len(enumerate_modes(TORUS2, mu))

    def test_interval_counts(self):
        assert weyl_count(INTERVAL, 10.0) == 10
        assert weyl_count(INTERVAL, 10.0, distinct=True) == 10

    def test_distinct_collapses_ties(self):
        # mu^2 = 25 comes from (3,4), (4,3), (0,5), (5,0): multiplicity 4, one value
        both = weyl_count(TORUS2, 5.0)
        distinct = weyl_count(TORUS2, 5.0, distinct=True)
        assert both == 25
        mus = {round(float(m), 9) for m in enumerate_modes(TORUS2, 5.0).mu}
        assert distinct == len(mus)

    def test_distinct_matches_integer_arithmetic(self):
        # box (1, sqrt2): mu^2 = m1^2 + 2 m2^2 is an integer, so its distinct
        # values are exact; the bound 300.5^2 sits 0.25 away from every integer
        box = DomainSpec.box((1.0, math.sqrt(2.0)))
        bound = 300.5**2
        exact = {a * a + 2 * b * b for a in range(1, 301) for b in range(1, 213)
                 if a * a + 2 * b * b <= bound}
        assert weyl_count(box, 300.5, distinct=True) == len(exact)
        # every interval eigenvalue k^2 is simple, up to the top of a 1e5 list
        assert weyl_count(INTERVAL, 1e5, distinct=True) == 100_000

    def test_growth_rate_torus(self):
        # lattice-point count grows like the ellipse area: c * mu^2
        c8 = weyl_count(TORUS2, 8.0) / 64.0
        c32 = weyl_count(TORUS2, 32.0) / 1024.0
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
        assert doc["modes"][2]["kinds"] == ["sin", "sin"]
        # 17 significant digits are printed for mu
        assert "1.4142135623730951" in txt

    def test_deterministic(self):
        a = enumerate_modes(BOX2, 6.0).to_json()
        b = enumerate_modes(BOX2, 6.0).to_json()
        assert a == b
