"""Tube volumes, nodal measure, density radius against closed-form oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalab.measures as measures_mod
from nodalab.distance import distance_field
from nodalab.errors import EmptyNodalSetError, ResolutionError, ValidationError
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.measures import (
    density_radius,
    nodal_measure,
    tube_reach,
    tube_volume,
    tube_volumes,
)
from nodalab.nodal import NodalApprox, _corner_reduce, extract_nodal, marching_squares
from nodalab.spectrum import (
    DomainSpec,
    EigenMode,
    density_radius_exact,
    nodal_distance_exact,
    nodal_measure_exact,
    tube_volume_exact,
)


def field_for(mode, h_max=None, ppw=32.0):
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=ppw, h_max=h_max))
    return distance_field(extract_nodal(s))


def counted_volume(f, delta):
    """Plain grid-point count: points with dist < delta times the cell volume."""
    return int((f.dist < delta).sum()) * math.prod(f.h)


def test_interval_tube_volume():
    k, delta = 50, 0.002
    mode = EigenMode(DomainSpec.interval(), (k,))
    f = field_for(mode, h_max=delta / 2)
    exact = tube_volume_exact(mode, delta)
    assert exact == pytest.approx(2 * k * delta, rel=1e-12)
    plain = counted_volume(f, delta)
    h = max(f.h)
    # counting bias: at most one grid point per tube-component boundary
    assert abs(plain - exact) <= 2 * (k + 1) * h
    refined = tube_volume(f, delta)
    assert abs(refined - exact) / exact < 2e-3


def test_torus_tube_volume_refined():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    delta = 0.05
    f = field_for(mode, h_max=delta / 2)
    exact = tube_volume_exact(mode, delta)
    expect = 8 * math.pi * delta * 7 - 16 * 12 * delta**2
    assert exact == pytest.approx(expect, rel=1e-12)
    refined = tube_volume(f, delta)
    assert abs(refined - exact) / exact < 2e-3
    plain = counted_volume(f, delta)
    assert abs(plain - exact) / exact < 0.25


def test_tube_guards():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    f = field_for(mode, h_max=0.05)
    with pytest.raises(ResolutionError):
        tube_volume(f, 0.05)  # below 2*max(h)
    with pytest.raises(ValidationError):
        tube_volume(f, 0.0)
    # NaN fails every comparison: a check written as delta <= 0 lets it through
    with pytest.raises(ValidationError, match="positive"):
        tube_volume(f, math.nan)


def test_tube_volume_refuses_a_field_capped_short_of_its_band():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    delta = 0.1
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=32.0, h_max=delta / 5))
    nod = extract_nodal(s)
    full = distance_field(nod)
    capped = distance_field(nod, reach=tube_reach(s.h, [delta, delta / 2]))
    assert np.isinf(capped.dist).any()
    for radius in (delta, delta / 2):
        assert tube_volume(capped, radius) == tube_volume(full, radius)
    # the band test reads the field up to delta + margin
    band = delta + float(np.linalg.norm(s.h)) + full.raster_error
    short = distance_field(nod, reach=math.nextafter(band, 0.0))
    with pytest.raises(ValidationError, match="capped at"):
        tube_volume(short, delta)
    assert tube_volume(short, delta / 2) == tube_volume(full, delta / 2)


def test_density_radius_refuses_a_capped_field():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=32.0))
    nod = extract_nodal(s)
    # a short reach would return inf, a long one the true maximum: both are refused
    for reach in (3 * max(s.h), 100.0):
        with pytest.raises(ValidationError, match="full-range"):
            density_radius(distance_field(nod, reach=reach))


def test_nodal_measure_torus():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    ts = (0.06, 0.03)
    f = field_for(mode, h_max=min(ts) / 2)
    exact = nodal_measure_exact(mode)
    assert exact == pytest.approx(28 * math.pi, rel=1e-12)
    nm = nodal_measure(f, ts)
    length = marching_squares(f.sample)
    assert abs(nm.value - exact) / exact < 3e-3
    assert abs(length - exact) / exact < 1e-2
    assert not nm.non_monotone
    assert abs(length - nm.value) / max(length, nm.value) < 0.01
    assert sorted(nm.volumes) == sorted(ts)
    assert nm.volumes[ts[0]] == tube_volume(f, ts[0])


def test_nodal_measure_refuses_a_1d_field():
    # the interval's vertex count is run_yau_check's: it builds no field for it
    mode = EigenMode(DomainSpec.interval(), (10,))
    f = field_for(mode)
    with pytest.raises(ValidationError, match="1-d nodal set"):
        nodal_measure(f, (0.1, 0.05))


def test_nodal_measure_needs_two_radii():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    f = field_for(mode, h_max=0.02)
    with pytest.raises(ValidationError):
        nodal_measure(f, (0.05,))


def test_density_radius():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    f = field_for(mode, h_max=0.01)
    exact = density_radius_exact(mode)
    assert exact == pytest.approx(math.pi / 8, rel=1e-12)
    assert abs(density_radius(f) - exact) <= 2 * max(f.h)

    kmode = EigenMode(DomainSpec.interval(), (10,))
    fk = field_for(kmode)
    assert abs(density_radius(fk) - math.pi / 20) <= 2 * max(fk.h)


def test_empty_field_measures():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0))
    nod = NodalApprox(s, np.empty((0, 2)))
    f = distance_field(nod)
    assert tube_volume(f, 10 * max(f.h)) == 0.0
    with pytest.raises(EmptyNodalSetError):
        density_radius(f)
    nm = nodal_measure(f, (10 * max(f.h), 5 * max(f.h)))
    assert nm.value == 0.0
    assert set(nm.volumes.values()) == {0.0} and not nm.non_monotone


def whole_grid_band(dist, periodic, delta, margin):
    """The band test on whole-grid corner reductions: fully-in cells, straddle cell indices."""
    cmin = _corner_reduce(dist, periodic, np.minimum)
    cmax = _corner_reduce(dist, periodic, np.maximum)
    fully_in = cmin + margin < delta
    straddle = ~(fully_in | (cmax - margin >= delta))
    return fully_in, np.argwhere(straddle)


SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)


@st.composite
def refine_modes(draw, zero_axis_top=5):
    """Torus modes and zero-index axes, irrational alpha, box, interval, 3-d.

    Zero-index modes are (0, b) with b up to ``zero_axis_top``.
    """
    family = draw(st.sampled_from(("torus", "zero_axis", "irrational", "box", "interval", "3d")))
    if family == "interval":
        return EigenMode(DomainSpec.interval(), (draw(st.integers(1, 30)),))
    if family == "box":
        dom = DomainSpec.box((1.0, SQRT3))
        return EigenMode(dom, (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    if family == "zero_axis":
        return EigenMode(DomainSpec.torus((1.0, 1.0)), (0, draw(st.integers(1, zero_axis_top))))
    n = 3 if family == "3d" else 2
    alpha = (1.0, SQRT2, 1.0)[:n] if family in ("irrational", "3d") else (1.0, 1.0)
    top = 2 if n == 3 else 5
    m = tuple(draw(st.integers(1, top)) for _ in range(n))
    return EigenMode(DomainSpec.torus(alpha), m)


def gap_windows(mode, h):
    """(axis, lower end, s/2) per axis with zeros: the radii s/2 - h_j (1 + 2**-20) < delta <= s/2.

    There the gap s - 2 delta between neighbouring tubes is under two cells,
    so a Lambda cell can have both ends near and its middle far. The lower
    end sits 2**-20 h_j below s/2 - h_j, past any rounding of it.
    """
    out = []
    for j, hj in enumerate(h):
        if mode.m[j]:
            s = mode.factor_zero_spacing(j)
            out.append((j, 0.5 * s - hj * (1.0 + 2.0**-20), 0.5 * s))
    return out


def exact_rel(mode, vol, delta):
    exact = tube_volume_exact(mode, delta)
    return abs(vol - exact) / exact


@given(st.data(), refine_modes(), st.sampled_from((8.0, 12.0, 16.0)))
@settings(max_examples=150, deadline=None)
def test_tube_volume_matches_the_exact_volume(data, mode, ppw):
    """Each straddle cell takes the oracle's share, so the grid volume is the exact one.

    The special values sit at the gap windows' float edges, inside
    them and just past s/2.
    """
    f = field_for(mode, ppw=ppw)
    guard = 2.0 * max(f.h)
    windows = gap_windows(mode, f.h)
    special = [guard] + [k * hj for k in (2, 3, 5) for hj in f.h]
    for _, lo, half in windows:
        special += [lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf), 0.5 * (lo + half),
                    half * (1 - 1e-12), half, np.nextafter(half, np.inf)]
    top = max(guard, 1.5 * max(half for _, _, half in windows))
    delta = data.draw(st.one_of(st.sampled_from(special), st.floats(guard, top)))
    delta = float(max(delta, guard))
    assert exact_rel(mode, tube_volume(f, delta), delta) <= 1e-12


def miss_by_intervals(s, hj, ncells, delta):
    """Per cell [i hj, (i + 1) hj]: its overlap with [k s + delta, (k + 1) s - delta], over hj.

    Those intervals are where the 1-d distance to the zeros s Z is at least delta.
    """
    a = np.arange(ncells) * hj
    k0 = np.floor(a / s)
    total = np.zeros(ncells)
    # a cell is at most s/2 long, so it meets the intervals of k0 - 1 .. k0 + 1 only
    for k in (k0 - 1, k0, k0 + 1):
        lo = np.maximum(a, k * s + delta)
        hi = np.minimum(a + hj, (k + 1) * s - delta)
        total += np.maximum(hi - lo, 0.0)
    return total / hj


@given(st.data(), refine_modes(), st.sampled_from((4.0, 8.0, 17.0, 33.0)))
@settings(max_examples=300, deadline=None)
def test_miss_fractions_match_the_miss_intervals(data, mode, ppw):
    """A cell's miss fraction from its two end distances is its share of the miss intervals.

    The fractions of a whole axis are compared, so every cell kind on it is:
    monotone cells, V cells (a zero inside) and Lambda cells (a gap midpoint
    inside, where no grid point sits on it). Radii start at the tube guard
    2 h_j and take the gap window's edges, its inside and the radii just past
    s/2; a constant axis (m_j = 0) misses everywhere. The box and interval
    axes are Dirichlet, the others periodic.
    """
    sample = sample_grid(mode, ResolutionRule(points_per_wavelength=ppw))
    j = data.draw(st.integers(0, mode.domain.n - 1))
    hj = sample.h[j]
    ncells = sample.shape[j] - (0 if mode.domain.periodic else 1)
    guard = 2.0 * hj
    windows = {axis: (lo, half) for axis, lo, half in gap_windows(mode, sample.h)}
    if j not in windows:  # m_j = 0
        delta = data.draw(st.floats(guard, 10.0 * guard))
        expect = np.ones(ncells)
    else:
        lo, half = windows[j]
        special = [guard, 3.0 * hj, lo, np.nextafter(lo, np.inf), half - 0.5 * hj, half - 0.25 * hj,
                   half * (1 - 1e-12), half, np.nextafter(half, np.inf), half + 0.5 * hj]
        top = max(1.5 * half, 2.0 * guard)
        delta = data.draw(st.one_of(st.sampled_from(special), st.floats(guard, top)))
        delta = float(max(delta, guard))
        expect = miss_by_intervals(2.0 * half, hj, ncells, delta)
    got = measures_mod._axis_miss_fractions(mode, j, hj, ncells, delta)
    assert got.shape == (ncells,)
    # both sides round the cell ends' coordinates, up to ncells hj: a few ulps of that, over hj
    np.testing.assert_allclose(got, expect, rtol=0, atol=8 * 2.0**-52 * (ncells + 1))


def test_lambda_cell_with_both_ends_near_keeps_its_far_middle():
    # (3, 4) at ppw 17: axis 1's zeros lie 8.5 cells apart, so its gap midpoints
    # sit a quarter cell into their cells. At delta = s/2 - h/4 the far stretch
    # around such a midpoint is half its cell; at s/2 - h/8 it is a quarter,
    # with both of the cell's ends near
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    f = field_for(mode, ppw=17.0)
    h1, ncells = f.h[1], f.sample.shape[1]
    s = mode.factor_zero_spacing(1)
    mid = (np.arange(2 * 4) + 0.5) * s  # the gap midpoints in [0, 2 pi)
    lam = np.floor(mid / h1).astype(int)
    assert np.allclose(mid / h1 - lam, [0.25, 0.75] * 4)
    for below, share in ((0.25, 0.5), (0.125, 0.25)):
        delta = 0.5 * s - below * h1
        frac = measures_mod._axis_miss_fractions(mode, 1, h1, ncells, delta)
        np.testing.assert_allclose(frac[lam], share, rtol=0, atol=1e-12)
        assert exact_rel(mode, tube_volume(f, delta), delta) <= 1e-12
    ends = np.arange(ncells + 1) * h1
    d = nodal_distance_exact(measures_mod._axis_mode(mode, 1), ends[:, None])
    assert ((d[lam] < delta) & (d[lam + 1] < delta)).all()  # at delta = s/2 - h/8


def count_oracle(monkeypatch):
    """Route measures' oracle lookups through a counter of (dimension, points)."""
    calls = []

    def counted(mode, points, *args, **kwargs):
        calls.append((mode.domain.n, np.asarray(points).shape[0]))
        return nodal_distance_exact(mode, points, *args, **kwargs)

    monkeypatch.setattr(measures_mod, "nodal_distance_exact", counted)
    return calls


def test_miss_tables_replace_the_sample_oracle(monkeypatch):
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    delta = 0.05
    f = field_for(mode, h_max=delta / 2)
    calls = count_oracle(monkeypatch)
    assert exact_rel(mode, tube_volume(f, delta), delta) <= 1e-12
    # one 1-d call per axis, at the ends of its cells: ncells + 1 points, and a
    # torus axis of N points has N cells
    assert calls == [(1, n + 1) for n in f.sample.shape]


BAND_FIELDS = {
    "torus": lambda: field_for(EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4)), ppw=32.0),
    "3-torus": lambda: field_for(EigenMode(DomainSpec.torus((1.0, 1.0, 1.0)), (1, 1, 1)), ppw=48.0),
    "box": lambda: field_for(EigenMode(DomainSpec.box((1.0, 1.3)), (3, 5)), ppw=32.0),
    "interval": lambda: field_for(EigenMode(DomainSpec.interval(), (7,)), ppw=32.0),
}


def miss_tables(dist, periodic, seed):
    """Random miss fractions per axis and cell index: a straddle cell paired
    with a wrong index, row or radius changes a share."""
    rng = np.random.default_rng(seed)
    return [rng.random(s if periodic else s - 1) for s in dist.shape]


def whole_grid_blocks(dist, periodic, delta, margin, rows, miss):
    """Per block of ``rows`` cell rows: the whole-grid band's fully-in count and
    the sum of its straddle cells' shares 1 - prod_j miss[j][i_j], in row-major order."""
    fully_in, cells = whole_grid_band(dist, periodic, delta, margin)
    out = []
    for a in range(0, fully_in.shape[0], rows):
        mine = cells[(a <= cells[:, 0]) & (cells[:, 0] < a + rows)]
        missed = miss[0][mine[:, 0]]
        for j in range(1, dist.ndim):
            missed = missed * miss[j][mine[:, j]]
        out.append((int(np.count_nonzero(fully_in[a : a + rows])), float((1.0 - missed).sum())))
    return out


def band_blocks(dist, periodic, deltas, margin, rows):
    """``_band_blocks`` at the radii ``deltas`` in one pass, and the whole-grid
    reference of each radius, both as per-block lists of per-radius results."""
    bands = [(d, miss_tables(dist, periodic, k)) for k, d in enumerate(deltas)]
    got = measures_mod._band_blocks(dist, periodic, margin, bands, rows)
    expect = [whole_grid_blocks(dist, periodic, d, margin, rows, miss) for d, miss in bands]
    return got, [list(block) for block in zip(*expect)]


@pytest.mark.parametrize("rows", [1, 7, 1 << 30])
@pytest.mark.parametrize("name", list(BAND_FIELDS))
def test_band_blocks_equal_the_whole_grid_band(name, rows):
    f = BAND_FIELDS[name]()
    margin = float(np.linalg.norm(f.h)) + f.raster_error
    delta = margin + 1.5 * max(f.h)
    fully_in, cells = whole_grid_band(f.dist, f.sample.periodic, delta, margin)
    inside = int(np.count_nonzero(fully_in))
    # some cells fully in, some straddling, some fully out
    assert 0 < inside and 0 < cells.shape[0] < f.dist.size - inside
    # a second radius in the same pass, with its own miss tables
    got, expect = band_blocks(f.dist, f.sample.periodic, (delta, delta + max(f.h)), margin, rows)
    assert len(got) == -(-fully_in.shape[0] // rows)
    assert got == expect


@pytest.mark.parametrize("rows", [1, 3, 100])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("shape", [(11,), (9, 7), (5, 4, 6)])
def test_band_blocks_on_random_values(shape, periodic, rows):
    # no smoothness: a cell paired with the wrong row, a wrong wrap or a lost
    # block offset changes the classification somewhere
    dist = np.random.default_rng(7).random(shape)
    fully_in, cells = whole_grid_band(dist, periodic, 0.5, 0.3)
    assert 0 < np.count_nonzero(fully_in) and 0 < cells.shape[0]
    got, expect = band_blocks(dist, periodic, (0.5, 0.6), 0.3, rows)
    assert got == expect


def volume_bits(volumes):
    return np.array(volumes).tobytes()


@pytest.mark.parametrize("name", ["torus", "box", "3-torus"])
def test_tube_volumes_do_not_depend_on_the_worker_count(monkeypatch, name):
    f = BAND_FIELDS[name]()
    radii = [4.0 * max(f.h), 2.5 * max(f.h)]
    # small blocks, so that there are more blocks than workers
    monkeypatch.setattr(measures_mod, "ROW_BLOCK_POINTS", 4 * math.prod(f.dist.shape[1:]))
    got = {}
    for workers in (1, 3):
        monkeypatch.setattr(measures_mod, "usable_cores", lambda: workers)
        got[workers] = volume_bits(tube_volumes(f, radii))
    assert got[1] == got[3]


@pytest.mark.parametrize("name", ["torus", "box", "3-torus"])
def test_two_radii_in_one_pass_equal_two_passes(name):
    f = BAND_FIELDS[name]()
    radii = [4.0 * max(f.h), 2.5 * max(f.h)]
    both = tube_volumes(f, radii)
    assert both[0] != both[1]
    assert volume_bits(both) == volume_bits([tube_volumes(f, [r])[0] for r in radii])


def test_two_radii_query_the_oracle_once_per_axis(monkeypatch):
    # the cell ends' distances do not depend on the radius: 2 calls, not 4
    f = BAND_FIELDS["torus"]()
    calls = count_oracle(monkeypatch)
    tube_volumes(f, [4.0 * max(f.h), 2.5 * max(f.h)])
    assert calls == [(1, n + 1) for n in f.sample.shape]


def test_tube_volume_peak_memory_yau_grid():
    # the (16,1) Yau field (2519^2) at both Yau radii: grid-sized corner
    # reductions peaked at 3.25x the field's bytes; row blocks at about 0.7x
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (16, 1))
    f = field_for(mode, h_max=0.1 / mode.mu / 2.5)
    assert f.dist.shape == (2519, 2519)
    for t in (0.2, 0.1):
        tracemalloc.start()
        try:
            tube_volume(f, t / mode.mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * f.dist.nbytes
