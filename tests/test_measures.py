"""Tube volumes, nodal measure, density radius against closed-form oracles."""

import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nodalab.measures as measures_mod
from nodalab.distance import capped_pads, raster_error, stencil_widths
from nodalab.errors import EmptyNodalSetError, ResolutionError, ResourceGuardError, ValidationError
from nodalab.grid import GridSample, ResolutionRule, grid_shape, sample_grid
from nodalab.harness import DEFAULT_DENSITY_TORUS_MODES, DEFAULT_DIM2_MODES
from nodalab.measures import (
    SIGN_EPS,
    density_radius,
    grid_seeds,
    streamed_tubes,
    tube_measure,
    tube_volume,
)
from nodalab.nodal import _corner_reduce
from nodalab.spectrum import (
    DomainSpec,
    EigenMode,
    density_radius_exact,
    nodal_distance_exact,
    nodal_measure_exact,
    tube_volume_exact,
)

from scipy_field import raster_seeds, scipy_distance_field, scipy_seed_field, seed_mask
from whole_field import whole_field
from whole_grid import NodalApprox, extract_nodal, marching_squares


def rule_for(h_max=None, ppw=32.0):
    return ResolutionRule(points_per_wavelength=ppw, h_max=h_max)


def nodal_for(mode, h_max=None, ppw=32.0):
    return extract_nodal(sample_grid(mode, rule_for(h_max, ppw)))


def counted_volume(nod, delta):
    """Plain grid-point count: points with dist < delta times the cell volume."""
    return int((whole_field(raster_seeds(nod)) < delta).sum()) * math.prod(nod.sample.h)


def test_interval_tube_volume():
    k, delta = 50, 0.002
    mode = EigenMode(DomainSpec.interval(), (k,))
    f = nodal_for(mode, h_max=delta / 2)
    rule = rule_for(h_max=delta / 2)
    exact = tube_volume_exact(mode, delta)
    assert exact == pytest.approx(2 * k * delta, rel=1e-12)
    plain = counted_volume(f, delta)
    h = max(f.sample.h)
    # counting bias: at most one grid point per tube-component boundary
    assert abs(plain - exact) <= 2 * (k + 1) * h
    refined = tube_volume(mode, rule, delta)
    assert abs(refined - exact) / exact < 2e-3


def test_torus_tube_volume_refined():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    delta = 0.05
    f = nodal_for(mode, h_max=delta / 2)
    rule = rule_for(h_max=delta / 2)
    exact = tube_volume_exact(mode, delta)
    expect = 8 * math.pi * delta * 7 - 16 * 12 * delta**2
    assert exact == pytest.approx(expect, rel=1e-12)
    refined = tube_volume(mode, rule, delta)
    assert abs(refined - exact) / exact < 2e-3
    plain = counted_volume(f, delta)
    assert abs(plain - exact) / exact < 0.25


def test_nodal_measure_torus():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    ts = (0.06, 0.03)
    rule = rule_for(h_max=min(ts) / 2)
    exact = nodal_measure_exact(mode)
    assert exact == pytest.approx(28 * math.pi, rel=1e-12)
    tubes = streamed_tubes(mode, rule, list(ts), segments=True)
    nm = tube_measure(tubes.volumes)
    length = tubes.length
    assert abs(nm.value - exact) / exact < 3e-3
    assert abs(length - exact) / exact < 1e-2
    assert not nm.non_monotone
    assert abs(length - nm.value) / max(length, nm.value) < 0.01
    assert sorted(tubes.volumes) == sorted(ts)
    assert tubes.volumes[ts[0]] == tube_volume(mode, rule, ts[0])


def test_nodal_measure_needs_two_radii():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    tubes = streamed_tubes(mode, rule_for(h_max=0.02), [0.05])
    with pytest.raises(ValidationError, match="two tube radii"):
        tube_measure(tubes.volumes)


def test_density_radius():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    f = grid_seeds(mode, rule_for(h_max=0.01)).seeds
    exact = density_radius_exact(mode)
    assert exact == pytest.approx(math.pi / 8, rel=1e-12)
    assert abs(density_radius(f) - exact) <= 2 * max(f.h)

    kmode = EigenMode(DomainSpec.interval(), (10,))
    fk = grid_seeds(kmode, rule_for()).seeds
    assert abs(density_radius(fk) - math.pi / 20) <= 2 * max(fk.h)


def test_empty_field_measures():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0))
    nod = NodalApprox(s, np.empty((0, 2)))
    with pytest.raises(EmptyNodalSetError):
        density_radius(raster_seeds(nod))


def whole_grid_band(dist, periodic, delta, margin):
    """The band test on whole-grid corner reductions: fully-in cells, straddle cell indices."""
    cmin = _corner_reduce(dist, periodic, np.minimum)
    cmax = _corner_reduce(dist, periodic, np.maximum)
    fully_in = cmin + margin < delta
    straddle = ~(fully_in | (cmax - margin >= delta))
    return fully_in, np.argwhere(straddle)


SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)
TORUS2 = DomainSpec.torus((1.0, 1.0))


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
    rule = rule_for(ppw=ppw)
    _, h = grid_shape(mode, rule)
    guard = 2.0 * max(h)
    windows = gap_windows(mode, h)
    special = [guard] + [k * hj for k in (2, 3, 5) for hj in h]
    for _, lo, half in windows:
        special += [lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf), 0.5 * (lo + half),
                    half * (1 - 1e-12), half, np.nextafter(half, np.inf)]
    top = max(guard, 1.5 * max(half for _, _, half in windows))
    delta = data.draw(st.one_of(st.sampled_from(special), st.floats(guard, top)))
    delta = float(max(delta, guard))
    assert exact_rel(mode, tube_volume(mode, rule, delta), delta) <= 1e-12


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
    rule = rule_for(ppw=17.0)
    shape, h = grid_shape(mode, rule)
    h1, ncells = h[1], shape[1]
    s = mode.factor_zero_spacing(1)
    mid = (np.arange(2 * 4) + 0.5) * s  # the gap midpoints in [0, 2 pi)
    lam = np.floor(mid / h1).astype(int)
    assert np.allclose(mid / h1 - lam, [0.25, 0.75] * 4)
    for below, share in ((0.25, 0.5), (0.125, 0.25)):
        delta = 0.5 * s - below * h1
        frac = measures_mod._axis_miss_fractions(mode, 1, h1, ncells, delta)
        np.testing.assert_allclose(frac[lam], share, rtol=0, atol=1e-12)
        assert exact_rel(mode, tube_volume(mode, rule, delta), delta) <= 1e-12
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
    rule = rule_for(h_max=delta / 2)
    calls = count_oracle(monkeypatch)
    assert exact_rel(mode, tube_volume(mode, rule, delta), delta) <= 1e-12
    # one 1-d call per axis, at the ends of its cells: ncells + 1 points, and a
    # torus axis of N points has N cells
    assert calls == [(1, n + 1) for n in grid_shape(mode, rule)[0]]


BAND_MODES = {
    "torus": (EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4)), 32.0),
    "3-torus": (EigenMode(DomainSpec.torus((1.0, 1.0, 1.0)), (1, 1, 1)), 48.0),
    "box": (EigenMode(DomainSpec.box((1.0, 1.3)), (3, 5)), 32.0),
    "interval": (EigenMode(DomainSpec.interval(), (7,)), 32.0),
}
BAND_FIELDS = {
    name: (lambda mode=mode, ppw=ppw: nodal_for(mode, ppw=ppw))
    for name, (mode, ppw) in BAND_MODES.items()
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


def band_blocks(seeds, h, periodic, deltas, margin, rows, per_run, dist):
    """``_band_run`` on the seed window of each run of ``per_run`` blocks of ``rows``
    cell rows (one run of every block when ``per_run`` is None) at the radii
    ``deltas``, with the stencils of a field capped at the largest radius plus the
    margin and one cell, as the stream's; and the whole-grid band of ``dist`` at
    each radius. Both as per-block lists of per-radius results."""
    reach = max(deltas) + margin + max(h)
    pads = capped_pads(seeds.shape, h, reach, periodic)
    # a run's window ends p0 rows past its corner rows' last (row 0 past the end on a torus)
    padded = np.pad(seeds, [(pads[0], pads[0] + 1)] + [(p, p) for p in pads[1:]],
                    mode="wrap" if periodic else "constant")
    bands = [
        ([stencil_widths(h, pads, reach, shift, d) for shift in (margin, -margin)],
         miss_tables(dist, periodic, k))
        for k, d in enumerate(deltas)
    ]
    s0, p0 = dist.shape[0], pads[0]
    cells0 = s0 if periodic else s0 - 1
    run = cells0 if per_run is None else per_run * rows
    got = []
    for a in range(0, cells0, run):
        b = min(a + run, cells0)
        # the run's corner rows a .. b and p0 seed rows on either side
        blocks = measures_mod._band_run(padded[a : b + 1 + 2 * p0], pads, a, rows, periodic, bands)
        assert len(blocks) == -(-(b - a) // rows)
        got += [list(block) for block in blocks]
    expect = [whole_grid_blocks(dist, periodic, d, margin, rows, band[1])
              for d, band in zip(deltas, bands)]
    return got, [list(block) for block in zip(*expect)]


# band blocks per run: one, two, and every block in one run (its last block short
# where the rows do not divide the cell rows)
RUNS = (1, 2, None)


@pytest.mark.parametrize("rows", [1, 7, 1 << 30])
@pytest.mark.parametrize("name", list(BAND_FIELDS))
def test_band_blocks_equal_the_whole_grid_band(name, rows):
    f = BAND_FIELDS[name]()
    h = f.sample.h
    margin = float(np.linalg.norm(h)) + raster_error(h)
    delta = margin + 1.5 * max(h)
    dist = scipy_distance_field(f)
    fully_in, cells = whole_grid_band(dist, f.sample.periodic, delta, margin)
    inside = int(np.count_nonzero(fully_in))
    # some cells fully in, some straddling, some fully out
    assert 0 < inside and 0 < cells.shape[0] < dist.size - inside
    for per_run in RUNS:
        # a second radius in the same pass, with its own miss tables
        got, expect = band_blocks(seed_mask(f), h, f.sample.periodic,
                                  (delta, delta + max(h)), margin, rows, per_run, dist)
        assert len(got) == -(-fully_in.shape[0] // rows)
        assert got == expect


@pytest.mark.parametrize("rows", [1, 3, 100])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("shape", [(11,), (9, 7), (5, 4, 6)])
def test_band_blocks_on_random_values(shape, periodic, rows):
    # random seeds, unequal spacings: a cell paired with the wrong row, a wrong
    # wrap, a lost block or run offset or a stencil a cell too wide or narrow
    # changes the classification somewhere
    seeds = np.random.default_rng(7).random(shape) < 0.2 ** len(shape)
    h = (0.1, 0.13, 0.07)[: len(shape)]
    dist = scipy_seed_field(seeds, h, periodic)
    fully_in, cells = whole_grid_band(dist, periodic, 0.25, 0.1)
    assert 0 < np.count_nonzero(fully_in) and 0 < cells.shape[0]
    for per_run in RUNS:
        got, expect = band_blocks(seeds, h, periodic, (0.25, 0.35), 0.1, rows, per_run, dist)
        assert got == expect


def volume_bits(volumes):
    return np.array(volumes).tobytes()


@pytest.mark.parametrize("name", ["torus", "box", "3-torus"])
def test_tube_volumes_do_not_depend_on_the_worker_count(monkeypatch, name):
    mode, ppw = BAND_MODES[name]
    rule = ResolutionRule(points_per_wavelength=ppw)
    shape, h = grid_shape(mode, rule)
    radii = [4.0 * max(h), 2.5 * max(h)]
    whole = volume_bits(whole_grid_tubes(mode, rule, radii, 4)[1])
    # blocks of 4 rows and small passes, so that there are more passes than workers
    monkeypatch.setattr(measures_mod, "ROW_BLOCK_POINTS", 4 * math.prod(shape[1:]))
    monkeypatch.setattr(measures_mod, "PASS_BLOCKS", 2)
    for workers in (1, 3):
        monkeypatch.setattr(measures_mod, "usable_cores", lambda: workers)
        tubes = streamed_tubes(mode, rule, radii)
        assert list(tubes.volumes) == radii
        assert volume_bits(list(tubes.volumes.values())) == whole


@pytest.mark.parametrize("name", ["torus", "box", "3-torus"])
def test_two_radii_in_one_pass_equal_two_passes(name):
    mode, ppw = BAND_MODES[name]
    rule = rule_for(ppw=ppw)
    _, h = grid_shape(mode, rule)
    radii = [4.0 * max(h), 2.5 * max(h)]
    both = list(streamed_tubes(mode, rule, radii).volumes.values())
    assert both[0] != both[1]
    assert volume_bits(both) == volume_bits([tube_volume(mode, rule, r) for r in radii])


def test_two_radii_query_the_oracle_once_per_axis(monkeypatch):
    # the cell ends' distances do not depend on the radius: 2 calls, not 4
    mode, ppw = BAND_MODES["torus"]
    rule = rule_for(ppw=ppw)
    shape, h = grid_shape(mode, rule)
    calls = count_oracle(monkeypatch)
    streamed_tubes(mode, rule, [4.0 * max(h), 2.5 * max(h)])
    assert calls == [(1, n + 1) for n in shape]


def whole_grid_tubes(mode, rule, radii, rows):
    """Tube volumes from scipy's full-range field of the whole sampled grid: the
    whole-grid band of each radius, summed per block of ``rows`` cell rows and
    then over the blocks in block order."""
    sample = sample_grid(mode, rule)
    dist = scipy_distance_field(extract_nodal(sample))
    h = np.asarray(sample.h)
    margin = float(np.linalg.norm(h)) + 0.5 * math.sqrt(float(np.sum(h * h)))
    ncells = [s if sample.periodic else s - 1 for s in sample.shape]
    cellvol = float(np.prod(h))
    volumes = []
    for delta in radii:
        miss = [measures_mod._axis_miss_fractions(mode, j, h[j], nj, delta) for j, nj in enumerate(ncells)]
        blocks = whole_grid_blocks(dist, sample.periodic, delta, margin, rows, miss)
        inside, share = 0, 0.0
        for n_in, part in blocks:
            inside += n_in
            share += part
        volumes.append(float(inside) * cellvol + cellvol * share)
    return sample, volumes


@st.composite
def factor_grids(draw):
    """Axis factors of 1-3 axes with 2-9 points: zeros, +-1 (edges crossing at
    t = 1/2 exactly) and other floats; torus or box."""
    periodic = draw(st.booleans())
    values = st.one_of(st.just(0.0), st.sampled_from((-1.0, 1.0)), st.floats(-10.0, 10.0, width=32))
    shape = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    return periodic, [draw(arrays(np.float64, (s,), elements=values)) for s in shape]


@given(grid=factor_grids(), lo=st.integers(-20, 20), rows=st.integers(1, 30))
# rows 9 and 10 are the period's rows 2 and 3, and 2.5 rounds to 2 where
# 9.5 rounds to 10: a window vertex at its global index would seed row 3
@example(grid=(True, [np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])]), lo=9, rows=2)
@settings(max_examples=200, deadline=None)
def test_seed_rows_are_the_whole_grid_seed_rows(grid, lo, rows):
    """A chunk's sampled rows are the whole grid's bit for bit, and its seeds
    those of the whole grid's vertices in its rows, wrapped on a torus and
    empty off a box, also for chunks longer than the period."""
    periodic, factors = grid
    shape = tuple(f.shape[0] for f in factors)
    dom = (DomainSpec.torus if periodic else DomainSpec.box)((1.0,) * len(shape))
    h = tuple(L / (s if periodic else s - 1) for L, s in zip(dom.lengths, shape))
    values = factors[0]
    for f in factors[1:]:
        values = np.multiply.outer(values, f)
    sample = GridSample(EigenMode(dom, (1,) * len(shape)), h, shape, values)
    whole = seed_mask(extract_nodal(sample))
    hi = lo + rows
    # the chunk's rows and one more on either side, written into a longer buffer
    out = np.full((rows + 3,) + shape[1:], np.nan)
    g, at, window = measures_mod._sampled_rows(factors, periodic, lo - 1, hi + 1, out)
    assert window.tobytes() == values[at].tobytes()
    got = np.zeros((rows,) + shape[1:], dtype=bool)
    # sign rows of a chunk inside the grid (any chunk of a torus)
    index = np.arange(lo, hi)
    inside = np.ones(rows, dtype=bool) if periodic else (index >= 0) & (index < shape[0])
    signs = (np.empty_like(got), np.empty_like(got)) if inside.all() else None
    assert measures_mod._chunk(factors, h, periodic, lo, hi, out, got, None, signs) is None
    want = np.zeros_like(got)
    want[inside] = whole[index[inside] % shape[0]]
    assert np.array_equal(got, want)
    if signs is not None:
        rows_of = values[index % shape[0]]
        assert np.array_equal(signs[0], rows_of > SIGN_EPS)
        assert np.array_equal(signs[1], rows_of < -SIGN_EPS)


def density_rule(mode):
    """``run_density_check``'s grid: 64 points per wavelength, h at most the radius / 16."""
    return ResolutionRule(points_per_wavelength=64.0, h_max=density_radius_exact(mode) / 16.0)


# the grids whose seeds the full-range transform reads: density's default
# torus and interval modes, and dim2's default modes on its sign grid
SEED_GRIDS = {
    **{f"density-torus-{m[0]}-{m[1]}": (mode := EigenMode(TORUS2, m), density_rule(mode))
       for m in DEFAULT_DENSITY_TORUS_MODES},
    **{f"density-interval-{m[0]}": (mode := EigenMode(DomainSpec.interval(), m), density_rule(mode))
       for m in ((8,), (20,), (50,))},
    **{f"dim2-{m[0]}-{m[1]}": (EigenMode(TORUS2, m), ResolutionRule(points_per_wavelength=256.0))
       for m in DEFAULT_DIM2_MODES},
}


@pytest.mark.parametrize("mode, rule", list(SEED_GRIDS.values()), ids=list(SEED_GRIDS))
def test_grid_seeds_are_the_float_raster_on_the_default_grids(mode, rule, monkeypatch):
    """``grid_seeds``' seeds are bitwise the float raster of the whole sample's
    vertices, and its sign masks the sample's signs, in chunks of the default
    size, of 7 rows and of one row, on 1-3 workers that switch threads often."""
    sample = sample_grid(mode, rule)
    want = seed_mask(extract_nodal(sample))
    assert want.any()
    row_points = math.prod(sample.shape[1:])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for rows, workers in ((None, 1), (None, 2), (None, 3), (7, 2), (1, 3)):
            if rows is not None:
                monkeypatch.setattr(measures_mod, "CHUNK_POINTS", rows * row_points)
            monkeypatch.setattr(measures_mod, "usable_cores", lambda: workers)
            assert_grid_signs(grid_seeds(mode, rule), sample, want)
    finally:
        sys.setswitchinterval(interval)


def assert_grid_signs(signs, sample, seeds):
    """``signs`` holds the seed mask ``seeds`` and the signs of ``sample``, bit for bit."""
    got = signs.seeds
    assert got.h == sample.h and got.periodic == sample.periodic
    assert got.mask.dtype == signs.pos.dtype == signs.neg.dtype == bool
    assert np.array_equal(got.mask, seeds)
    assert np.array_equal(signs.pos, sample.values > SIGN_EPS)
    assert np.array_equal(signs.neg, sample.values < -SIGN_EPS)


@st.composite
def raster_modes(draw):
    """Torus and box modes of 1-3 axes, anisotropic alpha, m_j = 0 on a torus axis,
    and points per wavelength that give odd and even shapes."""
    n = draw(st.integers(1, 3))
    alpha = (1.0,) + tuple(draw(st.sampled_from([1.0, 1.3, 2.0])) for _ in range(n - 1))
    periodic = draw(st.booleans())
    if periodic:
        domain = DomainSpec.torus(alpha)
    else:
        domain = DomainSpec.box(alpha) if n > 1 else DomainSpec.interval()
    top = 4 if n < 3 else 2
    m = tuple(draw(st.integers(0 if periodic else 1, top)) for _ in range(n))
    if not any(m):  # a torus mode needs a nonzero index
        m = (1,) + m[1:]
    ppw = draw(st.integers(5, 24 if n < 3 else 9)) + draw(st.sampled_from([0.0, 0.5]))
    return EigenMode(domain, m), ResolutionRule(points_per_wavelength=ppw)


@given(grid=raster_modes(), rows=st.integers(1, 3), workers=st.integers(1, 3))
@example(grid=(EigenMode(TORUS2, (0, 3)), ResolutionRule(points_per_wavelength=24.0)), rows=1,
         workers=1)
@settings(max_examples=100, deadline=None)
def test_grid_seeds_are_the_float_raster_of_drawn_modes(grid, rows, workers):
    """On drawn grids, in chunks of 1-3 rows on 1-3 workers: ``grid_seeds`` is
    bitwise the float raster of the whole sample's vertices and its signs."""
    mode, rule = grid
    sample = sample_grid(mode, rule)
    with mock.patch.object(measures_mod, "CHUNK_POINTS", rows * math.prod(sample.shape[1:])), \
            mock.patch.object(measures_mod, "usable_cores", lambda: workers):
        signs = grid_seeds(mode, rule)
    assert_grid_signs(signs, sample, seed_mask(extract_nodal(sample)))


def test_marching_squares_geometry_runs_once_per_pass(monkeypatch):
    # torus (3, 4) at ppw 12.5: 38 x 50 points. Blocks of 2 rows, passes of 3
    # blocks and chunks of 4 rows: 7 passes (the last of 2 cell rows), each
    # sampled in 3 or more chunks
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    rule = ResolutionRule(points_per_wavelength=12.5)
    shape, h = grid_shape(mode, rule)
    assert shape == (38, 50)
    monkeypatch.setattr(measures_mod, "ROW_BLOCK_POINTS", 2 * shape[1])
    monkeypatch.setattr(measures_mod, "PASS_BLOCKS", 3)
    monkeypatch.setattr(measures_mod, "CHUNK_POINTS", 4 * shape[1])
    monkeypatch.setattr(measures_mod, "usable_cores", lambda: 2)
    chunks, gathered, geometry = [], [], []

    def spy(real, calls, size):
        def call(*args):
            out = real(*args)
            calls.append(size(args, out))
            return out
        return call

    monkeypatch.setattr(measures_mod, "_chunk",
                        spy(measures_mod._chunk, chunks, lambda a, o: a[3:5]))
    monkeypatch.setattr(measures_mod, "crossed_cells",
                        spy(measures_mod.crossed_cells, gathered, lambda a, o: o[0].size))
    monkeypatch.setattr(measures_mod, "crossed_segments",
                        spy(measures_mod.crossed_segments, geometry, lambda a, o: a[0].size))
    tubes = streamed_tubes(mode, rule, [3.0 * max(h)], segments=True)
    assert volume_bits([tubes.length]) == volume_bits([marching_squares(sample_grid(mode, rule))])
    # the geometry runs once per pass, on the cells every chunk of the pass gathered
    assert len(geometry) == 7
    assert len(gathered) == len(chunks) >= 3 * 7
    assert sum(geometry) == sum(gathered) > 0


@st.composite
def stream_modes(draw):
    """``refine_modes`` and the 1-d torus: torus and box domains in 1 to 3 dimensions."""
    if draw(st.booleans()):
        return draw(refine_modes(zero_axis_top=3))
    return EigenMode(DomainSpec.torus((1.0,)), (draw(st.integers(1, 12)),))


@given(
    mode=stream_modes(),
    ppw=st.sampled_from((8.0, 12.5)),
    cells=st.lists(st.floats(2.0, 7.0), min_size=1, max_size=2),
    rows=st.sampled_from((1, 2, 3, 7, 1 << 20)),
    per_pass=st.sampled_from((1, 2, 3, 16)),
    per_chunk=st.integers(1, 3),
    workers=st.integers(1, 3),
)
# 16 x 16 cells: a window of one band block's rows plus 2 (9 + 1) halo rows spans 22 rows,
# longer than the period
@example(mode=EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1)), ppw=16.0, cells=[7.0, 2.0],
         rows=1, per_pass=1, per_chunk=1, workers=2)
@example(mode=EigenMode(DomainSpec.torus((1.0,)), (1,)), ppw=16.0, cells=[7.0], rows=1,
         per_pass=2, per_chunk=1, workers=3)
# 16 x 16 points, passes of 6 cell rows and 2 (7 + 1) halo rows, sampled in runs of at
# most 2 rows: chunk edges fall in the halo and among the corner rows of the segments
@example(mode=EigenMode(DomainSpec.torus((1.0, 1.0)), (2, 1)), ppw=8.0, cells=[3.0],
         rows=2, per_pass=3, per_chunk=1, workers=2)
@example(mode=EigenMode(DomainSpec.box((1.0, 1.0)), (2, 1)), ppw=8.0, cells=[3.0],
         rows=2, per_pass=3, per_chunk=1, workers=2)
# 38 x 50 points, runs of 3 band blocks: many blocks hold 12-36 (3-row blocks) or 16
# (1-row blocks) straddle cells with non-dyadic shares, so a run summed at once, not
# block by block, changes the bits; passes of 5 blocks end in a run of 2
@example(mode=EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4)), ppw=12.5, cells=[2.2],
         rows=3, per_pass=16, per_chunk=3, workers=2)
@example(mode=EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4)), ppw=12.5, cells=[2.2],
         rows=3, per_pass=5, per_chunk=3, workers=3)
@example(mode=EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4)), ppw=12.5, cells=[2.0, 5.0],
         rows=1, per_pass=16, per_chunk=3, workers=2)
@settings(max_examples=60, deadline=None)
def test_streamed_tubes_are_bitwise_the_whole_grid_pipeline(mode, ppw, cells, rows, per_pass,
                                                            per_chunk, workers):
    """The streamed volumes, and on 2-d grids the marching-squares length, equal
    the whole-grid pipeline's bit for bit, at any band block, pass and chunk
    size and any worker count."""
    rule = ResolutionRule(points_per_wavelength=ppw)
    shape, h = grid_shape(mode, rule)
    radii = [c * max(h) for c in cells]
    row_points = math.prod(shape[1:])
    with mock.patch.object(measures_mod, "ROW_BLOCK_POINTS", rows * row_points), \
            mock.patch.object(measures_mod, "PASS_BLOCKS", per_pass), \
            mock.patch.object(measures_mod, "CHUNK_POINTS", per_chunk * rows * row_points), \
            mock.patch.object(measures_mod, "usable_cores", lambda: workers):
        tubes = streamed_tubes(mode, rule, radii, segments=len(shape) == 2)
    sample, expect = whole_grid_tubes(mode, rule, radii, rows)
    assert tubes.h == sample.h
    assert volume_bits([tubes.volumes[r] for r in radii]) == volume_bits(expect)
    if len(shape) == 2:
        assert volume_bits([tubes.length]) == volume_bits([marching_squares(sample)])
    else:
        assert tubes.length is None


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_streamed_radius_must_be_positive(radius, monkeypatch):
    monkeypatch.setattr(measures_mod, "axis_factors", None)  # nothing is sampled
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    # NaN fails every comparison: a check written as delta <= 0 lets it through
    with pytest.raises(ValidationError, match="delta must be positive"):
        streamed_tubes(mode, ResolutionRule(), [0.5, radius])
    with pytest.raises(ValidationError, match="delta must be positive"):
        tube_volume(mode, ResolutionRule(), radius)


def test_streamed_tubes_keep_the_grid_guards(monkeypatch):
    monkeypatch.setattr(measures_mod, "axis_factors", None)  # nothing is sampled
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    capped = ResolutionRule(max_total_points=1000)
    with pytest.raises(ResourceGuardError) as streamed:
        streamed_tubes(mode, capped, [0.5])
    with pytest.raises(ResourceGuardError) as whole:
        sample_grid(mode, capped)
    assert str(streamed.value) == str(whole.value)
    shape, h = grid_shape(mode, ResolutionRule())
    with pytest.raises(ResolutionError, match="below resolution guard"):
        streamed_tubes(mode, ResolutionRule(), [1.9 * max(h)])
    with pytest.raises(ResolutionError, match="below resolution guard"):
        tube_volume(mode, rule_for(h_max=0.05), 0.05)  # below 2*max(h)
    with pytest.raises(ValidationError, match="no tube radius"):
        streamed_tubes(mode, ResolutionRule(), [])
    with pytest.raises(ValidationError, match="2-d"):
        streamed_tubes(EigenMode(DomainSpec.interval(), (3,)), ResolutionRule(), [0.5], segments=True)


def test_streamed_tubes_peak_memory_yau_grid(monkeypatch):
    # the (16,1) Yau cell (2519^2) at both radii with its segments, two
    # workers. The whole-grid chain held the 51 MB sample, and its capped
    # field alone peaked at 1.32x the grid's float64 bytes; the passes in
    # flight (at most 16 band blocks each) peaked at 0.58-0.63x (30-32 MB)
    # over five runs
    monkeypatch.setattr(measures_mod, "usable_cores", lambda: 2)
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (16, 1))
    radii = [0.2 / mode.mu, 0.1 / mode.mu]
    rule = ResolutionRule(points_per_wavelength=32.0, h_max=min(radii) / 2.5)
    shape, _ = grid_shape(mode, rule)
    assert shape == (2519, 2519)
    tracemalloc.start()
    try:
        streamed_tubes(mode, rule, radii, segments=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 8 * math.prod(shape)


def test_streamed_pass_holds_one_chunk_of_values(monkeypatch):
    # the Yau grid of the test above, two workers. A pass that sampled all its
    # rows at once held them through its vertices and segments, at 0.59-0.63x
    # the grid's float64 bytes; a chunk of at most 4 band blocks' points at a
    # time, dropped before the band blocks, peaks at 0.20x (10 MB)
    monkeypatch.setattr(measures_mod, "usable_cores", lambda: 2)
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (16, 1))
    radii = [0.2 / mode.mu, 0.1 / mode.mu]
    rule = ResolutionRule(points_per_wavelength=32.0, h_max=min(radii) / 2.5)
    shape, _ = grid_shape(mode, rule)
    tracemalloc.start()
    try:
        streamed_tubes(mode, rule, radii, segments=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.35 * 8 * math.prod(shape)


def test_band_test_runs_once_per_run_of_band_blocks(monkeypatch):
    # the Yau grid of the tests above at both radii, two workers. Rows of 2519
    # points make band blocks of 26 rows, passes of 16 blocks (416 rows) and
    # chunks of 104 rows, so each of the six full passes classifies 4 runs of 4
    # blocks at once, and the last pass its 23 rows: 25 runs of 97 band blocks
    monkeypatch.setattr(measures_mod, "usable_cores", lambda: 2)
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (16, 1))
    radii = [0.2 / mode.mu, 0.1 / mode.mu]
    rule = ResolutionRule(points_per_wavelength=32.0, h_max=min(radii) / 2.5)
    assert grid_shape(mode, rule)[0] == (2519, 2519)
    real, cell_rows = measures_mod.seed_stencils, []

    def spy(win, pads, widths):
        cell_rows.append(win.shape[0] - 2 * pads[0] - 1)
        return real(win, pads, widths)

    monkeypatch.setattr(measures_mod, "seed_stencils", spy)
    streamed_tubes(mode, rule, radii, segments=True)
    assert sorted(cell_rows) == [23] + [104] * 24
