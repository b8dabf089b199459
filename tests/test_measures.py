"""Tube volumes, nodal measure, density radius against closed-form oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nodalab.measures as measures_mod
from nodalab.distance import distance_field
from nodalab.errors import EmptyNodalSetError, ResolutionError, ValidationError
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.measures import density_radius, nodal_measure, tube_volume
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


def test_nodal_measure_interval_counts_vertices():
    mode = EigenMode(DomainSpec.interval(), (10,))
    f = field_for(mode)
    nm = nodal_measure(f, (0.1, 0.05))
    assert nm.value == 11.0
    assert nm.volumes == {} and not nm.non_monotone  # no tube is measured


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
    """The band test on whole-grid corner reductions: fully-in count, straddle cells."""
    cmin = _corner_reduce(dist, periodic, np.minimum)
    cmax = _corner_reduce(dist, periodic, np.maximum)
    fully_in = cmin + margin < delta
    straddle = ~(fully_in | (cmax - margin >= delta))
    return int(np.count_nonzero(fully_in)), np.argwhere(straddle)


KIND = st.sampled_from(("sin", "cos"))
SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)


@st.composite
def refine_modes(draw, zero_axis_top=5):
    """Torus sin/cos kinds and zero-index cos axes, irrational alpha, box, interval, 3-d.

    Zero-index modes are (0, b) with b up to ``zero_axis_top``.
    """
    family = draw(st.sampled_from(("torus", "zero_axis", "irrational", "box", "interval", "3d")))
    if family == "interval":
        return EigenMode(DomainSpec.interval(), (draw(st.integers(1, 30)),))
    if family == "box":
        dom = DomainSpec.box((1.0, SQRT3))
        return EigenMode(dom, (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    if family == "zero_axis":
        return EigenMode(DomainSpec.torus((1.0, 1.0)), (0, draw(st.integers(1, zero_axis_top))),
                         ("cos", draw(KIND)))
    n = 3 if family == "3d" else 2
    alpha = (1.0, SQRT2, 1.0)[:n] if family in ("irrational", "3d") else (1.0, 1.0)
    top = 2 if n == 3 else 5
    m = tuple(draw(st.integers(1, top)) for _ in range(n))
    kinds = tuple(draw(KIND) for _ in range(n))
    return EigenMode(DomainSpec.torus(alpha), m, kinds)


def gap_windows(mode, h):
    """(axis, lower end, s/2) of each axis's gap window s/2 - h_j (1 + 2**-20) < delta <= s/2."""
    out = []
    for j, hj in enumerate(h):
        if mode.m[j]:
            s = mode.factor_zero_spacing(j)
            out.append((j, 0.5 * s - hj * (1.0 + 2.0**-20), 0.5 * s))
    return out


def in_gap_window(mode, h, delta):
    return any(lo < delta <= half for _, lo, half in gap_windows(mode, h))


def exact_rel(mode, vol, delta):
    exact = tube_volume_exact(mode, delta)
    return abs(vol - exact) / exact


@given(st.data(), refine_modes(), st.sampled_from((8.0, 12.0, 16.0)))
@settings(max_examples=150, deadline=None)
def test_tube_volume_matches_the_exact_volume(data, mode, ppw):
    """Each straddle cell takes the oracle's share, so the grid volume is the exact one.

    Inside an axis's gap window it raises instead; the special values sit at
    the window's float edges, inside it and just past s/2.
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
    if in_gap_window(mode, f.h, delta):
        with pytest.raises(ResolutionError, match="gap"):
            tube_volume(f, delta)
    else:
        assert exact_rel(mode, tube_volume(f, delta), delta) <= 1e-12


def test_gap_window_edges():
    # (3, 4) at ppw 20: axis 1's window (pi/8 - h_1 (1 + 2**-20), pi/8] lies
    # above the guard 2 max(h) and below axis 0's (pi/6 - h_0, pi/6]
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    f = field_for(mode, ppw=20.0)
    (_, lo0, _), (_, lo, half) = gap_windows(mode, f.h)
    assert 2.0 * max(f.h) < lo < half < lo0
    # at the lower end a Lambda cell's ends are still far: the oracle's volume
    assert exact_rel(mode, tube_volume(f, lo), lo) <= 1e-12
    for delta in (np.nextafter(lo, np.inf), 0.5 * (lo + half), half):
        with pytest.raises(ResolutionError, match="gap"):
            tube_volume(f, float(delta))
    # past s/2 axis 1 hits everywhere: every straddle cell lies wholly in the tube
    above = float(np.nextafter(half, np.inf))
    margin = float(np.linalg.norm(f.h)) + f.raster_error
    inside, idx = whole_grid_band(f.dist, True, above, margin)
    cellvol = float(np.prod(f.h))
    expect = float(inside) * cellvol + cellvol * idx.shape[0]
    assert tube_volume(f, above) == expect
    assert exact_rel(mode, expect, above) <= 1e-12


def test_gap_window_holds_cells_the_ends_do_not_decide():
    # (3, 4) at ppw 17: axis 1's zeros lie 8.5 cells apart, so its gap midpoints
    # sit a quarter cell into their cells; at delta = s/2 - h/4 such a cell has
    # both ends near and its middle far, and the end rule would call it all hit
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    f = field_for(mode, ppw=17.0)
    h1, ncells = f.h[1], f.sample.shape[1]
    delta = 0.5 * mode.factor_zero_spacing(1) - 0.25 * h1
    t, _ = measures_mod._axis_miss_table(mode, 1, h1, ncells, delta)
    x = (np.arange(ncells)[:, None] + np.linspace(0.0, 1.0, 17)[None, 1:-1]) * h1
    d = nodal_distance_exact(measures_mod._axis_mode(mode, 1), x[..., None])
    assert ((d >= delta).any(axis=1) & (t == 0.0)).any()
    with pytest.raises(ResolutionError, match="gap"):
        tube_volume(f, delta)


# draws near the cell ends put delta near the extremes of the cell's distances
DRAW_K = st.one_of(
    st.integers(0, 2**53 - 1), st.integers(0, 64), st.integers(2**53 - 64, 2**53 - 1)
)


def level_set_cells(mode, k):
    """(axis, spacing, cells, guard, 1-d mode, admissible cells) per ppw and nonconstant axis.

    A cell is admissible when its 1-d distance at u = k * 2**-53 reaches the
    tables' guard 2 max(h). At ppw 8 the guard is about half the zero spacing,
    so few cells of the fastest axis qualify. The list is empty when the guard
    exceeds every distance, as for zero-index modes (0, b) with b >= 2: their
    constant axis gets the 16-point minimum, so max(h) = 2 pi / 16 is above
    the moving axis's half zero spacing pi / (2 b).
    """
    out = []
    for ppw in (8.0, 16.0):
        s = sample_grid(mode, ResolutionRule(points_per_wavelength=ppw))
        guard = 2.0 * max(s.h)
        for j in range(mode.domain.n):
            if not mode.m[j]:
                continue
            one_d = measures_mod._axis_mode(mode, j)
            hj = np.asarray(s.h)[j]
            ncells = s.shape[j] - (0 if mode.domain.periodic else 1)
            x = (np.arange(ncells) + k * 2.0**-53) * hj
            ok = np.flatnonzero(nodal_distance_exact(one_d, x[:, None]) >= guard)
            if ok.size:
                out.append((j, hj, ncells, guard, one_d, ok))
    return out


# (0, b) with b >= 2 never reaches the guard (see level_set_cells), so not drawn
@given(st.data(), refine_modes(zero_axis_top=1), DRAW_K)
@settings(max_examples=300, deadline=None)
def test_miss_table_edges_match_the_oracle(data, mode, k):
    """At its edges and at a point where the oracle equals delta, a table agrees with it."""
    choices = level_set_cells(mode, k)
    assume(choices)
    j, hj, ncells, guard, one_d, ok = data.draw(st.sampled_from(choices))
    i = int(ok[data.draw(st.integers(0, ok.size - 1))])

    def dist(kk):
        return float(nodal_distance_exact(one_d, np.array([[(i + kk * 2.0**-53) * hj]]))[0])

    delta = dist(k)  # the draw u = k * 2**-53 sits exactly on the level set
    assert delta >= guard
    # tube_volume refuses the gap window, where the ends do not decide a cell
    s = mode.factor_zero_spacing(j)
    assume(not 0.5 * s - hj * (1.0 + 2.0**-20) < delta <= 0.5 * s)
    t, suffix = measures_mod._axis_miss_table(mode, j, hj, ncells, delta)
    t, suffix = t[i], suffix[i]

    def misses(kk):
        return (kk * 2.0**-53 < t) != suffix

    edges = {k - 1, k, k + 1, 0, 2**53 - 1}
    kt = int(t * 2**53)
    edges |= {kt - 1, kt, kt + 1}
    for kk in sorted(e for e in edges if 0 <= e < 2**53):
        assert misses(kk) == (dist(kk) >= delta)


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
    # every distance comes from 1-d axis modes, under 1% of 64 per straddle cell
    assert calls and all(dim == 1 for dim, _ in calls)
    margin = float(np.linalg.norm(f.h)) + f.raster_error
    straddle = whole_grid_band(f.dist, True, delta, margin)[1].shape[0]
    assert sum(pts for _, pts in calls) < 0.01 * 64 * straddle


BAND_FIELDS = {
    "torus": lambda: field_for(EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4)), ppw=32.0),
    "3-torus": lambda: field_for(EigenMode(DomainSpec.torus((1.0, 1.0, 1.0)), (1, 1, 1)), ppw=48.0),
    "box": lambda: field_for(EigenMode(DomainSpec.box((1.0, 1.3)), (3, 5)), ppw=32.0),
    "interval": lambda: field_for(EigenMode(DomainSpec.interval(), (7,)), ppw=32.0),
}


def band_blocks(dist, periodic, delta, margin, rows):
    """``_band_cells``' blocks joined: the fully-in count and the straddle cells in block order."""
    blocks = list(measures_mod._band_cells(dist, periodic, delta, margin, rows))
    return sum(n for n, _ in blocks), np.concatenate([cells for _, cells in blocks])


@pytest.mark.parametrize("rows", [1, 7, 1 << 30])
@pytest.mark.parametrize("name", list(BAND_FIELDS))
def test_band_blocks_equal_the_whole_grid_band(name, rows):
    f = BAND_FIELDS[name]()
    margin = float(np.linalg.norm(f.h)) + f.raster_error
    delta = margin + 1.5 * max(f.h)
    inside, idx = band_blocks(f.dist, f.sample.periodic, delta, margin, rows)
    expect_inside, expect_idx = whole_grid_band(f.dist, f.sample.periodic, delta, margin)
    # some cells fully in, some straddling, some fully out
    assert 0 < expect_inside and 0 < expect_idx.shape[0] < f.dist.size - expect_inside
    assert inside == expect_inside
    assert idx.dtype == expect_idx.dtype and np.array_equal(idx, expect_idx)


@pytest.mark.parametrize("rows", [1, 3, 100])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("shape", [(11,), (9, 7), (5, 4, 6)])
def test_band_blocks_on_random_values(shape, periodic, rows):
    # no smoothness: a cell paired with the wrong row, a wrong wrap or a lost
    # block offset changes the classification somewhere
    dist = np.random.default_rng(7).random(shape)
    inside, idx = band_blocks(dist, periodic, 0.5, 0.3, rows)
    expect_inside, expect_idx = whole_grid_band(dist, periodic, 0.5, 0.3)
    assert 0 < expect_inside and 0 < expect_idx.shape[0]
    assert inside == expect_inside and np.array_equal(idx, expect_idx)


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
