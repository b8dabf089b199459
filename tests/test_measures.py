"""Tube volumes, nodal measure, density radius against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nodalab.measures as measures_mod
from nodalab.distance import distance_field
from nodalab.errors import EmptyNodalSetError, ResolutionError, ValidationError
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.measures import McRefine, density_radius, nodal_measure, tube_volume
from nodalab.nodal import NodalApprox, extract_nodal, marching_squares
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


def test_interval_tube_volume():
    k, delta = 50, 0.002
    mode = EigenMode(DomainSpec.interval(), (k,))
    f = field_for(mode, h_max=delta / 2)
    exact = tube_volume_exact(mode, delta)
    assert exact == pytest.approx(2 * k * delta, rel=1e-12)
    plain = tube_volume(f, delta)
    h = max(f.h)
    # counting bias: at most one grid point per tube-component boundary
    assert abs(plain - exact) <= 2 * (k + 1) * h
    refined = tube_volume(f, delta, McRefine(seed=1))
    assert abs(refined - exact) / exact < 2e-3


def test_torus_tube_volume_refined():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    delta = 0.05
    f = field_for(mode, h_max=delta / 2)
    exact = tube_volume_exact(mode, delta)
    expect = 8 * math.pi * delta * 7 - 16 * 12 * delta**2
    assert exact == pytest.approx(expect, rel=1e-12)
    refined = tube_volume(f, delta, McRefine(seed=1))
    assert abs(refined - exact) / exact < 2e-3
    plain = tube_volume(f, delta)
    assert abs(plain - exact) / exact < 0.25


def test_refined_volume_independent_of_chunk_budget(monkeypatch):
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    delta = 0.05
    f = field_for(mode, h_max=delta / 2)
    default = tube_volume(f, delta, McRefine(seed=1))
    volumes = []
    for budget in (5000, 40):  # 40 < samples_per_cell: one cell per chunk
        monkeypatch.setattr(measures_mod, "REFINE_CHUNK_POINTS", budget)
        volumes.append(tube_volume(f, delta, McRefine(seed=1)))
    assert volumes == [default, default]


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
    nm = nodal_measure(f, ts, McRefine(seed=2))
    length = marching_squares(f.sample)
    assert abs(nm.value - exact) / exact < 3e-3
    assert abs(length - exact) / exact < 1e-2
    assert not nm.non_monotone
    assert abs(length - nm.value) / max(length, nm.value) < 0.01
    assert sorted(nm.volumes) == sorted(ts)
    assert nm.volumes[ts[0]] == tube_volume(f, ts[0], McRefine(seed=2))


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


def refined_volume_reference(field, delta, refine):
    """The per-sample refinement loop as it was before the per-axis miss tables."""
    sample = field.sample
    h = np.asarray(sample.h)
    cellvol = float(np.prod(h))
    diag = float(np.linalg.norm(h))
    margin = diag + field.raster_error
    cmin = measures_mod._corner_reduce(field.dist, sample.periodic, np.minimum)
    cmax = measures_mod._corner_reduce(field.dist, sample.periodic, np.maximum)
    fully_in = cmin + margin < delta
    fully_out = cmax - margin >= delta
    straddle = ~(fully_in | fully_out)
    vol = float(fully_in.sum()) * cellvol
    idx = np.argwhere(straddle)
    if idx.shape[0] == 0:
        return vol
    rng = np.random.default_rng(refine.seed)
    m = refine.samples_per_cell
    cells_per_chunk = max(1, measures_mod.REFINE_CHUNK_POINTS // m)
    hits = 0
    for start in range(0, idx.shape[0], cells_per_chunk):
        block = idx[start : start + cells_per_chunk]
        u = rng.random((block.shape[0], m, sample.n))
        pts = (block[:, None, :] + u) * h
        d = nodal_distance_exact(sample.mode, pts.reshape(-1, sample.n))
        hits += int((d < delta).sum())
    return vol + cellvol * hits / m


KIND = st.sampled_from(("sin", "cos"))
SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)


@st.composite
def refine_modes(draw):
    """Torus sin/cos kinds and zero-index cos axes, irrational alpha, box, interval, 3-d."""
    family = draw(st.sampled_from(("torus", "zero_axis", "irrational", "box", "interval", "3d")))
    if family == "interval":
        return EigenMode(DomainSpec.interval(), (draw(st.integers(1, 30)),))
    if family == "box":
        dom = DomainSpec.box((1.0, SQRT3))
        return EigenMode(dom, (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    if family == "zero_axis":
        return EigenMode(DomainSpec.torus((1.0, 1.0)), (0, draw(st.integers(1, 5))),
                         ("cos", draw(KIND)))
    n = 3 if family == "3d" else 2
    alpha = (1.0, SQRT2, 1.0)[:n] if family in ("irrational", "3d") else (1.0, 1.0)
    top = 2 if n == 3 else 5
    m = tuple(draw(st.integers(1, top)) for _ in range(n))
    kinds = tuple(draw(KIND) for _ in range(n))
    return EigenMode(DomainSpec.torus(alpha), m, kinds)


@given(st.data(), refine_modes(), st.sampled_from((8.0, 12.0, 16.0)),
       st.integers(0, 2**32 - 1), st.sampled_from((1, 7, 64)),
       st.sampled_from((measures_mod.REFINE_CHUNK_POINTS, 1000)))
@settings(max_examples=150, deadline=None)
def test_refined_volume_bitwise(data, mode, ppw, seed, samples, budget):
    """The miss-table refinement returns exactly the per-sample oracle's volume."""
    f = field_for(mode, ppw=ppw)
    guard = 2.0 * max(f.h)
    spacings = [mode.factor_zero_spacing(j) for j in range(mode.domain.n) if mode.m[j]]
    special = [guard] + [0.5 * s for s in spacings] + [0.5 * s * (1 - 1e-12) for s in spacings]
    special += [k * hj for k in (2, 3, 5) for hj in f.h]
    top = max(guard, 0.75 * max(spacings))
    delta = data.draw(st.one_of(st.sampled_from(special), st.floats(guard, top)))
    delta = max(delta, guard)
    refine = McRefine(samples_per_cell=samples, seed=seed)
    saved = measures_mod.REFINE_CHUNK_POINTS
    measures_mod.REFINE_CHUNK_POINTS = budget
    try:
        assert tube_volume(f, delta, refine) == refined_volume_reference(f, delta, refine)
    finally:
        measures_mod.REFINE_CHUNK_POINTS = saved


# draws near the cell ends put delta near the extremes of the cell's distances
DRAW_K = st.one_of(
    st.integers(0, 2**53 - 1), st.integers(0, 64), st.integers(2**53 - 64, 2**53 - 1)
)


def level_set_cells(mode, k):
    """(axis, spacing, cells, guard, 1-d mode, admissible cells) per ppw and nonconstant axis.

    A cell is admissible when its 1-d distance at u = k * 2**-53 reaches the
    tables' guard 2 max(h). At ppw 8 the guard is about half the zero spacing,
    so few cells of the fastest axis qualify. The list is empty when the guard
    exceeds every distance, as for zero-index modes whose constant axis sets
    max(h).
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


@given(st.data(), refine_modes(), DRAW_K)
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
    t, suffix, sure = measures_mod._axis_miss_table(mode, j, hj, ncells, delta)
    t, suffix, sure = t[i], suffix[i], sure[i]

    def misses(kk):
        return (kk * 2.0**-53 < t) != suffix

    assert misses(k) or not sure
    if not sure:
        return
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
    expect = refined_volume_reference(f, delta, McRefine(seed=1))
    calls = count_oracle(monkeypatch)
    assert tube_volume(f, delta, McRefine(seed=1)) == expect
    # every distance comes from 1-d axis modes, a small share of the old 64 per cell
    assert calls and all(dim == 1 for dim, _ in calls)
    cmin = measures_mod._corner_reduce(f.dist, True, np.minimum)
    cmax = measures_mod._corner_reduce(f.dist, True, np.maximum)
    margin = float(np.linalg.norm(f.h)) + f.raster_error
    straddle = int((~((cmin + margin < delta) | (cmax - margin >= delta))).sum())
    assert sum(pts for _, pts in calls) < 0.01 * 64 * straddle


def test_uncertified_cells_fall_back_to_the_oracle(monkeypatch):
    # delta just under half the zero spacing: cells at the gap midpoints straddle
    # the level set and their miss set is not certified by the tables
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    f = field_for(mode, ppw=16.0)
    delta = 0.5 * mode.factor_zero_spacing(1) * (1 - 1e-12)
    expect = refined_volume_reference(f, delta, McRefine(seed=3))
    calls = count_oracle(monkeypatch)
    assert tube_volume(f, delta, McRefine(seed=3)) == expect
    assert any(dim == 2 for dim, _ in calls)
