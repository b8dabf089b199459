"""Distance fields: brute-force oracle, periodic wrap, accuracy contract."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

import nodalab.distance as distance_mod
from nodalab.distance import _seed_mask, distance_field
from nodalab.errors import ResourceGuardError
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.nodal import NodalApprox, extract_nodal
from nodalab.spectrum import COS, SIN, DomainSpec, EigenMode, nodal_distance_exact


def grid_axes(sample):
    """Coordinates of the grid points along each axis."""
    return [np.arange(n) * h for n, h in zip(sample.shape, sample.h)]


def brute_force_distance(vertices, sample):
    """Min distance from every grid point to the rasterized vertex set."""
    h = np.asarray(sample.h)
    seeds = np.round(vertices / h).astype(int)
    if sample.periodic:
        seeds %= np.asarray(sample.shape)
    else:
        seeds = np.clip(seeds, 0, np.asarray(sample.shape) - 1)
    seed_xy = seeds * h
    grids = np.meshgrid(*grid_axes(sample), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    diff = pts[:, None, :] - seed_xy[None, :, :]
    if sample.periodic:
        L = np.asarray(sample.mode.domain.lengths)
        diff = np.abs(diff)
        diff = np.minimum(diff, L - diff)
    d = np.sqrt((diff**2).sum(axis=2)).min(axis=1)
    return d.reshape(sample.shape)


def half_period_field(nodal):
    """Periodic field from the wrap pad of half a period plus one cell on every axis."""
    seeds = _seed_mask(nodal)
    pads = [s // 2 + 1 for s in seeds.shape]
    padded = np.pad(seeds, [(p, p) for p in pads], mode="wrap")
    dist = distance_transform_edt(~padded, sampling=nodal.sample.h)
    return dist[tuple(slice(p, p + s) for p, s in zip(pads, seeds.shape))]


@pytest.fixture
def edt_shapes(monkeypatch):
    """Shapes of the arrays distance_field hands to the transform, in call order."""
    shapes = []

    def recording(a, **kwargs):
        shapes.append(a.shape)
        return distance_transform_edt(a, **kwargs)

    monkeypatch.setattr(distance_mod, "distance_transform_edt", recording)
    return shapes


def test_matches_brute_force_box():
    mode = EigenMode(DomainSpec.box((1.0, 1.0)), (2, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=8.0))
    nod = extract_nodal(s)
    f = distance_field(nod)
    expect = brute_force_distance(nod.vertices, s)
    np.testing.assert_allclose(f.dist, expect, atol=1e-12)


def test_matches_brute_force_torus():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (2, 3), (COS, SIN))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=6.0))
    nod = extract_nodal(s)
    f = distance_field(nod)
    expect = brute_force_distance(nod.vertices, s)
    np.testing.assert_allclose(f.dist, expect, atol=1e-12)


@pytest.mark.parametrize(
    "alpha, m, kinds, ppw",
    [
        ((1.0, 1.0), (3, 4), (SIN, SIN), 32.0),
        ((1.0, 1.0), (2, 5), (COS, SIN), 24.0),
        ((1.0, 1.0), (4, 1), (COS, COS), 40.0),
        ((1.0, math.sqrt(2.0)), (3, 2), (SIN, COS), 32.0),
        ((1.0, 1.0, 1.0), (2, 1, 3), (SIN, COS, SIN), 8.0),
    ],
)
def test_narrow_pad_equals_half_period_pad(alpha, m, kinds, ppw, edt_shapes):
    mode = EigenMode(DomainSpec.torus(alpha), m, kinds)
    nod = extract_nodal(sample_grid(mode, ResolutionRule(points_per_wavelength=ppw)))
    f = distance_field(nod)
    shape = nod.sample.shape
    # every transform ran narrower than the half-period pad on some axis
    assert all(
        any(a < s + 2 * (s // 2 + 1) for a, s in zip(padded, shape)) for padded in edt_shapes
    )
    assert np.array_equal(f.dist, half_period_field(nod))


def test_narrow_pad_grows_when_first_guess_is_short(edt_shapes):
    # a dense block of seeds on a quarter of the torus: the seed density
    # suggests a pad of a few cells, but the far corner is ~45 cells away
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=128.0))
    assert s.shape == (128, 128)
    block = np.stack(np.meshgrid(np.arange(64), np.arange(64), indexing="ij"), axis=-1)
    nod = NodalApprox(s, block.reshape(-1, 2) * np.asarray(s.h))
    f = distance_field(nod)
    assert len(edt_shapes) == 2
    first, second = edt_shapes
    assert first[0] < second[0] < 128 + 2 * 65
    assert np.array_equal(f.dist, half_period_field(nod))


def test_periodic_wrap_single_line(edt_shapes):
    # a single seeded column at x=0 must be seen from both sides of the torus
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / 40))
    n0, n1 = s.shape
    vertices = np.stack([np.zeros(n1), np.arange(n1) * s.h[1]], axis=1)
    nod = NodalApprox(s, vertices)
    f = distance_field(nod)
    x = np.arange(n0) * s.h[0]
    expect = np.minimum(x, 2 * math.pi - x)
    np.testing.assert_allclose(f.dist, expect[:, None] * np.ones((1, n1)), atol=1e-9)
    # the farthest points sit half a period away, so only the full pad certifies them
    assert edt_shapes == [(n0 + 2 * (n0 // 2 + 1), n1 + 2 * (n1 // 2 + 1))]
    assert np.array_equal(f.dist, half_period_field(nod))


def test_empty_nodal_set_gives_inf_field():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0))
    nod = NodalApprox(s, np.empty((0, 2)))
    f = distance_field(nod)
    assert f.empty
    assert np.all(np.isinf(f.dist))


def test_field_tracks_closed_form_distance():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=32.0))
    f = distance_field(extract_nodal(s))
    grids = np.meshgrid(*grid_axes(s), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    exact = nodal_distance_exact(mode, pts).reshape(s.shape)
    err = np.abs(f.dist - exact).max()
    assert err <= 1.5 * f.raster_error


def test_padded_cap_guard():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=32.0))
    nod = extract_nodal(s)
    with pytest.raises(ResourceGuardError):
        distance_field(nod, cap=1000)
    # the cap applies to the narrow pad actually transformed, not the half-period one
    half_period_size = math.prod(n + 2 * (n // 2 + 1) for n in s.shape)
    assert not distance_field(nod, cap=half_period_size - 1).empty


def test_distance_field_peak_memory_yau_grid():
    # the (8,1) Yau grid (1267^2); padding half a period per side peaked at 220 MB here
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (8, 1))
    rule = ResolutionRule(points_per_wavelength=32.0, h_max=0.1 / mode.mu / 2.5)
    nod = extract_nodal(sample_grid(mode, rule))
    assert nod.sample.shape == (1267, 1267)
    tracemalloc.start()
    try:
        distance_field(nod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 110e6
