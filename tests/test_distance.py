"""Distance fields: brute-force oracle, periodic wrap, accuracy contract, the seed stencils."""

import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_edt

import nodalab.distance as distance_mod
from nodalab.distance import (
    capped_pads,
    raster_error,
    seed_stencils,
    stencil_widths,
)
from nodalab.errors import ResourceGuardError
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.measures import _raster_index, density_radius, grid_seeds
from nodalab.spectrum import DomainSpec, EigenMode, nodal_distance_exact

from scipy_field import raster_seeds, scipy_distance_field, seed_mask
from translates import cosine_sample
from whole_field import whole_field
from whole_grid import NodalApprox, extract_nodal


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
    seeds = seed_mask(nodal)
    pads = [s // 2 + 1 for s in seeds.shape]
    padded = np.pad(seeds, [(p, p) for p in pads], mode="wrap")
    dist = distance_transform_edt(~padded, sampling=nodal.sample.h)
    return dist[tuple(slice(p, p + s) for p, s in zip(pads, seeds.shape))]


def dense_block_nodal():
    """A dense block of seeds on a quarter of the torus: the first pad falls short."""
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=128.0))
    assert s.shape == (128, 128)
    block = np.stack(np.meshgrid(np.arange(64), np.arange(64), indexing="ij"), axis=-1)
    return NodalApprox(s, block.reshape(-1, 2) * np.asarray(s.h))


@pytest.fixture
def edt_shapes(monkeypatch):
    """Shapes of the arrays the full-range field hands to the transform, in call order.

    One slab per transform, so each shape is a whole (padded) array.
    """
    monkeypatch.setattr(distance_mod, "usable_cores", lambda: 1)
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
    f = whole_field(raster_seeds(nod))
    expect = brute_force_distance(nod.vertices, s)
    np.testing.assert_allclose(f, expect, atol=1e-12)


def test_matches_brute_force_torus():
    # ppw 9: N = 18 and 28, which 2m = 4 and 6 do not divide, so lines fall off grid
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (2, 3))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=9.0))
    assert s.shape == (18, 28)
    nod = extract_nodal(s)
    f = whole_field(raster_seeds(nod))
    expect = brute_force_distance(nod.vertices, s)
    np.testing.assert_allclose(f, expect, atol=1e-12)


@pytest.mark.parametrize(
    "alpha, m, kinds, ppw",
    [
        ((1.0, 1.0), (3, 4), ("sin", "sin"), 32.0),
        ((1.0, 1.0), (2, 5), ("cos", "sin"), 24.0),
        ((1.0, 1.0), (4, 1), ("cos", "cos"), 40.0),
        ((1.0, math.sqrt(2.0)), (3, 2), ("sin", "cos"), 32.0),
        ((1.0, 1.0, 1.0), (2, 1, 3), ("sin", "cos", "sin"), 8.0),
    ],
)
def test_narrow_pad_equals_half_period_pad(alpha, m, kinds, ppw, edt_shapes):
    # cosine translates keep the zero lines off the seam, which the wrap pad crosses
    mode = EigenMode(DomainSpec.torus(alpha), m)
    nod = extract_nodal(cosine_sample(mode, kinds, ResolutionRule(points_per_wavelength=ppw)))
    f = whole_field(raster_seeds(nod))
    shape = nod.sample.shape
    # every transform ran narrower than the half-period pad on some axis
    assert all(
        any(a < s + 2 * (s // 2 + 1) for a, s in zip(padded, shape)) for padded in edt_shapes
    )
    assert np.array_equal(f, half_period_field(nod))


def test_narrow_pad_grows_when_first_guess_is_short(edt_shapes):
    # the seed density suggests a pad of a few cells, but the far corner is ~45 cells away
    nod = dense_block_nodal()
    f = whole_field(raster_seeds(nod))
    assert len(edt_shapes) == 2
    first, second = edt_shapes
    assert first[0] < second[0] < 128 + 2 * 65
    assert np.array_equal(f, half_period_field(nod))


def test_periodic_wrap_single_line(edt_shapes):
    # a single seeded column at x=0 must be seen from both sides of the torus
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / 40))
    n0, n1 = s.shape
    vertices = np.stack([np.zeros(n1), np.arange(n1) * s.h[1]], axis=1)
    nod = NodalApprox(s, vertices)
    f = whole_field(raster_seeds(nod))
    x = np.arange(n0) * s.h[0]
    expect = np.minimum(x, 2 * math.pi - x)
    np.testing.assert_allclose(f, expect[:, None] * np.ones((1, n1)), atol=1e-9)
    # the farthest points sit half a period away, so only the full pad certifies them
    assert edt_shapes == [(n0 + 2 * (n0 // 2 + 1), n1 + 2 * (n1 // 2 + 1))]
    assert np.array_equal(f, half_period_field(nod))


def test_empty_nodal_set_gives_inf_field():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0))
    nod = NodalApprox(s, np.empty((0, 2)))
    assert np.all(np.isinf(whole_field(raster_seeds(nod))))


def test_field_tracks_closed_form_distance():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=32.0))
    f = whole_field(raster_seeds(extract_nodal(s)))
    grids = np.meshgrid(*grid_axes(s), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    exact = nodal_distance_exact(mode, pts).reshape(s.shape)
    err = np.abs(f - exact).max()
    assert err <= 1.5 * raster_error(s.h)


def test_padded_cap_guard(monkeypatch):
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=32.0))
    nod = extract_nodal(s)
    monkeypatch.setattr(distance_mod, "PADDED_POINT_CAP", 1000)
    with pytest.raises(ResourceGuardError):
        whole_field(raster_seeds(nod))
    # the cap applies to the narrow pad actually transformed, not the half-period one
    half_period_size = math.prod(n + 2 * (n // 2 + 1) for n in s.shape)
    monkeypatch.setattr(distance_mod, "PADDED_POINT_CAP", half_period_size - 1)
    assert np.isfinite(whole_field(raster_seeds(nod))).all()


def test_distance_field_peak_memory_yau_grid():
    # the (8,1) Yau grid (1267^2); padding half a period per side peaked at 220 MB here
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (8, 1))
    rule = ResolutionRule(points_per_wavelength=32.0, h_max=0.1 / mode.mu / 2.5)
    nod = extract_nodal(sample_grid(mode, rule))
    assert nod.sample.shape == (1267, 1267)
    tracemalloc.start()
    try:
        whole_field(raster_seeds(nod))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 110e6


def mode_nodal(domain, m, ppw):
    return extract_nodal(sample_grid(EigenMode(domain, m), ResolutionRule(points_per_wavelength=ppw)))


def sparse_seeds_nodal():
    """Ten random seeds on a 3-torus: nearest seeds differ on all three axes, where
    the order of the squared-difference sum changes about 900 of 13,824 distances."""
    domain = DomainSpec.torus((1.0, math.sqrt(2.0), math.sqrt(3.0)))
    s = sample_grid(EigenMode(domain, (1, 1, 1)), ResolutionRule(points_per_wavelength=24.0))
    assert s.shape == (24, 24, 24)
    rng = np.random.default_rng(0)
    return NodalApprox(s, rng.uniform(0.0, 1.0, (10, 3)) * np.asarray(domain.lengths))


SCIPY_CASES = {
    "torus-16-1": lambda: mode_nodal(DomainSpec.torus((1.0, 1.0)), (16, 1), 8.0),
    "torus-3-4": lambda: mode_nodal(DomainSpec.torus((1.0, 1.0)), (3, 4), 32.0),
    "torus-2-3-alpha-1.3": lambda: mode_nodal(DomainSpec.torus((1.0, 1.3)), (2, 3), 24.0),
    "box": lambda: mode_nodal(DomainSpec.box((1.0, 1.3)), (3, 5), 24.0),
    "interval": lambda: mode_nodal(DomainSpec.interval(), (7,), 32.0),
    "3-torus": lambda: mode_nodal(DomainSpec.torus((1.0, 2.0, 1.0)), (2, 1, 3), 8.0),
    "3-torus-sparse-seeds": sparse_seeds_nodal,
    "second-pad": dense_block_nodal,  # its first pad fails the certificate
}


@pytest.mark.parametrize("make_nodal", list(SCIPY_CASES.values()), ids=list(SCIPY_CASES))
def test_field_is_bitwise_scipys_distances(make_nodal, edt_shapes):
    """Distances formed from the feature transform on the crop equal scipy's own."""
    nod = make_nodal()
    f = whole_field(raster_seeds(nod))
    expect = scipy_distance_field(nod)
    assert f.dtype == expect.dtype and f.shape == expect.shape
    assert f.tobytes() == expect.tobytes()
    assert f.flags.c_contiguous
    if make_nodal is dense_block_nodal:
        assert len(edt_shapes) == 2
    # the density radius is the certified maximum, that of the field it certifies
    assert density_radius(raster_seeds(nod)) == float(expect.max())


def torus_1d_nodal():
    return mode_nodal(DomainSpec.torus((1.0,)), (7,), 32.0)


def pythagorean_ties_nodal():
    """Seeds on every 12th point of a 96^2 square grid, every other one moved
    4 rows: 832 points have two nearest seeds at the same integer distance, 128
    of them with different float sums, such as (5, 0) and (3, 4) cells away."""
    s = sample_grid(EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1)),
                    ResolutionRule(points_per_wavelength=96.0))
    assert s.shape == (96, 96) and s.h[0] == s.h[1]
    g = np.arange(0, 96, 12)
    idx = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    idx[::2, 0] = (idx[::2, 0] + 4) % 96
    return NodalApprox(s, idx * np.asarray(s.h))


def seed_rows_nodal():
    """Seeds on the first 10 of 128 rows of a torus: the nearest seed of a row
    near the middle is up to 59 rows away along axis 0, so a slab there needs
    all of its axis-0 halo (and the first pad fails the certificate)."""
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=128.0))
    rows = np.stack(np.meshgrid(np.arange(10), np.arange(128), indexing="ij"), axis=-1)
    return NodalApprox(s, rows.reshape(-1, 2) * np.asarray(s.h))


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "make_nodal",
    [
        lambda: mode_nodal(DomainSpec.torus((1.0, 1.0)), (16, 1), 8.0),
        lambda: mode_nodal(DomainSpec.torus((1.0, 1.0)), (3, 4), 32.0),
        lambda: mode_nodal(DomainSpec.torus((1.0, 1.3)), (2, 3), 24.0),  # unequal h
        lambda: mode_nodal(DomainSpec.torus((1.0, 2.0, 1.0)), (2, 1, 3), 8.0),
        pythagorean_ties_nodal,
        dense_block_nodal,  # its first pad fails the certificate
        seed_rows_nodal,
        torus_1d_nodal,
    ],
    ids=["torus-16-1", "torus-3-4", "torus-2-3-alpha-1.3", "3-torus", "pythagorean-ties",
         "second-pad", "seed-rows", "1-torus"],
)
def test_slab_field_is_bitwise_the_one_slab_field(make_nodal, workers, monkeypatch):
    nod = make_nodal()
    transforms = []

    def counted(a, **kwargs):
        transforms.append(a.shape)
        return distance_transform_edt(a, **kwargs)

    monkeypatch.setattr(distance_mod, "distance_transform_edt", counted)
    monkeypatch.setattr(distance_mod, "usable_cores", lambda: 1)
    one = whole_field(raster_seeds(nod))
    one_slab = len(transforms)
    monkeypatch.setattr(distance_mod, "usable_cores", lambda: workers)
    transforms.clear()
    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often
    try:
        got = whole_field(raster_seeds(nod))
    finally:
        sys.setswitchinterval(interval)
    # every slab worker is joined before full_range returns
    assert set(threading.enumerate()) <= before
    assert (len(transforms) > one_slab) == (workers > 1)
    assert got.shape == one.shape and got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), one.view(np.uint64))
    assert density_radius(raster_seeds(nod)) == float(one.max())


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_cap_guards_the_whole_padded_array(workers, edt_shapes, monkeypatch):
    nod = mode_nodal(DomainSpec.torus((1.0, 1.0)), (3, 4), 32.0)
    whole_field(raster_seeds(nod))
    padded = max(math.prod(shape) for shape in edt_shapes)
    monkeypatch.setattr(distance_mod, "usable_cores", lambda: workers)
    monkeypatch.setattr(distance_mod, "PADDED_POINT_CAP", padded - 1)
    with pytest.raises(ResourceGuardError, match=f"needs {padded} points"):
        whole_field(raster_seeds(nod))
    monkeypatch.setattr(distance_mod, "PADDED_POINT_CAP", padded)
    assert np.isfinite(whole_field(raster_seeds(nod))).all()


def test_slab_distance_field_peak_memory_yau_grid(monkeypatch):
    # the (16,1) Yau field (2519^2): the whole-grid transform and distance
    # temporaries peaked at 3.39x the field's bytes; two slabs written in row
    # pieces into the one output peak at about 2.75x
    monkeypatch.setattr(distance_mod, "usable_cores", lambda: 2)
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (16, 1))
    rule = ResolutionRule(points_per_wavelength=32.0, h_max=0.1 / mode.mu / 2.5)
    nod = extract_nodal(sample_grid(mode, rule))
    assert nod.sample.shape == (2519, 2519)
    tracemalloc.start()
    try:
        f = whole_field(raster_seeds(nod))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * f.nbytes


def test_density_radius_peak_memory_yau_grid(monkeypatch):
    # the (16,1) Yau grid (2519^2): the radius is the certified maximum of
    # the transform, so no field is formed; forming it first peaked at 2.7x
    # the grid's float64 bytes, the slabs alone peak at about 1.6x
    monkeypatch.setattr(distance_mod, "usable_cores", lambda: 2)
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (16, 1))
    rule = ResolutionRule(points_per_wavelength=32.0, h_max=0.1 / mode.mu / 2.5)
    seeds = grid_seeds(mode, rule).seeds
    assert seeds.mask.shape == (2519, 2519)
    tracemalloc.start()
    try:
        density_radius(seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 8 * seeds.mask.size


@st.composite
def sampled_modes(draw):
    """A builder of a sampled mode's nodal set: a torus, a box or the interval,
    1-3 axes, anisotropic alpha, and points per wavelength that give odd and
    even shapes."""
    n = draw(st.integers(1, 3))
    alpha = (1.0,) + tuple(draw(st.sampled_from([1.0, 1.3, 2.0])) for _ in range(n - 1))
    if draw(st.booleans()):
        domain = DomainSpec.torus(alpha)
    else:
        domain = DomainSpec.box(alpha) if n > 1 else DomainSpec.interval()
    m = tuple(draw(st.integers(1, 4 if n < 3 else 2)) for _ in range(n))
    ppw = draw(st.integers(5, 40 if n < 3 else 9)) + draw(st.sampled_from([0.0, 0.5]))
    return functools.partial(mode_nodal, domain, m, ppw)


def wide_torus_nodal():
    """Axis 1 has 320 points, so a reach of 150 cells pads it 151 cells, below
    its half-period clamp of 161: offsets past 127 without the clamp."""
    nod = mode_nodal(DomainSpec.torus((1.0, 1.0)), (1, 5), 64.0)
    assert nod.sample.shape == (64, 320)
    return nod


def stencil_masks(nod, reach, rows, widths):
    """``seed_stencils`` over the grid in windows of ``rows`` rows, each mask joined into one."""
    sample = nod.sample
    pads = capped_pads(sample.shape, sample.h, reach, sample.periodic)
    padded = np.pad(
        seed_mask(nod), [(p, p) for p in pads], mode="wrap" if sample.periodic else "constant"
    )
    s0, p0 = sample.shape[0], pads[0]
    windows = [
        seed_stencils(padded[a : min(a + rows, s0) + 2 * p0], pads, widths)
        for a in range(0, s0, rows)
    ]
    return [np.concatenate(masks) for masks in zip(*windows)]


def offset_distance(offset, h) -> float:
    """The float distance of a seed ``offset`` cells away: fl(l_j h_j) squared, summed in axis order."""
    total = 0.0
    for l, hj in zip(offset, h):
        step = l * hj
        total += step * step
    return math.sqrt(total)


@given(
    make_nodal=st.one_of(st.sampled_from(list(SCIPY_CASES.values())), sampled_modes()),
    cells=st.one_of(st.floats(0.5, 16.0), st.floats(128.0, 400.0)),
    margin=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    delta=st.floats(0.0, 24.0),
    data=st.data(),
)
@example(make_nodal=wide_torus_nodal, cells=150.0, margin=2.0, delta=9.0, data=None)
# every axis at its clamp
@example(make_nodal=wide_torus_nodal, cells=1e300, margin=2.0, delta=9.0, data=None)
@settings(max_examples=100, deadline=None)
def test_seed_stencils_are_the_float_predicates_below_the_reach(make_nodal, cells, margin,
                                                                delta, data):
    """The "in" and "near" stencils of a radius are those predicates of scipy's
    full-range field below the reach, false at and above it, at any margin and
    radius, also one equal to an offset's shifted distance; their widths pass
    exactly the window offsets whose distance passes; and the masks are the
    same in windows of one row and of the whole grid."""
    nod = make_nodal()
    h, periodic = nod.sample.h, nod.sample.periodic
    reach = cells * min(h)
    margin *= min(h)
    delta *= min(h)
    pads = capped_pads(nod.sample.shape, h, reach, periodic)
    if data is not None and data.draw(st.booleans(), label="tie"):
        # the radius on a predicate's boundary at some offset in the window
        offset = [data.draw(st.integers(0, p), label="offset") for p in pads]
        delta = offset_distance(offset, h) + data.draw(st.sampled_from([margin, -margin]))
    widths = [stencil_widths(h, pads, reach, shift, delta) for shift in (margin, -margin)]
    for wd, shift in zip(widths, (margin, -margin)):
        assert wd.shape == tuple(p + 1 for p in pads[:-1])
        for offset in np.ndindex(tuple(p + 1 for p in pads)):
            v = offset_distance(offset, h)
            assert (offset[-1] <= wd[offset[:-1]]) == (v < reach and v + shift < delta)
    one = stencil_masks(nod, reach, 1, widths)
    whole = stencil_masks(nod, reach, nod.sample.shape[0], widths)
    assert all(np.array_equal(a, b) for a, b in zip(one, whole))
    expect = scipy_distance_field(nod)
    below = expect < reach
    inside, near = one
    assert inside.shape == near.shape == expect.shape
    assert np.array_equal(inside, below & (expect + margin < delta))
    assert np.array_equal(near, below & (expect - margin < delta))


@given(
    periodic=st.booleans(),
    alpha=st.one_of(st.sampled_from((1.0, math.sqrt(2.0), math.pi)),
                    st.floats(0.01, 100.0, allow_subnormal=False)),
    n=st.one_of(st.integers(2, 6000), st.sampled_from((4556, 4557, 2519, 5000))),
)
@settings(max_examples=200, deadline=None)
def test_grid_coordinates_raster_to_their_index(periodic, alpha, n):
    """round(fl(k h) / h) = k for every index k < n: a vertex's coordinate on an
    axis other than its edge's rasterizes to its grid index without the float
    chain. (20, 21)'s tube grid has 4,556 points per axis."""
    domain = (DomainSpec.torus if periodic else DomainSpec.box)((alpha,))
    h = domain.lengths[0] / (n if periodic else n - 1)
    k = np.arange(n)
    assert np.array_equal(_raster_index(k * h, h, n, periodic), k)
