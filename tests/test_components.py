"""Sign components: checkerboard oracle, torus wrap stitching, BFS labeling oracle, inradii."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nodalab.components as components_mod
import nodalab.distance as distance_mod
import nodalab.measures as measures_mod
from nodalab.components import _label_periodic, component_inradii, sign_components
from nodalab.grid import GridSample, ResolutionRule, sample_grid
from nodalab.measures import SIGN_EPS, GridSigns, grid_seeds
from nodalab.spectrum import DomainSpec, EigenMode

from scipy_field import raster_seeds
from translates import cosine_sample
from whole_field import whole_field
from whole_grid import extract_nodal


def whole_grid_signs(sample) -> GridSigns:
    """The seeds and sign masks of a whole sample: the reference ``grid_seeds`` equals."""
    v = sample.values
    return GridSigns(raster_seeds(extract_nodal(sample)), v > SIGN_EPS, v < -SIGN_EPS)


def flood_fill(mask, periodic):
    """Brute-force labeling: a breadth-first search over the 2n axis neighbours of each point."""
    lab = np.zeros(mask.shape, dtype=np.int64)
    k = 0
    for start in zip(*np.nonzero(mask)):
        if lab[start]:
            continue
        k += 1
        lab[start] = k
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for axis, side in enumerate(mask.shape):
                for step in (-1, 1):
                    i = p[axis] + step
                    if periodic:
                        i %= side
                    elif not 0 <= i < side:
                        continue
                    q = p[:axis] + (i,) + p[axis + 1 :]
                    if mask[q] and not lab[q]:
                        lab[q] = k
                        queue.append(q)
    return lab, k


# one domain only through two seams: (0,0) meets (4,0) across axis 0's seam,
# and (4,0) meets (4,4) across axis 1's
TWO_SEAM_CHAIN = np.zeros((5, 5), dtype=bool)
TWO_SEAM_CHAIN[[0, 4, 4], [0, 0, 4]] = True
# the same through all three seams of a 3-d grid
THREE_SEAM_CHAIN = np.zeros((3, 4, 5), dtype=bool)
THREE_SEAM_CHAIN[[0, 2, 2, 2], [0, 0, 3, 3], [0, 0, 0, 4]] = True


@given(
    mask=st.lists(st.integers(1, 6), min_size=1, max_size=3).flatmap(
        lambda shape: arrays(np.bool_, tuple(shape))
    ),
    periodic=st.booleans(),
)
@example(mask=TWO_SEAM_CHAIN, periodic=True)
@example(mask=THREE_SEAM_CHAIN, periodic=True)
@example(mask=np.array([True, False, True]), periodic=True)
@settings(max_examples=300, deadline=None)
def test_label_periodic_matches_flood_fill(mask, periodic):
    lab, roots = _label_periodic(mask, periodic)
    lab, k = roots[lab], int(roots.max())
    ref, k_ref = flood_fill(mask, periodic)
    assert k == k_ref
    assert np.all(lab[~mask] == 0)
    assert sorted(set(lab[mask].tolist())) == list(range(1, k + 1))
    # the same partition, in the same order: each domain is numbered by its first point
    np.testing.assert_array_equal(lab, ref)


def test_torus_checkerboard_counts():
    # sine/sine product: sign pattern is a 2m x 2n checkerboard
    for m, n in [(3, 4), (2, 2), (1, 5)]:
        mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (m, n))
        comp = sign_components(grid_seeds(mode, ResolutionRule(points_per_wavelength=16.0)))
        assert comp.count == 4 * m * n
        assert (comp.signs == 1).sum() == 2 * m * n
        assert (comp.signs == -1).sum() == 2 * m * n


def test_torus_wrap_stitches_seam_components():
    # a sine factor has a zero line on the seam, its cosine translate puts the
    # seam inside domains; without stitching the count would exceed the 4mn oracle
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (2, 3))
    s = cosine_sample(mode, ("cos", "cos"), ResolutionRule(points_per_wavelength=16.0))
    signs = whole_grid_signs(s)
    comp = sign_components(signs)
    assert comp.count == 4 * 2 * 3
    masks = (signs.pos, signs.neg)
    assert sum(_label_periodic(mask, False)[1].size - 1 for mask in masks) > comp.count


def test_strip_mode_with_constant_axis():
    # the m = 0 axis has no zero line: every strip crosses its seam
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (4, 0))
    comp = sign_components(grid_seeds(mode, ResolutionRule(points_per_wavelength=16.0)))
    assert comp.count == 2 * 4


def test_box_mode_counts():
    mode = EigenMode(DomainSpec.box((1.0, 1.0)), (3, 2))
    comp = sign_components(grid_seeds(mode, ResolutionRule(points_per_wavelength=16.0)))
    assert comp.count == 3 * 2


def test_interval_counts():
    mode = EigenMode(DomainSpec.interval(), (7,))
    comp = sign_components(grid_seeds(mode, ResolutionRule()))
    assert comp.count == 7
    assert np.all(comp.sizes > 0)


def test_component_areas_match_cells():
    # open domains lose the on-line grid points, so point-count areas carry a
    # one-sided deficit of about 2/p for p points per rectangle side
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    comp = sign_components(grid_seeds(mode, ResolutionRule(points_per_wavelength=256.0)))
    cell_area = (math.pi / 3) * (math.pi / 4)
    assert 0.965 * cell_area < comp.areas.min() <= comp.areas.max() < 1.005 * cell_area
    assert comp.areas.sum() == pytest.approx(4 * math.pi**2, rel=0.03)


def test_component_inradii_rectangles():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    signs = grid_seeds(mode, ResolutionRule(points_per_wavelength=32.0))
    assert sign_components(signs).count == 48
    # every domain is a pi/3 x pi/4 rectangle with inradius pi/8
    assert component_inradii(signs) == pytest.approx(math.pi / 8, rel=0.06)


def test_unsigned_points_are_unlabeled():
    mode = EigenMode(DomainSpec.interval(), (8,))
    signs = grid_seeds(mode, ResolutionRule())  # 129 points, zeros exactly on grid
    comp = sign_components(signs)
    assert np.count_nonzero(~signs.pos & ~signs.neg) == 9
    assert comp.sizes.sum() + 9 == signs.pos.size


def dim2_fine_signs():
    """dim2's (5,5) torus mode at 256 points per wavelength (1280^2)."""
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (5, 5))
    signs = grid_seeds(mode, ResolutionRule(points_per_wavelength=256.0))
    assert signs.pos.shape == (1280, 1280)
    return signs


def traced_sign_components(signs, workers, monkeypatch):
    """``sign_components`` on ``workers`` usable cores, and its tracemalloc peak."""
    monkeypatch.setattr(components_mod, "usable_cores", lambda: workers)
    tracemalloc.start()
    try:
        comp = sign_components(signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return comp, peak


def test_sign_components_peak_memory_dim2_grid(monkeypatch):
    # the grid's float64 bytes are the unit, though no float grid is formed. The
    # two signs labeled on two threads hold two int32 label arrays at once and
    # peak at 1.08x (14.2 MB). Labeling a float sample's signs one after the
    # other into one array peaked at 1.13x; bound: 1.25x, about 16% over
    signs = dim2_fine_signs()
    comp, peak = traced_sign_components(signs, 2, monkeypatch)
    assert comp.count == 100
    assert peak < 1.25 * 8 * signs.pos.size


def test_sign_components_count_sizes_a_block_of_rows_at_a_time(monkeypatch):
    # the grid above on one usable core: one int32 label array at a time, and
    # bincount's int64 copy of one block of its rows, peak at 0.54x the grid's
    # float64 bytes (7.1 MB); over the whole label array the copy alone is
    # 1.0x. Bound: 0.625x, about 16% over
    signs = dim2_fine_signs()
    comp, peak = traced_sign_components(signs, 1, monkeypatch)
    assert comp.sizes.dtype == np.int64
    assert comp.sizes.sum() == np.count_nonzero(signs.pos) + np.count_nonzero(signs.neg)
    assert peak < 0.625 * 8 * signs.pos.size


def hand_sample(values, periodic):
    domain = DomainSpec.torus((1.0, 1.0)) if periodic else DomainSpec.box((1.0, 1.0))
    values = np.asarray(values, dtype=float)
    return GridSample(EigenMode(domain, (1, 1)), (0.5, 0.25), values.shape, values)


def flood_fill_labels(values, periodic):
    """The expected labels: flood-fill positive domains 1..k_pos, then the negative ones."""
    pos, k_pos = flood_fill(values > SIGN_EPS, periodic)
    neg, _ = flood_fill(values < -SIGN_EPS, periodic)
    return np.where(neg > 0, neg + k_pos, pos)


def assert_flood_fill_domains(comp, values, periodic, cell_volume):
    """Count, signs, sizes and areas bitwise those of ``flood_fill_labels``."""
    labels = flood_fill_labels(values, periodic)
    k_pos = flood_fill(values > SIGN_EPS, periodic)[1]
    sizes = np.bincount(labels.ravel(), minlength=comp.count + 1)[1:]
    assert comp.count == int(labels.max())
    assert comp.signs.tolist() == [1] * k_pos + [-1] * (comp.count - k_pos)
    assert comp.signs.dtype == comp.sizes.dtype == np.int64
    assert comp.sizes.tolist() == sizes.tolist()
    assert comp.areas.tobytes() == (sizes * cell_volume).tobytes()


# two positive domains on the flat grid that meet across axis 1's seam
ONLY_POSITIVE = [[1, 0, 2, 3], [1, 0, 0, 4], [0, 0, 0, 0]]
# two domains of each sign; rows 0-1 and row 3 carry signed seam points
TWO_SIGNS = [
    [1, 0, -1, -1, 0, 1],
    [1, 0, -1, -1, 0, 1],
    [0, 0, 0, 0, 0, 0],
    [-1, 0, 1, 1, 0, -1],
]
EDGE_CASES = {
    # values, periodic, signs, sizes
    "positive-flat": (ONLY_POSITIVE, False, [1, 1], [2, 3]),
    "positive-torus": (ONLY_POSITIVE, True, [1], [5]),
    "negative-flat": (-np.asarray(ONLY_POSITIVE), False, [-1, -1], [2, 3]),
    "negative-torus": (-np.asarray(ONLY_POSITIVE), True, [-1], [5]),
    "unsigned-flat": ([[0.0, SIGN_EPS], [-SIGN_EPS, 0.0]], False, [], []),
    "unsigned-torus": ([[0.0, SIGN_EPS], [-SIGN_EPS, 0.0]], True, [], []),
    "two-signs-flat": (TWO_SIGNS, False, [1, 1, 1, -1, -1, -1], [2, 2, 2, 4, 1, 1]),
    "two-signs-torus": (TWO_SIGNS, True, [1, 1, -1, -1], [4, 2, 4, 2]),
}


@pytest.mark.parametrize("values, periodic, signs, sizes", EDGE_CASES.values(), ids=EDGE_CASES)
def test_sign_components_edge_cases(values, periodic, signs, sizes):
    s = hand_sample(values, periodic)
    comp = sign_components(whole_grid_signs(s))
    assert comp.count == len(signs)
    assert comp.signs.tolist() == signs and comp.sizes.tolist() == sizes
    # positives first, each sign numbered by its first point in raster order
    assert_flood_fill_domains(comp, s.values, periodic, 0.125)


@given(
    values=st.lists(st.integers(1, 7), min_size=1, max_size=3).flatmap(
        lambda shape: arrays(np.float64, tuple(shape),
                             elements=st.sampled_from([-1.0, -1e-13, 0.0, 1e-13, 1.0]))
    ),
    periodic=st.booleans(),
    workers=st.integers(1, 3),
)
@example(values=TWO_SEAM_CHAIN - 0.5, periodic=True, workers=2)
@example(values=THREE_SEAM_CHAIN - 0.5, periodic=True, workers=3)
@settings(max_examples=200, deadline=None)
def test_sign_components_match_flood_fill_on_drawn_grids(values, periodic, workers):
    """1-3 axes, on 1-3 usable cores: the two signs' domains are flood fill's."""
    h = (0.5, 0.25, 2.0)[: values.ndim]
    seeds = distance_mod.Seeds(np.zeros(values.shape, dtype=bool), h, periodic)
    signs = GridSigns(seeds, values > SIGN_EPS, values < -SIGN_EPS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(components_mod, "usable_cores", lambda: workers)
        comp = sign_components(signs)
    assert_flood_fill_domains(comp, values, periodic, float(np.prod(np.asarray(h))))


def folded_and_field_maxima(sample, workers, block_points=None):
    """The largest inner radius from ``component_inradii`` and from ``np.maximum.at``
    over the whole field per flood-fill domain, with ``workers`` slab threads, and
    the number of transforms the fold ran."""
    signs = whole_grid_signs(sample)
    transforms = []
    edt = distance_mod.distance_transform_edt

    def counted(a, **kwargs):
        transforms.append(a.shape)
        return edt(a, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance_mod, "usable_cores", lambda: workers)
        if block_points is not None:
            mp.setattr(distance_mod, "ROW_BLOCK_POINTS", block_points)
        mp.setattr(distance_mod, "distance_transform_edt", counted)
        got = component_inradii(signs)
        mp.setattr(distance_mod, "distance_transform_edt", edt)
        dist = whole_field(signs.seeds)
    labels = flood_fill_labels(sample.values, sample.periodic)
    want = np.zeros(labels.max() + 1)
    np.maximum.at(want, labels.ravel(), dist.ravel())
    # no seeds: the field is inf everywhere, also where no point is signed
    top = want[1:].max(initial=0.0) if signs.seeds.mask.any() else math.inf
    return got, top, len(transforms)


def assert_bitwise(got, want):
    assert type(got) is float
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def dense_corner_values():
    """Positive but for a checkerboard in one 16^2 corner of a 64^2 torus: the seed
    density suggests a pad of a few cells, the far points lie about 24 rows away."""
    values = np.ones((64, 64))
    i, j = np.indices((16, 16))
    values[:16, :16] = (-1.0) ** (i + j)
    return values


FOLD_CASES = {
    # sample, transforms of one slab per attempt
    "second-pad": (lambda: hand_sample(dense_corner_values(), True), 2),
    # exact zero lines: unsigned points, label 0
    "unsigned-torus": (lambda: sample_grid(EigenMode(DomainSpec.torus((1.0, 1.0)), (2, 3)),
                                           ResolutionRule(points_per_wavelength=16.0)), 1),
    "unsigned-box": (lambda: sample_grid(EigenMode(DomainSpec.box((1.0, 1.3)), (2, 1)),
                                         ResolutionRule(points_per_wavelength=16.0)), 1),
    # no sign change and no zero: an empty nodal set, one domain and unsigned points
    "empty-torus": (lambda: hand_sample([[1.0, 1e-13, 1.0], [1.0, 2.0, 1.0]], True), 0),
    "empty-box": (lambda: hand_sample([[1.0, 1e-13, 1.0], [1.0, 2.0, 1.0]], False), 0),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("make_sample, attempts", FOLD_CASES.values(), ids=FOLD_CASES)
def test_folded_maxima_are_bitwise_the_fields(make_sample, attempts, workers):
    sample = make_sample()
    got, want, _ = folded_and_field_maxima(sample, workers)
    assert_bitwise(got, want)
    _, _, transforms = folded_and_field_maxima(sample, 1)
    assert transforms == attempts
    if attempts == 0:  # no seeds: the radius is inf, as the field's maximum
        assert math.isinf(got)
    else:
        assert math.isfinite(got) and got > 0.0


@given(
    values=st.tuples(st.integers(2, 24), st.integers(2, 24)).flatmap(
        lambda shape: arrays(
            np.float64, shape, elements=st.sampled_from([-1.0, -0.25, 0.0, 1e-13, 0.5, 1.0])
        )
    ),
    periodic=st.booleans(),
    workers=st.integers(1, 3),
    block_points=st.integers(1, 64),
)
@example(values=dense_corner_values(), periodic=True, workers=3, block_points=64)
@settings(max_examples=150, deadline=None)
def test_folded_maxima_match_maximum_at_over_the_field(values, periodic, workers, block_points):
    """Drawn torus and box grids, in 1-3 slabs and blocks of a few rows."""
    got, want, _ = folded_and_field_maxima(hand_sample(values, periodic), workers, block_points)
    assert_bitwise(got, want)


def test_dim2_inradii_chain_peak_memory(monkeypatch):
    # dim2's (5,5) chain on its 1280^2 fine grid, two workers everywhere: the
    # seed and sign masks in one parallel pass, the labels, the inner radius.
    # Unit: the grid's float64 bytes (13.1 MB), though no float grid is formed.
    # Sampling the grid, labeling it and folding per-domain maxima over the
    # held labels peaked at 2.36x (30.9 MB); the masked max over the held sign
    # masks peaks at 2.11-2.19x (27.6-28.7 MB), in the transform. Bound: 2.5x,
    # about 14% over that
    monkeypatch.setattr(distance_mod, "usable_cores", lambda: 2)
    monkeypatch.setattr(components_mod, "usable_cores", lambda: 2)
    monkeypatch.setattr(measures_mod, "usable_cores", lambda: 2)
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (5, 5))
    tracemalloc.start()
    try:
        signs = grid_seeds(mode, ResolutionRule(points_per_wavelength=256.0))
        comp = sign_components(signs)
        inradius = component_inradii(signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert signs.pos.shape == (1280, 1280) and comp.count == 100
    assert inradius == pytest.approx(math.pi / 10, rel=0.05)
    assert peak < 2.5 * 8 * signs.pos.size
