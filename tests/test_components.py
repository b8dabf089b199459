"""Sign components: checkerboard oracle, torus wrap stitching, BFS labeling oracle, inradii."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nodalab.distance as distance_mod
from nodalab.components import (
    SIGN_EPS,
    _label_periodic,
    component_inradii,
    sign_components,
)
from nodalab.grid import GridSample, ResolutionRule, sample_grid
from nodalab.measures import grid_seeds
from nodalab.nodal import extract_nodal
from nodalab.spectrum import DomainSpec, EigenMode

from scipy_field import raster_seeds
from translates import cosine_sample
from whole_field import whole_field


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
    lab, k = _label_periodic(mask, periodic)
    ref, k_ref = flood_fill(mask, periodic)
    assert k == k_ref
    assert np.all(lab[~mask] == 0)
    assert sorted(set(lab[mask].tolist())) == list(range(1, k + 1))
    # the same partition: each flood-fill domain carries exactly one label
    assert len(set(zip(ref[mask].tolist(), lab[mask].tolist()))) == k


def test_torus_checkerboard_counts():
    # sine/sine product: sign pattern is a 2m x 2n checkerboard
    for m, n in [(3, 4), (2, 2), (1, 5)]:
        mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (m, n))
        s = sample_grid(mode, ResolutionRule(points_per_wavelength=16.0))
        comp = sign_components(s)
        assert comp.count == 4 * m * n
        assert (comp.signs == 1).sum() == 2 * m * n
        assert (comp.signs == -1).sum() == 2 * m * n


def test_torus_wrap_stitches_seam_components():
    # a sine factor has a zero line on the seam, its cosine translate puts the
    # seam inside domains; without stitching the count would exceed the 4mn oracle
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (2, 3))
    s = cosine_sample(mode, ("cos", "cos"), ResolutionRule(points_per_wavelength=16.0))
    comp = sign_components(s)
    assert comp.count == 4 * 2 * 3
    masks = (s.values > SIGN_EPS, s.values < -SIGN_EPS)
    assert sum(_label_periodic(mask, False)[1] for mask in masks) > comp.count


def test_strip_mode_with_constant_axis():
    # the m = 0 axis has no zero line: every strip crosses its seam
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (4, 0))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=16.0))
    comp = sign_components(s)
    assert comp.count == 2 * 4


def test_box_mode_counts():
    mode = EigenMode(DomainSpec.box((1.0, 1.0)), (3, 2))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=16.0))
    comp = sign_components(s)
    assert comp.count == 3 * 2


def test_interval_counts():
    mode = EigenMode(DomainSpec.interval(), (7,))
    s = sample_grid(mode)
    comp = sign_components(s)
    assert comp.count == 7
    assert np.all(comp.sizes > 0)


def test_component_areas_match_cells():
    # open domains lose the on-line grid points, so point-count areas carry a
    # one-sided deficit of about 2/p for p points per rectangle side
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=256.0))
    comp = sign_components(s)
    cell_area = (math.pi / 3) * (math.pi / 4)
    assert 0.965 * cell_area < comp.areas.min() <= comp.areas.max() < 1.005 * cell_area
    assert comp.areas.sum() == pytest.approx(4 * math.pi**2, rel=0.03)


def test_component_inradii_rectangles():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    rule = ResolutionRule(points_per_wavelength=32.0)
    comp = sign_components(sample_grid(mode, rule))
    inr = component_inradii(comp, grid_seeds(mode, rule))
    assert inr.shape == (48,)
    # every domain is a pi/3 x pi/4 rectangle with inradius pi/8
    np.testing.assert_allclose(inr, math.pi / 8, rtol=0.06)


def test_unsigned_points_are_unlabeled():
    mode = EigenMode(DomainSpec.interval(), (8,))
    s = sample_grid(mode)  # 129 points, zeros exactly on grid
    comp = sign_components(s)
    assert (comp.labels == 0).sum() == 9
    assert comp.sizes.sum() + 9 == s.values.size


def test_sign_components_peak_memory_dim2_grid():
    # dim2's (5,5) torus mode at 256 points per wavelength (1280^2). An int64
    # label array rewritten once per sign peaked at 3.26x the values' bytes
    # (42.7 MB) over the held sample; one int32 array with the negatives added
    # in place peaks at 1.50x (19.7 MB), at bincount's int64 copy of it
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (5, 5))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=256.0))
    assert s.shape == (1280, 1280)
    tracemalloc.start()
    try:
        comp = sign_components(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.count == 100
    assert peak < 2.0 * s.values.nbytes


def test_sign_components_count_sizes_a_block_of_rows_at_a_time():
    # the grid above. bincount over the whole label array took an int64 copy
    # of it and peaked at 1.50x the values' bytes; counted over row blocks the
    # peak is the two int32 label arrays at the negatives' relabel, 1.13x
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (5, 5))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=256.0))
    tracemalloc.start()
    try:
        comp = sign_components(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.sizes.dtype == np.int64 and comp.sizes.sum() == np.count_nonzero(comp.labels)
    assert peak < 1.25 * s.values.nbytes


def hand_sample(values, periodic):
    domain = DomainSpec.torus((1.0, 1.0)) if periodic else DomainSpec.box((1.0, 1.0))
    values = np.asarray(values, dtype=float)
    return GridSample(EigenMode(domain, (1, 1)), (0.5, 0.25), values.shape, values)


def flood_fill_labels(values, periodic):
    """The expected labels: flood-fill positive domains 1..k_pos, then the negative ones."""
    pos, k_pos = flood_fill(values > SIGN_EPS, periodic)
    neg, _ = flood_fill(values < -SIGN_EPS, periodic)
    return np.where(neg > 0, neg + k_pos, pos)


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
    comp = sign_components(s)
    assert comp.count == len(signs)
    assert comp.signs.tolist() == signs and comp.sizes.tolist() == sizes
    assert comp.signs.dtype == comp.sizes.dtype == np.int64
    assert comp.labels.dtype == np.int32
    # positives first, each sign numbered by its first point in raster order
    np.testing.assert_array_equal(comp.labels, flood_fill_labels(s.values, periodic))


def folded_and_field_maxima(sample, workers, block_points=None):
    """Per-domain radii from ``component_inradii`` and from ``np.maximum.at`` over
    the whole field, with ``workers`` slab threads, and the number of
    transforms the fold ran."""
    comp = sign_components(sample)
    seeds = raster_seeds(extract_nodal(sample))
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
        got = component_inradii(comp, seeds)
        mp.setattr(distance_mod, "distance_transform_edt", edt)
        dist = whole_field(seeds)
    want = np.zeros(comp.count + 1)
    np.maximum.at(want, comp.labels.ravel(), dist.ravel())
    return got, want[1:], len(transforms)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
    if attempts == 0:  # no seeds: every domain's radius is inf, as the field's maximum
        assert got.size == 1 and np.isinf(got).all()
    else:
        assert np.isfinite(got).all()


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
    # dim2's (5,5) chain on its 1280^2 fine grid, two slab workers: sample,
    # labels, values freed, seed mask, inner radii. With the full-range field
    # formed beside the held values the chain peaked at 4.39x the values'
    # bytes (57.5 MB); folding each block into per-domain maxima after the
    # values are freed peaks at 2.36x (30.9 MB), in the transform. Bound: 2.75x,
    # about 16% over that
    monkeypatch.setattr(distance_mod, "usable_cores", lambda: 2)
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (5, 5))
    tracemalloc.start()
    try:
        rule = ResolutionRule(points_per_wavelength=256.0)
        fine = sample_grid(mode, rule)
        grid_bytes = fine.values.nbytes
        comp = sign_components(fine)
        del fine
        seeds = grid_seeds(mode, rule)
        inradii = component_inradii(comp, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seeds.mask.shape == (1280, 1280) and inradii.shape == (100,)
    assert peak < 2.75 * grid_bytes
