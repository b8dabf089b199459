"""Sign components: checkerboard oracle, torus wrap stitching, BFS labeling oracle, inradii."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nodalab.components import (
    SIGN_EPS,
    _label_periodic,
    component_inradii,
    sign_components,
)
from nodalab.distance import distance_field
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.nodal import extract_nodal
from nodalab.spectrum import DomainSpec, EigenMode

from translates import cosine_sample


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
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=32.0))
    comp = sign_components(s)
    field = distance_field(extract_nodal(s))
    inr = component_inradii(comp, field)
    assert inr.shape == (48,)
    # every domain is a pi/3 x pi/4 rectangle with inradius pi/8
    np.testing.assert_allclose(inr, math.pi / 8, rtol=0.06)


def test_unsigned_points_are_unlabeled():
    mode = EigenMode(DomainSpec.interval(), (8,))
    s = sample_grid(mode)  # 129 points, zeros exactly on grid
    comp = sign_components(s)
    assert (comp.labels == 0).sum() == 9
    assert comp.sizes.sum() + 9 == s.values.size
