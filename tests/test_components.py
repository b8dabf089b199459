"""Sign components: checkerboard oracle, torus wrap stitching, inradii."""

import math

import numpy as np
import pytest

from nodalab.components import (
    SIGN_EPS,
    UnionFind,
    _label_periodic,
    component_inradii,
    sign_components,
)
from nodalab.distance import distance_field
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.nodal import extract_nodal
from nodalab.spectrum import DomainSpec, EigenMode

from translates import cosine_sample


def test_union_find_merges():
    uf = UnionFind(6)
    uf.union(1, 2)
    uf.union(4, 5)
    uf.union(2, 4)
    assert uf.find(1) == uf.find(5)
    assert uf.find(0) != uf.find(1)
    assert uf.find(3) == 3


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
