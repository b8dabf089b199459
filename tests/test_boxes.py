"""Subdivision, exceptional sets, box classification, nodal boxes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalab.boxes import (
    bad_proportion,
    comparability_set,
    goodness_threshold,
    nodal_box_count,
    subdivide,
    unit_ball_volume,
)
from nodalab.errors import ResolutionError, ValidationError
from nodalab.grid import GridSample, ResolutionRule, sample_grid
from nodalab.nodal import NodalApprox, extract_nodal
from nodalab.spectrum import DomainSpec, EigenMode, tube_volume_exact


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-12)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-12)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-12)


def test_subdivide_examples():
    s = subdivide((1.0,), 0.3)
    assert s.counts == (2,)
    assert s.sides == (0.5,)
    s = subdivide((2 * math.pi,), 0.1)
    assert s.counts == (41,)
    assert s.sides[0] == pytest.approx(0.15324842212633139, rel=1e-12)
    with pytest.raises(ValidationError):
        subdivide((0.2,), 0.3)
    with pytest.raises(ValidationError):
        subdivide((0.6,), 0.3)  # L = 2*delta leaves no valid count
    for delta in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            subdivide((1.0,), delta)


@given(
    L=st.floats(min_value=0.5, max_value=30.0),
    delta=st.floats(min_value=1e-3, max_value=10.0),
)
@settings(max_examples=300, deadline=None)
def test_subdivide_side_window(L, delta):
    if L <= delta:
        with pytest.raises(ValidationError):
            subdivide((L,), delta)
        return
    try:
        s = subdivide((L,), delta)
    except ValidationError:
        # only possible when no integer count fits the open window
        assert not any(delta < L / N < 2 * delta for N in range(1, int(L / delta) + 2))
        return
    assert delta < s.sides[0] < 2 * delta
    assert s.counts[0] * s.sides[0] == pytest.approx(L, rel=1e-12)
    # tiling: edges span [0, L] exactly
    edges = s.edges(0)
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(L, rel=1e-12)
    assert np.all(np.diff(edges) > 0)


def test_subdivision_box_volume_tiles_cube():
    sub = subdivide((2 * math.pi, 2 * math.pi), 0.1)
    assert sub.n_boxes == 41 * 41
    assert sub.box_volume * sub.n_boxes == pytest.approx(4 * math.pi**2, rel=1e-12)
    assert max(sub.sides) / min(sub.sides) <= 5.0


def constant_sample(value=3.0):
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / 64))
    return GridSample(mode, s.h, s.shape, np.full(s.shape, value))


def test_constant_function_has_empty_exceptional_set():
    s = constant_sample()
    sub = subdivide(s.domain.lengths, 0.5)
    for A in (1.0001, 2.0, 10.0):
        mask, vol = comparability_set(s, sub, A)
        assert not mask.any()
        assert vol == 0.0


def test_exceptional_volume_golden_value():
    # interval mode 20, delta 0.02, A 10: frozen from this pipeline, and
    # stable within 10% under a 4x finer grid
    mode = EigenMode(DomainSpec.interval(), (20,))
    sub = subdivide(mode.domain.lengths, 0.02)
    s = sample_grid(mode, ResolutionRule(h_max=0.02 / 8))
    _, vol = comparability_set(s, sub, 10.0)
    assert vol == pytest.approx(0.329905, rel=1e-3)
    s4 = sample_grid(mode, ResolutionRule(h_max=0.02 / 32))
    _, vol4 = comparability_set(s4, sub, 10.0)
    assert abs(vol4 - vol) / vol4 < 0.10


def test_exceptional_volume_scales_like_mu_delta():
    mode = EigenMode(DomainSpec.interval(), (50,))
    ratios = []
    for mud in (0.1, 0.2, 0.4):
        d = mud / 50
        sub = subdivide(mode.domain.lengths, d)
        s = sample_grid(mode, ResolutionRule(h_max=d / 8))
        _, vol = comparability_set(s, sub, 10.0)
        ratios.append(vol / mud)
    assert max(ratios) / min(ratios) < 2.0


def test_exceptional_set_monotone_in_A():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    sub = subdivide(mode.domain.lengths, 0.3)
    s = sample_grid(mode, ResolutionRule(h_max=0.3 / 8))
    masks = [comparability_set(s, sub, A)[0] for A in (3.0, 10.0, 30.0)]
    assert np.all(masks[1] <= masks[0])
    assert np.all(masks[2] <= masks[1])


def test_comparability_guards():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=8.0))
    sub = subdivide(s.domain.lengths, 0.1)
    with pytest.raises(ResolutionError):
        comparability_set(s, sub, 10.0)  # fewer than 8 points per box side
    with pytest.raises(ValidationError):
        comparability_set(s, subdivide((1.0, 1.0), 0.1), 10.0)  # wrong cube
    with pytest.raises(ValidationError):
        comparability_set(s, subdivide(s.domain.lengths, 0.9), 1.0)  # A <= 1
    for A in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="A must lie in"):
            comparability_set(s, subdivide(s.domain.lengths, 0.9), A)
    zero = GridSample(s.mode, s.h, s.shape, np.zeros(s.shape))
    with pytest.raises(ValidationError):
        comparability_set(zero, subdivide(s.domain.lengths, 0.9), 10.0)


def test_classification_threshold():
    assert goodness_threshold(2) == pytest.approx(math.pi * 1e-4, rel=1e-12)
    # two boxes of about 1000 grid points each; a 1-d box is good below 2%
    mode = EigenMode(DomainSpec.interval(), (1,))
    sub = subdivide(mode.domain.lengths, 1.0)
    s = sample_grid(mode, ResolutionRule(h_max=min(sub.sides) / 1000))
    assert sub.counts == (2,) and goodness_threshold(1) == pytest.approx(0.02)
    mask = np.zeros(s.shape, dtype=bool)
    mask[:15] = True  # 1.5% of the first box
    mask[-25:] = True  # 2.5% of the second
    assert bad_proportion(s, sub, mask) == 0.5


def test_e_empty_all_good_and_full_all_bad():
    s = constant_sample()
    sub = subdivide(s.domain.lengths, 0.5)
    mask, _ = comparability_set(s, sub, 10.0)
    assert bad_proportion(s, sub, mask) == 0.0
    assert bad_proportion(s, sub, np.ones(s.shape, dtype=bool)) == 1.0


def test_nodal_box_count_interval():
    mode = EigenMode(DomainSpec.interval(), (8,))
    delta = 0.05  # zero spacing pi/8 is approximately 0.39 > 2*delta
    sub = subdivide(mode.domain.lengths, delta)
    s = sample_grid(mode, ResolutionRule(h_max=min(sub.sides) / 8))
    nb = nodal_box_count(sub, extract_nodal(s))
    assert nb.count == 9
    assert nb.mask.sum() == 9


def test_nodal_box_count_torus_band_and_tube_cover():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    delta = 0.05
    sub = subdivide(mode.domain.lengths, delta)
    s = sample_grid(mode, ResolutionRule(h_max=min(sub.sides) / 8))
    nb = nodal_box_count(sub, extract_nodal(s))
    assert nb.count == 1114
    # count scales like mu/delta with a moderate constant
    assert nb.count * delta / mode.mu < 20.0
    # the starred union of nodal boxes contains the delta-tube
    assert nb.star_volume >= tube_volume_exact(mode, delta)


def test_nodal_box_count_empty():
    s = constant_sample()
    sub = subdivide(s.domain.lengths, 0.5)
    nod = NodalApprox(s, np.empty((0, 2)))
    nb = nodal_box_count(sub, nod)
    assert nb.count == 0
    assert nb.star_volume == 0.0
