"""Nodal extraction: vertex counts, segment measure, saddle handling."""

import math

import numpy as np
import pytest

from nodalab.boxes import _sign_change_cells
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.nodal import extract_nodal
from nodalab.spectrum import (
    COS,
    SIN,
    DomainSpec,
    EigenMode,
    eval_mode,
    nodal_measure_exact,
)


def test_interval_vertices_are_the_zeros():
    k = 10
    mode = EigenMode(DomainSpec.interval(), (k,))
    nod = extract_nodal(sample_grid(mode))
    assert nod.vertices.shape == (k + 1, 1)
    got = np.sort(nod.vertices[:, 0])
    np.testing.assert_allclose(got, np.arange(k + 1) * math.pi / k, atol=1e-12)
    assert not nod.empty


def test_torus_circle_cosine_vertex_count():
    mode = EigenMode(DomainSpec.torus((1.0,)), (1,), (COS,))
    nod = extract_nodal(sample_grid(mode))
    assert nod.vertices.shape[0] == 2
    got = np.sort(nod.vertices[:, 0])
    np.testing.assert_allclose(got, [math.pi / 2, 3 * math.pi / 2], atol=5e-3)


def test_segment_measure_matches_exact_torus():
    # segments under-count by O(h) per line crossing (corners get cut at the
    # 4mn crossings), so the error window is one-sided: small deficit, no excess
    cases = [
        ((3, 4), (SIN, SIN)),
        ((5, 5), (SIN, COS)),
        ((1, 6), (COS, COS)),
    ]
    for m, kinds in cases:
        mode = EigenMode(DomainSpec.torus((1.0, 1.0)), m, kinds)
        nod = extract_nodal(sample_grid(mode, ResolutionRule(points_per_wavelength=48.0)))
        exact = nodal_measure_exact(mode)
        rel = (nod.measure_2d - exact) / exact
        assert -0.04 < rel < 0.005


def test_segment_measure_deficit_shrinks_with_h():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    exact = nodal_measure_exact(mode)
    errs = []
    for ppw in (24.0, 48.0, 96.0):
        nod = extract_nodal(sample_grid(mode, ResolutionRule(points_per_wavelength=ppw)))
        errs.append(abs(nod.measure_2d - exact))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.6 * errs[0]


def test_weighted_torus_segment_measure():
    # alpha = (1, 2): the second axis has period pi and zero spacing pi/(2m)
    mode = EigenMode(DomainSpec.torus((1.0, 2.0)), (2, 3))
    nod = extract_nodal(sample_grid(mode, ResolutionRule(points_per_wavelength=48.0)))
    exact = nodal_measure_exact(mode)
    assert exact == pytest.approx((2 * 2) * math.pi + (2 * 3) * 2 * math.pi, rel=1e-12)
    rel = (nod.measure_2d - exact) / exact
    assert -0.04 < rel < 0.005


def test_on_grid_lines_reconstruct_exactly():
    # one zero-line family, every line exactly on grid, no crossings:
    # each line must be emitted exactly once at full length
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (4, 0), (SIN, COS))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / 160))
    assert s.shape == (160, 160)
    nod = extract_nodal(s)
    exact = nodal_measure_exact(mode)
    assert exact == pytest.approx(8 * 2 * math.pi, rel=1e-12)
    assert abs(nod.measure_2d - exact) / exact < 1e-12


def test_on_grid_crossings_stay_close():
    # both families on grid: crossings sit exactly on grid corners, the
    # degenerate cells contribute O(h) length error but nothing is dropped
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (4, 5))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / 160))
    assert s.shape == (160, 160)
    nod = extract_nodal(s)
    exact = nodal_measure_exact(mode)
    assert abs(nod.measure_2d - exact) / exact < 0.05


def test_saddles_resolved_by_center_sign():
    # odd N leaves the line crossings at (pi, *) off grid: corner signs alternate
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / 21))
    assert s.shape == (21, 21)
    v = s.values
    pos = v >= 0
    a = pos
    d = np.roll(pos, -1, axis=1)
    b = np.roll(a, -1, axis=0)
    c = np.roll(d, -1, axis=0)
    pattern = a * 1 + b * 2 + c * 4 + d * 8
    assert np.isin(pattern, (5, 10)).any()
    nod = extract_nodal(s)
    exact = nodal_measure_exact(mode)
    rel = (nod.measure_2d - exact) / exact
    assert -0.06 < rel < 0.005


def test_segment_endpoints_lie_on_nodal_set():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (2, 3), (COS, SIN))
    nod = extract_nodal(sample_grid(mode, ResolutionRule(points_per_wavelength=24.0)))
    ends = nod.segments.reshape(-1, 2)
    residual = np.abs(eval_mode(mode, ends))
    # linear interpolation of a factor over one grid step: O((m h)^2) residual
    assert residual.max() < 5e-3


def test_cells_flag_every_sign_change():
    # the cells nodal box counting marks, computed from the sample's signs
    mode = EigenMode(DomainSpec.box((1.0, 1.0)), (3, 2))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=16.0))
    flagged = np.zeros((s.shape[0] - 1, s.shape[1] - 1), dtype=bool)
    flagged[tuple(_sign_change_cells(s).T)] = True
    v = s.values
    corners = np.stack([v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]])
    has_change = ~((corners > 0).all(axis=0) | (corners < 0).all(axis=0))
    assert np.array_equal(flagged, has_change)
