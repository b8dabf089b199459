"""Grid sampling: exact zero stamping, sign fidelity, shape rules, guards."""

import math

import numpy as np
import pytest

from nodalab.errors import ResourceGuardError, ValidationError
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.spectrum import DomainSpec, EigenMode, eval_mode


def grid_axes(sample):
    """Coordinates of the grid points along each axis."""
    return [np.arange(n) * h for n, h in zip(sample.shape, sample.h)]


def meshpoints(sample):
    grids = np.meshgrid(*grid_axes(sample), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def test_interval_on_grid_zeros_are_exact():
    # ppw=32, m=8: h = 2pi/(8*32), N = 129, so N-1 = 128 is a multiple of m
    mode = EigenMode(DomainSpec.interval(), (8,))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=32.0))
    assert s.shape == (129,)
    i = np.arange(129)
    on_zero = (8 * i) % 128 == 0
    assert np.all(s.values[on_zero] == 0.0)
    assert np.all(s.values[~on_zero] != 0.0)


def test_torus_sine_zeros_are_exact():
    # m=4: zeros at phase k pi, grid indices with 8 i % N == 0; 2m = 8 divides
    # N = 32 (every zero on grid) but not N = 30 (only x = 0 and pi on grid)
    mode = EigenMode(DomainSpec.torus((1.0,)), (4,))
    for npts, on_grid in ((32, 8), (30, 2)):
        s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / npts))
        assert s.shape == (npts,)
        on_zero = (8 * np.arange(npts)) % npts == 0
        assert np.count_nonzero(on_zero) == on_grid
        assert np.all(s.values[on_zero] == 0.0)
        assert np.all(s.values[~on_zero] != 0.0)


def test_values_match_direct_evaluation():
    # ppw 7: 2m divides no torus axis's N, so zero lines fall off grid
    for dom, m in [
        (DomainSpec.torus((1.0, 1.0)), (3, 4)),
        (DomainSpec.box((1.0, 2.0)), (3, 2)),
        (DomainSpec.torus((1.0, 0.5)), (2, 5)),
        (DomainSpec.torus((1.0, math.sqrt(2.0))), (0, 3)),
    ]:
        mode = EigenMode(dom, m)
        s = sample_grid(mode, ResolutionRule(points_per_wavelength=7.0))
        direct = eval_mode(mode, meshpoints(s)).reshape(s.shape)
        np.testing.assert_allclose(s.values, direct, atol=1e-10)


def test_box_grid_includes_endpoints_torus_excludes_wrap():
    box = sample_grid(EigenMode(DomainSpec.box((1.0, 1.0)), (2, 3)))
    for j, ax in enumerate(grid_axes(box)):
        assert ax[0] == 0.0
        assert math.isclose(ax[-1], box.domain.lengths[j], rel_tol=1e-12)
        assert math.isclose(ax[1] - ax[0], box.h[j], rel_tol=1e-12)
    tor = sample_grid(EigenMode(DomainSpec.torus((1.0, 1.0)), (2, 3)))
    for j, ax in enumerate(grid_axes(tor)):
        assert ax[0] == 0.0
        assert ax[-1] < tor.domain.lengths[j] - 0.5 * tor.h[j]
        assert tor.shape[j] * tor.h[j] == pytest.approx(tor.domain.lengths[j], rel=1e-12)


def test_h_max_controls_spacing():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    s = sample_grid(mode, ResolutionRule(h_max=0.01))
    assert max(s.h) <= 0.01 + 1e-15
    assert s.shape == (math.ceil(2 * math.pi / 0.01),) * 2


def test_constant_axis_gets_minimum_points():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (0, 5))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=32.0, min_points_per_axis=16))
    assert s.shape[0] == 16
    assert s.shape[1] == 160
    # the m=0 factor is constant, so every row is the same 1-d profile
    assert np.all(s.values == s.values[0][None, :])
    np.testing.assert_allclose(s.values[0], np.sin(5 * grid_axes(s)[1]), atol=1e-10)


def test_point_cap_guard():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    with pytest.raises(ResourceGuardError):
        sample_grid(mode, ResolutionRule(h_max=1e-4, max_total_points=10_000))


def test_rule_validation():
    with pytest.raises(ValidationError):
        ResolutionRule(points_per_wavelength=2.0)
    with pytest.raises(ValidationError):
        ResolutionRule(h_max=0.0)
    # NaN fails every comparison: a check written as h_max <= 0 lets it through
    with pytest.raises(ValidationError, match="h_max must be positive"):
        ResolutionRule(h_max=math.nan)
    with pytest.raises(ValidationError):
        ResolutionRule(min_points_per_axis=1)
