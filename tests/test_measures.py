"""Tube volumes, nodal measure, density radius against closed-form oracles."""

import math

import numpy as np
import pytest

import nodalab.measures as measures_mod
from nodalab.distance import distance_field
from nodalab.errors import EmptyNodalSetError, ResolutionError, ValidationError
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.measures import McRefine, density_radius, nodal_measure, tube_volume
from nodalab.nodal import NodalApprox, extract_nodal
from nodalab.spectrum import (
    DomainSpec,
    EigenMode,
    density_radius_exact,
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
    assert abs(nm.by_tube - exact) / exact < 3e-3
    assert abs(nm.by_segments - exact) / exact < 1e-2
    assert not nm.flagged
    assert nm.agreement_rel is not None and nm.agreement_rel < 0.01
    assert len(nm.tube_ratios) == 2


def test_nodal_measure_interval_counts_vertices():
    mode = EigenMode(DomainSpec.interval(), (10,))
    f = field_for(mode)
    nm = nodal_measure(f, (0.1, 0.05))
    assert nm.value == 11.0
    assert nm.note == "vertex count"


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
    nod = NodalApprox(s, np.empty((0, 2), dtype=int), np.empty((0, 2)), None, 0.0)
    f = distance_field(nod)
    assert tube_volume(f, 10 * max(f.h)) == 0.0
    with pytest.raises(EmptyNodalSetError):
        density_radius(f)
    nm = nodal_measure(f, (10 * max(f.h), 5 * max(f.h)))
    assert nm.value == 0.0
    assert nm.agreement_rel == 0.0
