"""Failing witnesses: a small real run with one named break in its science fails the gate.

Each witness runs a driver twice, as it is and with the break patched in. The
gate passes on the first run and fails on the second, and the other gates that
fail with it are listed.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import nodalab.components as components_mod
import nodalab.dioph as dioph_mod
import nodalab.grid as grid_mod
import nodalab.harness as harness_mod
from nodalab.harness import (
    run_approx_theorem,
    run_density_check,
    run_dim2_checks,
    run_exponent_survey,
    run_tube_scaling,
    run_yau_check,
)
from nodalab.spectrum import SIN, DomainSpec


def lower_radii_exponent(monkeypatch):
    """Radii C/mu^(b - 1.5): the tube volumes no longer shrink fast enough to sum."""
    radii = dioph_mod.shrinking_radii

    def lowered(mu, C, b):
        return radii(mu, C, b - 1.5)

    monkeypatch.setattr(dioph_mod, "shrinking_radii", lowered)
    monkeypatch.setattr(harness_mod, "shrinking_radii", lowered)


def raise_distances(monkeypatch):
    """Nodal distances d^1.5: every approximation exponent reads 1.5 times too high."""
    distances = dioph_mod.modes_nodal_distance
    monkeypatch.setattr(
        dioph_mod, "modes_nodal_distance", lambda point, modes: distances(point, modes) ** 1.5
    )


def lower_distances(monkeypatch):
    """Nodal distances d^(2/3): every approximation exponent reads 2/3 of its value."""
    distances = dioph_mod.modes_nodal_distance
    monkeypatch.setattr(
        dioph_mod, "modes_nodal_distance", lambda point, modes: distances(point, modes) ** (2 / 3)
    )


def take_zeros_into_signs(monkeypatch):
    """Sign masks v >= 0 and v <= 0: the zero lines no longer separate the domains."""
    # v > -ulp(0) holds exactly when v >= 0, and v < ulp(0) when v <= 0
    monkeypatch.setattr(components_mod, "SIGN_EPS", -math.ulp(0.0))


def widen_radius(monkeypatch):
    """Largest nodal-free radius read 1.2 times too large."""
    radius = harness_mod.density_radius
    monkeypatch.setattr(harness_mod, "density_radius", lambda field: 1.2 * radius(field))


def widen_inradii(monkeypatch):
    """Sign-domain inner radii read 1.2 times too large."""
    inradii = harness_mod.component_inradii
    monkeypatch.setattr(
        harness_mod, "component_inradii", lambda comp, field: 1.2 * inradii(comp, field)
    )


def unstamped_zeros(monkeypatch):
    """Factor values sin(m alpha x) with no exact zeros stamped: on-grid zeros read +-1e-15."""

    def plain(mode, axis, npts):
        dom = mode.domain
        x = np.arange(npts) * dom.lengths[axis] / (npts if dom.periodic else npts - 1)
        phase = mode.m[axis] * dom.alpha[axis] * x
        return np.sin(phase) if mode.kinds[axis] == SIN else np.cos(phase)

    monkeypatch.setattr(grid_mod, "_axis_factor", plain)


def seed_one_axis(monkeypatch):
    """Distance field seeded from axis 0's zero crossings only: other axes' nodal lines are lost."""
    extract = harness_mod.extract_nodal

    def one_axis(sample):
        f0 = grid_mod._axis_factor(sample.mode, 0, sample.shape[0])
        values = np.broadcast_to(f0.reshape((-1,) + (1,) * (sample.n - 1)), sample.shape)
        return extract(replace(sample, values=values))

    monkeypatch.setattr(harness_mod, "extract_nodal", one_axis)


def approx():
    return run_approx_theorem(k_max=2000, n_points=400, k0=50, box_k_max=400)


def survey():
    return run_exponent_survey(n_interval=10, mu_max_interval=20_000.0, n_box=5)


def dim2():
    return run_dim2_checks(modes=((2, 3),))


def density_torus():
    return run_density_check(DomainSpec.torus((1.0, 1.0)), modes=((3, 3), (4, 1)))


def density_interval():
    return run_density_check(DomainSpec.interval())


def yau_interval():
    return run_yau_check(DomainSpec.interval())


def tube_torus():
    return run_tube_scaling(DomainSpec.torus((1.0, 1.0)), modes=((3, 4), (2, 3)), mu_delta=(0.1,))


def yau_torus():
    return run_yau_check(DomainSpec.torus((1.0, 1.0)), modes=((3, 4), (2, 2)))


APPROX_FAILS = {"bc_limit_dev", "bc_gap_decreasing", "tail_hit_fraction", "bc2_gap_decreasing"}
SURVEY_FAILS = {"interval_mean_high", "interval_points_in_band", "box_mean_high"}
SURVEY_LOW_FAILS = {"interval_mean_low", "interval_points_in_band", "box_mean_low"}
SIGN_FAILS = {"component_count_exact", "min_area_rel"}
DENSITY_FAILS = {"analytic_cap", "cell_formula_dev"}
# the tube extrapolation sees about half the nodal length: its ratio falls below
# the band, the square mode leaves its target and the tube ratios stop being monotone
YAU_SEED_FAILS = {"estimator_agreement", "analytic_low", "square_family_dev", "flagged_cells"}

# gate -> (break, run, every gate the break fails)
WITNESSES = {
    "bc_gap_decreasing": (lower_radii_exponent, approx, APPROX_FAILS),
    "bc2_gap_decreasing": (lower_radii_exponent, approx, APPROX_FAILS),
    "interval_mean_high": (raise_distances, survey, SURVEY_FAILS),
    "box_mean_high": (raise_distances, survey, SURVEY_FAILS),
    "interval_mean_low": (lower_distances, survey, SURVEY_LOW_FAILS),
    "box_mean_low": (lower_distances, survey, SURVEY_LOW_FAILS),
    "interval_points_in_band": (lower_distances, survey, SURVEY_LOW_FAILS),
    "component_count_exact": (take_zeros_into_signs, dim2, SIGN_FAILS),
    "min_area_rel": (take_zeros_into_signs, dim2, SIGN_FAILS),
    "inradius_rel": (widen_inradii, dim2, {"inradius_rel"}),
    "analytic_cap": (widen_radius, density_torus, DENSITY_FAILS),
    "cell_formula_dev": (widen_radius, density_torus, DENSITY_FAILS),
    "interval_half_pi": (widen_radius, density_interval, {"interval_half_pi"}),
    "grid_agreement": (seed_one_axis, tube_torus, {"grid_agreement"}),
    "estimator_agreement": (seed_one_axis, yau_torus, YAU_SEED_FAILS),
    # sin(m pi) reads about -1e-15 at the interval's right end, so that zero goes
    # unseen: 10 and 40 vertices, not 11 and 41
    "vertex_count_exact": (unstamped_zeros, yau_interval, {"vertex_count_exact"}),
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_break_fails_the_gate(name, monkeypatch):
    brk, run, fails = WITNESSES[name]
    assert {g.name: g.passed for g in run().gates}[name]
    brk(monkeypatch)
    report = run()
    gates = {g.name: g for g in report.gates}
    assert name in gates and not gates[name].passed
    assert {g.name for g in report.gates if not g.passed} == fails
    assert not report.passed
