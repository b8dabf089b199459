"""Failing witnesses: a small real run with one named break in its science fails the gate.

Each witness runs a driver twice, as it is and with the break patched in. The
gate passes on the first run and fails on the second, and the other gates that
fail with it are listed.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nodalab.dioph as dioph_mod
import nodalab.grid as grid_mod
import nodalab.harness as harness_mod
import nodalab.measures as measures_mod
from nodalab.harness import (
    run_approx_theorem,
    run_density_check,
    run_dim2_checks,
    run_exponent_survey,
    run_tube_scaling,
    run_yau_check,
)
from nodalab.spectrum import DomainSpec


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
    """Sign threshold -1e-12, its sign flipped: the zero lines join the domains they separate."""
    monkeypatch.setattr(measures_mod, "SIGN_EPS", -1e-12)


def square_cells(monkeypatch):
    """Domain areas counted in cells of volume h_0^2, where the cells are h_0 by h_1."""
    components = harness_mod.sign_components
    monkeypatch.setattr(
        harness_mod,
        "sign_components",
        lambda signs: replace(components(signs), cell_volume=signs.seeds.h[0] ** 2),
    )


def widen_radius(monkeypatch):
    """Largest nodal-free radius read 1.2 times too large."""
    radius = harness_mod.density_radius
    monkeypatch.setattr(harness_mod, "density_radius", lambda field: 1.2 * radius(field))


def widen_inradii(monkeypatch):
    """Sign-domain inner radii read 1.2 times too large."""
    inradii = harness_mod.component_inradii
    monkeypatch.setattr(harness_mod, "component_inradii", lambda signs: 1.2 * inradii(signs))


def scale_nodal_measure(monkeypatch, factor):
    measure = harness_mod.tube_measure

    def scaled(volumes):
        nm = measure(volumes)
        return replace(nm, value=factor * nm.value)

    monkeypatch.setattr(harness_mod, "tube_measure", scaled)


def halve_length(monkeypatch):
    """Nodal length read as Vol/(4t) instead of Vol/(2t): the tube constant doubles."""
    scale_nodal_measure(monkeypatch, 0.5)


def lengthen_extrapolation(monkeypatch):
    """Tube extrapolation of the nodal measure read 5% long."""
    scale_nodal_measure(monkeypatch, 1.05)


def steepen_aspect(monkeypatch):
    """Tube volumes, so the nodal measure, read (mu/4)^0.3 times too large: the aspect ratios climb with mu."""
    stream = harness_mod.streamed_tubes

    def steepened(mode, rule, radii, **kwargs):
        tubes = stream(mode, rule, radii, **kwargs)
        scale = (mode.mu / 4.0) ** 0.3
        return replace(tubes, volumes={t: vol * scale for t, vol in tubes.volumes.items()})

    monkeypatch.setattr(harness_mod, "streamed_tubes", steepened)


def scale_exact_tube(monkeypatch, factor):
    """Closed-form tube volumes times ``factor(mode, delta)``."""
    exact = harness_mod.tube_volume_exact
    monkeypatch.setattr(
        harness_mod,
        "tube_volume_exact",
        lambda mode, delta: exact(mode, delta) * factor(mode, delta),
    )


def tilt_exact_tube(monkeypatch):
    """Exact tube volumes read 1 + 1e-6 times too large: the interval's 2 k delta law tilts."""
    scale_exact_tube(monkeypatch, lambda mode, delta: 1.0 + 1e-6)


def square_tube_law(monkeypatch):
    """Exact tube volumes times mu delta / 0.05: a delta^2 law, true at mu delta 0.05 only."""
    scale_exact_tube(monkeypatch, lambda mode, delta: mode.mu * delta / 0.05)


def unstamped_zeros(monkeypatch):
    """Factor values sin(m alpha x) with no exact zeros stamped: on-grid zeros read +-1e-15."""

    def plain(mode, axis, npts):
        dom = mode.domain
        x = np.arange(npts) * dom.lengths[axis] / (npts if dom.periodic else npts - 1)
        phase = mode.m[axis] * dom.alpha[axis] * x
        return np.sin(phase)

    monkeypatch.setattr(grid_mod, "_axis_factor", plain)


def seed_one_axis(monkeypatch):
    """Distance field seeded from axis 0's zero crossings only: other axes' nodal lines are lost."""
    vertices = measures_mod._window_vertices

    def one_axis(v, neg, pos, periodic, rows=None):
        # the axis-0 line through the largest |v| meets no other axis's zero:
        # its sign changes and zeros are axis 0's alone
        at = np.unravel_index(np.abs(v).argmax(), v.shape)
        line = np.broadcast_to(v[(slice(None),) + tuple(slice(i, i + 1) for i in at[1:])], v.shape)
        return vertices(line, line < 0.0, line > 0.0, periodic, rows)

    monkeypatch.setattr(measures_mod, "_window_vertices", one_axis)


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


def yau_aspect():
    return run_yau_check(DomainSpec.torus((1.0, 1.0)), modes=((4, 1), (8, 1)))


def tube_interval():
    return run_tube_scaling(DomainSpec.interval(), modes=((10,), (20,)), mu_delta=(0.1, 0.2))


def tube_band():
    return run_tube_scaling(
        DomainSpec.torus((1.0, 1.0)), modes=((3, 4), (2, 3)), mu_delta=(0.05, 0.3)
    )


APPROX_FAILS = {"bc_limit_dev", "bc_gap_decreasing", "tail_hit_fraction", "bc2_gap_decreasing"}
SURVEY_FAILS = {"interval_mean_high", "interval_points_in_band", "box_mean_high"}
SURVEY_LOW_FAILS = {"interval_mean_low", "interval_points_in_band", "box_mean_low"}
SIGN_FAILS = {"component_count_exact", "min_area_rel"}
DENSITY_FAILS = {"analytic_cap", "cell_formula_dev"}
# the tube extrapolation sees about half the nodal length: its ratio falls below
# the band, the square mode leaves its target and the tube ratios stop being monotone
YAU_SEED_FAILS = {"estimator_agreement", "analytic_low", "square_family_dev", "flagged_cells"}
# the (2, 2) square's ratio leaves its target, and the segment length no longer agrees
YAU_LONG_FAILS = {"analytic_high", "square_family_dev", "estimator_agreement"}

# gate -> (break, run, every gate the break fails)
WITNESSES = {
    "bc_gap_decreasing": (lower_radii_exponent, approx, APPROX_FAILS),
    "bc2_gap_decreasing": (lower_radii_exponent, approx, APPROX_FAILS),
    "interval_mean_high": (raise_distances, survey, SURVEY_FAILS),
    "box_mean_high": (raise_distances, survey, SURVEY_FAILS),
    "interval_mean_low": (lower_distances, survey, SURVEY_LOW_FAILS),
    "box_mean_low": (lower_distances, survey, SURVEY_LOW_FAILS),
    "interval_points_in_band": (lower_distances, survey, SURVEY_LOW_FAILS),
    # the (2, 3) mode counts 2 domains, not 24: component_count_exact reads 22
    "component_count_exact": (take_zeros_into_signs, dim2, SIGN_FAILS),
    # the (2, 3) grid has h_0 = 1.5 h_1: min_area_rel reads 0.48 against 0.05
    "min_area_rel": (square_cells, dim2, {"min_area_rel"}),
    "inradius_rel": (widen_inradii, dim2, {"inradius_rel"}),
    # the (2, 3) mode reads 3.83 against c_cap 3.0, and 1.915 unbroken
    "tube_constant": (halve_length, dim2, {"tube_constant"}),
    "analytic_cap": (widen_radius, density_torus, DENSITY_FAILS),
    "cell_formula_dev": (widen_radius, density_torus, DENSITY_FAILS),
    "interval_half_pi": (widen_radius, density_interval, {"interval_half_pi"}),
    "grid_agreement": (seed_one_axis, tube_torus, {"grid_agreement"}),
    "estimator_agreement": (seed_one_axis, yau_torus, YAU_SEED_FAILS),
    # the largest ratio reads 18.66 against 18.305
    "analytic_high": (lengthen_extrapolation, yau_torus, YAU_LONG_FAILS),
    # sin(m pi) reads about -1e-15 at the interval's right end, so that zero goes
    # unseen: 10 and 40 vertices, not 11 and 41
    "vertex_count_exact": (unstamped_zeros, yau_interval, {"vertex_count_exact"}),
    # a 1e-6 tilt is far inside grid_agreement's 0.02 and leaves the ratios' band as it is
    "oracle_flatness": (tilt_exact_tube, tube_interval, {"oracle_flatness"}),
    # the ratios span 6 times their width: 5.72 against band_cap 4.0; the
    # grid volumes, unchanged, disagree by 0.83 at mu delta 0.3
    "band_ratio": (square_tube_law, tube_band, {"band_ratio", "grid_agreement"}),
    # (8, 1) reads 2^0.3 = 1.23 times its length, (4, 1) 1.009 times: the ratios
    # rise 1.93 with mu, and (8, 1)'s segment length disagrees by 0.19
    "aspect_monotone": (steepen_aspect, yau_aspect, {"aspect_monotone", "estimator_agreement"}),
}

# gate names no witness breaks yet
UNWITNESSED = {
    "ratio_variation",
    "loglog_slope_low",
    "loglog_slope_high",
    "a_sweep_monotone",
    "stability_band",
    "bc_gap_positive",
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


def harness_gate_names():
    """Every name passed as a string literal to ``gate(...)`` in harness.py."""
    tree = ast.parse(Path(harness_mod.__file__).read_text())
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "gate"
        and isinstance(node.args[0], ast.Constant)
    }


def test_every_gate_has_a_witness_or_is_listed_as_unwitnessed():
    # a gate is witnessed when some break fails it: its own, or another gate's
    witnessed = set().union(*(fails for _, _, fails in WITNESSES.values()))
    names = harness_gate_names()
    assert len(names) == 32
    assert not witnessed & UNWITNESSED
    assert names == witnessed | UNWITNESSED
