"""Failing witnesses: a small real run with one named break in its science fails the gate.

Each witness runs a driver twice, as it is and with the break patched in. The
gate passes on the first run and fails on the second, and the other gates that
fail with it are listed.
"""

import pytest

import nodalab.dioph as dioph_mod
import nodalab.harness as harness_mod
from nodalab.harness import run_approx_theorem, run_exponent_survey


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


def approx():
    return run_approx_theorem(k_max=2000, n_points=400, k0=50, box_k_max=400)


def survey():
    return run_exponent_survey(n_interval=10, mu_max_interval=20_000.0, n_box=5)


APPROX_FAILS = {"bc_limit_dev", "bc_gap_decreasing", "tail_hit_fraction", "bc2_gap_decreasing"}
SURVEY_FAILS = {"interval_mean_high", "interval_points_in_band", "box_mean_high"}
SURVEY_LOW_FAILS = {"interval_mean_low", "interval_points_in_band", "box_mean_low"}

# gate -> (break, run, every gate the break fails)
WITNESSES = {
    "bc_gap_decreasing": (lower_radii_exponent, approx, APPROX_FAILS),
    "bc2_gap_decreasing": (lower_radii_exponent, approx, APPROX_FAILS),
    "interval_mean_high": (raise_distances, survey, SURVEY_FAILS),
    "box_mean_high": (raise_distances, survey, SURVEY_FAILS),
    "interval_mean_low": (lower_distances, survey, SURVEY_LOW_FAILS),
    "box_mean_low": (lower_distances, survey, SURVEY_LOW_FAILS),
    "interval_points_in_band": (lower_distances, survey, SURVEY_LOW_FAILS),
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
