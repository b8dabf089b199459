import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalab.harness as harness_mod
import nodalab.measures as measures_mod
import nodalab.nodal as nodal_mod

from nodalab.errors import ValidationError
from nodalab.harness import (
    GATE_BUILDERS,
    run_approx_theorem,
    run_comparability_scaling,
    run_density_check,
    run_dim2_checks,
    run_exponent_survey,
    run_tube_scaling,
    run_yau_check,
)
from nodalab.reports import CellResult, write_report
from nodalab.spectrum import DomainSpec

INTERVAL = DomainSpec.interval()
TORUS2 = DomainSpec.torus((1.0, 1.0))


def gates_by_name(report):
    return {g.name: g for g in report.gates}


def spy(monkeypatch, log, module, name):
    """Replace module.name with a wrapper that appends name to log on each call."""
    fn = getattr(module, name)

    def logged(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)


def test_tube_interval_report():
    r = run_tube_scaling(INTERVAL, include_break_cell=True)
    assert r.passed
    g = gates_by_name(r)
    # interval oracle is exactly 2*k*delta in the linear window
    assert g["oracle_flatness"].value <= 1e-12
    assert g["grid_agreement"].value <= 0.02
    breaks = [c for c in r.cells if not c.params["gated"]]
    assert breaks and all(c.params["mu_delta"] > 0.3 for c in breaks)
    # grid estimates are never attempted outside the gated window
    assert all(c.params["method"] == "oracle" for c in breaks)


def test_tube_torus_grid_agreement():
    r = run_tube_scaling(TORUS2, modes=((3, 4), (5, 5)), mu_delta=(0.1, 0.3))
    assert r.passed
    g = gates_by_name(r)
    assert g["band_ratio"].value <= 1.2
    assert g["grid_agreement"].value <= 0.005
    assert not any(c.skipped for c in r.cells)


def test_tube_explicit_deltas():
    r = run_tube_scaling(TORUS2, modes=((3, 4),), deltas=(0.02, 0.05), grid=False)
    targets = sorted(c.params["mu_delta"] for c in r.cells)
    assert targets == pytest.approx([5 * 0.02, 5 * 0.05])
    assert r.passed


def test_tube_resource_skip():
    r = run_tube_scaling(TORUS2, modes=((20, 21),), mu_delta=(0.05,))
    skipped = [c for c in r.cells if c.skipped]
    assert len(skipped) == 1 and "cap" in skipped[0].note
    g = gates_by_name(r)
    assert "grid_agreement" not in g  # nothing measured, so nothing claimed
    assert r.passed


def test_tube_gate_builder_ignores_skipped_and_ungated():
    config = {"domain_kind": "flat_torus", "band_cap": 4.0, "agree_tol": 0.02}
    cells = [
        CellResult("o1", {"method": "oracle", "gated": True}, {"ratio": 30.0}),
        CellResult("o2", {"method": "oracle", "gated": True}, {"ratio": 33.0}),
        CellResult("o3", {"method": "oracle", "gated": False}, {"ratio": 13.0}),
        CellResult("g1", {"method": "grid", "gated": True}, skipped=True, note="guard"),
    ]
    gates = GATE_BUILDERS["tube_scaling"](cells, config)
    by = {g.name: g for g in gates}
    assert by["band_ratio"].value == pytest.approx(1.1)
    assert "grid_agreement" not in by


def test_yau_interval_exact_vertices():
    r = run_yau_check(INTERVAL)
    assert r.passed
    assert gates_by_name(r)["vertex_count_exact"].value == 0.0


def test_yau_torus_families():
    r = run_yau_check(TORUS2, modes=((3, 3), (4, 1)))
    assert r.passed
    g = gates_by_name(r)
    assert g["analytic_low"].value >= 4 * math.pi * 0.97
    assert g["analytic_high"].value <= 4 * math.sqrt(2) * math.pi * 1.03
    assert g["square_family_dev"].value <= 0.01
    assert "aspect_monotone" not in g  # one aspect mode is not a family


def test_yau_agreement_fails_only_its_own_gate():
    # the (3,3) segment/tube agreement is 0.0352 at these radii
    kwargs = dict(modes=((3, 3), (4, 1)), mu_t=(1.0, 0.8))
    loose = run_yau_check(TORUS2, agree_tol=0.5, **kwargs)
    g = gates_by_name(loose)
    assert 0.03 < g["estimator_agreement"].value < 0.5 and g["estimator_agreement"].passed
    assert g["flagged_cells"].passed and g["flagged_cells"].value == 0
    default = run_yau_check(TORUS2, **kwargs)
    g = gates_by_name(default)
    assert not g["estimator_agreement"].passed
    # flagged means a non-monotone tube ratio only: one cause, one failed gate
    assert g["flagged_cells"].passed and g["flagged_cells"].value == 0
    flags = {c.cell: c.measured["flagged"] for c in default.cells}
    assert flags == {"m=3,3": 0, "m=4,1": 0}


def test_yau_runs_marching_squares_on_2d_before_the_distance_field(monkeypatch):
    log = []
    for name in ("sample_grid", "extract_nodal", "marching_squares", "distance_field"):
        spy(monkeypatch, log, harness_mod, name)
    run_yau_check(TORUS2, modes=((3, 4),))
    assert log == ["sample_grid", "extract_nodal", "marching_squares", "distance_field"]
    log.clear()
    run_yau_check(INTERVAL, modes=((10,),))
    assert log == ["sample_grid", "extract_nodal", "distance_field"]


def test_yau_empty_nodal_set_agrees_at_zero(monkeypatch):
    # both routes read 0: the relative agreement of 0/0 is 0, not nan
    monkeypatch.setattr(
        harness_mod, "extract_nodal", lambda s: nodal_mod.NodalApprox(s, np.empty((0, 2)))
    )
    monkeypatch.setattr(harness_mod, "marching_squares", lambda s: 0.0)
    # the band gate rejects a zero ratio; the cell itself is what is checked here
    monkeypatch.setitem(harness_mod.GATE_BUILDERS, "yau_ratio", lambda cells, config: [])
    cell = run_yau_check(TORUS2, modes=((3, 4),)).cells[0]
    assert cell.measured["value"] == 0.0 and cell.measured["by_segments"] == 0.0
    assert cell.measured["agreement_rel"] == 0.0 and cell.measured["flagged"] == 0


@pytest.mark.parametrize("mu_t", [(), (0.1,), (0.1, 0.1)])
def test_yau_needs_two_distinct_radii_before_sampling(monkeypatch, mu_t):
    log = []
    spy(monkeypatch, log, harness_mod, "sample_grid")
    with pytest.raises(ValidationError, match="mu_t has [01] distinct radii"):
        run_yau_check(TORUS2, modes=((3, 3),), mu_t=mu_t)
    assert log == []
    # the interval counts vertices and takes no radii
    assert run_yau_check(INTERVAL, modes=((10,),), mu_t=mu_t).passed


def test_density_interval_and_torus():
    ri = run_density_check(INTERVAL)
    assert ri.passed
    rt = run_density_check(TORUS2, modes=((3, 3), (4, 1), (3, 4)))
    assert rt.passed
    for c in rt.cells:
        assert c.measured["rel_dev"] <= 1e-6  # commensurate grids nail the hole center


def test_dim2_single_mode():
    r = run_dim2_checks(modes=((2, 3),))
    assert r.passed
    cell = r.cells[0]
    assert cell.measured["count"] == 24
    assert cell.measured["count"] <= cell.measured["courant_bound"]
    assert cell.measured["tube_constant"] <= 3.0


def test_dim2_reads_its_tube_volume_from_the_nodal_measure(monkeypatch):
    log = []
    spy(monkeypatch, log, measures_mod, "tube_volume")
    spy(monkeypatch, log, harness_mod, "tube_volume")
    spy(monkeypatch, log, nodal_mod, "marching_squares")
    spy(monkeypatch, log, harness_mod, "marching_squares")
    run_dim2_checks(modes=((2, 3),))
    assert log == ["tube_volume", "tube_volume"]  # the radii delta and delta/2


def test_dim2_rejects_non_torus():
    with pytest.raises(ValidationError):
        run_dim2_checks(domain=DomainSpec.box((1.0, 1.0)))


def test_comparability_gates():
    r = run_comparability_scaling()
    assert r.passed
    g = gates_by_name(r)
    assert 0.7 <= g["loglog_slope_low"].value <= 1.3
    assert g["a_sweep_monotone"].value < 0
    # mode-to-mode stability of bad-box mass against |E| (observed band ~1.05)
    assert 1.0 <= g["stability_band"].value <= 1.3


def test_exponent_survey_small():
    r = run_exponent_survey(
        n_interval=25, mu_max_interval=50_000.0, n_box=10, interval_point_min=20
    )
    assert r.passed
    g = gates_by_name(r)
    assert 1.8 <= r.summary["interval_mean"] <= 2.2


def test_exponent_survey_point_gate_tracks_size():
    # shrinking the survey must shrink the in-band count gate with it
    r = run_exponent_survey(n_interval=10, mu_max_interval=20_000.0, n_box=5)
    g = gates_by_name(r)
    assert g["interval_points_in_band"].bound == 9.0
    assert r.config["interval_point_min"] == 9
    assert r.passed


def test_approx_theorem_small():
    r = run_approx_theorem(k_max=2000, n_points=400, k0=50, box_k_max=400)
    assert r.passed
    g = gates_by_name(r)
    assert g["bc_gap_positive"].value > 0


# sha256 of (JSON, CSV) report bytes, recorded before the per-axis table scan
# replaced the masked per-row formula in dioph.modes_nodal_distance;
# exponent_survey re-recorded when its metric_check cell and gate were removed
# (the new report is the old one without that cell, its row and columns, and
# the gate); both approx entries re-recorded when the control cell, its
# control_fraction gate and summary key were removed (the new reports equal
# the old ones with those stripped). Re-record them only in a change that
# deliberately alters report bytes and says so in CHANGES.md.
SPECTRAL_DIGESTS = {
    "approx_interval": (
        "f7edf78493ce8fd629985c913a517fbb6324a2eb8d0368608d057cc2f0003aad",
        "42e542eded53a4f986b2d5f5aeec8a519c10dd4762ca0fe0ec9d4307db001ad2",
    ),
    "approx_torus": (
        "b547270524e4a66f5f9e1ba3b88869b47ad524cd3e50c3dfedd1e5abc1a0a82c",
        "5a6ec1dcb45044f68fc8a2a588ab5f4352e61443cda7d51b937822f2f1435a23",
    ),
    "exponent_survey": (
        "be77a1103d6fc393073713f5180dc4e82950bef14756e6717d7c96ca515d6520",
        "4e3bf40b687b9ff8c0a134ff4188d6ff1c4d60cde3f570f9182430eae18182ae",
    ),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_DIGESTS))
def test_spectral_report_digests(name, tmp_path):
    """Small spectral-driver reports keep their exact bytes (golden sha256)."""
    run = {
        "approx_interval": lambda: run_approx_theorem(
            k_max=4000, n_points=1000, box_k_max=400, seed=5
        ),
        # the torus list has cosine factors (zero indices), the interval none
        "approx_torus": lambda: run_approx_theorem(
            DomainSpec.torus((1.0, 1.3)), k_max=60, k0=20, n_points=300, box_k_max=400, seed=3
        ),
        "exponent_survey": lambda: run_exponent_survey(
            n_interval=20, mu_max_interval=20_000.0, n_box=10, mu_max_box=600.0, seed=7
        ),
    }[name]
    paths = write_report(run(), tmp_path)
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert got == SPECTRAL_DIGESTS[name]


# sha256 of (JSON, CSV) report bytes, recorded before the per-axis miss tables
# replaced the per-sample oracle in measures._refined_volume. Same rule as above.
GRID_DIGESTS = {
    "yau_torus": (
        "084755f98d84c79c98207a5b127bd38cfb457d3e0a08890fe768f2908ff1fc36",
        "f692e5957dd9c488c80574ac12200a04ce03e7bfccfb8aad3f0afc86349c804f",
    ),
    "dim2": (
        "8aa4f09dbd87807b00e13bdbc13e84f7c57f6d15de6ea5b9c1a6cdd6a2d77c1d",
        "6567e374ef340f861c4e03a30746d5a93f067be14f9ef9b5c7819f4ad84de504",
    ),
    "tube_torus": (
        "586ad8a0d59178cd3547c126316a3d570be6e74bfba9f07ab17afd741a422b3b",
        "f48986d1ad4f82a3f7840e6019eb17b2dbd29a6110e90fc2c410a845b506706e",
    ),
}


@pytest.mark.parametrize("name", sorted(GRID_DIGESTS))
def test_grid_report_digests(name, tmp_path):
    """Small grid-driver reports keep their exact bytes (golden sha256)."""
    run = {
        "yau_torus": lambda: run_yau_check(TORUS2, modes=((3, 4), (4, 1))),
        "dim2": lambda: run_dim2_checks(modes=((2, 3),)),
        "tube_torus": lambda: run_tube_scaling(TORUS2, modes=((3, 4),), mu_delta=(0.1, 0.2)),
    }[name]
    paths = write_report(run(), tmp_path)
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert got == GRID_DIGESTS[name]


def test_spectral_drivers_reject_empty_windows():
    for kwargs in ({"n_interval": 0}, {"n_box": 0}):
        with pytest.raises(ValidationError):
            run_exponent_survey(**kwargs)
    for kwargs in ({"k_max": 3}, {"k_max": 0}, {"n_points": 0}):
        with pytest.raises(ValidationError):
            run_approx_theorem(**kwargs)
    # the grid drivers likewise reject empty radius and sweep lists
    for run, kwargs, message in (
        (run_tube_scaling, {"domain": INTERVAL, "mu_delta": ()}, "mu_delta is empty"),
        (run_tube_scaling, {"domain": INTERVAL, "deltas": ()}, "deltas is empty"),
        (run_comparability_scaling, {"mu_delta": ()}, "mu_delta is empty"),
        (run_comparability_scaling, {"a_sweep": ()}, "a_sweep is empty"),
        (run_comparability_scaling, {"stability_modes": ()}, "stability_modes is empty"),
        # and non-finite radii and comparability factors
        (run_tube_scaling, {"domain": INTERVAL, "deltas": (math.nan,)}, "radii must lie in"),
        (run_tube_scaling, {"domain": INTERVAL, "mu_delta": (math.inf,)}, "radii must lie in"),
        (run_comparability_scaling, {"A": math.nan}, "A must lie in"),
    ):
        with pytest.raises(ValidationError, match=message):
            run(**kwargs)


def test_approx_theorem_rejects_degenerate_bounds_before_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("degenerate input reached borel_cantelli_sum")

    monkeypatch.setattr(harness_mod, "borel_cantelli_sum", no_work)
    # k0 <= 2C: the tail bound 2C/k0 is at least 1 (was a math domain error)
    with pytest.raises(ValidationError, match="2C < k0"):
        run_approx_theorem(k_max=30, k0=1, n_points=50)
    with pytest.raises(ValidationError, match="2C < k0"):
        run_approx_theorem(C=-1.0, k_max=30, k0=10, n_points=50)
    # C = 0: zero radii and zero gaps passed every gate vacuously
    with pytest.raises(ValidationError, match="2C < k0"):
        run_approx_theorem(C=0.0, k_max=30, k0=10, n_points=50)
    # k_max < 4: both Cauchy cells sat at K = 0 and passed on zeros
    with pytest.raises(ValidationError, match="k_max must be >= 4"):
        run_approx_theorem(C=0.5, k_max=3, k0=2, n_points=50)
    with pytest.raises(ValidationError, match="box_k_max must be >= 4"):
        run_approx_theorem(k_max=200, k0=50, n_points=50, box_k_max=3)


@functools.lru_cache(maxsize=None)
def small_reports():
    """One small real report per gate builder (two where a builder branches on the domain)."""
    return (
        run_tube_scaling(INTERVAL, include_break_cell=True),
        run_tube_scaling(TORUS2, modes=((3, 4),), mu_delta=(0.1, 0.2)),
        run_yau_check(INTERVAL),
        run_yau_check(TORUS2, modes=((3, 3), (4, 1), (8, 1))),
        run_density_check(INTERVAL),
        run_density_check(TORUS2, modes=((3, 3), (4, 1))),
        run_dim2_checks(modes=((2, 3),)),
        run_comparability_scaling(),
        run_approx_theorem(k_max=2000, n_points=400, k0=50, box_k_max=400),
        run_exponent_survey(n_interval=10, mu_max_interval=20_000.0, n_box=5),
    )


def test_small_reports_cover_every_gate_builder():
    assert {r.experiment for r in small_reports()} == set(GATE_BUILDERS)


def test_comparability_stability_band_alone_is_no_verdict():
    """With every cell of the requested mode skipped, the fixed-mode stability band is not gated."""
    (report,) = [r for r in small_reports() if r.experiment == "comparability"]
    cells = [CellResult.from_dict(c.as_dict()) for c in report.cells]
    for c in cells:
        if c.params["kind"] in ("scaling", "a_sweep"):
            c.skipped, c.note = True, "skipped: drawn"
    assert sum(not c.skipped for c in cells) == 3
    assert GATE_BUILDERS["comparability"](cells, report.config) == []


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_gate_builders_total_over_skipped_subsets(data):
    """Any skipped subset of a real report's cells: no exception, no NaN gate."""
    report = data.draw(st.sampled_from(small_reports()))
    n = len(report.cells)
    skip = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cells = []
    for c, skipped in zip(report.cells, skip):
        cell = CellResult.from_dict(c.as_dict())  # as verify_report reads them
        if skipped:
            cell.skipped, cell.note = True, "skipped: drawn"
        cells.append(cell)
    gates = GATE_BUILDERS[report.experiment](cells, report.config)
    assert all(not math.isnan(g.value) and not math.isnan(g.bound) for g in gates)
    if all(skip):
        assert gates == []
    if report.experiment == "comparability" and not any(
        g.name != "stability_band" for g in gates
    ):
        # stability is measured on fixed modes, never on the requested one
        assert gates == []


def test_reports_deterministic_across_runs():
    a = run_density_check(TORUS2, modes=((3, 3),)).to_json()
    b = run_density_check(TORUS2, modes=((3, 3),)).to_json()
    assert a == b
