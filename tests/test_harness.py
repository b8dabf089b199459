import dataclasses
import functools
import hashlib
import inspect
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalab.dioph as dioph_mod
import nodalab.distance as distance_mod
import nodalab.harness as harness_mod
import nodalab.measures as measures_mod
import nodalab.nodal as nodal_mod

from nodalab.errors import ValidationError
from nodalab.grid import ResolutionRule, grid_shape
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
from nodalab.reports import CellResult, read_report, write_report
from nodalab.spectrum import DomainSpec, EigenMode, tube_volume_exact

from whole_field import whole_field

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
    # nothing measured, so nothing claimed: no grid_agreement, and a band over
    # the one oracle ratio would be 1 whatever the ratio, so no band_ratio
    assert r.gates == [] and not r.passed


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


def test_band_gates_need_two_values():
    """A band over one value is 1 whatever the value, so one value takes no band gate."""
    runs = [
        ("band_ratio", lambda n: run_yau_check(INTERVAL, modes=((10,), (40,))[:n])),
        ("band_ratio",
         lambda n: run_tube_scaling(TORUS2, modes=((3, 4),), mu_delta=(0.1, 0.2)[:n], grid=False)),
        ("ratio_variation", lambda n: run_comparability_scaling(m=20, mu_delta=(0.2, 0.4)[:n])),
    ]
    for band, run in runs:
        assert band not in gates_by_name(run(1))
        assert band in gates_by_name(run(2))


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
    default = run_yau_check(TORUS2, modes=((3, 3), (4, 1)), mu_t=(1.0, 0.8))
    # the same cells under a looser bound: only estimator_agreement's bound differs
    loose = harness_mod._yau_gates(default.cells, {**default.config, "agree_tol": 0.5})
    g = {x.name: x for x in loose}
    assert 0.03 < g["estimator_agreement"].value < 0.5 and g["estimator_agreement"].passed
    assert g["flagged_cells"].passed and g["flagged_cells"].value == 0
    g = gates_by_name(default)
    assert not g["estimator_agreement"].passed
    # flagged means a non-monotone tube ratio only: one cause, one failed gate
    assert g["flagged_cells"].passed and g["flagged_cells"].value == 0
    assert [x.name for x in default.gates if not x.passed] == ["estimator_agreement"]
    assert [x.name for x in loose if not x.passed] == []
    flags = {c.cell: c.measured["flagged"] for c in default.cells}
    assert flags == {"m=3,3": 0, "m=4,1": 0}


def test_yau_runs_marching_squares_on_2d_before_the_distance_field(monkeypatch):
    # a 2-d cell streams its grid once: each pass takes the marching-squares
    # pieces of its rows and then its capped distances; no stage forms the
    # whole grid
    log = []
    for name in ("sample_grid", "extract_nodal", "grid_seeds"):
        spy(monkeypatch, log, harness_mod, name)
    stream = harness_mod.streamed_tubes

    def logged(mode, rule, radii, **kwargs):
        log.append(("streamed_tubes", kwargs))
        return stream(mode, rule, radii, **kwargs)

    monkeypatch.setattr(harness_mod, "streamed_tubes", logged)
    run_yau_check(TORUS2, modes=((3, 4),))
    assert log == [("streamed_tubes", {"segments": True})]
    log.clear()
    run_yau_check(INTERVAL, modes=((10,),))
    # the interval counts vertices and seeds no distance transform
    assert log == ["sample_grid", "extract_nodal"]


def test_yau_empty_nodal_set_agrees_at_zero(monkeypatch):
    # both routes read 0: the relative agreement of 0/0 is 0, not nan
    def empty(mode, rule, radii, *, segments=False):
        _, h = grid_shape(mode, rule)
        return measures_mod.StreamedTubes(h, {t: 0.0 for t in radii}, 0.0 if segments else None)

    monkeypatch.setattr(harness_mod, "streamed_tubes", empty)
    # the band gate rejects a zero ratio; the cell itself is what is checked here
    monkeypatch.setitem(harness_mod.GATE_BUILDERS, "yau_ratio", lambda cells, config: [])
    cell = run_yau_check(TORUS2, modes=((3, 4),)).cells[0]
    assert cell.measured["value"] == 0.0 and cell.measured["by_segments"] == 0.0
    assert cell.measured["agreement_rel"] == 0.0 and cell.measured["flagged"] == 0


def log_streams(monkeypatch, calls):
    """Route harness's streamed tubes through a log of (mode, radii, volumes, segments)."""
    stream = harness_mod.streamed_tubes

    def logged(mode, rule, radii, **kwargs):
        tubes = stream(mode, rule, radii, **kwargs)
        calls.append((mode, list(radii), dict(tubes.volumes), kwargs.get("segments", False)))
        return tubes

    monkeypatch.setattr(harness_mod, "streamed_tubes", logged)


def test_yau_radius_in_the_gap_window_is_measured(monkeypatch):
    # (3, 4): mu = 5, axis 1's zeros lie pi/4 apart and h = 2 pi/158; mu_t = 1.9
    # puts the larger radius 0.38 within h of pi/8, where the gap between
    # neighbouring tubes is under two cells. Each straddle cell's two end
    # distances still give its exact share.
    calls = []
    log_streams(monkeypatch, calls)
    r = run_yau_check(TORUS2, modes=((3, 4), (4, 1)), mu_t=(1.9, 0.5))
    assert not any(c.skipped for c in r.cells)
    # one streamed pass per field serves both radii
    assert [(mode.m, len(radii)) for mode, radii, _, _ in calls] == [((3, 4), 2), ((4, 1), 2)]
    assert [round(t, 12) for t in calls[0][1]] == [0.38, 0.1]
    for mode, _, volumes, _ in calls:
        for delta, vol in volumes.items():
            exact = tube_volume_exact(mode, delta)
            assert abs(vol - exact) / exact <= 1e-12


@pytest.mark.parametrize("mu_t", [(), (0.1,), (0.1, 0.1)])
def test_yau_needs_two_distinct_radii_before_sampling(monkeypatch, mu_t):
    log = []
    spy(monkeypatch, log, harness_mod, "sample_grid")
    repeated = len(set(mu_t)) < len(mu_t)
    message = "mu_t repeats 0.1" if repeated else "mu_t has [01] distinct radii"
    with pytest.raises(ValidationError, match=message):
        run_yau_check(TORUS2, modes=((3, 3),), mu_t=mu_t)
    assert log == []
    if repeated:  # a repeated radius is refused on every domain
        with pytest.raises(ValidationError, match=message):
            run_yau_check(INTERVAL, modes=((10,),), mu_t=mu_t)
        return
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
    spy(monkeypatch, log, nodal_mod, "marching_squares")
    calls = []
    log_streams(monkeypatch, calls)
    r = run_dim2_checks(modes=((2, 3),))
    assert log == []
    # one stream, no segments: the radii delta and delta/2
    [(mode, radii, volumes, segments)] = calls
    assert mode.m == (2, 3) and not segments
    delta = 0.2 / mode.mu
    assert radii == [delta, delta / 2.0]
    assert r.cells[0].measured["tube_vol"] == volumes[delta]


def test_only_the_full_range_fields_run_scipys_transform(monkeypatch):
    """Tube fields are capped at their reach; density and inner radii read full-range transforms."""
    transforms = []
    edt = distance_mod.distance_transform_edt

    def counted(a, **kwargs):
        transforms.append(a.shape)
        return edt(a, **kwargs)

    monkeypatch.setattr(distance_mod, "distance_transform_edt", counted)
    run_yau_check(TORUS2, modes=((3, 4), (4, 1)))
    run_tube_scaling(TORUS2, modes=((3, 4),), mu_delta=(0.1, 0.2))
    assert transforms == []
    # dim2's transforms are exactly those of its inner-radius field
    whole_field(measures_mod.grid_seeds(EigenMode(TORUS2, (2, 3)),
                                        ResolutionRule(points_per_wavelength=256.0)))
    inradius_field = list(transforms)
    transforms.clear()
    run_dim2_checks(modes=((2, 3),))
    assert transforms == inradius_field != []
    transforms.clear()
    run_density_check(TORUS2, modes=((3, 3),))
    assert transforms != []


def test_dim2_rejects_non_torus():
    with pytest.raises(ValidationError):
        run_dim2_checks(domain=DomainSpec.box((1.0, 1.0)))


def test_dim2_holds_one_mode_at_a_time(monkeypatch):
    """Each mode's sample values, labels and seed mask are freed before the next mode
    samples, and its values before its seeds are rasterized and the inner radii's
    transform starts."""
    held = []  # per mode: (m, weak references to its values, labels and seed mask)

    def keep(name, array_of):
        fn = getattr(harness_mod, name)

        def kept(arg, *args, **kwargs):
            if name == "sample_grid":  # dim2 samples once per mode, first
                for m, refs in held:
                    assert all(r() is None for r in refs), f"mode {m} alive at {arg.m}'s sample"
                held.append((arg.m, []))
            if name == "grid_seeds":
                assert held[-1][1][0]() is None, f"mode {arg.m}'s values alive at its seeds"
            out = fn(arg, *args, **kwargs)
            held[-1][1].append(weakref.ref(array_of(out)))
            return out

        monkeypatch.setattr(harness_mod, name, kept)

    keep("sample_grid", lambda s: s.values)
    keep("sign_components", lambda comp: comp.labels)
    keep("grid_seeds", lambda seeds: seeds.mask)
    inradii = harness_mod.component_inradii
    transformed = []

    def checked(comp, seeds):
        m, (values, *_) = held[-1]
        assert values() is None, f"mode {m}'s values alive at its transform"
        transformed.append(m)
        return inradii(comp, seeds)

    monkeypatch.setattr(harness_mod, "component_inradii", checked)
    modes = ((2, 3), (3, 4))
    report = run_dim2_checks(modes)
    assert all(c.measured for c in report.cells)
    assert [m for m, _ in held] == transformed == list(modes)
    assert all(len(refs) == 3 for _, refs in held)


def test_density_samples_no_float_grid(monkeypatch):
    """The density check's seeds come from ``grid_seeds``' chunks: it calls neither
    ``sample_grid`` nor ``extract_nodal``, so it holds no float grid."""
    log = []
    for name in ("sample_grid", "extract_nodal"):
        spy(monkeypatch, log, harness_mod, name)
    for domain, modes in ((TORUS2, ((3, 3), (4, 1))), (INTERVAL, ((8,),))):
        report = run_density_check(domain, modes=modes)
        assert all(c.measured for c in report.cells)
    assert log == []


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


def test_exponent_survey_never_builds_the_full_box_list(monkeypatch):
    def no_full_list(*args, **kwargs):
        raise AssertionError("the survey enumerated the full mode list")

    monkeypatch.setattr(harness_mod, "enumerate_modes", no_full_list)
    r = run_exponent_survey(n_interval=2, mu_max_interval=2000.0, n_box=3)
    assert [c.params["kind"] for c in r.cells] == ["interval"] * 2 + ["box"] * 3


def test_default_exponent_survey_scans_few_distances(monkeypatch):
    # every interval row was scanned before the survey chose rows by convergent
    # denominators: 200 x 100,000 + 500 x 3,412 = 21,706,000 distances
    scan = dioph_mod.modes_nodal_distance
    count = 0

    def counted(point, modes):
        nonlocal count
        count += len(modes)
        return scan(point, modes)

    monkeypatch.setattr(dioph_mod, "modes_nodal_distance", counted)
    assert run_exponent_survey().passed
    assert count < 2_000_000


def test_exponent_survey_keeps_the_full_window_below_the_candidates():
    # box (1.2, 1.2) at mu 3.4: the candidates top out at 1.2 sqrt5 < 3, the
    # full list at 1.2 sqrt8 > 3, so the fit window is not empty; the driver
    # falls back to the full list there and gets no record, not an error
    r = run_exponent_survey(
        n_interval=2, mu_max_interval=500.0, n_box=3, mu_max_box=3.4, box_alpha=(1.2, 1.2)
    )
    box = [c for c in r.cells if c.params["kind"] == "box"]
    assert [c.measured["n_records"] for c in box] == [0, 0, 0]
    assert all(c.measured["low_confidence"] for c in box)


def test_approx_theorem_small():
    r = run_approx_theorem(k_max=2000, n_points=400, k0=50, box_k_max=400)
    assert r.passed
    g = gates_by_name(r)
    assert g["bc_gap_positive"].value > 0


def test_tail_hit_bound_holds_for_eps_below_one():
    # the tail sum_{k>k0} 2C k^-(1+eps) is about 2C/(eps k0^eps), which is above
    # 2C/k0 for eps < 1: this run measures 0.0725 against 2C/k0 + 3 sigma = 0.036
    r = run_approx_theorem(C=0.7, eps=0.5, k_max=1500, k0=50, n_points=4000)
    g = gates_by_name(r)["tail_hit_fraction"]
    assert g.value == 0.0725
    bound = 1.4 / (0.5 * math.sqrt(50.0))
    assert g.bound == pytest.approx(bound + 3.0 * math.sqrt(bound * (1 - bound) / 4000))
    assert r.passed


# sha256 of (JSON, CSV) report bytes, recorded before the per-axis table scan
# replaced the masked per-row formula in dioph.modes_nodal_distance;
# exponent_survey re-recorded when its metric_check cell and gate were removed
# (the new report is the old one without that cell, its row and columns, and
# the gate); both approx entries re-recorded when the control cell, its
# control_fraction gate and summary key were removed (the new reports equal
# the old ones with those stripped); both approx entries re-recorded again when
# the closed-form tube share replaced the zero-list inclusion-exclusion in
# borel_cantelli_sum (partial sums move by rounding only, below 1e-11
# relative, and the Cauchy gaps between them below 1e-7; every gate verdict
# is the same). Re-record them only in a change that deliberately alters
# report bytes and says so in CHANGES.md.
SPECTRAL_DIGESTS = {
    "approx_interval": (
        "1b76cd47baba24e72a868f87cd6393ba8bf59fe6584ec63672d75af6cd18c206",
        "8bca2fa61636e6f76bd08f4f20ff4819bcbec2c25b426be1bf69d8cfddddda91",
    ),
    "approx_torus": (
        "3561b10922606eab90387b08ceb725583f43f276444405b51d8772ed8c0af6c8",
        "20546f8ec556fca7fe5b863dbfaa6d09a8b2bfd6d4379617f477342ad74fbc9c",
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
        # the torus list has constant factors (zero indices), the interval none
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


# sha256 of (JSON, CSV) report bytes; yau_torus, dim2 and tube_torus
# re-recorded when each straddle cell's share came from its two end
# distances in place of a bisection per cell (the tube volumes, and the
# measures and agreements drawn from them, move by rounding only: under
# 1e-14 relative; the same gates pass); density_torus and comparability
# recorded before their resolution keywords became fixed values. Same rule
# as above.
GRID_DIGESTS = {
    "yau_torus": (
        "50fb2d01b2d80df19325f2e5441247e31e559dc11cf8589238521a77aa9bcffe",
        "6c39cdbc88c3f341a8c1bea7a553127210d3e03f106576ae21e797f07da505d6",
    ),
    "dim2": (
        "951844454b648d38406612f621b51f8bec848acecc471c9069002770c2dfed08",
        "cb42077d4285826bc35666d0266cb2067d921ca51fc685ed87bae08799533225",
    ),
    "tube_torus": (
        "b58644f496d3ef1d9a93ea077fa5646f2dd4a344440a96b6c160513fbb22416a",
        "50747a4e7d7ca5d7103008f6948c96fa3bd32e19ffb3a5c28ca6bde65c17538b",
    ),
    "density_torus": (
        "60885a202965d772d7ee941f9bc9d8e435a39d1050bd36b3c7013d31958c5fdf",
        "2f5a3d477e5a19f919b8329f742ddd9c541568e48c10c4bca7fa563b13b4b346",
    ),
    "density_interval": (
        "98606b699ae2ced63771964ed76d1887f493137f30a8d5f143e06ff2295db2ee",
        "c64bc8eeb50c0662dbe24f4c0afb9e4777201dcddc8205bad86c2f4deb3706d1",
    ),
    "comparability": (
        "5167c1b1b6777c6352ddf40062a05b596fb25ae08505864b14cf211eed32d453",
        "b98b2eef837ed5651134d15024a595a9dbd260b12b52870c12d7fba84ac5256a",
    ),
}


@pytest.mark.parametrize("name", sorted(GRID_DIGESTS))
def test_grid_report_digests(name, tmp_path):
    """Small grid-driver reports keep their exact bytes (golden sha256)."""
    run = {
        "yau_torus": lambda: run_yau_check(TORUS2, modes=((3, 4), (4, 1))),
        "dim2": lambda: run_dim2_checks(modes=((2, 3),)),
        "tube_torus": lambda: run_tube_scaling(TORUS2, modes=((3, 4),), mu_delta=(0.1, 0.2)),
        "density_torus": lambda: run_density_check(TORUS2, modes=((3, 3), (4, 1))),
        "density_interval": lambda: run_density_check(INTERVAL),
        "comparability": lambda: run_comparability_scaling(
            mu_delta=(0.1, 0.2), a_sweep=(3.0, 10.0), stability_modes=(30, 50)
        ),
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
        # and Yau radii outside (0, inf), before any grid is sampled
        (run_yau_check, {"domain": TORUS2, "mu_t": (0.2, math.nan)}, "radii must lie in"),
        (run_yau_check, {"domain": TORUS2, "mu_t": (math.inf, 0.1)}, "radii must lie in"),
        (run_yau_check, {"domain": TORUS2, "mu_t": (0.2, -0.1)}, "radii must lie in"),
    ):
        with pytest.raises(ValidationError, match=message):
            run(**kwargs)


REPEATED_INPUTS = {
    "comparability-mu-delta": (run_comparability_scaling, {"mu_delta": (0.1, 0.1)},
                               "mu_delta repeats 0.1"),
    "comparability-a-sweep": (run_comparability_scaling, {"a_sweep": (3.0, 10.0, 3.0)},
                              "a_sweep repeats 3.0"),
    "comparability-stability-modes": (run_comparability_scaling, {"stability_modes": (30, 30)},
                                      "stability_modes repeats 30"),
    "yau-modes": (run_yau_check, {"domain": TORUS2, "modes": ((3, 3), [3, 3])},
                  r"modes repeats \(3, 3\)"),
    "yau-mu-t": (run_yau_check, {"domain": TORUS2, "mu_t": (0.2, 0.1, 0.2)}, "mu_t repeats 0.2"),
    "tube-modes": (run_tube_scaling, {"domain": TORUS2, "modes": ((3, 4), (3, 4)),
                                      "mu_delta": (0.1,)}, r"modes repeats \(3, 4\)"),
    "tube-mu-delta": (run_tube_scaling, {"domain": INTERVAL, "mu_delta": (0.1, 0.1)},
                      "mu_delta repeats 0.1"),
    "tube-deltas": (run_tube_scaling, {"domain": INTERVAL, "deltas": (0.01, 0.01)},
                    "deltas repeats 0.01"),
    # the break cell's mu delta = 3 is one of the radii
    "tube-break-cell": (run_tube_scaling, {"domain": TORUS2, "modes": ((3, 4),),
                                           "mu_delta": (0.1, 3.0), "include_break_cell": True},
                        "mu_delta repeats 3.0"),
    "tube-break-cell-deltas": (run_tube_scaling, {"domain": INTERVAL, "modes": ((10,),),
                                                  "deltas": (0.3,), "include_break_cell": True},
                               "deltas repeats 0.3"),
    "density-modes": (run_density_check, {"domain": TORUS2, "modes": ((3, 3), (4, 1), (3, 3))},
                      r"modes repeats \(3, 3\)"),
    "dim2-modes": (run_dim2_checks, {"modes": ((2, 3), (2, 3))}, r"modes repeats \(2, 3\)"),
}


@pytest.mark.parametrize("run, kwargs, message", list(REPEATED_INPUTS.values()),
                         ids=list(REPEATED_INPUTS))
def test_repeated_inputs_are_refused_before_any_cell(run, kwargs, message, monkeypatch):
    """A repeated mode or radius measures one cell twice, and a band, slope or
    monotone gate over the copies passes on them alone: each driver refuses it
    before it measures anything."""
    log = []
    for name in ("sample_grid", "streamed_tubes", "grid_seeds", "tube_volume_exact"):
        spy(monkeypatch, log, harness_mod, name)
    with pytest.raises(ValidationError, match=message):
        run(**kwargs)
    assert log == []


def test_approx_theorem_rejects_degenerate_bounds_before_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("degenerate input reached borel_cantelli_sum")

    monkeypatch.setattr(harness_mod, "borel_cantelli_sum", no_work)
    tail = r"2C < eps\*k0\^eps"
    # k0 <= 2C: the tail bound 2C/k0 is at least 1 (was a math domain error)
    with pytest.raises(ValidationError, match=tail):
        run_approx_theorem(k_max=30, k0=1, n_points=50)
    with pytest.raises(ValidationError, match=tail):
        run_approx_theorem(C=-1.0, k_max=30, k0=10, n_points=50)
    # C = 0: zero radii and zero gaps passed every gate vacuously
    with pytest.raises(ValidationError, match=tail):
        run_approx_theorem(C=0.0, k_max=30, k0=10, n_points=50)
    # eps k0^eps = 0.158 <= 2C: the tail bound 2C/(eps k0^eps) is above 1
    with pytest.raises(ValidationError, match=tail):
        run_approx_theorem(C=1.0, eps=0.1, k_max=200, k0=100, n_points=50)
    with pytest.raises(ValidationError, match=tail):
        run_approx_theorem(C=1.0, k_max=30, k0=-10, n_points=50)
    # k_max < 4: both Cauchy cells sat at K = 0 and passed on zeros
    with pytest.raises(ValidationError, match="k_max must be >= 4"):
        run_approx_theorem(C=0.5, k_max=3, k0=2, n_points=50)
    with pytest.raises(ValidationError, match="box_k_max must be >= 4"):
        run_approx_theorem(k_max=200, k0=50, n_points=50, box_k_max=3)
    # eps so large that mu^(n+1+eps) overflows on the tail (and at 2000 k0^eps too)
    for eps in (2000.0, 150.0):
        with pytest.raises(ValidationError, match="eps is too large"):
            run_approx_theorem(eps=eps, k_max=200, k0=50, n_points=50)


@pytest.mark.parametrize("run", [run_approx_theorem, run_exponent_survey])
def test_negative_seed_is_refused_before_work(run, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a negative seed reached the mode lists")

    monkeypatch.setattr(harness_mod, "enumerate_modes", no_work)
    monkeypatch.setattr(harness_mod, "record_candidates", no_work)
    with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
        run(seed=-1)


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


# resolution config key -> the fixed value every report of the driver records
FIXED_RESOLUTION = {
    "tube_scaling": {"ppw": 32.0, "h_factor": 2.5},
    "yau_ratio": {"ppw": 32.0, "h_factor": 2.5},
    "dim2": {"area_ppw": 256.0, "tube_mu_delta": 0.2, "h_factor": 2.5},
    "density": {"ppw": 64.0, "radius_h_divisor": 16.0},
    "comparability": {"side_h_divisor": 8.5},
}


def test_grid_resolution_is_fixed_and_recorded():
    """No driver takes a resolution keyword; each report records the fixed values."""
    drivers = {
        "tube_scaling": run_tube_scaling,
        "yau_ratio": run_yau_check,
        "dim2": run_dim2_checks,
        "density": run_density_check,
        "comparability": run_comparability_scaling,
    }
    for experiment, fixed in FIXED_RESOLUTION.items():
        assert not set(fixed) & set(inspect.signature(drivers[experiment]).parameters)
    for r in small_reports():
        fixed = FIXED_RESOLUTION.get(r.experiment, {})
        assert {k: r.config[k] for k in fixed} == fixed
        assert all(type(r.config[k]) is type(v) for k, v in fixed.items())


def test_comparability_takes_no_slope_through_one_radius():
    """Two scaling cells at one radius give a ratio band but no log-log slope:
    a line through one x is rank-deficient (it read 0.514 and failed). The
    driver refuses a repeated radius, so the cells are a report's with its
    second radius rewritten to the first, as a stored report could hold them."""
    r = run_comparability_scaling(
        mu_delta=(0.1, 0.2), a_sweep=(3.0, 10.0), stability_modes=(30, 50)
    )
    cells = [CellResult.from_dict(c.as_dict()) for c in r.cells]
    for c in cells:
        if c.params["kind"] == "scaling":
            c.params["mu_delta"] = 0.1
    gates = GATE_BUILDERS["comparability"](cells, r.config)
    assert [g.name for g in gates] == ["ratio_variation", "a_sweep_monotone", "stability_band"]
    assert all(g.passed for g in gates)


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


def test_stored_reports_rebuild_the_live_gates(tmp_path):
    """Written and read back, every report's cells give its builder the live gates."""
    for report in small_reports():
        json_path, _ = write_report(report, tmp_path)
        data = read_report(json_path)
        assert GATE_BUILDERS[report.experiment](data["cells"], data["config"]) == report.gates


# measured keys that pick the cells a gate reads; they are not gated values
CELL_FILTERS = {"low_confidence", "exact_hit"}


def test_nan_in_any_live_cell_fails_the_gates_it_feeds():
    """A value feeds a gate when moving it moves that gate's value; NaN must then fail it.

    Every live cell is tried, not only the first, since builtin max and min
    drop a NaN that does not come first. interval_points_in_band counts a NaN
    exponent as out of band, so a NaN may leave it passing.
    """
    checked = set()
    for report in small_reports():
        builder = GATE_BUILDERS[report.experiment]
        base = {g.name: g.value for g in report.gates}
        for i, cell in enumerate(report.cells):
            if cell.skipped:
                continue
            for key, value in cell.measured.items():
                if key in CELL_FILTERS:
                    continue

                def rebuilt(v):
                    cells = list(report.cells)
                    cells[i] = dataclasses.replace(cell, measured={**cell.measured, key: v})
                    return {g.name: g for g in builder(cells, report.config)}

                fed = {
                    name
                    for v in (0.5 * value, 1.5 * value + 1.0)
                    for name, g in rebuilt(v).items()
                    if g.value != base[name]
                } - {"interval_points_in_band"}
                with_nan = rebuilt(math.nan)
                passing = {name for name in fed if with_nan[name].passed}
                assert not passing, (report.experiment, cell.cell, key, passing)
                checked |= {(report.experiment, name) for name in fed}
    # every gate a report took is fed by some measured value
    assert checked == {
        (r.experiment, g.name) for r in small_reports() for g in r.gates
    } - {("exponent_survey", "interval_points_in_band")}


def test_reports_deterministic_across_runs():
    a = run_density_check(TORUS2, modes=((3, 3),)).to_json()
    b = run_density_check(TORUS2, modes=((3, 3),)).to_json()
    assert a == b
