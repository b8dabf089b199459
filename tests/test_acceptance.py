"""Acceptance gate: every top-level claim, each at its declared tolerance.

Each test prints one [PASS]/[FAIL] line with the measured figure so the
acceptance record survives in captured output. Tolerances here are frozen;
loosening one to make a failing criterion pass is never the fix.
"""

import math
import time

import pytest

from nodalab.boxes import subdivide
from nodalab.grid import ResolutionRule, sample_grid
from nodalab.harness import (
    run_approx_theorem,
    run_comparability_scaling,
    run_density_check,
    run_dim2_checks,
    run_exponent_survey,
    run_tube_scaling,
    run_yau_check,
)
from nodalab.measures import tube_volume
from nodalab.nodal import extract_nodal
from nodalab.reports import write_report
from nodalab.spectrum import DomainSpec, EigenMode, tube_volume_exact

from nodal_boxes import nodal_box_count

INTERVAL = DomainSpec.interval()
TORUS2 = DomainSpec.torus((1.0, 1.0))


def report_line(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def grid_tube(mode, delta):
    rule = ResolutionRule(points_per_wavelength=32.0, h_max=delta / 2.5)
    return tube_volume(mode, rule, delta)


def gates_by_name(report):
    return {g.name: g for g in report.gates}


def test_criterion_01_interval_tube_exact():
    t0 = time.monotonic()
    worst = 0.0
    for k in (10, 20, 50, 100):
        delta = 0.1 / k
        vol = grid_tube(EigenMode(INTERVAL, (k,)), delta)
        worst = max(worst, abs(vol - 2 * k * delta) / (2 * k * delta))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.02 and elapsed < 5.0
    report_line(1, ok, f"interval tube vs 2k*delta, max rel dev {worst:.5f} "
                       f"(tol 0.02), {elapsed:.1f}s (budget 5s)")


def test_criterion_02_torus_tube_exact():
    t0 = time.monotonic()
    mode = EigenMode(TORUS2, (3, 4))
    worst = 0.0
    for delta in (0.02, 0.05):
        exact = tube_volume_exact(mode, delta)
        assert exact == pytest.approx(
            8 * math.pi * delta * 7 - 16 * 12 * delta**2, rel=1e-12
        )
        worst = max(worst, abs(grid_tube(mode, delta) - exact) / exact)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.02 and elapsed < 30.0
    report_line(2, ok, f"torus (3,4) tube vs strip formula, max rel dev {worst:.5f} "
                       f"(tol 0.02), {elapsed:.1f}s (budget 30s)")


def test_criterion_03_tube_band():
    r = run_tube_scaling(TORUS2, grid=False)
    mus = [c.params["mu"] for c in r.cells]
    assert min(mus) >= 5 and max(mus) <= 30
    band = gates_by_name(r)["band_ratio"]
    ok = band.passed and band.bound == 4.0
    report_line(3, ok, f"Vol/(mu*delta) band over torus family = {band.value:.3f} "
                       f"(cap {band.bound})")


def test_criterion_04_nodal_measure_band():
    r = run_yau_check(TORUS2)
    g = gates_by_name(r)
    lo, hi, agree = g["analytic_low"], g["analytic_high"], g["estimator_agreement"]
    ok = (
        lo.passed and hi.passed and agree.passed
        and lo.bound == pytest.approx(4 * math.pi * 0.97)
        and hi.bound == pytest.approx(4 * math.sqrt(2) * math.pi * 1.03)
        and agree.bound == 0.03
    )
    report_line(4, ok, f"nodal measure / mu in [{lo.value:.3f}, {hi.value:.3f}] "
                       f"(band [{lo.bound:.3f}, {hi.bound:.3f}]), "
                       f"estimators agree within {agree.value:.4f} (tol 0.03)")


def test_criterion_05_density():
    ri = run_density_check(INTERVAL)
    gi = gates_by_name(ri)["interval_half_pi"]
    rt = run_density_check(TORUS2)
    gt = gates_by_name(rt)["analytic_cap"]
    ok = gi.passed and gt.passed
    report_line(5, ok, f"density radius * mu: interval pi/2 slack {gi.value:.4f} <= 0, "
                       f"torus vs cell formula +5% slack {gt.value:.4f} <= 0")


def test_criterion_06_comparability():
    r = run_comparability_scaling(m=50, A=10.0, mu_delta=(0.1, 0.2, 0.4))
    g = gates_by_name(r)
    var, slo, shi = g["ratio_variation"], g["loglog_slope_low"], g["loglog_slope_high"]
    ok = var.passed and var.bound == 2.0 and slo.passed and shi.passed
    report_line(6, ok, f"|E|/(mu*delta) variation {var.value:.3f} (cap 2), "
                       f"log-log slope {slo.value:.3f} in [0.7, 1.3]")


def test_criterion_07_nodal_box_band():
    ratios = []
    for m in ((3, 4), (5, 5), (2, 7), (6, 8)):
        mode = EigenMode(TORUS2, m)
        for t in (0.1, 0.2, 0.3):
            delta = t / mode.mu
            sub = subdivide(TORUS2.lengths, delta)
            rule = ResolutionRule(32.0, h_max=min(sub.sides) / 8.5)
            nodal = extract_nodal(sample_grid(mode, rule))
            ratios.append(nodal_box_count(sub, nodal).count * delta / mode.mu)
    band = max(ratios) / min(ratios)
    ok = band <= 3.0
    report_line(7, ok, f"nodal-box count * delta / mu band {band:.3f} (cap 3)")


def test_criterion_08_dim2():
    r = run_dim2_checks()
    g = gates_by_name(r)
    count, area, inrad = g["component_count_exact"], g["min_area_rel"], g["inradius_rel"]
    ok = (
        count.passed and count.value == 0.0
        and area.passed and area.bound == 0.05
        and inrad.passed and inrad.bound == 0.05
    )
    report_line(8, ok, f"components == 4mn exactly, min area rel dev {area.value:.4f} "
                       f"(tol 0.05), inradius rel dev {inrad.value:.4f} (tol 0.05)")


def test_criterion_09_exponents():
    t0 = time.monotonic()
    r = run_exponent_survey()
    elapsed = time.monotonic() - t0
    g = gates_by_name(r)
    mean_i = g["interval_mean_low"].value
    in_band = g["interval_points_in_band"]
    n_interval = r.config["n_interval"]
    mean_b = g["box_mean_low"].value
    ok = (
        1.8 <= mean_i <= 2.2
        and in_band.passed and in_band.bound == round(0.9 * n_interval)
        and 1.7 <= mean_b <= 2.3
        and elapsed < 120.0
    )
    report_line(9, ok, f"interval mean {mean_i:.4f} in [1.8,2.2], "
                       f"{in_band.value:.0f}/{n_interval} points in [1.6,2.4] "
                       f"(need {in_band.bound:.0f}), "
                       f"box mean {mean_b:.4f} in [1.7,2.3], "
                       f"{elapsed:.0f}s (budget 120s)")


def test_criterion_10_borel_cantelli():
    r = run_approx_theorem(C=1.0, eps=1.0, k_max=10_000, k0=100, n_points=10_000)
    g = gates_by_name(r)
    limit, frac = g["bc_limit_dev"], g["tail_hit_fraction"]
    ok = (
        limit.passed and limit.bound == 3e-4
        and frac.passed
        and frac.bound == pytest.approx(0.02 + 3 * math.sqrt(0.02 * 0.98 / 10_000))
    )
    report_line(10, ok, f"|S_10000 - pi^2/3| = {limit.value:.2e} (tol 3e-4), "
                        f"tail hit fraction {frac.value:.4f} "
                        f"(cap {frac.bound:.4f})")


def test_criterion_11_determinism(tmp_path):
    runs = []
    for sub in ("a", "b"):
        r = run_density_check(TORUS2, modes=((3, 3), (4, 1)))
        jp, cp = write_report(r, tmp_path / sub)
        runs.append((jp.read_bytes(), cp.read_bytes()))
    ok = runs[0] == runs[1]
    report_line(11, ok, "identical config reruns are byte-identical (JSON and CSV)")
