"""Experiment drivers: each run_* builds a report with recomputable gates.

Every experiment follows the same shape: measure cells over a parameter grid,
then derive pass/fail gates from the recorded cell numbers through a pure
builder registered in GATE_BUILDERS. Guard failures (resolution or resource)
mark the affected cell skipped with the reason in its note; skipped cells
never enter gate statistics. Exact closed-form oracles are measured in their
own cells so a skipped grid estimate does not silently drop a law check.

Builders read plain numbers: a live report's, or a stored one's as
reports.read_report decodes them. Their maxima and minima are NumPy's, which
propagate NaN, so a NaN in any live cell's gated value fails its gate.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .boxes import bad_proportion, comparability_set, goodness_threshold, subdivide
from .components import component_inradii, sign_components
from .dioph import (
    borel_cantelli_sum,
    estimate_exponent,
    shrinking_radii,
    tail_hits,
)
from .distance import raster_error
from .errors import ResolutionError, ResourceGuardError, ValidationError
from .grid import ResolutionRule, sample_grid
from .measures import density_radius, grid_seeds, streamed_tubes, tube_measure
from .nodal import _window_vertices
from .reports import CellResult, ExperimentReport, gate
from .spectrum import (
    DomainSpec,
    EigenMode,
    density_radius_exact,
    enumerate_modes,
    nodal_measure_exact,
    record_candidates,
    tube_volume_exact,
)

GUARDS = (ResolutionError, ResourceGuardError)

DEFAULT_TUBE_INTERVAL_MODES = ((10,), (20,), (50,), (100,))
DEFAULT_TUBE_TORUS_MODES = ((3, 4), (5, 5), (2, 7), (6, 8), (10, 10), (12, 16), (20, 21))
DEFAULT_TUBE_MU_DELTA = (0.05, 0.1, 0.2, 0.3)
DEFAULT_YAU_TORUS_MODES = ((3, 3), (5, 5), (4, 1), (8, 1), (16, 1), (3, 4))
DEFAULT_DENSITY_TORUS_MODES = ((3, 3), (5, 5), (4, 1), (8, 1), (3, 4))
DEFAULT_DIM2_MODES = ((3, 4), (5, 5), (2, 3))

FOUR_PI = 4.0 * math.pi
YAU_SQUARE_RATIO = 4.0 * math.sqrt(2.0) * math.pi

# The grid of every tube estimate (tube scaling, 2-d Yau, dim2), recorded as
# config "ppw" and "h_factor": the smallest radius spans 2.5 cells, above
# the tube radius guard of 2 cells.
TUBE_PPW = 32.0
TUBE_CELLS_PER_RADIUS = 2.5

# Sampled points per point set of the approximation theorem and the exponent
# survey: a million tail-hit points take about 0.7 GB, and a million survey
# points make a million report cells. A larger request exits 3 before the
# points are drawn.
SAMPLED_POINT_CAP = 1_000_000


@contextmanager
def _skip_on_guard(cell: CellResult, prefix: str = "skipped: "):
    """Mark the cell skipped, with the guard's message in its note, if a guard fires."""
    try:
        yield
    except GUARDS as e:
        cell.skipped = True
        cell.note = f"{prefix}{e}"


def _check_point_count(name: str, count: int) -> None:
    """Refuse, before any point is drawn, a point set over ``SAMPLED_POINT_CAP``."""
    if count > SAMPLED_POINT_CAP:
        raise ResourceGuardError(f"{name}={count} sampled points (cap {SAMPLED_POINT_CAP})")


def check_seed(seed) -> None:
    """Refuse a negative seed of the sampled points, which numpy's generators reject."""
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def _check_distinct(key: str, values) -> None:
    """Refuse a repeated value of ``key``: its cell would be measured twice, and a band
    or a slope over the copies alone passes whatever was measured."""
    seen = set()
    for v in values:
        value = tuple(v) if isinstance(v, (list, tuple)) else v
        if value in seen:
            raise ValidationError(f"{key} repeats {value}: each value is measured once")
        seen.add(value)


def _mode(domain: DomainSpec, m) -> EigenMode:
    return EigenMode(domain, tuple(int(v) for v in m))


def _tube_rule(radii) -> ResolutionRule:
    return ResolutionRule(TUBE_PPW, h_max=min(radii) / TUBE_CELLS_PER_RADIUS)


def _band(values) -> float:
    lo, hi = np.min(values), np.max(values)
    if lo <= 0:
        raise ValidationError("band requires positive values")
    return hi / lo


def _live(cells, **param_filters):
    out = []
    for c in cells:
        if c.skipped:
            continue
        if all(c.params.get(k) == v for k, v in param_filters.items()):
            out.append(c)
    return out


# ------------------------------------------------------------- tube scaling


def run_tube_scaling(
    domain: DomainSpec,
    modes=None,
    mu_delta=None,
    deltas=None,
    *,
    grid=True,
    include_break_cell=False,
    band_cap=4.0,
    agree_tol=0.02,
) -> ExperimentReport:
    """Tube volume against the mu*delta law over a (mode, radius) grid.

    Each cell is measured twice: an exact closed-form oracle row and,
    when the resolution budget allows, a grid estimate row checked against the
    oracle. The break cell (mu*delta = 3) is recorded but excluded from gates.
    Radii are the ``deltas`` when given, else ``mu_delta`` targets divided by mu.
    Grid rows stream the tube grid of their radius (``_tube_rule``) through
    ``measures.streamed_tubes``.
    """
    if modes is None:
        modes = DEFAULT_TUBE_INTERVAL_MODES if domain.n == 1 else DEFAULT_TUBE_TORUS_MODES
    if mu_delta is None:
        mu_delta = DEFAULT_TUBE_MU_DELTA
    name, radii = ("mu_delta", mu_delta) if deltas is None else ("deltas", deltas)
    if len(radii) == 0:
        raise ValidationError(f"{name} is empty: no tube radius to measure")
    _check_distinct("modes", modes)
    # an infinite bound cannot fail, a NaN one fails whatever was measured,
    # and a ratio band is at least 1
    for key, bound, low in (("band_cap", band_cap, 1.0), ("agree_tol", agree_tol, 0.0)):
        if not low <= bound < math.inf:
            raise ValidationError(f"{key} must be finite and >= {low:g}, got {bound}")
    config = {
        "domain_kind": domain.kind,
        "modes": [list(m) for m in modes],
        "mu_delta": list(mu_delta) if deltas is None else None,
        "deltas": list(deltas) if deltas is not None else None,
        "grid": bool(grid),
        "include_break_cell": bool(include_break_cell),
        "ppw": TUBE_PPW,
        "h_factor": TUBE_CELLS_PER_RADIUS,
        "band_cap": band_cap,
        "agree_tol": agree_tol,
    }
    cells = []
    targets = list(mu_delta) if deltas is None else None
    for m in modes:
        mode = _mode(domain, m)
        mu = mode.mu
        cell_deltas = list(deltas) if targets is None else [t / mu for t in targets]
        if not all(0 < d < math.inf for d in cell_deltas):
            raise ValidationError(f"tube radii must lie in (0, inf), got {cell_deltas}")
        given = list(radii)
        if include_break_cell:
            cell_deltas = cell_deltas + [3.0 / mu]
            given.append(3.0 if targets is not None else 3.0 / mu)
        _check_distinct(name, given)  # the break cell's radius counts as one of the radii
        for delta in cell_deltas:
            t = mu * delta
            gated = t <= 0.3 + 1e-12
            tag = f"m={','.join(str(v) for v in m)};mud={t:.6g}"
            exact = tube_volume_exact(mode, delta)
            cells.append(
                CellResult(
                    cell="oracle;" + tag,
                    params={"method": "oracle", "m": list(m), "mu": mu, "delta": delta,
                            "mu_delta": t, "gated": gated},
                    measured={"vol": exact, "ratio": exact / (mu * delta)},
                    error=0.0,
                    note="" if gated else "outside linear window; excluded from gates",
                )
            )
            if not grid or not gated:
                continue
            gcell = CellResult(
                cell="grid;" + tag,
                params={"method": "grid", "m": list(m), "mu": mu, "delta": delta,
                        "mu_delta": t, "gated": gated},
            )
            with _skip_on_guard(gcell, "grid skipped: "):
                tubes = streamed_tubes(mode, _tube_rule([delta]), [delta])
                vol = tubes.volumes[delta]
                agree = abs(vol - exact) / exact
                gcell.measured = {"vol": vol, "ratio": vol / (mu * delta), "agree_rel": agree}
                gcell.error = raster_error(tubes.h)
                gcell.passed = agree <= agree_tol
            cells.append(gcell)
    gates = GATE_BUILDERS["tube_scaling"](cells, config)
    ratios = [c.measured["ratio"] for c in _live(cells, method="oracle") if c.params["gated"]]
    summary = {
        "n_cells": len(cells),
        "ratio_min": min(ratios) if ratios else None,
        "ratio_max": max(ratios) if ratios else None,
    }
    return ExperimentReport("tube_scaling", domain.as_dict(), config, cells, gates, summary, None)


def _tube_gates(cells, config):
    gates = []
    oracle = [c for c in _live(cells, method="oracle") if c.params.get("gated", True)]
    ratios = [c.measured["ratio"] for c in oracle]
    if len(ratios) >= 2:  # a band over one value is 1 whatever the value
        gates.append(gate("band_ratio", np.max(ratios) / np.min(ratios), config["band_cap"], "<="))
    if ratios and config["domain_kind"] == "interval":
        flat = np.max([abs(r - 2.0) for r in ratios])
        gates.append(gate("oracle_flatness", flat, 1e-9, "<="))
    grid = _live(cells, method="grid")
    agrees = [c.measured["agree_rel"] for c in grid if "agree_rel" in c.measured]
    if agrees:
        gates.append(gate("grid_agreement", np.max(agrees), config["agree_tol"], "<="))
    return gates


# ---------------------------------------------------------------- yau check


def run_yau_check(
    domain: DomainSpec,
    modes=None,
    mu_t=(0.2, 0.1),
    *,
    seed=None,
) -> ExperimentReport:
    """Nodal measure per unit frequency across a mode family.

    Torus product modes must stay inside the analytic band [4pi, 4 sqrt(2) pi]
    (up to the config's analytic_tol) and the square family must sit at the
    upper endpoint; the interval reduces to the exact zero count. A
    non-monotone tube ratio flags the cell. On 2-d domains the marching-squares
    length cross-checks the tube extrapolation: the estimator_agreement gate,
    and only it, fails on a relative disagreement above the config's
    agree_tol. The band and the square target hold on the unit 2-torus only,
    so any domain but it and the interval is invalid input. 2-d modes stream
    the tube grid of the smaller radius through ``measures.streamed_tubes``,
    which also yields the marching-squares length; the interval builds no
    field.

    The tube volumes draw no random numbers. ``seed`` is accepted and ignored
    (the report records ``seed: null``) so that callers written when the
    tubes were sampled keep working; perfbench's workloads pass one.
    """
    if domain.kind != "interval" and not (domain.periodic and domain.alpha == (1.0, 1.0)):
        raise ValidationError(
            "Yau checks run on the interval or the torus with alpha=(1,1), "
            f"not {domain.kind} alpha={domain.alpha}: their gates are calibrated there"
        )
    if modes is None:
        modes = ((10,), (40,)) if domain.n == 1 else DEFAULT_YAU_TORUS_MODES
    if not all(0 < t < math.inf for t in mu_t):
        raise ValidationError(f"tube radii must lie in (0, inf), got mu_t={list(mu_t)}")
    _check_distinct("modes", modes)
    _check_distinct("mu_t", mu_t)
    if domain.n >= 2 and len(mu_t) < 2:
        raise ValidationError(
            f"mu_t has {len(mu_t)} distinct radii: the tube extrapolation needs two"
        )
    config = {
        "domain_kind": domain.kind,
        "modes": [list(m) for m in modes],
        "mu_t": list(mu_t),
        "ppw": TUBE_PPW,
        "h_factor": TUBE_CELLS_PER_RADIUS,
        "band_cap": 2.0,
        "analytic_tol": 0.03,
        "product_tol": 0.03,
        "agree_tol": 0.03,
    }
    cells = []
    for m in modes:
        mode = _mode(domain, m)
        mu = mode.mu
        if domain.n == 1:
            family = "interval"
        elif m[0] == m[1]:
            family = "square"
        elif min(m) == 1:
            family = "aspect"
        else:
            family = "mixed"
        cell = CellResult(
            cell=f"m={','.join(str(v) for v in m)}",
            params={"m": list(m), "mu": mu, "family": family},
        )
        with _skip_on_guard(cell):
            if domain.n == 1:
                # the interval counts vertices: no tube radius bounds its grid,
                # and the count reads no distance field
                sample = sample_grid(mode, ResolutionRule(TUBE_PPW))
                v = sample.values
                groups = _window_vertices(v, v < 0.0, v > 0.0, sample.periodic)
                value, flagged = float(sum(idx[0].size for _, idx, _ in groups)), 0
                h = sample.h
            else:
                t_list = [t / mu for t in mu_t]
                tubes = streamed_tubes(mode, _tube_rule(t_list), t_list, segments=True)
                nm = tube_measure(tubes.volumes)
                value, flagged = nm.value, int(nm.non_monotone)
                length, h = tubes.length, tubes.h
            exact = nodal_measure_exact(mode)
            cell.measured = {
                "value": value,
                "ratio": value / mu,
                "exact": exact,
                "exact_rel": abs(value - exact) / exact,
                "flagged": flagged,
            }
            if domain.n == 2:
                denom = max(length, abs(value))
                agreement = abs(length - value) / denom if denom > 0 else 0.0
                cell.measured["by_segments"] = length
                cell.measured["agreement_rel"] = agreement
            cell.error = raster_error(h)
        cells.append(cell)
    gates = GATE_BUILDERS["yau_ratio"](cells, config)
    live = _live(cells)
    summary = {"ratios": {c.cell: c.measured["ratio"] for c in live}}
    return ExperimentReport("yau_ratio", domain.as_dict(), config, cells, gates, summary, None)


def _yau_gates(cells, config):
    gates = []
    live = _live(cells)
    if not live:
        return gates
    ratios = [c.measured["ratio"] for c in live]
    if len(ratios) >= 2:
        gates.append(gate("band_ratio", _band(ratios), config["band_cap"], "<="))
    gates.append(gate("flagged_cells", sum(c.measured["flagged"] for c in live), 0, "<="))
    if config["domain_kind"] == "interval":
        worst = np.max([abs(c.measured["value"] - (c.params["m"][0] + 1)) for c in live])
        gates.append(gate("vertex_count_exact", worst, 0.0, "<="))
        return gates
    tol = config["analytic_tol"]
    gates.append(gate("analytic_low", np.min(ratios), FOUR_PI * (1.0 - tol), ">="))
    gates.append(gate("analytic_high", np.max(ratios), YAU_SQUARE_RATIO * (1.0 + tol), "<="))
    squares = _live(cells, family="square")
    if squares:
        devs = [abs(c.measured["ratio"] - YAU_SQUARE_RATIO) / YAU_SQUARE_RATIO for c in squares]
        gates.append(gate("square_family_dev", np.max(devs), config["product_tol"], "<="))
    aspect = sorted(_live(cells, family="aspect"), key=lambda c: c.params["mu"])
    if len(aspect) >= 2:
        r = [c.measured["ratio"] for c in aspect]
        gates.append(gate("aspect_monotone", np.max(np.diff(r)), 0.0, "<="))
    agrees = [c.measured["agreement_rel"] for c in live if "agreement_rel" in c.measured]
    if agrees:
        gates.append(gate("estimator_agreement", np.max(agrees), config["agree_tol"], "<="))
    return gates


# ------------------------------------------------------------ density check


def run_density_check(domain: DomainSpec, modes=None) -> ExperimentReport:
    """Largest hole of the nodal set: max distance times mu per mode."""
    if modes is None:
        modes = ((8,), (20,), (50,)) if domain.n == 1 else DEFAULT_DENSITY_TORUS_MODES
    _check_distinct("modes", modes)
    ppw, radius_h_divisor = 64.0, 16.0  # fixed resolution, recorded in the config
    config = {
        "domain_kind": domain.kind,
        "modes": [list(m) for m in modes],
        "ppw": ppw,
        "radius_h_divisor": radius_h_divisor,
        "cap_tol": 0.05,
        "cell_tol": 0.10,
    }
    cells = []
    for m in modes:
        mode = _mode(domain, m)
        mu = mode.mu
        cell = CellResult(
            cell=f"m={','.join(str(v) for v in m)}", params={"m": list(m), "mu": mu}
        )
        with _skip_on_guard(cell):
            r_exact = density_radius_exact(mode)
            rule = ResolutionRule(
                points_per_wavelength=ppw, h_max=r_exact / radius_h_divisor
            )
            seeds = grid_seeds(mode, rule).seeds
            r = density_radius(seeds)
            h_max_used = float(max(seeds.h))
            cell.measured = {
                "radius": r,
                "product": r * mu,
                "oracle_product": r_exact * mu,
                "rel_dev": abs(r - r_exact) / r_exact,
                "h_mu": h_max_used * mu,
            }
            cell.error = raster_error(seeds.h)
        cells.append(cell)
    gates = GATE_BUILDERS["density"](cells, config)
    summary = {"products": {c.cell: c.measured["product"] for c in _live(cells)}}
    return ExperimentReport("density", domain.as_dict(), config, cells, gates, summary, None)


def _density_gates(cells, config):
    gates = []
    live = _live(cells)
    if not live:
        return gates
    ms = [c.measured for c in live]
    if config["domain_kind"] == "interval":
        worst = np.max([abs(v["product"] - math.pi / 2) - 2.0 * v["h_mu"] for v in ms])
        gates.append(gate("interval_half_pi", worst, 0.0, "<="))
        return gates
    cap = np.max([v["product"] - v["oracle_product"] * (1.0 + config["cap_tol"]) for v in ms])
    gates.append(gate("analytic_cap", cap, 0.0, "<="))
    worst = np.max([v["rel_dev"] for v in ms])
    gates.append(gate("cell_formula_dev", worst, config["cell_tol"], "<="))
    return gates


# -------------------------------------------------------------- dim2 checks


def _lattice_count(mu: float) -> int:
    """Integer points of Z^2 with norm <= mu (full multiplicity proxy)."""
    top = int(math.floor(mu))
    a = np.arange(-top, top + 1)
    return int(np.count_nonzero(a[:, None] ** 2 + a[None, :] ** 2 <= mu * mu))


def run_dim2_checks(
    modes=None,
    *,
    domain: DomainSpec | None = None,
    seed=None,
) -> ExperimentReport:
    """Sign-domain statistics of 2-d torus product modes.

    Counts nodal domains on the sign grid (must match the 4mn checkerboard),
    checks the smallest domain area and the largest inner radius against the
    rectangle-cell oracles, and bounds tube volume by measured length * delta,
    from tubes at delta = tube_mu_delta / mu and delta / 2 on the tube grid.
    One parallel pass of ``grid_seeds`` writes each fine grid's seeds and sign
    masks; the domains are labeled from the masks, and the largest inner
    radius is the full-range transform's max over the signed points. The
    tubes stream their grid through ``measures.streamed_tubes``.

    The tube volumes draw no random numbers. ``seed`` is accepted and ignored
    (the report records ``seed: null``) so that callers written when the
    tubes were sampled keep working; perfbench's workloads pass one.
    """
    if domain is None:
        domain = DomainSpec.torus((1.0, 1.0))
    if domain.n != 2 or not domain.periodic:
        raise ValidationError("dim2 checks run on a 2-d torus")
    if modes is None:
        modes = DEFAULT_DIM2_MODES
    _check_distinct("modes", modes)
    area_ppw, tube_mu_delta = 256.0, 0.2  # fixed, recorded in the config
    config = {
        "domain_kind": domain.kind,
        "modes": [list(m) for m in modes],
        "area_ppw": area_ppw,
        "tube_mu_delta": tube_mu_delta,
        "h_factor": TUBE_CELLS_PER_RADIUS,
        "area_tol": 0.05,
        "inradius_tol": 0.05,
        "c_cap": 3.0,
    }
    cells = [_dim2_cell(domain, m, area_ppw, tube_mu_delta) for m in modes]
    gates = GATE_BUILDERS["dim2"](cells, config)
    summary = {"counts": {c.cell: c.measured["count"] for c in _live(cells)}}
    return ExperimentReport("dim2", domain.as_dict(), config, cells, gates, summary, None)


def _dim2_cell(domain: DomainSpec, m, area_ppw: float, tube_mu_delta: float) -> CellResult:
    """One mode's dim2 cell. Its fine grid's seed and sign masks are this call's
    locals, so they are freed before the next mode's pass: the driver holds one
    mode's masks at a time, and no float grid."""
    mode = _mode(domain, m)
    if min(m) < 1:
        raise ValidationError("dim2 checks need product modes with all m_j >= 1")
    mu = mode.mu
    mj, nj = int(m[0]), int(m[1])
    cell = CellResult(
        cell=f"m={mj},{nj}", params={"m": [mj, nj], "mu": mu, "count_oracle": 4 * mj * nj}
    )
    with _skip_on_guard(cell):
        rule = ResolutionRule(points_per_wavelength=area_ppw)
        signs = grid_seeds(mode, rule)
        comp = sign_components(signs)
        areas = comp.areas
        inradius = component_inradii(signs)
        side_x = math.pi / (mj * domain.alpha[0])
        side_y = math.pi / (nj * domain.alpha[1])
        area_oracle = side_x * side_y
        inradius_oracle = 0.5 * min(side_x, side_y)

        delta = tube_mu_delta / mu
        radii = [delta, delta / 2.0]
        nm = tube_measure(streamed_tubes(mode, _tube_rule(radii), radii).volumes)
        vol = nm.volumes[delta]

        cell.measured = {
            "count": comp.count,
            "min_area": float(areas.min()),
            "area_oracle": area_oracle,
            "min_area_rel": abs(float(areas.min()) - area_oracle) / area_oracle,
            "min_area_mu2": float(areas.min()) * mu * mu,
            "max_inradius": inradius,
            "inradius_oracle": inradius_oracle,
            "inradius_rel": abs(inradius - inradius_oracle) / inradius_oracle,
            "inradius_mu": inradius * mu,
            "tube_vol": vol,
            "length": nm.value,
            "tube_constant": vol / (nm.value * delta),
            "courant_bound": _lattice_count(mu),
        }
        cell.error = raster_error(signs.seeds.h)
    return cell


def _dim2_gates(cells, config):
    live = _live(cells)
    if not live:
        return []
    count_dev = np.max([abs(c.measured["count"] - c.params["count_oracle"]) for c in live])
    ms = [c.measured for c in live]
    return [
        gate("component_count_exact", count_dev, 0.0, "<="),
        gate("min_area_rel", np.max([v["min_area_rel"] for v in ms]), config["area_tol"], "<="),
        gate("inradius_rel", np.max([v["inradius_rel"] for v in ms]), config["inradius_tol"], "<="),
        gate("tube_constant", np.max([v["tube_constant"] for v in ms]), config["c_cap"], "<="),
    ]


# ---------------------------------------------------- comparability scaling


def run_comparability_scaling(
    domain: DomainSpec | None = None,
    m: int = 50,
    A: float = 10.0,
    mu_delta=(0.1, 0.2, 0.4),
    *,
    a_sweep=(3.0, 10.0, 30.0, 100.0),
    stability_modes=(30, 50, 80),
    variation_cap=2.0,
) -> ExperimentReport:
    """Measure of the set where phi^2 breaks local comparability.

    Scaling cells track |E|/(mu delta) across radii, the A sweep must shrink
    |E| monotonically, and the bad-box mass must track |E| across modes
    (stability band measured at fixed mu delta and A).
    """
    if domain is None:
        domain = DomainSpec.interval()
    if domain.n != 1:
        raise ValidationError("comparability scaling is calibrated on the interval")
    for name, values in (
        ("mu_delta", mu_delta), ("a_sweep", a_sweep), ("stability_modes", stability_modes)
    ):
        if len(values) == 0:
            raise ValidationError(f"{name} is empty: the experiment needs one value of each")
        _check_distinct(name, values)
    side_h_divisor = 8.5  # fixed resolution, recorded in the config
    config = {
        "domain_kind": domain.kind,
        "m": int(m),
        "A": float(A),
        "mu_delta": list(mu_delta),
        "a_sweep": list(a_sweep),
        "stability_modes": list(int(v) for v in stability_modes),
        "side_h_divisor": side_h_divisor,
        "variation_cap": variation_cap,
        "slope_band": [0.7, 1.3],
        "stability_cap": 1.5,
    }
    cells = []

    def exceptional_volume(k: int, t: float, a: float):
        mode = _mode(domain, (k,))
        delta = t / mode.mu
        sub = subdivide(domain.lengths, delta)
        rule = ResolutionRule(32.0, h_max=min(sub.sides) / side_h_divisor)
        sample = sample_grid(mode, rule)
        mask, volume = comparability_set(sample, sub, a)
        return sample, sub, mask, volume

    for t in mu_delta:
        cell = CellResult(
            cell=f"scaling;mud={t:g}", params={"kind": "scaling", "m": m, "mu_delta": t, "A": A}
        )
        with _skip_on_guard(cell):
            sample, _, _, evol = exceptional_volume(m, t, A)
            cell.measured = {"e_volume": evol, "ratio": evol / t}
            cell.error = float(max(sample.h))
        cells.append(cell)

    mid_t = list(mu_delta)[len(mu_delta) // 2]
    for a in a_sweep:
        cell = CellResult(
            cell=f"a_sweep;A={a:g}", params={"kind": "a_sweep", "m": m, "mu_delta": mid_t, "A": a}
        )
        with _skip_on_guard(cell):
            sample, _, _, evol = exceptional_volume(m, mid_t, a)
            cell.measured = {"e_volume": evol}
            cell.error = float(max(sample.h))
        cells.append(cell)

    theta = goodness_threshold(domain.n)
    for k in stability_modes:
        cell = CellResult(
            cell=f"stability;m={k}", params={"kind": "stability", "m": int(k), "mu_delta": mid_t, "A": A}
        )
        with _skip_on_guard(cell):
            sample, sub, mask, evol = exceptional_volume(int(k), mid_t, A)
            bad = bad_proportion(sample, sub, mask)
            bad_mass = bad * sub.n_boxes * sub.box_volume
            cell.measured = {
                "e_volume": evol,
                "bad_proportion": bad,
                "bad_mass": bad_mass,
                "bad_mass_over_e": bad_mass / evol,
                "threshold": theta,
            }
            cell.error = float(max(sample.h))
        cells.append(cell)

    gates = GATE_BUILDERS["comparability"](cells, config)
    summary = {
        "ratios": {c.cell: c.measured["ratio"] for c in _live(cells, kind="scaling")},
    }
    return ExperimentReport(
        "comparability", domain.as_dict(), config, cells, gates, summary, None
    )


def _comparability_gates(cells, config):
    gates = []
    scaling = _live(cells, kind="scaling")
    if len(scaling) >= 2:  # a band needs two radii, a slope two distinct ones
        ratios = [c.measured["ratio"] for c in scaling]
        gates.append(gate("ratio_variation", _band(ratios), config["variation_cap"], "<="))
        ts = [c.params["mu_delta"] for c in scaling]
        evs = [c.measured["e_volume"] for c in scaling]
        if len(set(ts)) >= 2:
            slope = float(np.polyfit(np.log(ts), np.log(evs), 1)[0])
            lo, hi = config["slope_band"]
            gates.append(gate("loglog_slope_low", slope, lo, ">="))
            gates.append(gate("loglog_slope_high", slope, hi, "<="))
    sweep = sorted(_live(cells, kind="a_sweep"), key=lambda c: c.params["A"])
    if len(sweep) >= 2:
        evols = [c.measured["e_volume"] for c in sweep]
        gates.append(gate("a_sweep_monotone", np.max(np.diff(evols)), 0.0, "<="))
    if not gates:
        # no gate was taken on the requested mode m; the stability band,
        # taken on fixed modes, cannot pass the report on its own
        return gates
    stability = _live(cells, kind="stability")
    if len(stability) >= 2:
        vals = [c.measured["bad_mass_over_e"] for c in stability]
        gates.append(gate("stability_band", _band(vals), config["stability_cap"], "<="))
    return gates


# ------------------------------------------------------------ approx limit


def run_approx_theorem(
    domain: DomainSpec | None = None,
    C: float = 1.0,
    eps: float = 1.0,
    k_max: int = 10_000,
    *,
    k0: int = 100,
    n_points: int = 10_000,
    seed: int = 2718,
    box_k_max: int = 2000,
) -> ExperimentReport:
    """Convergent tube-volume sums and the vanishing-hit-fraction proxy.

    Partial sums of exact tube volumes at radii C/mu^(n+1+eps) must be Cauchy
    (and hit the closed-form limit on the interval); the fraction of sampled
    points still hit beyond mode k0 must stay under the analytic tail bound.
    """
    check_seed(seed)
    if domain is None:
        domain = DomainSpec.interval()
    n = domain.n
    if n_points < 1:
        raise ValidationError("n_points must be >= 1")
    _check_point_count("n_points", n_points)
    if k_max < 4:
        # the Cauchy cells sit at K = k_max // 4 and 2 (k_max // 4), the same below 4
        raise ValidationError(f"k_max must be >= 4, got {k_max}")
    if box_k_max < 4:
        # likewise for the box sum's cells at box_k_max // 4 and twice that
        raise ValidationError(f"box_k_max must be >= 4, got {box_k_max}")
    if not 0.0 < eps < math.inf:
        raise ValidationError(f"eps must lie in (0, inf), got {eps}")
    modes = enumerate_modes(domain, float(k_max) + 0.5)
    # modes are sorted by mu, so the tail (mu > k0) is an index range
    start = int(np.searchsorted(modes.mu, k0, side="right"))
    tail = slice(start, None)
    if start == len(modes):
        raise ValidationError(f"no mode with mu > k0={k0} up to k_max={k_max}")
    # an eps so large that a tail radius C/mu^(n+1+eps) overflows is rejected
    # here, before any sum; past this k0^eps < mu^(n+1+eps) is finite
    b = n + 1 + eps
    tail_radius = shrinking_radii(modes.mu[tail], C, b)
    if not (k0 > 0 and 0.0 < 2.0 * C < eps * k0**eps):
        # the tail_hit_fraction bound 2C/(eps k0^eps) must lie in (0, 1)
        raise ValidationError(f"need 0 < 2C < eps*k0^eps, got C={C}, eps={eps}, k0={k0}")
    config = {
        "domain_kind": domain.kind,
        "C": float(C),
        "eps": float(eps),
        "k_max": int(k_max),
        "k0": int(k0),
        "n_points": int(n_points),
        "box_k_max": int(box_k_max),
        "limit": math.pi**2 / 3 if (n == 1 and C == 1.0 and eps == 1.0) else None,
        # the partial sum trails the limit by the series tail, just under 2/k_max
        "limit_tol": max(3e-4, 2.2 / k_max),
    }
    cells = []

    bc = borel_cantelli_sum(domain, C, eps, k_max)
    quarter = k_max // 4
    for K in (quarter, 2 * quarter):
        cells.append(
            CellResult(
                cell=f"bc;K={K}",
                params={"kind": "bc", "K": K},
                measured={"partial": float(bc.partial[K - 1]), "gap": bc.cauchy_gap(K)},
                error=0.0,
            )
        )
    cells.append(
        CellResult(
            cell=f"bc;K={k_max}",
            params={"kind": "bc", "K": k_max},
            measured={"partial": float(bc.partial[-1])},
            error=0.0,
        )
    )

    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, domain.lengths, size=(n_points, n))
    hits = int(np.count_nonzero(tail_hits(points, modes, start, tail_radius)))
    frac = hits / n_points
    cells.append(
        CellResult(
            cell=f"hits;k0={k0}",
            params={"kind": "hits", "k0": k0, "b": b, "C": C, "n_points": n_points},
            measured={"fraction": frac, "hits": hits},
            error=float(math.sqrt(max(frac * (1 - frac), 1e-12) / n_points)),
        )
    )

    box = DomainSpec.box((1.0, 1.0))
    bc2 = borel_cantelli_sum(box, C, eps, box_k_max)
    bq = box_k_max // 4
    for K in (bq, 2 * bq):
        cells.append(
            CellResult(
                cell=f"bc2;K={K}",
                params={"kind": "bc2", "K": K},
                measured={"partial": float(bc2.partial[K - 1]), "gap": bc2.cauchy_gap(K)},
                error=0.0,
            )
        )

    gates = GATE_BUILDERS["approx_theorem"](cells, config)
    summary = {"hit_fraction": frac}
    return ExperimentReport(
        "approx_theorem", domain.as_dict(), config, cells, gates, summary, seed
    )


def _approx_gates(cells, config):
    gates = []
    bc = sorted(_live(cells, kind="bc"), key=lambda c: c.params["K"])
    if bc and config.get("limit") is not None:
        final = bc[-1].measured["partial"]
        gates.append(gate("bc_limit_dev", abs(final - config["limit"]), config["limit_tol"], "<="))
    gaps = [c.measured["gap"] for c in bc if "gap" in c.measured]
    if len(gaps) >= 2:
        gates.append(gate("bc_gap_decreasing", np.max(np.diff(gaps)), 0.0, "<="))
    if gaps:
        gates.append(gate("bc_gap_positive", np.min(gaps), 0.0, ">="))
    for hit in _live(cells, kind="hits"):
        k0, eps = config["k0"], config["eps"]
        # the interval tail sum_{k>k0} 2C/(pi k^(1+eps)) is below its integral
        # from k0; at eps = 1 this is 2C/k0 bit for bit
        bound = 2.0 * config["C"] / (eps * k0**eps)
        bound += 3.0 * math.sqrt(bound * (1 - bound) / config["n_points"])
        gates.append(gate("tail_hit_fraction", hit.measured["fraction"], bound, "<="))
    bc2 = sorted(_live(cells, kind="bc2"), key=lambda c: c.params["K"])
    if len(bc2) >= 2:
        gaps2 = [c.measured["gap"] for c in bc2]
        gates.append(gate("bc2_gap_decreasing", np.max(np.diff(gaps2)), 0.0, "<="))
    return gates


# ------------------------------------------------------------ exponent scan


def run_exponent_survey(
    *,
    n_interval: int = 200,
    mu_max_interval: float = 100_000.0,
    n_box: int = 500,
    mu_max_box: float = 2000.0,
    box_alpha=(1.0, math.sqrt(2.0)),
    seed: int = 12345,
    interval_point_min: int | None = None,
) -> ExperimentReport:
    """Per-point approximation exponents on the interval and a weighted box.

    Record-event regression should land near exponent 2 on both families. The
    in-band point-count gate defaults to 90% of the survey size. About 95.7%
    of interval points land in the point band, so 200 points clear the 90%
    gate on every seed of 0-999 (the fewest in band is 182); 100 points
    missed it on 2 of those seeds. With 500 box points the box mean's spread
    over seeds (sd about 0.02) sits far inside its band; 50 points (sd about
    0.06) left it on 14 of 1,000 seeds.
    """
    check_seed(seed)
    if n_interval < 1 or n_box < 1:
        raise ValidationError("n_interval and n_box must be >= 1")
    _check_point_count("n_interval", n_interval)
    _check_point_count("n_box", n_box)
    if len(box_alpha) != 2:  # the box mean band is calibrated on two weights
        raise ValidationError(f"box_alpha must hold 2 weights, got {len(box_alpha)}")
    if interval_point_min is None:
        interval_point_min = int(round(0.9 * n_interval))
    elif not 1 <= interval_point_min <= n_interval:  # at most n_interval points are in band
        raise ValidationError(
            f"interval_point_min must lie in [1, n_interval={n_interval}], got {interval_point_min}"
        )
    interval = DomainSpec.interval()
    box = DomainSpec.box(tuple(float(a) for a in box_alpha))
    config = {
        "n_interval": int(n_interval),
        "mu_max_interval": float(mu_max_interval),
        "n_box": int(n_box),
        "mu_max_box": float(mu_max_box),
        "box_alpha": [float(a) for a in box_alpha],
        "interval_mean_band": [1.8, 2.2],
        "interval_point_band": [1.6, 2.4],
        "interval_point_min": int(interval_point_min),
        "box_mean_band": [1.7, 2.3],
    }
    rng = np.random.default_rng(seed)
    cells = []

    # only record candidates can change an estimate, and estimate_exponent scans
    # only the rows near their convergent denominators, all points at once
    modes_i = record_candidates(interval, mu_max_interval)
    pts_i = rng.uniform(0.0, math.pi, size=n_interval)
    for i, est in enumerate(estimate_exponent(pts_i[:, None], modes_i)):
        cells.append(_exponent_cell("interval", i, float(pts_i[i]), est))

    modes_b = record_candidates(box, mu_max_box)
    pts_b = rng.uniform(0.0, box.lengths, size=(n_box, 2))
    for i, est in enumerate(estimate_exponent(pts_b, modes_b)):
        cells.append(_exponent_cell("box", i, pts_b[i].tolist(), est))

    gates = GATE_BUILDERS["exponent_survey"](cells, config)
    fits = {"interval": [], "box": []}
    for c in _live(cells):
        if not c.measured["low_confidence"]:
            fits[c.params["kind"]].append(c.measured["exponent"])
    summary = {f"{kind}_mean": float(np.mean(v)) if v else None for kind, v in fits.items()}
    return ExperimentReport(
        "exponent_survey", interval.as_dict(), config, cells, gates, summary, seed
    )


def _exponent_cell(kind: str, i: int, x, est) -> CellResult:
    """One survey point's estimate; x is the point as its params record it."""
    return CellResult(
        cell=f"{kind};{i}",
        params={"kind": kind, "i": i, "x": x},
        measured={
            "exponent": est.exponent,
            "n_records": est.n_records,
            "residual": est.residual,
            "low_confidence": int(est.low_confidence),
            "exact_hit": int(est.exact_hit),
        },
    )


def _exponent_gates(cells, config):
    gates = []

    def usable(kind):
        return [
            c.measured["exponent"]
            for c in _live(cells, kind=kind)
            if not c.measured["low_confidence"] and not c.measured["exact_hit"]
        ]

    slopes_i = usable("interval")
    if slopes_i:
        mean_i = float(np.mean(slopes_i))
        lo, hi = config["interval_mean_band"]
        gates.append(gate("interval_mean_low", mean_i, lo, ">="))
        gates.append(gate("interval_mean_high", mean_i, hi, "<="))
    plo, phi = config["interval_point_band"]
    all_i = [c.measured["exponent"] for c in _live(cells, kind="interval")]
    if all_i:
        # a NaN exponent is out of band
        in_band = sum(1 for s in all_i if plo <= s <= phi)
        gates.append(gate("interval_points_in_band", in_band, config["interval_point_min"], ">="))
    slopes_b = usable("box")
    if slopes_b:
        mean_b = float(np.mean(slopes_b))
        blo, bhi = config["box_mean_band"]
        gates.append(gate("box_mean_low", mean_b, blo, ">="))
        gates.append(gate("box_mean_high", mean_b, bhi, "<="))
    return gates


GATE_BUILDERS = {
    "tube_scaling": _tube_gates,
    "yau_ratio": _yau_gates,
    "density": _density_gates,
    "dim2": _dim2_gates,
    "comparability": _comparability_gates,
    "approx_theorem": _approx_gates,
    "exponent_survey": _exponent_gates,
}
