"""nodalab benchmark: three closed-loop workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``baseline.json``): ``torus-measure``,
``sign-domains`` and ``spectral-scan``. Every pass runs in a fresh
interpreter, as a CLI call would.

``--trace 0`` runs untraced passes until the next one would end after
``--seconds`` (at least one) and reports the median ``wall_s`` and
``peak_rss_mb``; report bytes are compared between passes when there are
several. Before and after the passes it times ``import nodalab`` in fresh
interpreters (``setup_s`` is their median). On a shared 2-core VM the host's
speed drifted by up to 40% within minutes, so the sampler in
``calibrate.py`` runs beside all of this, and each pass's time and the
import times are scaled by the probe times taken during them to the speed at
which one probe takes ``REFERENCE_PROBE_S``: ``setup_s`` and ``wall_s`` are
seconds on that reference host. The unscaled times and the mean probe time
are printed beside them.

``--trace 1`` runs one untraced and one traced pass, checks that their report
bytes are equal, writes the spans to
``perfbench/out/<workload>-<seed>/trace.json`` and reports the per-layer
metrics.

Every run checks the reports: a failed gate, a skipped cell, a driver that
raises, a ``verify_report`` mismatch or a byte difference between passes is
named on stderr and makes the run exit 1 after its result line. The last line
of stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` (driver
reports over all passes) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
SETUP_PROBES = 9
# about calibrate.probe()'s median time on a 2-core Intel Xeon VM; it only fixes the unit
REFERENCE_PROBE_S = 0.0025
DEADLINE_S = 170.0

# input-size counts: a change shows a resized workload, not a speed-up
INPUT_COUNTS = (
    "grid.sample_grid.points",
    "spectrum.enumerate_modes.modes",
    "dioph.modes_nodal_distance.distances",
)

# per-layer metric -> (span name, stat, unit); stats come from Tracer.summary
LAYER_METRICS = {
    "grid.sample_grid.self_s": ("grid.sample_grid", "self_s", "s"),
    "grid.sample_grid.points": ("grid.sample_grid", "points", "count"),
    "nodal.extract_nodal.self_s": ("nodal.extract_nodal", "self_s", "s"),
    "nodal.extract_nodal.vertices": ("nodal.extract_nodal", "vertices", "count"),
    "distance.distance_field.self_s": ("distance.distance_field", "self_s", "s"),
    "distance.distance_field.calls": ("distance.distance_field", "calls", "count"),
    "distance.distance_field.points": ("distance.distance_field", "points", "count"),
    "distance.distance_field.peak_mb": ("distance.distance_field", "peak_mb", "MB"),
    "measures.tube_volume.self_s": ("measures.tube_volume", "self_s", "s"),
    "measures.tube_volume.calls": ("measures.tube_volume", "calls", "count"),
    "measures.oracle_points": ("measures.oracle", "points", "count"),
    "measures.oracle_s": ("measures.oracle", "total_s", "s"),
    "components.sign_components.self_s": ("components.sign_components", "self_s", "s"),
    "components.component_inradii.self_s": ("components.component_inradii", "self_s", "s"),
    "boxes.comparability_set.self_s": ("boxes.comparability_set", "self_s", "s"),
    "boxes.compute_box_stats.self_s": ("boxes.compute_box_stats", "self_s", "s"),
    "dioph.modes_nodal_distance.self_s": ("dioph.modes_nodal_distance", "self_s", "s"),
    "dioph.modes_nodal_distance.calls": ("dioph.modes_nodal_distance", "calls", "count"),
    "dioph.modes_nodal_distance.distances": ("dioph.modes_nodal_distance", "distances", "count"),
    "dioph.estimate_exponent.self_s": ("dioph.estimate_exponent", "self_s", "s"),
    "dioph.borel_cantelli_sum.self_s": ("dioph.borel_cantelli_sum", "self_s", "s"),
    "spectrum.enumerate_modes.self_s": ("spectrum.enumerate_modes", "self_s", "s"),
    "spectrum.enumerate_modes.modes": ("spectrum.enumerate_modes", "modes", "count"),
    "spectrum.tube_volume_exact.self_s": ("spectrum.tube_volume_exact", "self_s", "s"),
    "spectrum.tube_volume_exact.calls": ("spectrum.tube_volume_exact", "calls", "count"),
    "reports.write_report.self_s": ("reports.write_report", "self_s", "s"),
    "reports.write_report.bytes": ("reports.write_report", "bytes", "B"),
    "reports.verify_report.self_s": ("reports.verify_report", "self_s", "s"),
}
for _driver in ("run_yau_check", "run_dim2_checks", "run_density_check",
                "run_comparability_scaling", "run_approx_theorem", "run_exponent_survey"):
    for _stat in ("total_s", "self_s"):
        LAYER_METRICS[f"harness.{_driver}.{_stat}"] = (f"harness.{_driver}", _stat, "s")


class BenchError(Exception):
    """The benchmark could not run (no program to measure, a pass died or ran out of time)."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # one client in one process: BLAS may use at most the cores this process may run on
    cores = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, cores)
    return env


def _run_child(cmd, env, deadline) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {' '.join(cmd[1:3])}")
    try:
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(cmd[1:])} did not finish within {timeout:.0f} s") from e


def setup_time(root: Path, env: dict, deadline: float) -> tuple[float, float]:
    """Start and seconds from starting a fresh interpreter until ``import nodalab`` returns."""
    probe = "import time; import nodalab; print(time.monotonic()); print(nodalab.__file__)"
    start = time.monotonic()
    proc = _run_child([sys.executable, "-c", probe], env, deadline)
    if proc.returncode != 0:
        raise BenchError(f"import nodalab failed:\n{proc.stderr}")
    stamp, where = proc.stdout.rstrip("\n").split("\n", 1)
    if not Path(where).resolve().is_relative_to(root / "src"):
        raise BenchError(f"imported nodalab from {where}, not from {root / 'src'}")
    return start, float(stamp) - start


def speed_scale(samples, windows) -> float:
    """Reference probe time over the mean probe time within the (start, seconds) windows.

    ``samples`` are (start, seconds) probe times from ``calibrate.py``.
    """
    inside = [s for t, s in samples if any(a <= t <= a + d for a, d in windows)]
    if not inside:
        raise BenchError("calibrate.py took no probe while the work ran")
    return REFERENCE_PROBE_S / statistics.mean(inside)


class HostSampler:
    """``calibrate.py`` running beside the passes, started on construction."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.samples = []

    def stop(self) -> None:
        """Close the sampler's input, wait for it to end and read its probe times."""
        try:
            out, err = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("calibrate.py did not stop") from None
        if self.proc.returncode != 0:
            raise BenchError(f"calibrate.py failed:\n{err}")
        self.samples = [tuple(map(float, line.split())) for line in out.splitlines()]


def run_pass(workload, seed, out_dir: Path, env, deadline, trace_file=None) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    start = time.monotonic()
    proc = _run_child(cmd, env, deadline)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"pass {out_dir.name} exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["start"] = start
    result["elapsed_s"] = time.monotonic() - start
    return result


def assess(passes, pass_dirs) -> dict:
    """Correctness tallies over the passes of one run, plus problem lines."""
    problems, unstable, failed = [], set(), 0
    for k, (p, d) in enumerate(zip(passes, pass_dirs)):
        problems += [f"{d.name}: driver {label} raised" for label in p["raised"]]
        problems += [f"{d.name}/{line}" for line in p["problems"]]
        differ = set()
        if k > 0:
            differ, lines = check.compare_passes(pass_dirs[0], d)
            problems += lines
        unstable |= differ | set(p["unverified"])
        failed += len(p["raised"]) + len(differ | set(p["bad"]))
    cells = sum(p["cells"] + len(p["raised"]) for p in passes)
    cells_failed = sum(p["cells_failed"] + len(p["raised"]) for p in passes)
    return {
        "attempted": sum(p["drivers"] for p in passes),
        "failed": failed,
        "cells_failed_frac": cells_failed / cells if cells else 1.0,
        "gates_failed": max(p["gates_failed"] for p in passes),
        "reports_unstable": len(unstable),
        "problems": problems,
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "nodalab" / "__init__.py").is_file():
        print(f"error: no nodalab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = _child_env(root)
    run_dir = HERE / "out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    sampler = None
    try:
        passes, dirs = [], []

        def one(trace_file=None):
            d = run_dir / f"pass{len(dirs)}"
            dirs.append(d)
            passes.append(run_pass(args.workload, args.seed, d, env, deadline, trace_file))
            return passes[-1]

        if args.trace:
            untraced = one()
            traced = one(run_dir / "trace.json")
        else:
            sampler = HostSampler(env)
            # import probes before and after the passes sample the host at both ends
            setup = [setup_time(root, env, deadline) for _ in range(SETUP_PROBES // 2 + 1)]
            start = time.monotonic()
            while True:
                one()
                elapsed = time.monotonic() - start
                typical = statistics.median(p["elapsed_s"] for p in passes)
                if elapsed + typical > args.seconds:
                    break
            setup += [setup_time(root, env, deadline) for _ in range(SETUP_PROBES // 2)]
            sampler.stop()
            setup_s = statistics.median(d for _, d in setup) * speed_scale(sampler.samples, setup)
            wall_s = statistics.median(
                p["wall_s"] * speed_scale(sampler.samples, [(p["start"], p["elapsed_s"])])
                for p in passes
            )
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if sampler is not None and sampler.proc.poll() is None:
            sampler.proc.kill()
            sampler.proc.communicate()

    tally = assess(passes, dirs)
    if args.trace:
        layers = traced["layers"]
        metrics = {
            name: _metric(layers.get(span, {}).get(stat, 0), unit)
            for name, (span, stat, unit) in LAYER_METRICS.items()
        }
        metrics["trace.wall_s"] = _metric(traced["wall_s"], "s")
        metrics["trace.untraced_wall_s"] = _metric(untraced["wall_s"], "s")
        metrics["trace.accounted_frac"] = _metric(traced["accounted_s"] / traced["wall_s"], "ratio")
        # kernel time and page faults of the untraced pass (whole process, import included)
        metrics["process.sys_s"] = _metric(untraced["sys_s"], "s")
        metrics["process.minor_faults"] = _metric(untraced["minor_faults"], "count")
        stored = json.loads(BASELINE.read_text())["input_counts"][args.workload]
        for name in INPUT_COUNTS:
            if metrics[name]["value"] != stored[name]:
                print(f"NOTE {name} is {metrics[name]['value']}, baseline.json has "
                      f"{stored[name]}: the workload's input size changed", file=sys.stderr)
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(wall_s, "s"),
            "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    shown = dict(metrics)
    if not args.trace:
        shown["unscaled_setup_s"] = _metric(statistics.median(d for _, d in setup), "s")
        shown["unscaled_wall_s"] = _metric(statistics.median(p["wall_s"] for p in passes), "s")
        shown["probe_s"] = _metric(statistics.mean(s for _, s in sampler.samples), "s")
    for key, unit in (("cells_failed_frac", "ratio"), ("gates_failed", "count"),
                      ("reports_unstable", "count")):
        shown[key] = _metric(tally[key], unit)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} trace={args.trace}")
    for name, m in shown.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    for line in tally["problems"]:
        print(f"FAIL {line}", file=sys.stderr)
    correct = not tally["problems"]
    print(json.dumps({"correct": correct, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
