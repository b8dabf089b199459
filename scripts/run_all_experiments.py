#!/usr/bin/env python3
"""Run the full experiment battery and write reports to an output directory.

Each experiment produces a JSON report (cells, gates, verdict, param hash)
and a CSV of the raw cells. The script prints one summary line per
experiment, the note of each skipped cell under it, lists any failed gates,
and exits 1 if anything failed. Its second-to-last line is the process's
peak resident set size (``getrusage`` max RSS, in 10^6 bytes). Its last
line is the sha256 of the reports' ``sha256sum`` listing, sorted by file
name: the hash that ``(cd OUT && sha256sum * | sha256sum)`` prints when OUT
holds only these reports, so two runs compare byte for byte in one line.

Full mode takes 11-12 s on a 2-core VM, four fifths of it in the torus
tube cells and about 0.2 s in the exponent survey; --quick drops the
expensive torus tube cells and shrinks the surveys for a fast smoke run
(about 3 s).
"""

import argparse
import hashlib
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nodalab import (
    DomainSpec,
    run_approx_theorem,
    run_comparability_scaling,
    run_density_check,
    run_dim2_checks,
    run_exponent_survey,
    run_tube_scaling,
    run_yau_check,
    write_report,
)


def build_jobs(quick: bool, seed: int):
    interval = DomainSpec.interval()
    torus = DomainSpec.torus((1.0, 1.0))

    if quick:
        tube_torus_kwargs = dict(modes=((3, 4), (5, 5), (2, 7)), mu_delta=(0.1, 0.2, 0.3))
        exponent_kwargs = dict(
            n_interval=25,
            mu_max_interval=5e4,
            n_box=10,
            interval_point_min=20,
            seed=seed,
        )
        approx_kwargs = dict(k_max=2000, n_points=2000, k0=50, box_k_max=400, seed=seed)
    else:
        tube_torus_kwargs = {}
        exponent_kwargs = dict(seed=seed)
        approx_kwargs = dict(seed=seed)

    return [
        ("tube interval", lambda: run_tube_scaling(interval, include_break_cell=True)),
        ("tube torus", lambda: run_tube_scaling(torus, include_break_cell=True, **tube_torus_kwargs)),
        ("yau interval", lambda: run_yau_check(interval)),
        ("yau torus", lambda: run_yau_check(torus)),
        ("density interval", lambda: run_density_check(interval)),
        ("density torus", lambda: run_density_check(torus)),
        ("dim2 torus", lambda: run_dim2_checks()),
        ("comparability", lambda: run_comparability_scaling()),
        ("approx theorem", lambda: run_approx_theorem(**approx_kwargs)),
        ("exponent survey", lambda: run_exponent_survey(**exponent_kwargs)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="report output directory")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed of the approx theorem's and the exponent survey's sampled points",
    )
    parser.add_argument("--quick", action="store_true", help="smaller configs, same gates")
    args = parser.parse_args(argv)

    jobs = build_jobs(args.quick, args.seed)

    failures = 0
    skipped_total = 0
    paths = []
    t_start = time.monotonic()
    for label, job in jobs:
        t0 = time.monotonic()
        report = job()
        elapsed = time.monotonic() - t0
        json_path, csv_path = write_report(report, args.out)
        paths += [json_path, csv_path]
        n_pass = sum(1 for g in report.gates if g.passed)
        n_skip = sum(1 for c in report.cells if c.skipped)
        skipped_total += n_skip
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{label:18s} {verdict}  gates {n_pass}/{len(report.gates)}"
            f"  cells {len(report.cells)} ({n_skip} skipped)"
            f"  {elapsed:6.1f}s  {json_path}"
        )
        for c in report.cells:
            if c.skipped:
                print(f"    skipped cell {c.cell}: {c.note}")
        if not report.passed:
            failures += 1
            for g in report.gates:
                if not g.passed:
                    print(f"    failed gate {g.name}: {g.value!r} not {g.op} {g.bound!r}")

    total = time.monotonic() - t_start
    print(
        f"\n{len(jobs) - failures}/{len(jobs)} experiments passed,"
        f" {skipped_total} cells skipped, {total:.1f}s total"
    )
    listing = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
        for p in sorted(paths, key=lambda p: p.name)
    )
    # ru_maxrss counts KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"peak rss {peak_mb:.1f} MB")
    print(f"reports sha256 {hashlib.sha256(listing.encode()).hexdigest()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
