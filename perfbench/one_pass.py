"""One pass of a workload in a fresh interpreter; prints one JSON line.

A pass runs the workload's drivers one after another and writes each report
with ``write_report``; ``wall_s`` times exactly that. The reports are then
checked (see ``check.py``). With ``--trace FILE`` the nodalab functions are
wrapped first, and the spans go to FILE when the pass ends, never into a
report. Run it from the repository root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/one_pass.py --workload NAME --seed N --out DIR [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import check
import tracer
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    from nodalab import reports

    spans = None
    if args.trace:
        spans = tracer.Tracer()
        tracer.instrument(spans)
    calls = workloads.driver_calls(args.workload, args.seed)
    raised = []
    start = time.perf_counter()
    for label, call in calls:
        try:
            reports.write_report(call(), args.out)
        except Exception:
            traceback.print_exc()
            raised.append(label)
    end = time.perf_counter()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = check.check_pass(args.out)
    result.update(
        drivers=len(calls),
        raised=raised,
        wall_s=end - start,
        peak_rss_mb=usage.ru_maxrss * 1024 / tracer.MB,
        sys_s=usage.ru_stime,
        minor_faults=usage.ru_minflt,
    )
    if spans is not None:
        layers = spans.summary()
        result["layers"] = layers
        # the self times of all spans in the pass sum to their root spans' durations
        result["accounted_s"] = sum(
            s["end"] - s["start"] for s in spans.spans if s["parent"] is None and s["end"] <= end
        )
        with open(args.trace, "w") as fh:
            json.dump(
                {"workload": args.workload, "seed": args.seed, "wall_s": end - start,
                 "layers": layers, "spans": spans.spans},
                fh,
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
