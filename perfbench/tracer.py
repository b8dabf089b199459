"""In-memory spans around calls into nodalab's public functions.

The tracer replaces a function at the places its callers look it up (module
attributes), so nothing inside ``src/`` changes. One wrapper is made per
original function and installed at every lookup site, so a function has one
span name however it is reached. Spans stay in memory; ``Tracer.summary``
aggregates them and the caller writes them to a sidecar file.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc

MB = 1e6


# span name -> {count name: function(result) -> number}
COUNTS = {
    "grid.sample_grid": {"points": lambda r: r.values.size},
    "nodal.extract_nodal": {"vertices": lambda r: r.vertices.shape[0]},
    "distance.distance_field": {"points": lambda r: r.dist.size},
    "measures.oracle": {"points": lambda r: r.size},
    "dioph.modes_nodal_distance": {"distances": lambda r: r.size},
    "spectrum.enumerate_modes": {"modes": lambda r: len(r)},
    "reports.write_report": {"bytes": lambda r: sum(p.stat().st_size for p in r)},
}

# spans whose tracemalloc peak is recorded (tracemalloc runs only inside them)
PEAK_SPANS = ("distance.distance_field",)


class Tracer:
    """Spans of one process: name, start, end, parent index, counts."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name, {})
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "parent": parent, "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                span["end"] = time.perf_counter()
                self._stack.pop()
            for key, count in counts.items():
                span[key] = int(count(result))
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s, summed counts, max peak_mb.

        Self time is a span's duration minus its direct children's durations;
        spans nest strictly because the pass is single-threaded.
        """
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s, inner in zip(self.spans, child_s):
            agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - inner
            for key in COUNTS.get(s["name"], {}):
                agg[key] = agg.get(key, 0) + s[key]
            if "peak_mb" in s:
                agg["peak_mb"] = max(agg.get("peak_mb", 0.0), s["peak_mb"])
        return out


def _span_name(fn) -> str:
    return fn.__module__.removeprefix("nodalab.") + "." + fn.__name__


def instrument(tracer: Tracer) -> None:
    """Wrap nodalab's public functions where the drivers and benchmark look them up.

    Sites: every function ``harness`` binds with ``from .x import y``; the
    ``run_*`` drivers; ``measures.tube_volume`` (``nodal_measure`` calls it
    through the module) and ``measures.nodal_distance_exact`` (the oracle,
    named ``measures.oracle``); ``dioph.modes_nodal_distance`` and
    ``dioph.enumerate_modes``; ``spectrum.tube_volume_exact``, which
    ``borel_cantelli_sum`` imports lazily; ``reports.write_report`` and
    ``reports.verify_report``.
    """
    from nodalab import dioph, harness, measures, reports, spectrum

    wrappers = {}

    def install(module, attr, name=None):
        fn = getattr(module, attr)
        key = (fn, name)
        if key not in wrappers:
            wrappers[key] = tracer.wrap(name or _span_name(fn), fn)
        setattr(module, attr, wrappers[key])

    for attr, value in vars(harness).copy().items():
        if inspect.isfunction(value) and value.__module__.startswith("nodalab."):
            if value.__module__ != "nodalab.harness" or attr.startswith("run_"):
                install(harness, attr)
    install(measures, "tube_volume")
    install(measures, "nodal_distance_exact", "measures.oracle")
    install(dioph, "modes_nodal_distance")
    install(dioph, "enumerate_modes")
    install(spectrum, "tube_volume_exact")
    install(reports, "write_report")
    install(reports, "verify_report")
