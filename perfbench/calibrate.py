"""Host-speed sampler: times a small fixed probe while the benchmark runs.

On a shared 2-core Xeon VM (``hardware`` in ``baseline.json``) the host's
speed drifted by up to 40% within minutes, and every kind of work slowed
together: pure-Python loops, page faults and numpy kernels on cache-sized and
larger arrays all moved with the workloads' passes, with CPU time tracking
wall time and almost no steal. A probe timed only before and after a 20-second pass
misses a change in the middle of it, so ``run.py`` keeps this sampler running
beside its passes and scales each pass by the probe times taken during it.
The sampler shares the machine, not the pass's core, so it follows drift of
the whole host; contention on one core it does not see.

Every ``INTERVAL_S`` the sampler times one probe: the fastest of three runs
of a pure-Python loop plus the mod/min scan of ``dioph`` and ``spectrum`` on
5*10^4 points (its arrays stay in a core's own cache, so the passes on the
other core hardly slow it). The first run after a sleep pays for waking up,
hence the fastest of three. A probe reports about 2.5 ms and costs three
times that, so the sampler keeps the other core busy for a few percent of the
time. It stops when its standard input closes and then prints one line per
probe: ``<time.monotonic() at the start> <seconds>``.

    python3 perfbench/calibrate.py < /dev/null
"""

from __future__ import annotations

import select
import sys
import time

import numpy as np

INTERVAL_S = 0.25
_SPACING = np.random.default_rng(0).random(50_000) + 0.1


def _unit() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i % 7
    r = np.mod(0.37, _SPACING)
    np.minimum(r, _SPACING - r).sum()
    return time.perf_counter() - start


def probe() -> float:
    """Seconds of the fastest of three back-to-back runs of a fixed unit of work."""
    return min(_unit() for _ in range(3))


def main() -> None:
    probe()  # warm-up: first-use costs are not host speed
    samples = []
    while True:
        samples.append((time.monotonic(), probe()))
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.buffer.read1(4096):
            break
    print("\n".join(f"{t!r} {s!r}" for t, s in samples))


if __name__ == "__main__":
    main()
