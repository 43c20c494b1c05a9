"""Speed probe: how fast the CPU it is pinned to runs, sampled over time.

Usage: ``python probe.py OUT_JSON`` (the benchmark pins it to the CPU
its workload runs on).

A virtual CPU of a shared host does not run at one speed: the same
fixed loop takes ~1.45x longer in its slow spells than in its fast ones,
and a spell lasts from seconds to minutes.  Every ``PERIOD_S`` the probe
runs ``LOOP`` once and records when it ended (``time.perf_counter``, the
clock the benchmark's other processes use) and the loop's own thread CPU
time in ms.  Thread CPU time leaves out any time the probe waited for
the workload to yield the CPU, so a sample tracks the CPU's speed, not
how busy it is.  On SIGTERM the probe writes ``[[t, ms], ...]`` to
``OUT_JSON`` and exits.
"""

from __future__ import annotations

import json
import signal
import sys
import time

PERIOD_S = 0.02
#: Iterations of the sampled loop: 0.2-0.3 ms of CPU on the 2-vCPU x86
#: machine the workloads were sized on, so the probe takes ~1% of the
#: CPU it shares.
LOOP = 3000


def loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def main() -> int:
    stopping = False

    def stop(signum, frame):
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, stop)
    samples = []
    while not stopping:
        started = time.thread_time()
        loop()
        spent = time.thread_time() - started
        samples.append((time.perf_counter(), spent * 1000))
        time.sleep(PERIOD_S)
    with open(sys.argv[1], "w") as out:
        json.dump(samples, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
