"""Memory gate on the orbit quotient's memo table.

Every explored orbit keeps one memo key and one memo entry alive until
its exploration ends, and that table is what fills memory on large
explorations.  The peak of the memory Python allocates during one
exploration (``tracemalloc``, so the figure does not depend on the
allocator or the host), divided by the orbits it memoized, is what one
orbit costs.  On CPython 3.11 the flat, shared keys and interned
entries take about 260 and 520 bytes per orbit; the bounds leave room
for other CPython versions.  A memo that stores nested keys with their
own cell copies and one dict per entry goes over them (about 755 and
980 bytes per orbit).
"""

import gc
import tracemalloc

import pytest

from repro.shm.engine import explore_one

#: (spec, n) -> the most peak bytes one memoized orbit may cost.
BOUNDS = {
    ("wsb-grh", 4): 450,
    ("renaming", 5): 750,
}


@pytest.mark.parametrize("name,n", sorted(BOUNDS))
def test_peak_bytes_per_orbit(name, n):
    explore_one(name, 2)  # import the spec's modules outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        result = explore_one(name, n)  # a fresh factory: a cold step table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_orbit = peak / result.stats.orbits
    assert per_orbit < BOUNDS[name, n], (
        f"{name} n={n}: {per_orbit:.0f} B per orbit "
        f"({peak} B peak over {result.stats.orbits} orbits)"
    )
