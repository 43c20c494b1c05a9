"""Experiment E-SWEEP: universe-scale family sweeps on the store + census.

Workload: the structural side of the paper at sweep scale — the memoized
``FamilyStore`` serving whole-family entries in O(1) after first access,
the bounded-partition counting DP replacing enumeration for census-style
rollups, and the closed-form census pipeline covering grids the seed's
re-enumerating implementation could only toy with.  Assertions pin the
new paths to the enumerating implementations so a store regression is a
test failure, not a silent slowdown.
"""

from repro.analysis import (
    entry_lookup,
    family_solvability_census,
    run_census,
)
from repro.core import (
    FamilyStore,
    Solvability,
    count_kernel_vectors,
    kernel_vectors,
)


def bench_census_small_grid(benchmark):
    """The smoke census: a small grid, closed forms only, pinned counts."""

    def sweep():
        return run_census(range(2, 13), range(1, 5))

    report = benchmark(sweep)
    totals = report.solvability_totals()
    assert report.feasible_rows == 689
    assert totals[Solvability.TRIVIAL.value] == 177
    assert totals[Solvability.SOLVABLE.value] == 9
    assert totals[Solvability.UNSOLVABLE.value] == 269
    assert totals[Solvability.OPEN.value] == 234


def bench_census_acceptance_grid(benchmark):
    """The acceptance grid n<=20, m<=6: identical to the seed's census."""

    def sweep():
        return family_solvability_census(range(2, 21), range(1, 7))

    census = benchmark(sweep)
    assert census == {
        Solvability.TRIVIAL: 722,
        Solvability.SOLVABLE: 21,
        Solvability.UNSOLVABLE: 1384,
        Solvability.OPEN: 1544,
    }


def bench_store_cold_family(benchmark):
    """First access: one full family annotation (the store's only slow path)."""

    def build():
        store = FamilyStore()
        return store.entries(14, 5)

    entries = benchmark(build)
    assert len(entries) > 20


def bench_store_warm_lookups(benchmark):
    """Dict-indexed entry lookups after the family is cached."""
    store = FamilyStore()
    store.family(12, 4)
    pairs = [entry.parameters[2:] for entry in store.entries(12, 4)]

    def lookups():
        found = 0
        for _ in range(100):
            for low, high in pairs:
                entry = store.entry(12, 4, low, high)
                found += entry.canonical
        return found

    found = benchmark(lookups)
    assert found > 0


def bench_counting_dp_grid(benchmark):
    """Counting DP across a grid, cross-checked against enumeration."""

    def count_grid():
        total = 0
        for n in range(2, 25):
            for m in range(1, min(n, 6) + 1):
                total += count_kernel_vectors(n, m, 0, n)
        return total

    total = benchmark(count_grid)
    assert total == sum(
        len(kernel_vectors(n, m, 0, n))
        for n in range(2, 25)
        for m in range(1, min(n, 6) + 1)
    )


def bench_entry_lookup_o1(benchmark):
    """The atlas row lookup the seed served by full re-enumeration."""
    entry_lookup(16, 5, 1, 6)  # prime the shared store

    def lookups():
        return [entry_lookup(16, 5, 1, 6) for _ in range(500)]

    entries = benchmark(lookups)
    assert all(entry.parameters == (16, 5, 1, 6) for entry in entries)
