"""Experiment E-KERNEL: structure-machinery scaling.

Workload: kernel-set enumeration, synonym-class partitioning and
canonicalization across growing (n, m) grids — the raw combinatorics every
other artifact builds on — plus the prefix-sharing exploration engine's
batched battery (the machinery Theorems 9-11's model checks run on).
Assertions cross-check counts against independent identities (partition
counts, Fubini-style recursions, legacy-explorer multisets).
"""

from repro.core import (
    SymmetricGSBTask,
    canonical_parameters,
    count_kernel_vectors,
    feasible_bound_pairs,
    get_store,
    kernel_vectors,
    synonym_classes,
)
from repro.shm import explore_many, explore_one


def bench_kernel_enumeration_grid(benchmark):
    def enumerate_grid():
        total = 0
        for n in range(2, 15):
            for m in range(1, min(n, 6) + 1):
                total += len(kernel_vectors(n, m, 0, n))
        return total

    total = benchmark(enumerate_grid)
    assert total > 300


def bench_kernel_enumeration_large_single(benchmark):
    kernels = benchmark(kernel_vectors, 40, 6, 1, 20)
    assert kernels
    assert all(sum(kernel) == 40 for kernel in kernels)
    assert len(kernels) == count_kernel_vectors(40, 6, 1, 20)


def bench_kernel_lattice_family_sweep(benchmark):
    """All kernel sets of one family: the master list is enumerated once,
    every (l, u) set derived as a filter over it."""

    def sweep():
        return {
            (low, high): kernel_vectors(30, 5, low, high)
            for low, high in feasible_bound_pairs(30, 5)
        }

    sets = benchmark(sweep)
    master = set(kernel_vectors(30, 5, 0, 30))
    assert all(set(kernels) <= master for kernels in sets.values())
    assert all(
        len(kernels) == count_kernel_vectors(30, 5, low, high)
        for (low, high), kernels in sets.items()
    )


def bench_family_store_entries(benchmark):
    """Whole-family annotation through the memoized store (warm after
    round one — the steady state every analysis artifact rides on)."""
    store = get_store()

    def entries():
        return [store.entries(n, 4) for n in range(4, 15)]

    families = benchmark(entries)
    assert all(families)


def bench_synonym_partition(benchmark):
    def partition():
        return {
            (n, m): synonym_classes(n, m)
            for n in range(4, 10)
            for m in (2, 3)
        }

    classes = benchmark(partition)
    assert classes[(6, 3)] and len(classes[(6, 3)]) == 7


def bench_canonicalization_sweep(benchmark):
    def sweep():
        count = 0
        for n in range(2, 12):
            for m in range(1, min(n, 5) + 1):
                for low, high in feasible_bound_pairs(n, m):
                    canonical_parameters(n, m, low, high)
                    count += 1
        return count

    count = benchmark(sweep)
    assert count > 400


def bench_engine_exploration_battery(benchmark):
    """Batched exhaustive exploration of the built-in specs at n <= 3.

    The wsb-grh cell alone enumerates 39,330 interleavings — ~11 s on the
    legacy re-execution explorer, ~0.1 s on the generator-core engine,
    ~0.02 s on the compiled protocol core this battery now rides by
    default (see docs/architecture.md).
    """

    def battery():
        return explore_many(["wsb", "renaming", "wsb-grh"], [2, 3])

    results = benchmark(battery)
    assert all(result.violations == 0 for result in results)
    assert sum(result.runs for result in results) > 40_000


def bench_engine_exploration_n4_frontier(benchmark):
    """The n = 4 frontier the legacy explorer cannot reach in benchmark time.

    Figure 2's renaming protocol at n = 4 has 369,600 interleavings; the
    legacy path needs ~130 s, the memoized engine materializes only 240
    leaves (~0.5 s on the generator core, ~0.1 s on the compiled core).
    One round keeps the suite fast while pinning the claim.
    """
    result = benchmark.pedantic(
        explore_one, args=("renaming", 4), rounds=1, iterations=1
    )
    assert result.runs == 369_600
    assert result.violations == 0
    assert result.stats.memo_hits > 0


def bench_containment_checks(benchmark):
    tasks = [
        SymmetricGSBTask(10, 4, low, high)
        for low, high in feasible_bound_pairs(10, 4)
    ]

    def all_pairs():
        included = 0
        for first in tasks:
            for second in tasks:
                if first.includes(second):
                    included += 1
        return included

    included = benchmark(all_pairs)
    assert included >= len(tasks)  # at least the reflexive pairs
