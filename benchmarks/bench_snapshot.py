"""Experiment E-SNAP: the snapshot substrates.

Paper context: Section 2.1 assumes atomic snapshots WLOG because they are
register-implementable [1].  This bench measures the register-only
implementation (double collect + helping) against the one-step primitive,
and the one-shot immediate snapshot used by the topology substrate.
Shape expectation: the register implementation costs O(n) reads per clean
scan and stays correct under contention; the primitive is one step.
"""

import random

from repro.shm import (
    RandomScheduler,
    RegisterSnapshot,
    check_immediate_snapshot_views,
    immediate_snapshot,
    run_algorithm,
    snapshot_array_initial,
)
from repro.shm.ops import Snapshot, Write
from repro.shm.runtime import default_identities


def _register_snapshot_algorithm(updates):
    def algorithm(ctx):
        snap = RegisterSnapshot(ctx, "S")
        for index in range(updates):
            yield from snap.update((ctx.identity, index))
        view = yield from snap.scan()
        return view

    return algorithm


def _primitive_snapshot_algorithm(updates):
    def algorithm(ctx):
        for index in range(updates):
            yield Write("S", (ctx.identity, index))
        view = yield Snapshot("S")
        return view

    return algorithm


def bench_register_snapshot_contended(benchmark):
    n, updates = 5, 3

    def run():
        total_steps = 0
        for seed in range(10):
            result = run_algorithm(
                _register_snapshot_algorithm(updates),
                default_identities(n, random.Random(seed)),
                RandomScheduler(seed),
                arrays={"S": snapshot_array_initial(n)},
                record_trace=False,
            )
            assert all(output is not None for output in result.outputs)
            total_steps += result.steps
        return total_steps

    steps = benchmark(run)
    # Each clean scan costs at least 2n reads; updates embed scans.
    assert steps >= 10 * n * updates * (2 * n)


def bench_primitive_snapshot_contended(benchmark):
    n, updates = 5, 3

    def run():
        total_steps = 0
        for seed in range(10):
            result = run_algorithm(
                _primitive_snapshot_algorithm(updates),
                default_identities(n, random.Random(seed)),
                RandomScheduler(seed),
                arrays={"S": None},
                record_trace=False,
            )
            total_steps += result.steps
        return total_steps

    steps = benchmark(run)
    assert steps == 10 * n * (updates + 1)


def bench_immediate_snapshot(benchmark):
    n = 6

    def run():
        views_ok = True
        for seed in range(10):
            def algorithm(ctx):
                view = yield from immediate_snapshot(ctx, "IS", ctx.identity)
                return tuple(sorted(view.items()))

            result = run_algorithm(
                algorithm,
                default_identities(n, random.Random(seed)),
                RandomScheduler(seed),
                arrays={"IS": None},
                record_trace=False,
            )
            views = {
                pid: dict(output)
                for pid, output in enumerate(result.outputs)
            }
            if check_immediate_snapshot_views(views):
                views_ok = False
        return views_ok

    assert benchmark(run)


def _chatty_algorithm(rounds):
    def algorithm(ctx):
        for index in range(rounds):
            yield Write("S", (ctx.identity, index))
            yield Snapshot("S")
        return ctx.identity

    return algorithm


def bench_fork_depth20_compiled_vs_generator(benchmark):
    """E-FORK: the compiled core's O(1) fork vs generator replay, depth 20.

    The generator runtime rebuilds each live process's generator by
    replaying its whole result log, so a fork at depth d costs O(d)
    resumptions; the compiled machine copies a few flat arrays.  The
    acceptance bar for the compiled protocol core is >= 10x at depth 20
    (measured ~100x+; see docs/architecture.md for the table).
    """
    import time

    from repro.shm import RoundRobinScheduler, Runtime, compile_protocol
    from repro.shm.runtime import default_identities

    n, rounds, depth = 2, 10, 20
    algorithm = _chatty_algorithm(rounds)
    identities = default_identities(n)

    runtime = Runtime(
        algorithm, identities, RoundRobinScheduler(), arrays={"S": None}
    )
    program = compile_protocol(algorithm, identities, arrays={"S": None})
    machine = program.machine()
    for _ in range(rounds):
        for pid in range(n):
            runtime.step(pid)
            machine.step(pid)
    assert runtime.step_count == machine.step_count == depth

    def time_forks(forkable, count=300):
        started = time.perf_counter()
        for _ in range(count):
            forkable.fork()
        return time.perf_counter() - started

    def measure():
        generator_seconds = time_forks(runtime)
        compiled_seconds = time_forks(machine)
        return generator_seconds / compiled_seconds

    speedup = benchmark(measure)
    assert machine.fork().orbit_key() == machine.orbit_key()
    assert speedup >= 10, f"compiled fork only {speedup:.1f}x faster"
