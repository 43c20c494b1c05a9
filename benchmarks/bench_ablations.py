"""Ablation experiments for the design choices DESIGN.md calls out.

* **Snapshot WLOG** — Figure 2 on the one-step snapshot primitive vs. the
  register-only implementation: same outputs, measurably more register
  steps (what Section 2.1's "without loss of generality" costs).
* **Scheduler sensitivity** — adaptive renaming's step count under
  benign (round-robin) vs. adversarial (solo, random, block) schedulers:
  contention, not size, drives retries.
* **Oracle adversarial freedom** — Figure 2 validity is independent of the
  slot oracle's strategy (deterministic, random, collision-steering).
"""

import random

from repro.algorithms import (
    adaptive_renaming_algorithm,
    figure2_register_system_factory,
    figure2_renaming,
    figure2_renaming_register_snapshot,
    figure2_system_factory,
    figure2_task,
)
from repro.shm import (
    BlockScheduler,
    LexMinStrategy,
    RandomScheduler,
    RandomStrategy,
    RoundRobinScheduler,
    SoloScheduler,
    colliding_slot_strategy,
    run_algorithm,
)
from repro.shm.runtime import default_identities


def _total_steps(algorithm, factory, n, scheduler_factory, seeds):
    total = 0
    for seed in seeds:
        arrays, objects = factory()
        result = run_algorithm(
            algorithm,
            default_identities(n, random.Random(seed)),
            scheduler_factory(seed),
            arrays=arrays,
            objects=objects,
            record_trace=False,
        )
        assert all(output is not None for output in result.outputs)
        total += result.steps
    return total


def bench_ablation_snapshot_primitive(benchmark):
    n = 5
    steps = benchmark(
        _total_steps,
        figure2_renaming(),
        figure2_system_factory(n, seed=1),
        n,
        lambda seed: RandomScheduler(seed),
        range(15),
    )
    assert steps == 15 * n * 3  # invoke + write + snapshot per process


def bench_ablation_snapshot_register_impl(benchmark):
    n = 5
    steps = benchmark(
        _total_steps,
        figure2_renaming_register_snapshot(),
        figure2_register_system_factory(n, seed=1),
        n,
        lambda seed: RandomScheduler(seed),
        range(15),
    )
    # The WLOG costs real work: scans need >= 2n reads each.
    assert steps > 15 * n * 3 * 3


def bench_ablation_scheduler_contention(benchmark):
    n = 6

    def sweep():
        factory = lambda: ({"RENAME": None}, {})
        outcomes = {}
        outcomes["solo"] = _total_steps(
            adaptive_renaming_algorithm(), factory, n,
            lambda seed: SoloScheduler(), range(10),
        )
        outcomes["round-robin"] = _total_steps(
            adaptive_renaming_algorithm(), factory, n,
            lambda seed: RoundRobinScheduler(), range(10),
        )
        outcomes["random"] = _total_steps(
            adaptive_renaming_algorithm(), factory, n,
            lambda seed: RandomScheduler(seed), range(10),
        )
        outcomes["block"] = _total_steps(
            adaptive_renaming_algorithm(), factory, n,
            lambda seed: BlockScheduler([list(range(n))]), range(10),
        )
        return outcomes

    outcomes = benchmark(sweep)
    # Solo runs are deterministic: the first process decides its initial
    # proposal (2 steps); each later one sees the decided proposals, takes
    # exactly one rank-based retry (4 steps).
    assert outcomes["solo"] == 10 * (2 + 4 * (n - 1))
    assert outcomes["block"] >= outcomes["solo"] // 2


def bench_ablation_oracle_strategies(benchmark):
    n = 6
    task = figure2_task(n)

    def sweep():
        failures = 0
        strategies = [
            LexMinStrategy(),
            RandomStrategy(),
            colliding_slot_strategy(n, 1, collide_first=True),
            colliding_slot_strategy(n, n - 1, collide_first=False),
        ]
        for index, strategy in enumerate(strategies):
            factory = figure2_system_factory(n, seed=index, strategy=strategy)
            for seed in range(10):
                arrays, objects = factory()
                result = run_algorithm(
                    figure2_renaming(),
                    default_identities(n, random.Random(seed)),
                    RandomScheduler(seed + index),
                    arrays=arrays,
                    objects=objects,
                )
                if not task.is_legal_output(result.outputs):
                    failures += 1
        return failures

    failures = benchmark(sweep)
    assert failures == 0


def bench_ablation_runtime_core(benchmark):
    """Compiled step-table core vs the generator reference runtime.

    Same exhaustive exploration (wsb-grh n=3, 39330 logical runs), same
    decided-vector multiset, different execution core: the compiled
    machine's fork is an array copy and its memo key a flat orbit key,
    where the generator runtime replays result logs and freezes them
    recursively into an exact state key.  Shape expectation: the
    compiled core wins by >= 2x here and the gap widens with depth (see
    docs/architecture.md).
    """
    import time

    from repro.shm import PrefixSharingEngine, get_spec
    from repro.shm.engine import make_spec_machine, make_spec_runtime

    spec = get_spec("wsb-grh")

    def sweep():
        timings = {}
        outcomes = {}
        for core, factory in (
            ("compiled", make_spec_machine(spec, 3)),
            ("generator", make_spec_runtime(spec, 3)),
        ):
            started = time.perf_counter()
            outcomes[core] = PrefixSharingEngine(factory).decided_vectors()
            timings[core] = time.perf_counter() - started
        assert outcomes["compiled"] == outcomes["generator"]
        return timings

    timings = benchmark(sweep)
    assert timings["generator"] / timings["compiled"] >= 2
