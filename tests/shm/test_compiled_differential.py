"""Differential property suite: compiled core vs the generator runtime.

The generator runtime (:mod:`repro.shm.runtime`) is the model's reference
semantics; the compiled core (:mod:`repro.shm.compiled`) must be
observationally identical on every workload the repository runs.  This
suite pins that, for every registry spec at n <= 3:

* **multiset identity** — the decided-vector multisets over all
  interleavings are byte-identical run by run (``runs()``: same runs,
  same lexicographic order) and memoized (``decided_vectors``: the
  compiled core's orbit quotient against the reference's exact memo);
* **schedule identity** — under random schedules and random crash
  patterns, both runtimes produce the same outputs, decision steps,
  crash sets and step counts;
* **fork identity** — forking at *every* depth of a reference schedule
  and completing both the original and the fork deterministically gives
  identical results on both cores.
"""

import random
from collections import Counter

import pytest

from repro.shm import (
    CrashScheduler,
    ListScheduler,
    PrefixSharingEngine,
    RandomScheduler,
    available_specs,
    get_spec,
    make_spec_machine,
    make_spec_runtime,
)
from repro.shm.runtime import Runtime, freeze_value

ALL_SPECS = sorted(available_specs())
SIZES = (2, 3)
CASES = [
    (name, n)
    for name in ALL_SPECS
    for n in SIZES
    if n >= get_spec(name).min_n
]


def spec_pair(name, n):
    """(generator factory, machine factory) for one registry cell."""
    spec = get_spec(name)
    return make_spec_runtime(spec, n), make_spec_machine(spec, n)


def run_under(make, scheduler):
    runtime = make()
    runtime.scheduler = scheduler
    return runtime.run()


def observables(result):
    return (
        tuple(freeze_value(v) for v in result.outputs),
        tuple(result.decided_at),
        frozenset(result.crashed),
        result.steps,
    )


class TestMultisetIdentity:
    @pytest.mark.parametrize("name,n", CASES)
    def test_exact_mode_same_runs_same_order(self, name, n):
        make_runtime, make_machine = spec_pair(name, n)
        generator_runs = [
            tuple(freeze_value(v) for v in result.outputs)
            for result in PrefixSharingEngine(make_runtime).runs()
        ]
        compiled_runs = [
            tuple(freeze_value(v) for v in result.outputs)
            for result in PrefixSharingEngine(make_machine).runs()
        ]
        assert compiled_runs == generator_runs

    @pytest.mark.parametrize("name,n", CASES)
    @pytest.mark.parametrize("frame_nodes", [False, True])
    def test_decided_vector_multisets_identical(self, name, n, frame_nodes):
        # The quotient over either step table: the trie over result
        # histories, or the DAG over local states that production uses.
        spec = get_spec(name)
        generator = PrefixSharingEngine(
            make_spec_runtime(spec, n)
        ).decided_vectors()
        compiled = PrefixSharingEngine(
            make_spec_machine(spec, n, frame_nodes=frame_nodes)
        ).decided_vectors()
        assert compiled == generator

    @pytest.mark.parametrize("name,n", CASES)
    def test_memoized_equals_exact_on_compiled_core(self, name, n):
        _, make_machine = spec_pair(name, n)
        exact = Counter(
            tuple(freeze_value(v) for v in result.outputs)
            for result in PrefixSharingEngine(make_machine).runs()
        )
        memoized = PrefixSharingEngine(make_machine).decided_vectors()
        assert memoized == exact


class TestScheduleIdentity:
    @pytest.mark.parametrize("name,n", CASES)
    def test_random_schedules(self, name, n):
        make_runtime, make_machine = spec_pair(name, n)
        for seed in range(25):
            first = run_under(make_runtime, RandomScheduler(seed))
            second = run_under(make_machine, RandomScheduler(seed))
            assert observables(first) == observables(second), seed

    @pytest.mark.parametrize("name,n", CASES)
    def test_random_crash_patterns(self, name, n):
        make_runtime, make_machine = spec_pair(name, n)
        for seed in range(25):
            rng = random.Random(seed)
            crash_at = {
                rng.randrange(4 * n): victim
                for victim in rng.sample(range(n), rng.randint(0, n - 1))
            }
            first = run_under(
                make_runtime,
                CrashScheduler(RandomScheduler(seed + 1), dict(crash_at)),
            )
            second = run_under(
                make_machine,
                CrashScheduler(RandomScheduler(seed + 1), dict(crash_at)),
            )
            assert observables(first) == observables(second), (seed, crash_at)

    @pytest.mark.parametrize("name,n", CASES)
    def test_explicit_schedules(self, name, n):
        make_runtime, make_machine = spec_pair(name, n)
        for seed in range(10):
            rng = random.Random(seed)
            schedule = [rng.randrange(n) for _ in range(30 * n)]
            first = run_under(
                make_runtime, ListScheduler(schedule, then_finish=True)
            )
            second = run_under(
                make_machine, ListScheduler(schedule, then_finish=True)
            )
            assert observables(first) == observables(second), seed


class TestForkIdentity:
    @pytest.mark.parametrize("name,n", CASES)
    def test_fork_at_every_depth(self, name, n):
        make_runtime, make_machine = spec_pair(name, n)
        # A fixed reference schedule: round-robin over enabled pids.
        reference = make_machine()
        schedule = []
        while reference.enabled_pids():
            pid = reference.enabled_pids()[len(schedule) % len(reference.enabled_pids())]
            reference.step(pid)
            schedule.append(pid)
        for depth in range(len(schedule) + 1):
            runtime = make_runtime()
            machine = make_machine()
            for pid in schedule[:depth]:
                runtime.step(pid)
                machine.step(pid)
            runtime_fork = runtime.fork()
            machine_fork = machine.fork()
            # Complete originals and forks with the same deterministic
            # continuation (lowest enabled pid first).
            for branch_pair in ((runtime, machine), (runtime_fork, machine_fork)):
                generator_side, compiled_side = branch_pair
                while generator_side.enabled_pids():
                    pid = min(generator_side.enabled_pids())
                    generator_side.step(pid)
                    compiled_side.step(pid)
                assert observables(generator_side.result()) == observables(
                    compiled_side.result()
                ), (name, n, depth)

    @pytest.mark.parametrize("name,n", CASES)
    def test_forks_inherit_identical_state_evolution(self, name, n):
        # Fork mid-run on both cores, diverge the fork, and check the
        # originals were not perturbed (no shared mutable state).
        make_runtime, make_machine = spec_pair(name, n)
        runtime, machine = make_runtime(), make_machine()
        runtime.step(0)
        machine.step(0)
        runtime_fork, machine_fork = runtime.fork(), machine.fork()
        if 1 in runtime_fork.enabled_pids():
            runtime_fork.step(1)
            machine_fork.step(1)
        while runtime.enabled_pids():
            pid = min(runtime.enabled_pids())
            runtime.step(pid)
            machine.step(pid)
        assert observables(runtime.result()) == observables(machine.result())
