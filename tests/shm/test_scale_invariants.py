"""Invariants of the orbit-quotient explorer past the n <= 3 window.

The differential suite compares the quotient with the generator reference
at n <= 3, where exhausting the reference is still affordable.  The
checks here hold at any n and run the reference on sampled schedules at
most:

* **interleaving mass** — in a spec where every process takes exactly k
  steps, each interleaving is one run, so the decided-vector Counter's
  total is the multinomial (kn)! / (k!)^n;
* **frame nodes** — merging history-trie nodes into local states
  (``frame_nodes``) changes the orbit table, never the Counter;
* **sampled reference runs** — every seeded random schedule of the
  generator reference decides a vector in the quotient's support.
"""

import math

import pytest

from repro.shm.engine import (
    EngineStats,
    PrefixSharingEngine,
    get_spec,
    make_spec_machine,
    make_spec_runtime,
)
from repro.shm.runtime import freeze_value
from repro.shm.schedulers import RandomScheduler

#: Steps each process takes in these specs, on every schedule.
STEPS = {"renaming": 3, "election": 2, "wsb": 1}


def quotient_vectors(name, n, frame_nodes=True, stats=None):
    spec = get_spec(name)
    return PrefixSharingEngine(
        make_spec_machine(spec, n, frame_nodes=frame_nodes),
        relabeler=spec.value_relabel,
        stats=stats,
    ).decided_vectors()


@pytest.mark.parametrize(
    "name,n,mass",
    [
        ("renaming", 4, 369_600),
        ("renaming", 5, 168_168_000),
        ("election", 4, 2_520),
        ("election", 5, 113_400),
        ("wsb", 4, 24),
        ("wsb", 5, 120),
    ],
)
def test_counter_mass_is_the_interleaving_count(name, n, mass):
    k = STEPS[name]
    assert math.factorial(k * n) // math.factorial(k) ** n == mass
    # The premise, on one schedule: every process takes k steps.
    machine = make_spec_machine(get_spec(name), n)()
    while machine.enabled_pids():
        machine.step(machine.enabled_pids()[-1])
    assert machine.per_pid_steps == [k] * n
    assert sum(quotient_vectors(name, n).values()) == mass


@pytest.mark.parametrize(
    "name,n,orbits",
    [
        ("wsb-grh", 4, (16_823, 46_471)),
        ("renaming", 4, (871, 871)),
        ("renaming", 5, (5_766, 5_766)),
    ],
)
def test_frame_nodes_keep_the_counter(name, n, orbits):
    merged, trie = EngineStats(), EngineStats()
    on = quotient_vectors(name, n, frame_nodes=True, stats=merged)
    off = quotient_vectors(name, n, frame_nodes=False, stats=trie)
    assert on == off
    assert (merged.orbits, trie.orbits) == orbits


@pytest.mark.parametrize(
    "name,n", [("renaming", 5), ("wsb", 5), ("election", 5), ("wsb-grh", 4)]
)
def test_random_reference_schedules_land_in_the_support(name, n):
    support = quotient_vectors(name, n)
    make_runtime = make_spec_runtime(get_spec(name), n)
    for seed in range(25):
        runtime = make_runtime()
        runtime.scheduler = RandomScheduler(seed)
        outputs = tuple(freeze_value(v) for v in runtime.run().outputs)
        assert outputs in support, (seed, outputs)
