"""Tier 4's engine replay against the generator reference.

:func:`replay_decision_map` counts a decision map's decided vectors on
the compiled core's orbit quotient.  The reference runs the same
decision-map protocol on the generator :class:`Runtime` (the engine's
exact memo DFS), and the two must report the same illegal vectors with
the same interleaving counts: none for a found map, every one for a
tampered map.
"""

import pytest

from repro.core.gsb import SymmetricGSBTask
from repro.decision.certificates import (
    decision_map_algorithm,
    replay_decision_map,
)
from repro.shm import PrefixSharingEngine, RoundRobinScheduler, Runtime
from repro.topology.decision import decision_class_order, search_decision_map
from repro.topology.is_complex import ISProtocolComplex


def reference_problems(task, rounds, decision_map):
    """``replay_decision_map``'s problems, computed on the generator
    runtime."""
    algorithm = decision_map_algorithm(rounds, decision_map)

    def make_runtime():
        return Runtime(
            algorithm,
            list(range(1, task.n + 1)),
            RoundRobinScheduler(),  # unused by the engine
            arrays={f"IS{index}": None for index in range(rounds)},
        )

    decisions = PrefixSharingEngine(make_runtime).decided_vectors()
    return [
        f"{count} interleavings decide illegal vector {outputs}"
        for outputs, count in sorted(decisions.items(), key=repr)
        if not task.is_legal_output(list(outputs))
    ]


@pytest.mark.parametrize("key,rounds", [((3, 3, 0, 2), 1), ((2, 3, 0, 1), 2)])
def test_found_map_replays_clean_on_both(key, rounds):
    task = SymmetricGSBTask(*key)
    search = search_decision_map(task, ISProtocolComplex(task.n, rounds))
    assert search.solvable
    assert replay_decision_map(task, rounds, search.decision_map) == []
    assert reference_problems(task, rounds, search.decision_map) == []


#: Tampered maps, as values in class order, that decide two illegal
#: vectors: the found maps with two classes' values changed.
TAMPERED = [
    ((3, 3, 0, 2), 1, (1, 1, 2, 2, 2, 1)),
    ((2, 3, 0, 1), 2, (2, 1, 1, 2, 1, 2, 1, 2, 3)),
]


@pytest.mark.parametrize("key,rounds,assignment", TAMPERED)
def test_tampered_map_problems_match_count_for_count(key, rounds, assignment):
    task = SymmetricGSBTask(*key)
    order = decision_class_order(ISProtocolComplex(task.n, rounds))
    decision_map = dict(zip(order, assignment, strict=True))
    problems = replay_decision_map(task, rounds, decision_map)
    assert len(problems) == 2
    assert problems == reference_problems(task, rounds, decision_map)
