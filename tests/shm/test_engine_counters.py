"""Pinned work counters of the orbit-quotient explorer.

Every count here is deterministic: the specs use deterministic oracle
strategies and the engine explores in a fixed order.  A change that
moves a count re-records it here and says why in CHANGES.md; a change
that moves one by accident (an orbit key that stops merging, a probe
that stops resolving) fails here before it shows up as time.
"""

import pytest

from repro.shm.engine import explore_one

#: ``EngineStats`` fields pinned per case, in the order of ``PINS``.
FIELDS = (
    "nodes",
    "runs",
    "forks",
    "memo_hits",
    "orbits",
    "lex_pruned",
    "peak_stack",
)

#: (spec, n) -> ((runs, distinct, violations), the FIELDS counts).
PINS = {
    ("wsb-grh", 3): ((39_330, 9, 0), (349, 27, 105, 369, 349, 363, 13)),
    ("wsb-grh", 4): (
        (27_749_755_392, 84, 0),
        (16_823, 336, 6_161, 30_054, 16_823, 29_850, 29),
    ),
    ("renaming", 3): ((1_680, 9, 0), (115, 9, 48, 129, 115, 114, 9)),
    ("renaming", 4): ((369_600, 36, 0), (871, 24, 362, 1_602, 871, 1_492, 12)),
    ("renaming", 5): (
        (168_168_000, 180, 0),
        (5_766, 50, 2_219, 14_900, 5_766, 14_313, 15),
    ),
    ("wsb", 4): ((24, 6, 0), (15, 4, 10, 14, 15, 11, 4)),
    ("election", 4): ((2_520, 8, 630), (80, 4, 43, 133, 80, 116, 8)),
}


@pytest.mark.parametrize("name,n", sorted(PINS))
def test_exploration_counters_are_pinned(name, n):
    result = explore_one(name, n)
    counts = tuple(getattr(result.stats, field) for field in FIELDS)
    outcome = (result.runs, result.distinct, result.violations)
    assert (outcome, counts) == PINS[name, n]
