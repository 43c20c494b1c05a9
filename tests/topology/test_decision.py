"""Tests for decision-map search on protocol complexes."""

import random

import pytest

from repro.core import (
    SymmetricGSBTask,
    election,
    perfect_renaming,
    renaming,
    weak_symmetry_breaking,
)
from repro.topology import (
    ISProtocolComplex,
    search_decision_map,
    verify_decision_map,
)


class TestPositiveControls:
    def test_3_renaming_n2_one_round(self):
        # <2,3,0,1> has a one-round comparison-based protocol:
        # solo -> 3, lower-of-two -> 1, higher -> 2 (up to symmetry).
        result = search_decision_map(renaming(2, 3), ISProtocolComplex(2, 1))
        assert result.solvable
        assert not verify_decision_map(
            renaming(2, 3), ISProtocolComplex(2, 1), result.decision_map
        )

    def test_loosest_task_always_solvable(self):
        # <n, m, 0, n> admits everything: any constant map works.
        result = search_decision_map(
            SymmetricGSBTask(3, 2, 0, 3), ISProtocolComplex(3, 1)
        )
        assert result.solvable

    def test_found_maps_verify(self):
        for task in [renaming(2, 3), SymmetricGSBTask(3, 3, 0, 2)]:
            complex_ = ISProtocolComplex(task.n, 1)
            result = search_decision_map(task, complex_)
            if result.solvable:
                assert verify_decision_map(task, complex_, result.decision_map) == []


class TestRefutations:
    def test_wsb_prime_power_n(self):
        # n = 2 and n = 3 are prime powers: WSB has no r-round protocol.
        for n, rounds in [(2, 1), (2, 2), (2, 3), (3, 1)]:
            result = search_decision_map(
                weak_symmetry_breaking(n), ISProtocolComplex(n, rounds)
            )
            assert not result.solvable, (n, rounds)

    def test_perfect_renaming_never(self):
        for n, rounds in [(2, 1), (2, 2), (3, 1)]:
            result = search_decision_map(
                perfect_renaming(n), ISProtocolComplex(n, rounds)
            )
            assert not result.solvable

    def test_election_never(self):
        for n, rounds in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            result = search_decision_map(
                election(n), ISProtocolComplex(n, rounds)
            )
            assert not result.solvable

    def test_2n_minus_1_renaming_needs_more_than_one_round_at_n3(self):
        # A finding of this reproduction: no one-round comparison-based
        # protocol solves 5-renaming for n=3 (six canonical classes need
        # pairwise-distinct names but only five exist).
        result = search_decision_map(renaming(3, 5), ISProtocolComplex(3, 1))
        assert not result.solvable


class TestSearchMechanics:
    def test_result_metadata(self):
        result = search_decision_map(
            weak_symmetry_breaking(3), ISProtocolComplex(3, 1)
        )
        assert result.classes == 6
        assert result.facets == 13
        assert result.rounds == 1
        assert result.assignments_tried > 0

    def test_budget_enforced(self):
        with pytest.raises(RuntimeError, match="exceeded"):
            search_decision_map(
                weak_symmetry_breaking(3),
                ISProtocolComplex(3, 2),
                max_assignments=50,
            )

    def test_n_mismatch_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            search_decision_map(weak_symmetry_breaking(4), ISProtocolComplex(3, 1))

    def test_verify_flags_bad_map(self):
        complex_ = ISProtocolComplex(2, 1)
        classes = set(complex_.canonical_classes().values())
        constant_map = {label: 1 for label in classes}
        problems = verify_decision_map(renaming(2, 3), complex_, constant_map)
        assert problems

    def test_verify_flags_missing_classes(self):
        complex_ = ISProtocolComplex(2, 1)
        problems = verify_decision_map(renaming(2, 3), complex_, {})
        assert any("unmapped" in problem for problem in problems)

    def test_verify_reports_what_a_facet_by_facet_check_does(self):
        # The reference reads every facet's vertices through
        # canonical_classes(); the check under test maps each distinct
        # vertex once.  Their problem lists must match line for line.
        def reference(task, complex_, decision_map):
            classes = complex_.canonical_classes()
            problems = []
            for facet in complex_.facets():
                missing = [v for v in facet if classes[v] not in decision_map]
                if missing:
                    problems.append(f"facet {facet} has unmapped vertices {missing}")
                    continue
                output = [decision_map[classes[v]] for v in facet]
                if not task.is_legal_output(output):
                    problems.append(f"facet decisions {output} illegal for {task}")
            return problems

        rng = random.Random(5)
        for n, rounds in [(2, 2), (3, 1), (3, 2)]:
            complex_ = ISProtocolComplex(n, rounds)
            labels = complex_.class_order()
            for task in (renaming(n, 2 * n - 1), weak_symmetry_breaking(n)):
                for dropped in (0, 1, 3):
                    decision_map = {
                        label: rng.randint(1, task.m) for label in labels
                    }
                    for label in rng.sample(labels, dropped):
                        del decision_map[label]
                    assert verify_decision_map(
                        task, complex_, decision_map
                    ) == reference(task, complex_, decision_map)
