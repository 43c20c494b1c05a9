"""Tests for immediate-snapshot protocol complexes."""

from repro.topology import (
    ISProtocolComplex,
    one_round_states,
    ordered_bell_number,
    ordered_partitions,
)
from repro.topology.views import base_view, canonical_local_state


class TestOrderedPartitions:
    def test_counts_are_fubini_numbers(self):
        for n, expected in [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)]:
            assert len(list(ordered_partitions(range(n)))) == expected
            assert ordered_bell_number(n) == expected

    def test_partitions_cover_all_elements(self):
        for partition in ordered_partitions(range(3)):
            members = set()
            for block in partition:
                assert block  # no empty blocks
                assert not (members & block)  # disjoint
                members |= block
            assert members == {0, 1, 2}

    def test_no_duplicates(self):
        partitions = list(ordered_partitions(range(3)))
        assert len(partitions) == len(set(partitions))


class TestOneRound:
    def test_views_are_prefix_unions(self):
        states = {pid: base_view(pid + 1) for pid in range(3)}
        partition = (frozenset({1}), frozenset({0, 2}))
        new_states = one_round_states(states, partition)
        # p1 (first block) sees itself only.
        assert new_states[1][1] == ((1, base_view(2)),)
        # p0 and p2 see everybody.
        assert len(new_states[0][1]) == 3
        assert new_states[0] == new_states[2]

    def test_facet_count(self):
        for n in (2, 3, 4):
            complex_ = ISProtocolComplex(n, 1)
            assert complex_.facet_count() == complex_.expected_facet_count()

    def test_one_round_structure(self):
        for n in (2, 3, 4):
            simplicial = ISProtocolComplex(n, 1).to_simplicial()
            assert simplicial.is_pure()
            assert simplicial.dimension == n - 1
            assert simplicial.is_chromatic(ISProtocolComplex.color)
            assert simplicial.is_pseudomanifold()
            assert simplicial.is_strongly_connected()


class TestIterated:
    def test_facet_counts_compose(self):
        assert ISProtocolComplex(2, 3).facet_count() == 27
        assert ISProtocolComplex(3, 2).facet_count() == 169

    def test_iterated_structure(self):
        for n, rounds in [(2, 2), (2, 3), (3, 2)]:
            simplicial = ISProtocolComplex(n, rounds).to_simplicial()
            assert simplicial.is_pure()
            assert simplicial.is_chromatic(ISProtocolComplex.color)
            assert simplicial.is_pseudomanifold()
            assert simplicial.is_strongly_connected()

    def test_facets_follow_one_round_states(self):
        # The interned build against the reference semantics of a round,
        # applied round by round in execution order, view trees compared
        # whole.  Each vertex's class is its canonical local state.
        cases = [(n, r) for n in (1, 2, 3) for r in (1, 2, 3)] + [(4, 1), (4, 2)]
        for n, rounds in cases:
            partitions = list(ordered_partitions(range(n)))
            frontier = [{pid: base_view(pid + 1) for pid in range(n)}]
            for _ in range(rounds):
                frontier = [
                    one_round_states(states, partition)
                    for states in frontier
                    for partition in partitions
                ]
            expected = tuple(
                tuple((pid, states[pid]) for pid in range(n)) for states in frontier
            )
            complex_ = ISProtocolComplex(n, rounds)
            assert complex_.facets() == expected, (n, rounds)
            classes = complex_.canonical_classes()
            assert set(classes) == {v for facet in expected for v in facet}
            for vertex, label in classes.items():
                assert label == canonical_local_state(*vertex)

    def test_solo_vertices_one_per_process(self):
        for n, rounds in [(2, 1), (3, 1), (3, 2)]:
            complex_ = ISProtocolComplex(n, rounds)
            solo = complex_.solo_vertices()
            assert len(solo) == n
            assert {pid for pid, _view in solo} == set(range(n))

    def test_canonical_classes_cover_vertices(self):
        complex_ = ISProtocolComplex(3, 1)
        classes = complex_.canonical_classes()
        assert set(classes) == complex_.vertices()
        # 6 classes at one round: (seen k, rank j) for 1<=j<=k<=3.
        assert len(set(classes.values())) == 6

    def test_solo_classes_collapse(self):
        from repro.topology.views import canonical_local_state

        complex_ = ISProtocolComplex(3, 2)
        classes = {
            canonical_local_state(pid, view)
            for pid, view in complex_.solo_vertices()
        }
        assert len(classes) == 1

    def test_validation(self):
        import pytest

        with pytest.raises(ValueError):
            ISProtocolComplex(0, 1)
        with pytest.raises(ValueError):
            ISProtocolComplex(2, 0)
