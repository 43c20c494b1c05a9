"""Tests for the memoized family store (repro.core.store)."""

import pytest

from repro.core import (
    FamilyStore,
    SymmetricGSBTask,
    anchoring_profile,
    canonical_parameters,
    classify,
    feasible_bound_pairs,
    get_store,
    is_canonical,
    kernel_vectors,
)
from repro.core.family import (
    all_kernel_columns,
    canonical_entries,
    family_entries,
    family_statistics,
)
from repro.core.store import build_family_record


def _reference_entries(n, m):
    """Entries built the pre-store way, directly from the primitives."""
    rows = []
    for low, high in feasible_bound_pairs(n, m):
        task = SymmetricGSBTask(n, m, low, high)
        solvability, reason = classify(task)
        rows.append(
            (
                task.parameters,
                task.kernel_set,
                is_canonical(task),
                canonical_parameters(n, m, low, high),
                anchoring_profile(task),
                solvability,
                reason,
            )
        )
    rows.sort(key=lambda row: (-row[0][3], row[0][2]))
    return rows


class TestFamilyRecord:
    def test_entries_match_reference(self):
        for n, m in [(6, 3), (5, 2), (8, 4), (2, 1)]:
            record = build_family_record(n, m)
            reference = _reference_entries(n, m)
            assert len(record.entries) == len(reference)
            for entry, expected in zip(record.entries, reference):
                assert entry.parameters == expected[0]
                assert entry.kernel_set == expected[1]
                assert entry.canonical == expected[2]
                assert entry.canonical_parameters == expected[3]
                assert entry.anchoring == expected[4]
                assert entry.solvability == expected[5]
                assert entry.solvability_reason == expected[6]

    def test_index_covers_every_feasible_pair(self):
        record = build_family_record(7, 3)
        assert set(record.index) == set(feasible_bound_pairs(7, 3))

    def test_kernel_columns_are_the_loosest_set(self):
        record = build_family_record(6, 3)
        assert record.kernel_columns == kernel_vectors(6, 3, 0, 6)

    def test_canonical_entries_subset(self):
        record = build_family_record(6, 3)
        assert len(record.canonical_entries) == 7  # Figure 1's nodes
        assert all(entry.canonical for entry in record.canonical_entries)


class TestFamilyStore:
    def test_family_cached_and_identical(self):
        store = FamilyStore()
        first = store.family(6, 3)
        second = store.family(6, 3)
        assert first is second  # O(1) on the second access
        info = store.cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_entry_lookup_and_keyerror_contract(self):
        store = FamilyStore()
        entry = store.entry(6, 3, 1, 4)
        assert entry.canonical and entry.anchoring == "l-anchored"
        with pytest.raises(KeyError, match=r"<6,3,3,3> is not a feasible"):
            store.entry(6, 3, 3, 3)

    def test_statistics_returns_fresh_dict(self):
        store = FamilyStore()
        stats = store.statistics(6, 3)
        stats["feasible_parameterizations"] = -1
        assert store.statistics(6, 3)["feasible_parameterizations"] == 15

    def test_clear(self):
        store = FamilyStore()
        store.family(4, 2)
        store.family(5, 2)
        assert store.cache_info()["families"] == 2
        store.clear()
        assert store.cache_info() == {"hits": 0, "misses": 0, "families": 0}

    def test_global_store_shared(self):
        assert get_store() is get_store()


class TestFamilyModuleDelegation:
    """The legacy family.py API must keep its exact shape on the store."""

    def test_family_entries_returns_fresh_list(self):
        first = family_entries(6, 3)
        second = family_entries(6, 3)
        assert first == second
        assert first is not second
        first.clear()
        assert len(family_entries(6, 3)) == 15

    def test_statistics_contents(self):
        stats = family_statistics(6, 3)
        assert stats["feasible_parameterizations"] == 15
        assert stats["synonym_classes"] == 7
        assert stats["kernel_columns"] == 7
        # Insertion order is part of the report contract.
        assert list(stats)[:3] == [
            "feasible_parameterizations",
            "synonym_classes",
            "kernel_columns",
        ]

    def test_all_kernel_columns(self):
        assert all_kernel_columns(6, 3) == kernel_vectors(6, 3, 0, 6)

    def test_canonical_entries(self):
        entries = canonical_entries(6, 3)
        assert [entry.parameters[2:] for entry in entries] == sorted(
            [entry.parameters[2:] for entry in entries],
            key=lambda pair: (-pair[1], pair[0]),
        )
        assert len(entries) == 7
