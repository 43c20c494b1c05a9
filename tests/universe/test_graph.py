"""Tests for universe-graph construction (nodes, masks, edge kinds)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PAPER_FIGURE1_EDGES, PAPER_FIGURE1_NODES
from repro.core import SymmetricGSBTask, classify_parameters, feasible_bound_pairs
from repro.core.cache_config import cache_stats, clear_all_caches
from repro.core.kernel import kernel_vectors
from repro.core.order import mask_covers
from repro.core.store import FamilyStore, clear_family_store, get_store
from repro.universe import (
    EDGE_CONTAINMENT,
    EDGE_REDUCTION,
    EDGE_THEOREM8,
    build_cell,
    build_rectangle,
    kernel_bitmasks,
    rectangle_cells,
    single_cell_graph,
    task_node_key,
)


@pytest.fixture(scope="module")
def rect86():
    """One shared (8, 6) rectangle with cross-family edges."""
    return build_rectangle(8, 6)


class TestKernelBitmasks:
    @pytest.mark.parametrize("n,m", [(6, 3), (8, 4), (7, 2), (4, 6)])
    def test_subset_tests_match_includes(self, n, m):
        pairs = feasible_bound_pairs(n, m)
        masks = kernel_bitmasks(n, m, pairs)
        for a in pairs:
            for b in pairs:
                task_a = SymmetricGSBTask(n, m, *a)
                task_b = SymmetricGSBTask(n, m, *b)
                assert (masks[b] & ~masks[a] == 0) == task_a.includes(task_b)

    def test_equal_masks_are_synonyms(self):
        masks = kernel_bitmasks(6, 3, feasible_bound_pairs(6, 3))
        assert masks[(1, 6)] == masks[(1, 4)]  # the paper's synonym pair
        assert masks[(0, 6)] != masks[(0, 5)]

    @settings(max_examples=25)
    @given(n=st.integers(0, 40), m=st.integers(1, 8))
    def test_masks_match_the_per_column_definition(self, n, m):
        # Every (l, u), infeasible ones included: l past n // m + 1 and
        # u past n + 1 repeat the masks of the last values tested.
        columns = kernel_vectors(n, m, 0, n)
        pairs = [
            (low, high)
            for low in range(-1, n // m + 2)
            for high in range(-1, n + 2)
        ]
        masks = kernel_bitmasks(n, m, pairs)
        assert set(masks) == set(pairs)
        for low, high in pairs:
            expected = 0
            for bit, vector in enumerate(columns):
                if vector[0] <= high and vector[-1] >= low:
                    expected |= 1 << bit
            assert masks[(low, high)] == expected, (n, m, low, high)


class TestBuildCell:
    def test_figure1_cell(self):
        cell = build_cell(6, 3)
        assert {node.key[2:] for node in cell.nodes} == PAPER_FIGURE1_NODES
        assert {
            (edge.source[2:], edge.target[2:]) for edge in cell.edges
        } == PAPER_FIGURE1_EDGES
        assert all(edge.kind == EDGE_CONTAINMENT for edge in cell.edges)

    def test_solvability_annotations_match_classifier(self):
        for node in build_cell(8, 4).nodes:
            verdict, reason = classify_parameters(*node.key)
            assert node.solvability == verdict.value
            assert node.reason == reason

    def test_synonym_lists_cover_the_family(self):
        cell = build_cell(6, 3)
        listed = [pair for node in cell.nodes for pair in node.synonyms]
        assert sorted(listed) == sorted(feasible_bound_pairs(6, 3))
        hardest = next(node for node in cell.nodes if node.key == (6, 3, 2, 2))
        assert hardest.hardest
        assert (2, 6) in hardest.synonyms  # the row Table 1 omits

    def test_named_labels(self):
        wsb_cell = build_cell(6, 2)
        wsb = next(node for node in wsb_cell.nodes if node.key == (6, 2, 1, 5))
        assert "WSB" in wsb.labels and "2-slot" in wsb.labels
        perfect = next(
            node for node in build_cell(4, 4).nodes if node.key == (4, 4, 1, 1)
        )
        assert "perfect-renaming" in perfect.labels
        assert "4-renaming" in perfect.labels  # <4,4,0,1> is a synonym
        renaming5 = next(
            node for node in build_cell(3, 5).nodes if node.key == (3, 5, 0, 1)
        )
        assert "5-renaming" in renaming5.labels

    @pytest.mark.parametrize("n,m", [(8, 3), (40, 6), (3, 5), (1, 1)])
    def test_cell_edges_are_covers(self, n, m):
        # Edges must be the transitive reduction of the mask-subset DAG.
        cell = build_cell(n, m)
        assert [(e.source, e.target) for e in cell.edges] == sorted(
            _reference_covers({node.key: node.mask for node in cell.nodes})
        )


class TestCellsFromParameters:
    """Cells are built from feasible pairs, canonical pairs and masks;
    the family store's annotated entries are the reference."""

    def test_cells_match_the_family_store(self):
        store = FamilyStore()  # private: the process-wide one stays empty
        for n, m in [*rectangle_cells(40, 6), (12, 13)]:
            canonical = store.canonical_entries(n, m)
            synonyms: dict = {}
            for entry in store.entries(n, m):
                synonyms.setdefault(entry.canonical_parameters, []).append(
                    entry.parameters[2:]
                )
            expected = [
                (
                    entry.parameters,
                    tuple(sorted(synonyms[entry.parameters[2:]])),
                    len(entry.kernel_set),
                )
                for entry in canonical
            ]
            actual = [
                (node.key, node.synonyms, node.kernel_count)
                for node in build_cell(n, m).nodes
            ]
            assert actual == expected, (n, m)

    def test_building_cells_leaves_no_family_records(self):
        clear_family_store()
        clear_all_caches()
        for n, m in rectangle_cells(20, 6):
            build_cell(n, m)
        assert get_store().cache_info()["families"] == 0
        # One master column list per family, and no per-pair kernel set.
        assert cache_stats()["kernel.kernel_sets"]["size"] == 120


def _reference_covers(masks: dict) -> set:
    """networkx's transitive reduction of the strict mask-subset DAG."""
    dag = nx.DiGraph()
    dag.add_nodes_from(masks)
    for outer, outer_mask in masks.items():
        for inner, inner_mask in masks.items():
            if inner_mask != outer_mask and inner_mask & ~outer_mask == 0:
                dag.add_edge(outer, inner)
    return set(nx.transitive_reduction(dag).edges)


class TestMaskCovers:
    @given(st.lists(st.integers(0, 63), max_size=24))
    def test_matches_networkx_transitive_reduction(self, masks):
        # Small masks over 6 bits make duplicates, 0 and long chains common.
        reference = _reference_covers(dict(enumerate(masks)))
        assert mask_covers(masks) == sorted(reference)

    def test_duplicates_and_zero(self):
        # Equal masks (synonyms) are unrelated, and each covers 0b01.
        assert mask_covers([0b11, 0, 0b11, 0b01]) == [(0, 3), (2, 3), (3, 1)]
        assert mask_covers([]) == []
        assert mask_covers([5, 5]) == []


class TestRectangle:
    def test_rectangle_includes_wide_families(self):
        cells = rectangle_cells(3, 6)
        assert (2, 5) in cells  # m > n: the renaming ladder lives here
        assert len(cells) == 18

    def test_rejects_empty_rectangle(self):
        with pytest.raises(ValueError):
            rectangle_cells(0, 3)

    def test_containment_subgraph_is_acyclic(self, rect86):
        containment = rect86.to_networkx(kinds=(EDGE_CONTAINMENT,))
        assert nx.is_directed_acyclic_graph(containment)

    def test_theorem8_edges_point_at_perfect_renaming(self, rect86):
        edges = list(rect86.edges((EDGE_THEOREM8,)))
        assert edges
        for edge in edges:
            n = edge.source[0]
            assert edge.target == (n, n, 1, 1)
            assert rect86.node(edge.source).hardest

    def test_reduction_edges_carry_registry_names(self, rect86):
        from repro.algorithms import REDUCTIONS

        edges = list(rect86.edges((EDGE_REDUCTION,)))
        assert edges
        assert {edge.label for edge in edges} <= set(REDUCTIONS)

    def test_equivalence_cycle_wsb_renaming(self, rect86):
        # WSB <-> (2n-2)-renaming (Section 6) shows up as a 2-cycle of
        # reduction edges at n=3: <3,2,1,2> <-> <3,4,0,1>.
        wsb, ren = (3, 2, 1, 2), (3, 4, 0, 1)
        kinds = {
            (edge.source, edge.target): edge.label
            for edge in rect86.edges((EDGE_REDUCTION,))
        }
        assert (wsb, ren) in kinds
        assert (ren, wsb) in kinds

    def test_register_certificates(self, rect86):
        # (2n-1)-renaming is solvable from registers alone (Section 5.2).
        key = (3, 5, 0, 1)
        assert "identity-renaming" in rect86.certificates[key]
        assert "adaptive-renaming" in rect86.certificates[key]

    def test_duplicate_cell_rejected(self, rect86):
        with pytest.raises(ValueError):
            rect86.add_cell(build_cell(6, 3))


class TestTaskNodeKey:
    def test_symmetric_task_canonicalizes(self, rect86):
        task = SymmetricGSBTask(6, 3, 1, 6)
        assert task_node_key(rect86, task) == (6, 3, 1, 4)

    def test_asymmetric_task_has_no_node(self, rect86):
        from repro.core import election

        assert task_node_key(rect86, election(4)) is None

    def test_outside_rectangle_is_none(self, rect86):
        assert task_node_key(rect86, SymmetricGSBTask(9, 3, 0, 9)) is None


class TestSingleCell:
    def test_no_cross_family_edges(self):
        graph = single_cell_graph(6, 3)
        assert {edge.kind for edge in graph.edges()} == {EDGE_CONTAINMENT}
        assert graph.node_count == 7

    def test_stats_shape(self, rect86):
        stats = rect86.stats()
        assert stats["cells"] == 48
        assert stats["nodes"] == sum(
            1 for _ in rect86.nodes()
        ) == rect86.node_count
        assert (
            stats["edges"]
            == stats["edges[containment]"]
            + stats["edges[padding]"]
            + stats["edges[reduction]"]
            + stats["edges[theorem8]"]
        )
        assert stats["certified_nodes"] == stats["nodes"] - stats.get(
            "solvability[open]", 0
        )
