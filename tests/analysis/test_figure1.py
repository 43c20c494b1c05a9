"""Regression tests pinning the regenerated Figure 1 to the paper."""

import networkx as nx
import pytest

from repro.analysis import (
    PAPER_FIGURE1_EDGES,
    PAPER_FIGURE1_NODES,
    figure1,
    figure1_matches_paper,
    render_figure1,
    to_dot,
)
from repro.analysis.figure1 import Figure1
from repro.core.order import hasse_diagram
from repro.core.store import get_store


def legacy_figure1(n, m):
    """Figure 1 from the pairwise ``includes()`` Hasse construction."""
    tasks = [entry.task for entry in get_store().canonical_entries(n, m)]
    return Figure1(n=n, m=m, graph=hasse_diagram(tasks, method="legacy"))


class TestRegeneration:
    def test_matches_paper(self):
        ok, problems = figure1_matches_paper(figure1())
        assert ok, problems

    def test_nodes(self):
        assert figure1().nodes == PAPER_FIGURE1_NODES

    def test_edges(self):
        assert figure1().edges == PAPER_FIGURE1_EDGES

    def test_node_tasks_attached(self):
        figure = figure1()
        task = figure.task((1, 4))
        assert task.parameters == (6, 3, 1, 4)

    def test_matches_paper_rejects_other_parameters(self):
        with pytest.raises(ValueError):
            figure1_matches_paper(figure1(5, 2))


class TestStructure:
    def test_dag(self):
        assert nx.is_directed_acyclic_graph(figure1().graph)

    def test_unique_source_and_sink(self):
        graph = figure1().graph
        sources = [node for node in graph if graph.in_degree(node) == 0]
        sinks = [node for node in graph if graph.out_degree(node) == 0]
        assert sources == [(0, 6)]
        assert sinks == [(2, 2)]

    def test_other_families(self):
        figure = figure1(8, 4)
        assert nx.is_directed_acyclic_graph(figure.graph)
        assert (2, 2) in figure.nodes  # the hardest <8,4> task


class TestUniverseViewRegression:
    """The universe-backed figure must match the legacy pairwise Hasse
    construction byte for byte."""

    @pytest.mark.parametrize("n,m", [(6, 3), (8, 4), (12, 4), (7, 2), (5, 5)])
    def test_dot_byte_identical(self, n, m):
        assert to_dot(figure1(n, m)) == to_dot(legacy_figure1(n, m))

    @pytest.mark.parametrize("n,m", [(6, 3), (9, 3)])
    def test_render_identical(self, n, m):
        assert render_figure1(figure1(n, m)) == render_figure1(
            legacy_figure1(n, m)
        )

    def test_figure_is_one_universe_cell(self, monkeypatch):
        # Outputs are pinned identical to the legacy construction, so
        # assert on the path itself: the figure reads the universe cell.
        import repro.universe.graph as universe_graph

        calls = []
        real = universe_graph.single_cell_graph

        def spy(n, m):
            calls.append((n, m))
            return real(n, m)

        monkeypatch.setattr(universe_graph, "single_cell_graph", spy)
        figure1(6, 3)
        assert calls == [(6, 3)]


class TestRendering:
    def test_text_render(self):
        text = render_figure1()
        assert "<6,3,0,6> -> <6,3,0,5>" in text
        assert "(l,u)-anchored" in text

    def test_dot_render(self):
        dot = to_dot()
        assert dot.startswith("digraph")
        assert '"(0, 6)" -> "(0, 5)"' in dot
        assert dot.rstrip().endswith("}")
