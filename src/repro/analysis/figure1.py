"""Regeneration of the paper's Figure 1 (canonical tasks, partially ordered).

Figure 1 draws the seven canonical ``<6,3,-,->`` tasks with an arrow
``A -> B`` when ``S(A)`` strictly contains ``S(B)`` (B is strictly harder),
reduced to cover relations — the Hasse diagram of the containment order.

:func:`figure1` computes the diagram for any (n, m); :func:`render_figure1`
prints nodes and edges; :func:`to_dot` emits Graphviz for visual
inspection; and :data:`PAPER_FIGURE1_EDGES` pins the published edges for
the regression test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.anchoring import anchoring_profile
from ..core.gsb import SymmetricGSBTask
from ..core.order import hasse_diagram
from ..core.store import get_store
from .reporting import task_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

#: The published Figure 1 (n=6, m=3): cover edges of the canonical order.
PAPER_FIGURE1_NODES: set[tuple[int, int]] = {
    (0, 6), (0, 5), (0, 4), (1, 4), (0, 3), (1, 3), (2, 2),
}
PAPER_FIGURE1_EDGES: set[tuple[tuple[int, int], tuple[int, int]]] = {
    ((0, 6), (0, 5)),
    ((0, 5), (0, 4)),
    ((0, 4), (1, 4)),
    ((0, 4), (0, 3)),
    ((1, 4), (1, 3)),
    ((0, 3), (1, 3)),
    ((1, 3), (2, 2)),
}


@dataclass(frozen=True)
class Figure1:
    """The canonical-task Hasse diagram plus node annotations."""

    n: int
    m: int
    graph: nx.DiGraph

    @property
    def nodes(self) -> set[tuple[int, int]]:
        return set(self.graph.nodes)

    @property
    def edges(self) -> set[tuple[tuple[int, int], tuple[int, int]]]:
        return set(self.graph.edges)

    def task(self, node: tuple[int, int]) -> SymmetricGSBTask:
        return self.graph.nodes[node]["task"]


def figure1(n: int = 6, m: int = 3, method: str = "universe") -> Figure1:
    """Compute Figure 1's diagram for (n, m).

    The default path is a thin view over the universe subsystem: the
    family's cell (:func:`repro.universe.graph.build_cell`) already holds
    the canonical synonym classes and their containment cover edges, so
    the figure is a relabeling of one cell.  ``method="legacy"`` retains
    the pairwise ``includes()`` construction; the regression tests pin
    both paths to byte-identical DOT output.
    """
    if method == "universe":
        return Figure1(n=n, m=m, graph=_universe_figure_graph(n, m))
    if method != "legacy":
        raise ValueError(f"unknown method {method!r}; use 'universe' or 'legacy'")
    canonical_tasks = [
        entry.task for entry in get_store().canonical_entries(n, m)
    ]
    graph = hasse_diagram(canonical_tasks, method="legacy")
    return Figure1(n=n, m=m, graph=graph)


def _universe_figure_graph(n: int, m: int) -> nx.DiGraph:
    """One universe cell, relabeled to Figure 1's ``(l, u)`` node keys."""
    import networkx as nx

    from ..universe.graph import single_cell_graph

    universe = single_cell_graph(n, m)
    graph = nx.DiGraph()
    for entry in get_store().canonical_entries(n, m):
        graph.add_node(
            (entry.parameters[2], entry.parameters[3]), task=entry.task
        )
    for edge in universe.edges(("containment",)):
        graph.add_edge(edge.source[2:], edge.target[2:])
    return graph


def render_figure1(figure: Figure1 | None = None) -> str:
    """Text rendering: nodes with anchoring labels, then cover edges."""
    if figure is None:
        figure = figure1()
    lines = [
        f"Figure 1: canonical <{figure.n},{figure.m},-,-> GSB tasks "
        "(A -> B means S(A) strictly contains S(B))",
        "",
        "nodes:",
    ]
    for node in sorted(figure.nodes):
        task = figure.task(node)
        label = task_label((figure.n, figure.m, *node))
        lines.append(f"  {label:<12} {anchoring_profile(task)}")
    lines.append("")
    lines.append("edges:")
    for source, target in sorted(figure.edges):
        lines.append(
            f"  {task_label((figure.n, figure.m, *source))} -> "
            f"{task_label((figure.n, figure.m, *target))}"
        )
    return "\n".join(lines)


def to_dot(figure: Figure1 | None = None) -> str:
    """Graphviz DOT rendering of the diagram."""
    if figure is None:
        figure = figure1()
    lines = [f'digraph "canonical <{figure.n},{figure.m}> GSB tasks" {{']
    lines.append("  rankdir=LR;")
    for node in sorted(figure.nodes):
        label = task_label((figure.n, figure.m, *node))
        lines.append(f'  "{node}" [label="{label}"];')
    for source, target in sorted(figure.edges):
        lines.append(f'  "{source}" -> "{target}";')
    lines.append("}")
    return "\n".join(lines)


def matches_paper(figure: Figure1 | None = None) -> tuple[bool, list[str]]:
    """Compare a regenerated (6,3) diagram against the published figure."""
    if figure is None:
        figure = figure1()
    if (figure.n, figure.m) != (6, 3):
        raise ValueError("the published figure is for n=6, m=3")
    problems = []
    if figure.nodes != PAPER_FIGURE1_NODES:
        problems.append(
            f"nodes {sorted(figure.nodes)} != paper {sorted(PAPER_FIGURE1_NODES)}"
        )
    if figure.edges != PAPER_FIGURE1_EDGES:
        problems.append(
            f"edges {sorted(figure.edges)} != paper {sorted(PAPER_FIGURE1_EDGES)}"
        )
    return (not problems, problems)
