"""Abstract simplicial complexes (the machinery behind Theorem 11).

The paper's election impossibility proof reasons about the *protocol
complex* of immediate-snapshot executions: a pure (n-1)-dimensional
chromatic complex that is a pseudomanifold (every (n-2)-face lies in one or
two facets) and strongly connected.  This module provides those structural
predicates for arbitrary finite complexes given by their facets.

Vertices are arbitrary hashable labels; chromatic structure (the
process/color of each vertex) is supplied by a color function.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

Vertex = Hashable
Simplex = frozenset


class SimplicialComplex:
    """A finite abstract simplicial complex, stored by its facets."""

    def __init__(self, facets: Iterable[Iterable[Vertex]]):
        normalized = {frozenset(facet) for facet in facets}
        # Drop faces contained in larger declared facets.
        self._facets = [
            facet
            for facet in normalized
            if not any(facet < other for other in normalized)
        ]
        if not self._facets:
            raise ValueError("a complex needs at least one facet")

    @property
    def facets(self) -> list[Simplex]:
        return list(self._facets)

    @property
    def vertices(self) -> set[Vertex]:
        points: set[Vertex] = set()
        for facet in self._facets:
            points |= facet
        return points

    @property
    def dimension(self) -> int:
        return max(len(facet) for facet in self._facets) - 1

    def is_pure(self) -> bool:
        """All facets share the same dimension."""
        sizes = {len(facet) for facet in self._facets}
        return len(sizes) == 1

    def ridges(self) -> dict[Simplex, list[Simplex]]:
        """Map each (dim-1)-face (ridge) to the facets containing it."""
        containment: dict[Simplex, list[Simplex]] = {}
        for facet in self._facets:
            for dropped in facet:
                ridge = facet - {dropped}
                containment.setdefault(ridge, []).append(facet)
        return containment

    def is_pseudomanifold(self) -> bool:
        """Pure and every ridge lies in at most two facets.

        (The non-branching condition; the protocol complexes of interest
        also have boundary, so "exactly one or two" is the right check.)
        """
        if not self.is_pure():
            return False
        return all(len(facets) <= 2 for facets in self.ridges().values())

    def boundary_ridges(self) -> list[Simplex]:
        """Ridges lying in exactly one facet."""
        return [
            ridge for ridge, facets in self.ridges().items() if len(facets) == 1
        ]

    def internal_ridges(self) -> list[Simplex]:
        """Ridges lying in exactly two facets."""
        return [
            ridge for ridge, facets in self.ridges().items() if len(facets) == 2
        ]

    def facet_adjacency_graph(self) -> nx.Graph:
        """Facets as nodes, edges between facets sharing a ridge."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(len(self._facets)))
        index = {facet: i for i, facet in enumerate(self._facets)}
        for facets in self.ridges().values():
            for first, second in combinations(facets, 2):
                graph.add_edge(index[first], index[second])
        return graph

    def is_strongly_connected(self) -> bool:
        """Any two facets joined by a ridge-sharing facet path."""
        import networkx as nx

        graph = self.facet_adjacency_graph()
        return nx.is_connected(graph) if len(graph) else False

    def is_chromatic(self, color: Callable[[Vertex], Hashable]) -> bool:
        """Every facet carries pairwise distinct colors."""
        return all(
            len({color(vertex) for vertex in facet}) == len(facet)
            for facet in self._facets
        )

    def vertices_of_color(
        self, color: Callable[[Vertex], Hashable], value: Hashable
    ) -> set[Vertex]:
        return {vertex for vertex in self.vertices if color(vertex) == value}

    def opposite_vertex_graph(
        self, color: Callable[[Vertex], Hashable]
    ) -> nx.Graph:
        """The per-color "opposite vertices" relation of the Theorem 11 proof.

        For an internal ridge shared by facets F1, F2 of a chromatic
        pseudomanifold, the two vertices ``F1 - ridge`` and ``F2 - ridge``
        carry the same color (the one missing from the ridge).  The graph
        connects those vertex pairs; Theorem 11's propagation step needs
        each color class to be connected in it.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.vertices)
        for ridge, facets in self.ridges().items():
            if len(facets) != 2:
                continue
            (first_extra,) = facets[0] - ridge
            (second_extra,) = facets[1] - ridge
            if color(first_extra) != color(second_extra):
                raise ValueError(
                    "opposite vertices across a ridge have different colors; "
                    "the complex is not chromatic"
                )
            graph.add_edge(first_extra, second_extra)
        return graph

    def euler_characteristic(self) -> int:
        """Alternating face-count sum (observability for tests)."""
        faces: set[Simplex] = set()
        for facet in self._facets:
            members = list(facet)
            for size in range(1, len(members) + 1):
                for subset in combinations(members, size):
                    faces.add(frozenset(subset))
        total = 0
        for face in faces:
            total += (-1) ** (len(face) - 1)
        return total

    def __len__(self) -> int:
        return len(self._facets)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex({len(self._facets)} facets, "
            f"dim={self.dimension}, {len(self.vertices)} vertices)"
        )
