"""Mechanized Theorem 11: election is not wait-free solvable.

The paper's proof has four computational ingredients, each checked here on
the actual r-round immediate-snapshot protocol complex:

1. **Structure** — the complex is pure, chromatic, a pseudomanifold, and
   strongly connected (the properties the proof imports from [10, 17, 35]).
2. **Forced agreement across ridges** — if a decision map solves election,
   the two same-process vertices on either side of an internal ridge must
   decide the same value (the ridge fixes n-1 decisions; "exactly one 1"
   forces the remaining one).
3. **Propagation** — each process's vertices are connected under the
   opposite-vertex relation, so its decision is constant across the whole
   complex.
4. **Contradiction** — the n solo vertices fall in one comparison-based
   canonical class, so all processes' constants are equal; then no facet
   can contain exactly one 1 (n >= 2), refuting the assumed map.

:func:`election_impossibility` runs all four steps and optionally confirms
with the exhaustive decision-map search of :mod:`repro.topology.decision`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.named import election
from .decision import search_decision_map
from .is_complex import ISProtocolComplex
from .views import canonical_local_state


@dataclass
class ElectionImpossibilityReport:
    """Evidence gathered by the mechanized Theorem 11 argument."""

    n: int
    rounds: int
    facets: int
    is_pure: bool
    is_chromatic: bool
    is_pseudomanifold: bool
    is_strongly_connected: bool
    per_process_opposite_connected: dict[int, bool]
    solo_classes_collapse: bool
    brute_force_refuted: bool | None

    @property
    def argument_applies(self) -> bool:
        """All structural premises of the proof hold."""
        return (
            self.is_pure
            and self.is_chromatic
            and self.is_pseudomanifold
            and self.is_strongly_connected
            and all(self.per_process_opposite_connected.values())
            and self.solo_classes_collapse
        )

    @property
    def election_impossible(self) -> bool:
        """The proof's conclusion for r-round comparison-based protocols."""
        if self.n < 2:
            return False
        if self.brute_force_refuted is not None:
            return self.argument_applies and self.brute_force_refuted
        return self.argument_applies

    def summary(self) -> str:
        lines = [
            f"election impossibility, n={self.n}, rounds={self.rounds} "
            f"({self.facets} facets)",
            f"  pure complex:            {self.is_pure}",
            f"  chromatic:               {self.is_chromatic}",
            f"  pseudomanifold:          {self.is_pseudomanifold}",
            f"  strongly connected:      {self.is_strongly_connected}",
            f"  per-process propagation: "
            f"{all(self.per_process_opposite_connected.values())}",
            f"  solo classes collapse:   {self.solo_classes_collapse}",
        ]
        if self.brute_force_refuted is not None:
            lines.append(
                f"  exhaustive map search:   "
                f"{'no map exists' if self.brute_force_refuted else 'MAP FOUND'}"
            )
        lines.append(f"  => impossible at {self.rounds} round(s): "
                     f"{self.election_impossible}")
        return "\n".join(lines)


def election_impossibility(
    n: int, rounds: int = 1, brute_force: bool | None = None
) -> ElectionImpossibilityReport:
    """Run the mechanized Theorem 11 argument on the r-round IS complex.

    ``brute_force`` additionally runs (or skips) the exhaustive
    decision-map search; by default it runs when the complex is small
    (n <= 3 and at most ~2,500 facets).
    """
    import networkx as nx

    complex_ = ISProtocolComplex(n, rounds)
    simplicial = complex_.to_simplicial()

    is_pure = simplicial.is_pure()
    is_chromatic = simplicial.is_chromatic(ISProtocolComplex.color)
    is_pseudomanifold = simplicial.is_pseudomanifold()
    is_connected = simplicial.is_strongly_connected()

    opposite = simplicial.opposite_vertex_graph(ISProtocolComplex.color)
    per_process: dict[int, bool] = {}
    for pid in range(n):
        nodes = [vertex for vertex in opposite.nodes if vertex[0] == pid]
        subgraph = opposite.subgraph(nodes)
        per_process[pid] = nx.is_connected(subgraph) if nodes else False

    solo = complex_.solo_vertices()
    solo_classes = {canonical_local_state(pid, view) for pid, view in solo}
    solo_collapse = len(solo) == n and len(solo_classes) == 1

    refuted: bool | None = None
    run_brute = (
        brute_force
        if brute_force is not None
        else (n <= 3 and complex_.facet_count() <= 2500)
    )
    if run_brute and n >= 2:
        result = search_decision_map(election(n), complex_)
        refuted = not result.solvable

    return ElectionImpossibilityReport(
        n=n,
        rounds=rounds,
        facets=complex_.facet_count(),
        is_pure=is_pure,
        is_chromatic=is_chromatic,
        is_pseudomanifold=is_pseudomanifold,
        is_strongly_connected=is_connected,
        per_process_opposite_connected=per_process,
        solo_classes_collapse=solo_collapse,
        brute_force_refuted=refuted,
    )


def forced_ridge_agreement(n: int, rounds: int = 1) -> bool:
    """Check step 2 of the proof syntactically on the complex.

    For every internal ridge, the two opposite vertices have the same
    color — so under any election-solving map their decisions are both
    determined by the same n-1 ridge decisions, hence equal.  The check
    verifies the same-color property (the rest is arithmetic on counts).
    """
    complex_ = ISProtocolComplex(n, rounds)
    simplicial = complex_.to_simplicial()
    for ridge, facets in simplicial.ridges().items():
        if len(facets) != 2:
            continue
        (first,) = facets[0] - ridge
        (second,) = facets[1] - ridge
        if first[0] != second[0]:
            return False
    return True
