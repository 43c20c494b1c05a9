"""Immediate-snapshot protocol complexes (the complexes of Theorem 11).

One round of immediate snapshot over processes ``0..n-1`` has one execution
per *ordered set partition* (B1, ..., Bk) of the process set: the blocks
take their write-snapshot steps block by block, and a process in block Bi
sees exactly ``B1 ∪ ... ∪ Bi``.  The executions' final-state simplexes form
the one-round protocol complex — combinatorially, the standard chromatic
subdivision of the (n-1)-simplex.

Iterating (the IIS model) composes rounds: the round-t input of a process
is its round-(t-1) view.  The r-round complex has one facet per r-tuple of
ordered partitions; its facets are the local-state vectors, from which
:class:`ISProtocolComplex` exposes the simplicial structure, chromatic
coloring (vertex = (pid, view)) and comparison-based canonical classes.

Facet counts are the ordered Bell numbers to the r-th power: n=2 -> 3^r,
n=3 -> 13^r, n=4 -> 75^r.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from ..core.cache_config import managed_cache
from .simplicial import SimplicialComplex
from .views import (
    View,
    base_view,
    canonical_local_states,
    is_solo_view,
    round_view,
)

Partition = tuple[frozenset[int], ...]
Facet = tuple[tuple[int, View], ...]


def ordered_partitions(elements: Sequence[int]) -> Iterator[Partition]:
    """All ordered set partitions of ``elements``.

    Recursive first-block enumeration; the count is the ordered Bell
    (Fubini) number of ``len(elements)``.
    """
    items = tuple(elements)
    if not items:
        yield ()
        return
    # Choose the first block as any nonempty subset, then recurse.
    for size in range(len(items), 0, -1):
        for chosen in itertools.combinations(items, size):
            first_block = frozenset(chosen)
            remaining = tuple(item for item in items if item not in first_block)
            for tail in ordered_partitions(remaining):
                yield (first_block, *tail)


@managed_cache("topology.ordered_bell_number")
def ordered_bell_number(n: int) -> int:
    """Number of ordered set partitions of an n-set (Fubini numbers)."""
    if n == 0:
        return 1
    import math

    return sum(
        math.comb(n, k) * ordered_bell_number(n - k) for k in range(1, n + 1)
    )


def one_round_states(
    states: dict[int, View], partition: Partition
) -> dict[int, View]:
    """Apply one immediate-snapshot round to per-process states."""
    new_states: dict[int, View] = {}
    seen: list[tuple[int, View]] = []
    for block in partition:
        for pid in sorted(block):
            seen.append((pid, states[pid]))
        snapshot = list(seen)
        for pid in sorted(block):
            new_states[pid] = round_view(snapshot)
    return new_states


class ISProtocolComplex:
    """The r-round immediate-snapshot protocol complex on n processes.

    Vertices are ``(pid, view)`` pairs; facets are the n-vertex final-state
    simplexes of the executions.  Canonical identities ``pid + 1`` make pid
    order equal identity order (Section 2's comparison-based collapse).

    The complex is built on interned views.  Each distinct view gets a
    small int id the first time a round produces it, and its tree is
    built then, once, from the trees of the views it saw.  A facet is a
    row of view ids, ``row[pid]`` being pid's final view, in execution
    order: the same walk :func:`one_round_states` defines round by round.
    Readers that only need structure (the decision-map search, the SAT
    encoder, map verification) read the rows and per-vertex tables and
    never hash a view tree per facet.
    """

    def __init__(self, n: int, rounds: int = 1):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if rounds < 1:
            raise ValueError(f"need at least one round, got {rounds}")
        self.n = n
        self.rounds = rounds
        # A snapshot is fixed by the set of processes it saw, as a bit
        # mask, and their previous-round views: it is interned under the
        # key (mask, id of each seen view in pid order).
        seen_by = [
            tuple(pid for pid in range(n) if mask >> pid & 1)
            for mask in range(1 << n)
        ]
        # masks[k][pid]: what pid's snapshot saw in the k-th ordered
        # partition, the union of the blocks up to and including its own.
        masks = []
        for partition in ordered_partitions(range(n)):
            seen = 0
            saw = [0] * n
            for block in partition:
                for pid in block:
                    seen |= 1 << pid
                for pid in block:
                    saw[pid] = seen
            masks.append(saw)
        views: list[View] = [base_view(pid + 1) for pid in range(n)]
        ids: dict[tuple[int, ...], int] = {}
        rows: list[tuple[int, ...]] = [tuple(range(n))]
        for _ in range(rounds):
            final = len(views)
            next_rows = []
            for row in rows:
                # snapshot[mask]: the view of a snapshot that saw ``mask``.
                snapshot = [0]
                for mask in range(1, 1 << n):
                    pids = seen_by[mask]
                    key = (mask, *[row[pid] for pid in pids])
                    view_id = ids.get(key)
                    if view_id is None:
                        view_id = ids[key] = len(views)
                        views.append(
                            ("view", tuple((pid, views[row[pid]]) for pid in pids))
                        )
                    snapshot.append(view_id)
                lookup = snapshot.__getitem__
                next_rows.extend([tuple(map(lookup, saw)) for saw in masks])
            rows = next_rows
        self._views = views
        #: Ids at or past this one are final-round views; their top-level
        #: pids are the processes that hold them.
        self._final = final
        self._rows = tuple(rows)

    # ------------------------------------------------------------------
    # Structure.  Each piece is computed on first request and handed out
    # immutable.

    def facet_rows(self) -> tuple[tuple[int, ...], ...]:
        """Facets as rows of view ids, in execution order: ``row[pid]``."""
        return self._rows

    def vertex_classes(self) -> tuple[tuple[View | None, ...], ...]:
        """Per pid, the canonical class of vertex ``(pid, view id)``.

        ``vertex_classes()[pid][view_id]`` is the class
        :func:`repro.topology.views.canonical_local_state` gives the
        vertex, or None when pid never holds that view.
        """
        return self._vertex_classes

    @cached_property
    def _vertex_classes(self) -> tuple[tuple[View | None, ...], ...]:
        views = self._views
        tables = [[None] * len(views) for _ in range(self.n)]
        for view_id in range(self._final, len(views)):
            for pid, label in canonical_local_states(views[view_id]).items():
                tables[pid][view_id] = label
        return tuple(map(tuple, tables))

    def facets(self) -> tuple[Facet, ...]:
        """Facets as sorted (pid, view) vertex tuples."""
        return self._facets

    @cached_property
    def _facets(self) -> tuple[Facet, ...]:
        lookup = list.__getitem__
        vertices = self._vertex_tables
        return tuple(tuple(map(lookup, vertices, row)) for row in self._rows)

    @cached_property
    def _vertex_tables(self) -> tuple[list[tuple[int, View] | None], ...]:
        """Per pid, the vertex tuple ``(pid, view)`` of each view id it holds."""
        views = self._views
        tables = tuple([None] * len(views) for _ in range(self.n))
        for view_id in range(self._final, len(views)):
            view = views[view_id]
            for pid, _inner in view[1]:
                tables[pid][view_id] = (pid, view)
        return tables

    def to_simplicial(self) -> SimplicialComplex:
        return SimplicialComplex(self.facets())

    @staticmethod
    def color(vertex: tuple[int, View]) -> int:
        """Chromatic coloring: the process id of a vertex."""
        return vertex[0]

    def vertices(self) -> frozenset[tuple[int, View]]:
        return frozenset(
            vertex
            for table in self._vertex_tables
            for vertex in table
            if vertex is not None
        )

    def canonical_classes(self) -> Mapping[tuple[int, View], View]:
        """Map each vertex to its comparison-based canonical class.

        The class of a vertex (pid, view) is the relabeled view *plus* the
        owner's rank among seen pids (a process knows its own identity).
        """
        return self._classes

    @cached_property
    def _classes(self) -> Mapping[tuple[int, View], View]:
        n = self.n
        vertices, classes = self._vertex_tables, self._vertex_classes
        # Vertices in first-appearance order, as view_id * n + pid.
        codes = dict.fromkeys(
            view_id * n + pid for row in self._rows for pid, view_id in enumerate(row)
        )
        return MappingProxyType({
            vertices[code % n][code // n]: classes[code % n][code // n]
            for code in codes
        })

    def class_order(self) -> tuple[View, ...]:
        """Canonical classes in deterministic first-appearance order.

        Walking the facets in execution order, a class takes the next
        index the first time one of its vertices appears.  Decision-map
        search, the SAT encoding and decision-map certificates all index
        classes this way (see
        :func:`repro.topology.decision.decision_class_order`).
        """
        return self._class_indexing[0]

    def facet_class_indexes(self) -> tuple[tuple[int, ...], ...]:
        """Each facet as the class-order index of each of its vertices."""
        return self._facet_class_indexes

    @cached_property
    def _class_indexing(self) -> tuple[tuple[View, ...], tuple[list[int], ...]]:
        """The class order, and per pid each vertex's index in it."""
        # Number the classes in any order first (one hash of a class per
        # vertex), then walk the facets on those numbers.
        numbers: dict[View, int] = {}
        keys = tuple(
            [
                None if label is None else numbers.setdefault(label, len(numbers))
                for label in table
            ]
            for table in self._vertex_classes
        )
        lookup = list.__getitem__
        first_seen = dict.fromkeys(
            itertools.chain.from_iterable(
                map(lookup, keys, row) for row in self._rows
            )
        )
        position = {key: index for index, key in enumerate(first_seen)}
        labels = list(numbers)
        order = tuple(labels[key] for key in first_seen)
        indexes = tuple(
            [None if key is None else position[key] for key in table]
            for table in keys
        )
        return order, indexes

    @cached_property
    def _facet_class_indexes(self) -> tuple[tuple[int, ...], ...]:
        lookup = list.__getitem__
        indexes = self._class_indexing[1]
        return tuple(tuple(map(lookup, indexes, row)) for row in self._rows)

    def solo_vertices(self) -> list[tuple[int, View]]:
        """The n vertices of the fully-solo executions."""
        return [
            vertex
            for vertex in self.vertices()
            if is_solo_view(vertex[1], self.rounds)
        ]

    def facet_count(self) -> int:
        return len(self._rows)

    def expected_facet_count(self) -> int:
        """``ordered_bell(n) ** rounds`` — cross-check for tests."""
        return ordered_bell_number(self.n) ** self.rounds

    def __repr__(self) -> str:
        return (
            f"ISProtocolComplex(n={self.n}, rounds={self.rounds}, "
            f"facets={self.facet_count()})"
        )
