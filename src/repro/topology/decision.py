"""Decision maps on protocol complexes.

A wait-free comparison-based protocol that decides after r immediate
snapshot rounds is exactly a *decision map*: an assignment of an output
value to every comparison-based canonical vertex class of the r-round
protocol complex, such that every facet's decision vector is a legal
output of the task.  Searching that (finite) space therefore decides
"is T solvable by an r-round comparison-based IIS protocol" exactly —
refutations for growing r mechanize impossibility evidence, and found maps
are constructive solvability certificates (e.g. one-round comparison-based
(2n-1)-renaming for n = 2).

The search is a backtracking CSP over canonical classes.  Each facet's
constraint is checked incrementally: per-facet, per-value occupancy
counters (:class:`FacetOccupancy`) say after every assignment whether
each touched facet can still be completed to a legal output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..core.gsb import GSBTask
from .is_complex import ISProtocolComplex
from .views import View


@dataclass
class DecisionSearchResult:
    """Outcome of a decision-map search."""

    task: GSBTask
    rounds: int
    classes: int
    facets: int
    assignments_tried: int
    decision_map: dict[View, int] | None

    @property
    def solvable(self) -> bool:
        return self.decision_map is not None


def facet_decisions(
    facet: Sequence[tuple[int, View]],
    classes: dict[tuple[int, View], View],
    assignment: dict[View, int],
) -> list[int | None]:
    """Decisions of a facet's vertices under a (partial) assignment."""
    return [assignment.get(classes[vertex]) for vertex in facet]


def decision_class_order(complex_: ISProtocolComplex) -> tuple[View, ...]:
    """Canonical classes in deterministic first-appearance order.

    Shared by the search below and by decision-map certificates
    (:mod:`repro.decision.certificates`), which serialize an assignment
    as a list of values in exactly this order — keeping the two in one
    place is what makes the serialized form replayable.
    """
    return complex_.class_order()


class FacetOccupancy:
    """Per-facet decision counts under a partial class assignment.

    A facet's partial decision vector extends to a legal output exactly
    when :meth:`GSBTask.is_legal_partial_output` says so: with ``c_v``
    the facet's decided count of value ``v`` and ``d = sum(c_v)``,

        every c_v <= u_v   and   sum(max(l_v - c_v, 0)) <= n - d <= sum(u_v - c_v).

    The first of the chained inequalities is ``sum(max(c_v, l_v)) <= n``,
    and the second is ``n <= sum(u_v)``, which holds for every facet or
    for none.
    So each facet keeps its counts and one *load*, ``sum(w_v(c_v))``
    with ``w_v(c) = max(c, l_v)`` plus ``n + 1`` once ``c > u_v``; the
    facet is completable iff its load is at most ``n``.  Assigning or
    retracting a class updates only the facets that contain it, by the
    class's multiplicity in each.
    """

    def __init__(
        self, task: GSBTask, facet_classes: Sequence[Sequence[int]], classes: int
    ):
        n = task.n
        over = n + 1
        #: weight[v][c] = w_v(c) for c in 0..n (index 0 unused).
        self.weight: list[list[int]] = [[]] + [
            [max(count, low) + (over if count > high else 0) for count in range(n + 1)]
            for low, high in task.bounds.pairs()
        ]
        empty = sum(row[0] for row in self.weight[1:])
        if n > sum(task.bounds.upper):
            empty += over
        self.limit = n
        self.load = [empty] * len(facet_classes)
        #: counts[v][f] = how many of facet f's vertices decided v.
        self.counts = [[0] * len(facet_classes) for _ in range(task.m + 1)]
        #: touching[c] = (facet, multiplicity of class c in it) pairs.
        self.touching: list[list[tuple[int, int]]] = [[] for _ in range(classes)]
        for facet, members in enumerate(facet_classes):
            for class_index, multiplicity in Counter(members).items():
                self.touching[class_index].append((facet, multiplicity))

    def assign(self, class_index: int, value: int) -> bool:
        """Decide ``value`` for a class; True iff its facets stay completable."""
        counts = self.counts[value]
        weight = self.weight[value]
        load = self.load
        limit = self.limit
        completable = True
        for facet, multiplicity in self.touching[class_index]:
            before = counts[facet]
            after = before + multiplicity
            counts[facet] = after
            total = load[facet] + weight[after] - weight[before]
            load[facet] = total
            if total > limit:
                completable = False
        return completable

    def retract(self, class_index: int, value: int) -> None:
        """Undo :meth:`assign` of the same class and value."""
        counts = self.counts[value]
        weight = self.weight[value]
        load = self.load
        for facet, multiplicity in self.touching[class_index]:
            after = counts[facet]
            before = after - multiplicity
            counts[facet] = before
            load[facet] += weight[before] - weight[after]

    def completable(self, facet: int) -> bool:
        """Whether facet ``facet``'s partial vector extends to a legal output."""
        return self.load[facet] <= self.limit


def search_decision_map(
    task: GSBTask,
    complex_: ISProtocolComplex,
    max_assignments: int = 5_000_000,
) -> DecisionSearchResult:
    """Search for a comparison-based decision map solving ``task``.

    Classes are ordered by first appearance in facets so each facet's
    constraint becomes checkable as early as possible: assigning a class
    checks every facet containing it for completability (a *partial*
    legality check, which prunes far earlier than waiting for full
    assignment), through :class:`FacetOccupancy`'s counters.  Values are
    tried in increasing order; for a symmetric task the first class is
    pinned to value 1, since value permutations preserve legality.
    Raises :class:`RuntimeError` on the assignment past
    ``max_assignments``.  The walk is a loop over depths rather than a
    recursion, so long class orders never meet the recursion limit.
    """
    if task.n != complex_.n:
        raise ValueError(
            f"task is on {task.n} processes but the complex has {complex_.n}"
        )
    class_order = decision_class_order(complex_)
    classes = len(class_order)
    occupancy = FacetOccupancy(task, complex_.facet_class_indexes(), classes)
    assign, retract = occupancy.assign, occupancy.retract
    top = task.m
    first_top = 1 if task.is_symmetric else top
    # assignment[depth] is the value being tried at that depth, 0 if none.
    assignment = [0] * classes
    tried = 0
    depth = 0
    while depth < classes:
        value = assignment[depth]
        if value:
            retract(depth, value)
        if value == (first_top if depth == 0 else top):
            assignment[depth] = 0
            if depth == 0:
                break
            depth -= 1
            continue
        value += 1
        tried += 1
        if tried > max_assignments:
            raise RuntimeError(
                f"decision-map search exceeded {max_assignments} "
                "assignments; reduce n or rounds"
            )
        assignment[depth] = value
        if assign(depth, value):
            depth += 1
    found = depth == classes
    return DecisionSearchResult(
        task=task,
        rounds=complex_.rounds,
        classes=classes,
        facets=complex_.facet_count(),
        assignments_tried=tried,
        decision_map=dict(zip(class_order, assignment)) if found else None,
    )


def verify_decision_map(
    task: GSBTask,
    complex_: ISProtocolComplex,
    decision_map: dict[View, int],
) -> list[str]:
    """Independent check of a decision map; returns violations (if any)."""
    classes = complex_.canonical_classes()
    problems = []
    for facet in complex_.facets():
        missing = [vertex for vertex in facet if classes[vertex] not in decision_map]
        if missing:
            problems.append(f"facet {facet} has unmapped vertices {missing}")
            continue
        output = [decision_map[classes[vertex]] for vertex in facet]
        if not task.is_legal_output(output):
            problems.append(f"facet decisions {output} illegal for {task}")
    return problems
