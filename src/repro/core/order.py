"""The containment partial order on GSB tasks (Section 4.4).

Writing ``S(T)`` for the output-vector set of T, a task T1 is *at least as
hard* as T2 when ``S(T1) subset-of S(T2)``: any algorithm solving T1 also
solves T2 (every T1-legal output is T2-legal).  Lemmas 4 and 5 show
hardness is monotone in the bounds; Theorem 5 identifies the hardest
``<n, m, -, ->`` task; Theorem 6 gives bound-tightening inclusions; and
Figure 1 draws the Hasse diagram of canonical ``<6, 3, -, ->`` tasks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Sequence

from .canonical import canonical_parameters, canonical_representative, is_canonical
from .feasibility import feasible_bound_pairs
from .gsb import SymmetricGSBTask
from .kernel import kernel_vectors

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


def is_harder(task: SymmetricGSBTask, other: SymmetricGSBTask) -> bool:
    """True when ``task`` is at least as hard: ``S(task) subset S(other)``."""
    return other.includes(task)


def is_strictly_harder(task: SymmetricGSBTask, other: SymmetricGSBTask) -> bool:
    """Strict hardness: containment holds and the tasks differ."""
    return is_harder(task, other) and not task.same_task(other)


def check_lemma_4(task: SymmetricGSBTask, wider_high: int) -> bool:
    """Lemma 4: raising u enlarges (weakly) the output set."""
    n, m, low, high = task.parameters
    if wider_high < high:
        raise ValueError(f"lemma 4 needs u' >= u, got {wider_high} < {high}")
    wider = SymmetricGSBTask(n, m, low, wider_high)
    return wider.includes(task)


def check_lemma_5(task: SymmetricGSBTask, smaller_low: int) -> bool:
    """Lemma 5: lowering l enlarges (weakly) the output set."""
    n, m, low, high = task.parameters
    if smaller_low > low:
        raise ValueError(f"lemma 5 needs l' <= l, got {smaller_low} > {low}")
    wider = SymmetricGSBTask(n, m, smaller_low, high)
    return wider.includes(task)


def hardest_parameters(n: int, m: int) -> tuple[int, int]:
    """Theorem 5's hardest ``(l, u)`` pair, valid for every ``m >= 1``.

    ``(floor(n/m), ceil(n/m))`` — for ``m > n`` this degenerates to
    ``(0, 1)``, i.e. m-renaming, whose singleton kernel set is contained
    in every feasible sibling of the wide family.  Shared by
    :func:`hardest` and the universe subsystem's hardest-node flags and
    Theorem 8 edges, so the three can never diverge.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    return (n // m, -(-n // m))


def hardest(n: int, m: int) -> SymmetricGSBTask:
    """Theorem 5: ``<n, m, floor(n/m), ceil(n/m)>`` is the hardest feasible
    ``<n, m, -, ->`` task: it is included in every feasible sibling."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return SymmetricGSBTask(n, m, *hardest_parameters(n, m))


def check_theorem_5(n: int, m: int) -> bool:
    """The hardest task is included in every feasible ``<n, m, l, u>``."""
    bottom = hardest(n, m)
    return all(
        SymmetricGSBTask(n, m, low, high).includes(bottom)
        for low, high in feasible_bound_pairs(n, m)
    )


def check_theorem_6(task: SymmetricGSBTask) -> bool:
    """Theorem 6 inclusions for one feasible task.

    (i)  l' = n - u(m-1) >= l  implies  S(<n,m,l',u>) subset S(task);
    (ii) u' = n - l(m-1) <= u  implies  S(<n,m,l,u'>) subset S(task).
    """
    n, m, low, high = task.parameters
    tightened_low = n - high * (m - 1)
    if tightened_low >= low:
        inner = SymmetricGSBTask(n, m, tightened_low, high)
        if not task.includes(inner):
            return False
    tightened_high = n - low * (m - 1)
    if tightened_high <= high:
        inner = SymmetricGSBTask(n, m, low, tightened_high)
        if not task.includes(inner):
            return False
    return True


def canonical_family(n: int, m: int) -> list[SymmetricGSBTask]:
    """All canonical feasible ``<n, m, -, ->`` tasks (Figure 1's nodes).

    One representative per synonym class, ordered by (l, u).
    """
    return [
        task
        for low, high in feasible_bound_pairs(n, m)
        if is_canonical(task := SymmetricGSBTask(n, m, low, high))
    ]


def kernel_bitmasks(
    n: int, m: int, pairs: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], int]:
    """Kernel-set bitmasks over one family's master column list.

    Bit ``i`` of the mask for ``(l, u)`` is set exactly when the i-th
    kernel column of the loosest ``<n, m, 0, n>`` task belongs to the
    kernel set of ``<n, m, l, u>`` — a weakly decreasing vector lies
    within bounds iff its first entry is ``<= u`` and its last ``>= l``.
    Containment then collapses to integer subset tests:
    ``S(a) superset S(b)`` iff ``mask_b & ~mask_a == 0``.  This is the
    shared substrate of :func:`containment_digraph` and the universe
    graph subsystem (:mod:`repro.universe.graph`).

    No column is tested per pair.  The columns are in descending
    lexicographic order, so their first entries never increase and the
    columns with first entry ``<= u`` are a suffix, found by bisection;
    one pass over the columns builds, for every ``l``, the mask of
    columns whose last entry is ``>= l``.  Each pair's mask is then the
    intersection of the two.
    """
    columns = kernel_vectors(n, m, 0, n)
    count = len(columns)
    full = (1 << count) - 1
    # by_last[v]: columns whose last entry is v, widened in place to
    # "last entry >= v" by a running union from the top.
    by_last = [0] * (n + 2)
    for bit, vector in enumerate(columns):
        by_last[vector[-1]] |= 1 << bit
    for value in range(n, -1, -1):
        by_last[value] |= by_last[value + 1]
    negated_firsts = [-vector[0] for vector in columns]
    masks: dict[tuple[int, int], int] = {}
    for low, high in pairs:
        start = bisect_left(negated_firsts, -high)
        at_least = full if low <= 0 else by_last[min(low, n + 1)]
        masks[(low, high)] = (full >> start << start) & at_least
    return masks


def mask_covers(masks: Sequence[int]) -> list[tuple[int, int]]:
    """Cover pairs of the strict-subset order over a list of masks.

    Returns the index pairs ``(i, j)``, sorted, where ``masks[j]`` is a
    strict subset of ``masks[i]`` with no other mask strictly between
    them — the transitive reduction of the strict-containment DAG, which
    is what Figure 1 draws.  Equal masks (synonyms) are never related.

    Works on bitsets over node indexes: nodes are visited in ascending
    popcount (a strict subset always has fewer bits), each node gets the
    set of nodes strictly below it, and a node below ``i`` is a cover
    unless it lies below another node below ``i``.
    """
    order = sorted(range(len(masks)), key=lambda index: masks[index].bit_count())
    below = [0] * len(masks)
    covers = []
    for position, outer in enumerate(order):
        outer_mask = masks[outer]
        strictly_below = 0
        for inner in order[:position]:
            inner_mask = masks[inner]
            if inner_mask != outer_mask and inner_mask & ~outer_mask == 0:
                strictly_below |= 1 << inner
        below[outer] = strictly_below
        shadowed = 0
        rest = strictly_below
        while rest:
            low_bit = rest & -rest
            shadowed |= below[low_bit.bit_length() - 1]
            rest ^= low_bit
        direct = strictly_below & ~shadowed
        while direct:
            low_bit = direct & -direct
            covers.append((outer, low_bit.bit_length() - 1))
            direct ^= low_bit
    covers.sort()
    return covers


def containment_digraph(
    tasks: Sequence[SymmetricGSBTask], method: str = "bitmask"
) -> nx.DiGraph:
    """Full strict-containment relation as a DAG.

    Edge ``a -> b`` means ``S(a)`` strictly contains ``S(b)`` — i.e. b is
    strictly harder — matching Figure 1's arrow convention
    ("A -> B means A strictly includes B").
    Nodes are the tasks' ``(l, u)`` canonical parameters.

    The default ``method="bitmask"`` routes through
    :func:`kernel_bitmasks`: each family's masks are computed once over
    the shared master column list and containment collapses to integer
    subset tests, instead of the O(F^2) pairwise ``is_strictly_harder``
    calls on task objects that ``method="legacy"`` retains (and the
    tests pin the two identical).
    """
    import networkx as nx

    graph = nx.DiGraph()
    if method == "legacy":
        for task in tasks:
            graph.add_node(_node_key(task), task=task)
        for outer in tasks:
            for inner in tasks:
                if outer is inner:
                    continue
                if is_strictly_harder(inner, outer):
                    graph.add_edge(_node_key(outer), _node_key(inner))
        return graph
    if method != "bitmask":
        raise ValueError(f"unknown method {method!r}; use 'bitmask' or 'legacy'")
    # Canonicalize each task exactly once; the key doubles as the graph
    # node and the edge endpoint below.
    by_family: dict[tuple[int, int], list[tuple[SymmetricGSBTask, tuple]]] = {}
    for task in tasks:
        key = canonical_parameters(task.n, task.m, task.low, task.high)
        graph.add_node(key, task=task)
        by_family.setdefault((task.n, task.m), []).append((task, key))
    # Tasks from different families never contain one another, so only
    # intra-family pairs are compared (matching the legacy behavior of
    # ``includes`` returning False across families).
    for (n, m), group in by_family.items():
        masks = kernel_bitmasks(n, m, [(t.low, t.high) for t, _ in group])
        annotated = [
            (masks[(task.low, task.high)], key) for task, key in group
        ]
        for i, (outer_mask, outer_key) in enumerate(annotated):
            for j, (inner_mask, inner_key) in enumerate(annotated):
                if i == j:
                    continue
                if inner_mask != outer_mask and inner_mask & ~outer_mask == 0:
                    graph.add_edge(outer_key, inner_key)
    return graph


def hasse_diagram(
    tasks: Sequence[SymmetricGSBTask], method: str = "bitmask"
) -> nx.DiGraph:
    """Transitive reduction of the containment DAG: Figure 1's edges."""
    import networkx as nx

    full = containment_digraph(tasks, method=method)
    reduced = nx.transitive_reduction(full)
    # transitive_reduction drops node attributes; restore them.
    for node, data in full.nodes(data=True):
        reduced.add_node(node, **data)
    return reduced


def figure1_hasse(n: int = 6, m: int = 3) -> nx.DiGraph:
    """The Hasse diagram of canonical ``<n, m, -, ->`` tasks.

    With the paper's defaults (n=6, m=3) this regenerates Figure 1:
    seven canonical tasks with the chain
    ``(0,6) -> (0,5) -> (0,4) -> {(1,4), (0,3)} -> (1,3) -> (2,2)``.
    """
    return hasse_diagram(canonical_family(n, m))


def chains(graph: nx.DiGraph) -> list[list[tuple[int, int]]]:
    """All maximal source-to-sink chains of a Hasse diagram."""
    import networkx as nx

    sources = [node for node in graph if graph.in_degree(node) == 0]
    sinks = [node for node in graph if graph.out_degree(node) == 0]
    found = []
    for source in sources:
        for sink in sinks:
            found.extend(nx.all_simple_paths(graph, source, sink))
    return [list(path) for path in found]


def incomparable_pairs(
    tasks: Iterable[SymmetricGSBTask],
) -> list[tuple[SymmetricGSBTask, SymmetricGSBTask]]:
    """Task pairs with neither containment (Section 7 asks about these).

    For n=6, m=3 the paper points out <6,3,1,4> and <6,3,0,3> are
    incomparable.
    """
    tasks = list(tasks)
    pairs = []
    for i, first in enumerate(tasks):
        for second in tasks[i + 1 :]:
            if not first.includes(second) and not second.includes(first):
                pairs.append((first, second))
    return pairs


def _node_key(task: SymmetricGSBTask) -> tuple[int, int]:
    canonical = canonical_representative(task)
    return (canonical.low, canonical.high)
