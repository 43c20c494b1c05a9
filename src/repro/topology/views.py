"""Immediate-snapshot views and their comparison-based canonical forms.

After r rounds of (iterated) immediate snapshot, a process's local state is
a nested view: round 1 yields the set of (pid, identity) pairs it saw;
round t yields the set of (pid, round-(t-1) state) pairs.  Views are
represented as immutable, hashable trees:

* ``("id", identity)`` — the round-0 state;
* ``("view", ((pid, inner), ...))`` — a round state, entries sorted by pid.

A *comparison-based, index-independent* algorithm cannot distinguish two
views that differ by an order-preserving relabeling of identities moving
with their processes (Section 2.2).  The protocol complexes use canonical
executions in which process pid carries identity pid + 1, so pid order and
identity order coincide, and the normal form is simply: replace every pid
by its rank among the pids occurring in the tree, and every identity by its
rank among the identities occurring.  Two vertices with equal canonical
views must receive equal decisions — the constraint that the decision-map
search and the Theorem 11 argument exploit.
"""

from __future__ import annotations

from typing import Hashable, Iterable

View = Hashable


def base_view(identity: int) -> View:
    """Round-0 state: the process's own identity."""
    return ("id", identity)


def round_view(seen: Iterable[tuple[int, View]]) -> View:
    """Round-t state from the (pid, state_{t-1}) pairs seen."""
    return ("view", tuple(sorted(seen, key=lambda pair: pair[0])))


def pids_in_view(view: View) -> set[int]:
    """All pids occurring anywhere in a view tree (empty for base views)."""
    if view[0] == "id":
        return set()
    pids: set[int] = set()
    for pid, inner in view[1]:
        pids.add(pid)
        pids |= pids_in_view(inner)
    return pids


def identities_in_view(view: View) -> set[int]:
    """All identities occurring anywhere in a view tree."""
    if view[0] == "id":
        return {view[1]}
    identities: set[int] = set()
    for _pid, inner in view[1]:
        identities |= identities_in_view(inner)
    return identities


def canonical_view(view: View) -> View:
    """Comparison-based normal form of a view tree (no self marker)."""
    pid_rank = {
        pid: position for position, pid in enumerate(sorted(pids_in_view(view)))
    }
    identity_rank = {
        identity: position
        for position, identity in enumerate(sorted(identities_in_view(view)))
    }
    return _relabel(view, pid_rank, identity_rank)


def canonical_local_state(pid: int, view: View) -> View:
    """Canonical class of a *vertex* (pid, view): self rank + view shape.

    A process's local state includes knowing which of the seen processes it
    is (it knows its own identity), so the comparison-based class of a
    vertex pairs the owner's rank among the pids occurring in the view
    with the relabeled view tree.  This is the equivalence under which
    comparison-based index-independent decisions must be constant.
    """
    pids = sorted(pids_in_view(view))
    if pids:
        self_rank = pids.index(pid)
    else:
        # Base view: the process has seen nobody; rank is trivially 0.
        self_rank = 0
    return ("self", self_rank, canonical_view(view))


def canonical_local_states(view: View) -> dict[int, View]:
    """:func:`canonical_local_state` of each process at ``view``'s top level.

    Those are the processes that can hold a round view (a block's
    processes all see the same snapshot).  The relabeled tree does not
    depend on the owner, so it is built once for all of them.
    """
    pids = sorted(pids_in_view(view))
    shape = canonical_view(view)
    return {pid: ("self", pids.index(pid), shape) for pid, _inner in view[1]}


def _relabel(view: View, pid_rank: dict[int, int], identity_rank: dict[int, int]) -> View:
    if view[0] == "id":
        return ("id", identity_rank[view[1]])
    entries = tuple(
        sorted(
            (pid_rank[pid], _relabel(inner, pid_rank, identity_rank))
            for pid, inner in view[1]
        )
    )
    return ("view", entries)


def view_size(view: View) -> int:
    """Number of pids visible at the top level (1 for base views)."""
    if view[0] == "id":
        return 1
    return len(view[1])


def is_solo_view(view: View, rounds: int) -> bool:
    """Whether a view is the r-round *solo* state (only ever saw itself).

    Solo states of different processes share one canonical class — the
    pivot of Theorem 11's contradiction.
    """
    if view[0] == "id":
        return rounds == 0
    if len(view[1]) != 1:
        return False
    ((_pid, inner),) = view[1]
    return is_solo_view(inner, rounds - 1)


def render_view(view: View) -> str:
    """Human-readable rendering used by example scripts and error messages."""
    if view[0] == "id":
        return f"id={view[1]}"
    inner = ", ".join(f"p{pid}:{render_view(sub)}" for pid, sub in view[1])
    return "{" + inner + "}"
