"""The named GSB task instances of Section 3.2.

Each constructor returns the task with its standard label so reports and
reductions can refer to tasks by name.  The module also records, for each
named task, its place in the difficulty spectrum established in Section 5:

* trivially solvable without communication: ``(2n-1)``-renaming,
  x-bounded homonymous renaming;
* wait-free solvable for some n only: WSB, ``(2n-2)``-renaming;
* never wait-free solvable: election, perfect renaming.
"""

from __future__ import annotations

from .bounds import BoundVector, GSBSpecificationError
from .gsb import GSBTask, SymmetricGSBTask


def election(n: int) -> GSBTask:
    """Election: exactly one process outputs 1, exactly n-1 output 2.

    This is the asymmetric GSB task with bounds l = u = [1, n-1]; it is a
    non-adaptive form of test-and-set (Section 1) and is not wait-free
    solvable (Theorem 11).
    """
    if n < 2:
        raise GSBSpecificationError("election needs at least 2 processes")
    bounds = BoundVector(lower=(1, n - 1), upper=(1, n - 1))
    return GSBTask(n, bounds, label="election")


def weak_symmetry_breaking(n: int) -> SymmetricGSBTask:
    """WSB: binary outputs, not all processes decide the same value.

    The ``<n, 2, 1, n-1>`` task (Section 3.2); equal to 1-WSB and to the
    2-slot task, and wait-free equivalent to (2n-2)-renaming (Section 5.3).
    """
    if n < 2:
        raise GSBSpecificationError("WSB needs at least 2 processes")
    return SymmetricGSBTask(n, 2, 1, n - 1, label="WSB")


def k_weak_symmetry_breaking(n: int, k: int) -> SymmetricGSBTask:
    """k-WSB: each binary value decided at least k and at most n-k times.

    Defined for ``k <= n/2`` (Section 3.2); 1-WSB is plain WSB.
    """
    if not 1 <= k <= n // 2:
        raise GSBSpecificationError(
            f"k-WSB needs 1 <= k <= n/2, got k={k} with n={n}"
        )
    return SymmetricGSBTask(n, 2, k, n - k, label=f"{k}-WSB")


def renaming(n: int, m: int) -> SymmetricGSBTask:
    """Non-adaptive m-renaming: distinct new names in ``[1..m]``.

    The ``<n, m, 0, 1>`` task.  ``m = 2n-1`` is trivially solvable
    (processes output their own identity), ``m = 2n-2`` is solvable exactly
    when gcd{C(n,i)} = 1, and ``m = n`` is perfect renaming.
    """
    if m < n:
        raise GSBSpecificationError(
            f"{m}-renaming with {n} processes is infeasible (m < n)"
        )
    return SymmetricGSBTask(n, m, 0, 1, label=f"{m}-renaming")


def perfect_renaming(n: int) -> SymmetricGSBTask:
    """Perfect renaming ``<n, n, 1, 1>``: a bijection onto ``[1..n]``.

    Universal for the whole GSB family (Theorem 8) and not wait-free
    solvable (Corollary 5).
    """
    return SymmetricGSBTask(n, n, 1, 1, label="perfect-renaming")


def k_slot(n: int, k: int) -> SymmetricGSBTask:
    """k-slot: decide values in ``[1..k]``, every value decided at least once.

    The ``<n, k, 1, n>`` task, synonym of ``<n, k, 1, n-k+1>``
    (Section 3.2).  The 2-slot task is WSB; the (n-1)-slot task solves
    (n+1)-renaming via the paper's Figure 2 algorithm.
    """
    if not 1 <= k <= n:
        raise GSBSpecificationError(f"k-slot needs 1 <= k <= n, got k={k}, n={n}")
    return SymmetricGSBTask(n, k, 1, n, label=f"{k}-slot")


def x_bounded_homonymous_renaming(n: int, x: int) -> SymmetricGSBTask:
    """x-bounded homonymous renaming: ``<n, ceil((2n-1)/x), 0, x>``.

    At most x processes may share a name; solvable with no communication by
    ``decide ceil(id/x)`` (Corollary 2).
    """
    if x < 1:
        raise GSBSpecificationError(f"x must be at least 1, got {x}")
    m = -(-(2 * n - 1) // x)
    return SymmetricGSBTask(n, m, 0, x, label=f"{x}-bounded-homonymous-renaming")


def hardest_task(n: int, m: int) -> SymmetricGSBTask:
    """The hardest feasible ``<n, m, -, ->`` task (Theorem 5).

    ``<n, m, floor(n/m), ceil(n/m)>``: its kernel set is the single
    balanced kernel vector contained in every feasible sibling task.
    """
    if m < 1 or m > n:
        raise GSBSpecificationError(
            f"hardest task needs 1 <= m <= n, got m={m}, n={n}"
        )
    return SymmetricGSBTask(
        n, m, n // m, -(-n // m), label=f"hardest<{n},{m}>"
    )


def exact_split(n: int, k: int) -> GSBTask:
    """Exactly k processes decide 1 and n-k decide 2 (election is k=1).

    The natural asymmetric ladder between election and balanced splitting;
    not named in the paper but definable in its framework.  Its outputs
    sit inside k-WSB's (for k <= n/2), and Theorem 8 solves it from
    perfect renaming like every other GSB task.
    """
    if not 1 <= k <= n - 1:
        raise GSBSpecificationError(
            f"exact split needs 1 <= k <= n-1, got k={k}, n={n}"
        )
    bounds = BoundVector(lower=(k, n - k), upper=(k, n - k))
    return GSBTask(n, bounds, label=f"exact-{k}-split")


def committee_decision(
    n: int, committee_sizes: list[tuple[int, int]]
) -> GSBTask:
    """The introduction's committee example as an asymmetric GSB task.

    ``committee_sizes[v-1] = (min_members, max_members)`` of committee v;
    every person (process) joins exactly one committee.
    """
    bounds = BoundVector.from_pairs(committee_sizes)
    return GSBTask(n, bounds, label="committee-assignment")


#: Constructors for all named symmetric families keyed by their paper name,
#: used by the atlas generator.  Values are (constructor, arity) pairs where
#: arity counts parameters beyond n.
NAMED_FAMILIES = {
    "WSB": (weak_symmetry_breaking, 0),
    "k-WSB": (k_weak_symmetry_breaking, 1),
    "renaming": (renaming, 1),
    "perfect-renaming": (perfect_renaming, 0),
    "k-slot": (k_slot, 1),
    "x-bounded-homonymous-renaming": (x_bounded_homonymous_renaming, 1),
}
