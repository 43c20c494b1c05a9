"""Communication-free GSB solvers (Theorem 9, Corollary 2).

The easiest GSB tasks are solvable by a pure function of the process's own
identity — no shared-memory access at all.  These algorithms discharge the
"if" direction of Theorem 9 constructively; the harness runs them like any
other protocol (each decides on its first scheduled step).
"""

from __future__ import annotations

from typing import Callable

from ..core.gsb import GSBTask
from ..core.solvability import communication_free_decision_function
from ..shm.runtime import Algorithm, ProcessContext


def decision_only(decide: Callable[[ProcessContext], int]) -> Algorithm:
    """Wrap a pure decision function as a (communication-free) algorithm.

    The resulting generator yields no operations: the process decides at
    its first scheduled step.
    """

    def algorithm(ctx: ProcessContext):
        return decide(ctx)
        yield  # pragma: no cover — unreachable; makes this a generator

    return algorithm


def identity_renaming_algorithm() -> Algorithm:
    """(2n-1)-renaming with no communication: output your own identity.

    Identities already live in ``[1..2n-1]`` (Theorem 1 fixes N = 2n-1), so
    they are themselves distinct names in the target space — the paper's
    observation that the ``<n, 2n-1, 0, 1>`` task is trivial.
    """
    return decision_only(lambda ctx: ctx.identity)


def homonymous_renaming_algorithm(x: int) -> Algorithm:
    """Corollary 2's x-bounded homonymous renaming: decide ``ceil(id/x)``.

    At most x identities map to each name, so the
    ``<n, ceil((2n-1)/x), 0, x>`` bounds hold for any participating set.
    """
    if x < 1:
        raise ValueError(f"x must be at least 1, got {x}")
    return decision_only(lambda ctx: -(-ctx.identity // x))


def no_communication_algorithm(task: GSBTask) -> Algorithm:
    """Theorem 9's partition solver for any communication-free-solvable task.

    Builds the deterministic identity partition (group sizes chosen so
    every participating set stays within bounds) and decides by lookup.
    Raises ValueError when the task is not communication-free solvable.
    """
    delta = communication_free_decision_function(task)
    if delta is None:
        raise ValueError(
            f"{task} is not solvable without communication (Theorem 9)"
        )
    return decision_only(lambda ctx: delta[ctx.identity])
