"""SAT encoding of r-round decision-map existence, with a built-in solver.

The exhaustive tier-4 search (:func:`repro.topology.decision.search_decision_map`)
walks the decision-map space class by class, keeping per-facet occupancy
counters that prune a value as soon as a facet it touches can no longer
be completed — complete, but without learning: a dead end is found
again under every earlier assignment that leads to it.  This module
recasts the same question as propositional satisfiability:

* one boolean per ``(canonical class, output value)`` pair with
  exactly-one constraints per class;
* per facet and value, the task's counting bounds become clauses — the
  at-most-``u`` side forbids every *minimal* subset of the facet's
  classes whose multiplicities sum past ``u``, the at-least-``l`` side
  requires a value in the complement of every *maximal* deficient
  subset (facets have at most ``n`` distinct classes, so both
  enumerations are tiny);
* value interchangeability of symmetric GSB tasks — legality depends
  only on the multiset of per-value counts — is broken with a
  **value-precede chain** over the deterministic class order (value
  ``w`` may first appear only after ``w - 1``), the clause-level
  counterpart of the ``value_precede`` breakers catalogued in
  SNIPPETS.md; it generalizes the first-class-pins-value-1 trick the
  backtracking search uses.

Satisfying assignments decode to decision maps (independently verified
and certified by the caller); refutations are sound "no r-round
comparison-based protocol exists" statements, the same bounded evidence
the exhaustive tier records.

The solver is a dependency-free CDCL — two-watched-literal propagation,
first-UIP conflict learning, activity-driven branching from a binary
heap — so the attack has no hard dependency on an external SAT solver.
A conflict budget makes every call terminate, and a literal budget
(:data:`repro.decision.certificates.MAX_CNF_LITERALS`) keeps the encoder
from building a CNF that would not fit in memory; exceeding either
raises :class:`SatBudgetExceeded`, which the sweep records as an
exhausted attack rung.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Mapping, Sequence

from ..core.gsb import GSBTask
from ..decision.certificates import MAX_CNF_LITERALS
from ..topology.decision import decision_class_order
from ..topology.is_complex import ISProtocolComplex


class SatBudgetExceeded(RuntimeError):
    """The conflict or CNF-size budget ran out before SAT/UNSAT was established."""


@dataclass(frozen=True)
class DecisionMapEncoding:
    """A CNF whose models are exactly the legal decision maps.

    ``class_order`` is the deterministic order of
    :func:`repro.topology.decision.decision_class_order`; variable
    ``class_index * m + value`` (1-based values) is true iff the class
    decides that value, so models decode positionally.
    """

    n: int
    m: int
    rounds: int
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    class_order: tuple

    def decode(self, model: Mapping[int, bool]) -> dict:
        """Model -> decision map (class label -> output value)."""
        decision_map = {}
        for index, label in enumerate(self.class_order):
            values = [
                value
                for value in range(1, self.m + 1)
                if model.get(index * self.m + value)
            ]
            if len(values) != 1:
                raise ValueError(
                    f"model assigns {len(values)} values to class {index}"
                )
            decision_map[label] = values[0]
        return decision_map


def _shape_subsets(
    multiplicities: tuple[int, ...], low: int, high: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The counting clauses' subsets of one facet shape, as positions.

    A facet's *shape* is its distinct classes in ascending order with
    their multiplicities; ``multiplicities`` lists the latter.  Returns
    ``(forbidden, required)``: the at-most-``high`` side forbids every
    *minimal* subset whose multiplicities sum past ``high`` from taking
    one value together, and the at-least-``low`` side requires a value
    in the complement of every *maximal* subset that sums below ``low``.
    """
    positions = range(len(multiplicities))
    forbidden = []
    for size in range(1, len(positions) + 1):
        for subset in itertools.combinations(positions, size):
            total = sum(multiplicities[i] for i in subset)
            if total < high + 1:
                continue
            if all(total - multiplicities[i] < high + 1 for i in subset):
                forbidden.append(subset)
    required = []
    if low >= 1:
        for size in range(0, len(positions) + 1):
            for subset in itertools.combinations(positions, size):
                total = sum(multiplicities[i] for i in subset)
                if total > low - 1:
                    continue
                rest = tuple(i for i in positions if i not in subset)
                if all(total + multiplicities[i] > low - 1 for i in rest):
                    required.append(rest)
    return forbidden, required


def encode_decision_map(
    task: GSBTask, complex_: ISProtocolComplex
) -> DecisionMapEncoding:
    """CNF for "an r-round comparison-based decision map solves ``task``".

    Raises :class:`SatBudgetExceeded` before building any clause when the
    exactly-one and value-precede clauses alone would hold more than
    :data:`repro.decision.certificates.MAX_CNF_LITERALS` literals, and
    while building once the distinct clauses built so far, facet clauses
    included, hold more.
    """
    if task.n != complex_.n:
        raise ValueError(
            f"task is on {task.n} processes but the complex has {complex_.n}"
        )
    order = decision_class_order(complex_)
    classes = len(order)
    m = task.m
    # Exactly-one: m literals plus m(m-1)/2 pairs of two per class.  The
    # value-precede chain: one clause of index + 1 literals per class and
    # value past the first.  All of them are distinct; facet clauses come
    # on top.
    literals = classes * m * m
    if task.is_symmetric:
        literals += (m - 1) * classes * (classes + 1) // 2
    if literals > MAX_CNF_LITERALS:
        raise SatBudgetExceeded(
            f"CNF over {classes} classes and {m} values would hold at least "
            f"{literals} literals, past the encoder's budget of "
            f"{MAX_CNF_LITERALS}"
        )
    low, high = task.low, task.high

    def var(class_index: int, value: int) -> int:
        return class_index * m + value

    clauses: set[tuple[int, ...]] = set()
    for index in range(classes):
        clauses.add(tuple(var(index, value) for value in range(1, m + 1)))
        for v1, v2 in itertools.combinations(range(1, m + 1), 2):
            clauses.add((-var(index, v1), -var(index, v2)))
    if task.is_symmetric:
        # Value-precede chain over the class order: w appears only after
        # w-1 did.  Sound because symmetric-task legality is invariant
        # under value permutation (it only reads per-value counts).
        # var(earlier, w - 1) for earlier < index is range(w - 1, index * m, m).
        for w in range(2, m + 1):
            for index in range(classes):
                clauses.add((-var(index, w),) + tuple(range(w - 1, index * m, m)))
    # Facet clauses: dedupe class subsets across facets, enumerating the
    # subsets of each shape once, then expand each over the m values.
    shapes: dict[tuple[int, ...], tuple[list, list]] = {}
    forbidden: set[tuple[int, ...]] = set()
    required: set[tuple[int, ...]] = set()
    for members in complex_.facet_class_indexes():
        distinct = sorted(set(members))
        shape = tuple(map(members.count, distinct))
        subsets = shapes.get(shape)
        if subsets is None:
            subsets = shapes[shape] = _shape_subsets(shape, low, high)
        for positions in subsets[0]:
            forbidden.add(tuple([distinct[i] for i in positions]))
        for positions in subsets[1]:
            required.add(tuple([distinct[i] for i in positions]))
    values = range(1, m + 1)
    for sign, subsets in ((-1, forbidden), (1, required)):
        for subset in subsets:
            before = len(clauses)
            clauses.update(
                tuple([sign * (c * m + value) for c in subset]) for value in values
            )
            literals += (len(clauses) - before) * len(subset)
            if literals > MAX_CNF_LITERALS:
                raise SatBudgetExceeded(
                    f"CNF over {classes} classes and {m} values reached "
                    f"{literals} literals with its facet clauses, past the "
                    f"encoder's budget of {MAX_CNF_LITERALS}"
                )
    # Clauses sorted by (length, literals): sorting each length apart
    # compares tuples of one length only, without a key per clause.
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for clause in clauses:
        by_length.setdefault(len(clause), []).append(clause)
    return DecisionMapEncoding(
        n=task.n,
        m=m,
        rounds=complex_.rounds,
        num_vars=classes * m,
        clauses=tuple(itertools.chain.from_iterable(
            sorted(by_length[length]) for length in sorted(by_length)
        )),
        class_order=order,
    )


@dataclass
class SatResult:
    """Outcome of one :func:`solve_cnf` call."""

    satisfiable: bool
    model: dict[int, bool] | None
    conflicts: int
    decisions: int


def solve_cnf(
    num_vars: int,
    clauses: Sequence[Sequence[int]],
    max_conflicts: int | None = None,
) -> SatResult:
    """Decide a CNF with a self-contained CDCL solver.

    Raises :class:`SatBudgetExceeded` when ``max_conflicts`` runs out —
    the caller records the rung as exhausted rather than concluding
    anything.  Branching takes the unassigned variable of highest
    activity, the lowest-numbered on ties.  Polarity defaults to False
    (use few values first), which together with the value-precede chain
    steers models toward the lexicographically least decision map; after
    the first restart, phase saving takes over.  Restarts follow a Luby
    sequence; learned clauses are never deleted, so the solver stays
    complete.
    """
    # truth[lit] says whether literal ``lit`` is true (None: unassigned).
    # A negative literal indexes from the end of the list, so both
    # polarities share one list of 2 * num_vars + 1 slots; so do the
    # per-literal watch lists, which hold the clauses themselves.
    slots = 2 * num_vars + 1
    truth: list[bool | None] = [None] * slots
    watches: list[list[list[int]]] = [[] for _ in range(slots)]
    level = [0] * (num_vars + 1)
    reason: list[list[int] | None] = [None] * (num_vars + 1)
    trail: list[int] = []
    queue: list[int] = []  # true literals still to propagate
    activity = [0.0] * (num_vars + 1)
    phase = [False] * (num_vars + 1)
    # Branching heap of (-activity, variable) with lazy deletion: an entry
    # is live iff its variable is unassigned and its key is current.
    # Every unassigned variable keeps a live entry: variables are pushed
    # when unassigned, and activity only changes on assigned variables
    # (conflict analysis bumps) or all at once (decay, which rebuilds).
    heap = [(-0.0, variable) for variable in range(1, num_vars + 1)]
    conflicts = 0
    decisions = 0

    def enqueue(lit: int, at: int, because: list[int] | None) -> None:
        variable = lit if lit > 0 else -lit
        truth[lit] = True
        truth[-lit] = False
        level[variable] = at
        reason[variable] = because
        trail.append(variable)
        queue.append(lit)

    def backjump(to_level: int) -> None:
        while trail and level[trail[-1]] > to_level:
            variable = trail.pop()
            phase[variable] = truth[variable]
            truth[variable] = truth[-variable] = None
            heappush(heap, (-activity[variable], variable))
        queue.clear()

    for raw in clauses:
        clause = list(raw)
        if clause and (
            min(clause) < -num_vars or max(clause) > num_vars or 0 in clause
        ):
            raise ValueError(f"clause {raw} has a literal outside ±1..{num_vars}")
        if not clause:
            return SatResult(False, None, conflicts, decisions)
        if len(clause) == 1:
            lit = clause[0]
            current = truth[lit]
            if current is False:
                return SatResult(False, None, conflicts, decisions)
            if current is None:
                enqueue(lit, 0, None)
            continue
        watches[clause[0]].append(clause)
        watches[clause[1]].append(clause)

    def propagate(at: int) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        while queue:
            false_lit = -queue.pop()
            watching = watches[false_lit]
            index = 0
            while index < len(watching):
                clause = watching[index]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = truth[clause[0]]
                if first:
                    index += 1
                    continue
                for slot in range(2, len(clause)):
                    lit = clause[slot]
                    if truth[lit] is not False:
                        clause[1], clause[slot] = lit, clause[1]
                        watches[lit].append(clause)
                        watching[index] = watching[-1]
                        watching.pop()
                        break
                else:
                    if first is False:
                        return clause
                    enqueue(clause[0], at, clause)
                    index += 1
        return None

    conflict = propagate(0)
    if conflict is not None:
        return SatResult(False, None, conflicts, decisions)

    def luby(index: int) -> int:
        """The Luby restart sequence 1,1,2,1,1,2,4,... (0-indexed)."""
        size, depth = 1, 0
        while size < index + 1:
            depth += 1
            size = 2 * size + 1
        while size - 1 != index:
            size = (size - 1) // 2
            depth -= 1
            index %= size
        return 1 << depth

    restart_count = 0
    restart_limit = 256 * luby(0)
    since_restart = 0
    current_level = 0
    while True:
        if since_restart >= restart_limit and current_level > 0:
            # Restart: keep the learned clauses, drop the decisions.
            backjump(0)
            current_level = 0
            restart_count += 1
            restart_limit = 256 * luby(restart_count)
            since_restart = 0
        # Branch: highest-activity unassigned variable, saved polarity.
        branch = 0
        while heap:
            key, variable = heappop(heap)
            if truth[variable] is None and key == -activity[variable]:
                branch = variable
                break
        if branch == 0:
            model = {variable: truth[variable] for variable in trail}
            return SatResult(True, model, conflicts, decisions)
        decisions += 1
        current_level += 1
        enqueue(branch if phase[branch] else -branch, current_level, None)
        while True:
            conflict = propagate(current_level)
            if conflict is None:
                break
            conflicts += 1
            since_restart += 1
            if max_conflicts is not None and conflicts > max_conflicts:
                raise SatBudgetExceeded(
                    f"SAT search exceeded {max_conflicts} conflicts"
                )
            if current_level == 0:
                return SatResult(False, None, conflicts, decisions)
            # First-UIP conflict analysis.
            learnt: list[int] = []
            seen: set[int] = set()
            pending = 0
            pivot: int | None = None
            clause = conflict
            cursor = len(trail) - 1
            while True:
                for lit in clause:
                    variable = abs(lit)
                    if variable == pivot or variable in seen:
                        continue
                    if level[variable] == 0:
                        continue
                    seen.add(variable)
                    activity[variable] += 1.0
                    if level[variable] == current_level:
                        pending += 1
                    else:
                        learnt.append(
                            -variable if truth[variable] else variable
                        )
                while (
                    trail[cursor] not in seen
                    or level[trail[cursor]] != current_level
                ):
                    cursor -= 1
                pivot = trail[cursor]
                pending -= 1
                seen.discard(pivot)
                if pending == 0:
                    break
                clause = reason[pivot] or []
                cursor -= 1
            uip = -pivot if truth[pivot] else pivot
            learnt.insert(0, uip)
            backtrack_level = (
                max(level[abs(lit)] for lit in learnt[1:])
                if len(learnt) > 1
                else 0
            )
            backjump(backtrack_level)
            current_level = backtrack_level
            if len(learnt) == 1:
                enqueue(uip, 0, None)
            else:
                watches[learnt[0]].append(learnt)
                watches[learnt[1]].append(learnt)
                enqueue(uip, current_level, learnt)
            if conflicts % 256 == 0:
                for variable in range(1, num_vars + 1):
                    activity[variable] *= 0.5
                heap[:] = [
                    (-activity[variable], variable)
                    for variable in range(1, num_vars + 1)
                    if truth[variable] is None
                ]
                heapify(heap)


def solve_decision_map_sat(
    task: GSBTask,
    complex_: ISProtocolComplex,
    max_conflicts: int | None = None,
) -> tuple[dict | None, SatResult]:
    """Encode + solve; returns ``(decision_map | None, raw SAT result)``."""
    encoding = encode_decision_map(task, complex_)
    result = solve_cnf(
        encoding.num_vars, encoding.clauses, max_conflicts=max_conflicts
    )
    if not result.satisfiable:
        return None, result
    return encoding.decode(result.model), result
