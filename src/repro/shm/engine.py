"""Prefix-sharing exploration engine (the model-checking hot path).

The legacy explorer (:mod:`repro.shm.explore`) re-executes every run prefix
from scratch: exploring the schedule tree of an n-process protocol costs
O(nodes x depth) full step re-executions, which caps exhaustive checking at
n <= 3.  This engine turns exploration into a real search procedure:

* **Prefix sharing** — :meth:`PrefixSharingEngine.runs` walks the schedule
  tree with ``fork``: at a branching configuration the live state is
  snapshotted once per extra branch instead of replaying the whole prefix
  per node.

* **Orbit memoization** — interleavings of independent operations commute
  into the same global state, and states that differ only in decided
  outputs, oracle arrival order or (for specs that declare it) a
  relabeling of interchangeable values share their future.  The
  decided-vector multiset reachable from a state is memoized per orbit,
  so each orbit's subtree is computed once and reused.

* **Symmetry canonicalization** — the model's algorithms are
  comparison-based and index-independent (Section 2.2; the harness checks
  both metamorphically), so participant subsets whose identity vectors are
  order-isomorphic produce identical decided-value multisets up to process
  relabelling.  With the default identity assignment ``1..n``, *every*
  size-s subset is order-isomorphic to ``{0..s-1}``: subset-closed
  exploration shrinks from 2^n - 1 subsets to n representatives, each
  weighted by its class size C(n, s).

* **Batching** — :func:`explore_many` runs a battery of named exploration
  tasks across a range of system sizes, one exploration after another.

Production exploration runs on the **compiled core**
(:mod:`repro.shm.compiled`, :func:`make_spec_machine`).
:meth:`PrefixSharingEngine.decided_vectors` runs the orbit quotient on it:
frames hold canonical orbit keys, and one transition
(:meth:`~repro.shm.compiled.MachineState.transition`) steps them.
Machines serve :meth:`PrefixSharingEngine.runs`, the harness and the
exploration's root, and ``EngineStats.forks`` counts only what those paths
fork.  The generator :class:`~repro.shm.runtime.Runtime`
(:func:`make_spec_runtime`) is the reference semantics the tests compare
against: on it the same method runs an exact DFS memoized by
:meth:`Runtime.state_key <repro.shm.runtime.Runtime.state_key>`, and the
re-execution explorer in :mod:`repro.shm.explore` is the older reference
still.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from .runtime import Algorithm, Runtime, RunResult, freeze_value

class ExplorationBudgetExceeded(RuntimeError):
    """Exploration hit ``max_runs``; results so far are incomplete."""


# -- process-wide orbit-memo counters, surfaced via core.cache_config so
# the quotient shows up in cache_stats() / the /stats endpoint like every
# other cache in the repo.
_ORBIT_TOTALS = {
    "explorations": 0,
    "orbits": 0,
    "orbit_hits": 0,
    "lex_pruned": 0,
}


def _orbit_totals() -> dict:
    return dict(_ORBIT_TOTALS)


def _orbit_totals_clear() -> None:
    for key in _ORBIT_TOTALS:
        _ORBIT_TOTALS[key] = 0


def _register_orbit_counters() -> None:
    from ..core.cache_config import register_counters

    try:
        register_counters(
            "engine.orbit_memo", _orbit_totals, _orbit_totals_clear
        )
    except ValueError:  # pragma: no cover - repeated registration on reload
        pass


_register_orbit_counters()


@dataclass
class EngineStats:
    """Counters describing one exploration (observability + docs tables)."""

    nodes: int = 0  #: internal configurations expanded
    runs: int = 0  #: completed runs materialized (after memoization)
    forks: int = 0  #: machine snapshots taken (the quotient takes none)
    memo_hits: int = 0  #: subtrees served from the state memo
    memo_entries: int = 0  #: distinct states memoized
    subsets_pruned: int = 0  #: participant subsets collapsed by symmetry
    peak_stack: int = 0  #: deepest DFS stack (memory high-water mark)
    orbits: int = 0  #: distinct value-symmetry orbits memoized
    orbit_hits: int = 0  #: subtrees served from the orbit memo
    lex_pruned: int = 0  #: branches subsumed by an orbit explored earlier

    def to_json(self) -> dict:
        """Counter dict for the CLI's ``--json`` payloads."""
        return {
            "nodes": self.nodes,
            "runs": self.runs,
            "forks": self.forks,
            "memo_hits": self.memo_hits,
            "memo_entries": self.memo_entries,
            "subsets_pruned": self.subsets_pruned,
            "peak_stack": self.peak_stack,
            "orbits": self.orbits,
            "orbit_hits": self.orbit_hits,
            "lex_pruned": self.lex_pruned,
        }


class PrefixSharingEngine:
    """Explore every interleaving of one system.

    Args:
        make_runtime: factory producing a fresh compiled
            :class:`~repro.shm.compiled.MachineState` or reference
            :class:`Runtime`; called once per exploration (the engine
            forks or steps keys from it, it is *not* re-invoked per
            prefix).  The runtime's scheduler is ignored.
        participants: pids allowed to take steps (others crash before
            their first step); defaults to all processes.
        max_runs: raise :class:`ExplorationBudgetExceeded` beyond this many
            *materialized* runs — every completed run for :meth:`runs`;
            for :meth:`decided_vectors` only leaves actually visited
            (logical runs served from the memo are free, which is the
            point of the budget: it bounds work, and the memo does less
            of it).
        max_depth: per-run step bound (guards against non-termination).
        stats: optional shared :class:`EngineStats` to accumulate into.
        relabeler: the spec's declared value-relabeling group
            (:attr:`ExplorationSpec.value_relabel`); None means only the
            relabeling-free orbit refinements apply.
    """

    def __init__(
        self,
        make_runtime: Callable[[], Runtime],
        participants: Sequence[int] | None = None,
        max_runs: int | None = None,
        max_depth: int = 10_000,
        stats: EngineStats | None = None,
        relabeler: Any = None,
    ):
        self._make = make_runtime
        self.participants = (
            None if participants is None else frozenset(participants)
        )
        self.max_runs = max_runs
        self.max_depth = max_depth
        self.stats = stats if stats is not None else EngineStats()
        self.relabeler = relabeler

    # ------------------------------------------------------------------
    # Every run: the drop-in replacement for the legacy explorer
    # ------------------------------------------------------------------

    def runs(self) -> Iterator[RunResult]:
        """Yield every interleaving's :class:`RunResult`.

        Equivalent to the legacy explorer — same runs, same lexicographic
        (by pid) order — but each branch point costs one fork instead of a
        full prefix re-execution.
        """
        produced = 0
        root = self._make()
        allowed = self._allowed(root)
        self._check_depth(root.step_count)
        enabled = self._enabled(root, allowed)
        if not enabled:
            self.stats.runs += 1
            yield root.result()
            return
        self.stats.nodes += 1
        # Frames are [runtime, enabled pids, next branch index]; reaching
        # the last branch reuses the frame's runtime instead of forking.
        stack: list[list[Any]] = [[root, enabled, 0]]
        while stack:
            frame = stack[-1]
            runtime, branches, index = frame
            if index == len(branches):
                stack.pop()
                continue
            frame[2] += 1
            if frame[2] == len(branches):
                child = runtime
            else:
                child = runtime.fork()
                self.stats.forks += 1
            child.step(branches[index])
            self._check_depth(child.step_count)
            child_enabled = self._enabled(child, allowed)
            if not child_enabled:
                produced += 1
                if self.max_runs is not None and produced > self.max_runs:
                    raise ExplorationBudgetExceeded(
                        f"exploration produced more than {self.max_runs} runs"
                    )
                self.stats.runs += 1
                yield child.result()
                continue
            self.stats.nodes += 1
            stack.append([child, child_enabled, 0])
            self.stats.peak_stack = max(self.stats.peak_stack, len(stack))

    # ------------------------------------------------------------------
    # Memoized decided-vector counting
    # ------------------------------------------------------------------

    def decided_vectors(self) -> Counter:
        """Multiset of decided output vectors over all interleavings.

        Returns a :class:`collections.Counter` mapping the (frozen) tuple
        of per-pid outputs of each completed run to the number of
        interleavings producing it — exactly the multiset the legacy
        explorer's ``RunResult.outputs`` induce, but computed with subtree
        memoization: once the outcome multiset of a global state is known,
        every other interleaving reaching that state reuses it.  Counts are
        preserved because the memoized counter is *added* once per arrival
        path.

        The runtime picks the DFS.  A compiled machine runs the orbit
        quotient (:meth:`_decided_vectors_quotient`): the memo is a table
        over value-symmetry **orbits** (:meth:`MachineState.orbit_key
        <repro.shm.compiled.MachineState.orbit_key>`), and frames hold
        canonical orbit keys, which one transition steps.  A generator
        :class:`Runtime`, the reference the differential suites compare
        against, runs an exact DFS memoized by :meth:`Runtime.state_key`.
        """
        root = self._make()
        if not hasattr(root, "transition"):
            return self._decided_vectors_exact(root)
        return self._decided_vectors_quotient(root)

    def _decided_vectors_exact(self, root: Runtime) -> Counter:
        produced = 0
        memo: dict[Any, Counter] = {}
        allowed = self._allowed(root)
        self._check_depth(root.step_count)

        def leaf(runtime: Runtime) -> Counter:
            nonlocal produced
            produced += 1
            if self.max_runs is not None and produced > self.max_runs:
                raise ExplorationBudgetExceeded(
                    f"exploration produced more than {self.max_runs} runs"
                )
            self.stats.runs += 1
            return Counter(
                {tuple(freeze_value(v) for v in runtime.outputs): 1}
            )

        enabled = self._enabled(root, allowed)
        if not enabled:
            return leaf(root)

        # Post-order DFS with an explicit stack (run length may exceed the
        # recursion limit).  Frames: [runtime, enabled, index, acc, key].
        total: Counter | None = None
        stack: list[list[Any]] = []

        def open_frame(runtime: Runtime, branches: list[int]) -> Counter | None:
            """Push a frame for an internal node, or return a memo hit."""
            key = runtime.state_key()
            if key is not None and key in memo:
                self.stats.memo_hits += 1
                return memo[key]
            self.stats.nodes += 1
            stack.append([runtime, branches, 0, Counter(), key])
            self.stats.peak_stack = max(self.stats.peak_stack, len(stack))
            return None

        def propagate(outcome: Counter) -> None:
            nonlocal total
            if stack:
                stack[-1][3] += outcome
            else:
                total = outcome

        open_frame(root, enabled)
        while stack:
            frame = stack[-1]
            runtime, branches, index, acc, key = frame
            if index == len(branches):
                if key is not None:
                    memo[key] = acc
                    self.stats.memo_entries += 1
                stack.pop()
                propagate(acc)
                continue
            frame[2] += 1
            if frame[2] == len(branches):
                child = runtime
            else:
                child = runtime.fork()
                self.stats.forks += 1
            child.step(branches[index])
            self._check_depth(child.step_count)
            child_enabled = self._enabled(child, allowed)
            if not child_enabled:
                propagate(leaf(child))
                continue
            hit = open_frame(child, child_enabled)
            if hit is not None:
                propagate(hit)
        assert total is not None
        return Counter(total)

    def _decided_vectors_quotient(self, root) -> Counter:
        """Orbit-quotient DFS from ``root`` (see :meth:`decided_vectors`).

        Frames hold canonical orbit keys, not machines.  ``root`` gives
        the first key and the transition
        (:meth:`~repro.shm.compiled.MachineState.transition`); a child is
        the transition of its frame's key under one undecided pid, so the
        loop forks and steps nothing.  A child's positions are its
        parent's, minus the pid when that pid decides; its depth is the
        stack height.

        Each successor key is looked up raw first: memo keys are
        canonical and canonicalization is idempotent, so a raw key the
        memo holds is its own representative.  Otherwise it is
        canonicalized when the spec declares a relabeler
        (:class:`~repro.shm.compiled.ValueCanonicalizer`) and looked up
        again.  Every hit counts as ``lex_pruned``: the branch is subsumed
        by the orbit representative explored earlier in the engine's
        lexicographic order.  A miss is pushed as its canonical key.

        Accumulators are in suffix form: a frame counts suffix tuples over
        its own undecided (enabled ∩ allowed) positions, in its key's
        canonical labels.  A closing frame's ``(suffix, count)`` items
        become its memo entry, one tuple, interned by value for the life
        of the exploration, so orbits with equal outcomes share one tuple.
        The entry joins the parent's accumulator exactly as a hit does:
        mapped back through the child's relabeling, with the stepping
        pid's decided value inserted at that pid's index.  Full output
        vectors are built once, at the root.
        """
        memo: dict[tuple, tuple] = {}
        lookup = memo.get
        intern = {}.setdefault
        allowed = self._allowed(root)
        self._check_depth(root.step_count)
        successor = root.transition()

        relabeler = self.relabeler
        canonical = values = None
        if relabeler is not None:
            from .compiled import ValueCanonicalizer

            # The factory that owns the step table keeps its canonicalizers
            # (:func:`make_spec_machine`): canonical-node routing is
            # reusable across every exploration of the table.  The table
            # itself must not hold one; the canonicalizer points back at
            # it, and the pair would outlive the exploration in a cycle.
            cache = getattr(self._make, "canonicalizers", {})
            canon = cache.get(relabeler)
            if canon is None:
                canon = cache[relabeler] = ValueCanonicalizer(
                    root.program, relabeler
                )
            canonical = canon.canonical
            values = root._oracle_values[canon._oracle]
        max_runs = self.max_runs
        # A child of the top frame is ``len(stack)`` steps below the root.
        limit = self.max_depth - root.step_count

        # Hot-loop counters stay locals; folded into stats in `finally`.
        nodes_l = runs_l = hits_l = orbits_l = peak_l = 0

        # Accumulators are plain dicts, not Counters: Counter.__iadd__
        # rescans the whole accumulator for positivity on every merge,
        # which dominates the hot loop (counts here are never negative).
        def join(acc, pairs, table, at, decided) -> None:
            """Add a child's ``(suffix, count)`` pairs into its parent's
            ``acc``; ``table`` relabels them into the parent's labels
            first."""
            if table is not None:
                to_state = table.to_state.__getitem__
                pairs = [(to_state(suffix), count) for suffix, count in pairs]
            get = acc.get
            if decided is None:
                for suffix, count in pairs:
                    acc[suffix] = get(suffix, 0) + count
            else:
                for suffix, count in pairs:
                    suffix = suffix[:at] + (decided,) + suffix[at:]
                    acc[suffix] = get(suffix, 0) + count

        def leaf() -> None:
            nonlocal runs_l
            if max_runs is not None and runs_l >= max_runs:
                raise ExplorationBudgetExceeded(
                    f"exploration produced more than {max_runs} runs"
                )
            runs_l += 1

        # Frames: [key, positions, index, acc, relabeling, index in the
        # parent, decided value (None: still running)].
        stack: list[list[Any]] = []
        total: dict = {}
        try:
            positions = tuple(self._enabled(root, allowed))
            base = [freeze_value(v) for v in root.outputs]
            if not positions:
                leaf()
                total[()] = 1
            else:
                key, table = root.orbit_key(), None
                if canonical is not None:
                    key, table = canonical(key, values)
                nodes_l = peak_l = 1
                stack.append([key, positions, 0, {}, table, 0, None])
            while stack:
                frame = stack[-1]
                branches = frame[1]
                index = frame[2]
                if index == len(branches):
                    stack.pop()
                    entry = tuple(frame[3].items())
                    memo[frame[0]] = entry = intern(entry, entry)
                    orbits_l += 1
                    join(stack[-1][3] if stack else total, entry, frame[4],
                         frame[5], frame[6])
                    continue
                frame[2] = index + 1
                pid = branches[index]
                key, decided, _ = successor(frame[0], pid)
                if decided is None:
                    child_branches = branches
                elif len(branches) == 1:
                    # ``pid`` was this frame's last undecided position,
                    # and it has just decided.  No lookup: a memo key has
                    # an undecided position, since it was a frame's.
                    if len(stack) > limit:
                        self._check_depth(root.step_count + len(stack))
                    leaf()
                    acc = frame[3]
                    suffix = (decided,)
                    acc[suffix] = acc.get(suffix, 0) + 1
                    continue
                else:
                    child_branches = branches[:index] + branches[index + 1:]
                table = None
                entry = lookup(key)
                if entry is None and canonical is not None:
                    key, table = canonical(key, values)
                    if table is not None:
                        entry = lookup(key)
                if entry is not None:
                    hits_l += 1
                    join(frame[3], entry, table, index, decided)
                    continue
                if len(stack) > limit:
                    self._check_depth(root.step_count + len(stack))
                nodes_l += 1
                stack.append(
                    [key, child_branches, 0, {}, table, index, decided]
                )
                if len(stack) > peak_l:
                    peak_l = len(stack)
            decisions: Counter = Counter()
            for suffix, count in total.items():
                for pid, value in zip(positions, suffix):
                    base[pid] = value
                decisions[tuple(base)] = count
            return decisions
        finally:
            stats = self.stats
            stats.nodes += nodes_l
            stats.runs += runs_l
            stats.memo_hits += hits_l
            stats.memo_entries += orbits_l
            stats.orbits += orbits_l
            stats.orbit_hits += hits_l
            stats.lex_pruned += hits_l
            stats.peak_stack = max(stats.peak_stack, peak_l)
            _ORBIT_TOTALS["explorations"] += 1
            _ORBIT_TOTALS["orbits"] += orbits_l
            _ORBIT_TOTALS["orbit_hits"] += hits_l
            _ORBIT_TOTALS["lex_pruned"] += hits_l

    # ------------------------------------------------------------------

    def _allowed(self, runtime: Runtime) -> frozenset[int]:
        if self.participants is None:
            return frozenset(range(runtime.n))
        return self.participants

    def _enabled(self, runtime: Runtime, allowed: frozenset[int]) -> list[int]:
        return [pid for pid in runtime.enabled_pids() if pid in allowed]

    def _check_depth(self, steps: int) -> None:
        if steps > self.max_depth:
            raise ExplorationBudgetExceeded(
                f"run prefix exceeded {self.max_depth} steps; "
                "non-terminating protocol?"
            )


# ----------------------------------------------------------------------
# Symmetry canonicalization of participant subsets
# ----------------------------------------------------------------------

def order_isomorphism_class(identities: Sequence[int]) -> tuple[int, ...]:
    """The rank pattern of an identity vector (its order-isomorphism class).

    Comparison-based algorithms behave identically on order-isomorphic
    identity vectors, so this tuple is the canonical representative used to
    deduplicate identity assignments and participant subsets.
    """
    ranks = {identity: rank for rank, identity in enumerate(sorted(identities))}
    return tuple(ranks[identity] for identity in identities)


def canonical_participant_classes(
    n: int, min_participants: int = 1
) -> list[tuple[tuple[int, ...], int]]:
    """Representative participant subsets with their symmetry-class sizes.

    With the default identity assignment ``1..n`` every size-s subset has
    an order-isomorphic (ascending) identity vector, so one representative
    ``(0, .., s-1)`` stands for all C(n, s) subsets.  Sound only for
    comparison-based, index-independent algorithms whose decisions are
    abstract task values (the GSB values in ``[1..m]``) — decisions that
    embed raw identities or pids are *not* invariant across the class.
    The model's discipline mandates all three properties (Section 2.2; the
    harness checks them independently).
    """
    return [
        (tuple(range(size)), math.comb(n, size))
        for size in range(min_participants, n + 1)
    ]


@dataclass
class SubsetDecisionProfile:
    """Decided-vector multisets across participant subsets.

    ``by_subset`` maps each explored subset to the Counter of decided
    output vectors of its runs; ``weights`` carries the number of subsets
    each explored representative stands for (1 unless symmetry pruning
    collapsed a class).
    """

    n: int
    by_subset: dict[tuple[int, ...], Counter] = field(default_factory=dict)
    weights: dict[tuple[int, ...], int] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)

    def value_multisets(self) -> Counter:
        """Weighted Counter of decided *value multisets* (sorted tuples).

        Process positions are dropped, which is the level at which
        symmetry-pruned subsets are exchangeable — and the level at which
        GSB legality is defined (occupancy bounds only see the multiset).
        """
        aggregated: Counter = Counter()
        for subset, decisions in self.by_subset.items():
            weight = self.weights.get(subset, 1)
            for outputs, count in decisions.items():
                # Sort by repr: decision values need not be mutually
                # comparable (e.g. tuples containing None), and only a
                # canonical multiset ordering is needed here.
                values = tuple(
                    sorted(
                        (v for v in outputs if v is not None), key=repr
                    )
                )
                aggregated[values] += weight * count
        return aggregated

    @property
    def total_runs(self) -> int:
        return sum(
            self.weights.get(subset, 1) * sum(decisions.values())
            for subset, decisions in self.by_subset.items()
        )


def explore_decided_subsets(
    make_runtime: Callable[[], Runtime],
    min_participants: int = 1,
    assume_symmetric: bool = True,
    max_runs: int | None = None,
    max_depth: int = 10_000,
    value_relabel: Any = None,
) -> SubsetDecisionProfile:
    """Decided-vector profile over every participant subset.

    With ``assume_symmetric`` (the model's default discipline) only one
    representative subset per size is explored and its results are weighted
    by the class size; otherwise all ``2^n - 1`` subsets run.

    Each subset keeps its *own* memo: orbit keys do not encode the
    participant set, so sharing one table across subsets would conflate
    their suffix positions.
    """
    probe = make_runtime()
    n = probe.n
    profile = SubsetDecisionProfile(n=n)
    if assume_symmetric:
        classes = canonical_participant_classes(n, min_participants)
        profile.stats.subsets_pruned = sum(
            weight - 1 for _, weight in classes
        )
    else:
        import itertools

        classes = [
            (subset, 1)
            for size in range(min_participants, n + 1)
            for subset in itertools.combinations(range(n), size)
        ]
    for subset, weight in classes:
        engine = PrefixSharingEngine(
            make_runtime,
            participants=subset,
            max_runs=max_runs,
            max_depth=max_depth,
            stats=profile.stats,
            relabeler=value_relabel,
        )
        profile.by_subset[subset] = engine.decided_vectors()
        profile.weights[subset] = weight
    return profile


# ----------------------------------------------------------------------
# Named exploration tasks (the batch API's registry)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExplorationSpec:
    """A named, parameterized exploration workload.

    The three factories take the system size ``n``; ``task_factory`` builds
    the task specification decided vectors are validated against,
    ``algorithm_factory`` the protocol, and ``system_factory`` a per-run
    system factory (arrays + oracle objects) — deterministic, so that
    exploration is reproducible.
    """

    name: str
    description: str
    task_factory: Callable[[int], Any]
    algorithm_factory: Callable[[int], Algorithm]
    system_factory: Callable[[int], Callable[[], tuple[dict, dict]]]
    min_n: int = 2
    #: The relabeler the canonicalizer drives (see
    #: :class:`SlotValueRelabeler`), for specs whose oracle values are
    #: interchangeable: compared for equality only.  None (the default)
    #: pins the values: they feed arithmetic or carry semantics, and only
    #: the relabeling-free orbit refinements apply.  A relabeler on a
    #: spec whose algorithm computes *with* the values is unsound; the
    #: n<=3 differential suite is the arbiter.
    value_relabel: Any = None


_SPEC_REGISTRY: dict[str, ExplorationSpec] = {}


def register_spec(spec: ExplorationSpec) -> ExplorationSpec:
    """Add a spec to the registry (overwrites an existing name)."""
    _SPEC_REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExplorationSpec:
    if name not in _SPEC_REGISTRY:
        raise KeyError(
            f"unknown exploration task {name!r}; "
            f"registered: {sorted(_SPEC_REGISTRY)}"
        )
    return _SPEC_REGISTRY[name]


def available_specs() -> list[str]:
    return sorted(_SPEC_REGISTRY)


# -- built-in specs.  Factories import lazily (engine sits below
# repro.algorithms in the layer order).

def _wsb_task(n: int):
    from ..core.named import weak_symmetry_breaking

    return weak_symmetry_breaking(n)


def _wsb_algorithm(n: int) -> Algorithm:
    from ..algorithms.wsb import wsb_from_renaming

    return wsb_from_renaming()


def _wsb_system(n: int) -> Callable[[], tuple[dict, dict]]:
    from ..algorithms.wsb import RENAMING_OBJECT
    from ..core.named import renaming
    from .oracles import GSBOracle, LexMinStrategy

    def factory() -> tuple[dict, dict]:
        oracle = GSBOracle(renaming(n, 2 * n - 2), strategy=LexMinStrategy())
        return {}, {RENAMING_OBJECT: oracle}

    return factory


def _election_task(n: int):
    from ..core.named import election

    return election(n)


def _election_candidate(ctx):
    """A natural — necessarily incorrect (Theorem 11) — election attempt.

    Write your identity, snapshot, claim leadership iff yours is the
    largest identity visible.  Exploration finds the interleavings where
    two processes each see only themselves and both elect themselves:
    model checking *refuting* a candidate protocol is the workload here.
    """
    yield _write("BALLOT", ctx.identity)
    view = yield _snapshot("BALLOT")
    seen = [identity for identity in view if identity is not None]
    return 1 if ctx.identity == max(seen) else 2


def _election_algorithm(n: int) -> Algorithm:
    return _election_candidate


def _election_system(n: int) -> Callable[[], tuple[dict, dict]]:
    def factory() -> tuple[dict, dict]:
        return {"BALLOT": None}, {}

    return factory


def _renaming_task(n: int):
    from ..core.named import renaming

    return renaming(n, n + 1)


def _renaming_algorithm(n: int) -> Algorithm:
    from ..algorithms.figure2 import figure2_renaming

    return figure2_renaming()


def _renaming_system(n: int) -> Callable[[], tuple[dict, dict]]:
    from ..algorithms.figure2 import KS_OBJECT, STATE_ARRAY
    from ..core.named import k_slot
    from .oracles import GSBOracle, LexMinStrategy

    def factory() -> tuple[dict, dict]:
        oracle = GSBOracle(k_slot(n, n - 1), strategy=LexMinStrategy())
        return {STATE_ARRAY: None}, {KS_OBJECT: oracle}

    return factory


def _wsb_grh_task(n: int):
    from ..core.named import renaming

    return renaming(n, 2 * n - 2)


def _wsb_grh_algorithm(n: int) -> Algorithm:
    from ..algorithms.wsb import renaming_2n2_from_wsb

    return renaming_2n2_from_wsb()


def _wsb_grh_system(n: int) -> Callable[[], tuple[dict, dict]]:
    from ..algorithms.wsb import DOWN_ARRAY, UP_ARRAY, WSB_OBJECT
    from ..core.named import weak_symmetry_breaking
    from .oracles import GSBOracle, LexMinStrategy

    def factory() -> tuple[dict, dict]:
        oracle = GSBOracle(
            weak_symmetry_breaking(n), strategy=LexMinStrategy()
        )
        return {UP_ARRAY: None, DOWN_ARRAY: None}, {WSB_OBJECT: oracle}

    return factory


def _write(array: str, value):
    from .ops import Write

    return Write(array, value)


def _snapshot(array: str):
    from .ops import Snapshot

    return Snapshot(array)


class SlotValueRelabeler:
    """Value relabeler for Figure 2's renaming: KS slots are nominal.

    ``figure2_renaming`` only ever *writes* its acquired slot and compares
    slot fields for equality (via cell occupancy) — no arithmetic, no
    ordering — so any permutation of the slot values maps runs to runs.
    Cells are ``(slot, identity)`` pairs (identities stay pinned), Invoke
    results are slots, Snapshot results are cell tuples, and decided
    outputs in ``1..n-1`` are slots while the fallback names ``n``/``n+1``
    are fixed points of every permutation the canonicalizer builds (it
    only permutes values the oracle handed out).

    Contrast ``wsb``/``wsb-grh``: their adaptive renaming *computes* with
    acquired names (``_nth_free_name`` rank arithmetic over the snapshot),
    so a name permutation does not commute with the algorithm — e.g. with
    names {1,3} taken, swapping 1 and 3 changes which name is "first
    free".  Those specs declare no relabeler: their values stay pinned.
    """

    def __init__(self, oracle: str):
        self.oracle = oracle

    def cell_values(self, cell) -> tuple:
        """Oracle values stored in one (frozen) cell."""
        return () if cell is None else (cell[0],)

    def map_cell(self, cell, mapping):
        if cell is None:
            return None
        slot, identity = cell
        return (mapping.get(slot, slot), identity)

    def result_values(self, op, result) -> tuple:
        """Oracle values a process *retains* from one operation result."""
        from .ops import Invoke, Snapshot

        if isinstance(op, Invoke):
            return (result,)
        if isinstance(op, Snapshot):
            return tuple(
                cell[0] for cell in result if cell is not None
            )
        return ()

    def map_result(self, op, result, mapping):
        """The operation result as it would read under the relabeling.

        Must return a value usable as a step-table edge key (same
        freezing as the original result).
        """
        from .ops import Invoke, Snapshot

        if isinstance(op, Invoke):
            return mapping.get(result, result)
        if isinstance(op, Snapshot):
            return tuple(self.map_cell(cell, mapping) for cell in result)
        return result

    def map_output(self, value, mapping):
        return mapping.get(value, value)


register_spec(
    ExplorationSpec(
        name="wsb",
        description="WSB from a (2n-2)-renaming oracle (decide name parity)",
        task_factory=_wsb_task,
        algorithm_factory=_wsb_algorithm,
        system_factory=_wsb_system,
    )
)
register_spec(
    ExplorationSpec(
        name="election",
        description="candidate election protocol refuted by model checking",
        task_factory=_election_task,
        algorithm_factory=_election_algorithm,
        system_factory=_election_system,
    )
)
register_spec(
    ExplorationSpec(
        name="wsb-grh",
        description=(
            "GRH direction: (2n-2)-renaming from a WSB oracle via two-sided "
            "adaptive snapshot renaming (register-contention-heavy)"
        ),
        task_factory=_wsb_grh_task,
        algorithm_factory=_wsb_grh_algorithm,
        system_factory=_wsb_grh_system,
    )
)
register_spec(
    ExplorationSpec(
        name="renaming",
        description="Figure 2: (n+1)-renaming from an (n-1)-slot oracle",
        task_factory=_renaming_task,
        algorithm_factory=_renaming_algorithm,
        system_factory=_renaming_system,
        value_relabel=SlotValueRelabeler(oracle="KS"),
    )
)


# ----------------------------------------------------------------------
# Batched exploration
# ----------------------------------------------------------------------

@dataclass
class BatchResult:
    """Outcome of exploring one (task, n) cell of a batch."""

    name: str
    n: int
    runs: int  #: completed runs (logical, i.e. post-memoization multiset size)
    distinct: int  #: distinct decided output vectors
    violations: int  #: runs whose decided vector is illegal for the task
    seconds: float
    stats: EngineStats

    def __str__(self) -> str:
        status = "OK" if self.violations == 0 else f"{self.violations} ILLEGAL"
        return (
            f"{self.name:<10} n={self.n}  runs={self.runs:<8} "
            f"distinct={self.distinct:<5} memo_hits={self.stats.memo_hits:<7} "
            f"forks={self.stats.forks:<7} {self.seconds*1000:8.1f} ms  {status}"
        )

    def to_json(self) -> dict:
        """JSON payload row for the CLI's uniform ``--json`` contract."""
        return {
            "name": self.name,
            "n": self.n,
            "runs": self.runs,
            "distinct": self.distinct,
            "violations": self.violations,
            "seconds": self.seconds,
            "stats": self.stats.to_json(),
        }


def make_spec_runtime(spec: ExplorationSpec, n: int) -> Callable[[], Runtime]:
    """Reference generator-runtime factory for one spec (identities
    ``1..n``): what the differential tests compare the compiled core with."""
    from .schedulers import RoundRobinScheduler

    algorithm = spec.algorithm_factory(n)
    system_factory = spec.system_factory(n)

    def make_runtime() -> Runtime:
        arrays, objects = system_factory()
        return Runtime(
            algorithm,
            list(range(1, n + 1)),
            RoundRobinScheduler(),  # unused by the engine
            arrays=arrays,
            objects=objects,
        )

    return make_runtime


def make_spec_machine(
    spec: ExplorationSpec,
    n: int,
    record_trace: bool = False,
    frame_nodes: bool = False,
) -> Callable[[], Any]:
    """Compiled-core machine factory for one spec (identities ``1..n``).

    The step table (:class:`repro.shm.compiled.CompiledProtocol`) is
    compiled once per factory and shared by every machine (and fork) it
    produces — the point of the compiled core: the per-exploration cost of
    understanding the algorithm is paid once, after which forks are array
    copies and orbit keys are flat tuples.  The shared program is
    exposed as ``factory.program``, and ``factory.canonicalizers``
    caches one :class:`repro.shm.compiled.ValueCanonicalizer` per
    relabeler for the engine.  ``frame_nodes`` turns on local-state node
    merging in the step table (the quotient's history → local-state
    collapse).
    """
    from .compiled import CompiledProtocol

    algorithm = spec.algorithm_factory(n)
    system_factory = spec.system_factory(n)
    probe_arrays, probe_objects = system_factory()
    program = CompiledProtocol(
        algorithm,
        range(1, n + 1),
        arrays=probe_arrays,
        objects=probe_objects,
        frame_nodes=frame_nodes,
    )

    def make_machine():
        arrays, objects = system_factory()
        return program.machine(
            arrays=arrays, objects=objects, record_trace=record_trace
        )

    make_machine.program = program
    make_machine.canonicalizers = {}
    return make_machine


def explore_one(
    spec: ExplorationSpec | str,
    n: int,
    max_runs: int | None = None,
    max_depth: int = 10_000,
) -> BatchResult:
    """Explore one spec at one size and validate its decided vectors.

    Runs the orbit quotient on the compiled core: a frame-merged step
    table (:func:`make_spec_machine`) and the spec's value relabeler.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    if n < spec.min_n:
        raise ValueError(f"{spec.name} needs n >= {spec.min_n}, got {n}")
    task = spec.task_factory(n)

    stats = EngineStats()
    started = time.perf_counter()
    engine = PrefixSharingEngine(
        make_spec_machine(spec, n, frame_nodes=True),
        max_runs=max_runs,
        max_depth=max_depth,
        stats=stats,
        relabeler=spec.value_relabel,
    )
    decisions = engine.decided_vectors()
    seconds = time.perf_counter() - started
    identities = list(range(1, n + 1))
    violations = sum(
        count
        for outputs, count in decisions.items()
        if not task.is_legal_output(list(outputs), identities)
    )
    return BatchResult(
        name=spec.name,
        n=n,
        runs=sum(decisions.values()),
        distinct=len(decisions),
        violations=violations,
        seconds=seconds,
        stats=stats,
    )


def explore_many(
    tasks: Sequence[ExplorationSpec | str],
    n_range: Sequence[int],
    max_runs: int | None = None,
    max_depth: int = 10_000,
) -> list[BatchResult]:
    """Explore a battery of tasks across system sizes, one at a time.

    Args:
        tasks: registry names or :class:`ExplorationSpec` objects.  Every
            name is resolved before the first exploration runs, so an
            unknown name fails before any work starts.
        n_range: system sizes; each (task, n) pair is one job.  Sizes below
            a spec's ``min_n`` are skipped.
        max_runs / max_depth: passed through to :func:`explore_one`.
    """
    specs = [get_spec(spec) if isinstance(spec, str) else spec for spec in tasks]
    return [
        explore_one(spec, n, max_runs=max_runs, max_depth=max_depth)
        for spec in specs
        for n in n_range
        if n >= spec.min_n
    ]
