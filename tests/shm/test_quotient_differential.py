"""Differential + property suite for the value-symmetry orbit quotient.

The quotient (:meth:`PrefixSharingEngine.decided_vectors` on a compiled
machine) memoizes over orbit keys — decided outputs factored out, oracle
arrival order collapsed to the acquired mask, and (for specs declaring
interchangeable oracle values) written-but-undecided values canonically
relabeled.  All of that is aggressive; the generator runtime is the
reference semantics, so this suite pins:

* **multiset identity** — for every registry spec at n <= 3, the
  quotiented decided-vector Counter is byte-identical to the generator
  reference, memoized and run by run (serial and subset-profile paths),
  and so is it for a protocol whose pending write reads a local that is
  dead once the write is issued (frame nodes must not merge across it);
* **transition fidelity** — the one step semantics of the compiled core,
  :meth:`MachineState.transition`, matches a lockstep step of the
  generator reference (decided value, result, cells, acquired masks,
  live pids) at every reachable state, and a machine's
  :meth:`MachineState.probe_step` predicts its own step;
* **canonical idempotence** — :class:`ValueCanonicalizer` output is a
  fixpoint: the free values of a canonical key already appear in
  ascending first-occurrence order, so a second pass is the identity.
  Every memo key is canonical, which is what lets the quotient look a
  raw successor key up before canonicalizing it;
* **error parity** — the quotient raises what :meth:`MachineState.step`
  raises, and the compiled core refuses a shared object other than a GSB
  oracle when it is built (the generator reference still counts it);
* **stats plumbing** — orbit counters surface in
  :class:`~repro.shm.engine.EngineStats`.
"""

import itertools
from collections import Counter

import pytest

from repro.core.named import k_slot
from repro.shm import (
    CompiledProtocol,
    ExplorationBudgetExceeded,
    GSBOracle,
    Invoke,
    Nop,
    OracleUsageError,
    PrefixSharingEngine,
    ProtocolError,
    Read,
    RegisterPermissionError,
    RoundRobinScheduler,
    Runtime,
    Snapshot,
    Write,
    WriteCell,
    available_specs,
    get_spec,
    make_spec_machine,
    make_spec_runtime,
)
from repro.shm.compiled import MachineState, ValueCanonicalizer
from repro.shm.engine import EngineStats, explore_decided_subsets
from repro.shm.runtime import freeze_value

ALL_SPECS = sorted(available_specs())
CASES = [
    (name, n)
    for name in ALL_SPECS
    for n in (2, 3)
    if n >= get_spec(name).min_n
]


def reference_vectors(name, n, participants=None):
    return PrefixSharingEngine(
        make_spec_runtime(get_spec(name), n), participants=participants
    ).decided_vectors()


def quotient_engine(name, n, participants=None, stats=None, **kwargs):
    spec = get_spec(name)
    return PrefixSharingEngine(
        make_spec_machine(spec, n, frame_nodes=True),
        participants=participants,
        stats=stats,
        relabeler=spec.value_relabel,
        **kwargs,
    )


class TestQuotientMultisetIdentity:
    @pytest.mark.parametrize("name,n", CASES)
    def test_serial_quotient_matches_generator_reference(self, name, n):
        stats = EngineStats()
        quotiented = quotient_engine(name, n, stats=stats).decided_vectors()
        assert quotiented == reference_vectors(name, n)
        assert stats.orbits > 0
        if n >= 3:
            # Exhaustive exploration of >= 3 processes always revisits
            # some orbit (commuting first steps at minimum); n=2 trees
            # can be too shallow to re-converge.
            assert stats.orbit_hits + stats.lex_pruned > 0

    @pytest.mark.parametrize("name,n", CASES)
    def test_quotient_matches_every_reference_run(self, name, n):
        # Unmemoized: one count per run the generator reference walks.
        runs = Counter(
            tuple(freeze_value(v) for v in result.outputs)
            for result in PrefixSharingEngine(
                make_spec_runtime(get_spec(name), n)
            ).runs()
        )
        assert quotient_engine(name, n).decided_vectors() == runs

    @pytest.mark.parametrize("name,n", CASES)
    def test_quotient_matches_exact_engine_mode(self, name, n):
        # The exact mode of the production step table itself: every run
        # its unmemoized walk produces, counted against the quotient over
        # the same (then fully traced) table.
        spec = get_spec(name)
        factory = make_spec_machine(spec, n, frame_nodes=True)
        exact = Counter(
            tuple(freeze_value(v) for v in result.outputs)
            for result in PrefixSharingEngine(factory).runs()
        )
        quotient = PrefixSharingEngine(
            factory, relabeler=spec.value_relabel
        ).decided_vectors()
        assert quotient == exact

    @pytest.mark.parametrize("frame_nodes", [True, False])
    def test_pending_op_reading_a_dead_local(self, frame_nodes):
        # ``forgetful``'s acquired value is dead at its write's yield, so
        # states that acquired different values share a frame signature
        # while their pending writes differ.
        reference = PrefixSharingEngine(
            runtime_factory(forgetful, slot_system_3, n=3)
        ).decided_vectors()
        quotient = PrefixSharingEngine(
            compiled_factory(forgetful, frame_nodes, slot_system_3, n=3)
        ).decided_vectors()
        assert quotient == reference
        assert sum(reference.values()) == 1_680

    @pytest.mark.parametrize("name,n", CASES)
    def test_proper_subset_participants(self, name, n):
        participants = tuple(range(n - 1)) or (0,)
        quotiented = quotient_engine(
            name, n, participants=participants
        ).decided_vectors()
        assert quotiented == reference_vectors(name, n, participants)


class TestSubsetTotals:
    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_all_subsets_match_reference(self, name):
        spec = get_spec(name)
        n = max(3, spec.min_n)
        quotiented = explore_decided_subsets(
            make_spec_machine(spec, n, frame_nodes=True),
            assume_symmetric=False,
            value_relabel=spec.value_relabel,
        )
        reference = explore_decided_subsets(
            make_spec_runtime(spec, n), assume_symmetric=False
        )
        subsets = [
            subset
            for size in range(1, n + 1)
            for subset in itertools.combinations(range(n), size)
        ]
        assert len(quotiented.by_subset) == len(subsets) == 2**n - 1
        for subset in subsets:
            assert quotiented.by_subset[subset] == reference.by_subset[subset]

    def test_subset_totals_sum_to_full_sweep(self):
        spec = get_spec("wsb-grh")
        profile = explore_decided_subsets(
            make_spec_machine(spec, 3, frame_nodes=True),
            assume_symmetric=False,
        )
        total_runs = sum(
            sum(counter.values()) for counter in profile.by_subset.values()
        )
        reference_runs = sum(
            sum(counter.values())
            for counter in explore_decided_subsets(
                make_spec_runtime(spec, 3), assume_symmetric=False
            ).by_subset.values()
        )
        assert total_runs == reference_runs


def walk_states(make_machine, limit=400):
    """Bounded lexicographic DFS yielding live machine states."""
    stack = [make_machine()]
    seen = 0
    while stack and seen < limit:
        machine = stack.pop()
        yield machine
        seen += 1
        for pid in reversed(machine.enabled_pids()):
            child = machine.fork()
            child.step(pid)
            stack.append(child)


def walk_pairs(name, n, limit):
    """Bounded lexicographic DFS yielding live ``(machine, reference)``
    pairs: a compiled machine and the generator reference, stepped in
    lockstep from the start state of one registry spec."""
    spec = get_spec(name)
    stack = [
        (
            make_spec_machine(spec, n, frame_nodes=True)(),
            make_spec_runtime(spec, n)(),
        )
    ]
    seen = 0
    while stack and seen < limit:
        machine, reference = stack.pop()
        yield machine, reference
        seen += 1
        for pid in reversed(machine.enabled_pids()):
            child, twin = machine.fork(), reference.fork()
            child.step(pid)
            twin.step(pid)
            stack.append((child, twin))


def reference_cells(runtime, layout):
    """The reference's shared memory as one flat tuple of frozen cells,
    in the compiled layout's array order."""
    return tuple(
        freeze_value(value)
        for name in layout.names
        for value in runtime.memory.array(name).snapshot()
    )


def reference_masks(runtime):
    """Each reference oracle's acquired pids as a bitmask."""
    return tuple(
        sum(1 << pid for pid in oracle.assigned)
        for oracle in runtime.objects.values()
    )


class TestTransitionFidelity:
    @pytest.mark.parametrize("frame_nodes", [True, False])
    @pytest.mark.parametrize("name,n", CASES)
    def test_successor_matches_a_reference_step(self, name, n, frame_nodes):
        # Every reachable state, deduplicated by the reference's exact
        # state key, as a pair (orbit key, reference in that state).
        spec = get_spec(name)
        root = make_spec_machine(spec, n, frame_nodes=frame_nodes)()
        successor = root.transition()
        program = root.program
        start = make_spec_runtime(spec, n)()
        seen = {start.state_key()}
        stack = [(root.orbit_key(), start)]
        checked = 0
        while stack:
            key, reference = stack.pop()
            live = reference.enabled_pids()
            assert [pid for pid in range(n) if key[pid] >= 0] == live
            assert key[n] == reference_cells(reference, program.layout)
            assert key[n + 1] == reference_masks(reference)
            for pid in live:
                assert program.ops[key[pid]] == reference._pending_op[pid]
                child_key, decided, result = successor(key, pid)
                child = reference.fork()
                child.step(pid)
                assert result == freeze_value(child.trace[-1].result)
                output = child.outputs[pid]
                assert decided == (
                    None if output is None else freeze_value(output)
                ), (name, n, pid)
                state = child.state_key()
                if state not in seen:
                    seen.add(state)
                    stack.append((child_key, child))
                checked += 1
        assert checked > 0


class TestProbeFidelity:
    @pytest.mark.parametrize("name,n", CASES)
    def test_probe_key_matches_real_step(self, name, n):
        make_machine = make_spec_machine(get_spec(name), n, frame_nodes=True)
        checked = 0
        for machine in walk_states(make_machine):
            for pid in machine.enabled_pids():
                probed = machine.probe_step(pid)
                child = machine.fork()
                child.step(pid)
                key, decided, _ = probed
                assert key == child.orbit_key(), (name, n, pid)
                if decided is None:
                    assert child.orbit_key()[pid] >= 0
                else:
                    assert child.outputs[pid] == decided
                checked += 1
        assert checked > 0

    def test_probe_step_has_no_successor_for_a_decided_pid(self):
        machine = make_spec_machine(get_spec("wsb"), 2)()
        machine.step(0)  # wsb decides in one step
        assert machine.probe_step(0) is None


def canonical(canon, machine):
    """``canon.canonical`` of one machine's raw orbit key."""
    return canon.canonical(
        machine.orbit_key(), machine._oracle_values[canon._oracle]
    )


class TestCanonicalIdempotence:
    def canonicalizer(self, name, n):
        spec = get_spec(name)
        make_machine = make_spec_machine(spec, n, frame_nodes=True)
        program = make_machine.program
        return (
            make_machine,
            ValueCanonicalizer(program, spec.value_relabel),
        )

    def canonical_free_order(self, canon, machine, key):
        """First-occurrence order of free values over a canonical key."""
        relabel = canon.relabel
        index = canon._oracle
        values = machine._oracle_values[index]
        pcs, cells, acquired = key[: machine.n], key[machine.n], key[-1]
        pending = set(values[acquired[index].bit_count() :])
        seen, order = set(), []
        for cell in cells:
            for value in relabel.cell_values(cell):
                if value not in seen:
                    seen.add(value)
                    order.append(value)
        for node in pcs:
            if node < 0:
                continue
            for value in canon._values_at(node):
                if value not in seen:
                    seen.add(value)
                    order.append(value)
        return [value for value in order if value not in pending]

    @pytest.mark.parametrize("name", ["renaming"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_canonical_keys_are_fixpoints(self, name, n):
        make_machine, canon = self.canonicalizer(name, n)
        relabeled = 0
        # Lexicographic DFS hands oracle values out in order along its
        # first branches; out-of-order acquisitions (the states that
        # need relabeling) only appear a few thousand states in.
        for machine in walk_states(make_machine, limit=6000):
            key, inverse = canonical(canon, machine)
            if key is None:
                continue
            free = self.canonical_free_order(canon, machine, key)
            assert free == sorted(free), (n, key)
            if inverse:
                relabeled += 1
                # Inverse maps canonical values back onto this state's —
                # a bijection over the same free-value set.
                assert sorted(inverse) == sorted(inverse.values())
        if n >= 3:
            # n=2's committed vector hands values out in slot-sorted
            # order along every schedule the bounded walk reaches.
            assert relabeled > 0, "walk exercised no non-trivial relabeling"

    def test_canonical_deterministic_across_calls(self):
        make_machine, canon = self.canonicalizer("renaming", 3)
        for machine in walk_states(make_machine, limit=60):
            first = canonical(canon, machine)
            second = canonical(canon, machine)
            assert first == second

    def test_relabeled_states_share_canonical_key(self):
        # States reached by acquiring oracle values in different pid
        # orders differ only by a value permutation; canonicalization
        # must collapse them even though their raw orbit keys differ.
        # n=4 is the smallest size whose committed vector has enough
        # distinct values for permuted twins to both be reachable.
        make_machine, canon = self.canonicalizer("renaming", 4)
        by_canonical: dict = {}
        collapsed = 0
        for machine in walk_states(make_machine, limit=2000):
            key, _ = canonical(canon, machine)
            if key is None:
                continue
            raw = machine.orbit_key()
            known = by_canonical.setdefault(key, raw)
            if known != raw:
                collapsed += 1
        assert collapsed > 0, "no two raw orbits shared a canonical key"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_memo_keys_are_canonical(self, n, monkeypatch):
        # The quotient looks a raw successor key up before canonicalizing
        # it, which is sound only if every key the memo holds is its own
        # canonical key under the identity.  Every frame's key reaches
        # the transition and becomes a memo entry when the frame closes,
        # so the keys the transition sees are the memo's keys.
        frame_keys = set()
        transition = MachineState.transition

        def recording(machine):
            successor = transition(machine)

            def record(key, pid):
                frame_keys.add(key)
                return successor(key, pid)

            return record

        monkeypatch.setattr(MachineState, "transition", recording)
        spec = get_spec("renaming")
        make_machine = make_spec_machine(spec, n, frame_nodes=True)
        stats = EngineStats()
        PrefixSharingEngine(
            make_machine, stats=stats, relabeler=spec.value_relabel
        ).decided_vectors()
        assert len(frame_keys) == stats.orbits

        # A fresh canonicalizer over the same step table: no cached image
        # of the exploration's own canonicalizer stands in for the check.
        canon = ValueCanonicalizer(make_machine.program, spec.value_relabel)
        values = make_machine()._oracle_values[canon._oracle]
        for key in frame_keys:
            assert canon.canonical(key, values) == (key, None)


def exact_key(machine, reference):
    """The exact global state of a lockstep pair (see :func:`walk_pairs`):
    the machine's program counters and cells, its decided outputs, and
    each oracle's arrival order, read from the reference's oracles."""
    key = machine.orbit_key()
    return (
        key[: machine.n],
        tuple(machine.outputs),
        key[machine.n],
        tuple(
            tuple(oracle.arrival_order)
            for oracle in reference.objects.values()
        ),
    )


class TestOrbitKeyCoarseness:
    @pytest.mark.parametrize("name,n", CASES)
    def test_orbit_key_factors_out_decided_outputs(self, name, n):
        # Exact state keys include outputs; orbit keys must not.
        for machine, reference in walk_pairs(name, n, limit=100):
            key = machine.orbit_key()
            # Flat key: n program counters, then cells and acquired masks.
            assert len(key) == n + 2
            assert tuple(machine.outputs) not in (key,)  # structural shape
            pcs, outputs, cells, _ = exact_key(machine, reference)
            assert (pcs, cells) == (key[:n], key[n])
            assert outputs == tuple(
                None if value is None else freeze_value(value)
                for value in reference.outputs
            )

    def test_arrival_order_collapses(self):
        # Two states whose exact keys differ only in the order processes
        # reached the oracle share an orbit key: the acquired mask stands
        # in for the arrival list (renaming: pure GSB oracle).
        first: dict = {}
        merged = 0
        for machine, reference in walk_pairs("renaming", 2, limit=2000):
            state = exact_key(machine, reference)
            pcs, outputs, cells, arrivals = state
            unordered = (pcs, outputs, cells, tuple(map(frozenset, arrivals)))
            known, known_key = first.setdefault(
                unordered, (state, machine.orbit_key())
            )
            if known != state:
                merged += 1
                assert machine.orbit_key() == known_key
        assert merged > 0, "walk met no states differing in arrival order"


def greedy(ctx):
    first = yield Invoke("KS", GSBOracle.ACQUIRE)
    second = yield Invoke("KS", GSBOracle.ACQUIRE)
    return first + second


def peeker(ctx):
    value = yield Invoke("KS", "peek")
    return value


def lost(ctx):
    yield Write("NOPE", 1)
    return 1


def off_by_one(ctx):
    value = yield Read("A", 9)
    return value


def trespasser(ctx):
    yield WriteCell("A", 1 - ctx.pid, ctx.identity)
    return 1


def spinner(ctx):
    while True:
        yield Nop()


def forgetful(ctx):
    value = yield Invoke("KS", GSBOracle.ACQUIRE)
    yield Write("A", value)  # ``value`` is dead from here on
    view = yield Snapshot("A")
    return view


def slot_system():
    return {"A": None}, {"KS": GSBOracle(k_slot(2, 1), seed=0)}


def slot_system_3():
    return {"A": None}, {"KS": GSBOracle(k_slot(3, 2), seed=0)}


def runtime_factory(algorithm, system, n):
    """Generator reference factory over ``system()`` (identities 1..n)."""

    def make_runtime():
        arrays, objects = system()
        return Runtime(
            algorithm, list(range(1, n + 1)), RoundRobinScheduler(),
            arrays=arrays, objects=objects,
        )

    return make_runtime


def compiled_factory(algorithm, frame_nodes, system=slot_system, n=2):
    arrays, objects = system()
    program = CompiledProtocol(
        algorithm, range(1, n + 1), arrays=arrays, objects=objects,
        frame_nodes=frame_nodes,
    )

    def make_machine():
        arrays, objects = system()
        return program.machine(arrays=arrays, objects=objects)

    return make_machine


class TestErrorParity:
    """The quotient forks and steps no machine, so its transition must
    raise what :meth:`MachineState.step` raises, message and all."""

    @pytest.mark.parametrize("frame_nodes", [True, False])
    @pytest.mark.parametrize(
        "algorithm,error,message",
        [
            (greedy, OracleUsageError, "acquired twice"),
            (peeker, OracleUsageError, "supports only 'acquire'"),
            (lost, KeyError, "no shared array named 'NOPE'"),
            (off_by_one, IndexError, "cells 0..1"),
            (trespasser, RegisterPermissionError, "single-writer"),
        ],
    )
    def test_quotient_raises_what_step_raises(
        self, algorithm, error, message, frame_nodes
    ):
        make_machine = compiled_factory(algorithm, frame_nodes)
        # The DFS steps pid 0 first, and keeps stepping it until it fails.
        machine = make_machine()
        with pytest.raises(error, match=message) as stepped:
            while True:
                machine.step(0)
        with pytest.raises(error) as explored:
            PrefixSharingEngine(make_machine).decided_vectors()
        assert str(explored.value) == str(stepped.value)

    @pytest.mark.parametrize("frame_nodes", [True, False])
    def test_depth_guard(self, frame_nodes):
        # With frame nodes the spinner's state repeats: its key is open on
        # the stack, not yet in the memo, so only the depth guard stops it.
        make_machine = compiled_factory(spinner, frame_nodes)
        engine = PrefixSharingEngine(make_machine, max_depth=20)
        with pytest.raises(ExplorationBudgetExceeded, match="non-terminating"):
            engine.decided_vectors()
        # Frames hold the states 0..20 steps deep; step 21 raises.
        assert engine.stats.peak_stack == 21


class Ticket:
    """A generic shared object: a fetch-and-increment counter."""

    def __init__(self, issued=0):
        self.issued = issued

    def invoke(self, pid, method, args):
        self.issued += 1
        return self.issued

    def clone(self):
        return Ticket(self.issued)

    def state_key(self):
        return self.issued


def ticket_holder(ctx):
    ticket = yield Invoke("T", "take")
    yield Write("A", ticket)
    view = yield Snapshot("A")
    return 1 + sum(v is not None and v < ticket for v in view)


def ticket_system():
    return {"A": None}, {"T": Ticket()}


class TestGenericObjects:
    """A shared object other than a GSB oracle has no state in an orbit
    key: the compiled core refuses it, and the generator runtime, whose
    state key includes the object's, explores it."""

    @pytest.mark.parametrize("frame_nodes", [True, False])
    def test_compiled_core_refuses_it_when_built(self, frame_nodes):
        with pytest.raises(ProtocolError, match="shared object 'T' is a Ticket"):
            compiled_factory(ticket_holder, frame_nodes, ticket_system, n=3)

    @pytest.mark.parametrize(
        "participants,runs", [(None, 1_680), ((0, 2), 20)]
    )
    def test_reference_counts_it(self, participants, runs):
        # Each process takes three steps, so every interleaving is one
        # run: 9!/(3!)^3 with all three, 6!/(3!)^2 with two.
        make_runtime = runtime_factory(ticket_holder, ticket_system, n=3)
        memoized = PrefixSharingEngine(
            make_runtime, participants=participants
        ).decided_vectors()
        every_run = Counter(
            tuple(freeze_value(v) for v in result.outputs)
            for result in PrefixSharingEngine(
                make_runtime, participants=participants
            ).runs()
        )
        assert memoized == every_run
        assert sum(memoized.values()) == runs
