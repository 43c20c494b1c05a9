"""Differential + property suite for the value-symmetry orbit quotient.

The quotient (:meth:`PrefixSharingEngine.decided_vectors` on a compiled
machine) memoizes over orbit keys — decided outputs factored out, oracle
arrival order collapsed to the acquired mask, and (for specs declaring
interchangeable oracle values) written-but-undecided values canonically
relabeled.  All of that is aggressive; the generator runtime is the
reference semantics, so this suite pins:

* **multiset identity** — for every registry spec at n <= 3, the
  quotiented decided-vector Counter is byte-identical to the generator
  reference, memoized and run by run (serial and subset-profile paths);
* **probe fidelity** — :meth:`MachineState.probe_step`'s predicted orbit
  key and decided value match a real fork + step at every reachable
  state of a bounded walk;
* **canonical idempotence** — :class:`ValueCanonicalizer` output is a
  fixpoint: the free values of a canonical key already appear in
  ascending first-occurrence order, so a second pass is the identity;
* **stats plumbing** — orbit counters surface in
  :class:`~repro.shm.engine.EngineStats`.
"""

import itertools
from collections import Counter

import pytest

from repro.shm import (
    PrefixSharingEngine,
    available_specs,
    get_spec,
    make_spec_machine,
    make_spec_runtime,
)
from repro.shm.compiled import ValueCanonicalizer
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


class TestProbeFidelity:
    @pytest.mark.parametrize("name,n", CASES)
    def test_probe_key_matches_real_step(self, name, n):
        make_machine = make_spec_machine(get_spec(name), n, frame_nodes=True)
        still = type(make_machine()).STILL_RUNNING
        # Warm-up walk: the checked walk below then probes a traced
        # table, as every exploration after the first does.
        for machine in walk_states(make_machine):
            pass
        checked = 0
        for machine in walk_states(make_machine):
            for pid in machine.enabled_pids():
                probed = machine.probe_step(pid)
                child = machine.fork()
                child.step(pid)
                if probed is None:
                    continue  # generic / deferred raise: real path required
                key, decided = probed
                assert key == child.orbit_key(), (name, n, pid)
                if decided is still:
                    assert child._pc[pid] >= 0
                else:
                    assert child.outputs[pid] == decided
                checked += 1
        assert checked > 0


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
        pending = set(values[len(machine._oracle_arrivals[index]) :])
        pcs, cells = key[: machine.n], key[machine.n]
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


def exact_key(machine):
    """The exact global state of a machine: program counters, decided
    outputs, cells and each oracle's arrival order (no generic objects in
    the registry specs)."""
    return (
        tuple(machine._pc),
        tuple(machine.outputs),
        machine._cells,
        tuple(map(tuple, machine._oracle_arrivals)),
    )


class TestOrbitKeyCoarseness:
    @pytest.mark.parametrize("name,n", CASES)
    def test_orbit_key_factors_out_decided_outputs(self, name, n):
        # Exact state keys include outputs; orbit keys must not.
        make_machine = make_spec_machine(get_spec(name), n, frame_nodes=True)
        for machine in walk_states(make_machine, limit=100):
            key = machine.orbit_key()
            if key is None:
                continue
            # Flat key: n program counters, then cells and acquired masks
            # (no generic objects in the registry specs).
            assert len(key) == n + 2
            pcs = key[:n]
            assert len(pcs) == n
            assert tuple(machine.outputs) not in (key,)  # structural shape
            assert exact_key(machine)[0] == pcs

    def test_arrival_order_collapses(self):
        # Two states whose exact keys differ only in the order processes
        # reached the oracle share an orbit key: the acquired mask stands
        # in for the arrival list (renaming: pure GSB oracle).
        make_machine = make_spec_machine(
            get_spec("renaming"), 2, frame_nodes=True
        )
        first: dict = {}
        merged = 0
        for machine in walk_states(make_machine, limit=2000):
            state = exact_key(machine)
            pcs, outputs, cells, arrivals = state
            unordered = (pcs, outputs, cells, tuple(map(frozenset, arrivals)))
            known, known_key = first.setdefault(
                unordered, (state, machine.orbit_key())
            )
            if known != state:
                merged += 1
                assert machine.orbit_key() == known_key
        assert merged > 0, "walk met no states differing in arrival order"
