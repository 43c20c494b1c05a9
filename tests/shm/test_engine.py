"""Tests for the prefix-sharing exploration engine.

The load-bearing property is *equivalence*: for every named workload the
engine must produce exactly the multiset of decided output vectors the
legacy re-execution explorer produces, run by run even in the same
order.  On top of that: budget semantics, memoization actually pruning,
symmetry canonicalization of participant subsets, runtime forking, the
schedule tree's shape, stats accumulation, step-table reuse, the batch
API, and the production path against the generator reference.
"""

import dataclasses
import itertools
import warnings
from collections import Counter

import pytest

from repro.shm import (
    EngineStats,
    ExplorationBudgetExceeded,
    ExplorationSpec,
    Nop,
    PrefixSharingEngine,
    RoundRobinScheduler,
    Runtime,
    Snapshot,
    Write,
    available_specs,
    canonical_participant_classes,
    count_interleavings,
    explore_decided_subsets,
    explore_interleavings,
    explore_many,
    explore_one,
    get_spec,
    make_spec_machine,
    order_isomorphism_class,
)
from repro.shm.engine import make_spec_runtime
from repro.shm.explore import _legacy_explore_interleavings
from repro.shm.runtime import freeze_value

NAMED_SPECS = ("wsb", "election", "renaming", "wsb-grh")


def write_then_snapshot(ctx):
    yield Write("A", ctx.identity)
    view = yield Snapshot("A")
    return tuple(view)


def make_runtime_factory(n, algorithm=write_then_snapshot):
    def factory():
        return Runtime(
            algorithm,
            list(range(1, n + 1)),
            RoundRobinScheduler(),
            arrays={"A": None},
        )

    return factory


class TestRuntimeFork:
    def test_fork_is_independent(self):
        runtime = make_runtime_factory(3)()
        runtime.step(0)
        fork = runtime.fork()
        assert fork.state_key() == runtime.state_key()
        fork.step(1)
        runtime.step(0)
        assert fork.state_key() != runtime.state_key()
        # The original decided from a solo view; the fork saw both writes.
        assert runtime.outputs[0] == (1, None, None)
        assert fork.outputs[0] is None

    def test_fork_preserves_oracle_commitment(self):
        factory = make_spec_runtime(get_spec("renaming"), 3)
        runtime = factory()
        runtime.step(0)
        fork = runtime.fork()
        for pid in (1, 2):
            runtime.step(pid)
            fork.step(pid)
        assert runtime.state_key() == fork.state_key()

    def test_fork_rejects_nondeterminism(self):
        import random

        rng = random.Random(0)

        def flaky(ctx):
            if rng.random() < 0.5:
                yield Nop()
            yield Write("A", ctx.identity)
            return 1

        from repro.shm import ProtocolError

        # Keep forking until the replay diverges from the original run.
        with pytest.raises(ProtocolError, match="not deterministic"):
            for _ in range(64):
                runtime = make_runtime_factory(2, flaky)()
                runtime.step(0)
                runtime.fork()


# The legacy explorer needs ~11 s for wsb-grh at n=3 (that slowness is the
# engine's raison d'etre), so the direct legacy comparisons cap it at n=2;
# the ISSUE-named specs run the full n <= 3 equivalence.
EQUIVALENCE_CASES = [
    (name, n)
    for name in NAMED_SPECS
    for n in (2, 3)
    if not (name == "wsb-grh" and n == 3)
]


class TestEquivalenceWithLegacy:
    @pytest.mark.parametrize("name,n", EQUIVALENCE_CASES)
    def test_exact_mode_matches_legacy_order(self, name, n):
        factory = make_spec_runtime(get_spec(name), n)
        legacy = [
            tuple(result.outputs)
            for result in _legacy_explore_interleavings(factory)
        ]
        engine = [
            tuple(result.outputs) for result in explore_interleavings(factory)
        ]
        assert engine == legacy  # same runs, same lexicographic order

    @pytest.mark.parametrize("name,n", EQUIVALENCE_CASES)
    def test_memoized_counts_match_legacy_multiset(self, name, n):
        factory = make_spec_runtime(get_spec(name), n)
        legacy = Counter(
            tuple(result.outputs)
            for result in _legacy_explore_interleavings(factory)
        )
        engine = PrefixSharingEngine(factory)
        assert engine.decided_vectors() == legacy

    def test_memoization_preserves_counts(self):
        # Two processes, two commuting no-ops each: states merge heavily,
        # but the multiset must still be the full multinomial count.
        def two_nops(ctx):
            yield Nop()
            yield Nop()
            return 1

        factory = make_runtime_factory(2, two_nops)
        engine = PrefixSharingEngine(factory)
        decisions = engine.decided_vectors()
        assert sum(decisions.values()) == count_interleavings([2, 2])
        assert engine.stats.memo_hits > 0
        assert engine.stats.runs < count_interleavings([2, 2])

    def test_schedules_and_traces_survive_forking(self):
        factory = make_runtime_factory(2)
        legacy = {
            tuple(result.schedule())
            for result in _legacy_explore_interleavings(factory)
        }
        engine = {
            tuple(result.schedule())
            for result in explore_interleavings(factory)
        }
        assert engine == legacy == set(map(tuple, legacy))
        assert len(legacy) == count_interleavings([2, 2])


class TestTreeShape:
    """The exact DFS's schedule tree, seen through its runs and counters.

    A node's last branch reuses the node's runtime and every other branch
    forks it, so a tree with R leaves costs R - 1 forks.
    """

    @pytest.mark.parametrize("name,n", EQUIVALENCE_CASES)
    def test_runs_fork_once_per_extra_branch(self, name, n):
        engine = PrefixSharingEngine(make_spec_machine(get_spec(name), n))
        runs = sum(1 for _ in engine.runs())
        assert engine.stats.runs == runs
        assert engine.stats.forks == runs - 1

    @pytest.mark.parametrize("name,n", EQUIVALENCE_CASES)
    def test_unmemoized_counting_walks_the_same_tree(self, name, n):
        # Counting decided vectors over ``runs()`` is the unmemoized DFS.
        # The generator reference and the compiled core walk one tree, and
        # the reference's memoized count adds up to that tree's runs.
        spec = get_spec(name)
        walkers = [
            PrefixSharingEngine(make_spec_runtime(spec, n)),
            PrefixSharingEngine(make_spec_machine(spec, n)),
        ]
        reference, compiled = (
            Counter(
                tuple(freeze_value(v) for v in result.outputs)
                for result in walker.runs()
            )
            for walker in walkers
        )
        assert compiled == reference
        shapes = [
            (walker.stats.runs, walker.stats.nodes, walker.stats.forks)
            for walker in walkers
        ]
        assert shapes[0] == shapes[1]
        counter = PrefixSharingEngine(make_spec_runtime(spec, n))
        assert counter.decided_vectors() == reference
        assert sum(reference.values()) == shapes[0][0]
        assert counter.stats.nodes <= shapes[0][1]

    def test_depth_two_prefixes_in_pid_order(self):
        # Every renaming process is enabled for its first two steps, so
        # the runs' two-step prefixes are all 9 pid pairs, met in
        # lexicographic order.
        factory = make_spec_machine(get_spec("renaming"), 3, record_trace=True)
        prefixes = []
        for result in PrefixSharingEngine(factory).runs():
            prefix = tuple(result.schedule()[:2])
            if not prefixes or prefixes[-1] != prefix:
                prefixes.append(prefix)
        assert prefixes == [(a, b) for a in range(3) for b in range(3)]

    def test_runs_end_above_a_deeper_frontier(self):
        # wsb at n=2 decides in one step per process: both runs are
        # complete after two steps.
        factory = make_spec_machine(get_spec("wsb"), 2, record_trace=True)
        schedules = [
            result.schedule() for result in PrefixSharingEngine(factory).runs()
        ]
        assert schedules == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("name", NAMED_SPECS)
    def test_solo_participant_is_one_path(self, name):
        engine = PrefixSharingEngine(
            make_spec_machine(get_spec(name), 3), participants=(0,)
        )
        (run,) = engine.runs()
        assert engine.stats.forks == 0
        assert run.outputs[0] is not None
        assert run.outputs[1:] == [None, None]


class TestBudgets:
    def test_max_runs_enforced(self):
        with pytest.raises(ExplorationBudgetExceeded):
            list(explore_interleavings(make_runtime_factory(3), max_runs=5))

    def test_max_runs_yields_exactly_budget_before_raising(self):
        produced = []
        with pytest.raises(ExplorationBudgetExceeded):
            for result in explore_interleavings(
                make_runtime_factory(2), max_runs=3
            ):
                produced.append(result)
        assert len(produced) == 3  # same semantics as the legacy explorer

    def test_depth_guard(self):
        def spinner(ctx):
            while True:
                yield Nop()

        with pytest.raises(ExplorationBudgetExceeded, match="non-terminating"):
            list(
                explore_interleavings(
                    make_runtime_factory(1, spinner), max_depth=20
                )
            )

    def test_decided_vectors_budgets(self):
        engine = PrefixSharingEngine(make_runtime_factory(3), max_runs=5)
        with pytest.raises(ExplorationBudgetExceeded):
            engine.decided_vectors()

    def test_engine_fits_budget_legacy_cannot(self):
        # The acceptance claim in miniature: with the same run budget the
        # engine's memoized count completes a workload whose interleaving
        # count blows past the budget when every run must be materialized.
        def three_nops(ctx):
            for _ in range(3):
                yield Nop()
            return 1

        factory = make_runtime_factory(3, three_nops)
        total = count_interleavings([3, 3, 3])  # 1680
        budget = 500
        with pytest.raises(ExplorationBudgetExceeded):
            list(
                _legacy_explore_interleavings(factory, max_runs=budget)
            )
        engine = PrefixSharingEngine(factory, max_runs=budget)
        decisions = engine.decided_vectors()
        assert sum(decisions.values()) == total  # completed under budget

    def test_quotient_budget_counts_materialized_leaves(self):
        unbudgeted = explore_one("renaming", 4)
        assert unbudgeted.stats.runs == 24
        budgeted = explore_one("renaming", 4, max_runs=24)
        assert budgeted.runs == unbudgeted.runs
        with pytest.raises(ExplorationBudgetExceeded):
            explore_one("renaming", 4, max_runs=23)

    @pytest.mark.parametrize("core,runs", [("compiled", 24), ("generator", 240)])
    def test_shared_stats_do_not_spend_the_budget(self, core, runs):
        # Each exploration gets the whole budget, however many runs the
        # stats accumulator it shares has already counted.
        shared = EngineStats()
        for _ in range(3):
            engine = spec_engine(
                core, "renaming", 4, max_runs=runs, stats=shared
            )
            engine.decided_vectors()
        assert shared.runs == 3 * runs > runs

    @pytest.mark.parametrize("path", ["runs", "reference", "explore_one"])
    @pytest.mark.parametrize("name", NAMED_SPECS)
    def test_budget_edge_is_the_materialized_run_count(self, name, path):
        # A budget of exactly the runs an exploration materializes lets it
        # complete; one less raises.  Each path materializes a different
        # number: every run on the reference walk (wsb-grh n=3 has 39,330,
        # so it walks n=2), the leaves its exact memo misses, or the
        # leaves the production quotient misses.
        n = 2 if (name, path) == ("wsb-grh", "runs") else 3

        def explore(max_runs=None):
            """(runs, distinct, materialized runs) of one exploration."""
            if path == "explore_one":
                result = explore_one(name, n, max_runs=max_runs)
                return result.runs, result.distinct, result.stats.runs
            engine = spec_engine("generator", name, n, max_runs=max_runs)
            if path == "reference":
                decisions = engine.decided_vectors()
            else:
                decisions = Counter(
                    tuple(freeze_value(v) for v in result.outputs)
                    for result in engine.runs()
                )
            return sum(decisions.values()), len(decisions), engine.stats.runs

        runs, distinct, budget = explore()
        assert budget <= runs
        assert explore(max_runs=budget)[:2] == (runs, distinct)
        with pytest.raises(ExplorationBudgetExceeded):
            explore(max_runs=budget - 1)


class TestSymmetryCanonicalization:
    def test_order_isomorphism_class(self):
        assert order_isomorphism_class((3, 9, 5)) == (0, 2, 1)
        assert order_isomorphism_class((1, 4, 2)) == (0, 2, 1)
        assert order_isomorphism_class((2,)) == (0,)

    def test_canonical_classes_cover_all_subsets(self):
        classes = canonical_participant_classes(4)
        assert [subset for subset, _ in classes] == [
            (0,),
            (0, 1),
            (0, 1, 2),
            (0, 1, 2, 3),
        ]
        assert sum(weight for _, weight in classes) == 2**4 - 1

    @pytest.mark.parametrize("name", NAMED_SPECS)
    def test_subset_profiles_match_full_enumeration(self, name):
        factory = make_spec_runtime(get_spec(name), 3)
        full = explore_decided_subsets(factory, assume_symmetric=False)
        pruned = explore_decided_subsets(factory, assume_symmetric=True)
        assert pruned.value_multisets() == full.value_multisets()
        assert pruned.total_runs == full.total_runs
        assert pruned.stats.subsets_pruned == (2**3 - 1) - 3

    def test_canonical_subsets_rejects_unsorted_identities(self):
        from repro.core.named import weak_symmetry_breaking
        from repro.shm import check_algorithm_exhaustive

        spec = get_spec("wsb")
        with pytest.raises(ValueError, match="ascending identity"):
            check_algorithm_exhaustive(
                weak_symmetry_breaking(3),
                spec.algorithm_factory(3),
                3,
                system_factory=spec.system_factory(3),
                identities=(3, 1, 2),
                canonical_subsets=True,
            )

    def test_exhaustive_check_canonical_subsets_agrees(self):
        from repro.algorithms import (
            figure2_renaming,
            figure2_system_factory,
            figure2_task,
        )
        from repro.shm import check_algorithm_exhaustive

        full = check_algorithm_exhaustive(
            figure2_task(3),
            figure2_renaming(),
            3,
            system_factory=figure2_system_factory(3, seed=0),
        )
        fast = check_algorithm_exhaustive(
            figure2_task(3),
            figure2_renaming(),
            3,
            system_factory=figure2_system_factory(3, seed=0),
            canonical_subsets=True,
        )
        assert full.ok and fast.ok
        assert fast.runs < full.runs


def spec_engine(core, name, n, **options):
    """An engine over one spec: the production compiled factory
    (frame-merged step table, the spec's relabeler) or the generator
    reference."""
    spec = get_spec(name)
    if core == "generator":
        return PrefixSharingEngine(make_spec_runtime(spec, n), **options)
    return PrefixSharingEngine(
        make_spec_machine(spec, n, frame_nodes=True),
        relabeler=spec.value_relabel,
        **options,
    )


def explore_stats(factory, spec, stats=None):
    """Decided vectors and stats of one exploration over ``factory``."""
    engine = PrefixSharingEngine(
        factory, stats=stats, relabeler=spec.value_relabel
    )
    return engine.decided_vectors(), engine.stats


class TestSharedStats:
    """A shared :class:`EngineStats` sums the explorations run into it; the
    stack high-water mark is their maximum."""

    @pytest.mark.parametrize("core", ["compiled", "generator"])
    @pytest.mark.parametrize("name", NAMED_SPECS)
    def test_shared_stats_sum_each_exploration(self, name, core):
        sizes = (3, 2)  # the deeper tree first, so its peak must survive

        def explore(n, stats=None):
            engine = spec_engine(core, name, n, stats=stats)
            engine.decided_vectors()
            return engine.stats

        alone = [explore(n) for n in sizes]
        shared = EngineStats()
        for n in sizes:
            explore(n, shared)
        for field in dataclasses.fields(EngineStats):
            combine = max if field.name == "peak_stack" else sum
            expected = combine(getattr(stats, field.name) for stats in alone)
            assert getattr(shared, field.name) == expected, field.name

    def test_json_payload_names_every_counter(self):
        result = explore_one("renaming", 3)
        payload = result.to_json()["stats"]
        assert payload == dataclasses.asdict(result.stats)
        assert payload["orbits"] > 0 and payload["lex_pruned"] > 0


class TestStepTableReuse:
    """A factory traces its step table on demand and keeps it: a later
    exploration on the same factory walks the table an earlier one built."""

    #: Counters a warm table leaves unchanged: the same orbits are visited.
    WALK = ("nodes", "runs", "memo_hits", "memo_entries", "orbits",
            "orbit_hits", "peak_stack")

    @pytest.mark.parametrize("frame_nodes", [True, False])
    @pytest.mark.parametrize("name", NAMED_SPECS)
    def test_second_exploration_walks_the_traced_table(self, name, frame_nodes):
        spec = get_spec(name)
        factory = make_spec_machine(spec, 3, frame_nodes=frame_nodes)
        first, cold = explore_stats(factory, spec)
        traced = len(factory.program.ops)
        second, warm = explore_stats(factory, spec)
        assert second == first
        assert len(factory.program.ops) == traced  # nothing left to trace
        # The probe traces an edge the cold table lacks, so even the
        # first exploration finds every orbit hit before a fork.
        assert cold.lex_pruned == cold.orbit_hits
        assert [getattr(warm, f) for f in self.WALK] == [
            getattr(cold, f) for f in self.WALK
        ]
        assert warm.lex_pruned == warm.orbit_hits
        assert warm.forks <= cold.forks

    @pytest.mark.parametrize("name", NAMED_SPECS)
    def test_independent_factories_build_the_same_table(self, name):
        # Node ids are handed out in exploration order, so two factories
        # exploring one spec number their tables alike: what lets the
        # engine's work counters be pinned.
        spec = get_spec(name)
        programs = []
        for _ in range(2):
            factory = make_spec_machine(spec, 3, frame_nodes=True)
            explore_stats(factory, spec)
            programs.append(factory.program)
        first, second = programs
        assert len(first.ops) > 0
        assert first.ops == second.ops
        assert first.parents == second.parents
        assert first.edges == second.edges
        assert first.decisions == second.decisions


class TestBatchAPI:
    def test_registry(self):
        assert set(NAMED_SPECS) <= set(available_specs())
        with pytest.raises(KeyError, match="unknown exploration task"):
            get_spec("nope")

    def test_explore_one_validates(self):
        good = explore_one("renaming", 3)
        assert good.violations == 0
        assert good.runs == 1680
        refuted = explore_one("election", 3)
        assert refuted.violations > 0  # Theorem 11: candidate is refuted

    def test_explore_many_serial(self):
        results = explore_many(["wsb", "renaming"], [2, 3])
        assert [(r.name, r.n) for r in results] == [
            ("wsb", 2),
            ("wsb", 3),
            ("renaming", 2),
            ("renaming", 3),
        ]
        assert all(result.violations == 0 for result in results)

    def test_explore_many_skips_too_small_n(self):
        results = explore_many(["wsb"], [1, 2])
        assert [(r.name, r.n) for r in results] == [("wsb", 2)]

    def test_genuinely_unregistered_name_raises(self):
        with pytest.raises(KeyError, match="unknown exploration task"):
            explore_many(["definitely-not-registered"], [2])

    def test_typo_fails_before_any_exploration(self, monkeypatch):
        import repro.shm.engine as engine_module

        explored = []
        monkeypatch.setattr(
            engine_module,
            "explore_one",
            lambda spec, n, **options: explored.append((spec.name, n)),
        )
        with pytest.raises(KeyError, match="unknown exploration task"):
            explore_many(["wsb", "wbs"], [2, 3])
        assert explored == []

    def test_unregistered_spec_object_explores(self):
        spec = get_spec("wsb")
        rogue = ExplorationSpec(
            name="rogue-wsb",
            description="registered nowhere",
            task_factory=spec.task_factory,
            algorithm_factory=spec.algorithm_factory,
            system_factory=spec.system_factory,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = explore_many([rogue], [2, 3])
        assert [(r.name, r.n, r.runs) for r in results] == [
            ("rogue-wsb", 2, 2),
            ("rogue-wsb", 3, 6),
        ]
        assert "rogue-wsb" not in available_specs()

    def test_explore_many_is_explore_one_per_cell(self):
        results = explore_many(["wsb", "election"], [2, 3])
        assert len(results) == 4
        for result in results:
            single = explore_one(result.name, result.n)
            assert result.stats == single.stats
            assert (result.runs, result.distinct, result.violations) == (
                single.runs, single.distinct, single.violations
            )


class TestGeneratorReference:
    """The production path against the generator reference it replaced:
    :func:`explore_one` and :func:`check_algorithm_exhaustive` run the
    compiled core, the reference runs :class:`Runtime`."""

    @pytest.mark.parametrize("name,n", [(s, n) for s in NAMED_SPECS for n in (2, 3)])
    def test_explore_one_matches_generator_reference(self, name, n):
        spec = get_spec(name)
        result = explore_one(name, n)
        reference = PrefixSharingEngine(
            make_spec_runtime(spec, n)
        ).decided_vectors()
        task = spec.task_factory(n)
        identities = list(range(1, n + 1))
        violations = sum(
            count
            for outputs, count in reference.items()
            if not task.is_legal_output(list(outputs), identities)
        )
        assert (result.runs, result.distinct, result.violations) == (
            sum(reference.values()), len(reference), violations
        )
        assert result.stats.orbits > 0  # the orbit quotient ran

    def test_exhaustive_check_matches_legacy_reference(self):
        from repro.shm import check_algorithm_exhaustive, validate_run

        spec = get_spec("renaming")
        task = spec.task_factory(3)
        report = check_algorithm_exhaustive(
            task,
            spec.algorithm_factory(3),
            3,
            system_factory=spec.system_factory(3),
        )
        factory = make_spec_runtime(spec, 3)
        runs = violations = 0
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(3), size):
                for result in _legacy_explore_interleavings(
                    factory, participants=subset
                ):
                    runs += 1
                    violations += len(validate_run(task, result))
        assert report.ok and violations == 0
        assert report.runs == runs
