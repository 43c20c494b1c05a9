"""Task-solving harness: validate protocols against task specifications.

Definition 1 requires (termination) every non-faulty process decides and
(validity) decided values always extend to a legal output vector.  The
harness checks both across scheduler batteries:

* :func:`validate_run` — one run against one task, including the
  "extendability at every decision point" check that covers crashes;
* :func:`check_algorithm` — a protocol across random/adversarial
  schedules, crash injection, and shuffled identities;
* :func:`check_algorithm_exhaustive` — full interleaving exploration for
  small n, on the compiled protocol core.

Both checkers also verify index-independence and comparison-based behaviour
metamorphically: re-running with permuted indexes or order-isomorphic
identities must produce correspondingly permuted/identical outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..core.task import Task
from .engine import ExplorationBudgetExceeded, canonical_participant_classes
from .explore import explore_all_participant_subsets, explore_interleavings
from .runtime import Algorithm, RunResult, Runtime, default_identities
from .schedulers import (
    BlockScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SoloScheduler,
    random_crash_schedule,
)


@dataclass
class Violation:
    """A validity/termination failure found by the harness."""

    kind: str
    detail: str
    run: RunResult | None = None

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class CheckReport:
    """Outcome of a harness battery."""

    runs: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "CheckReport") -> None:
        self.runs += other.runs
        self.violations.extend(other.violations)

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        return f"CheckReport({self.runs} runs, {status})"


def validate_run(task: Task, result: RunResult) -> list[Violation]:
    """Check one completed run against the task specification.

    * every decided value, at the time it was decided, together with all
      earlier decisions, extends to a legal output vector (covers runs
      where the remaining processes crash right after that point);
    * if every process decided, the full vector is legal;
    * undecided processes must all be crashed or never scheduled
      (termination for the non-faulty).
    """
    violations: list[Violation] = []
    input_vector = list(result.identities)

    # Replay decisions in the order they were taken.
    decision_order = sorted(
        (step, pid)
        for pid, step in enumerate(result.decided_at)
        if step is not None
    )
    partial: list[Any] = [None] * result.n
    for step, pid in decision_order:
        partial[pid] = result.outputs[pid]
        if not task.is_legal_partial_output(partial, input_vector):
            violations.append(
                Violation(
                    "validity",
                    f"after step {step}, decided prefix {partial} cannot "
                    "extend to a legal output vector",
                    run=result,
                )
            )
            break

    undecided = [pid for pid in range(result.n) if result.outputs[pid] is None]
    stranded = [pid for pid in undecided if pid not in result.crashed]
    participants = set(result.participants)
    stranded = [pid for pid in stranded if pid in participants]
    if stranded:
        violations.append(
            Violation(
                "termination",
                f"processes {stranded} participated, did not crash, and "
                "did not decide",
                run=result,
            )
        )

    if not undecided and not task.is_legal_output(result.outputs, input_vector):
        violations.append(
            Violation(
                "validity",
                f"complete output vector {result.outputs} is illegal",
                run=result,
            )
        )
    return violations


SystemFactory = Callable[[], tuple[Mapping[str, Any], Mapping[str, Any]]]


def _default_system() -> tuple[dict, dict]:
    return {}, {}


def check_algorithm(
    task: Task,
    algorithm: Algorithm,
    n: int,
    system_factory: SystemFactory | None = None,
    runs: int = 100,
    seed: int = 0,
    with_crashes: bool = True,
    identities: Sequence[int] | None = None,
    max_steps: int = 100_000,
) -> CheckReport:
    """Drive a protocol through a randomized scheduler battery.

    Each run draws fresh identities (unless pinned), a scheduler from the
    battery (random / round-robin / solo / block / crash-injecting), and a
    fresh system (arrays + oracle objects) from ``system_factory``.
    """
    rng = random.Random(seed)
    factory = system_factory if system_factory is not None else _default_system
    report = CheckReport()
    for index in range(runs):
        run_seed = rng.randrange(2**31)
        ids = (
            tuple(identities)
            if identities is not None
            else default_identities(n, random.Random(run_seed))
        )
        scheduler = _battery_scheduler(index, n, run_seed, with_crashes)
        arrays, objects = factory()
        runtime = Runtime(
            algorithm,
            ids,
            scheduler,
            arrays=arrays,
            objects=objects,
            max_steps=max_steps,
        )
        try:
            result = runtime.run()
        except Exception as error:  # noqa: BLE001 - report, don't mask
            report.runs += 1
            report.violations.append(
                Violation("exception", f"run {index} ({ids}): {error!r}")
            )
            continue
        report.runs += 1
        report.violations.extend(validate_run(task, result))
    return report


def _battery_scheduler(index: int, n: int, seed: int, with_crashes: bool):
    rotation = index % (5 if with_crashes else 4)
    if rotation == 0:
        return RandomScheduler(seed)
    if rotation == 1:
        return RoundRobinScheduler()
    if rotation == 2:
        order = list(range(n))
        random.Random(seed).shuffle(order)
        return SoloScheduler(order)
    if rotation == 3:
        rng = random.Random(seed)
        pids = list(range(n))
        rng.shuffle(pids)
        cut = rng.randint(1, n)
        blocks = [pids[:cut], pids[cut:]] if pids[cut:] else [pids]
        return BlockScheduler(blocks)
    return random_crash_schedule(n, seed)


def check_algorithm_exhaustive(
    task: Task,
    algorithm: Algorithm,
    n: int,
    system_factory: SystemFactory | None = None,
    identities: Sequence[int] | None = None,
    min_participants: int = 1,
    max_runs: int | None = 200_000,
    canonical_subsets: bool = False,
) -> CheckReport:
    """Model-check a protocol over *all* interleavings and participant sets.

    Exploration runs on the prefix-sharing engine
    (:mod:`repro.shm.engine`): branch points fork the live runtime instead
    of re-executing every prefix.  The runs execute on the compiled
    protocol core (:mod:`repro.shm.compiled`) — the algorithm is traced
    into a step table once and every fork is an array copy.  Crash
    coverage comes from participant subsets plus the per-decision
    extendability check in :func:`validate_run`.

    ``canonical_subsets=True`` explores one representative subset per size
    instead of all ``2^n - 1`` — sound for the model's comparison-based,
    index-independent protocols, whose violations (if any) appear in every
    subset of the symmetry class (see
    :func:`repro.shm.engine.canonical_participant_classes`).
    """
    from .compiled import CompiledProtocol

    ids = tuple(identities) if identities is not None else default_identities(n)
    factory = system_factory if system_factory is not None else _default_system
    probe_arrays, probe_objects = factory()
    program = CompiledProtocol(
        algorithm, ids, arrays=probe_arrays, objects=probe_objects
    )

    def make_runtime():
        arrays, objects = factory()
        # The harness validates traces (decision order, participants),
        # so machines record them, unlike the counting hot path.
        return program.machine(arrays=arrays, objects=objects, record_trace=True)

    report = CheckReport()
    if canonical_subsets:
        if list(ids) != sorted(ids):
            raise ValueError(
                "canonical_subsets requires an ascending identity "
                f"assignment (got {list(ids)}): the one-representative-"
                "per-size collapse is sound only when every subset's "
                "identity vector is order-isomorphic to the representative's"
            )

        def canonical_runs():
            # Same *total* budget semantics as the full-subset path.
            produced = 0
            for subset, _weight in canonical_participant_classes(
                n, min_participants
            ):
                for result in explore_interleavings(
                    make_runtime, participants=subset
                ):
                    produced += 1
                    if max_runs is not None and produced > max_runs:
                        raise ExplorationBudgetExceeded(
                            f"exploration produced more than {max_runs} runs"
                        )
                    yield subset, result

        runs_iter = canonical_runs()
    else:
        runs_iter = explore_all_participant_subsets(
            make_runtime, min_participants=min_participants, max_runs=max_runs
        )
    for _participants, result in runs_iter:
        report.runs += 1
        report.violations.extend(validate_run(task, result))
        if len(report.violations) > 20:
            break
    return report


def check_index_independence(
    algorithm: Algorithm,
    n: int,
    system_factory: SystemFactory | None = None,
    seed: int = 0,
    runs: int = 20,
) -> CheckReport:
    """Metamorphic check of the index-independence discipline (Section 2.2).

    Permuting process indexes (moving identities with them) and permuting
    the schedule accordingly must permute the outputs the same way.
    """
    rng = random.Random(seed)
    factory = system_factory if system_factory is not None else _default_system
    report = CheckReport()
    for _ in range(runs):
        ids = default_identities(n, rng)
        schedule = _random_schedule(n, rng)
        base = _run_with_schedule(algorithm, ids, schedule, factory)
        permutation = list(range(n))
        rng.shuffle(permutation)
        permuted_ids = tuple(ids[permutation.index(i)] for i in range(n))
        permuted_schedule = [permutation[pid] for pid in schedule]
        image = _run_with_schedule(algorithm, permuted_ids, permuted_schedule, factory)
        report.runs += 2
        for pid in range(n):
            if base.outputs[pid] != image.outputs[permutation[pid]]:
                report.violations.append(
                    Violation(
                        "index-independence",
                        f"pid {pid} decided {base.outputs[pid]} but its image "
                        f"{permutation[pid]} decided {image.outputs[permutation[pid]]}",
                    )
                )
                break
    return report


def check_comparison_based(
    algorithm: Algorithm,
    n: int,
    system_factory: SystemFactory | None = None,
    seed: int = 0,
    runs: int = 20,
) -> CheckReport:
    """Metamorphic check of comparison-based behaviour (Section 2.2).

    Replacing the identities by any order-isomorphic identity vector must
    leave every process's output and decision step unchanged.
    """
    rng = random.Random(seed)
    factory = system_factory if system_factory is not None else _default_system
    report = CheckReport()
    for _ in range(runs):
        ids = default_identities(n, rng)
        schedule = _random_schedule(n, rng)
        base = _run_with_schedule(algorithm, ids, schedule, factory)
        iso_ids = _order_isomorphic_identities(ids, rng)
        image = _run_with_schedule(algorithm, iso_ids, schedule, factory)
        report.runs += 2
        if base.outputs != image.outputs or base.decided_at != image.decided_at:
            report.violations.append(
                Violation(
                    "comparison-based",
                    f"identities {ids} -> {base.outputs} at {base.decided_at}; "
                    f"order-isomorphic {iso_ids} -> {image.outputs} at "
                    f"{image.decided_at}",
                )
            )
    return report


def _random_schedule(n: int, rng: random.Random) -> list[int]:
    schedule = []
    for _ in range(200 * n):
        schedule.append(rng.randrange(n))
    return schedule


def _run_with_schedule(
    algorithm: Algorithm,
    ids: Sequence[int],
    schedule: Sequence[int],
    factory: SystemFactory,
) -> RunResult:
    from .schedulers import ListScheduler

    arrays, objects = factory()
    runtime = Runtime(
        algorithm,
        ids,
        ListScheduler(schedule, then_finish=True),
        arrays=arrays,
        objects=objects,
    )
    return runtime.run()


def _order_isomorphic_identities(
    ids: Sequence[int], rng: random.Random
) -> tuple[int, ...]:
    """Fresh identities with the same relative order as ``ids``."""
    n = len(ids)
    universe = list(range(1, 2 * n))
    chosen = sorted(rng.sample(universe, n))
    ranks = {identity: rank for rank, identity in enumerate(sorted(ids))}
    return tuple(chosen[ranks[identity]] for identity in ids)
