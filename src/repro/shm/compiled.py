"""The compiled protocol core: step tables + orbit-key machine states.

The generator runtime (:mod:`repro.shm.runtime`) is the *reference
semantics* of the model: algorithms are Python generators, a fork rebuilds
generator state by replaying each process's result log (O(steps so far)
resumptions), and a state key recursively freezes the logs.  Both costs
would sit on the hottest path in the repository — exhaustive exploration
forks and keys at every branch point — so exploration runs here instead,
and the generator runtime is what the tests compare this core against.

This module commits to a canonical machine representation *once* and makes
every downstream operation a cheap structural one (the lex-leader move of
symmetry handling, applied to the runtime itself):

* :class:`CompiledProtocol` — a tracer/compiler that turns an algorithm
  into an explicit **step table**: a trie over per-process result
  histories.  The model's discipline (Section 2.2) makes an algorithm a
  deterministic function of its context and the operation results it
  received, so a trie node *is* a local state: it records the pending
  operation (pre-packed against the memory layout) and its out-edges map
  each possible operation result to the successor state.  Nodes are traced
  on demand — each distinct local state costs one generator replay ever,
  after which every run, fork and exploration that reaches it pays a dict
  lookup.  A replay whose emitted operations diverge from the recorded
  table is rejected with a clear :class:`ProtocolError`.  Shared objects
  are GSB oracles only; the generator runtime explores any other.

* :meth:`MachineState.transition` — the one step of the model.  A state
  is an **orbit key** ``(*pcs, cells, acquired)``: per-pid program
  counters into the step table, one flat cell tuple for all shared arrays
  (:class:`MemoryLayout`) and one acquired-pid mask per oracle.  The
  successor function maps ``(key, pid)`` to the successor key, the value
  ``pid`` decides there and the operation's result; an oracle's next
  hand-out is its committed vector at the popcount of its mask.

* :class:`MachineState` — one run over orbit keys: its key plus the run's
  bookkeeping (outputs, decision steps, crashes, step counts, trace).
  ``step`` applies the transition and ``fork()`` shares the key and
  copies the bookkeeping — **no generator replay**.  The orbit quotient
  (:mod:`repro.shm.engine`) steps canonical keys
  (:class:`ValueCanonicalizer`) with the same transition and holds no
  machine.

Semantics notes (all verified by the differential suite in
``tests/shm/test_compiled_differential.py``):

* Written values are frozen (:func:`repro.shm.runtime.freeze_value`) once
  at compile time, so cells and snapshots are hashable without a per-key
  walk.  This is observationally identical under the model's existing
  discipline that written values are immutable (see
  :meth:`repro.shm.registers.SharedArray.clone`).
* Per-writer version counters are *not* part of the machine state: no
  operation exposes them to algorithms, so dropping them is sound and
  strictly increases memoization hits.
* Decided/crashed processes are keyed by a sentinel program counter, so
  states that differ only in the history of a finished process merge.
"""

from __future__ import annotations

from copy import deepcopy as _deepcopy
from functools import partial
from itertools import chain, filterfalse
from typing import Any, Callable, Mapping, Sequence

from .ops import Invoke, Nop, Op, Read, Snapshot, Write, WriteCell
from .oracles import GSBOracle, OracleUsageError
from .registers import ArraySpec, RegisterPermissionError
from .runtime import (
    Algorithm,
    NonTerminationError,
    ProcessContext,
    ProtocolError,
    RunResult,
    Scheduler,
    StepAction,
    CrashAction,
    StopAction,
    TraceEvent,
    freeze_value,
)

__all__ = [
    "CompiledProtocol",
    "MachineState",
    "MemoryLayout",
    "Relabeling",
    "ValueCanonicalizer",
    "compile_protocol",
]

#: Process-wide step-table counters, surfaced through
#: :func:`repro.core.cache_config.cache_stats` (registered below).
_TABLE_TOTALS = {
    "programs": 0,  # step tables compiled
    "nodes": 0,  # local states traced (post frame-merging)
    "replays": 0,  # generator replays paid to trace them
    "frame_merges": 0,  # history-trie nodes collapsed by frame signatures
}


def _register_table_counters() -> None:
    from ..core.cache_config import register_counters

    def _stats() -> dict:
        return dict(_TABLE_TOTALS)

    def _clear() -> None:
        for key in _TABLE_TOTALS:
            _TABLE_TOTALS[key] = 0

    try:
        register_counters("engine.step_tables", _stats, _clear)
    except ValueError:  # pragma: no cover - double import guard
        pass


_register_table_counters()

#: Program-counter sentinels (any non-negative value is a step-table node).
DECIDED = -1
CRASHED = -2

#: Packed opcodes of the step table's execution entries.
_OP_WRITE = 0  # (code, cell, frozen value)
_OP_READ = 1  # (code, cell)
_OP_SNAPSHOT = 2  # (code, start, stop)
_OP_INVOKE = 3  # (code, oracle index)
_OP_NOP = 4  # (code,)
_OP_RAISE = 5  # (code, exception instance) — deferred execution error


class MemoryLayout:
    """Flat layout of the named shared arrays of one protocol system.

    Every array gets a contiguous slice of one cell list; the layout maps
    ``name -> (base, size, multi_writer)`` once so compiled step entries
    can address cells by integer offset.  Accepts the same ``arrays``
    mapping as :class:`repro.shm.runtime.Runtime` (bare initial values or
    :class:`repro.shm.registers.ArraySpec`).
    """

    __slots__ = ("n", "names", "base", "size", "multi_writer", "_specs")

    def __init__(self, n: int, arrays: Mapping[str, Any] | None = None):
        self.n = n
        self.names: list[str] = []
        self.base: dict[str, int] = {}
        self.size: dict[str, int] = {}
        self.multi_writer: dict[str, bool] = {}
        self._specs: dict[str, Any] = {}
        offset = 0
        for name, spec in (arrays or {}).items():
            if isinstance(spec, ArraySpec):
                size = self.n if spec.n is None else spec.n
                multi_writer = spec.multi_writer
            else:
                size = self.n
                multi_writer = False
            if size < 1:
                raise ValueError(
                    f"array {name!r} needs at least one cell, got n={size}"
                )
            initial = spec.initial if isinstance(spec, ArraySpec) else spec
            if isinstance(initial, (list, tuple)) and len(initial) != size:
                raise ValueError(
                    f"array {name!r}: {len(initial)} initial values for "
                    f"{size} cells"
                )
            self.names.append(name)
            self.base[name] = offset
            self.size[name] = size
            self.multi_writer[name] = multi_writer
            self._specs[name] = spec
            offset += size

    @property
    def cell_count(self) -> int:
        return sum(self.size[name] for name in self.names)

    def signature(self) -> tuple:
        """Structural identity: two layouts agree iff machines can share a
        compiled step table (same names, sizes and writer disciplines)."""
        return tuple(
            (name, self.size[name], self.multi_writer[name])
            for name in self.names
        )

    def initial_cells(self, arrays: Mapping[str, Any] | None = None) -> list:
        """A fresh flat cell list (values frozen once, at layout time).

        ``arrays`` may re-supply the initial-value mapping (e.g. a system
        factory's per-run output); its structure must match this layout.
        """
        source = self._specs if arrays is None else arrays
        if arrays is not None:
            probe = MemoryLayout(self.n, arrays)
            if probe.signature() != self.signature():
                raise ValueError(
                    f"array mapping {sorted(arrays)} does not match the "
                    f"compiled layout {sorted(self.names)}"
                )
        cells: list = []
        for name in self.names:
            spec = source[name]
            initial = spec.initial if isinstance(spec, ArraySpec) else spec
            size = self.size[name]
            if isinstance(initial, (list, tuple)):
                if len(initial) != size:
                    raise ValueError(
                        f"array {name!r}: {len(initial)} initial values for "
                        f"{size} cells"
                    )
                cells.extend(freeze_value(value) for value in initial)
            else:
                cells.extend([freeze_value(initial)] * size)
        return cells


class CompiledProtocol:
    """A step-table program compiled lazily from a generator algorithm.

    The table is a forest of per-pid tries over operation-result
    histories.  Node ``u`` records the pending operation reached after the
    result history spelled by the root-to-``u`` path (pre-packed against
    the :class:`MemoryLayout`), or a decision value for terminal nodes.
    Tracing is demand-driven: an edge miss replays the generator along the
    node's history — one replay per *distinct local state*, ever — and
    verifies en route that the emitted operations match the recorded ones,
    rejecting non-deterministic algorithms with :class:`ProtocolError`.

    One compiled program is shared by every :class:`MachineState` (and
    every fork) exploring the same ``(algorithm, identities, system
    shape)``, across schedules, crash patterns and oracle assignments
    alike — results index the trie, so differing oracle hand-outs simply
    populate different branches.

    Every shared object must be a :class:`~repro.shm.oracles.GSBOracle`:
    an oracle's state is its acquired-pid mask in the orbit key, and no
    other object's state is.  Any other object raises
    :class:`ProtocolError` here; the generator runtime explores it.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        identities: Sequence[int],
        arrays: Mapping[str, Any] | None = None,
        objects: Mapping[str, Any] | None = None,
        frame_nodes: bool = False,
    ):
        n = len(identities)
        if n < 1:
            raise ValueError("need at least one process")
        if len(set(identities)) != n:
            raise ValueError(f"identities must be distinct, got {list(identities)}")
        self.algorithm = algorithm
        self.identities = tuple(identities)
        self.n = n
        self.layout = MemoryLayout(n, arrays)
        for name, obj in (objects or {}).items():
            if not isinstance(obj, GSBOracle):
                raise ProtocolError(
                    f"shared object {name!r} is a {type(obj).__name__}, not "
                    "a GSBOracle: the compiled core has no state for it "
                    "(explore it on the generator Runtime)"
                )
        self.oracle_names: list[str] = list(objects or {})
        self._oracle_index = {
            name: index for index, name in enumerate(self.oracle_names)
        }
        # The step table, one entry per node across parallel lists.
        self.ops: list[Op | None] = []  #: pending op; None marks a decision
        self.exec_table: list[tuple | None] = []  #: packed execution entry
        self.decisions: list[Any] = []  #: frozen decision value (terminals)
        self.edges: list[dict[Any, int]] = []  #: frozen result -> child
        self.parents: list[int] = []  #: parent node (-1 at roots)
        self.sent: list[Any] = []  #: raw result received on the in-edge
        self.pids: list[int] = []  #: owning process of the node
        #: With ``frame_nodes`` the table is a DAG over *local states*
        #: rather than a trie over histories: a newly-traced node whose
        #: suspended-generator frame signature (:mod:`.localstate`) and
        #: packed pending operation match an existing node merges into
        #: it, so states reached along different result histories share
        #: one program counter.  The pending operation is part of the
        #: local state because it may read locals that are dead once it
        #: is issued, which the signature drops.  Histories whose frames
        #: defy sound signing (exotic yield shapes, unfreezable locals)
        #: keep trie identity.
        self.frame_nodes = frame_nodes
        self._absmap: dict[Any, int] = {}
        _TABLE_TOTALS["programs"] += 1
        self.roots: list[int] = [self._trace_root(pid) for pid in range(n)]

    # -- table growth ---------------------------------------------------

    def node_count(self) -> int:
        """Distinct local states traced so far (observability)."""
        return len(self.ops)

    def _context(self, pid: int) -> ProcessContext:
        return ProcessContext(pid=pid, identity=self.identities[pid], n=self.n)

    def _trace_root(self, pid: int) -> int:
        generator = self.algorithm(self._context(pid))
        try:
            op = next(generator)
        except StopIteration as stop:
            return self._add_node(pid, -1, None, None, decision=stop.value)
        return self._add_node(pid, -1, None, None, op=op, generator=generator)

    def _add_node(
        self,
        pid: int,
        parent: int,
        key: Any,
        raw_result: Any,
        op: Op | None = None,
        decision: Any = None,
        generator: Any = None,
    ) -> int:
        """The node of the local state a trace reached: a new node, or
        with ``frame_nodes`` an existing one of the same local state, onto
        which ``parent --key-->`` is routed.  ``generator`` is suspended
        at ``op``; it is None for a decision."""
        if op is None and decision is None:
            # Mirrors Runtime._decide: deciding None is a protocol error.
            raise ProtocolError(
                f"process {pid} terminated without deciding (returned None)"
            )
        entry = None if op is None else self._pack(pid, op)
        decision = None if decision is None else freeze_value(decision)
        state = None
        if self.frame_nodes:
            if op is None:
                state = (pid, "decided", decision)
            else:
                from .localstate import generator_signature

                signature = generator_signature(generator, freeze_value)
                if signature is not None:
                    state = (pid, signature, entry)
            existing = self._absmap.get(state)
            if existing is not None:
                self.edges[parent][key] = existing
                _TABLE_TOTALS["frame_merges"] += 1
                return existing
        node = len(self.ops)
        self.ops.append(op)
        self.exec_table.append(entry)
        self.decisions.append(decision)
        self.edges.append({})
        self.parents.append(parent)
        self.sent.append(raw_result)
        self.pids.append(pid)
        if parent >= 0:
            self.edges[parent][key] = node
        if state is not None:
            self._absmap[state] = node
        _TABLE_TOTALS["nodes"] += 1
        return node

    def extend(self, parent: int, key: Any, raw_result: Any) -> int:
        """Trace the successor of ``parent`` under ``raw_result``.

        Replays the owning process's generator along the node's recorded
        history, checking at every hop that the emitted operation matches
        the compiled table (the determinism guarantee every other part of
        this module rests on), then records the new node.
        """
        pid = self.pids[parent]
        path: list[int] = []
        cursor = parent
        while cursor >= 0:
            path.append(cursor)
            cursor = self.parents[cursor]
        path.reverse()
        results = [self.sent[node] for node in path[1:]]
        results.append(raw_result)

        _TABLE_TOTALS["replays"] += 1
        generator = self.algorithm(self._context(pid))
        try:
            op = next(generator)
        except StopIteration:
            raise ProtocolError(
                f"process {pid} is not deterministic: replaying its result "
                "log decided immediately where the compiled table records "
                f"pending op {self.ops[path[0]]!r}"
            ) from None
        for node, result in zip(path, results):
            if op != self.ops[node]:
                raise ProtocolError(
                    f"process {pid} is not deterministic: replay produced "
                    f"{op!r} where the compiled step table records "
                    f"{self.ops[node]!r}"
                )
            try:
                op = generator.send(result)
            except StopIteration as stop:
                if node is not parent:
                    raise ProtocolError(
                        f"process {pid} is not deterministic: replaying its "
                        "result log ended in a decision before the compiled "
                        "table's pending op"
                    ) from None
                return self._add_node(
                    pid, parent, key, raw_result, decision=stop.value
                )
        return self._add_node(
            pid, parent, key, raw_result, op=op, generator=generator
        )

    # -- packing --------------------------------------------------------

    def _pack(self, pid: int, op: Op) -> tuple:
        """Compile one pending operation against the memory layout.

        Ill-formed operations (unknown array, foreign-cell write, unknown
        object, bad oracle method) pack to a deferred ``_OP_RAISE`` entry
        so the error surfaces at *execution* time, exactly when the
        generator runtime would raise it.
        """
        layout = self.layout
        if isinstance(op, Write):
            error = self._address_error(op.array, pid)
            if error is not None:
                return (_OP_RAISE, error)
            return (
                _OP_WRITE,
                layout.base[op.array] + pid,
                freeze_value(op.value),
            )
        if isinstance(op, WriteCell):
            if op.array in layout.base and not layout.multi_writer[op.array]:
                return (
                    _OP_RAISE,
                    RegisterPermissionError(
                        f"array {op.array!r} is single-writer: process {pid} "
                        f"may not write cell {op.index}; create the array "
                        "with multi_writer=True"
                    ),
                )
            error = self._address_error(op.array, op.index)
            if error is not None:
                return (_OP_RAISE, error)
            return (
                _OP_WRITE,
                layout.base[op.array] + op.index,
                freeze_value(op.value),
            )
        if isinstance(op, Read):
            error = self._address_error(op.array, op.index)
            if error is not None:
                return (_OP_RAISE, error)
            return (_OP_READ, layout.base[op.array] + op.index)
        if isinstance(op, Snapshot):
            error = self._address_error(op.array, 0)
            if error is not None:
                return (_OP_RAISE, error)
            base = layout.base[op.array]
            return (_OP_SNAPSHOT, base, base + layout.size[op.array])
        if isinstance(op, Invoke):
            if op.obj in self._oracle_index:
                if op.method != GSBOracle.ACQUIRE:
                    return (
                        _OP_RAISE,
                        OracleUsageError(
                            f"GSBOracle supports only "
                            f"{GSBOracle.ACQUIRE!r}, got {op.method!r}"
                        ),
                    )
                return (_OP_INVOKE, self._oracle_index[op.obj])
            return (
                _OP_RAISE,
                ProtocolError(
                    f"process {pid} invoked unknown object {op.obj!r}; "
                    f"available: {sorted(self.oracle_names)}"
                ),
            )
        if isinstance(op, Nop):
            return (_OP_NOP,)
        return (
            _OP_RAISE,
            ProtocolError(f"process {pid} yielded a non-operation: {op!r}"),
        )

    def _address_error(self, array: str, index: int) -> Exception | None:
        if array not in self.layout.base:
            return KeyError(
                f"no shared array named {array!r}; declared arrays: "
                f"{sorted(self.layout.names)}"
            )
        if not 0 <= index < self.layout.size[array]:
            return IndexError(
                f"array {array!r} has cells 0..{self.layout.size[array] - 1}, "
                f"got {index}"
            )
        return None

    # -- machine construction -------------------------------------------

    def machine(
        self,
        scheduler: Scheduler | None = None,
        arrays: Mapping[str, Any] | None = None,
        objects: Mapping[str, Any] | None = None,
        max_steps: int = 1_000_000,
        record_trace: bool = False,
    ) -> "MachineState":
        """A fresh machine running this program (see :class:`MachineState`)."""
        return MachineState(
            self,
            scheduler=scheduler,
            arrays=arrays,
            objects=objects,
            max_steps=max_steps,
            record_trace=record_trace,
        )


def compile_protocol(
    algorithm: Algorithm,
    identities: Sequence[int],
    arrays: Mapping[str, Any] | None = None,
    objects: Mapping[str, Any] | None = None,
) -> CompiledProtocol:
    """Compile an algorithm + system shape into a shared step table."""
    return CompiledProtocol(algorithm, identities, arrays=arrays, objects=objects)


def _clone_object(obj: Any) -> Any:
    clone = getattr(obj, "clone", None)
    if callable(clone):
        return clone()
    return _deepcopy(obj)


def _transition(
    program: CompiledProtocol, values: tuple[tuple, ...]
) -> Callable[[tuple, int], tuple[tuple, Any, Any]]:
    """The successor function over ``program``'s orbit keys, with
    ``values`` each oracle's committed vector (see
    :meth:`MachineState.transition`)."""
    exec_table = program.exec_table
    edges = program.edges
    decisions = program.decisions
    extend = program.extend
    # Interns the cell and acquired-mask tuples that writes and acquires
    # make: equal contents are one object across a whole run or
    # exploration.
    intern = {}.setdefault
    n = program.n

    def successor(key: tuple, pid: int) -> tuple[tuple, Any, Any]:
        node = key[pid]
        entry = exec_table[node]
        code = entry[0]
        cells = key[n]
        updated = list(key)
        if code == _OP_WRITE:
            result = None
            if cells[entry[1]] != entry[2]:
                cells = list(cells)
                cells[entry[1]] = entry[2]
                cells = tuple(cells)
                updated[n] = intern(cells, cells)
        elif code == _OP_SNAPSHOT:
            result = cells[entry[1] : entry[2]]
        elif code == _OP_READ:
            result = cells[entry[1]]
        elif code == _OP_INVOKE:
            index = entry[1]
            acquired = list(key[n + 1])
            held = acquired[index]
            if held >> pid & 1:
                raise OracleUsageError(
                    f"process {pid} acquired twice from the "
                    f"{program.oracle_names[index]!r} oracle"
                )
            result = values[index][held.bit_count()]
            acquired[index] = held | 1 << pid
            acquired = tuple(acquired)
            updated[n + 1] = intern(acquired, acquired)
        elif code == _OP_NOP:
            result = None
        else:  # _OP_RAISE: a deferred compile-time diagnosis
            raise entry[1]
        child = edges[node].get(result)
        if child is None:
            child = extend(node, result, result)
        decided = decisions[child]
        updated[pid] = child if decided is None else DECIDED
        return tuple(updated), decided, result

    return successor


class _MachineSchedulerState:
    """Adapter giving schedulers the observable state of a machine."""

    __slots__ = ("_machine",)

    def __init__(self, machine: "MachineState"):
        self._machine = machine

    @property
    def step(self) -> int:
        return self._machine.step_count

    @property
    def enabled(self) -> tuple[int, ...]:
        return tuple(self._machine.enabled_pids())

    def steps_taken(self, pid: int) -> int:
        return self._machine.per_pid_steps[pid]


class MachineState:
    """One run of a :class:`CompiledProtocol`, held as an orbit key.

    Drop-in for :class:`repro.shm.runtime.Runtime` wherever
    :meth:`~repro.shm.engine.PrefixSharingEngine.runs` and the harness
    drive runs (``step``/``run``/``fork``/``result``/``enabled_pids``).
    The machine's state is one orbit key (:meth:`orbit_key`), which
    :meth:`step` replaces with its :meth:`transition` successor; the rest
    is the run's bookkeeping: outputs, decision steps, crashes, step
    counts and the trace.  ``fork()`` shares the key and the transition
    and copies the bookkeeping — O(n), zero generator work.

    ``record_trace`` defaults to *False* (the opposite of ``Runtime``):
    ``runs()`` neither needs nor wants per-fork trace copies.  Harness
    paths that validate traces pass ``True``.
    """

    __slots__ = (
        "program",
        "scheduler",
        "max_steps",
        "n",
        "identities",
        "outputs",
        "decided_at",
        "crashed",
        "step_count",
        "per_pid_steps",
        "trace",
        "record_trace",
        "_key",
        "_oracle_values",
        "_successor",
    )

    def __init__(
        self,
        program: CompiledProtocol,
        scheduler: Scheduler | None = None,
        arrays: Mapping[str, Any] | None = None,
        objects: Mapping[str, Any] | None = None,
        max_steps: int = 1_000_000,
        record_trace: bool = False,
    ):
        self.program = program
        self.scheduler = scheduler
        self.max_steps = max_steps
        self.n = program.n
        self.identities = program.identities
        self.record_trace = record_trace
        self.trace: list[TraceEvent] = []

        objects = dict(objects or {})
        if set(objects) != set(program.oracle_names):
            raise ValueError(
                f"objects {sorted(objects)} do not match the compiled "
                f"program's objects {sorted(program.oracle_names)}"
            )
        oracles = [objects[name] for name in program.oracle_names]
        #: Each oracle's committed value vector, fixed for the run.
        self._oracle_values = tuple(tuple(o._values) for o in oracles)
        acquired = tuple(sum(1 << pid for pid in o._assigned) for o in oracles)

        self.outputs: list[Any] = [None] * self.n
        self.decided_at: list[int | None] = [None] * self.n
        self.crashed: set[int] = set()
        self.step_count = 0
        self.per_pid_steps = [0] * self.n
        pcs = list(program.roots)
        for pid, node in enumerate(pcs):
            if program.ops[node] is None:
                # Communication-free decision: decided before any step.
                self.outputs[pid] = program.decisions[node]
                self.decided_at[pid] = 0
                pcs[pid] = DECIDED
        cells = tuple(program.layout.initial_cells(arrays))
        self._key = (*pcs, cells, acquired)
        self._successor = _transition(program, self._oracle_values)

    # -- the runtime surface the engine and harness drive ----------------

    def enabled_pids(self) -> list[int]:
        """Processes that can still take a step."""
        key = self._key
        return [pid for pid in range(self.n) if key[pid] >= 0]

    def step(self, pid: int) -> None:
        """Execute one step of ``pid``: replace the key with its
        :meth:`transition` successor and record the step in the run's
        bookkeeping."""
        key = self._key
        if key[pid] < 0:
            if pid in self.crashed:
                raise ProtocolError(f"process {pid} is crashed and cannot step")
            raise ProtocolError(
                f"process {pid} already decided and cannot step"
            )
        self._key, decided, result = self._successor(key, pid)
        if self.record_trace:
            self.trace.append(
                TraceEvent(
                    self.step_count, pid, self.program.ops[key[pid]], result
                )
            )
        self.step_count += 1
        self.per_pid_steps[pid] += 1
        if decided is not None:
            self.outputs[pid] = decided
            self.decided_at[pid] = self.step_count

    def crash(self, pid: int) -> None:
        """Crash ``pid``: it takes no further steps."""
        key = list(self._key)
        if key[pid] < 0:
            raise ProtocolError(
                f"cannot crash {pid}: already crashed or decided"
            )
        self.crashed.add(pid)
        key[pid] = CRASHED
        self._key = tuple(key)

    def run(self) -> RunResult:
        """Drive the run under the machine's scheduler (cf. ``Runtime.run``)."""
        if self.scheduler is None:
            raise ProtocolError(
                "machine has no scheduler; construct it with one to run()"
            )
        state = _MachineSchedulerState(self)
        while self.enabled_pids():
            if self.step_count >= self.max_steps:
                raise NonTerminationError(
                    f"run exceeded {self.max_steps} steps with "
                    f"{self.enabled_pids()} still undecided"
                )
            action = self.scheduler.next_action(state)
            if isinstance(action, StopAction):
                break
            if isinstance(action, CrashAction):
                self.crash(action.pid)
                continue
            if isinstance(action, StepAction):
                self.step(action.pid)
                continue
            raise ProtocolError(f"scheduler returned unknown action {action!r}")
        return self.result()

    def fork(self) -> "MachineState":
        """Independent copy of this mid-run state.

        The orbit key is immutable and the transition is common to every
        fork of one root machine, so both are shared; the bookkeeping is
        flat lists copied in O(n) — no generator replay, no recursion, no
        per-step work.
        """
        dup = MachineState.__new__(MachineState)
        dup.program = self.program
        dup.scheduler = (
            None if self.scheduler is None else _clone_object(self.scheduler)
        )
        dup.max_steps = self.max_steps
        dup.n = self.n
        dup.identities = self.identities
        dup.record_trace = self.record_trace
        dup.trace = list(self.trace) if self.record_trace else []
        dup.outputs = self.outputs.copy()
        dup.decided_at = self.decided_at.copy()
        dup.crashed = set(self.crashed)
        dup.step_count = self.step_count
        dup.per_pid_steps = self.per_pid_steps.copy()
        dup._key = self._key
        dup._oracle_values = self._oracle_values
        dup._successor = self._successor
        return dup

    # -- value-symmetry orbit quotient -----------------------------------

    def orbit_key(self) -> tuple:
        """This machine's state and the engine's memo key: one flat tuple
        ``(*pcs, cells, acquired)`` of the ``n`` program counters (decided
        and crashed processes as negative sentinels), the cell tuple and
        one acquired-pid mask per oracle.

        It is coarser than an exact key of the global state in two ways,
        both sound for any program driven here (verified by the quotient
        differential suite):

        * **decided outputs are factored out** — no operation reads
          another process's output, so states differing only in decided
          values share their entire future; the exploration engine
          stores suffix counters over the undecided positions;
        * **oracle arrival order collapses to the acquired-pid mask** —
          a GSB oracle's future hand-outs depend only on *how many*
          values it has handed out (the committed value vector is fixed
          per exploration), and each received value is already encoded
          in its receiver's program counter.
        """
        return self._key

    def transition(self) -> Callable[[tuple, int], tuple[tuple, Any, Any]]:
        """The successor function over this machine's orbit keys.

        The returned ``successor(key, pid)`` takes an orbit key (see
        :meth:`orbit_key`) and a pid that is live in it, and returns
        ``(successor key, decided value, result)``: the key after ``pid``
        executes its pending operation, the value ``pid`` decides there
        (None while it runs on) and the operation's result.  It reads the
        key and the step table only: :meth:`step` applies it to this
        machine's key, and the orbit quotient to its frames' keys.  An
        untraced edge is traced by :meth:`CompiledProtocol.extend`; a
        second acquire raises :class:`~repro.shm.oracles.OracleUsageError`
        and a deferred compile-time error raises as the generator runtime
        would raise it.  An oracle's next hand-out is its committed
        vector at the popcount of its acquired mask, since each pid
        acquires once.  Built once per root machine and shared by its
        forks, with the pool that interns the tuples its successors make.
        """
        return self._successor

    def probe_step(self, pid: int) -> tuple[tuple, Any, Any] | None:
        """The :meth:`transition` successor :meth:`step` would apply to
        this machine's key, without stepping; None when ``pid`` is
        decided or crashed."""
        key = self._key
        if key[pid] < 0:
            return None
        return self._successor(key, pid)

    def result(self) -> RunResult:
        return RunResult(
            n=self.n,
            identities=self.identities,
            outputs=list(self.outputs),
            decided_at=list(self.decided_at),
            crashed=set(self.crashed),
            trace=list(self.trace),
            steps=self.step_count,
        )


class _Lazy(dict):
    """A dict that fills each miss with ``make(key)``: a per-key cache."""

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


class Relabeling(dict):
    """The relabeling of one free-value order (the tuple of free values
    in first-occurrence order), built once per order.

    The dict itself is the inverse mapping (canonical value -> the
    state's value).  Its members cache images, filled on first use:
    ``nodes`` maps a state's program counter and ``cells`` its whole cell
    tuple to canonical ones (so keys relabeled alike share one cell
    tuple), and ``to_state`` maps a canonical suffix of decided values
    back into the state's labels.
    """

    __slots__ = ("nodes", "cells", "to_state")


class ValueCanonicalizer:
    """Canonical relabeling of interchangeable written-but-undecided values.

    For specs whose oracle-assigned values are *interchangeable* — used
    only under equality comparisons, never arithmetic (declared per spec
    via a relabeler, see :class:`repro.shm.engine.ExplorationSpec`) — two
    states differing only by a permutation of the **free** values (those
    the oracle has finished handing out; values still pending hand-out
    are pinned by the committed vector) have isomorphic futures.  The
    canonical representative renumbers free values so their
    first-occurrence order — over the flat cell array, then over each
    live process's acquired-value history in pid order — is ascending.
    The permutation fixes the value *set* (it maps the seen free values
    onto their own sorted order), so it can never collide with values
    held invisibly (by crashed processes or in decided outputs), and it
    is idempotent: canonical states canonicalize to themselves (pinned by
    the quotient property tests).

    Program counters are canonicalized by *re-routing through the step
    table*: the node's recorded result history is relabeled and walked
    from the root (tracing on demand), so the canonical node's pending
    operation is re-derived by the algorithm itself — a relabeled
    history that diverges structurally fails loudly in
    :meth:`CompiledProtocol.extend`'s determinism check rather than
    merging unsoundly.
    """

    def __init__(self, program: CompiledProtocol, relabel: Any):
        self.program = program
        self.relabel = relabel
        if relabel.oracle not in program._oracle_index:
            raise ValueError(
                f"relabeler targets oracle {relabel.oracle!r}; program has "
                f"{program.oracle_names}"
            )
        self._oracle = program._oracle_index[relabel.oracle]
        # The lazy tables below are filled by factories over the program
        # and the relabeler, never over ``self``: a table that captured
        # its canonicalizer would keep it, and the step table, alive in a
        # reference cycle after the exploration ends.
        #: node -> chronological tuple of oracle values its history holds
        self._node_values = _NodeValues(program, relabel)
        #: cell -> oracle values stored in it
        self._cell_values = _Lazy(relabel.cell_values)
        #: (committed vector, values handed out) -> values still pending
        self._pending = _Lazy(lambda vh: frozenset(vh[0][vh[1] :]))
        #: free-value order -> its relabeling (None: already canonical)
        self._tables = _Lazy(partial(_relabeling, program, relabel))

    def canonical(
        self, key: tuple, values: tuple
    ) -> tuple[tuple, Relabeling | None]:
        """``(canonical orbit key, inverse relabeling)`` for one raw key.

        ``key`` is a :meth:`MachineState.orbit_key` (or a
        :meth:`MachineState.transition` successor), and ``values`` the
        exploration's committed oracle vector.  The number of values handed out is the popcount of
        the acquired mask: each pid acquires at most once.  The relabeling
        is None for the identity, and a canonical key is its own canonical
        key under it.
        """
        n = self.program.n
        pcs = key[:n]
        cells = key[n]
        acquired = key[n + 1]
        pending = self._pending[values, acquired[self._oracle].bit_count()]
        order = dict.fromkeys(
            chain(
                *map(self._cell_values.__getitem__, cells),
                *map(self._node_values.__getitem__, pcs),
            )
        )
        table = self._tables[tuple(filterfalse(pending.__contains__, order))]
        if table is None:
            return key, None
        return (
            (
                *map(table.nodes.__getitem__, pcs),
                table.cells[cells],
                acquired,
            ),
            table,
        )

    def _values_at(self, node: int) -> tuple:
        """Oracle values a live process at ``node`` has observed, in
        chronological order (none for a decided or crashed process)."""
        return self._node_values[node]


class _NodeValues(dict):
    """node -> the oracle values its history holds, filled on first use
    from the parent's entry (see :meth:`ValueCanonicalizer._values_at`)."""

    __slots__ = ("_program", "_relabel")

    def __init__(self, program: CompiledProtocol, relabel: Any):
        super().__init__()
        self._program = program
        self._relabel = relabel

    def __missing__(self, node: int) -> tuple:
        program = self._program
        parent = -1 if node < 0 else program.parents[node]
        if parent < 0:
            values = ()
        else:
            values = self[parent] + tuple(
                self._relabel.result_values(
                    program.ops[parent], program.sent[node]
                )
            )
        self[node] = values
        return values


def _relabeling(
    program: CompiledProtocol, relabel: Any, free: tuple
) -> Relabeling | None:
    """The :class:`Relabeling` of one free-value order (None for the
    identity), with its images filled lazily."""
    mapping = {
        src: dst for src, dst in zip(free, sorted(free)) if src != dst
    }
    if not mapping:
        return None
    inverse = {dst: src for src, dst in mapping.items()}
    map_cell, map_output = relabel.map_cell, relabel.map_output
    route = partial(_canonical_node, program, relabel, mapping)
    table = Relabeling(inverse)
    table.nodes = _Lazy(lambda node: node if node < 0 else route(node))
    table.cells = _Lazy(
        lambda cells: tuple(map_cell(cell, mapping) for cell in cells)
    )
    table.to_state = _Lazy(
        lambda suffix: tuple(map_output(v, inverse) for v in suffix)
    )
    return table


def _canonical_node(
    program: CompiledProtocol, relabel: Any, mapping: dict, node: int
) -> int:
    """The node reached by walking ``node``'s result history, relabeled
    under ``mapping``, from the root (tracing on demand)."""
    path: list[int] = []
    cursor = node
    while cursor >= 0:
        path.append(cursor)
        cursor = program.parents[cursor]
    path.reverse()
    current = path[0]  # the root: no history to relabel
    for successor in path[1:]:
        parent = current
        result = relabel.map_result(
            program.ops[parent], program.sent[successor], mapping
        )
        child = program.edges[parent].get(result)
        if child is None:
            child = program.extend(parent, result, result)
        current = child
    return current
