"""The program's layers as the traced runs see them.

:func:`wraps` lists the public functions wrapped in a traced process,
grouped into the repository's modules (``shm.compiled``, ``shm.engine``,
``universe``, ``decision``, ``sweep``, ``serve``).  The per-layer
metrics themselves, with their units, are the ``per_layer`` list of
``BENCHMARK.json``; :data:`DETERMINISTIC` names the counts two traced
runs of the same code must reproduce exactly, and :data:`ZERO_REASONS`
why a metric reads 0 on a workload whose path never reaches that layer.
"""

from __future__ import annotations

from tracer import Wrap

_ENGINE_COUNTS = ("nodes", "forks", "memo_hits", "orbits", "lex_pruned")

_JOB_STORE_METHODS = (
    "__init__", "close", "set_meta", "get_meta", "enqueue", "lease",
    "heartbeat", "complete", "fail", "requeue_stale", "supersede_pending",
    "counts", "running", "attack_stats", "iter_done", "iter_jobs",
)

_PACK_READS = (
    "node_payload", "cell_node_payloads", "certificate_payload",
    "override_row", "cell_payload",
)


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _engine_before(args, kwargs):
    stats = args[0].stats
    return [getattr(stats, name) for name in _ENGINE_COUNTS]


def _engine_after(counters, before, args, result, error, rid):
    stats = args[0].stats
    for name, old in zip(_ENGINE_COUNTS, before):
        _add(counters, f"shm.engine.{name}", getattr(stats, name) - old)
    key = "max:shm.engine.peak_stack"
    counters[key] = max(counters.get(key, 0), stats.peak_stack)


def _build_after(counters, token, args, result, error, rid):
    if result is not None:
        _add(counters, "universe.build_cells", result.cells_built)


def _pack_after(counters, token, args, result, error, rid):
    if result is not None and not result.skipped:
        rows = result.cells + result.nodes + result.certificates + result.overrides
        _add(counters, "universe.pack_rows", rows)


def _tier4_before(args, kwargs):
    return kwargs.get("max_assignments", 5_000_000)


def _tier4_after(counters, budget, args, result, error, rid):
    if isinstance(error, RuntimeError):
        # The search raises once it tries one assignment past its budget.
        _add(counters, "decision.tier4_exhausted", 1)
        _add(counters, "decision.tier4_assignments", budget + 1)
    elif result is not None:
        _add(counters, "decision.tier4_assignments", result.assignments_tried)


def _encode_after(counters, token, args, result, error, rid):
    if result is not None:
        _add(counters, "sweep.encode_clauses", len(result.clauses))


def _cdcl_after(counters, token, args, result, error, rid):
    if result is not None:
        _add(counters, "sweep.cdcl_conflicts", result.conflicts)
        _add(counters, "sweep.cdcl_decisions", result.decisions)


def _request_id(args, kwargs) -> int:
    query = args[3] if len(args) > 3 else kwargs.get("query")
    try:
        return int((query or {}).get("rid", -1))
    except ValueError:
        return -1


def wraps(tracer) -> list[Wrap]:
    """Every traced function, in the layer it is reported under."""
    notes = tracer.notes

    def handle_after(counters, token, args, result, error, rid):
        if result is not None:
            notes[id(result)] = rid

    def response_rid(args, kwargs) -> int:
        return notes.pop(id(args[0]), -1)

    def bytes_after(counters, token, args, result, error, rid):
        if result is not None:
            _add(counters, "serve.response_bytes", len(result))

    compiled = "repro.shm.compiled:"
    return [
        Wrap("shm.compiled.trace", compiled + "CompiledProtocol.__init__"),
        Wrap("shm.compiled.trace", compiled + "CompiledProtocol.extend"),
        Wrap("shm.compiled.step", compiled + "MachineState.step"),
        Wrap("shm.compiled.fork", compiled + "MachineState.fork"),
        Wrap("shm.compiled.orbit_key", compiled + "MachineState.orbit_key"),
        Wrap("shm.compiled.probe", compiled + "MachineState.probe_step"),
        Wrap("shm.compiled.canonical", compiled + "ValueCanonicalizer.canonical"),
        Wrap(
            "shm.engine.dfs",
            "repro.shm.engine:PrefixSharingEngine.decided_vectors",
            before=_engine_before,
            after=_engine_after,
        ),
        # Explore validates its decided vectors at top level; the other
        # callers (decision-map checks, certificate replay) keep the time.
        Wrap("shm.engine.validate", "repro.core.gsb:GSBTask.is_legal_output",
             outermost=True),
        Wrap("universe.build", "repro.universe.persist:UniverseStore.build",
             after=_build_after),
        Wrap("universe.load", "repro.universe.persist:UniverseStore.load"),
        Wrap("universe.pack", "repro.universe.persist:UniverseStore.pack",
             after=_pack_after),
        Wrap("universe.node_at", "repro.universe.persist:UniverseStore.node_at"),
        *[
            Wrap("universe.pack_read", f"repro.universe.backend:UniversePack.{name}")
            for name in _PACK_READS
        ],
        *[
            Wrap("universe.query", f"repro.universe.query:{name}")
            for name in ("harder_cone", "weaker_cone", "reduction_path")
        ],
        Wrap(
            "decision.tier4",
            "repro.topology.decision:search_decision_map",
            before=_tier4_before,
            after=_tier4_after,
        ),
        Wrap("decision.tier4", "repro.decision.procedures:empirical"),
        # close_open runs tier 4 through empirical, then propagates tier 3
        # inline to a fixed point: its self time is that propagation.
        Wrap("decision.tier3", "repro.decision.procedures:reduction_closure"),
        Wrap("decision.tier3", "repro.decision.procedures:close_open"),
        Wrap("decision.check", "repro.decision.certificates:check_certificate_payload"),
        Wrap("decision.fallback", "repro.decision.pipeline:DecisionPipeline.decide"),
        Wrap("sweep.encode", "repro.sweep.sat:encode_decision_map", after=_encode_after),
        Wrap("sweep.cdcl", "repro.sweep.sat:solve_cnf", after=_cdcl_after),
        Wrap("sweep.verify", "repro.topology.decision:verify_decision_map"),
        *[
            Wrap("sweep.queue", f"repro.sweep.jobs:JobStore.{name}")
            for name in _JOB_STORE_METHODS
        ],
        Wrap(
            "serve.handle",
            "repro.serve.service:UniverseService.handle",
            after=handle_after,
            rid_from=_request_id,
        ),
        Wrap(
            "serve.encode",
            "repro.serve.service:Response.body_bytes",
            after=bytes_after,
            rid_from=response_rid,
        ),
    ]


#: Layer whose call count a ``*_calls``-style metric reports, where the
#: metric name does not say it.
CALL_COUNTS = {
    "universe.load_calls": "universe.load",
    "decision.check_certificates": "decision.check",
    "sweep.queue_ops": "sweep.queue",
}

#: Counts two traced runs of the same code and seed must reproduce.
DETERMINISTIC = (
    "shm.engine.nodes", "shm.engine.forks", "shm.engine.orbits",
    "shm.engine.memo_hits", "shm.engine.lex_pruned", "shm.engine.peak_stack",
    *[f"shm.compiled.{part}_calls"
      for part in ("trace", "step", "fork", "orbit_key", "probe", "canonical")],
    "universe.build_cells", "universe.load_calls", "universe.pack_rows",
    "universe.node_at_calls", "universe.pack_read_calls", "universe.query_calls",
    "decision.tier4_assignments", "decision.tier4_exhausted",
    "decision.tier3_calls", "decision.check_certificates",
    "decision.fallback_calls",
    "sweep.encode_clauses", "sweep.cdcl_conflicts", "sweep.cdcl_decisions",
    "sweep.queue_ops",
    "serve.handle_calls", "serve.response_bytes",
)

_EXPLORE = ("explore-wsb-grh", "explore-renaming")
_NOT_EXPLORE = ("pipeline", "serve")
_NOT_SERVE = _EXPLORE + ("pipeline",)

#: (metric prefix, workloads, why the metric reads 0 there); the first
#: matching entry applies.
ZERO_REASONS: list[tuple[str, tuple[str, ...], str]] = [
    ("shm.compiled.probe", ("explore-renaming",),
     "renaming declares a value relabeler, so the engine canonicalizes "
     "states instead of probing successors"),
    ("shm.engine.lex_pruned", ("explore-renaming",),
     "lex pruning happens on the probe path, which renaming does not take"),
    ("shm.compiled.canonical", ("explore-wsb-grh",),
     "wsb-grh is value-pinned (no relabeler), so no state is canonicalized"),
    ("shm.engine.validate", _NOT_EXPLORE,
     "only explore validates outputs outside any other layer; the output "
     "checks of decision-map verification and certificate replay count "
     "in those layers"),
    ("shm.", _NOT_EXPLORE,
     "this workload runs nothing on the exploration engine (the sweep's "
     "n=4 r=2 closure is verified facet by facet, not replayed)"),
    ("universe.", _EXPLORE, "explore never opens a universe store"),
    ("decision.", _EXPLORE, "explore never decides a task"),
    ("sweep.", _EXPLORE + ("serve",), "no close-open sweep runs here"),
    ("universe.build", ("serve",),
     "the store is built before the server starts, untraced"),
    ("universe.pack_ms", ("serve",),
     "the pack is compiled before the server starts, untraced"),
    ("universe.pack_rows", ("serve",),
     "the pack is compiled before the server starts, untraced"),
    ("universe.node_at", ("pipeline",), "the pipeline makes no point lookups"),
    ("universe.lru_hit_ratio", _NOT_SERVE, "no point lookups"),
    ("universe.query", ("pipeline",), "the pipeline runs no graph queries"),
    ("decision.tier3", ("serve",),
     "the fallback builds no family row past n=20, so reduction closure "
     "never runs"),
    ("decision.tier4", ("serve",),
     "the fallback's empirical tier declines every task "
     "(max_empirical_n=0), so no decision map is searched"),
    ("decision.check", ("serve",), "the server replays no certificates"),
    ("decision.fallback", _NOT_SERVE,
     "the structural fallback is the server's out-of-rectangle path"),
    ("serve.rejects", ("serve",),
     "no request was shed, timed out or malformed"),
    ("serve.", _NOT_SERVE, "no server runs in this workload"),
    ("client.", _NOT_SERVE, "no HTTP client runs in this workload"),
]


def zero_reason(metric: str, workload: str) -> str | None:
    for prefix, workloads, reason in ZERO_REASONS:
        if metric.startswith(prefix) and workload in workloads:
            return reason
    return None
