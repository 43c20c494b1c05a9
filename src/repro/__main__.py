"""Command-line interface: regenerate the paper's artifacts from a shell.

Usage::

    python -m repro table1 [--n 6 --m 3] [--json [PATH]]
    python -m repro figure1 [--n 6 --m 3] [--dot]
    python -m repro atlas --n 8 --m 4 [--json [PATH]]
    python -m repro named [--n 6] [--json [PATH]]
    python -m repro binomials [--max-n 32]
    python -m repro classify N M L U [--json [PATH]]
    python -m repro decide N M L U [--budget N] [--max-rounds R]
                           [--max-empirical-n N] [--dir universe_store]
                           [--no-cache] [--check] [--json [PATH]]
    python -m repro census --max-n 40 [--min-n 2] [--max-m 6] [--jobs 8]
                           [--per-cell] [--json [out.json]]
    python -m repro universe build [--max-n 20 --max-m 6 --jobs 4]
                                   [--dir universe_store] [--force]
                                   [--close-open] [--max-empirical-n 4]
                                   [--max-rounds 2] [--budget N]
    python -m repro universe pack [--dir ...] [--force]
    python -m repro universe stats [--dir ...] [--json [PATH]]
    python -m repro universe query [--dir ...] (--harder-than N M L U |
                                   --weaker-than N M L U | --path 8xINT |
                                   --frontier | --incomparable N M)
    python -m repro universe export [--dir ...] --format dot|json|graphml
                                    [--out PATH]
    python -m repro universe check [--dir ...]
    python -m repro sweep run [--dir ...] [--workers 2] [--max-n N --max-m M]
                              [--sweep-rounds 3] [--max-conflicts N]
                              [--max-jobs N] [--lease-seconds S]
    python -m repro sweep status [--dir ...] [--json [PATH]]
    python -m repro serve [--host 127.0.0.1 --port 8707] [--dir ...]
                          [--backend auto|json|binary] [--workers N]
                          [--request-timeout S] [--idle-timeout S]
                          [--max-inflight N] [--no-reuse-port]
    python -m repro explore [--tasks wsb,election,renaming] [--n 2 3 4]
                            [--max-runs K] [--json [PATH]]
    python -m repro verify

The ``--json`` flag is uniform across report subcommands: bare it prints
the JSON payload to stdout instead of the ASCII rendering; with a path it
writes the payload there and announces ``wrote PATH``.

``decide`` runs the tiered decision pipeline (closed forms, value
padding, reduction closure, bounded empirical search) and prints the
verdict with its machine-checkable certificate; ``universe check``
replays every certificate stored alongside a universe store.

``universe pack`` compiles the JSON shards into the read-optimized
binary backend (``pack.sqlite``) and ``serve`` exposes the store over
the async HTTP query API (:mod:`repro.serve`); the ``--backend`` flag
on every store-reading command selects which representation reads use.

``verify`` is the one-shot acceptance check: Table 1 and Figure 1 must
match the published content, and Figure 2 must pass exhaustive model
checking at n = 3.

Command registration is declarative: one :data:`COMMANDS` table of
:class:`Command` rows, with the copy-paste-prone flags (``--json``,
``--jobs``, ``--dir``, the ``N M L U`` positionals, the decision-budget
knobs) defined once as named argument groups.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass
from typing import Callable


def _json_only(args) -> bool:
    """Bare ``--json`` means: print the payload, skip the ASCII report."""
    return getattr(args, "json", None) == "-"


# ======================================================================
# Handlers
# ======================================================================

def _cmd_table1(args) -> int:
    from .analysis import (
        emit_json,
        render_table1,
        table1,
        table1_matches_paper,
        table1_to_json,
    )

    table = table1(args.n, args.m)
    ok, problems = True, []
    if (args.n, args.m) == (6, 3):
        ok, problems = table1_matches_paper(table)
    if args.json:
        payload = table1_to_json(table)
        if (args.n, args.m) == (6, 3):
            payload["matches_paper"] = ok
            if problems:
                payload["problems"] = problems
        emit_json(payload, args.json)
        if _json_only(args):
            # JSON mode still drives the exit code off the acceptance check.
            return 0 if ok else 1
    print(render_table1(table))
    if (args.n, args.m) == (6, 3):
        print(f"\nmatches the published Table 1: {ok}")
        if problems:
            for problem in problems:
                print(f"  {problem}")
            return 1
    return 0


def _cmd_figure1(args) -> int:
    from .analysis import figure1, render_figure1, to_dot

    figure = figure1(args.n, args.m)
    if args.dot:
        print(to_dot(figure))
    else:
        print(render_figure1(figure))
    return 0


def _cmd_atlas(args) -> int:
    from .analysis import atlas_to_json, emit_json, render_family_atlas

    if args.json:
        emit_json(atlas_to_json(args.n, args.m), args.json)
        if _json_only(args):
            return 0
    print(render_family_atlas(args.n, args.m))
    return 0


def _cmd_named(args) -> int:
    from .analysis import emit_json, named_to_json, render_named_tasks

    if args.json:
        emit_json(named_to_json(args.n), args.json)
        if _json_only(args):
            return 0
    print(render_named_tasks(args.n))
    return 0


def _cmd_binomials(args) -> int:
    from .analysis import render_binomial_table

    print(render_binomial_table(max_n=args.max_n))
    return 0


def _cmd_classify(args) -> int:
    from .analysis import classify_to_json, emit_json
    from .core import SymmetricGSBTask, canonical_representative, classify

    if args.json:
        emit_json(
            classify_to_json(args.task_n, args.task_m, args.task_l, args.task_u),
            args.json,
        )
        if _json_only(args):
            return 0
    task = SymmetricGSBTask(args.task_n, args.task_m, args.task_l, args.task_u)
    verdict, reason = classify(task)
    print(f"task: {task}")
    if task.is_feasible:
        print(f"kernel set: {list(task.kernel_set)}")
        print(f"canonical representative: {canonical_representative(task)}")
    print(f"classification: {verdict.value}")
    print(f"because: {reason}")
    return 0


def _decision_budget(args):
    from .decision import DecisionBudget

    return DecisionBudget(
        max_empirical_n=args.max_empirical_n,
        max_rounds=args.max_rounds,
        max_assignments=args.budget,
    )


def _cmd_decide(args) -> int:
    from .analysis import emit_json
    from .core.bounds import GSBSpecificationError
    from .decision import DecisionPipeline
    from .universe import UniverseStore

    store = UniverseStore(args.dir)
    graph = None
    if store.built_cells():
        try:
            graph = store.load()
        except (OSError, ValueError):
            graph = None  # unreadable store: the pipeline builds its own row
    pipeline = DecisionPipeline(
        budget=_decision_budget(args),
        cache=None if args.no_cache else store.decision_cache,
        graph=graph,
    )
    try:
        verdict = pipeline.decide(
            args.task_n, args.task_m, args.task_l, args.task_u
        )
    except GSBSpecificationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    problems: list[str] = []
    if args.check and verdict.certificate is not None:
        problems = verdict.certificate.check()
    if args.json:
        payload = verdict.to_json()
        if args.check:
            payload["check"] = {"ok": not problems, "problems": problems}
        emit_json(payload, args.json)
        if _json_only(args):
            return 1 if problems else 0
    print("task: <{},{},{},{}>  (canonical <{},{},{},{}>)".format(
        *verdict.task, *verdict.canonical
    ))
    print(f"verdict: {verdict.solvability.value}")
    print(f"because: {verdict.reason}")
    source = "cache" if verdict.cached else f"tier {verdict.tier}"
    print(f"decided by: {verdict.procedure} [{source}] "
          f"in {verdict.seconds * 1000:.1f} ms")
    if verdict.certificate is not None:
        print(f"certificate: {verdict.certificate_id} "
              f"[{verdict.certificate.kind}]")
    for note in verdict.evidence:
        print(f"evidence: {note}")
    if args.check:
        if verdict.certificate is None:
            print("check: nothing to check (no certificate for OPEN verdicts)")
        elif problems:
            print("check: FAILED")
            for problem in problems:
                print(f"  {problem}")
        else:
            print("check: certificate replays cleanly")
    return 1 if problems else 0


def _cmd_census(args) -> int:
    from .analysis import (
        census_report_to_json,
        emit_json,
        render_census_report,
        run_census,
    )

    if args.min_n < 1 or args.max_n < args.min_n:
        print(
            f"error: need 1 <= --min-n <= --max-n, got "
            f"{args.min_n}..{args.max_n}",
            file=sys.stderr,
        )
        return 2
    if args.max_m < 1:
        print(f"error: need --max-m >= 1, got {args.max_m}", file=sys.stderr)
        return 2
    if args.jobs < 0:
        print(f"error: need --jobs >= 0, got {args.jobs}", file=sys.stderr)
        return 2
    report = run_census(
        range(args.min_n, args.max_n + 1),
        range(1, args.max_m + 1),
        jobs=args.jobs,
    )
    if not _json_only(args):
        print(render_census_report(report, per_cell=args.per_cell))
        if args.json:
            print()
    if args.json:
        emit_json(census_report_to_json(report), args.json)
    return 0


def _universe_store(args):
    from .universe import UniverseStore

    return UniverseStore(args.dir, backend=getattr(args, "backend", "json"))


def _load_universe(args):
    """Load the built graph, or print a friendly error and return None.

    Goes through :meth:`UniverseStore.open_readonly` +
    :meth:`UniverseStore.load_cached`, so repeated query-path calls in
    one process share the store instance and its assembled graph
    instead of re-reading the manifest and shards per call.
    """
    from .universe import UniverseStore

    try:
        store = UniverseStore.open_readonly(
            args.dir, backend=getattr(args, "backend", "auto")
        )
        return store.load_cached()
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _cmd_universe_build(args) -> int:
    if args.max_n < 1 or args.max_m < 1:
        print(
            f"error: need --max-n, --max-m >= 1, got {args.max_n}, {args.max_m}",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 0:
        print(f"error: need --jobs >= 0, got {args.jobs}", file=sys.stderr)
        return 2
    store = _universe_store(args)
    report = store.build(args.max_n, args.max_m, jobs=args.jobs, force=args.force)
    print(
        "universe build: rectangle n <= {}, m <= {} ({} cells: {} built, "
        "{} reused, jobs={}, {:.2f}s) -> {}".format(
            report.max_n, report.max_m, report.cells_total, report.cells_built,
            report.cells_reused, report.jobs, report.seconds, store.root,
        )
    )
    if args.close_open:
        closed = store.close_open(_decision_budget(args))
        print(
            "close-open sweep: {} OPEN before, {} after ({} closed, "
            "{} with new search evidence)".format(
                closed.open_before,
                closed.open_after,
                closed.closed_count,
                len(closed.evidence),
            )
        )
        for key, result in sorted(closed.closed.items()):
            print(
                "  closed <{},{},{},{}>: {} (tier {}, {})".format(
                    *key,
                    result.solvability.value,
                    result.tier,
                    result.procedure,
                )
            )
    stats = store.stats()
    print(
        f"store now holds {stats['cells']} cells, {stats['nodes']} synonym "
        f"classes, {stats['containment_edges']} containment edges, "
        f"{stats['overrides']} close-open overrides"
    )
    return 0


def _cmd_universe_pack(args) -> int:
    """Compile the JSON shards into the read-optimized binary backend."""
    store = _universe_store(args)
    try:
        report = store.pack(force=args.force)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if report.skipped:
        print(
            f"universe pack: {report.path} already current "
            f"({report.cells} cells, {report.nodes} nodes, "
            f"{report.certificates} certificates, {report.overrides} "
            f"overrides) — nothing to do"
        )
    else:
        print(
            "universe pack: compiled {} cells ({} nodes, {} edges, {} "
            "certificates, {} overrides) -> {} in {:.2f}s".format(
                report.cells, report.nodes, report.edges,
                report.certificates, report.overrides, report.path,
                report.seconds,
            )
        )
    return 0


def _cmd_serve(args) -> int:
    from .serve import ServeConfig, serve_forever

    if not _universe_store(args).built_cells():
        print(
            f"error: universe store at {args.dir} has no built cells; run "
            "`python -m repro universe build` first",
            file=sys.stderr,
        )
        return 2
    config = ServeConfig(
        request_timeout=args.request_timeout or None,
        idle_timeout=args.idle_timeout or None,
        max_inflight=args.max_inflight,
    )
    if args.workers > 1:
        from .serve import Supervisor, SupervisorConfig

        supervisor = Supervisor(
            args.dir,
            SupervisorConfig(
                workers=args.workers,
                backend=args.backend,
                host=args.host,
                port=args.port,
                serve=config,
                reuse_port=False if args.no_reuse_port else None,
            ),
        )
        return supervisor.run()
    serve_forever(
        args.dir,
        backend=args.backend,
        host=args.host,
        port=args.port,
        config=config,
    )
    return 0


def _cmd_universe_stats(args) -> int:
    from .analysis import emit_json
    from .universe import render_universe_stats

    graph = _load_universe(args)
    if graph is None:
        return 2
    if args.json:
        # Summary counts only; `universe export --format json` is the
        # full dump (the aggregate register_certified count is in stats).
        payload = {
            "store": _universe_store(args).stats(),
            "cells": [list(cell) for cell in sorted(graph.cells)],
            "stats": graph.stats(),
        }
        emit_json(payload, args.json)
        if _json_only(args):
            return 0
    print(render_universe_stats(graph))
    return 0


def _cmd_universe_query(args) -> int:
    from .analysis import emit_json
    from .universe import (
        harder_cone,
        incomparable_pairs,
        reduction_path,
        resolve_key,
        solvability_frontier,
        weaker_cone,
    )

    graph = _load_universe(args)
    if graph is None:
        return 2

    def label(key) -> str:
        node = graph.node(key)
        names = f"  ({', '.join(node.labels)})" if node.labels else ""
        return "<{},{},{},{}> [{}]{}".format(*key, node.solvability, names)

    try:
        if args.harder_than or args.weaker_than:
            cone = harder_cone if args.harder_than else weaker_cone
            key = resolve_key(graph, *(args.harder_than or args.weaker_than))
            keys = cone(graph, key)
            direction = "harder than" if args.harder_than else "weaker than"
            payload = {
                "query": direction.replace(" ", "_"),
                "task": list(key),
                "cone": [list(k) for k in keys],
            }
            if not _json_only(args):
                print(f"{len(keys)} tasks {direction} {label(key)}:")
                for other in keys:
                    print(f"  {label(other)}")
        elif args.path:
            source = resolve_key(graph, *args.path[:4])
            target = resolve_key(graph, *args.path[4:])
            path = reduction_path(graph, source, target)
            payload = {
                "query": "path",
                "source": list(source),
                "target": list(target),
                "path": None
                if path is None
                else [
                    {
                        "source": list(edge.source),
                        "target": list(edge.target),
                        "kind": edge.kind,
                        "label": edge.label,
                    }
                    for edge in path
                ],
            }
            if not _json_only(args):
                if path is None:
                    print(f"no certified path {label(source)} -> {label(target)}")
                else:
                    print(f"path ({len(path)} edges):")
                    for edge in path:
                        via = f" via {edge.label}" if edge.label else ""
                        print(
                            f"  {label(edge.source)} -> {label(edge.target)}"
                            f"  [{edge.kind}{via}]"
                        )
        elif args.incomparable:
            n, m = args.incomparable
            pairs = incomparable_pairs(graph, n, m)
            payload = {
                "query": "incomparable",
                "family": [n, m],
                "pairs": [[list(a), list(b)] for a, b in pairs],
            }
            if not _json_only(args):
                print(f"{len(pairs)} incomparable pairs in <{n},{m},-,->:")
                for first, second in pairs:
                    print(f"  {label(first)}  ||  {label(second)}")
        else:  # --frontier
            report = solvability_frontier(graph)
            payload = {
                "query": "frontier",
                "counts": report.counts,
                "boundary": [
                    {
                        "source": list(edge.source),
                        "target": list(edge.target),
                        "kind": edge.kind,
                        "label": edge.label,
                    }
                    for edge in report.boundary
                ],
            }
            if not _json_only(args):
                print("solvability frontier:")
                for verdict, count in report.counts.items():
                    print(f"  {verdict}: {count}")
                print(f"boundary edges (into unsolvability): {len(report.boundary)}")
                for edge in report.boundary[: args.limit]:
                    print(f"  {label(edge.source)} -> {label(edge.target)}")
                if len(report.boundary) > args.limit:
                    print(f"  ... {len(report.boundary) - args.limit} more")
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        emit_json(payload, args.json)
    return 0


def _cmd_universe_export(args) -> int:
    from .universe import universe_export, write_text

    graph = _load_universe(args)
    if graph is None:
        return 2
    text = universe_export(graph, args.format)
    if args.out:
        write_text(text, args.out)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_universe_check(args) -> int:
    """Replay every certificate stored with (or cached beside) a store."""
    from .decision import certificate_id, check_certificate_payload

    store = _universe_store(args)
    graph = _load_universe(args)
    if graph is None:
        return 2
    failures = 0
    checked = 0
    # Graph replay results by id: an override row whose payload is the
    # graph's payload under the same id reuses the result.
    replayed: dict[str, list[str]] = {}
    for stored_id, payload in sorted(graph.certificate_payloads.items()):
        problems = replayed[stored_id] = check_certificate_payload(payload)
        checked += 1
        if problems:
            failures += 1
            print(f"FAIL {stored_id}: {problems[0]}")
    cached = 0
    for key, payload in store.decision_cache.iter_certificates():
        if certificate_id(payload) in graph.certificate_payloads:
            continue  # already replayed from the graph above
        problems = check_certificate_payload(payload)
        cached += 1
        if problems:
            failures += 1
            print(f"FAIL cache <{key}>: {problems[0]}")
    # Override rows (close-open / sweep closures) get the adversarial
    # treatment: the graph replay above only proves each payload is
    # internally consistent, so a tampered row — edited solvability, a
    # certificate grafted from another cell, a forged id — must be
    # caught by cross-checking the row against its own certificate.
    overrides = store.read_overrides().get("overrides", {})
    override_rows = 0
    for raw_key, row in sorted(overrides.items()):
        override_rows += 1
        try:
            key = [int(part) for part in raw_key.split(",")]
        except ValueError:
            failures += 1
            print(f"FAIL override <{raw_key}>: unparseable cell key")
            continue
        payload = row.get("certificate")
        if payload is None:
            if row.get("solvability") != "open":
                failures += 1
                print(
                    f"FAIL override <{raw_key}>: non-OPEN override "
                    "carries no certificate"
                )
            continue
        recomputed = certificate_id(payload)
        if row.get("certificate_id") != recomputed:
            failures += 1
            print(
                f"FAIL override <{raw_key}>: certificate_id "
                f"{row.get('certificate_id')!r} does not match the "
                f"payload (recomputed {recomputed!r})"
            )
            continue
        if list(payload.get("task", ())) != key:
            failures += 1
            print(
                f"FAIL override <{raw_key}>: certificate proves task "
                f"{payload.get('task')}, not this cell"
            )
            continue
        if payload.get("verdict") != row.get("solvability"):
            failures += 1
            print(
                f"FAIL override <{raw_key}>: row claims "
                f"{row.get('solvability')!r} but its certificate proves "
                f"{payload.get('verdict')!r}"
            )
            continue
        if graph.certificate_payloads.get(recomputed) == payload:
            problems = replayed[recomputed]
        else:
            problems = check_certificate_payload(payload)
        if problems:
            failures += 1
            print(f"FAIL override <{raw_key}>: {problems[0]}")
    uncertified = sum(
        1
        for node in graph.nodes()
        if node.solvability != "open" and not node.certificate_id
    )
    if uncertified:
        failures += 1
        print(f"FAIL: {uncertified} non-OPEN nodes carry no certificate id")
    print(
        f"replayed {checked} graph certificates, {cached} cached "
        f"certificates and {override_rows} override rows: "
        f"{'all OK' if not failures else f'{failures} FAILURES'}"
    )
    return 1 if failures else 0


def _cmd_sweep_run(args) -> int:
    from .sweep import SweepConfig, SweepRunner

    store = _universe_store(args)
    if not store.built_cells():
        print(
            f"error: universe store at {args.dir} has no built cells; run "
            "`python -m repro universe build` first",
            file=sys.stderr,
        )
        return 2
    config = SweepConfig(
        workers=args.workers,
        max_rounds=args.sweep_rounds,
        max_conflicts=args.max_conflicts,
        max_assignments=args.max_assignments,
        lease_seconds=args.lease_seconds,
    )
    runner = SweepRunner(store, config)
    enqueued = runner.prepare(max_n=args.max_n, max_m=args.max_m)
    counts = runner.jobs.counts()
    print(
        f"sweep prepare: {enqueued} new jobs "
        f"({counts.get('pending', 0)} pending total) -> {runner.jobs.path}"
    )
    try:
        completed = runner.run(max_jobs=args.max_jobs)
    except RuntimeError as error:
        # Crash loop: every allowed spawn died with work left.  The
        # queue keeps the leases and results it has; a later `sweep run`
        # resumes from exactly here.
        print(f"error: {error}", file=sys.stderr)
        return 1
    report = runner.finalize()
    print(
        f"sweep run: {completed} attacks completed with "
        f"{config.workers} workers"
    )
    print(
        f"sweep finalize: {len(report.closed_cells)} cells closed, "
        f"{report.propagated} more by propagation"
    )
    for key in report.closed_cells:
        print("  closed <{},{},{},{}>".format(*key))
    return 0


def _cmd_sweep_status(args) -> int:
    from .analysis import emit_json
    from .sweep import campaign_status, render_status

    store = _universe_store(args)
    payload = campaign_status(store)
    if payload is None:
        print(
            f"error: no sweep campaign at {args.dir} (run "
            "`python -m repro sweep run` first)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        emit_json(payload, args.json)
        if _json_only(args):
            return 0
    print(render_status(payload))
    return 0


def _cmd_explore(args) -> int:
    import time as _time

    from .analysis import emit_json
    from .shm.engine import (
        ExplorationBudgetExceeded,
        available_specs,
        explore_many,
        get_spec,
    )

    names = (
        available_specs() if args.tasks == "all" else args.tasks.split(",")
    )
    try:
        for name in names:
            get_spec(name)  # fail fast on typos, before any exploration runs
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    started = _time.perf_counter()
    try:
        results = explore_many(names, args.n, max_runs=args.max_runs)
    except ExplorationBudgetExceeded as error:
        print(f"error: {error}; raise --max-runs", file=sys.stderr)
        return 2
    total_seconds = _time.perf_counter() - started
    failures = sum(
        # The election spec is *supposed* to be refuted by model checking.
        1
        for result in results
        if result.violations and result.name != "election"
    )
    if args.json:
        payload = {
            "tasks": names,
            "n": list(args.n),
            "total_seconds": total_seconds,
            "failures": failures,
            "results": [result.to_json() for result in results],
        }
        emit_json(payload, args.json)
        if _json_only(args):
            return 1 if failures else 0
    print(
        f"{'task':<10} {'n':>3} {'runs':>14} {'distinct':>9} "
        f"{'memo_hits':>10} {'orbits':>9} {'forks':>9} {'time':>11}  status"
    )
    for result in results:
        status = (
            "OK" if result.violations == 0 else f"{result.violations} ILLEGAL"
        )
        print(
            f"{result.name:<10} {result.n:>3} {result.runs:>14} "
            f"{result.distinct:>9} {result.stats.memo_hits:>10} "
            f"{result.stats.orbits:>9} "
            f"{result.stats.forks:>9} {result.seconds*1000:>8.1f} ms  {status}"
        )
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    from .algorithms import figure2_renaming, figure2_system_factory, figure2_task
    from .analysis import figure1_matches_paper, table1_matches_paper
    from .shm import check_algorithm_exhaustive

    failures = 0

    ok, problems = table1_matches_paper()
    print(f"Table 1 regeneration: {'OK' if ok else problems}")
    failures += not ok

    ok, problems = figure1_matches_paper()
    print(f"Figure 1 regeneration: {'OK' if ok else problems}")
    failures += not ok

    report = check_algorithm_exhaustive(
        figure2_task(3),
        figure2_renaming(),
        3,
        system_factory=figure2_system_factory(3, seed=0),
    )
    print(
        f"Figure 2 model check (n=3, {report.runs} runs): "
        f"{'OK' if report.ok else report.violations[:3]}"
    )
    failures += not report.ok

    print(f"\n{'all artifacts verified' if not failures else 'FAILURES'}")
    return 1 if failures else 0


# ======================================================================
# Declarative command registration
# ======================================================================

@dataclass(frozen=True)
class Arg:
    """One ``add_argument`` call, optionally inside a mutex group."""

    flags: tuple[str, ...]
    options: dict
    mutex: str | None = None


def arg(*flags: str, mutex: str | None = None, **options) -> Arg:
    return Arg(flags=flags, options=options, mutex=mutex)


@dataclass(frozen=True)
class Command:
    """One subcommand: its help, handler, arguments and shared groups."""

    name: str
    help: str
    handler: Callable | None = None
    groups: tuple[str, ...] = ()
    args: tuple[Arg, ...] = ()
    subcommands: tuple["Command", ...] = ()
    sub_dest: str = "subcommand"


#: The shared argument groups the old parser copy-pasted per command.
SHARED_GROUPS: dict[str, tuple[Arg, ...]] = {
    "json": (
        arg(
            "--json",
            metavar="PATH",
            nargs="?",
            const="-",
            default=None,
            help="emit a JSON payload: to PATH, or to stdout when bare "
            "(replacing the ASCII report)",
        ),
    ),
    "paper-nm": (
        arg("--n", type=int, default=6),
        arg("--m", type=int, default=3),
    ),
    "task-nmlu": (
        arg("task_n", type=int, metavar="N"),
        arg("task_m", type=int, metavar="M"),
        arg("task_l", type=int, metavar="L"),
        arg("task_u", type=int, metavar="U"),
    ),
    "jobs": (
        arg(
            "--jobs",
            type=int,
            default=0,
            help="shard work over a process pool (0 = in-process)",
        ),
    ),
    "store-dir": (
        arg(
            "--dir",
            default="universe_store",
            help="store directory (default: ./universe_store)",
        ),
        arg(
            "--backend",
            choices=["auto", "json", "binary"],
            default="auto",
            help="read representation: the compiled pack.sqlite (binary), "
            "the JSON shards (json), or the pack when a current one "
            "exists (auto, the default)",
        ),
    ),
    "decision-budget": (
        arg(
            "--budget",
            type=int,
            default=500_000,
            metavar="N",
            help="empirical search budget in CSP assignments per round",
        ),
        arg(
            "--max-rounds",
            type=int,
            default=2,
            help="deepest immediate-snapshot round the empirical tier tries",
        ),
        arg(
            "--max-empirical-n",
            type=int,
            default=4,
            help="largest n the empirical tier searches",
        ),
    ),
}


COMMANDS: tuple[Command, ...] = (
    Command(
        name="table1",
        help="regenerate Table 1",
        handler=_cmd_table1,
        groups=("paper-nm", "json"),
    ),
    Command(
        name="figure1",
        help="regenerate Figure 1",
        handler=_cmd_figure1,
        groups=("paper-nm",),
        args=(arg("--dot", action="store_true"),),
    ),
    Command(
        name="atlas",
        help="annotated family atlas",
        handler=_cmd_atlas,
        groups=("json",),
        args=(
            arg("--n", type=int, required=True),
            arg("--m", type=int, required=True),
        ),
    ),
    Command(
        name="named",
        help="named-task verdicts",
        handler=_cmd_named,
        groups=("json",),
        args=(arg("--n", type=int, default=6),),
    ),
    Command(
        name="binomials",
        help="Theorem 10 gcd table",
        handler=_cmd_binomials,
        args=(arg("--max-n", type=int, default=32),),
    ),
    Command(
        name="classify",
        help="classify a <n,m,l,u> task (the paper's closed forms)",
        handler=_cmd_classify,
        groups=("task-nmlu", "json"),
    ),
    Command(
        name="decide",
        help="run the tiered decision pipeline with certificates",
        handler=_cmd_decide,
        groups=("task-nmlu", "decision-budget", "store-dir", "json"),
        args=(
            arg(
                "--no-cache",
                action="store_true",
                help="skip the verdict cache (always recompute)",
            ),
            arg(
                "--check",
                action="store_true",
                help="replay the certificate before reporting success",
            ),
        ),
    ),
    Command(
        name="census",
        help="whole-universe family census on the closed-form pipeline",
        handler=_cmd_census,
        groups=("jobs",),
        args=(
            arg("--max-n", type=int, default=40),
            arg("--min-n", type=int, default=2),
            arg("--max-m", type=int, default=6),
            arg(
                "--per-cell",
                action="store_true",
                help="print one row per (n, m) family instead of the per-n "
                "rollup",
            ),
            arg(
                "--json",
                metavar="PATH",
                nargs="?",
                const="-",
                default=None,
                help="also dump the full per-cell census as JSON (to stdout "
                "when bare)",
            ),
        ),
    ),
    Command(
        name="universe",
        help="the cross-family reducibility map (build/query/export/stats)",
        sub_dest="universe_command",
        subcommands=(
            Command(
                name="build",
                help="incrementally materialize a parameter rectangle",
                handler=_cmd_universe_build,
                groups=("jobs", "store-dir", "decision-budget"),
                args=(
                    arg("--max-n", type=int, default=20),
                    arg("--max-m", type=int, default=6),
                    arg(
                        "--force",
                        action="store_true",
                        help="recompute cells already on disk",
                    ),
                    arg(
                        "--close-open",
                        action="store_true",
                        help="run the decision pipeline's close-open sweep "
                        "(tiers 3-4) and persist the verdicts",
                    ),
                ),
            ),
            Command(
                name="pack",
                help="compile the shards into the binary read backend",
                handler=_cmd_universe_pack,
                groups=("store-dir",),
                args=(
                    arg(
                        "--force",
                        action="store_true",
                        help="recompile even when the pack is current",
                    ),
                ),
            ),
            Command(
                name="stats",
                help="store and graph summary counts",
                handler=_cmd_universe_stats,
                groups=("store-dir", "json"),
            ),
            Command(
                name="query",
                help="cones, paths, the frontier, incomparable pairs",
                handler=_cmd_universe_query,
                groups=("store-dir", "json"),
                args=(
                    arg(
                        "--harder-than",
                        type=int,
                        nargs=4,
                        metavar=("N", "M", "L", "U"),
                        mutex="query",
                        help="every task at least as hard as <N,M,L,U>",
                    ),
                    arg(
                        "--weaker-than",
                        type=int,
                        nargs=4,
                        metavar=("N", "M", "L", "U"),
                        mutex="query",
                        help="every task <N,M,L,U> solves",
                    ),
                    arg(
                        "--path",
                        type=int,
                        nargs=8,
                        metavar="INT",
                        mutex="query",
                        help="certified reduction path: source N M L U, then "
                        "target N M L U",
                    ),
                    arg(
                        "--frontier",
                        action="store_true",
                        mutex="query",
                        help="solvability split and the edges crossing into "
                        "unsolvability",
                    ),
                    arg(
                        "--incomparable",
                        type=int,
                        nargs=2,
                        metavar=("N", "M"),
                        mutex="query",
                        help="canonical pairs of one family with no "
                        "containment either way",
                    ),
                    arg(
                        "--limit",
                        type=int,
                        default=20,
                        help="max boundary edges printed by --frontier",
                    ),
                ),
            ),
            Command(
                name="export",
                help="emit the graph as DOT, JSON or GraphML",
                handler=_cmd_universe_export,
                groups=("store-dir",),
                args=(
                    arg(
                        "--format",
                        choices=["dot", "json", "graphml"],
                        default="dot",
                    ),
                    arg(
                        "--out",
                        metavar="PATH",
                        default=None,
                        help="write here (default: stdout)",
                    ),
                ),
            ),
            Command(
                name="check",
                help="replay every stored solvability certificate",
                handler=_cmd_universe_check,
                groups=("store-dir",),
            ),
        ),
    ),
    Command(
        name="sweep",
        help="persistent, resumable close-open campaigns over OPEN cells",
        sub_dest="sweep_command",
        subcommands=(
            Command(
                name="run",
                help="enqueue attack ladders for OPEN cells and drain the "
                "queue with worker processes (resumes automatically)",
                handler=_cmd_sweep_run,
                groups=("store-dir",),
                args=(
                    arg(
                        "--workers",
                        type=int,
                        default=2,
                        help="worker processes (0 = run attacks inline)",
                    ),
                    arg(
                        "--max-n",
                        type=int,
                        default=None,
                        help="only attack OPEN cells with n <= this",
                    ),
                    arg(
                        "--max-m",
                        type=int,
                        default=None,
                        help="only attack OPEN cells with m <= this",
                    ),
                    arg(
                        "--sweep-rounds",
                        type=int,
                        default=3,
                        metavar="R",
                        help="deepest immediate-snapshot round the attack "
                        "ladder climbs to",
                    ),
                    arg(
                        "--max-conflicts",
                        type=int,
                        default=1_000_000,
                        metavar="N",
                        help="CDCL conflict budget per SAT attack",
                    ),
                    arg(
                        "--max-assignments",
                        type=int,
                        default=2_000_000,
                        metavar="N",
                        help="CSP assignment budget per exhaustive attack",
                    ),
                    arg(
                        "--max-jobs",
                        type=int,
                        default=None,
                        metavar="N",
                        help="stop after this many attacks (inline mode "
                        "only); the campaign resumes on the next run",
                    ),
                    arg(
                        "--lease-seconds",
                        type=float,
                        default=300.0,
                        metavar="S",
                        help="job lease duration; a worker dead this long "
                        "forfeits its job back to the queue",
                    ),
                ),
            ),
            Command(
                name="status",
                help="queue counts, per-attack throughput, ETA, cache stats",
                handler=_cmd_sweep_status,
                groups=("store-dir", "json"),
            ),
        ),
    ),
    Command(
        name="serve",
        help="serve the universe store over the async HTTP query API",
        handler=_cmd_serve,
        groups=("store-dir",),
        args=(
            arg("--host", default="127.0.0.1", help="bind address"),
            arg("--port", type=int, default=8707, help="TCP port"),
            arg(
                "--workers",
                type=int,
                default=1,
                help="pre-fork this many worker processes sharing the port "
                "(1 = single process, no supervisor)",
            ),
            arg(
                "--request-timeout",
                type=float,
                default=10.0,
                metavar="SECONDS",
                help="per-request deadline; past it the client gets 503 + "
                "Retry-After (0 disables)",
            ),
            arg(
                "--idle-timeout",
                type=float,
                default=30.0,
                metavar="SECONDS",
                help="close keep-alive sockets idle this long (0 disables)",
            ),
            arg(
                "--max-inflight",
                type=int,
                default=128,
                metavar="N",
                help="in-flight request ceiling per worker; excess load is "
                "shed with 503 + Retry-After",
            ),
            arg(
                "--no-reuse-port",
                action="store_true",
                help="force the inherited-fd socket mode even where "
                "SO_REUSEPORT is available (supervisor mode only)",
            ),
        ),
    ),
    Command(
        name="explore",
        help="batched exhaustive exploration on the prefix-sharing engine",
        handler=_cmd_explore,
        groups=("json",),
        args=(
            arg(
                "--tasks",
                default="all",
                help="comma-separated registry names, or 'all' (default)",
            ),
            arg("--n", type=int, nargs="+", default=(2, 3), help="system sizes"),
            arg(
                "--max-runs",
                type=int,
                default=None,
                help="per-job budget on materialized runs (memoized logical "
                "runs are free)",
            ),
        ),
    ),
    Command(
        name="verify",
        help="one-shot artifact acceptance check",
        handler=_cmd_verify,
    ),
)


def _register(parser_factory, command: Command) -> None:
    parser = parser_factory.add_parser(command.name, help=command.help)
    mutex_groups: dict[str, argparse._MutuallyExclusiveGroup] = {}
    for group_name in command.groups:
        for one in SHARED_GROUPS[group_name]:
            parser.add_argument(*one.flags, **one.options)
    for one in command.args:
        if one.mutex is not None:
            group = mutex_groups.get(one.mutex)
            if group is None:
                group = parser.add_mutually_exclusive_group(required=True)
                mutex_groups[one.mutex] = group
            group.add_argument(*one.flags, **one.options)
        else:
            parser.add_argument(*one.flags, **one.options)
    if command.subcommands:
        nested = parser.add_subparsers(dest=command.sub_dest, required=True)
        for sub in command.subcommands:
            _register(nested, sub)
    if command.handler is not None:
        parser.set_defaults(handler=command.handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Universe of Symmetry Breaking Tasks'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        _register(subparsers, command)
    return parser


#: ``(COMMANDS, the parser built from them)``, filled by :func:`_parser`.
_parser_cache: tuple[tuple[Command, ...], argparse.ArgumentParser] | None = None


def _parser() -> argparse.ArgumentParser:
    """The argparse tree for :data:`COMMANDS`, built on first use.

    Building it takes ~5 ms and leaves a cyclic tree for the collector,
    so every :func:`main` call in a process reuses one parser for as
    long as ``COMMANDS`` is the same table.
    """
    global _parser_cache
    if _parser_cache is None or _parser_cache[0] is not COMMANDS:
        _parser_cache = (COMMANDS, build_parser())
    return _parser_cache[1]


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Batch commands run with the cyclic collector paused: reference
    # counting frees the program's own (acyclic) structures at once, and
    # a full collection over a big working set finds nothing to free.
    # Only reference cycles wait, and only until the command returns.
    # `serve` runs until stopped, and each connection it closes leaves
    # asyncio's socket transport in a reference cycle, so it keeps the
    # collector.
    pause = args.command != "serve" and gc.isenabled()
    if pause:
        gc.disable()
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The stdout consumer (e.g. `--json | head`) closed the pipe.
        # Point stdout at devnull so the interpreter's shutdown flush
        # does not raise again, and exit with the conventional 128+SIGPIPE.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if pause:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
