#!/usr/bin/env python3
"""Benchmark of the ``repro`` command line, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run compiles ``src/repro`` into a bytecode cache under
``.bench_build/perfbench/`` (outside the source tree), warms it with one
untimed operation, then measures.  Every worker, server and client runs
in its own session and is torn down on every exit path (see
``procs.py``).  Workers and servers run on one CPU, beside a speed
probe (``probe.py``); the benchmark's own process keeps to the others.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Workloads (explore and pipeline inputs are fixed; the seed drives only
serve's request stream):

* ``explore-wsb-grh`` — ``explore --tasks wsb-grh --n 4``, serial,
  quotient on, one exploration per fresh worker.  wsb-grh is
  value-pinned, so this is the probe path (``MachineState.probe_step``).
* ``explore-renaming`` — ``explore --tasks renaming --n 6``: the
  value-canonicalization path (``ValueCanonicalizer``).
* ``pipeline`` — in an empty directory, one pass per fresh worker:
  ``universe build --max-n 40 --max-m 6 --close-open --budget 100000``,
  ``sweep run --workers 0 --max-n 4 --sweep-rounds 2``, ``universe
  pack``, ``universe check``.  The sweep stops at n <= 4: ``attack_sat``
  on ``<5,4,0,2>`` at r=2 (which the default ladder enqueues) was
  OOM-killed at ~7.9 GB on an 8 GB machine, a known defect left open.
* ``serve`` — ``python -m repro serve --port 0`` (one process) over a
  packed 40x6 store built untimed before the run, driven by one client
  process on the server's CPU: 1,500 untimed warm-up requests on one
  connection, then phase A, an open loop on 2 keep-alive connections at
  the rate ``--serve-rate`` fixes in the benchmark's command line (500/s,
  a tenth of what the server serves in phase B, so that queueing does
  not amplify the host's slow spells), then phase B, a closed loop on 4
  connections with the client moved to another CPU, which keeps the
  server's CPU busy.  The mix: ~75% in-rectangle ``/decide`` with
  Zipf-skewed raw parameters, ~10% out-of-rectangle ``/decide``
  (n 41-80, the structural fallback), ~8% ``/cones``, ~5%
  ``/reduction-path``, ~2% ``If-None-Match`` revalidations.

End-to-end metrics (``--trace 0``), the same names on every workload.
Every time in them is scaled to a reference CPU speed (see
:data:`REFERENCE_LOOP_MS`): a shared host's virtual CPU runs ~1.45x
slower in some spells than in others, and unscaled times of the same
code spread by 25-30% between runs.

* ``setup_s`` — median time from a worker's launch until it is ready for
  its first timed operation (for serve: spawn, announce line, and one
  warm-up request per endpoint, which finishes the lazy loads);
* ``op_ms`` — median wall time of one operation: an exploration to its
  validated verdict, a pipeline pass to a checked store, or a phase-A
  request from send to full response;
* ``peak_rss_mb`` — median peak RSS of the workers, or the server's;
* ``latency_p50_ms`` / ``latency_p90_ms`` — serve: over every phase-A
  request, each timed from when it was due (3,000 requests at 500/s for
  6 s, 300 beyond the p90; the p99, printed on stderr, is not a metric:
  the host stalls a CPU for 2-20 ms a few times a second, which delays
  1-3% of the requests, so the p99 measures the host); explore and
  pipeline: one command invocation from launch to exit.  With fewer than
  100 samples the tail is the highest percentile that still has ten
  samples beyond it (explore-wsb-grh: 12-30 invocations, so at most
  about the 65th), and the median when fewer than 20 samples exist
  (explore-renaming, pipeline);
* ``throughput_rps`` — correct operations per second: phase-B responses
  for serve, completed operations over the measuring time otherwise.

Every wrong answer, non-zero exit, exception, unexpected status and shed
or timed-out request counts as a failed operation.  The metric names and
units come from ``BENCHMARK.json`` at the root of the checkout.

Per-layer metrics (``--trace 1``) come from separate runs whose workers
wrap the program's layer functions (``layers.py``) and write their
spans when they end.  Layer times are self times per operation (serve:
per phase-A request; ``universe.load`` on serve: per server start).  A
traced run also measures the operation untraced, so
``tracing_overhead_ms`` is traced minus untraced ``op_ms`` (serve:
``latency_p50_ms``), and runs the traced operation twice: any
difference in the deterministic counters fails the run.  A metric that
reads 0 is explained on stderr.
"""

from __future__ import annotations

import argparse
import bisect
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracer  # noqa: E402
from procs import ChildTimeout, Children  # noqa: E402

clock = time.perf_counter

#: workload -> (explore task, n, n of the untimed warm-up exploration)
EXPLORE = {
    "explore-wsb-grh": ("wsb-grh", 4, 3),
    "explore-renaming": ("renaming", 6, 3),
}
WORKLOADS = (*EXPLORE, "pipeline", "serve")

#: Exact exploration outcomes (cross-checked against ``--quotient off``).
EXPLORE_PINS = {
    ("wsb-grh", 4): {"runs": 27_749_755_392, "distinct": 84, "violations": 0},
    ("renaming", 6): {"runs": 137_225_088_000, "distinct": 1_080, "violations": 0},
}

PIPELINE_COMMANDS = (
    ("universe", "build", "--max-n", "40", "--max-m", "6", "--close-open",
     "--budget", "100000"),
    ("sweep", "run", "--workers", "0", "--max-n", "4", "--sweep-rounds", "2"),
    ("universe", "pack"),
    ("universe", "check"),
)
PIPELINE_WARM = (
    ("universe", "build", "--max-n", "6", "--max-m", "3", "--close-open",
     "--budget", "1000"),
    ("sweep", "run", "--workers", "0", "--max-n", "3", "--sweep-rounds", "1"),
    ("universe", "pack"),
    ("universe", "check"),
)
#: Output lines every pipeline pass must print, in command order.
PIPELINE_PINS = (
    ("close-open sweep: 4857 OPEN before, 4857 after (0 closed",
     "store now holds 240 cells, 9056 synonym classes, 14112 containment "
     "edges, 0 close-open overrides"),
    ("sweep finalize: 1 cells closed, 0 more by propagation",
     "  closed <4,3,0,2>"),
    ("compiled 240 cells (9056 nodes, 14112 edges, 4199 certificates, "
     "1 overrides)",),
    ("replayed 4200 graph certificates, 0 cached certificates and 1 "
     "override rows: all OK",),
)
#: The sweep's closure of <4,3,0,2>: a SAT-found 2-round decision map.
CLOSURE_PIN = {
    "solvability": "wait-free solvable",
    "certificate_id": "ce321148192c79375",
    "procedure": "decision-map",
    "tier": 4,
}

#: At least this many timed operations per run, an odd count so that the
#: median is one of them when the operations outlast ``--seconds`` (a
#: pipeline pass always does).  Three passes already make a pipeline run
#: last over a minute on a slow machine.
MIN_OPS = {"explore-wsb-grh": 5, "explore-renaming": 3, "pipeline": 3}
#: Timed server set-ups per serve run (after one untimed warm-up start).
SERVE_SETUPS = 5
#: Share of ``--seconds`` given to serve's open-loop phase A.
PHASE_A_SHARE = 0.6
#: Phase B's connections: enough that the server always has a request
#: waiting, so its CPU stays busy and phase B measures the server's
#: capacity on that CPU rather than wake-ups between the two CPUs.
PHASE_B_CONNECTIONS = 4
#: Untimed requests sent one at a time before phase A: they pay the
#: collector's debt from loading the graph and warm the hottest keys, as
#: a long-running server would have, without any race between the two
#: connections over the same cold key.
WARM_REQUESTS = 1500
#: Every worker and server runs on one CPU, the one the speed probe
#: samples; the benchmark's own process keeps to the others, and so does
#: the load client in serve's phase B.
_CPUS = sorted(os.sched_getaffinity(0))
WORK_CPUS = {_CPUS[0]}
BENCH_CPUS = set(_CPUS[1:]) or WORK_CPUS
#: Every time metric is scaled to the speed at which the probe's loop
#: (``probe.py``) takes this long, from the probe's samples over the
#: interval the time was measured in: the CPU a shared host lends runs
#: ~1.45x slower in some spells than in others, which would otherwise
#: be most of the spread between runs.  ~0.2 ms is the loop's time on a
#: fast spell of the 2-vCPU x86 machine these workloads were sized on.
REFERENCE_LOOP_MS = 0.2
MIN_PROBE_SAMPLES = 4
#: Stop starting operations this long after the run began.
RUN_BUDGET_S = 140.0
OP_TIMEOUT_S = 120.0


def python(*argv: str) -> list[str]:
    """A command line for this interpreter (not a ``python3`` shim)."""
    return [sys.executable, *argv]


class CheckFailed(Exception):
    """An operation's output differs from what it must be."""


def median(values):
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values) -> float:
    """The 90th percentile, or the highest lower percentile that still has
    ten samples beyond it; the median when not even that exists."""
    ordered = sorted(values)
    rank = min(math.ceil(0.9 * len(ordered)), len(ordered) - 10)
    if rank < math.ceil(len(ordered) / 2):
        return median(ordered)
    return ordered[rank - 1]


@dataclass
class Op:
    """One fresh-worker operation as the parent saw it.  Its times are
    ``clock()`` readings; the worker's ``started`` is on the same clock."""

    launched: float
    ready: float
    ended: float
    #: when the worker began its first command, and its commands' time
    started: float
    seconds: float
    rss_mb: float
    exits: list
    outputs: list[str]
    trace_path: str | None = None

    @property
    def finished(self) -> float:
        return self.started + self.seconds


class Speed:
    """How fast the workload's CPU ran when, from the probe's samples.

    ``factor(start, end)`` is :data:`REFERENCE_LOOP_MS` over the probe's
    mean loop time in ``[start, end]`` (widened until it holds
    :data:`MIN_PROBE_SAMPLES`): a time measured over that interval, times
    the factor, is the time at the reference speed.
    """

    def __init__(self, samples):
        if not samples:
            raise CheckFailed("the speed probe recorded nothing")
        self.times = [t for t, _ in samples]
        self.loops = [ms for _, ms in samples]

    def factor(self, start: float, end: float) -> float:
        pad = 0.0
        while True:
            low = bisect.bisect_left(self.times, start - pad)
            high = bisect.bisect_right(self.times, end + pad)
            if high - low >= MIN_PROBE_SAMPLES or (low == 0 and high == len(self.times)):
                break
            pad = max(2 * pad, 0.05)
        return REFERENCE_LOOP_MS / statistics.fmean(self.loops[low:high])


@dataclass
class Bench:
    workload: str
    seed: int
    seconds: float
    rate: float
    root: Path
    tmp: Path
    children: Children
    #: name -> unit of every metric this run reports (BENCHMARK.json)
    units: dict[str, str]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    started: float = field(default_factory=clock)

    # -- bookkeeping -----------------------------------------------------

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def start_probe(self) -> None:
        """Start sampling the workload CPU's speed (see :class:`Speed`)."""
        self.probe_path = self.path("probe.json")
        self.probe = self.children.spawn(
            python(str(HERE / "probe.py"), self.probe_path),
            stdout_pipe=False,
            cpus=WORK_CPUS,
        )

    def speed(self) -> Speed:
        """Stop the probe (SIGTERM makes it write its samples)."""
        self.children.reap(self.probe)
        with open(self.probe_path) as source:
            return Speed(json.load(source))

    def out_of_time(self) -> bool:
        return clock() - self.started > RUN_BUDGET_S

    def path(self, name: str) -> str:
        return str(self.tmp / name)

    # -- processes -------------------------------------------------------

    def build(self) -> None:
        """Compile the program into the run's bytecode cache."""
        child = self.children.spawn(
            python("-m", "compileall", "-q", str(self.root / "src" / "repro")),
            stdout_pipe=False,
        )
        child.wait_exit(OP_TIMEOUT_S)
        if self.children.reap(child) != 0:
            raise RuntimeError("compiling src/repro failed")

    def worker(self, commands, imports, name: str, trace: bool = False) -> Op:
        """Run ``commands`` through ``main(argv)`` in one fresh worker."""
        capture = self.path(name + ".out")
        trace_path = self.path(name + ".trace") if trace else None
        spec = {
            "commands": [list(argv) for argv in commands],
            "imports": list(imports),
            "capture": capture,
            "trace": trace_path,
            "ready": True,
        }
        launched = clock()
        deadline = launched + OP_TIMEOUT_S
        child = self.children.spawn(
            python(str(HERE / "launcher.py"), json.dumps(spec)), cpus=WORK_CPUS
        )
        try:
            json.loads(child.read_line(deadline))
            ready = clock()
            report = json.loads(child.read_line(deadline))
            child.wait_exit(max(0.0, deadline - clock()))
        finally:
            code = self.children.reap(child)
        ended = clock()
        ops = report["ops"]
        exits = [op["exit"] for op in ops] + ([] if code == 0 else [f"worker {code}"])
        outputs = []
        for index in range(len(ops)):
            with open(f"{capture}.{index}") as source:
                outputs.append(source.read())
        return Op(
            launched=launched,
            ready=ready,
            ended=ended,
            started=ops[0]["started"] if ops else ready,
            seconds=sum(op["seconds"] for op in ops),
            rss_mb=child.maxrss_kb / 1024,
            exits=exits,
            outputs=outputs,
            trace_path=trace_path,
        )

    def repeat(self, operation, min_ops: int, seconds: float | None = None):
        """Run fresh-worker operations for ``seconds`` (default
        ``--seconds``), at least ``min_ops`` of them; returns the correct
        ones and when the measuring began and ended."""
        seconds = self.seconds if seconds is None else seconds
        good: list[Op] = []
        started = clock()
        index = 0
        while index < min_ops or clock() - started < seconds:
            if self.out_of_time():
                self.fail(f"run budget spent after {index} operations")
                break
            self.attempted += 1
            try:
                good.append(operation(index))
            except (CheckFailed, ChildTimeout, EOFError, ValueError, KeyError,
                    OSError) as error:
                self.fail(f"operation {index}: {error}")
            index += 1
        return good, (started, clock())

    # -- results ---------------------------------------------------------

    def result(self, values: dict[str, float]) -> dict:
        """The result line; ``values`` holds every metric, or none at all
        when the run failed."""
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in self.units.items()
            } if values else {},
        }


def op_ms(op: Op, speed: Speed) -> float:
    return op.seconds * 1000 * speed.factor(op.started, op.finished)


def e2e_from_ops(ops: list[Op], window: tuple[float, float], speed: Speed) -> dict[str, float]:
    if not ops:
        raise CheckFailed("no operation succeeded")
    walls_ms = [(op.ended - op.launched) * 1000 * speed.factor(op.launched, op.ended)
                for op in ops]
    return {
        "setup_s": median([(op.ready - op.launched) * speed.factor(op.launched, op.ready)
                           for op in ops]),
        "op_ms": median([op_ms(op, speed) for op in ops]),
        "peak_rss_mb": median([op.rss_mb for op in ops]),
        "latency_p50_ms": median(walls_ms),
        "latency_p90_ms": tail(walls_ms),
        "throughput_rps": len(ops) / ((window[1] - window[0]) * speed.factor(*window)),
    }


# ======================================================================
# Per-layer metrics from worker traces
# ======================================================================

def layer_totals(trace: tracer.Trace, metrics, keep=None) -> dict[str, float]:
    """Every per-layer metric in ``metrics`` as a total over the spans and
    counters ``keep`` admits (by request id), before division by the
    operation count."""
    names = trace.names
    own = [0.0] * len(names)
    calls = [0] * len(names)
    for arrays in trace.threads:
        for layer, seconds, rid in zip(arrays["layer"], arrays["self"], arrays["rid"]):
            if keep is None or keep(rid):
                own[layer] += seconds
                calls[layer] += 1
    self_ms = {name: own[i] * 1000 for i, name in enumerate(names)}
    call_counts = dict(zip(names, calls))
    merged: dict[str, float] = {}
    for rid, values in trace.counters.items():
        if keep is None or keep(rid):
            tracer.merge_counters(merged, values)
    counters = {key.removeprefix("max:"): value for key, value in merged.items()}
    totals: dict[str, float] = {}
    for metric in metrics:
        if metric in counters:
            totals[metric] = counters[metric]
        elif metric in layers.CALL_COUNTS:
            totals[metric] = call_counts.get(layers.CALL_COUNTS[metric], 0)
        elif metric == "shm.engine.dfs_self_ms":
            totals[metric] = self_ms.get("shm.engine.dfs", 0.0)
        elif metric.endswith("_calls"):
            totals[metric] = call_counts.get(metric[: -len("_calls")], 0)
        elif metric.endswith("_ms"):
            totals[metric] = self_ms.get(metric[: -len("_ms")], 0.0)
        else:
            totals[metric] = 0
    totals["layers_self_ms"] = sum(self_ms.values())
    return totals


def compare_counts(first: dict, second: dict) -> list[str]:
    return [
        f"{name}: {first.get(name)} != {second.get(name)}"
        for name in layers.DETERMINISTIC
        if first.get(name) != second.get(name)
    ]


def average(totals: list[dict], ops: float) -> dict[str, float]:
    """Per-operation value of every per-layer metric, over the traced runs."""
    return {
        metric: sum(t.get(metric, 0) for t in totals) / len(totals) / ops
        for metric in totals[0]
    }


def finish_layers(bench: Bench, totals: list[dict], values: dict) -> dict:
    """Check the traced runs' counters agree; explain every zero."""
    for other in totals[1:]:
        mismatches = compare_counts(totals[0], other)
        if mismatches:
            bench.fail("traced runs disagree on " + "; ".join(mismatches))
    nodes, hits = values["shm.engine.nodes"], values["shm.engine.memo_hits"]
    values["shm.engine.hit_ratio"] = hits / (hits + nodes) if nodes + hits else 0.0
    values["shm.engine.peak_stack"] = max(t.get("shm.engine.peak_stack", 0) for t in totals)
    for metric in bench.units:
        if values[metric] == 0:
            reason = layers.zero_reason(metric, bench.workload) or "no reason recorded"
            print(f"zero: {metric} on {bench.workload}: {reason}", file=sys.stderr)
    return values


def traced_worker_layers(bench: Bench, untraced: list[Op], traced: list[Op],
                         speed: Speed) -> dict:
    totals = []
    for op in traced:
        trace = tracer.load(op.trace_path)
        total = layer_totals(trace, bench.units)
        total["other_ms"] = op.seconds * 1000 - total["layers_self_ms"]
        totals.append(total)
    values = average(totals, 1)
    values["tracing_overhead_ms"] = (median([op_ms(op, speed) for op in traced])
                                     - median([op_ms(op, speed) for op in untraced]))
    return finish_layers(bench, totals, values)


# ======================================================================
# explore
# ======================================================================

EXPLORE_IMPORTS = ("repro.analysis", "repro.shm.engine")


def explore_argv(task: str, n: int, json_path: str) -> list[str]:
    return ["explore", "--tasks", task, "--n", str(n), "--json", json_path]


def explore_op(bench: Bench, task: str, n: int, name: str, trace: bool = False) -> Op:
    json_path = bench.path(name + ".json")
    op = bench.worker([explore_argv(task, n, json_path)], EXPLORE_IMPORTS, name, trace)
    if op.exits != [0]:
        raise CheckFailed(f"explore exited {op.exits}")
    if (task, n) not in EXPLORE_PINS:  # the untimed warm-up
        return op
    with open(json_path) as source:
        (result,) = json.load(source)["results"]
    got = {key: result[key] for key in ("runs", "distinct", "violations")}
    if got != EXPLORE_PINS[(task, n)]:
        raise CheckFailed(f"explore {task} n={n} gave {got}")
    return op


def run_explore(bench: Bench, trace: bool) -> dict:
    task, n, warm_n = EXPLORE[bench.workload]
    bench.build()
    bench.start_probe()
    bench.attempted += 1
    explore_op(bench, task, warm_n, "warm")
    if not trace:
        ops, window = bench.repeat(
            lambda i: explore_op(bench, task, n, f"op{i}"), MIN_OPS[bench.workload]
        )
        return bench.result(e2e_from_ops(ops, window, bench.speed()))
    untraced, _ = bench.repeat(lambda i: explore_op(bench, task, n, f"plain{i}"), 3, 0)
    traced, _ = bench.repeat(lambda i: explore_op(bench, task, n, f"traced{i}", True), 2, 0)
    if len(traced) < 2 or not untraced:
        raise CheckFailed("traced explorations failed")
    return bench.result(traced_worker_layers(bench, untraced, traced, bench.speed()))


# ======================================================================
# pipeline
# ======================================================================

PIPELINE_IMPORTS = ("repro.universe", "repro.decision", "repro.sweep")


def pipeline_op(bench: Bench, name: str, commands=PIPELINE_COMMANDS, trace: bool = False) -> Op:
    store = bench.path(name + ".store")
    os.mkdir(store)
    argvs = [[*argv, "--dir", store] for argv in commands]
    try:
        op = bench.worker(argvs, PIPELINE_IMPORTS, name, trace)
        if op.exits != [0] * len(commands):
            raise CheckFailed(f"pipeline exited {op.exits}")
        if commands is PIPELINE_COMMANDS:
            check_pipeline(op, store)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return op


def check_pipeline(op: Op, store: str) -> None:
    for argv, output, pins in zip(PIPELINE_COMMANDS, op.outputs, PIPELINE_PINS):
        for pin in pins:
            if pin not in output:
                raise CheckFailed(f"`{' '.join(argv[:2])}` did not print {pin!r}")
    with open(os.path.join(store, "overrides.json")) as source:
        rows = json.load(source)["overrides"]
    if set(rows) != {"4,3,0,2"}:
        raise CheckFailed(f"override rows {sorted(rows)}")
    row = rows["4,3,0,2"]
    got = {key: row.get(key) for key in CLOSURE_PIN}
    certificate = row.get("certificate", {})
    if got != CLOSURE_PIN or certificate.get("rounds") != 2:
        raise CheckFailed(f"<4,3,0,2> closure is {got}, rounds {certificate.get('rounds')}")


def run_pipeline(bench: Bench, trace: bool) -> dict:
    bench.build()
    bench.start_probe()
    bench.attempted += 1
    pipeline_op(bench, "warm", PIPELINE_WARM)
    if not trace:
        ops, window = bench.repeat(lambda i: pipeline_op(bench, f"op{i}"), MIN_OPS["pipeline"])
        return bench.result(e2e_from_ops(ops, window, bench.speed()))
    untraced, _ = bench.repeat(lambda i: pipeline_op(bench, f"plain{i}"), 1, 0)
    traced, _ = bench.repeat(lambda i: pipeline_op(bench, f"traced{i}", trace=True), 2, 0)
    if len(traced) < 2 or not untraced:
        raise CheckFailed("traced pipeline passes failed")
    return bench.result(traced_worker_layers(bench, untraced, traced, bench.speed()))


# ======================================================================
# serve
# ======================================================================

STORE_COMMANDS = (
    ("universe", "build", "--max-n", "40", "--max-m", "6"),
    ("universe", "pack"),
)
#: One request per endpoint the mix uses: pack open, the fallback
#: pipeline, and graph assembly all happen here, before timing.
WARMUP_TARGETS = (
    "/decide?n=12&m=3&low=2&high=6",
    "/decide?n=57&m=4&low=3&high=20",
    "/cones?n=12&m=3&low=2&high=6",
    "/reduction-path?source=12,3,2,6&target=12,3,0,12",
)
#: Fixed popularity order of the in-rectangle parameters; the seed only
#: draws from it, so every seed sees the same skew over the same keys.
POPULARITY_SEED = 2011
ZIPF_S = 1.0


def feasible_params(n_range, max_m: int) -> list[tuple[int, int, int, int]]:
    params = []
    for n in n_range:
        for m in range(1, max_m + 1):
            for low in range(0, n // m + 1):
                for high in range(-(-n // m), n + 1):
                    params.append((n, m, low, high))
    return params


def decide_target(params) -> str:
    return "/decide?n={}&m={}&low={}&high={}".format(*params)


def serve_plan(seed: int, rate: float, seconds_a: float, seconds_b: float,
               include_b: bool = True) -> tuple[dict, list]:
    """The seeded request stream: targets, priming list and phases."""
    inside = feasible_params(range(1, 41), 6)
    random.Random(POPULARITY_SEED).shuffle(inside)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(inside))]
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)
    rng = random.Random(seed)
    targets: dict[str, int] = {}
    kinds: list[tuple] = []

    def target(path: str, kind: tuple) -> int:
        if path not in targets:
            targets[path] = len(targets)
            kinds.append(kind)
        return targets[path]

    def zipf():
        return rng.choices(inside, cum_weights=cumulative)[0]

    revalidated = sorted({target(decide_target(p), ("decide", p)) for p in inside[:32]})

    def draw() -> tuple[int, int]:
        u = rng.random()
        if u < 0.75:
            params = zipf()
            return target(decide_target(params), ("decide", params)), 0
        if u < 0.85:
            n, m = rng.randint(41, 80), rng.randint(1, 6)
            low = rng.randint(0, n // m)
            params = (n, m, low, rng.randint(-(-n // m), n))
            return target(decide_target(params), ("decide", params)), 0
        if u < 0.93:
            params = zipf()
            path = "/cones?n={}&m={}&low={}&high={}".format(*params)
            return target(path, ("cones", params)), 0
        if u < 0.98:
            source, goal = zipf(), zipf()
            path = "/reduction-path?source={}&target={}".format(
                ",".join(map(str, source)), ",".join(map(str, goal))
            )
            return target(path, ("path", source, goal)), 0
        return rng.choice(revalidated), rng.choice((1, 2))

    phases = [{
        "name": "W",
        "kind": "closed",
        "connections": 1,
        "count": WARM_REQUESTS,
        "requests": [draw() for _ in range(WARM_REQUESTS)],
    }, {
        "name": "A",
        "kind": "open",
        "connections": 2,
        "rate": rate,
        "requests": [draw() for _ in range(int(rate * seconds_a))],
    }]
    if include_b:
        phases.append({
            "name": "B",
            "kind": "closed",
            "cpus": sorted(BENCH_CPUS),
            "seconds": seconds_b,
            "requests": [draw() for _ in range(int(4000 * seconds_b))],
        })
    plan = {
        "host": "127.0.0.1",
        "connections": PHASE_B_CONNECTIONS,
        "targets": list(targets),
        "priming": revalidated,
        "phases": phases,
    }
    return plan, kinds


class Expected:
    """What each answer must be, computed here from the same store."""

    def __init__(self, store_dir: str):
        from repro.decision.pipeline import DecisionPipeline
        from repro.decision.procedures import DecisionBudget
        from repro.universe import query
        from repro.universe.persist import UniverseStore

        self.query = query
        self.store = UniverseStore.open_readonly(store_dir, backend="auto")
        self.graph = self.store.load_cached()
        self.pipeline = DecisionPipeline(budget=DecisionBudget(max_empirical_n=0), cache=None)

    def payload(self, kind: tuple) -> dict:
        if kind[0] == "decide":
            n, m, low, high = kind[1]
            node = self.store.node_at(n, m, low, high)
            if node is not None:
                return {
                    "task": [n, m, low, high],
                    "canonical": list(node.key),
                    "solvability": node.solvability,
                    "reason": node.reason,
                    "certificate_id": node.certificate_id or None,
                    "source": "universe",
                    "backend": self.store.active_backend,
                }
            verdict = self.pipeline.decide(n, m, low, high)
            return {
                "task": [n, m, low, high],
                "canonical": list(verdict.canonical),
                "solvability": verdict.solvability.value,
                "reason": verdict.reason,
                "certificate_id": verdict.certificate_id or None,
                "source": "pipeline",
                "tier": verdict.tier,
                "procedure": verdict.procedure,
            }
        if kind[0] == "cones":
            key = self.query.resolve_key(self.graph, *kind[1])
            return {
                "key": list(key),
                "harder": [list(k) for k in self.query.harder_cone(self.graph, key)],
                "weaker": [list(k) for k in self.query.weaker_cone(self.graph, key)],
            }
        source = self.query.resolve_key(self.graph, *kind[1])
        goal = self.query.resolve_key(self.graph, *kind[2])
        path = self.query.reduction_path(self.graph, source, goal)
        return {
            "source": list(source),
            "target": list(goal),
            "path": None if path is None else [
                {"source": list(e.source), "target": list(e.target), "kind": e.kind}
                for e in path
            ],
        }


def check_responses(bench: Bench, result: dict, kinds: list, expected: Expected) -> set[int]:
    """Failed request ids: a wrong body, a wrong status, or a 304 that
    does not match (or a 200 that should have been) the target's ETag."""
    fields = {name: index for index, name in enumerate(result["fields"])}
    records = result["records"]
    etags, bodies = result["etags"], result["bodies"]
    target_i, status_i = fields["target"], fields["status"]
    etag_i, body_i, inm_i = fields["etag"], fields["body"], fields["inm"]
    served: dict[int, set] = {}
    for record in records:
        if record[status_i] == 200:
            served.setdefault(record[target_i], set()).add((record[etag_i], record[body_i]))
    wrong_targets = set()
    for target, answers in served.items():
        if len(answers) != 1:
            wrong_targets.add(target)
            continue
        ((_, body),) = answers
        if json.loads(bodies[body]) != expected.payload(kinds[target]):
            wrong_targets.add(target)
    bad = set()
    for record in records:
        target, status = record[target_i], record[status_i]
        sent = etags[record[inm_i]] if record[inm_i] >= 0 else None
        answers = served.get(target)
        current = etags[next(iter(answers))[0]] if answers and len(answers) == 1 else None
        want = 304 if sent is not None and sent == current else 200
        if status != want or target in wrong_targets or (status == 304 and etags[record[etag_i]] != current):
            bad.add(record[fields["rid"]])
    if bad:
        bench.fail(f"{len(bad)} serve requests answered wrongly", count=len(bad))
    return bad


def http_get(port: int, path: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """One serve process, from spawn through warm-up to teardown."""

    def __init__(self, bench: Bench, store: str, trace_name: str | None = None):
        self.bench = bench
        self.trace_path = None
        self.launched = launched = clock()
        argv = ["serve", "--dir", store, "--port", "0"]
        if trace_name is None:
            command = python("-m", "repro", *argv)
        else:
            self.trace_path = bench.path(trace_name + ".trace")
            spec = {"commands": [argv], "imports": [], "capture": None,
                    "trace": self.trace_path, "ready": False}
            command = python(str(HERE / "launcher.py"), json.dumps(spec))
        self.child = bench.children.spawn(command, cpus=WORK_CPUS)
        announce = self.child.read_line(launched + OP_TIMEOUT_S)
        match = re.search(r"http://[\d.]+:(\d+)", announce)
        if match is None:
            raise CheckFailed(f"unexpected announce line {announce!r}")
        self.port = int(match.group(1))
        for target in WARMUP_TARGETS:
            bench.attempted += 1
            status, _ = http_get(self.port, target)
            if status != 200:
                raise CheckFailed(f"warm-up {target} got {status}")
        self.ready = clock()

    def rejects(self) -> int:
        status, body = http_get(self.port, "/stats")
        if status != 200:
            raise CheckFailed(f"/stats got {status}")
        transport = json.loads(body)["transport"]
        return sum(transport.get(key, 0) for key in ("shed", "timeouts", "malformed"))

    def stop(self) -> float:
        """Tear down; returns the server's peak RSS in MB.  A traced
        server gets SIGINT first, so it returns from ``main`` and writes
        its spans."""
        if self.trace_path is not None:
            self.child.send_signal(signal.SIGINT)
            self.child.wait_exit(15.0)
        self.bench.children.reap(self.child)
        return self.child.maxrss_kb / 1024


def run_client(bench: Bench, plan: dict, name: str) -> dict:
    plan_path, result_path = bench.path(name + ".plan.json"), bench.path(name + ".result.json")
    with open(plan_path, "w") as out:
        json.dump(plan, out)
    child = bench.children.spawn(
        python(str(HERE / "client.py"), plan_path, result_path),
        stdout_pipe=False,
        cpus=WORK_CPUS,
    )
    child.wait_exit(bench.seconds + 90)
    if bench.children.reap(child) != 0:
        raise CheckFailed("the load client failed")
    with open(result_path) as source:
        return json.load(source)


def phase_records(result: dict, name: str) -> list[list]:
    phase = [p["name"] for p in result["phases"]].index(name)
    index = result["fields"].index("phase")
    return [record for record in result["records"] if record[index] == phase]


def phase_window(result: dict, name: str) -> tuple[float, float]:
    phase = next(p for p in result["phases"] if p["name"] == name)
    return phase["started"], phase["started"] + phase["seconds"]


def phase_a_latency(result: dict, speed: Speed, since: str = "due") -> list[float]:
    """Phase-A latencies in ms, each request timed from when it was due
    (or from when it was ``sent``)."""
    fields = {name: index for index, name in enumerate(result["fields"])}
    start, done = fields[since], fields["done"]
    factor = speed.factor(*phase_window(result, "A"))
    return [(r[done] - r[start]) * 1000 * factor for r in phase_records(result, "A")]


def build_store(bench: Bench) -> str:
    store = bench.path("store")
    os.mkdir(store)
    op = bench.worker([[*argv, "--dir", store] for argv in STORE_COMMANDS],
                      ("repro.universe",), "store")
    if op.exits != [0, 0] or "compiled 240 cells (9056 nodes" not in op.outputs[1]:
        raise RuntimeError(f"building the serve store failed: {op.exits}")
    return store


def serve_session(bench: Bench, server: Server, plan: dict, kinds: list,
                  expected: Expected, name: str) -> tuple[dict, set, int]:
    result = run_client(bench, dict(plan, port=server.port), name)
    bench.attempted += len(result["records"])
    rejects = server.rejects()
    if rejects:
        bench.fail(f"server shed, timed out or rejected {rejects} requests", count=rejects)
    bad = check_responses(bench, result, kinds, expected)
    return result, bad, rejects


def run_serve(bench: Bench, trace: bool) -> dict:
    bench.build()
    store = build_store(bench)
    expected = Expected(store)
    seconds_a = bench.seconds * PHASE_A_SHARE
    seconds_b = bench.seconds - seconds_a
    plan, kinds = serve_plan(bench.seed, bench.rate, seconds_a, seconds_b, include_b=not trace)
    bench.start_probe()
    Server(bench, store).stop()  # untimed: fills the bytecode cache
    if trace:
        return serve_traced(bench, store, plan, kinds, expected)
    servers = []
    for index in range(SERVE_SETUPS):
        if servers:
            servers[-1].stop()
        servers.append(Server(bench, store))
    result, bad, _ = serve_session(bench, servers[-1], plan, kinds, expected, "client")
    rss_mb = servers[-1].stop()
    speed = bench.speed()

    latencies = phase_a_latency(result, speed)
    rid = result["fields"].index("rid")
    records_b = phase_records(result, "B")
    window_b = phase_window(result, "B")
    good_b = sum(1 for r in records_b if r[rid] not in bad)
    seconds_b_run = window_b[1] - window_b[0]
    print(f"serve: {len(latencies)} phase-A requests at {bench.rate:g}/s "
          f"(p99 {percentile(latencies, 0.99):.3f} ms), "
          f"{len(records_b)} phase-B requests in {seconds_b_run:.2f}s",
          file=sys.stderr)
    return bench.result({
        "setup_s": median([(s.ready - s.launched) * speed.factor(s.launched, s.ready)
                           for s in servers]),
        "op_ms": median(phase_a_latency(result, speed, since="sent")),
        "peak_rss_mb": rss_mb,
        "latency_p50_ms": median(latencies),
        "latency_p90_ms": percentile(latencies, 0.9),
        "throughput_rps": good_b / (seconds_b_run * speed.factor(*window_b)),
    })


def serve_traced(bench: Bench, store: str, plan: dict, kinds: list,
                 expected: Expected) -> dict:
    server = Server(bench, store)
    baseline, _, _ = serve_session(bench, server, plan, kinds, expected, "plain")
    server.stop()
    fields = {name: index for index, name in enumerate(baseline["fields"])}
    rid_i, due, sent, done = fields["rid"], fields["due"], fields["sent"], fields["done"]
    totals, setups, results, transport, other, late, cpu, rejects = ([] for _ in range(8))
    for index in range(2):
        server = Server(bench, store, trace_name=f"traced{index}")
        try:
            result, _, shed = serve_session(bench, server, plan, kinds, expected, f"traced{index}")
        finally:
            server.stop()
        records = phase_records(result, "A")
        observed = {r[rid_i]: r[done] - r[sent] for r in records}
        trace = tracer.load(server.trace_path)
        totals.append(layer_totals(trace, bench.units, keep=observed.__contains__))
        setups.append(layer_totals(trace, bench.units, keep=lambda rid: rid < 0))
        handle_id = trace.names.index("serve.handle")
        handle_s: dict[int, float] = {}
        self_s: dict[int, float] = {}
        for arrays in trace.threads:
            for layer, start, end, own, rid in zip(
                arrays["layer"], arrays["start"], arrays["end"], arrays["self"], arrays["rid"]
            ):
                if rid in observed:
                    self_s[rid] = self_s.get(rid, 0.0) + own
                    if layer == handle_id:
                        handle_s[rid] = end - start
        if len(handle_s) != len(records):
            bench.fail(f"{len(records) - len(handle_s)} requests left no handle span")
        transport.append(median([(observed[r] - handle_s[r]) * 1000 for r in handle_s]))
        other.append(median([(observed[r] - self_s[r]) * 1000 for r in self_s]))
        results.append(result)
        late.append(percentile([(r[sent] - r[due]) * 1000 for r in records], 0.99))
        phase_a = next(p for p in result["phases"] if p["name"] == "A")
        cpu.append(phase_a["cpu_seconds"] * 1000 / len(records))
        rejects.append(shed)
    speed = bench.speed()
    base_p50 = median(phase_a_latency(baseline, speed))
    p50s = [median(phase_a_latency(result, speed)) for result in results]
    values = average(totals, len(records))
    # The store is loaded once per server start, during warm-up: report
    # that per start rather than per request.
    per_start = average(setups, 1)
    for metric in ("universe.load_ms", "universe.load_calls"):
        values[metric] = per_start[metric]
    node_at = sum(t["universe.node_at_calls"] for t in totals)
    reads = sum(t["universe.pack_read_calls"] for t in totals)
    values.update({
        "universe.lru_hit_ratio": 1 - reads / node_at if node_at else 0.0,
        "serve.transport_ms": median(transport),
        "serve.rejects": median(rejects),
        "client.late_p99_ms": median(late),
        "client.cpu_ms_per_req": median(cpu),
        "other_ms": median(other),
        "tracing_overhead_ms": median(p50s) - base_p50,
    })
    return bench.result(finish_layers(bench, totals, values))


# ======================================================================

RUNNERS = {
    "explore-wsb-grh": run_explore,
    "explore-renaming": run_explore,
    "pipeline": run_pipeline,
    "serve": run_serve,
}


def print_log_tail(path: Path, lines: int = 30) -> None:
    """Show what the children wrote to stderr, for a failed run."""
    try:
        last = path.read_text(errors="replace").splitlines()[-lines:]
    except OSError:
        return
    for line in last:
        print(f"  | {line}", file=sys.stderr)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-rate", type=float, required=True,
                        help="phase-A open-loop rate of the serve workload (requests/s)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        print("error: src/repro/__main__.py not found; run from the root of "
              "a repro checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in reported}
    signal.signal(signal.SIGTERM, _terminate)
    os.sched_setaffinity(0, BENCH_CPUS)
    base = root / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=base))
    # This process imports the program too (to check serve's answers):
    # from the run's bytecode cache, never writing into the source tree.
    sys.path.insert(0, str(root / "src"))
    sys.pycache_prefix = str(tmp / "pycache")
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
    try:
        with Children(env, str(tmp), str(tmp / "children.log")) as children:
            bench = Bench(args.workload, args.seed, args.seconds, args.serve_rate,
                          root, tmp, children, units)
            try:
                result = RUNNERS[args.workload](bench, bool(args.trace))
            except (CheckFailed, ChildTimeout, EOFError, OSError, RuntimeError) as error:
                bench.fail(f"{type(error).__name__}: {error}")
                result = bench.result({})
            if bench.problems:
                print_log_tail(tmp / "children.log")
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
