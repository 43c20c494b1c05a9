"""Which requests the event loop answers itself, and its idle timer.

The loop answers a request whose routing is bounded work
(:meth:`UniverseService.bounded`); ``/stats``, ``/batch`` and the first
graph load take a handler thread.  These tests pin that split from both
sides, check that loop and threads answer alike when they route side by
side, and that one idle timer per connection closes an idle connection
but neither a busy one nor one whose request is still being routed.
"""

import http.client
import json
import sys
import threading
import time

import pytest

from repro.serve import BackgroundServer, ServeConfig, UniverseService
from repro.serve.http import request_json
from repro.serve.service import ANSWERS
from repro.testing import FAULTS
from repro.universe import UniverseStore

IN_STORE = "/decide?n=6&m=3&low=1&high=4"
CONES = "/cones?n=6&m=3&low=1&high=4"
PATH = "/reduction-path?source=6,3,0,4&target=6,3,1,4"


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-loop") / "store"
    store = UniverseStore(root)
    store.build(8, 4)
    store.pack()
    return root


@pytest.fixture(autouse=True)
def empty_memo():
    FAULTS.clear()
    ANSWERS.clear()
    yield
    FAULTS.clear()
    ANSWERS.clear()


def fresh_service(root):
    """A service over its own store: scope unsettled, graph not loaded."""
    return UniverseService(UniverseStore(root, backend="binary"))


def record_threads(service):
    """Wrap ``service.handle``; returns the list of (thread, path) it fills."""
    calls = []
    handle = service.handle

    def recording(method, path, *args, **kwargs):
        calls.append((threading.current_thread().name, path))
        return handle(method, path, *args, **kwargs)

    service.handle = recording
    return calls


def on_handler_thread(name):
    return name.startswith("repro-serve-handler-")


def test_bounded_names_the_work_the_loop_may_do(root):
    service = fresh_service(root)
    decide = {"n": "6", "m": "3", "low": "1", "high": "4"}
    assert not service.bounded("GET", "/decide", decide)  # scope unsettled
    service.handle("GET", "/decide", decide)
    for params, inline in [
        (decide, True),  # a cell of the store: one pack row
        ({"n": "25", "m": "5"}, True),  # the structural fallback
        ({"n": str(2**64 - 1), "m": "3"}, True),
        ({"n": str(2**64), "m": "3"}, True),  # a 400: past the gcd bound
        ({"n": "20", "m": "8"}, False),  # tier 3 would assemble a row
        ({"n": "x", "m": "3"}, True),  # a 400
        ({"m": "3"}, True),
    ]:
        assert service.bounded("GET", "/decide", params) is inline, params
    assert not service.bounded("POST", "/decide", decide)
    for path in ("/stats", "/batch", "/healthz", "/nowhere"):
        assert not service.bounded("GET", path, {}), path
    for path in ("/cones", "/reduction-path", "/frontier"):
        assert not service.bounded("GET", path, decide), path
    service.store.load_cached()
    for path in ("/cones", "/reduction-path", "/frontier"):
        assert service.bounded("GET", path, decide), path
    with FAULTS.injected("serve.response.write", lambda context: None):
        assert not service.bounded("GET", "/decide", decide)
        assert not service.bounded("GET", "/cones", decide)


@pytest.mark.parametrize(
    "params",
    [
        (100000, 40, 100, 20000),  # 50,000 binomials of up to 100,000 bits
        (100000, 3, 0, 60000),  # l* = 0: tier 2 has 2n siblings to classify
        (1000003, 40, 100, 200000),
        (2**63 - 25, 3, 0, 2**62),
    ],
)
def test_large_n_fallback_decides_route_in_under_a_second(root, params):
    service = fresh_service(root)
    query = dict(zip(("n", "m", "low", "high"), map(str, params)))
    assert service.bounded("GET", "/decide", query) is False  # unsettled
    service.store.read_scope(resolve=True)
    assert service.bounded("GET", "/decide", query)
    started = time.perf_counter()
    response = service.handle("GET", "/decide", query)
    assert time.perf_counter() - started < 1.0
    assert response.status == 200
    assert response.payload["source"] == "pipeline"


@pytest.mark.parametrize("n", [2**64, 2**64 + 1])
def test_decide_past_the_gcd_bound_is_a_400_on_the_loop(root, n):
    # Theorem 10's gcd from every binomial never returns at this size:
    # the answer names the bound instead, before the fallback runs.
    service = fresh_service(root)
    calls = record_threads(service)
    target = f"/decide?n={n}&m={2 * n - 2}&low=0&high=1"
    with BackgroundServer(root, service=service) as server:
        assert server.get(IN_STORE)[0] == 200  # settles the scope
        started = time.perf_counter()
        status, _, payload = request_json(
            server.host, server.port, "GET", target, timeout=5
        )
        assert time.perf_counter() - started < 1.0
    assert status == 400
    assert "2**64" in payload["error"] and str(n) in payload["error"]
    assert calls[-1][1] == "/decide"
    assert not on_handler_thread(calls[-1][0])


def test_bounded_requests_answer_while_the_only_handler_thread_is_held(root):
    service = fresh_service(root)
    entered, release = threading.Event(), threading.Event()
    stats = service._stats

    def slow_stats():
        entered.set()
        release.wait(timeout=30)
        return stats()

    service._stats = slow_stats
    config = ServeConfig(handler_threads=1)
    with BackgroundServer(root, service=service, config=config) as server:
        for target in (IN_STORE, CONES):  # settle the scope, load the graph
            assert server.get(target)[0] == 200
        held = threading.Thread(target=server.get, args=("/stats",))
        held.start()
        try:
            assert entered.wait(timeout=10)
            for target in (
                "/decide?n=7&m=2&low=0&high=7",  # in the store, a memo miss
                "/decide?n=25&m=5&low=1&high=25",  # the structural fallback
                "/decide?n=1000003&m=40&low=100&high=200000",
                "/cones?n=8&m=4&low=1&high=5",
                PATH,
            ):
                status, _, payload = request_json(
                    server.host, server.port, "GET", target, timeout=5
                )
                assert status == 200, (target, payload)
            assert server.state.inflight == 1  # only /stats holds a slot
        finally:
            release.set()
            held.join(timeout=30)
    assert not held.is_alive()


def test_the_first_graph_load_runs_on_a_handler_thread(root):
    service = fresh_service(root)
    loads = []
    load = service.store.load

    def recording_load(*args, **kwargs):
        loads.append(threading.current_thread().name)
        return load(*args, **kwargs)

    service.store.load = recording_load
    calls = record_threads(service)
    with BackgroundServer(root, service=service) as server:
        assert server.get(IN_STORE)[0] == 200  # settles the scope
        for target in (CONES, PATH, "/frontier", PATH):
            assert server.get(target)[0] == 200
    assert len(loads) == 1 and on_handler_thread(loads[0])
    threads = [name for name, _ in calls]
    assert on_handler_thread(threads[0])  # the scope was unsettled
    assert on_handler_thread(threads[1])  # the graph was not loaded
    assert threads[2:] == ["repro-serve"] * 3


def test_loop_and_threads_answer_alike_under_churn(root):
    """More clients than cores, the interpreter switching threads as
    often as it can, on one fresh service: loop answers (decides in and
    outside the store, cones, paths), ``/batch`` rows on the threads and
    the graph's cold load race each other, and every answer equals the
    single-threaded one."""
    decides = [
        {"n": str(n), "m": str(m), "low": str(low), "high": str(high)}
        for n, m, low, high in [
            (6, 3, 1, 4), (7, 2, 0, 7), (8, 4, 1, 5), (25, 5, 1, 25),
            (41, 6, 0, 30), (64, 3, 0, 40), (1000003, 40, 100, 200000),
        ]
    ]
    requests = [("decide", params) for params in decides] + [
        ("cones", decides[0]),
        ("cones", dict(decides[2], direction="weaker")),
        ("reduction-path", {"source": "6,3,0,4", "target": "6,3,1,4"}),
        ("reduction-path", {"source": "8,4,1,5", "target": "8,2,0,8"}),
        ("frontier", {}),
    ]
    reference = fresh_service(root)
    expected = []
    for endpoint, params in requests:
        response = reference.handle("GET", f"/{endpoint}", dict(params))
        expected.append((response.status, response.etag, response.payload))
    ANSWERS.clear()
    targets = [
        f"/{endpoint}?" + "&".join(f"{k}={v}" for k, v in params.items())
        for endpoint, params in requests
    ]
    batch = {
        "requests": [
            {"endpoint": endpoint, "params": params}
            for endpoint, params in requests
        ]
    }
    clients, deadline = 6, time.monotonic() + 3.0
    failures: list[str] = []
    service = fresh_service(root)
    calls = record_threads(service)

    def client(worker: int) -> None:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            for index in range(len(targets) * 4):
                if index and time.monotonic() > deadline:
                    break
                if (worker + index) % 5 == 0:
                    body = json.dumps(batch).encode()
                    connection.request("POST", "/batch", body=body)
                    response = connection.getresponse()
                    rows = json.loads(response.read())["responses"]
                    got = [(row["status"], row["body"]) for row in rows]
                    want = [(status, payload) for status, _, payload in expected]
                    if response.status != 200 or got != want:
                        failures.append(f"worker {worker}: /batch")
                    continue
                at = (worker * 3 + index) % len(targets)
                connection.request("GET", targets[at])
                response = connection.getresponse()
                got = (
                    response.status,
                    response.getheader("ETag"),
                    json.loads(response.read()),
                )
                if got != expected[at]:
                    failures.append(f"worker {worker}: {targets[at]} {got[0]}")
        except Exception as error:  # noqa: BLE001 - report, don't hang
            failures.append(f"worker {worker}: {type(error).__name__}: {error}")
        finally:
            connection.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with BackgroundServer(root, service=service) as server:
            threads = [
                threading.Thread(target=client, args=(worker,))
                for worker in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert server.state.inflight == 0
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:10]
    on_loop = [path for name, path in calls if name == "repro-serve"]
    assert on_loop and "/batch" not in on_loop


def test_steady_traffic_keeps_a_connection_past_the_idle_timeout(root):
    """Answers, and a request routed for longer than the idle timeout,
    keep a connection open; once traffic stops the timer closes it."""
    service = fresh_service(root)
    stats = service._stats

    def slow_stats():
        time.sleep(0.8)
        return stats()

    service._stats = slow_stats
    config = ServeConfig(idle_timeout=0.5)
    with BackgroundServer(root, service=service, config=config) as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            started = time.monotonic()
            sock = None
            for target in ["/healthz", IN_STORE] * 6 + ["/stats", IN_STORE]:
                connection.request("GET", target)
                response = connection.getresponse()
                response.read()
                assert response.status == 200, target
                sock = sock or connection.sock
                time.sleep(0.1)
            assert time.monotonic() - started > 3 * config.idle_timeout
            assert connection.sock is sock  # never reconnected
            deadline = time.monotonic() + 10
            while server.service.metrics.transport_snapshot()["idle_closed"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            sock.settimeout(5)
            assert sock.recv(1) == b""  # the idle connection was closed
        finally:
            connection.close()
        _, _, payload = server.get("/stats")
    assert payload["transport"]["idle_closed"] == 1
