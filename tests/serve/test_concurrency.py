"""Many-concurrent-clients smoke over a real socket.

What this pins: the service answers every concurrent client correctly
(each response compared against single-threaded ground truth computed
up front), the per-endpoint metrics account for every request, and the
storm does not corrupt the process-wide hot-cell LRU — lookups after
the storm still serve exactly the JSON backend's answers.
"""

import http.client
import json
import sys
import threading

import pytest

from repro.serve import BackgroundServer, ServeConfig
from repro.universe import UniverseStore

CLIENTS = 8
REQUESTS_PER_CLIENT = 25


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-load") / "store"
    store = UniverseStore(root)
    store.build(8, 4)
    store.pack()
    return root


@pytest.fixture(scope="module")
def node_keys(root):
    graph = UniverseStore(root, backend="json").load()
    return sorted(node.key for node in graph.nodes())


def test_concurrent_decides_are_correct_and_fully_accounted(root, node_keys):
    expected = {}
    reference = UniverseStore(root, backend="json")
    for key in node_keys:
        expected[key] = reference.node_at(*key).solvability

    failures: list[str] = []
    barrier = threading.Barrier(CLIENTS)

    def client(worker: int) -> None:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            barrier.wait(timeout=30)  # all clients hit the server at once
            for index in range(REQUESTS_PER_CLIENT):
                key = node_keys[(worker * 31 + index * 7) % len(node_keys)]
                n, m, low, high = key
                connection.request(
                    "GET", f"/decide?n={n}&m={m}&low={low}&high={high}"
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                if response.status != 200:
                    failures.append(f"{key}: status {response.status}")
                elif payload["solvability"] != expected[key]:
                    failures.append(
                        f"{key}: served {payload['solvability']!r}, "
                        f"expected {expected[key]!r}"
                    )
        except Exception as error:  # noqa: BLE001 - report, don't hang
            failures.append(f"worker {worker}: {type(error).__name__}: {error}")
        finally:
            connection.close()

    with BackgroundServer(root, backend="binary") as server:
        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[:10]

        # Metrics account for every request exactly once.
        status, _, stats = server.get("/stats")
        assert status == 200
        assert (
            stats["endpoints"]["decide"]["requests"]
            == CLIENTS * REQUESTS_PER_CLIENT
        )
        assert stats["endpoints"]["decide"]["errors"] == 0

    # The storm must not have corrupted the shared hot-cell LRU: every
    # post-storm lookup still matches the JSON backend ground truth.
    survivor = UniverseStore(root, backend="binary")
    for key in node_keys:
        assert survivor.node_at(*key).solvability == expected[key]


def test_concurrent_mixed_endpoints(root, node_keys):
    errors: list[str] = []

    def client(worker: int) -> None:
        try:
            for index in range(6):
                kind = (worker + index) % 4
                if kind == 0:
                    n, m, low, high = node_keys[worker % len(node_keys)]
                    status, _, payload = server.get(
                        f"/decide?n={n}&m={m}&low={low}&high={high}"
                    )
                elif kind == 1:
                    status, _, payload = server.get(
                        "/cones?n=6&m=3&low=1&high=4"
                    )
                elif kind == 2:
                    status, _, payload = server.get("/frontier")
                else:
                    status, _, payload = server.post(
                        "/batch",
                        {
                            "requests": [
                                {
                                    "endpoint": "decide",
                                    "params": {
                                        "n": 6, "m": 3, "low": 1, "high": 4,
                                    },
                                },
                                {"endpoint": "frontier", "params": {}},
                            ]
                        },
                    )
                if status != 200:
                    errors.append(f"worker {worker} kind {kind}: {status}")
        except Exception as error:  # noqa: BLE001
            errors.append(f"worker {worker}: {type(error).__name__}: {error}")

    with BackgroundServer(root, backend="binary") as server:
        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not errors, errors[:10]


def test_etag_revalidation_under_concurrency(root):
    """Concurrent revalidations all see the same stable ETag and 304."""
    results: list[tuple[int, str | None]] = []
    lock = threading.Lock()

    def client() -> None:
        status, headers, _ = server.get("/decide?n=6&m=3&low=1&high=4")
        etag = headers.get("ETag")
        status2, _, _ = server.get(
            "/decide?n=6&m=3&low=1&high=4", headers={"If-None-Match": etag}
        )
        with lock:
            results.append((status2, etag))

    with BackgroundServer(root, backend="binary") as server:
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert len(results) == CLIENTS
    statuses = {status for status, _ in results}
    etags = {etag for _, etag in results}
    assert statuses == {304}
    assert len(etags) == 1


def test_handoff_storm_releases_every_inflight_slot(root, node_keys):
    """More clients than handler threads and cores, with the interpreter
    switching threads as often as it can: every request is answered, and
    the in-flight gate, which only the event loop touches, ends at zero."""
    clients, requests = 12, 20
    failures: list[str] = []

    def client(worker: int) -> None:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            for index in range(requests):
                n, m, low, high = node_keys[(worker * 13 + index) % len(node_keys)]
                connection.request(
                    "GET", f"/decide?n={n}&m={m}&low={low}&high={high}"
                )
                response = connection.getresponse()
                response.read()
                if response.status != 200:
                    failures.append(f"worker {worker}: {response.status}")
        except Exception as error:  # noqa: BLE001 - report, don't hang
            failures.append(f"worker {worker}: {type(error).__name__}: {error}")
        finally:
            connection.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        config = ServeConfig(handler_threads=3)
        with BackgroundServer(root, backend="binary", config=config) as server:
            threads = [
                threading.Thread(target=client, args=(worker,))
                for worker in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[:10]
            assert server.state.inflight == 0
            _, _, stats = server.get("/stats")
            assert stats["endpoints"]["decide"]["requests"] == clients * requests
            assert stats["transport"]["shed"] == 0
            assert stats["transport"]["timeouts"] == 0
    finally:
        sys.setswitchinterval(interval)
