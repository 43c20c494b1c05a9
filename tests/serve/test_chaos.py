"""Chaos suite: injected faults must degrade service, never break it.

Each test arms one fault point from :mod:`repro.testing.faults` and pins
the designed failure behavior:

* a request held past its deadline answers ``503`` + ``Retry-After``
  promptly — never a hung connection;
* past the in-flight ceiling new requests are shed with ``503`` while
  ``/healthz`` stays exempt (liveness must outlive overload);
* a torn response write kills that connection only — the next request
  is served normally;
* pack read/row faults demote the binary backend to the JSON shards
  with a loud ``RuntimeWarning`` and the *correct* answer;
* a SIGKILL'd supervisor worker is restarted within the backoff budget
  while requests on surviving connections keep succeeding.
"""

import socket
import threading
import time
import warnings

import pytest

from repro.serve import BackgroundServer, ServeConfig, SupervisedServer
from repro.testing import FAULTS, FaultError
from repro.universe import UniverseStore
from repro.universe.persist import HOT_CELLS

DECIDE = "/decide?n=6&m=3&low=1&high=4"


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-chaos") / "store"
    store = UniverseStore(root)
    store.build(8, 4)
    store.pack()
    return root


@pytest.fixture(scope="module")
def node_keys(root):
    graph = UniverseStore(root, backend="json").load()
    return sorted(node.key for node in graph.nodes())


@pytest.fixture(autouse=True)
def disarmed_faults():
    """No chaos test may leak an armed fault into the next one."""
    FAULTS.clear()
    yield
    FAULTS.clear()


def hold_path(path: str, seconds: float):
    """An action delaying only ``path`` (so /stats stays responsive)."""

    def action(context):
        if context.get("path") == path:
            time.sleep(seconds)

    return action


def raise_fault(context):
    raise FaultError("injected pack failure")


class TestDeadlines:
    def test_held_request_gets_503_retry_after_not_a_hang(self, root):
        config = ServeConfig(request_timeout=0.3, retry_after=7)
        with FAULTS.injected("serve.request.hold", hold_path("/decide", 1.5)):
            with BackgroundServer(root, backend="binary", config=config) as server:
                started = time.monotonic()
                status, headers, payload = server.get(DECIDE)
                elapsed = time.monotonic() - started
                assert status == 503
                assert headers.get("Retry-After") == "7"
                assert "deadline" in payload["error"]
                # Answered at the 0.3s deadline, far before the 1.5s hold
                # releases: the connection never wedged.
                assert elapsed < 1.2
                # A timed-out response closes its connection: a straggler
                # thread finishing late must not desynchronize keep-alive.
                assert headers.get("Connection") == "close"
                _, _, stats = server.get("/stats")
                assert stats["transport"]["timeouts"] >= 1
                # The held request's handler thread routes it once the
                # hold ends: wait for that, so no later test sees it touch
                # the process-wide caches.
                deadline = time.monotonic() + 10
                while "decide" not in server.service.metrics.snapshot():
                    assert time.monotonic() < deadline
                    time.sleep(0.01)

    def test_healthz_answers_while_every_handler_thread_is_wedged(self, root):
        config = ServeConfig(request_timeout=30.0, handler_threads=2)
        with FAULTS.injected("serve.request.hold", hold_path("/decide", 1.0)):
            with BackgroundServer(root, backend="binary", config=config) as server:
                wedgers = [
                    threading.Thread(target=server.get, args=(DECIDE,))
                    for _ in range(config.handler_threads)
                ]
                for thread in wedgers:
                    thread.start()
                time.sleep(0.2)  # both handler threads now hold
                started = time.monotonic()
                status, _, payload = server.get("/healthz")
                assert status == 200 and payload["status"] == "ok"
                assert time.monotonic() - started < 0.5
                for thread in wedgers:
                    thread.join(timeout=30)


class TestLoadShedding:
    def test_requests_past_the_inflight_ceiling_are_shed(self, root):
        config = ServeConfig(request_timeout=10.0, max_inflight=1)
        with FAULTS.injected("serve.request.hold", hold_path("/decide", 1.0)):
            with BackgroundServer(root, backend="binary", config=config) as server:
                holder_result = {}

                def holder():
                    holder_result["response"] = server.get(DECIDE)

                thread = threading.Thread(target=holder)
                thread.start()
                time.sleep(0.3)  # the holder now occupies the one slot
                started = time.monotonic()
                status, headers, payload = server.get(DECIDE)
                assert status == 503
                assert headers.get("Retry-After") == "1"
                assert "shed" in payload["error"]
                assert time.monotonic() - started < 0.5  # shed immediately
                # Liveness is exempt from the shed gate.
                health, _, _ = server.get("/healthz")
                assert health == 200
                thread.join(timeout=30)
                # The held request itself completed fine.
                assert holder_result["response"][0] == 200
                _, _, stats = server.get("/stats")
                assert stats["transport"]["shed"] >= 1

    def test_service_recovers_after_saturation_clears(self, root):
        config = ServeConfig(max_inflight=1)
        with BackgroundServer(root, backend="binary", config=config) as server:
            for _ in range(3):
                status, _, payload = server.get(DECIDE)
                assert status == 200
                assert isinstance(payload["solvability"], str)
                assert payload["solvability"]


class TestTornWrites:
    def test_truncated_response_kills_only_its_connection(self, root):
        truncate = lambda context: context["payload"][:12]  # noqa: E731
        with BackgroundServer(root, backend="binary") as server:
            with FAULTS.injected("serve.response.write", truncate, times=1):
                with socket.create_connection(
                    (server.host, server.port), timeout=10
                ) as sock:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                    blob = b""
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        blob += chunk
                # Exactly the torn prefix, then a hard close.
                assert blob == b"HTTP/1.1 200"
            # The next connection is served in full.
            status, _, payload = server.get("/healthz")
            assert status == 200 and payload["status"] == "ok"

    def test_dropped_response_write(self, root):
        drop = lambda context: b""  # noqa: E731
        with BackgroundServer(root, backend="binary") as server:
            with FAULTS.injected("serve.response.write", drop, times=1):
                with socket.create_connection(
                    (server.host, server.port), timeout=10
                ) as sock:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                    assert sock.recv(65536) == b""  # nothing, then close
            status, _, _ = server.get("/healthz")
            assert status == 200


class TestBackendFaults:
    """Pack faults demote to the JSON shards — loudly, and correctly."""

    def expected(self, root, key):
        HOT_CELLS.clear()
        value = UniverseStore(root, backend="json").node_at(*key).solvability
        HOT_CELLS.clear()
        return value

    def test_pack_unreadable_at_open_falls_back_to_shards(self, root, node_keys):
        key = node_keys[-1]
        expected = self.expected(root, key)
        store = UniverseStore(root, backend="binary")
        with FAULTS.injected("backend.pack.read", raise_fault):
            with pytest.warns(RuntimeWarning, match="falling back to\\s+JSON"):
                node = store.node_at(*key)
        assert node.solvability == expected

    def test_pack_read_failure_mid_stream_falls_back(self, root, node_keys):
        warm_key, cold_key = node_keys[0], node_keys[-2]
        expected = self.expected(root, cold_key)
        store = UniverseStore(root, backend="binary")
        assert store.node_at(*warm_key) is not None  # pack opened and healthy
        with FAULTS.injected("backend.pack.read", raise_fault):
            with pytest.warns(RuntimeWarning, match="pack read failed"):
                node = store.node_at(*cold_key)
        assert node.solvability == expected

    def test_torn_pack_row_falls_back(self, root, node_keys):
        key = node_keys[len(node_keys) // 2]
        expected = self.expected(root, key)
        store = UniverseStore(root, backend="binary")
        corrupt = lambda context: context["payload"][:3]  # invalid JSON  # noqa: E731
        with FAULTS.injected("backend.pack.row", corrupt):
            with pytest.warns(RuntimeWarning, match="pack read failed"):
                node = store.node_at(*key)
        assert node.solvability == expected

    def test_served_requests_stay_200_while_the_pack_faults(self, root):
        HOT_CELLS.clear()
        expected = UniverseStore(root, backend="json").node_at(
            6, 3, 1, 4
        ).solvability
        HOT_CELLS.clear()
        with BackgroundServer(root, backend="binary") as server:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with FAULTS.injected("backend.pack.read", raise_fault):
                    for _ in range(3):
                        status, _, payload = server.get(DECIDE)
                        assert status == 200
                        assert payload["solvability"] == expected


class TestWorkerKillUnderLoad:
    def test_supervisor_absorbs_a_sigkill_under_traffic(self, root):
        with SupervisedServer(root, workers=2, backend="binary") as server:
            stop = threading.Event()
            failures: list[str] = []
            successes = [0]

            def storm(worker: int) -> None:
                while not stop.is_set():
                    try:
                        status, _, payload = server.get(DECIDE)
                    except OSError:
                        # This connection landed on the dying worker —
                        # the one casualty class the model allows.
                        continue
                    if status == 200:
                        successes[0] += 1
                    else:
                        failures.append(f"worker {worker}: status {status}")

            threads = [
                threading.Thread(target=storm, args=(index,))
                for index in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            victim = server.worker_pids()[0]
            server.kill_worker(victim)

            # Restart must land within the backoff budget (first crash
            # restarts after ~0.1s; allow generous CI scheduling slack).
            deadline = time.monotonic() + 10.0
            recovered = False
            while time.monotonic() < deadline:
                try:
                    board = server.stats()["workers"]
                except OSError:
                    time.sleep(0.1)
                    continue
                if board["alive"] == 2 and board["restarts_total"] >= 1:
                    recovered = True
                    break
                time.sleep(0.1)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)

            assert recovered, f"worker never restarted:\n{server.output}"
            assert victim not in server.worker_pids()
            # Every request that reached a live worker succeeded.
            assert not failures, failures[:10]
            assert successes[0] > 0
            server.wait_healthy(10.0)


class TestCleanTeardown:
    """BackgroundServer.__exit__ must provably release thread+loop+port."""

    def test_exit_asserts_clean_thread_and_loop(self, root):
        server = BackgroundServer(root, backend="binary")
        with server:
            status, _, _ = server.get("/healthz")
            assert status == 200
        assert server._thread is not None and not server._thread.is_alive()
        assert server._loop is not None and server._loop.is_closed()

    def test_same_port_reopens_immediately_after_exit(self, root):
        with BackgroundServer(root, backend="binary") as first:
            port = first.port
            assert first.get("/healthz")[0] == 200
        # If __exit__ leaked the socket this second bind would fail.
        with BackgroundServer(root, backend="binary", port=port) as second:
            assert second.port == port
            assert second.get("/healthz")[0] == 200

    def test_failed_start_stops_its_handler_threads(self, root):
        with BackgroundServer(root, backend="binary") as first:
            second = BackgroundServer(root, backend="binary", port=first.port)
            with pytest.raises(RuntimeError, match="failed to start"):
                with second:
                    pass
        for thread in second.state.threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in second.state.threads)
