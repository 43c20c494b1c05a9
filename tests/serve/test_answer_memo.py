"""The answer memo (``serve.answers``): what it stores, when, and for whom.

A repeated request must be answered exactly as the router would answer
it — same bytes, same ETag, same ``304`` rule, same metrics — and the
memo must forget whatever a store change, a pack failure or an armed
fault point makes stale.  Each test here fails on a memo that skips one
of those rules.
"""

import http.client
import json
import socket
import sys
import threading
import time
import tracemalloc
import warnings

import pytest

from repro.core import cache_config
from repro.core.cache_config import BoundedDictCache
from repro.serve import BackgroundServer, ServeConfig, UniverseService
from repro.serve import service as service_module
from repro.serve.service import ANSWERS
from repro.testing import FAULTS
from repro.universe import UniverseStore
from repro.universe.persist import HOT_CELLS
from repro.universe.query import solvability_frontier

DECIDE = {"n": "6", "m": "3", "low": "1", "high": "4"}
DECIDE_TARGET = "/decide?n=6&m=3&low=1&high=4"
CONES_TARGET = "/cones?n=6&m=3&low=1&high=4"


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-memo") / "store"
    store = UniverseStore(root)
    store.build(8, 4)
    store.pack()
    return root


@pytest.fixture(autouse=True)
def empty_memo():
    """Every test starts from an empty memo with zeroed counters."""
    FAULTS.clear()
    ANSWERS.clear()
    yield
    FAULTS.clear()
    ANSWERS.clear()


@pytest.fixture
def memo_off(monkeypatch):
    """Turn the memo off: no endpoint is memoizable."""

    def turn_off():
        monkeypatch.setattr(service_module, "MEMO_PARAMS", {})

    return turn_off


def get(service, path, params=None, **kwargs):
    return service.handle("GET", path, dict(params or {}), **kwargs)


def answer(response):
    return response.status, response.etag, response.body_bytes()


def raw_exchange(server, targets):
    """Send each GET on one keep-alive connection; return each raw answer
    (head and body bytes)."""
    answers = []
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        buffer = b""
        for target in targets:
            sock.sendall(b"GET %s HTTP/1.1\r\n\r\n" % target.encode())
            while b"\r\n\r\n" not in buffer:
                buffer += sock.recv(65536)
            head, _, rest = buffer.partition(b"\r\n\r\n")
            length = int(
                next(
                    line.split(b":")[1]
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length:")
                )
            )
            while len(rest) < length:
                rest += sock.recv(65536)
            answers.append(head + b"\r\n\r\n" + rest[:length])
            buffer = rest[length:]
    return answers


def http_request(server, method, target, headers):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        connection.request(method, target, headers=headers)
        response = connection.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body
    finally:
        connection.close()


class TestHits:
    def test_repeated_get_is_byte_identical(self, root):
        with BackgroundServer(root, backend="binary") as server:
            targets = [DECIDE_TARGET, CONES_TARGET, "/frontier"]
            first = raw_exchange(server, targets)
            hits = ANSWERS.stats()["hits"]
            second = raw_exchange(server, targets)
            assert ANSWERS.stats()["hits"] == hits + len(targets)
        assert second == first
        for blob in first:
            assert blob.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"\r\nETag: " in blob

    def test_hit_matches_the_routed_answer_in_process(self, root, memo_off):
        service = UniverseService.open(root, backend="binary")
        requests = [
            ("/decide", DECIDE),
            ("/cones", dict(DECIDE, direction="harder", kinds="containment")),
            ("/frontier", {}),
        ]
        first = [get(service, path, params) for path, params in requests]
        hits = [get(service, path, params) for path, params in requests]
        assert ANSWERS.stats()["hits"] == len(requests)
        memo_off()
        routed = [get(service, path, params) for path, params in requests]
        for a, b, c in zip(first, hits, routed):
            assert answer(a) == answer(b) == answer(c)
            assert a.payload == b.payload == c.payload

    def test_hit_with_matching_if_none_match_is_304(self, root):
        service = UniverseService.open(root, backend="binary")
        first = get(service, "/decide", DECIDE)
        revalidated = get(service, "/decide", DECIDE, if_none_match=first.etag)
        assert ANSWERS.stats()["hits"] == 1
        assert revalidated.status == 304
        assert revalidated.etag == first.etag
        assert revalidated.body_bytes() == b""
        stale = get(service, "/decide", DECIDE, if_none_match='"stale"')
        assert answer(stale) == answer(first)

    def test_hit_over_http_revalidates_to_304(self, root):
        with BackgroundServer(root, backend="binary") as server:
            status, headers, _ = server.get(DECIDE_TARGET)
            assert status == 200
            etag = headers["ETag"]
            status, headers, payload = server.get(
                DECIDE_TARGET, headers={"If-None-Match": etag}
            )
        assert status == 304 and payload is None
        assert headers["ETag"] == etag and headers["Content-Length"] == "0"
        assert ANSWERS.stats()["hits"] == 1

    def test_parameters_the_router_ignores_share_a_key(self, root):
        service = UniverseService.open(root, backend="binary")
        first = get(service, "/decide", dict(DECIDE, rid="1"))
        second = get(service, "/decide", dict(DECIDE, rid="2"))
        assert ANSWERS.stats()["hits"] == 1
        assert answer(first) == answer(second)

    def test_an_empty_value_is_routed_not_read_as_absent(self, root):
        service = UniverseService.open(root, backend="binary")
        absent = get(service, "/cones", DECIDE)
        for _ in range(2):
            empty = get(service, "/cones", dict(DECIDE, kinds=""))
            assert not service.memo_holds("GET", "/cones", dict(DECIDE, kinds=""))
        assert ANSWERS.stats()["hits"] == 0
        assert len(ANSWERS) == 1
        assert answer(absent) == answer(empty)  # the router reads both alike

    def test_each_value_has_one_memoized_spelling(self, root):
        """The router reads ``n=06`` as ``n=6``: only the plain spelling
        gets a memo entry, so spellings cannot fill the memo."""
        service = UniverseService.open(root, backend="binary")
        plain = get(service, "/decide", DECIDE)
        respelled = [
            dict(DECIDE, n=n) for n in ("06", "006", "+6", " 6", "6 ", "0_6", "\u0666")
        ] + [dict(DECIDE, low="01"), dict(DECIDE, m="+3"), dict(DECIDE, high="4\n")]
        for _ in range(2):
            for params in respelled:
                assert not service.memo_holds("GET", "/decide", params)
                assert answer(get(service, "/decide", params)) == answer(plain)
        cones = get(service, "/cones", dict(DECIDE, kinds="containment"))
        for kinds in ("containment,", ",containment", "containment,,", "a\x1fb", "\x1e"):
            response = get(service, "/cones", dict(DECIDE, kinds=kinds))
            assert response.status == 200
        assert len(ANSWERS) == 2
        assert ANSWERS.stats()["hits"] == 0
        assert cones.payload["key"] == plain.payload["canonical"]

    def test_hits_are_answered_on_the_event_loop(self, root):
        with BackgroundServer(root, backend="binary") as server:
            threads = []
            handle = server.service.handle

            def recording(*args, **kwargs):
                threads.append(threading.current_thread().name)
                return handle(*args, **kwargs)

            server.service.handle = recording
            for _ in range(3):
                assert server.get(DECIDE_TARGET)[0] == 200
        assert threads[0].startswith("repro-serve-handler-")
        assert threads[1:] == ["repro-serve", "repro-serve"]


class TestMetrics:
    SEQUENCE = [
        ("GET", DECIDE_TARGET, None),
        ("GET", DECIDE_TARGET, None),
        ("GET", DECIDE_TARGET, "etag"),
        ("GET", DECIDE_TARGET, '"stale"'),
        ("GET", CONES_TARGET, None),
        ("GET", CONES_TARGET, "etag"),
        ("GET", CONES_TARGET, None),
        ("GET", "/frontier", None),
        ("GET", "/frontier", None),
        ("GET", "/decide?n=25&m=5&low=1&high=25", None),
        ("GET", "/decide?n=25&m=5&low=1&high=25", None),
        ("GET", "/decide?n=x&m=3&low=1&high=4", None),
        ("GET", "/decide?n=x&m=3&low=1&high=4", None),
        ("GET", "/cones?n=19&m=3&low=1&high=19", None),
        ("POST", "/decide", None),
    ]

    def rows(self, root):
        with BackgroundServer(root, backend="binary") as server:
            etags = {}
            for method, target, tag in self.SEQUENCE:
                headers = {}
                if tag == "etag":
                    headers["If-None-Match"] = etags[target]
                elif tag is not None:
                    headers["If-None-Match"] = tag
                status, answered, _ = http_request(server, method, target, headers)
                if status == 200:
                    etags[target] = answered["ETag"]
            _, _, stats = server.get("/stats")
        return {
            endpoint: (row["requests"], row["errors"], row["not_modified"])
            for endpoint, row in stats["endpoints"].items()
        }

    def test_stats_rows_equal_the_rows_with_the_memo_off(self, root, memo_off):
        with_memo = self.rows(root)
        assert ANSWERS.stats()["hits"] >= 4
        memo_off()
        without = self.rows(root)
        assert with_memo == without
        assert with_memo["decide"] == (9, 3, 1)


class TestFaults:
    def test_armed_hold_still_holds_a_repeated_request(self, root):
        held = []
        release = threading.Event()

        def hold(context):
            if context.get("path") == "/decide":
                held.append(context["path"])
                release.wait(timeout=5.0)

        config = ServeConfig(request_timeout=0.3)
        with BackgroundServer(root, backend="binary", config=config) as server:
            assert server.get(DECIDE_TARGET)[0] == 200
            assert server.get(DECIDE_TARGET)[0] == 200  # a hit
            with FAULTS.injected("serve.request.hold", hold):
                started = time.monotonic()
                status, headers, payload = server.get(DECIDE_TARGET)
                elapsed = time.monotonic() - started
            release.set()
            assert status == 503
            assert "deadline" in payload["error"]
            assert headers.get("Retry-After") == "1"
            assert elapsed < 0.9
            assert held == ["/decide"]
            _, _, stats = server.get("/stats")
            assert stats["transport"]["timeouts"] == 1
            # The held request's handler thread still routes it: wait for
            # that, so no later test sees its memo lookup.
            deadline = time.monotonic() + 10
            while server.service.metrics.snapshot()["decide"]["requests"] < 3:
                assert time.monotonic() < deadline
                time.sleep(0.01)

    def test_no_lookup_or_fill_while_a_fault_is_armed(self, root):
        service = UniverseService.open(root, backend="binary")
        get(service, "/decide", DECIDE)
        with FAULTS.injected("serve.response.write", lambda context: None):
            get(service, "/decide", DECIDE)
            get(service, "/frontier")
            assert not service.memo_holds("GET", "/decide", DECIDE)
        assert ANSWERS.stats()["hits"] == 0
        assert len(ANSWERS) == 1


class TestScope:
    def test_pack_corrupted_mid_serve_turns_answers_to_json(self, tmp_path):
        root = tmp_path / "store"
        store = UniverseStore(root)
        store.build(8, 4)
        store.pack()
        service = UniverseService.open(root, backend="binary")
        first = get(service, "/decide", DECIDE)
        assert first.payload["backend"] == "binary"
        assert get(service, "/decide", DECIDE).payload["backend"] == "binary"
        assert ANSWERS.stats()["hits"] == 1
        size = (root / "pack.sqlite").stat().st_size
        (root / "pack.sqlite").write_bytes(b"\xff" * size)
        HOT_CELLS.clear()
        with pytest.warns(RuntimeWarning, match="pack read failed"):
            cold = get(service, "/decide", {"n": "7", "m": "2", "low": "0", "high": "7"})
        assert cold.payload["backend"] == "json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = get(service, "/decide", DECIDE)
        assert again.status == 200
        assert again.payload["backend"] == "json"
        assert again.payload["solvability"] == first.payload["solvability"]

    def test_reopen_after_rebuild_serves_fresh_answers(self, tmp_path, memo_off):
        root = tmp_path / "store"
        UniverseStore(root).build(6, 3)
        UniverseStore(root).pack()
        service = UniverseService.open(root, backend="binary")
        requests = [("/decide", DECIDE), ("/cones", DECIDE), ("/frontier", {})]
        before = [get(service, path, params) for path, params in requests]
        for path, params in requests:
            get(service, path, params)
        assert ANSWERS.stats()["hits"] == len(requests)

        UniverseStore(root).build(8, 3)
        UniverseStore(root).pack()
        assert UniverseStore.open_readonly(root, backend="binary") is service.store
        after = [get(service, path, params) for path, params in requests]
        counts = solvability_frontier(UniverseStore(root).load()).counts
        assert after[2].payload["counts"] == counts
        assert after[2].payload["counts"] != before[2].payload["counts"]
        assert after[0].etag != before[0].etag

        memo_off()
        fresh = UniverseService(UniverseStore(root, backend="binary"))
        for served, (path, params) in zip(after, requests):
            assert answer(served) == answer(get(fresh, path, params))

    def test_a_fill_from_another_scope_is_dropped(self, root):
        service = UniverseService.open(root, backend="binary")
        get(service, "/frontier")
        scope = service.store.read_scope()
        ANSWERS.put("frontier", b"\x02\"x\"{}\n", scope[:2] + ("json",))
        assert ANSWERS.get("frontier", scope) != b"\x02\"x\"{}\n"
        assert len(ANSWERS) == 1


class TestExclusions:
    def test_excluded_requests_are_never_memoized(self, root):
        service = UniverseService.open(root, backend="binary")
        batch = json.dumps(
            {
                "requests": [
                    {
                        "endpoint": "decide",
                        "params": {"n": 25, "m": 5, "low": 1, "high": 25},
                    },
                    {
                        "endpoint": "reduction-path",
                        "params": {"source": "6,3,0,4", "target": "6,3,1,4"},
                    },
                ]
            }
        ).encode()
        excluded = [
            ("GET", "/decide", {"n": "25", "m": "5", "low": "1", "high": "25"}),
            ("GET", "/decide", {"n": "x", "m": "3", "low": "1", "high": "4"}),
            ("GET", "/decide", {"n": "6", "m": "3", "low": "0", "high": "1"}),
            ("GET", "/cones", {"n": "19", "m": "3", "low": "1", "high": "19"}),
            ("GET", "/cones", dict(DECIDE, direction="up")),
            ("POST", "/decide", DECIDE),
            ("GET", "/reduction-path", {"source": "6,3,0,4", "target": "6,3,1,4"}),
            ("GET", "/stats", {}),
            ("GET", "/healthz", {}),
            ("POST", "/batch", {}),
        ]
        for _ in range(2):
            for method, path, params in excluded:
                body = batch if path == "/batch" else None
                response = service.handle(method, path, dict(params), body)
                assert response.body_bytes()
        assert len(ANSWERS) == 0
        assert ANSWERS.stats()["hits"] == 0
        for method, path, params in excluded:
            assert not service.memo_holds(method, path, params)

    def test_fallback_decide_is_routed_every_time(self, root):
        service = UniverseService.open(root, backend="binary")
        params = {"n": "25", "m": "5", "low": "1", "high": "25"}
        calls = []
        pipeline = service._fallback_pipeline()
        decide = pipeline.decide

        def counting(*args):
            calls.append(args)
            return decide(*args)

        pipeline.decide = counting
        first = get(service, "/decide", params)
        second = get(service, "/decide", params)
        assert len(calls) == 2
        assert first.payload["source"] == "pipeline"
        assert answer(first) == answer(second)


class TestRace:
    def test_entry_vanishing_before_handle_is_routed_on_the_loop(self, root):
        with BackgroundServer(root, backend="binary") as server:
            status, headers, first = server.get(DECIDE_TARGET)
            assert status == 200
            service = server.service
            memo_holds = service.memo_holds
            threads, seen = [], []

            def evicting(method, path, query):
                holds = memo_holds(method, path, query)
                seen.append(holds)
                ANSWERS.clear()  # evicted between the check and handle()
                return holds

            handle = service.handle

            def recording(*args, **kwargs):
                threads.append(threading.current_thread().name)
                return handle(*args, **kwargs)

            service.memo_holds = evicting
            service.handle = recording
            status, again_headers, again = server.get(DECIDE_TARGET)
        assert seen == [True]
        assert threads == ["repro-serve"]
        assert status == 200
        assert again == first
        assert again_headers["ETag"] == headers["ETag"]
        assert ANSWERS.stats()["misses"] == 1  # the lookup after the check


class TestConcurrency:
    def test_hits_misses_and_evictions_under_thread_churn(self, root):
        """More clients than handler threads and cores, the interpreter
        switching threads as often as it can, and entries evicted under
        the clients' feet: every answer is the routed one, and every
        lookup is counted once."""
        targets = [
            f"/decide?n={n}&m={m}&low={low}&high={high}"
            for n, m, low, high in [(6, 3, 1, 4), (6, 3, 0, 4), (8, 4, 1, 5), (7, 2, 2, 5)]
        ] + [CONES_TARGET, "/frontier"]
        clients, rounds = 12, 15
        with BackgroundServer(root, backend="binary") as server:
            expected = {target: server.get(target) for target in targets}
            lookups = ANSWERS.stats()["hits"] + ANSWERS.stats()["misses"]
            failures: list[str] = []
            stop = threading.Event()

            def evict() -> None:
                while not stop.is_set():
                    for key in list(ANSWERS._data):
                        ANSWERS.pop(key)
                    time.sleep(0.001)

            def client(worker: int) -> None:
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=30
                )
                try:
                    for index in range(rounds * len(targets)):
                        target = targets[(worker + index) % len(targets)]
                        connection.request("GET", target)
                        response = connection.getresponse()
                        body = json.loads(response.read())
                        want = expected[target]
                        got = (response.status, response.getheader("ETag"), body)
                        if got != (want[0], want[1]["ETag"], want[2]):
                            failures.append(f"{target}: {got[:2]}")
                except Exception as error:  # noqa: BLE001 - report, don't hang
                    failures.append(f"worker {worker}: {type(error).__name__}")
                finally:
                    connection.close()

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                evictor = threading.Thread(target=evict)
                threads = [
                    threading.Thread(target=client, args=(worker,))
                    for worker in range(clients)
                ]
                evictor.start()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                stop.set()
                evictor.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not evictor.is_alive()
            assert not failures, failures[:10]
            total = clients * rounds * len(targets)
            counters = ANSWERS.stats()
            assert counters["hits"] + counters["misses"] == lookups + total
            entries = list(ANSWERS._data.items())
            assert counters["bytes"] == sum(len(k) + len(v) for k, v in entries)
            assert counters["hits"] > 0
            assert server.state.inflight == 0
            _, _, stats = server.get("/stats")
            endpoints = stats["endpoints"]
            served = sum(
                endpoints[name]["requests"] for name in service_module.MEMO_PARAMS
            )
            assert served == total + len(targets)


class TestFootprint:
    def test_distinct_answers_stay_within_the_byte_bound(self, root, monkeypatch):
        """Every ``high`` past ``n`` names the same task, and each answer
        echoes its own: endlessly many keys, held to the byte bound."""
        assert ANSWERS.stats()["max_bytes"] == service_module.MEMO_BYTES
        budget = 8192
        memo = BoundedDictCache("test.serve.answers", max_bytes=budget)
        monkeypatch.setattr(service_module, "ANSWERS", memo)
        try:
            service = UniverseService.open(root, backend="binary")
            for high in range(6, 406):
                params = dict(DECIDE, high=str(high))
                response = get(service, "/decide", params)
                assert response.payload["task"] == [6, 3, 1, high]
                assert memo.stats()["bytes"] <= budget
            assert 10 < len(memo) < 100
            assert get(service, "/decide", params).body_bytes() == response.body_bytes()
            assert memo.stats()["hits"] == 1
        finally:
            cache_config._registry.pop("test.serve.answers", None)

    def test_each_in_rectangle_decide_entry_is_small(self, root):
        service = UniverseService.open(root, backend="binary")
        graph = UniverseStore(root, backend="json").load()
        requests = [
            {"n": str(n), "m": str(m), "low": str(low), "high": str(high)}
            for n, m, low, high in sorted(node.key for node in graph.nodes())
        ]
        for params in requests:  # warm every other cache first
            assert get(service, "/decide", params).status == 200
        ANSWERS.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for params in requests:
                get(service, "/decide", params)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ANSWERS) == len(requests) > 100
        per_entry = (after - before) / len(requests)
        assert per_entry <= 600, f"{per_entry:.0f} B per memo entry"
