"""Malformed-wire-input fuzz: the parser must degrade, never wedge.

Most cases here feed the server bytes a correct client would never
send — truncated request lines, header floods, garbage Content-Length,
half-closed sockets — and then asserts the two properties that matter:
the malformed connection gets a clean ``400`` (or a clean close), and
the *server keeps serving*: a well-formed request right after each abuse
still answers ``200``.  The transport ``malformed`` counter at
``/stats`` must account for the rejects.

The rest feed it what a correct but demanding client may send — resets,
5,000 pipelined requests, a pipeline that is never read, heads and
bodies split across reads — and assert the same: every answer arrives,
in order, and the server stays responsive in bounded memory.
"""

import asyncio
import json
import logging
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from repro.serve import BackgroundServer, UniverseService
from repro.serve.http import (
    MAX_BODY_BYTES,
    ServeConfig,
    ServerState,
    _Connection,
)
from repro.universe import UniverseStore


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-fuzz") / "store"
    store = UniverseStore(root)
    store.build(6, 3)
    store.pack()
    return root


@pytest.fixture(scope="module")
def server(root):
    config = ServeConfig(idle_timeout=2.0)
    with BackgroundServer(root, backend="binary", config=config) as running:
        yield running


def send_raw(server, blob: bytes, timeout: float = 10.0) -> bytes:
    """One raw exchange: send bytes, read until the server closes."""
    with socket.create_connection(
        (server.host, server.port), timeout=timeout
    ) as sock:
        sock.sendall(blob)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except TimeoutError:
            pass
    return b"".join(chunks)


def send_oversized(server, blob: bytes) -> bytes:
    """Like :func:`send_raw` for input the server rejects before reading
    it all: closing with unread input resets the connection, which can
    cut the send short and follows the answer, never replaces it."""
    with socket.create_connection(
        (server.host, server.port), timeout=10
    ) as sock:
        try:
            sock.sendall(blob)
        except (BrokenPipeError, ConnectionResetError):
            pass
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def read_response(sock) -> tuple[int, bytes]:
    """Parse one response off a keep-alive socket: (status, body)."""
    blob = b""
    while b"\r\n\r\n" not in blob:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError(f"connection closed mid-head: {blob!r}")
        blob += chunk
    head, _, rest = blob.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed mid-body")
        rest += chunk
    return status, rest[:length]


def read_responses(sock, count: int) -> list[tuple[int, bytes]]:
    """Parse ``count`` pipelined responses: [(status, body), ...]."""
    stream = sock.makefile("rb")
    answers = []
    for _ in range(count):
        status = int(stream.readline().split()[1])
        length = 0
        while (line := stream.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        answers.append((status, stream.read(length)))
    return answers


def assert_server_still_serves(server) -> None:
    """The invariant every fuzz case must preserve."""
    status, _, payload = server.get("/healthz")
    assert status == 200 and payload["status"] == "ok"


WELL_FORMED = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"


class RecordingTransport:
    """Keeps what a connection writes, to drive it without a socket."""

    def __init__(self) -> None:
        self.written: list[bytes] = []
        self.reading = True

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def close(self) -> None:
        pass

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def run_until(loop, predicate, timeout: float = 10.0) -> None:
    """Run ``loop`` until ``predicate()`` holds or ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        loop.run_until_complete(asyncio.sleep(0.01))


class TestMalformedRequestLines:
    def test_truncated_request_line_then_close(self, server):
        # No newline ever arrives: the client gives up mid-line.  The
        # read sees EOF (IncompleteReadError territory) — the server
        # must shrug, not crash its connection task.
        blob = send_raw(server, b"GET /healthz HT")
        assert b"HTTP/1.1 200" not in blob
        assert_server_still_serves(server)

    def test_request_line_with_missing_version(self, server):
        blob = send_raw(server, b"GET /healthz\r\n\r\n")
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)

    def test_request_line_with_too_many_parts(self, server):
        blob = send_raw(server, b"GET /a /b HTTP/1.1 extra\r\n\r\n")
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)

    def test_binary_garbage_request(self, server):
        blob = send_raw(server, bytes(range(1, 128)) + b"\r\n\r\n")
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)

    def test_100_kib_request_line_without_newline_is_400(self, server):
        # The line outgrows its cap before it completes: a 400 then, not
        # a buffer that waits for a newline that never comes.
        blob = send_oversized(server, b"GET /" + b"a" * (100 << 10))
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)


class TestHeaderFloods:
    def test_too_many_headers_is_400_not_a_memory_balloon(self, server):
        config = ServeConfig()
        flood = b"".join(
            b"X-Flood-%d: x\r\n" % index
            for index in range(config.max_header_count + 8)
        )
        blob = send_raw(
            server, b"GET /healthz HTTP/1.1\r\n" + flood + b"\r\n"
        )
        assert blob.startswith(b"HTTP/1.1 400")
        assert b"headers" in blob
        assert_server_still_serves(server)

    def test_oversized_header_bytes_is_400(self, server):
        config = ServeConfig()
        huge = b"X-Huge: " + b"a" * (config.max_header_bytes + 1) + b"\r\n"
        blob = send_raw(
            server, b"GET /healthz HTTP/1.1\r\n" + huge + b"\r\n"
        )
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)

    def test_100_kib_header_without_newline_is_400(self, server):
        blob = send_oversized(
            server, b"GET /healthz HTTP/1.1\r\nX-Huge: " + b"a" * (100 << 10)
        )
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)


class TestContentLengthAbuse:
    @pytest.mark.parametrize(
        "value", [b"banana", b"-5", b"+3", b"0x10", b"1e3"]
    )
    def test_non_numeric_or_negative_content_length_is_400(
        self, server, value
    ):
        blob = send_raw(
            server,
            b"POST /batch HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n",
        )
        assert blob.startswith(b"HTTP/1.1 400")
        assert b"Content-Length" in blob
        assert_server_still_serves(server)

    def test_declared_body_over_cap_is_rejected_before_reading(self, server):
        declared = MAX_BODY_BYTES + 1
        blob = send_raw(
            server,
            b"POST /batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % declared,
        )
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)

    def test_body_shorter_than_declared_then_close(self, server):
        # Client promises 100 bytes, sends 5, hangs up: readexactly
        # fails and the connection dies cleanly.
        blob = send_raw(
            server,
            b"POST /batch HTTP/1.1\r\nContent-Length: 100\r\n\r\nhello",
        )
        assert b"HTTP/1.1 200" not in blob
        assert_server_still_serves(server)


class TestKeepAliveAbuse:
    def test_garbage_mid_keep_alive_after_a_good_request(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            status, _ = read_response(sock)
            assert status == 200
            # Same socket, now garbage: the server must answer 400 and
            # close, not desynchronize the keep-alive stream.
            sock.sendall(b"\x00\xff NOT HTTP AT ALL\r\n\r\n")
            status, _ = read_response(sock)
            assert status == 400
            assert sock.recv(65536) == b""  # closed after the 400
        assert_server_still_serves(server)

    def test_half_closed_socket_still_gets_its_response(self, server):
        # Client sends a full request then shuts down its write side:
        # the server must still answer on the read side.
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(WELL_FORMED)
            sock.shutdown(socket.SHUT_WR)
            status, body = read_response(sock)
            assert status == 200
            assert b"ok" in body
        assert_server_still_serves(server)

    def test_idle_keep_alive_socket_is_closed_by_the_server(self, server):
        # The module server's idle_timeout is 2s: a socket that sends
        # nothing must be closed, not held forever.
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.settimeout(10)
            assert sock.recv(65536) == b""  # server closes the idler
        assert_server_still_serves(server)


class TestClientReset:
    def test_reset_connection_logs_no_traceback(self, server, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        for _ in range(3):
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert read_response(sock)[0] == 200
                # Linger (on, 0 s): close() sends a reset, not a FIN.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
        assert_server_still_serves(server)
        errors = [
            record
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == []


class TestPipelining:
    def test_pipelined_burst_is_answered_in_order(self, server):
        # Every 50th request is routed through a handler thread, the rest
        # answered inline; the answers must come back in request order.
        targets = [
            f"/decide?n={2 + index // 50 % 5}&m=2&low=0&high=6"
            if index % 50 == 0
            else "/healthz"
            for index in range(5000)
        ]
        burst = b"".join(
            b"GET %s HTTP/1.1\r\n\r\n" % target.encode() for target in targets
        )
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock:
            sender = threading.Thread(target=sock.sendall, args=(burst,))
            sender.start()
            answers = read_responses(sock, len(targets))
            sender.join(timeout=30)
            assert not sender.is_alive()
        assert [status for status, _ in answers] == [200] * len(targets)
        for target, (_, body) in zip(targets, answers):
            payload = json.loads(body)
            if target == "/healthz":
                assert payload == {"status": "ok"}
            else:
                n = int(target.split("n=")[1].split("&")[0])
                assert payload["task"] == [n, 2, 0, 6]
        assert_server_still_serves(server)

    def test_pipelined_burst_lets_other_connections_run(self, root):
        # One read that holds a long burst of inline answers must not be
        # answered in one callback: the loop serves other connections
        # between turns.
        state = ServerState(UniverseService.open(root, backend="binary"))
        loop = asyncio.new_event_loop()
        try:
            transport = RecordingTransport()
            connection = _Connection(state, loop)
            connection.connection_made(transport)
            connection.data_received(b"GET /healthz HTTP/1.1\r\n\r\n" * 100)
            assert 0 < len(transport.written) < 100
            run_until(loop, lambda: len(transport.written) == 100)
            assert len(transport.written) == 100
            assert all(
                blob.startswith(b"HTTP/1.1 200") for blob in transport.written
            )
            connection.connection_lost(None)
        finally:
            loop.close()
            state.shutdown()

    def test_dispatch_stops_while_the_client_is_not_reading(self, root):
        state = ServerState(UniverseService.open(root, backend="binary"))
        loop = asyncio.new_event_loop()
        try:
            transport = RecordingTransport()
            connection = _Connection(state, loop)
            connection.connection_made(transport)
            # The transport's buffer passed its high-water mark: nothing
            # more is answered, and reading stops once input piles up.
            connection.pause_writing()
            connection.data_received(b"GET /healthz HTTP/1.1\r\n\r\n" * 6000)
            assert transport.written == []
            assert not transport.reading
            connection.resume_writing()
            # Reading resumes once the buffer holds no whole request, which
            # may be one turn after the last answer.
            run_until(
                loop, lambda: len(transport.written) == 6000 and transport.reading
            )
            assert len(transport.written) == 6000
            assert transport.reading
            connection.connection_lost(None)
        finally:
            loop.close()
            state.shutdown()

    def test_client_that_never_reads_stalls_in_bounded_memory(self, root):
        chunk = b"GET /healthz HTTP/1.1\r\n\r\n" * 2048
        with BackgroundServer(root, backend="binary") as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.settimeout(0.5)
                sent = 0
                tracemalloc.start()
                try:
                    try:
                        while sent < 64 << 20:
                            sent += sock.send(chunk)
                    except TimeoutError:
                        pass  # stalled: the server stopped reading
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert sent < 16 << 20
                assert peak < 4 << 20
                # The stalled connection holds no handler and no loop time.
                started = time.monotonic()
                assert_server_still_serves(server)
                assert time.monotonic() - started < 1.0


class TestFragmentedInput:
    def test_head_sent_one_byte_at_a_time(self, server):
        target = "/decide?n=6&m=3&low=1&high=4"
        expected = server.get(target)[2]
        head = b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % target.encode()
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index in range(len(head)):
                sock.sendall(head[index : index + 1])
                time.sleep(0.002)
            status, body = read_response(sock)
        assert status == 200
        assert json.loads(body) == expected

    def test_batch_body_sent_in_three_pieces(self, server):
        document = {
            "requests": [
                {"endpoint": "decide", "params": {"n": 6, "m": 3, "low": 1, "high": 4}},
                {"endpoint": "cones", "params": {"n": 6, "m": 3, "low": 1, "high": 4}},
            ]
        }
        expected = server.post("/batch", document)[2]
        body = json.dumps(document).encode()
        head = b"POST /batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
        third = len(body) // 3
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(head)
            for piece in (body[:third], body[third : 2 * third], body[2 * third :]):
                time.sleep(0.05)
                sock.sendall(piece)
            status, answer = read_response(sock)
        assert status == 200
        assert json.loads(answer) == expected


def test_malformed_counter_accounts_for_rejects(server):
    _, _, before = server.get("/stats")
    for blob in (
        b"ONEWORD\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
    ):
        assert send_raw(server, blob).startswith(b"HTTP/1.1 400")
    _, _, after = server.get("/stats")
    grew = (
        after["transport"]["malformed"] - before["transport"]["malformed"]
    )
    assert grew >= 2
    assert after["transport"]["idle_closed"] >= 0  # block always present
