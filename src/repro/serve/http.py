"""Stdlib asyncio HTTP/1.1 front end for :class:`UniverseService`.

No third-party web framework: the serving contract is small (GET/POST,
JSON bodies, ETag revalidation, keep-alive) and the repo's no-new-deps
rule is hard, so this module speaks just enough HTTP/1.1 itself.  The
parser is deliberately strict — malformed request lines get a ``400``
and the connection is closed; request bodies, header counts and header
bytes are capped so a client cannot balloon memory.

Each connection is one :class:`asyncio.Protocol` (``_Connection``).  It
buffers what arrives, parses each request as soon as its bytes are all
there (``_RequestParser``), and has at most one request routed at a
time; requests pipelined behind it wait in the buffer and are
dispatched in order, in a loop, once its answer is written.  A routed
request is handed to ``handler_threads`` threads started with the
server: the loop puts the job on a :class:`queue.SimpleQueue`, and the
thread that routes it posts the answer back with one
``loop.call_soon_threadsafe`` — one wake-up each way.  Two timers per
connection bound the waiting: an idle timer, armed once at connect,
which closes the connection when nothing was answered for
``idle_timeout`` and otherwise re-arms itself for what is left of it,
and a deadline timer, armed for each routed request and cancelled by
its answer.

Two kinds of request are answered on the event loop instead, through
the same :meth:`UniverseService.handle` (so metrics, the answer memo and
the ``304`` rule do not change): ``/healthz``, and a request whose
routing is bounded work that never waits
(:meth:`UniverseService.bounded`: a GET, while no fault point is armed,
to ``/decide`` below n = 2**64 or to a graph query once the graph is
loaded; each endpoint's bound is given there).  That costs less than
the hand-off, and it cannot be held: every request goes to the threads
while a fault point is armed.  Like ``/healthz`` such a request takes no
in-flight slot, has no deadline and is never shed, but it counts toward
a connection's dispatches per turn.  ``/stats``, ``/batch``, the first
graph load and other methods are routed on the threads.  Request
targets are split by :func:`split_target`, which takes plain
origin-form targets apart directly and gives the same result as
``urlsplit`` and ``parse_qsl``.

The request path is hardened for fault-tolerant serving
(:class:`ServeConfig` holds the knobs):

* **deadlines** — a routed request whose answer has not arrived within
  ``request_timeout`` gets ``503`` + ``Retry-After`` and its connection
  is closed; the handler thread finishes on its own and its late answer
  is dropped (the event loop never blocks on a slow handler).
* **load shedding** — a bounded in-flight counter; past saturation new
  requests are answered ``503`` + ``Retry-After`` immediately.
* **idle/read timeouts** — a keep-alive socket that sends no whole
  request (or dribbles headers forever) within ``idle_timeout`` of the
  last answer is closed.
* **backpressure** — while the transport's write buffer is past its
  high-water mark (the client is not reading its answers), dispatch
  stops; while a connection cannot dispatch, it stops reading once its
  unparsed input passes ``_READ_HIGH_WATER``.
* **``/healthz`` exemption** — liveness probes are answered inline on
  the event loop, so they succeed even when every handler thread is
  wedged; that is what lets a supervisor tell "overloaded" from "dead".

Shed/timeout/idle/malformed events are counted in
:class:`~repro.serve.metrics.ServiceMetrics` and exposed at ``/stats``
under ``"transport"``.  The fault points of
:mod:`repro.testing.faults` (``serve.request.hold``,
``serve.response.write``, ``serve.worker.kill``) are compiled into this
path and disarmed in normal operation.

Two entry points:

* :func:`serve_forever` — the blocking CLI path
  (``python -m repro serve``): one event loop, one service, runs until
  interrupted.  (``--workers N`` runs N forked copies of it under
  :mod:`repro.serve.supervisor`.)
* :class:`BackgroundServer` — a context manager running the same server
  on a daemon thread with an ephemeral port, used by the serve tests,
  ``bench_serve.py`` and the CI smoke to drive real sockets without
  managing a subprocess.

Both stop through :meth:`ServerState.stop_serving`, which closes idle
keep-alive connections at once instead of waiting out their idle timers
(Python 3.12's ``Server.wait_closed`` waits for every connection).
"""

from __future__ import annotations

import asyncio
import json
import queue
import socket as socket_module
import threading
from dataclasses import dataclass
from urllib.parse import parse_qsl, urlsplit

from ..testing.faults import FAULTS
from .metrics import ServiceMetrics
from .service import Response, UniverseService

#: Largest accepted request body (the batch endpoint is the only reader).
MAX_BODY_BYTES = 4 << 20

#: Longest accepted request line; a longer one is a ``400``.
MAX_LINE_BYTES = 1 << 16

#: Unparsed bytes a connection buffers while it cannot dispatch (a
#: request is routed, or the client is not reading its answers); past
#: this it stops reading from the socket until it can.
_READ_HIGH_WATER = 1 << 17

#: Requests one connection dispatches per turn of the event loop.  A
#: pipelined burst of inline answers (``/healthz``) continues on the next
#: turn, so other connections are served in between.
_DISPATCH_PER_TURN = 16

#: Reason phrases for the statuses the service actually emits.
_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServeConfig:
    """Fault-tolerance knobs for one serving process.

    The defaults suit the CLI; tests tighten them to force the 503
    paths deterministically.  ``None`` for a timeout disables it.
    """

    #: Hard deadline for one request's routing work; past it the client
    #: gets ``503`` + ``Retry-After`` and the connection is closed.
    request_timeout: float | None = 10.0
    #: Keep-alive sockets idle (or dribbling) longer than this are closed.
    idle_timeout: float | None = 30.0
    #: In-flight request ceiling; past it new requests are shed with 503.
    max_inflight: int = 128
    #: Threads routing requests (the event loop answers ``/healthz`` and
    #: bounded requests itself, see :meth:`UniverseService.bounded`).
    handler_threads: int = 8
    #: Seconds a stopping server (a draining worker, or a
    #: BackgroundServer's exit) waits for routed requests to be answered
    #: before it aborts their connections.
    drain_grace: float = 5.0
    #: Advisory ``Retry-After`` seconds on shed/timeout 503s.
    retry_after: int = 1
    #: Header caps: a request with more headers (or more total header
    #: bytes) than this is a 400, not a memory balloon.
    max_header_count: int = 64
    max_header_bytes: int = 16384


def _serialize(response: Response, keep_alive: bool) -> bytes:
    body = response.body_bytes()
    reason = _REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}"]
    if response.status != 304:
        head.append("Content-Type: application/json; charset=utf-8")
    head.append(f"Content-Length: {len(body)}")
    if response.etag is not None:
        head.append(f"ETag: {response.etag}")
    if response.retry_after is not None:
        head.append(f"Retry-After: {response.retry_after}")
    head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


def _internal_error(error: Exception) -> Response:
    return Response(500, {"error": f"internal error: {type(error).__name__}"})


def split_target(target: str) -> tuple[str, dict[str, str]]:
    """The path and query of a request target, as ``urlsplit`` and
    ``parse_qsl`` make them.

    An origin-form target (one ``/`` first) holding no ``%``, ``+``,
    ``#`` or unprintable character (``urlsplit`` strips tabs and line
    breaks) is split directly on ``?`` and ``&``, with the same result:
    blank values and names with no ``=`` are dropped, the last of a
    repeated name wins and ``;`` is no separator.  Every other target
    goes through ``urlsplit`` and ``parse_qsl``; a target ``urlsplit``
    rejects raises its ``ValueError``.
    """
    if (
        target[:1] == "/"
        and target[1:2] != "/"
        and "%" not in target
        and "+" not in target
        and "#" not in target
        and target.isprintable()
    ):
        path, _, raw = target.partition("?")
        query = {}
        for field in raw.split("&"):
            name, _, value = field.partition("=")
            if value:
                query[name] = value
        return path, query
    parsed = urlsplit(target)
    return parsed.path, dict(parse_qsl(parsed.query))


#: What :meth:`_RequestParser.next_request` returns for a blank request
#: line, the client's clean end of stream.
_END = object()


class _RequestParser:
    """The request parsing rules, applied to whatever bytes have arrived.

    A line ends at ``\\n``.  The request line must split into three
    words; a blank request line is the client's clean end of stream.
    The head ends at the first blank line (``\\r\\n`` or ``\\n``).  The
    request line is capped by :data:`MAX_LINE_BYTES`, the headers by the
    config's count and byte caps, the body by :data:`MAX_BODY_BYTES`,
    and ``Content-Length`` must be plain digits.  Each line is checked
    as soon as it is complete and an incomplete line against its cap, so
    input that breaks a rule fails before its head is whole.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.buffer = bytearray()
        self._new_head()

    def _new_head(self) -> None:
        self._scanned = 0  # buffer offset of the first line not yet parsed
        self._request_line: list[str] | None = None
        self._headers: dict[str, str] = {}
        self._header_bytes = 0
        self._body_length = -1  # set once the head is complete

    def next_request(self):
        """The next whole request ``(method, target, headers, body)``.

        Returns None while its bytes are still arriving and :data:`_END`
        for a blank request line; raises ValueError for input that
        breaks a rule.
        """
        buffer = self.buffer
        config = self.config
        while self._body_length < 0:
            start = self._scanned
            end = buffer.find(b"\n", start)
            # A line, complete or not, past its cap is rejected at once.
            length = (len(buffer) if end < 0 else end + 1) - start
            if self._request_line is None:
                if length > MAX_LINE_BYTES:
                    raise ValueError(
                        f"request line exceeds {MAX_LINE_BYTES} bytes"
                    )
            elif length > config.max_header_bytes:
                raise ValueError(
                    f"request headers exceed {config.max_header_bytes} bytes"
                )
            if end < 0:
                return None
            self._scanned = end + 1
            line = buffer[start : end + 1]
            if self._request_line is None:
                if not line.strip():
                    return _END
                parts = line.decode("latin-1").split()
                if len(parts) != 3:
                    raise ValueError(f"malformed request line {bytes(line)!r}")
                self._request_line = parts
            elif line == b"\r\n" or line == b"\n":
                self._body_length = self._content_length()
            else:
                self._header_bytes += len(line)
                if len(self._headers) >= config.max_header_count:
                    raise ValueError(
                        f"more than {config.max_header_count} request headers"
                    )
                if self._header_bytes > config.max_header_bytes:
                    raise ValueError(
                        f"request headers exceed {config.max_header_bytes} bytes"
                    )
                name, _, value = line.decode("latin-1").partition(":")
                self._headers[name.strip().lower()] = value.strip()
        body_start = self._scanned
        body_end = body_start + self._body_length
        if len(buffer) < body_end:
            return None
        method, target, _version = self._request_line
        body = bytes(buffer[body_start:body_end])
        request = (method, target, self._headers, body)
        del buffer[:body_end]
        self._new_head()
        return request

    def _content_length(self) -> int:
        raw_length = self._headers.get("content-length", "0") or "0"
        # .isdigit() rejects signs, whitespace and non-numerics in one go, so
        # a negative or garbage Content-Length is a clean 400, never a
        # wait for a nonsense count of body bytes.
        if not raw_length.isdigit():
            raise ValueError(f"invalid Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body of {length} bytes exceeds cap")
        return length


class ServerState:
    """Shared per-server runtime state: config, gate counters, handler threads.

    One instance per serving process; every connection reads the
    in-flight count and draining flag off it.  Those are only touched
    on the event-loop thread, so plain ints suffice.

    ``config.handler_threads`` daemon threads, started here, take routed
    requests off :attr:`jobs` and post each answer back to its
    connection's loop with one ``call_soon_threadsafe``: one wake-up
    each way.  A ``ThreadPoolExecutor`` future costs more per request:
    a no-op round trip from the loop, on one CPU of a 2-vCPU x86 host,
    took 88-100 µs through ``wait_for(run_in_executor(...))``, 39-46 µs
    through a future's done callback and 28 µs through this queue.
    """

    def __init__(
        self, service: UniverseService, config: ServeConfig | None = None
    ) -> None:
        self.service = service
        self.config = config or ServeConfig()
        self.metrics = service.metrics
        self.inflight = 0
        self.draining = False
        #: Open connections, so that shutting down can close them.
        self.connections: set[_Connection] = set()
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.threads = [
            threading.Thread(
                target=self._work,
                name=f"repro-serve-handler-{index}",
                daemon=True,
            )
            for index in range(self.config.handler_threads)
        ]
        for thread in self.threads:
            thread.start()

    def _work(self) -> None:
        """One handler thread: route jobs until :meth:`shutdown`."""
        service = self.service
        while (job := self.jobs.get()) is not None:
            connection, method, path, query, body, if_none_match = job
            try:
                if FAULTS.active:
                    FAULTS.fire("serve.request.hold", path=path)
                response = service.handle(
                    method, path, query, body, if_none_match
                )
            except Exception as error:  # noqa: BLE001 - the thread must live
                response = _internal_error(error)
            try:
                connection.loop.call_soon_threadsafe(
                    connection.answered, job, response
                )
            except RuntimeError:
                pass  # the loop closed while this request was routed

    def overloaded(self) -> Response:
        return Response(
            503,
            {"error": "server overloaded, request shed"},
            retry_after=self.config.retry_after,
        )

    def deadline_exceeded(self, seconds: float) -> Response:
        return Response(
            503,
            {"error": f"request exceeded its {seconds:g}s deadline"},
            retry_after=self.config.retry_after,
        )

    async def stop_serving(
        self, server: asyncio.AbstractServer, grace: float
    ) -> None:
        """Stop accepting, end every connection, and wait until the
        server is closed.

        Since Python 3.12 ``Server.wait_closed`` also waits for the
        server's connections, so an idle keep-alive client would hold it
        until its idle timer fired.  Idle connections are closed at once,
        and one with a routed request closes after its answer.  The wait
        lasts until no connection is open and no request holds a handler
        thread, or for ``grace`` seconds; then what is still open is
        aborted.
        """
        loop = asyncio.get_running_loop()
        self.draining = True
        server.close()
        for connection in list(self.connections):
            if connection.routed is None:
                connection._close()
        deadline = loop.time() + grace
        while (self.connections or self.inflight) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for connection in list(self.connections):
            connection.abort()
        await server.wait_closed()

    def shutdown(self) -> None:
        """Stop the handler threads once their current jobs finish."""
        for _ in self.threads:
            self.jobs.put(None)


class _Connection(asyncio.Protocol):
    """One client connection: parse, gate, hand off, answer, repeat.

    Every method runs on the event-loop thread.  At most one request per
    connection is routed at a time; requests that arrive meanwhile wait
    in the parser's buffer and are dispatched in order, in a loop, once
    its answer is written.
    """

    def __init__(
        self, state: ServerState, loop: asyncio.AbstractEventLoop
    ) -> None:
        self.state = state
        self.loop = loop
        self.parser = _RequestParser(state.config)
        self.transport: asyncio.Transport | None = None
        #: The job a handler thread is routing, and whether its answer
        #: may keep the connection open.
        self.routed: tuple | None = None
        self.keep_alive = True
        self.closed = False
        self.eof = False
        self.write_paused = False
        self.read_paused = False
        self.idle_timer: asyncio.TimerHandle | None = None
        #: Loop time of the connect or the last answer (idle timeout).
        self.last_active = 0.0
        self.deadline_timer: asyncio.TimerHandle | None = None
        self.next_turn: asyncio.Handle | None = None

    # -- transport callbacks ---------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.state.connections.add(self)
        timeout = self.state.config.idle_timeout
        if timeout is not None:
            self.last_active = self.loop.time()
            self.idle_timer = self.loop.call_later(timeout, self._idle_check)

    def connection_lost(self, exc: Exception | None) -> None:
        # A client that resets or vanishes ends its connection quietly.
        # A routed request keeps its in-flight slot until its answer or
        # its deadline arrives: its handler thread is still busy.
        self.closed = True
        self._cancel_idle()
        self.state.connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self.parser.buffer += data
        self._process()

    def eof_received(self) -> bool:
        self.eof = True
        self._process()
        # Keep the write side open: a half-closed client still gets its
        # answers.
        return True

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._process()

    # -- request path ----------------------------------------------------

    def _process(self) -> None:
        """Dispatch buffered requests until one is routed, the client
        stops reading its answers, the buffer holds no whole request, or
        this turn's share is dispatched."""
        if self.next_turn is not None:
            self.next_turn.cancel()
            self.next_turn = None
        parser = self.parser
        dispatched = 0
        while self.routed is None and not (self.write_paused or self.closed):
            if dispatched == _DISPATCH_PER_TURN:
                self.next_turn = self.loop.call_soon(self._process)
                break
            try:
                request = parser.next_request()
            except ValueError as error:
                self.state.metrics.record_transport("malformed")
                self._respond(
                    Response(400, {"error": f"bad request: {error}"}),
                    keep_alive=False,
                )
                return
            if request is None:
                self._await_input()
                return
            if request is _END:
                self._close()
                return
            self._dispatch(*request)
            dispatched += 1
        if not (self.closed or self.read_paused) and (
            len(parser.buffer) > _READ_HIGH_WATER
        ):
            self.read_paused = True
            self.transport.pause_reading()

    def _await_input(self) -> None:
        if self.eof:
            if self.parser.buffer.strip():
                self.state.metrics.record_transport("malformed")
                error = "bad request: stream ended mid-request"
                self._respond(Response(400, {"error": error}), keep_alive=False)
            else:
                self._close()
        elif self.read_paused:
            self.read_paused = False
            self.transport.resume_reading()

    def _dispatch(self, method, target, headers, body) -> None:
        state = self.state
        if FAULTS.active:
            FAULTS.fire("serve.worker.kill")
        try:
            path, query = split_target(target)
        except ValueError as error:
            state.metrics.record_transport("malformed")
            self._respond(
                Response(400, {"error": f"bad request: {error}"}),
                keep_alive=False,
            )
            return
        method = method.upper()
        if_none_match = headers.get("if-none-match")
        keep_alive = (
            headers.get("connection", "keep-alive").lower() != "close"
        ) and not state.draining
        service = state.service
        if path == "/healthz" or service.bounded(method, path, query):
            # Inline: liveness must not queue behind wedged handler
            # threads, otherwise a supervisor cannot distinguish an
            # overloaded worker from a dead one; bounded work costs less
            # than the hand-off.
            try:
                response = service.handle(
                    method, path, query, body, if_none_match
                )
            except Exception as error:  # noqa: BLE001 - must not die
                response = _internal_error(error)
            self._respond(response, keep_alive)
            return
        if state.inflight >= state.config.max_inflight:
            state.metrics.record_transport("shed")
            self._respond(state.overloaded(), keep_alive=False)
            return
        state.inflight += 1
        job = (self, method, path, query, body, if_none_match)
        self.routed = job
        self.keep_alive = keep_alive
        timeout = state.config.request_timeout
        if timeout is not None:
            self.deadline_timer = self.loop.call_later(
                timeout, self._expired, timeout
            )
        state.jobs.put(job)

    def answered(self, job: tuple, response: Response) -> None:
        """A handler thread's answer, delivered on the event loop."""
        if job is not self.routed:
            return  # its deadline already answered 503
        self._release()
        if not self.closed:
            self._respond(response, self.keep_alive and not self.state.draining)
            self._process()

    def _expired(self, timeout: float) -> None:
        # The handler thread keeps running to completion (threads are not
        # cancellable) but its eventual answer is discarded; the
        # connection closes, since a late write would desynchronize it.
        self.deadline_timer = None
        self.state.metrics.record_transport("timeouts")
        self._release()
        if not self.closed:
            self._respond(
                self.state.deadline_exceeded(timeout), keep_alive=False
            )

    def _release(self) -> None:
        self.routed = None
        self.state.inflight -= 1
        if self.deadline_timer is not None:
            self.deadline_timer.cancel()
            self.deadline_timer = None

    def _respond(self, response: Response, keep_alive: bool) -> None:
        blob = _serialize(response, keep_alive=keep_alive)
        if FAULTS.active:
            injected = FAULTS.fire("serve.response.write", payload=blob)
            if injected is not None and injected != blob:
                self.transport.write(injected)
                self._close()  # torn write: the connection is unusable
                return
        self.transport.write(blob)
        if keep_alive:
            self.last_active = self.loop.time()
        else:
            self._close()

    def _close(self) -> None:
        """Close after the buffered answers are written."""
        self.closed = True
        self._cancel_idle()
        self.transport.close()

    def abort(self) -> None:
        """Close now, dropping whatever is buffered either way."""
        self.closed = True
        self._cancel_idle()
        self.transport.abort()

    # -- idle timeout ----------------------------------------------------

    def _cancel_idle(self) -> None:
        if self.idle_timer is not None:
            self.idle_timer.cancel()
            self.idle_timer = None

    def _idle_check(self) -> None:
        # One timer per connection, re-armed here rather than per answer:
        # a routed request keeps the connection busy, and an answer (or the
        # connect) within idle_timeout leaves the rest of it to wait.
        timeout = self.state.config.idle_timeout
        now = self.loop.time()
        remaining = (
            timeout
            if self.routed is not None
            else self.last_active + timeout - now
        )
        if remaining > 0:
            self.idle_timer = self.loop.call_at(now + remaining, self._idle_check)
            return
        # No whole request since the last answer (or since connect): close
        # quietly, there is nothing to answer.  Abort rather than close, so
        # a client that stopped reading its answers cannot hold it open.
        self.idle_timer = None
        self.state.metrics.record_transport("idle_closed")
        self.abort()


async def _start(
    state: ServerState,
    host: str | None = None,
    port: int = 0,
    sock: socket_module.socket | None = None,
) -> asyncio.AbstractServer:
    """Start the server on ``(host, port)`` or an existing socket."""
    loop = asyncio.get_running_loop()
    factory = lambda: _Connection(state, loop)  # noqa: E731
    if sock is not None:
        return await loop.create_server(factory, sock=sock)
    return await loop.create_server(factory, host, port)


def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    headers: dict[str, str] | None = None,
    document=None,
    timeout: float = 30.0,
) -> tuple[int, dict, object]:
    """One blocking HTTP request; returns ``(status, headers, json)``.

    The tiny client behind :meth:`BackgroundServer.get`/``post`` and the
    supervisor harness — tests and the CI smoke share one code path.
    """
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None
        send_headers = dict(headers or {})
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            send_headers.setdefault("Content-Type", "application/json")
        connection.request(method, path, body=body, headers=send_headers)
        response = connection.getresponse()
        blob = response.read()
        payload = json.loads(blob) if blob else None
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def serve_forever(
    root,
    backend: str = "auto",
    host: str = "127.0.0.1",
    port: int = 8707,
    metrics: ServiceMetrics | None = None,
    config: ServeConfig | None = None,
    sock: socket_module.socket | None = None,
    ready=None,
    drain=None,
    extra_stats=None,
    announce: bool = True,
) -> None:
    """Run the HTTP service until interrupted (the CLI entry point).

    ``sock``/``ready``/``drain``/``extra_stats`` are the supervisor
    seam: a pre-fork worker passes the shared listening socket, a
    callback fired once the server accepts, a :class:`threading.Event`
    that triggers graceful drain (stop accepting, finish in-flight up
    to ``config.drain_grace``, exit), and the shared worker board's
    stats callable.
    """
    service = UniverseService.open(
        root, backend=backend, metrics=metrics, extra_stats=extra_stats
    )
    state = ServerState(service, config)

    async def main() -> None:
        server = await _start(state, host, port, sock=sock)
        if announce:
            addresses = ", ".join(
                f"http://{s.getsockname()[0]}:{s.getsockname()[1]}"
                for s in server.sockets
            )
            print(
                f"serving universe store {service.store.root} "
                f"[{service.store.active_backend} backend] on {addresses}",
                flush=True,
            )
        if ready is not None:
            ready()
        grace = 0.0
        try:
            if drain is None:
                # Serve until interrupted.  Not Server.serve_forever():
                # cancelled, it waits for every connection to close.
                await asyncio.get_running_loop().create_future()
            else:
                # Supervisor worker: serve until the drain event, then
                # give in-flight requests drain_grace seconds.
                while not drain.is_set():
                    await asyncio.sleep(0.05)
                grace = state.config.drain_grace
        finally:
            await state.stop_serving(server, grace)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        state.shutdown()


class BackgroundServer:
    """The same server on a daemon thread + ephemeral port (tests/bench).

    ::

        with BackgroundServer(store_root, backend="binary") as server:
            http.client.HTTPConnection(server.host, server.port)

    The event loop lives on the background thread; entering the context
    blocks until the socket is listening, exiting cancels the loop,
    joins the thread and *asserts* clean teardown — no dangling daemon
    thread, no open event loop, no bound socket — so tests cannot leak
    servers (and can immediately rebind the same port).
    """

    def __init__(
        self,
        root,
        backend: str = "auto",
        host: str = "127.0.0.1",
        port: int = 0,
        service: UniverseService | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        self.service = service or UniverseService.open(root, backend=backend)
        self.state = ServerState(self.service, config)
        self._host_requested = host
        self._port_requested = port
        self.host: str = host
        self.port: int = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("background server did not start in 30s")
        if self._failure is not None:
            self.state.shutdown()  # __exit__ will not run
            raise RuntimeError(
                f"background server failed to start: {self._failure}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                _start(self.state, self._host_requested, self._port_requested)
            )
            sockname = server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
            self._ready.set()
            loop.run_forever()
            loop.run_until_complete(
                self.state.stop_serving(server, self.state.config.drain_grace)
            )
        except BaseException as error:  # noqa: BLE001 - report to the foreground
            self._failure = error
            self._ready.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.state.shutdown()
        # Teardown must be provably clean: a server that leaks its
        # thread or socket poisons every later test binding the port.
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError(
                "background server thread still alive after __exit__"
            )
        if self._loop is not None and not self._loop.is_closed():
            raise RuntimeError(
                "background server event loop still open after __exit__"
            )

    # -- tiny built-in client (CI smoke convenience) --------------------

    def get(self, path: str, headers: dict[str, str] | None = None):
        """One blocking GET via http.client; returns (status, headers, json)."""
        return request_json(self.host, self.port, "GET", path, headers=headers)

    def post(self, path: str, document) -> tuple[int, dict, object]:
        return request_json(
            self.host, self.port, "POST", path, document=document
        )
