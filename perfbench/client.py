"""HTTP load client for the serve workload (its own process).

Usage: ``python client.py PLAN_JSON RESULT_JSON``.  The plan names the
server address, the distinct request targets, the targets whose ETags
are learned before timing starts, and the phases:

* ``open`` — requests become due at a fixed rate whatever the server
  does; each goes out on the first free keep-alive connection (of all,
  or of the first ``connections``), and its latency runs from when it
  was due, so a stall also delays the requests queued behind it;
* ``closed`` — every connection (or the first ``connections``) sends its
  next request as soon as the previous answer arrives, for ``seconds``
  or until ``count`` requests have gone out.

A phase that names ``cpus`` moves the client onto those CPUs first.

Every request carries ``rid=<n>`` in its query string, the id a traced
server stamps on its spans.  A revalidation sends ``If-None-Match`` with
the ETag learned for its target (mode 1) or a stale one (mode 2).  The
result file holds one record per request plus the distinct response
bodies and ETags; checking them is the caller's job.
"""

from __future__ import annotations

import gc
import json
import os
import select
import socket
import sys
import time
from collections import deque

clock = time.perf_counter

#: Fields of one request record in the result file.
RECORD = ("rid", "phase", "target", "inm", "due", "sent", "done",
          "status", "etag", "body")


class Connection:
    def __init__(self, host: str, port: int):
        self.address = (host, port)
        self.sock: socket.socket | None = None
        self.open()

    def open(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self.sock = socket.create_connection(self.address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.header_end = -1
        self.length = 0
        self.record: list | None = None

    def send(self, payload: bytes, record: list) -> None:
        self.record = record
        record[5] = clock()
        self.sock.sendall(payload)

    def receive(self) -> tuple | None:
        """Read what is available; returns ``(status, etag, body)`` once
        the response is whole, ``(0, None, b"")`` if the server hung up."""
        chunk = self.sock.recv(262144)
        if not chunk:
            self.open()
            return 0, None, b""
        self.buffer += chunk
        if self.header_end < 0:
            self.header_end = self.buffer.find(b"\r\n\r\n")
            if self.header_end < 0:
                return None
            head = self.buffer[: self.header_end].decode("latin-1").split("\r\n")
            self.status = int(head[0].split()[1])
            self.etag = None
            for line in head[1:]:
                name, _, value = line.partition(":")
                name = name.lower()
                if name == "content-length":
                    self.length = int(value)
                elif name == "etag":
                    self.etag = value.strip()
        start = self.header_end + 4
        if len(self.buffer) < start + self.length:
            return None
        body = self.buffer[start : start + self.length]
        result = (self.status, self.etag, body)
        self.buffer = self.buffer[start + self.length :]
        self.header_end = -1
        self.length = 0
        return result


class Client:
    def __init__(self, plan: dict):
        self.plan = plan
        self.targets = plan["targets"]
        self.conns = [
            Connection(plan["host"], plan["port"])
            for _ in range(plan["connections"])
        ]
        self.records: list[list] = []
        self.bodies: dict[bytes, int] = {}
        self.etags: dict[str, int] = {}
        self.learned: dict[int, str] = {}
        self.next_rid = 0

    def _index(self, table: dict, value) -> int:
        if value is None:
            return -1
        if value not in table:
            table[value] = len(table)
        return table[value]

    def _request(self, target: int, mode: int, rid: int) -> tuple[bytes, int]:
        path = f"{self.targets[target]}&rid={rid}"  # every target has a query
        header = ""
        tag = None
        if mode and target in self.learned:
            tag = self.learned[target]
            if mode == 2:
                tag = tag[:-2] + ("0" if tag[-2] != "0" else "1") + tag[-1]
            header = f"If-None-Match: {tag}\r\n"
        payload = f"GET {path} HTTP/1.1\r\nHost: bench\r\n{header}\r\n".encode()
        return payload, self._index(self.etags, tag)

    def prime(self) -> None:
        """Learn the ETag of every revalidation target (untimed; recorded
        with phase -1 so that the answers are checked too)."""
        conn = self.conns[0]
        for target in self.plan["priming"]:
            payload, record = self._new_record(-1, target, 0, clock())
            conn.send(payload, record)
            response = None
            while response is None:
                response = conn.receive()
            self._finish(conn, response)
            if response[0] != 200 or response[1] is None:
                raise RuntimeError(f"priming {self.targets[target]} got {response[0]}")
            self.learned[target] = response[1]

    def _finish(self, conn: Connection, response: tuple) -> None:
        record = conn.record
        conn.record = None
        record[6] = clock()
        record[7] = response[0]
        record[8] = self._index(self.etags, response[1])
        record[9] = self._index(self.bodies, response[2]) if response[2] else -1

    def _new_record(self, phase: int, target: int, mode: int, due: float) -> tuple[bytes, list]:
        rid = self.next_rid
        self.next_rid += 1
        payload, tag = self._request(target, mode, rid)
        record = [rid, phase, target, tag, due, 0.0, 0.0, 0, -1, -1]
        self.records.append(record)
        return payload, record

    def _pump(self, busy: list[Connection], timeout: float | None) -> list[Connection]:
        """Wait up to ``timeout`` for answers; returns the connections freed."""
        ready, _, _ = select.select([c.sock for c in busy], [], [], timeout)
        freed = []
        for conn in busy:
            if conn.sock in ready:
                response = conn.receive()
                if response is not None:
                    self._finish(conn, response)
                    freed.append(conn)
        return freed

    def open_loop(self, phase: int, spec: dict) -> None:
        requests = spec["requests"]
        period = 1.0 / spec["rate"]
        start = clock() + 0.01
        waiting: deque[int] = deque()
        idle = self.conns[: spec.get("connections", len(self.conns))]
        busy: list[Connection] = []
        issued = 0
        deadline = start + len(requests) * period + 60
        while issued < len(requests) or waiting or busy:
            now = clock()
            if now > deadline:
                raise RuntimeError("open-loop phase overran its deadline")
            while issued < len(requests) and start + issued * period <= now:
                waiting.append(issued)
                issued += 1
            while waiting and idle:
                index = waiting.popleft()
                target, mode = requests[index]
                payload, record = self._new_record(
                    phase, target, mode, start + index * period
                )
                conn = idle.pop()
                conn.send(payload, record)
                busy.append(conn)
            if waiting or issued >= len(requests):
                timeout = 1.0
            else:
                timeout = max(0.0, start + issued * period - clock())
            if busy:
                for conn in self._pump(busy, timeout):
                    busy.remove(conn)
                    idle.append(conn)
            elif timeout:
                time.sleep(timeout)

    def closed_loop(self, phase: int, spec: dict) -> None:
        requests = spec["requests"]
        stop = clock() + spec.get("seconds", 60)
        count = spec.get("count")
        cursor = 0
        busy: list[Connection] = []

        def issue(conn: Connection) -> None:
            nonlocal cursor
            target, mode = requests[cursor % len(requests)]
            cursor += 1
            payload, record = self._new_record(phase, target, mode, clock())
            conn.send(payload, record)
            busy.append(conn)

        for conn in self.conns[: spec.get("connections", len(self.conns))]:
            issue(conn)
        while busy:
            if clock() > stop + 60:
                raise RuntimeError("closed-loop phase overran its deadline")
            for conn in self._pump(busy, 1.0):
                busy.remove(conn)
                if clock() < stop and (count is None or cursor < count):
                    issue(conn)

    def run(self) -> dict:
        self.prime()
        # A collector pause here would show up as server latency; the
        # records kept meanwhile are freed when the client exits.
        gc.collect()
        gc.disable()
        phases = []
        for index, spec in enumerate(self.plan["phases"]):
            if "cpus" in spec:
                os.sched_setaffinity(0, spec["cpus"])
            cpu = time.process_time()
            started = clock()
            if spec["kind"] == "open":
                self.open_loop(index, spec)
            else:
                self.closed_loop(index, spec)
            phases.append({
                "name": spec["name"],
                "started": started,
                "seconds": clock() - started,
                "cpu_seconds": time.process_time() - cpu,
            })
        for conn in self.conns:
            conn.sock.close()
        return {
            "fields": RECORD,
            "phases": phases,
            "records": self.records,
            "bodies": [body.decode("utf-8") for body in self.bodies],
            "etags": list(self.etags),
        }


def main() -> int:
    with open(sys.argv[1]) as source:
        plan = json.load(source)
    result = Client(plan).run()
    with open(sys.argv[2], "w") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
