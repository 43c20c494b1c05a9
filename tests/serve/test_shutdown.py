"""Shutting a server down does not wait for idle keep-alive clients.

Since Python 3.12 ``asyncio.Server.wait_closed`` waits for every
connection the server accepted, so a server that only closed its
listening socket would wait out each idle client's idle timeout (30 s
by default) before ``BackgroundServer.__exit__`` or a drained worker
returned.  Idle connections must be closed at once.

The module imports no pytest: each test takes a directory and runs as a
plain function too, so the check runs on an interpreter without pytest.
"""

import http.client
import socket
import threading
import time

from repro.serve import BackgroundServer, ServeConfig
from repro.serve.http import serve_forever
from repro.universe import UniverseStore

CONFIG = ServeConfig(idle_timeout=30.0)


def build(tmp_path):
    root = tmp_path / "store"
    store = UniverseStore(root)
    store.build(4, 2)
    store.pack()
    return root


def idle_client(host, port):
    """A keep-alive client that got one answer and then sends nothing."""
    client = http.client.HTTPConnection(host, port, timeout=60)
    client.request("GET", "/healthz")
    response = client.getresponse()
    response.read()
    assert response.status == 200
    assert response.getheader("Connection") == "keep-alive"
    return client


def test_background_server_exit_does_not_wait_for_idle_clients(tmp_path):
    root = build(tmp_path)
    with BackgroundServer(root, backend="binary", config=CONFIG) as server:
        client = idle_client(server.host, server.port)
        started = time.monotonic()
    elapsed = time.monotonic() - started
    try:
        assert elapsed < 1.0, f"__exit__ took {elapsed:.2f} s"
        # The server closed the idle connection: the client reads EOF.
        client.sock.settimeout(5)
        assert client.sock.recv(1) == b""
    finally:
        client.close()


def test_drained_worker_does_not_wait_for_idle_clients(tmp_path):
    root = build(tmp_path)
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    ready, drain = threading.Event(), threading.Event()
    worker = threading.Thread(
        target=serve_forever,
        args=(root,),
        kwargs=dict(
            backend="binary",
            config=CONFIG,
            sock=listener,
            ready=ready.set,
            drain=drain,
            announce=False,
        ),
        daemon=True,
    )
    worker.start()
    try:
        assert ready.wait(30)
        client = idle_client("127.0.0.1", port)
        started = time.monotonic()
        drain.set()
        worker.join(timeout=60)
        elapsed = time.monotonic() - started
        client.close()
        assert not worker.is_alive()
        assert elapsed < 1.0, f"the drain took {elapsed:.2f} s"
    finally:
        drain.set()
        listener.close()


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    for test in (
        test_background_server_exit_does_not_wait_for_idle_clients,
        test_drained_worker_does_not_wait_for_idle_clients,
    ):
        with tempfile.TemporaryDirectory() as directory:
            test(Path(directory))
        print(f"{sys.version.split()[0]} {test.__name__}: ok")
