"""Child processes that never outlive the benchmark.

Every worker, server and client the benchmark starts is spawned through
one :class:`Children` object, each in its own session (so its process
group holds it and anything it forks).  Closing the object tears down
every child still running, whatever path the benchmark leaves by:
SIGTERM to the group, a bounded wait, SIGKILL to the group, then the
leader is reaped.  The leader stays a zombie until that last step, so
its group id cannot be reused while the group is being killed.

Reaping goes through ``os.wait4`` so each child's own peak RSS is read
from its rusage rather than sampled.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time


class ChildTimeout(RuntimeError):
    """A child did not produce what was awaited before its deadline."""


class Child:
    """One spawned process with a line reader over its stdout pipe."""

    def __init__(self, argv, env, cwd, stdout_pipe: bool, log_path):
        self.argv = list(argv)
        self._log = open(log_path, "ab")
        try:
            self.proc = subprocess.Popen(
                self.argv,
                env=env,
                cwd=cwd,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE if stdout_pipe else self._log,
                stderr=self._log,
                start_new_session=True,
            )
        except OSError:
            self._log.close()
            raise
        self.pid = self.proc.pid
        self.maxrss_kb: int | None = None
        self.returncode: int | None = None
        self._buffer = b""

    def read_line(self, deadline: float) -> str:
        """The next stdout line, blocking until it arrives or ``deadline``.

        Raises :class:`ChildTimeout` at the deadline and ``EOFError``
        when the child closes stdout first.
        """
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ChildTimeout(f"no output line from {self.argv[:4]}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise EOFError(f"{self.argv[:4]} closed stdout")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8", "replace")

    def send_signal(self, signum: int) -> None:
        if self.returncode is None:
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:
                pass

    def _exited(self) -> bool:
        """Whether the leader has exited, without reaping it."""
        try:
            info = os.waitid(
                os.P_PID, self.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT
            )
        except ChildProcessError:
            return True
        return info is not None

    def wait_exit(self, timeout: float) -> bool:
        """Poll until the leader exits (not reaped) or ``timeout`` passes."""
        deadline = time.perf_counter() + timeout
        while not self._exited():
            if time.perf_counter() >= deadline:
                return False
            time.sleep(0.01)
        return True

    def close(self, grace: float = 3.0) -> int:
        """Stop the whole process group and reap the leader; idempotent.

        A child that already exited on its own skips straight to the
        group SIGKILL (which clears any straggler it left behind) and
        the reap.
        """
        if self.returncode is not None:
            return self.returncode
        if not self._exited():
            self._signal_group(signal.SIGTERM)
            self.wait_exit(grace)
        self._signal_group(signal.SIGKILL)
        _, status, usage = os.wait4(self.pid, 0)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.maxrss_kb = usage.ru_maxrss
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return self.returncode

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.pid, signum)
        except ProcessLookupError:
            pass


class Children:
    """Owner of every child of one benchmark run (a context manager)."""

    def __init__(self, env: dict, cwd: str, log_path: str):
        self.env = env
        self.cwd = cwd
        self.log_path = log_path
        self._live: list[Child] = []

    def spawn(self, argv, stdout_pipe: bool = True, cpus=None) -> Child:
        """Start ``argv``; ``cpus`` pins it (and the threads it starts)."""
        child = Child(argv, self.env, self.cwd, stdout_pipe, self.log_path)
        self._live.append(child)
        if cpus:
            os.sched_setaffinity(child.pid, cpus)
        return child

    def reap(self, child: Child, grace: float = 3.0) -> int:
        code = child.close(grace)
        if child in self._live:
            self._live.remove(child)
        return code

    def close(self) -> None:
        while self._live:
            self.reap(self._live[-1], grace=1.0)

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
