#!/usr/bin/env python3
"""Check that no process the benchmark starts outlives it.

Run it as ``python3 perfbench/check_teardown.py``.

Each case starts the benchmark's command from ``BENCHMARK.json``, in the
checkout that holds this file, with a unique token in its environment,
which every worker, server and client inherits, then waits for the run
to end and scans ``/proc`` for any process still carrying the token:

* a serve run interrupted with SIGINT (Ctrl-C) in the middle of its
  client phase, and one stopped with SIGTERM at the same point — both
  must exit non-zero without printing a result;
* a short explore run left to finish — it must exit 0 and print one.

Exits 0 when every case leaves nothing behind, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOKEN_VAR = "PERFBENCH_TEARDOWN_TOKEN"


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError:  # exited meanwhile, or not ours to read
        return b""


def processes_with(token: str) -> list[tuple[int, str]]:
    """(pid, command line) of every live process whose environment
    carries ``token``."""
    needle = f"{TOKEN_VAR}={token}".encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        if needle in _read(entry / "environ").split(b"\0"):
            command = _read(entry / "cmdline").replace(b"\0", b" ")
            found.append((int(entry.name), command.decode(errors="replace")))
    return found


def start(token: str, *args: str) -> subprocess.Popen:
    """The benchmark's own command line, as BENCHMARK.json gives it."""
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    env = dict(os.environ, **{TOKEN_VAR: token})
    return subprocess.Popen(
        [*command, "--seed", "1", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def wait_for_client(token: str, run: subprocess.Popen, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and run.poll() is None:
        if any("client.py" in command for _, command in processes_with(token)):
            return True
        time.sleep(0.1)
    return False


def interrupted_case(signum: int) -> list[str]:
    token = uuid.uuid4().hex
    run = start(token, "--workload", "serve", "--seconds", "10", "--trace", "0")
    problems = []
    try:
        if not wait_for_client(token, run, timeout=120):
            return [f"{signal.Signals(signum).name}: serve never reached its client phase"]
        time.sleep(1.0)  # well inside the client's phases
        run.send_signal(signum)
        out, _ = run.communicate(timeout=60)
        if run.returncode == 0 or out.strip():
            problems.append(
                f"{signal.Signals(signum).name}: run exited {run.returncode} "
                f"and printed {out.strip()[-80:]!r}"
            )
    finally:
        if run.poll() is None:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
    left = processes_with(token)
    if left:
        problems.append(f"{signal.Signals(signum).name}: left behind {left}")
    return problems


def finished_case() -> list[str]:
    token = uuid.uuid4().hex
    run = start(token, "--workload", "explore-wsb-grh", "--seconds", "1", "--trace", "0")
    out, _ = run.communicate(timeout=170)
    problems = []
    if run.returncode != 0 or b'"correct": true' not in out.strip().splitlines()[-1]:
        problems.append(f"finished run exited {run.returncode}: {out[-200:]!r}")
    left = processes_with(token)
    if left:
        problems.append(f"finished run left behind {left}")
    return problems


def main() -> int:
    problems = []
    for case in (
        lambda: interrupted_case(signal.SIGINT),
        lambda: interrupted_case(signal.SIGTERM),
        finished_case,
    ):
        problems += case()
    for problem in problems:
        print(f"FAIL {problem}")
    print("teardown: " + ("OK" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
