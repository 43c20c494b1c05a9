"""Worker process: run ``repro`` CLI commands through ``main(argv)``.

Usage: ``python launcher.py SPEC_JSON`` where the spec holds

* ``commands`` — argv lists, run in order through
  ``repro.__main__.main`` (the entry point ``python -m repro`` runs);
* ``imports`` — modules to import before reporting ready, so that set-up
  ends where the first command's own work begins;
* ``capture`` — a path prefix: command *i*'s stdout goes to
  ``<capture>.<i>``; with ``null`` stdout stays the worker's own (serve
  prints its announce line there);
* ``trace`` — when set, the layer functions are wrapped before the
  commands run and every span is written to this path at exit;
* ``ready`` — print a ``{"ready": true}`` line once imports are done.

After the commands the worker prints one JSON line
``{"ops": [{"argv", "exit", "started", "seconds"}, ...]}``, where
``started`` is ``time.perf_counter()`` when the command began.  A
command that exits non-zero ends the sequence.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    from repro.__main__ import main as repro_main

    for name in spec.get("imports", ()):
        importlib.import_module(name)
    tracer = None
    if spec.get("trace"):
        from layers import wraps
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(wraps(tracer))
    if spec.get("ready"):
        print(json.dumps({"ready": True}), flush=True)
    ops = []
    try:
        for index, argv in enumerate(spec["commands"]):
            capture = spec.get("capture")
            with contextlib.ExitStack() as stack:
                if capture:
                    out = stack.enter_context(open(f"{capture}.{index}", "w"))
                    stack.enter_context(contextlib.redirect_stdout(out))
                started = time.perf_counter()
                try:
                    code = repro_main(argv)
                except SystemExit as error:
                    code = error.code
                seconds = time.perf_counter() - started
            ops.append({"argv": argv, "exit": code, "started": started,
                        "seconds": seconds})
            if code:
                break
    finally:
        if tracer is not None:
            tracer.dump(spec["trace"])
    print(json.dumps({"ops": ops}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
