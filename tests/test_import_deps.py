"""networkx stays off every command-line import path.

Only ``repro.graphs`` imports networkx at module level; everything else
imports it inside the functions that build networkx graphs.  The check
runs in a fresh interpreter, since this test process has long since
imported networkx through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

CLI_MODULES = (
    "repro.__main__",
    "repro.analysis",
    "repro.shm.engine",
    "repro.universe",
    "repro.decision",
    "repro.sweep",
    "repro.serve",
)


def test_cli_modules_do_not_import_networkx():
    script = (
        "import importlib, sys\n"
        f"for name in {CLI_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "loaded = sorted(name for name in sys.modules\n"
        "                if name.split('.')[0] == 'networkx')\n"
        "assert not loaded, loaded[:5]\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
