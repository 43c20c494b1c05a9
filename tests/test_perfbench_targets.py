"""Every function the benchmark's traced runs wrap still exists.

``perfbench/layers.py`` names the program's functions by dotted path
(``"module:Class.method"``), and ``perfbench/tracer.py`` resolves each
one when a traced run starts.  A refactor that renames or drops one of
them would otherwise surface only in ``perfbench/run.py --trace 1``.
This test resolves every target the way ``Tracer.install`` does, and
wraps or changes nothing.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def wraps():
    """``layers.wraps()`` over a stand-in tracer (it reads ``notes``
    only), with the perfbench modules imported for this test alone."""
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        yield layers.wraps(types.SimpleNamespace(notes={}))
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("layers", "tracer"):
            if name not in before:
                sys.modules.pop(name, None)


def resolve(target):
    """The object ``Tracer.install`` would wrap for ``target``."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner.__dict__[attr] if owner_name else getattr(module, attr)


def test_every_wrap_target_resolves_to_a_plain_function(wraps):
    assert wraps
    for wrap in wraps:
        assert isinstance(resolve(wrap.target), types.FunctionType), (
            wrap.target
        )
