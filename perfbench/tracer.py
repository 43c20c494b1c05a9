"""In-memory span recorder for the benchmark's traced runs.

:meth:`Tracer.install` swaps named functions of the program for wrappers
that record one span per call: layer, start, end, self time (duration
minus the time of wrapped calls nested inside it), parent span and
request id.  Spans stay in per-thread arrays (one writer each, so no
locking on the hot path) and are written once, when the traced process
ends, by :meth:`Tracer.dump`; :func:`load` reads them back.

Nothing under ``src/`` is modified: wrapping happens on the imported
module and class objects of the traced process only.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

_FIELDS = (("layer", "H"), ("start", "d"), ("end", "d"), ("self", "d"),
           ("parent", "i"), ("rid", "q"))


@dataclass(frozen=True)
class Wrap:
    """One function to trace.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``after(counters, token, args, result, error, rid)`` may add counts
    to the span's request id (see :func:`merge_counters`); its ``token``
    is what ``before(args, kwargs)`` returned.  ``rid_from`` gives the
    request id that this span and the spans under it carry.  An
    ``outermost`` wrap records only calls that no other traced call
    encloses; a nested call's time stays in the enclosing span.
    """

    layer: str
    target: str
    before: Callable | None = None
    after: Callable | None = None
    rid_from: Callable | None = None
    outermost: bool = False


def merge_counters(into: dict[str, float], counters: dict[str, float]) -> None:
    """Add ``counters`` to ``into``: a ``max:``-prefixed counter merges by
    maximum, any other by sum."""
    for key, value in counters.items():
        if key.startswith("max:"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


class _ThreadSpans:
    def __init__(self) -> None:
        self.arrays = {name: array(code) for name, code in _FIELDS}
        self.stack: list[list] = []  # [span index, seconds in wrapped children]
        self.rid = -1
        self.counters: dict[int, dict[str, float]] = {}  # by request id


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        #: Per-object notes shared between wraps (serve maps a response
        #: object to the request id that produced it).
        self.notes: dict[int, Any] = {}

    def _new_spans(self) -> _ThreadSpans:
        """The calling thread's span arrays, created on its first span."""
        spans = _ThreadSpans()
        with self._lock:
            self._threads.append(spans)
        self._local.spans = spans
        return spans

    def _layer_id(self, layer: str) -> int:
        if layer not in self.names:
            self.names.append(layer)
        return self.names.index(layer)

    def wrapper(self, wrap: Wrap, function: Callable) -> Callable:
        layer_id = self._layer_id(wrap.layer)
        local, new_spans = self._local, self._new_spans
        before, after, rid_from = wrap.before, wrap.after, wrap.rid_from
        outermost = wrap.outermost
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                spans = local.spans
            except AttributeError:
                spans = new_spans()
            stack = spans.stack
            if outermost and stack:
                return function(*args, **kwargs)
            arrays = spans.arrays
            outer_rid = spans.rid
            if rid_from is not None:
                spans.rid = rid_from(args, kwargs)
            token = before(args, kwargs) if before is not None else None
            index = len(arrays["layer"])
            arrays["layer"].append(layer_id)
            arrays["parent"].append(stack[-1][0] if stack else -1)
            arrays["rid"].append(spans.rid)
            arrays["end"].append(0.0)
            arrays["self"].append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            arrays["start"].append(start)
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as raised:
                error = raised
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                arrays["end"][index] = end
                arrays["self"][index] = duration - frame[1]
                rid = spans.rid
                spans.rid = outer_rid
                if after is not None:
                    counters = spans.counters.setdefault(rid, {})
                    after(counters, token, args, result, error, rid)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        return traced

    def install(self, wraps) -> None:
        """Replace every wrap target, and every alias of a module-level
        function in the already-imported modules of its package."""
        for wrap in wraps:
            module_name, _, qualname = wrap.target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"cannot trace {wrap.target}: not a plain function")
            traced = self.wrapper(wrap, original)
            setattr(owner, attr, traced)
            if owner_name:
                continue
            package = module_name.split(".")[0] + "."
            for name, other in list(sys.modules.items()):
                if other is None or not name.startswith(package):
                    continue
                namespace = vars(other)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = traced

    def dump(self, path) -> None:
        """Write every span and counter: a JSON header line, then the
        raw per-thread arrays in header order."""
        counters: dict[int, dict[str, float]] = {}
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            for rid, values in spans.counters.items():
                merge_counters(counters.setdefault(rid, {}), values)
        header = {
            "names": self.names,
            "fields": [name for name, _ in _FIELDS],
            "threads": [len(spans.arrays["layer"]) for spans in threads],
            "counters": counters,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for spans in threads:
                for name, _ in _FIELDS:
                    spans.arrays[name].tofile(out)


@dataclass
class Trace:
    """Spans read back from a dump: one dict of arrays per thread, and the
    counters by request id."""

    names: list[str]
    threads: list[dict[str, array]]
    counters: dict[int, dict[str, float]]


def load(path) -> Trace:
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        threads = []
        for length in header["threads"]:
            arrays = {}
            for name, code in _FIELDS:
                values = array(code)
                values.fromfile(source, length)
                arrays[name] = values
            threads.append(arrays)
    counters = {int(rid): values for rid, values in header["counters"].items()}
    return Trace(header["names"], threads, counters)
