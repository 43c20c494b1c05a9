"""One knob for every process-wide memo cache (closed forms, lattices).

The hot closed-form layers — classification, binomial gcds, the
bounded-partition counting DP, kernel-set lattices, ordered Bell numbers —
were historically ``lru_cache(maxsize=None)``: perfect for one-shot report
generation, unbounded growth for long-running census/universe sweeps.
This module centralizes them behind a single configurable limit:

* :func:`managed_cache` — drop-in ``lru_cache`` replacement that registers
  the cache under a dotted name and applies the process-wide maxsize;
* :class:`BoundedDictCache` — the same policy for hand-rolled dict caches
  (the kernel-set lattice, whose master-filter lookup pattern ``lru_cache``
  cannot express);
* :func:`configure` — change the limit at runtime (rebuilds every managed
  cache; entries are dropped, correctness is unaffected);
* :func:`cache_stats` — hit/miss/size counters for every managed cache,
  mirroring :meth:`repro.core.store.FamilyStore.cache_info`.

The default limit is large enough that no realistic sweep evicts
(``DEFAULT_MAXSIZE`` entries per cache) but keeps memory bounded on
service-style processes that decide tasks indefinitely.  Override it
before first use with the ``REPRO_CACHE_MAXSIZE`` environment variable
(``0`` or ``none`` means unbounded) or at runtime with :func:`configure`.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from functools import lru_cache, wraps
from threading import Lock
from typing import Any, Callable, Hashable

#: Per-cache entry limit applied when no override is configured.
DEFAULT_MAXSIZE = 1 << 20


def _initial_maxsize() -> int | None:
    raw = os.environ.get("REPRO_CACHE_MAXSIZE")
    if raw is None:
        return DEFAULT_MAXSIZE
    text = raw.strip().lower()
    if text in ("", "none", "unbounded"):
        return None
    try:
        value = int(text)
    except ValueError:
        return DEFAULT_MAXSIZE
    return None if value <= 0 else value


_lock = Lock()
_maxsize: int | None = _initial_maxsize()
_registry: "OrderedDict[str, _Managed]" = OrderedDict()


class _Managed:
    """Common protocol of managed caches (rebuild + stats)."""

    def rebuild(self, maxsize: int | None) -> None:
        raise NotImplementedError

    def stats(self) -> dict[str, int | None]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


def _register(name: str, cache: _Managed) -> None:
    with _lock:
        if name in _registry:
            raise ValueError(f"managed cache {name!r} registered twice")
        _registry[name] = cache


class _ManagedFunction(_Managed):
    """An ``lru_cache``-backed function whose maxsize follows the knob."""

    def __init__(self, name: str, func: Callable):
        self.name = name
        self._func = func
        self._cached = lru_cache(maxsize=_maxsize)(func)

    def __call__(self, *args):
        return self._cached(*args)

    def rebuild(self, maxsize: int | None) -> None:
        self._cached = lru_cache(maxsize=maxsize)(self._func)

    def cache_info(self):
        return self._cached.cache_info()

    def cache_clear(self) -> None:
        self._cached.cache_clear()

    clear = cache_clear

    def stats(self) -> dict[str, int | None]:
        info = self._cached.cache_info()
        return {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "maxsize": info.maxsize,
        }


def managed_cache(name: str) -> Callable[[Callable], _ManagedFunction]:
    """Decorator: a registered, knob-bounded ``lru_cache``.

    The wrapper keeps ``cache_info``/``cache_clear`` so existing call
    sites (and tests) keep working unchanged.
    """

    def decorate(func: Callable) -> _ManagedFunction:
        managed = _ManagedFunction(name, func)
        wraps(func)(managed)
        _register(name, managed)
        return managed

    return decorate


class BoundedDictCache(_Managed):
    """LRU dict cache with hit/miss counters, bound to the shared knob.

    Used where the lookup pattern is richer than argument memoization —
    the kernel-set lattice reads the family *master* entry to derive
    tighter sets by filtering.  ``get`` counts a hit/miss per logical
    query; ``peek`` reads without touching the counters (for secondary
    master-list probes).

    Operations take a per-cache lock: the serving layer's handler
    threads share the hot-node cache, and an OrderedDict reordered from
    two threads at once can corrupt its linkage.

    Two rules are opt-in, for a cache whose entries depend on more than
    their keys (the serving layer's answer memo):

    * *scope* — ``get``, ``peek`` and ``put`` take a ``scope``, the
      state their entry was computed under.  A ``get`` under another
      scope than the cache's empties the cache and moves it to that
      scope; a ``peek`` under another scope misses and a ``put`` is
      dropped.  Under the lock, so no entry outlives a scope change.
      Callers that pass none all share the ``None`` scope.
    * *bytes* — with ``max_bytes``, every key and value has a length
      (a ``str`` key, a ``bytes`` value) and the cache also evicts until
      the lengths of its keys and values add up to at most ``max_bytes``.
    """

    def __init__(self, name: str, max_bytes: int | None = None):
        self.name = name
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._maxsize = _maxsize
        self._max_bytes = max_bytes
        self._bytes = 0
        self._scope: Hashable = None
        self._hits = 0
        self._misses = 0
        self._cache_lock = Lock()
        _register(name, self)

    _MISSING = object()

    def get(self, key: Hashable, scope: Hashable = None) -> Any | None:
        with self._cache_lock:
            if scope != self._scope:
                self._empty()
                self._scope = scope
            value = self._data.get(key, self._MISSING)
            if value is self._MISSING:
                self._misses += 1
                return None
            self._hits += 1
            self._data.move_to_end(key)
            return value

    def peek(self, key: Hashable, scope: Hashable = None) -> Any | None:
        with self._cache_lock:
            if scope != self._scope:
                return None
            value = self._data.get(key, self._MISSING)
            return None if value is self._MISSING else value

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove one entry (tests use this to force rebuild paths)."""
        with self._cache_lock:
            value = self._data.pop(key, self._MISSING)
            if value is self._MISSING:
                return default
            self._bytes -= self._length(key, value)
            return value

    def put(self, key: Hashable, value: Any, scope: Hashable = None) -> None:
        with self._cache_lock:
            if scope != self._scope:
                return
            data = self._data
            old = data.pop(key, self._MISSING)
            if old is not self._MISSING:
                self._bytes -= self._length(key, old)
            data[key] = value
            self._bytes += self._length(key, value)
            if self._maxsize is not None:
                while len(data) > self._maxsize:
                    self._evict()
            if self._max_bytes is not None:
                while self._bytes > self._max_bytes:
                    self._evict()

    def _length(self, key: Hashable, value: Any) -> int:
        return 0 if self._max_bytes is None else len(key) + len(value)

    def _evict(self) -> None:
        key, value = self._data.popitem(last=False)
        self._bytes -= self._length(key, value)

    def _empty(self) -> None:
        self._data.clear()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._data)

    def rebuild(self, maxsize: int | None) -> None:
        with self._cache_lock:
            self._maxsize = maxsize
            self._empty()

    def clear(self) -> None:
        with self._cache_lock:
            self._empty()
            self._hits = 0
            self._misses = 0

    def stats(self) -> dict[str, int | None]:
        stats = {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._data),
            "maxsize": self._maxsize,
        }
        if self._max_bytes is not None:
            stats["bytes"] = self._bytes
            stats["max_bytes"] = self._max_bytes
        return stats


class _ExternalCounters(_Managed):
    """Adapter for counters maintained outside this module.

    Disk-backed caches (the decision layer's certificate cache) size
    themselves by their on-disk content, so the maxsize knob does not
    apply — they register here only so :func:`cache_stats` reports one
    merged view of every cache in the process.
    """

    def __init__(
        self,
        stats_fn: Callable[[], dict],
        clear_fn: Callable[[], None] | None = None,
    ):
        self._stats_fn = stats_fn
        self._clear_fn = clear_fn

    def rebuild(self, maxsize: int | None) -> None:
        pass  # externally bounded; the knob does not apply

    def stats(self) -> dict[str, int | None]:
        return dict(self._stats_fn())

    def clear(self) -> None:
        if self._clear_fn is not None:
            self._clear_fn()


def register_counters(
    name: str,
    stats_fn: Callable[[], dict],
    clear_fn: Callable[[], None] | None = None,
) -> None:
    """Expose externally-maintained counters under :func:`cache_stats`.

    ``clear_fn`` (optional) hooks :func:`clear_all_caches`; it should
    reset counters only, never destroy durable content.
    """
    _register(name, _ExternalCounters(stats_fn, clear_fn))


def configure(maxsize: int | None) -> None:
    """Set the per-cache entry limit for every managed cache.

    ``None`` means unbounded.  Rebuilding drops cached entries (they are
    memoized derivations, so only warm-up time is lost).
    """
    global _maxsize
    with _lock:
        _maxsize = maxsize
        for cache in _registry.values():
            cache.rebuild(maxsize)


def current_maxsize() -> int | None:
    """The limit managed caches are currently built with."""
    return _maxsize


def cache_stats() -> dict[str, dict[str, int | None]]:
    """Hit/miss/size counters for every managed cache, by dotted name.

    The family store keeps its own counters
    (:meth:`repro.core.store.FamilyStore.cache_info`); callers wanting a
    single report can merge the two.
    """
    with _lock:
        return {name: cache.stats() for name, cache in _registry.items()}


def clear_all_caches() -> None:
    """Drop every managed cache's entries and counters (tests/benchmarks)."""
    with _lock:
        for cache in _registry.values():
            cache.clear()
