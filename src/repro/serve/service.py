"""The transport-free request router behind ``python -m repro serve``.

:class:`UniverseService` answers every endpoint as a pure function of
``(method, path, query, body, if_none_match)`` returning a
:class:`Response`; the HTTP layer (:mod:`repro.serve.http`) only parses
bytes off the socket and serializes the result.  That split is what the
contract tests pin: the whole endpoint surface is exercised in-process,
and only a thin smoke drives real sockets.

Endpoints (all JSON)::

    GET  /decide?n=&m=&low=&high=      point verdict (pack lookup; tasks
                                       outside the rectangle fall back to
                                       the structural decision tiers)
    GET  /cones?n=&m=&low=&high=       harder/weaker reachability cones
         [&direction=both|harder|weaker][&kinds=a,b]
    GET  /reduction-path?source=n,m,l,u&target=n,m,l,u[&kinds=a,b]
    GET  /frontier                     per-verdict counts + boundary edges
    POST /batch                        {"requests": [{endpoint, params}]}
    GET  /stats                        service + store + cache counters
    GET  /healthz                      liveness probe

Caching contract: every 200 response carries a strong ETag derived from
the certificate content hashes already in the store — a decide answer
backed by a certificate revalidates on that certificate's id, and
everything else keys on the store fingerprint (which pins the cell set
and overrides, hence every derived answer).  ``If-None-Match`` hits
return ``304`` with no body; any store mutation changes the fingerprint
and therefore every fingerprint-keyed ETag at once.

The answer memo (``serve.answers``): :meth:`UniverseService.handle`
keeps the ETag and encoded body of each 200 answer it can repeat, so a
repeated request skips the router and the JSON encoder.

* *Key* — the endpoint, then the value of each query parameter that
  endpoint reads (:data:`MEMO_PARAMS`), so parameters the router ignores
  (a client's request id, say) do not split the key.  Only one spelling
  of each value gets a key: plain decimals for the integers (not
  ``06`` or ``+6``, which the router reads as ``6``), a direction the
  router accepts, kinds that are edge kinds.  A request spelled
  otherwise, or with an empty value, is routed.
* *Value* — one ``bytes``: the ETag and the body, nothing decoded.
* *Scope* — :meth:`UniverseStore.read_scope`, the store's root,
  fingerprint and active backend, read without I/O on every request.
  When it changes (a rebuild re-opened, a pack that failed mid-serve)
  the memo empties; a fill is dropped when the scope moved while its
  answer was computed.
* *Bound* — a :class:`~repro.core.cache_config.BoundedDictCache` LRU
  under the process-wide maxsize (``REPRO_CACHE_MAXSIZE``) and
  :data:`MEMO_BYTES` of keys and answers, reported at ``/stats`` under
  ``caches``.  The byte bound holds whatever keys clients send: a task
  has endlessly many parameter tuples (any ``high`` past ``n`` reads as
  ``n``), and a decide answer echoes the tuple it was asked.
* *Exclusions* — fallback decides (tasks outside the rectangle, which
  rarely repeat), ``/reduction-path`` (source and
  target pairs rarely repeat), ``/stats``, ``/healthz``, ``/batch``, any
  answer but a 200 with an ETag, and every request while a fault point is
  armed, so an armed ``serve.request.hold`` still holds repeats.

A hit costs a dictionary lookup and can neither block nor be held, so
the HTTP layer answers it on its event loop (:meth:`UniverseService.
memo_holds` tells it which requests those are).  The answer still comes
out of :meth:`UniverseService.handle`: metrics and the ``304`` rule are
the same for hits and misses.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Mapping

from ..core.cache_config import BoundedDictCache, cache_stats
from ..core.solvability import PRIME_POWER_GCD_BOUND
from ..decision.procedures import DecisionBudget
from ..sweep.report import campaign_status
from ..testing.faults import FAULTS
from ..universe.graph import EDGE_KINDS
from ..universe.persist import UniverseStore
from ..universe.query import (
    harder_cone,
    reduction_path,
    resolve_key,
    solvability_frontier,
    weaker_cone,
)
from .metrics import ServiceMetrics

#: Endpoints the batch endpoint may dispatch to (no nesting, no stats —
#: a batch of batches is a loop the client can write themselves).
BATCHABLE = ("decide", "cones", "reduction-path", "frontier")

#: The fallback's budget: the structural tiers only, no empirical search.
FALLBACK_BUDGET = DecisionBudget(max_empirical_n=0)

#: The query parameters each memoized endpoint reads, in key order: its
#: answer is a function of these values and of the store alone.
MEMO_PARAMS: dict[str, tuple[str, ...]] = {
    "decide": ("n", "m", "low", "high"),
    "cones": ("n", "m", "low", "high", "direction", "kinds"),
    "frontier": (),
}


def _encode(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class Response:
    """One endpoint answer, still transport-free.

    ``body`` is the encoded answer when it is known already — the
    memo's bytes, on a hit or a fill.  :meth:`body_bytes` then returns
    it as it is, and :attr:`payload` is decoded from it on first access,
    so the HTTP layer, which only writes the bytes, never decodes.
    """

    __slots__ = ("status", "etag", "retry_after", "_payload", "_body")

    def __init__(
        self,
        status: int,
        payload: Any = None,
        etag: str | None = None,
        retry_after: int | None = None,
        body: bytes | None = None,
    ) -> None:
        self.status = status
        self._payload = payload  # JSON-serializable; None for 304
        self.etag = etag
        #: Advisory back-off seconds; serialized as a ``Retry-After``
        #: header on the 503s the overload/deadline paths emit.
        self.retry_after = retry_after
        self._body = body

    @property
    def payload(self) -> Any:
        if self._payload is None and self._body:
            self._payload = json.loads(self._body)
        return self._payload

    def body_bytes(self) -> bytes:
        if self._body is not None:
            return self._body
        if self.status == 304 or self._payload is None:
            return b""
        return _encode(self._payload)

    def __repr__(self) -> str:
        return f"Response({self.status}, etag={self.etag!r})"


#: Lengths of keys and answers the answer memo keeps at most, whatever
#: keys clients send: about 13 MB of memory counting each entry's
#: objects (a decide entry is 274 B long and takes 448 B), and three
#: times what a whole perfbench ``serve`` run fills (2.6 MB).
MEMO_BYTES = 8 << 20

#: The process's answer memo (memo key -> ETag length, ETag, body),
#: shared by every service in it and scoped by
#: :meth:`UniverseStore.read_scope`.
ANSWERS = BoundedDictCache("serve.answers", max_bytes=MEMO_BYTES)


def _plain_int(value: str) -> bool:
    """ASCII digits with no sign and no leading zero: of the many
    spellings ``int()`` reads as one value, the one ``str()`` writes."""
    return value.isascii() and value.isdigit() and (
        value[0] != "0" or value == "0"
    )


def _known_kinds(value: str) -> bool:
    return all(kind in EDGE_KINDS for kind in value.split(","))


#: The spelling a parameter's value must have for its request to get a
#: memo key, so that an answer has one key, not one per spelling
#: (``n=6``, ``n=06``, ``n=+6``; ``kinds=a`` and ``kinds=a,``).  A
#: request spelled otherwise is routed; so is a ``direction`` the
#: router rejects.
_SPELLINGS = {
    "n": _plain_int,
    "m": _plain_int,
    "low": _plain_int,
    "high": _plain_int,
    "direction": ("both", "harder", "weaker").__contains__,
    "kinds": _known_kinds,
}


def _memo_key(endpoint: str, query: Mapping[str, str]) -> str | None:
    """``endpoint``, then ``\\x1f`` + value per parameter it reads, or
    ``\\x1e`` for an absent one; None when a value is not in its
    memoized spelling (:data:`_SPELLINGS`, none of which holds a mark)."""
    key = endpoint
    for name in MEMO_PARAMS[endpoint]:
        value = query.get(name)
        if value is None:
            key += "\x1e"
        elif _SPELLINGS[name](value):
            key += "\x1f" + value
        else:
            return None
    return key


def _from_blob(blob: bytes) -> Response:
    """A memo hit as a 200 answer carrying the stored bytes."""
    end = blob[0] + 1
    return Response(200, etag=blob[1:end].decode("ascii"), body=blob[end:])


def _memoizable(endpoint: str, response: Response) -> bool:
    """A 200 with an ETag, and for a decide one read from the store."""
    return (
        response.status == 200
        and response.etag is not None
        and (endpoint != "decide" or response.payload["source"] == "universe")
    )


def _etag(*parts: str) -> str:
    """A strong ETag: quoted sha256 prefix of the identifying content."""
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return f'"{digest[:32]}"'


def _int_param(query: Mapping[str, str], name: str) -> int:
    if name not in query:
        raise _BadRequest(f"missing required parameter {name!r}")
    try:
        return int(query[name])
    except ValueError:
        raise _BadRequest(
            f"parameter {name!r} must be an integer, got {query[name]!r}"
        ) from None


def _task_param(query: Mapping[str, str], name: str) -> tuple[int, int, int, int]:
    if name not in query:
        raise _BadRequest(f"missing required parameter {name!r}")
    parts = query[name].split(",")
    if len(parts) != 4:
        raise _BadRequest(f"parameter {name!r} must be 'n,m,low,high'")
    try:
        return tuple(int(part) for part in parts)  # type: ignore[return-value]
    except ValueError:
        raise _BadRequest(
            f"parameter {name!r} must be 'n,m,low,high' integers"
        ) from None


def _kinds_param(query: Mapping[str, str]) -> tuple[str, ...] | None:
    raw = query.get("kinds")
    if raw is None or raw == "":
        return None
    return tuple(part for part in raw.split(",") if part)


class _BadRequest(ValueError):
    """Parameter parse/validation failure → 400 with the message."""


class _NotFound(LookupError):
    """Key outside the built rectangle / unknown path → 404."""


class UniverseService:
    """Read-only query service over one universe store.

    ``store`` is normally :meth:`UniverseStore.open_readonly` output so
    the pack handle, hot-node LRU and fingerprint-memoized graph are
    shared with every other call site in the process.  The decision
    pipeline fallback (for tasks outside the built rectangle) runs the
    *structural* tiers only — no empirical search on the serving path,
    so a decide request is always bounded work.
    """

    def __init__(
        self,
        store: UniverseStore,
        metrics: ServiceMetrics | None = None,
        extra_stats: Any = None,
    ) -> None:
        self.store = store
        self.metrics = metrics or ServiceMetrics()
        self.started = time.time()
        self._pipeline = None
        #: Optional zero-argument callable returning a JSON-serializable
        #: dict merged into ``/stats`` under ``"workers"`` — supervisor
        #: workers plug the shared worker board in here.
        self.extra_stats = extra_stats

    @classmethod
    def open(
        cls,
        root,
        backend: str = "auto",
        metrics: ServiceMetrics | None = None,
        extra_stats: Any = None,
    ) -> "UniverseService":
        return cls(
            UniverseStore.open_readonly(root, backend=backend),
            metrics=metrics,
            extra_stats=extra_stats,
        )

    # -- the single entry point -----------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: Mapping[str, str] | None = None,
        body: bytes | None = None,
        if_none_match: str | None = None,
    ) -> Response:
        """Route one request; never raises for client-attributable input.

        A request the answer memo holds is answered from it; any other
        memoizable one is routed and its answer, encoded once, both
        stored and returned.
        """
        started = time.perf_counter()
        query = query or {}
        endpoint = path.strip("/") or "<root>"
        slot = self._memo_slot(method, endpoint, query, resolve=True)
        blob = None if slot is None else ANSWERS.get(*slot)
        if blob is not None:
            response = _from_blob(blob)
        else:
            try:
                response = self._route(method, endpoint, query, body)
            except _BadRequest as error:
                response = Response(400, {"error": str(error)})
            except _NotFound as error:
                response = Response(404, {"error": str(error)})
            except json.JSONDecodeError as error:
                response = Response(
                    400, {"error": f"invalid JSON body: {error}"}
                )
            if slot is not None and _memoizable(endpoint, response):
                response = self._fill(slot, response)
        if (
            response.status == 200
            and response.etag is not None
            and if_none_match is not None
            and response.etag in [
                tag.strip() for tag in if_none_match.split(",")
            ]
        ):
            response = Response(304, None, etag=response.etag)
        self.metrics.record(
            endpoint, response.status, time.perf_counter() - started
        )
        return response

    def bounded(self, method: str, path: str, query: Mapping[str, str]) -> bool:
        """Whether routing this request is bounded work that never waits,
        so the HTTP layer answers it on its event loop.

        A GET, while no fault point is armed (an armed hold must be able
        to hold any request) and once the store's scope is settled
        (settling it opens the pack and lists the cells), to:

        * ``/decide`` with n < 2**64: a hot-LRU hit, one pack row or one
          shard, else the structural fallback, whose closed forms cost
          microseconds below 2**64 (:func:`~repro.core.solvability.
          binomial_gcd`) and whose padding scan classifies a few
          siblings whatever n is; not for ``n <= graph_max_n`` outside
          the store's cells, where the fallback assembles the task's
          family row (seconds), nor for unparsed n;
        * ``/cones``, ``/reduction-path`` and ``/frontier`` once the
          graph is assembled under the scope: one search of the loaded
          graph (on the 40x6 store, at most about a millisecond).

        Everything else takes a handler thread, its deadline and its
        in-flight slot: the first graph load, ``/stats`` (it reads
        files), ``/batch`` (unbounded rows), other methods.  Reads no
        file and changes nothing.
        """
        if method != "GET" or FAULTS.active:
            return False
        store = self.store
        if store.read_scope() is None:
            return False
        endpoint = path.strip("/")
        if endpoint == "decide":
            try:
                n, m = int(query["n"]), int(query["m"])
            except (KeyError, ValueError):
                return True  # a 400: nothing is routed
            return n < PRIME_POWER_GCD_BOUND and (
                n > FALLBACK_BUDGET.graph_max_n or store.cell_listed(n, m) is True
            )
        return endpoint in ("cones", "reduction-path", "frontier") and (
            store.graph_loaded()
        )

    def memo_holds(
        self, method: str, path: str, query: Mapping[str, str]
    ) -> bool:
        """Whether :meth:`handle` would answer this request from the memo.

        Reads no file and changes nothing, not even the memo's counters:
        a probe for tests (the HTTP layer asks :meth:`bounded`).
        """
        slot = self._memo_slot(method, path.strip("/"), query)
        return slot is not None and ANSWERS.peek(*slot) is not None

    def _memo_slot(
        self,
        method: str,
        endpoint: str,
        query: Mapping[str, str],
        resolve: bool = False,
    ) -> tuple[str, tuple] | None:
        """``(key, scope)`` of a memoizable request, else None.

        ``resolve`` may open the pack, as routing the request would.
        """
        if method != "GET" or endpoint not in MEMO_PARAMS or FAULTS.active:
            return None
        scope = self.store.read_scope(resolve)
        if scope is None:
            return None
        key = _memo_key(endpoint, query)
        return None if key is None else (key, scope)

    def _fill(self, slot: tuple[str, tuple], response: Response) -> Response:
        """Encode ``response`` once, store it under ``slot`` unless the
        scope moved while it was computed, and return it with its bytes."""
        body = _encode(response.payload)
        key, scope = slot
        if self.store.read_scope() == scope:
            etag = response.etag.encode("ascii")
            ANSWERS.put(key, bytes((len(etag),)) + etag + body, scope)
        return Response(200, response.payload, etag=response.etag, body=body)

    def _route(
        self,
        method: str,
        endpoint: str,
        query: Mapping[str, str],
        body: bytes | None,
    ) -> Response:
        if endpoint == "batch":
            if method != "POST":
                return Response(
                    405, {"error": "batch requires POST"}
                )
            return self._batch(body)
        if method != "GET":
            return Response(405, {"error": f"{endpoint} requires GET"})
        if endpoint == "decide":
            return self._decide(query)
        if endpoint == "cones":
            return self._cones(query)
        if endpoint == "reduction-path":
            return self._reduction_path(query)
        if endpoint == "frontier":
            return self._frontier(query)
        if endpoint == "stats":
            return self._stats()
        if endpoint == "healthz":
            return Response(200, {"status": "ok"})
        raise _NotFound(f"unknown endpoint /{endpoint}")

    # -- endpoints ------------------------------------------------------

    def _decide(self, query: Mapping[str, str]) -> Response:
        n = _int_param(query, "n")
        m = _int_param(query, "m")
        low = _int_param(query, "low")
        high = _int_param(query, "high")
        try:
            node = self.store.node_at(n, m, low, high)
        except ValueError as error:
            raise _BadRequest(str(error)) from None
        if node is not None:
            payload = {
                "task": [n, m, low, high],
                "canonical": list(node.key),
                "solvability": node.solvability,
                "reason": node.reason,
                "certificate_id": node.certificate_id or None,
                "source": "universe",
                "backend": self.store.active_backend,
            }
            # A certificate pins the answer by content; an uncertified
            # verdict is pinned by the store fingerprint instead (any
            # rebuild/sweep that could change it changes the fingerprint).
            basis = node.certificate_id or self.store.fingerprint()
            etag = _etag("decide", basis, str(node.key), node.solvability)
            return Response(200, payload, etag=etag)
        verdict = self._fallback_pipeline().decide(n, m, low, high)
        payload = {
            "task": [n, m, low, high],
            "canonical": list(verdict.canonical),
            "solvability": verdict.solvability.value,
            "reason": verdict.reason,
            "certificate_id": verdict.certificate_id or None,
            "source": "pipeline",
            "tier": verdict.tier,
            "procedure": verdict.procedure,
        }
        basis = verdict.certificate_id or self.store.fingerprint()
        etag = _etag(
            "decide", basis, str(verdict.canonical), verdict.solvability.value
        )
        return Response(200, payload, etag=etag)

    def _fallback_pipeline(self):
        """Structural-tiers-only pipeline for out-of-rectangle decides."""
        if self._pipeline is None:
            from ..decision.pipeline import DecisionPipeline

            self._pipeline = DecisionPipeline(budget=FALLBACK_BUDGET, cache=None)
        return self._pipeline

    def _resolve(self, query: Mapping[str, str]):
        graph = self.store.load_cached()
        n = _int_param(query, "n")
        m = _int_param(query, "m")
        low = _int_param(query, "low")
        high = _int_param(query, "high")
        try:
            return graph, resolve_key(graph, n, m, low, high)
        except ValueError as error:
            raise _BadRequest(str(error)) from None
        except KeyError as error:
            raise _NotFound(str(error).strip('"')) from None

    def _cones(self, query: Mapping[str, str]) -> Response:
        graph, key = self._resolve(query)
        kinds = _kinds_param(query)
        direction = query.get("direction", "both")
        if direction not in ("both", "harder", "weaker"):
            raise _BadRequest(
                "direction must be one of both|harder|weaker, got "
                f"{direction!r}"
            )
        payload: dict[str, Any] = {"key": list(key)}
        if direction in ("both", "harder"):
            payload["harder"] = [
                list(other) for other in harder_cone(graph, key, kinds=kinds)
            ]
        if direction in ("both", "weaker"):
            payload["weaker"] = [
                list(other) for other in weaker_cone(graph, key, kinds=kinds)
            ]
        etag = _etag(
            "cones",
            self.store.fingerprint(),
            str(key),
            direction,
            str(kinds),
        )
        return Response(200, payload, etag=etag)

    def _reduction_path(self, query: Mapping[str, str]) -> Response:
        graph = self.store.load_cached()
        source = _task_param(query, "source")
        target = _task_param(query, "target")
        kinds = _kinds_param(query)
        try:
            source_key = resolve_key(graph, *source)
            target_key = resolve_key(graph, *target)
        except ValueError as error:
            raise _BadRequest(str(error)) from None
        except KeyError as error:
            raise _NotFound(str(error).strip('"')) from None
        path = reduction_path(graph, source_key, target_key, kinds=kinds)
        payload = {
            "source": list(source_key),
            "target": list(target_key),
            "path": (
                None
                if path is None
                else [
                    {
                        "source": list(edge.source),
                        "target": list(edge.target),
                        "kind": edge.kind,
                    }
                    for edge in path
                ]
            ),
        }
        etag = _etag(
            "reduction-path",
            self.store.fingerprint(),
            str(source_key),
            str(target_key),
            str(kinds),
        )
        return Response(200, payload, etag=etag)

    def _frontier(self, query: Mapping[str, str]) -> Response:
        graph = self.store.load_cached()
        report = solvability_frontier(graph)
        payload = {
            "counts": report.counts,
            "solvable_nodes": report.solvable_nodes,
            "boundary": [
                {
                    "source": list(edge.source),
                    "target": list(edge.target),
                    "kind": edge.kind,
                }
                for edge in report.boundary
            ],
        }
        etag = _etag("frontier", self.store.fingerprint())
        return Response(200, payload, etag=etag)

    def _batch(self, body: bytes | None) -> Response:
        document = json.loads((body or b"").decode("utf-8") or "null")
        if (
            not isinstance(document, dict)
            or not isinstance(document.get("requests"), list)
        ):
            raise _BadRequest('batch body must be {"requests": [...]}')
        responses = []
        for index, request in enumerate(document["requests"]):
            if not isinstance(request, dict):
                responses.append(
                    {"status": 400, "body": {"error": "request must be an object"}}
                )
                continue
            endpoint = request.get("endpoint")
            if endpoint not in BATCHABLE:
                responses.append(
                    {
                        "status": 400,
                        "body": {
                            "error": (
                                f"endpoint {endpoint!r} is not batchable; "
                                f"expected one of {list(BATCHABLE)}"
                            )
                        },
                    }
                )
                continue
            params = request.get("params", {})
            if not isinstance(params, dict):
                responses.append(
                    {"status": 400, "body": {"error": "params must be an object"}}
                )
                continue
            sub = self.handle(
                "GET",
                f"/{endpoint}",
                {key: str(value) for key, value in params.items()},
            )
            responses.append({"status": sub.status, "body": sub.payload})
        return Response(200, {"responses": responses})

    def _stats(self) -> Response:
        store_stats = self.store.stats()
        store_stats["active_backend"] = self.store.active_backend
        store_stats["fingerprint"] = self.store.fingerprint()
        payload = {
            "uptime_seconds": time.time() - self.started,
            "endpoints": self.metrics.snapshot(),
            "transport": self.metrics.transport_snapshot(),
            "store": store_stats,
            "caches": cache_stats(),
        }
        sweep = campaign_status(self.store, count_open=False)
        if sweep is not None:
            payload["sweep"] = sweep
        if self.extra_stats is not None:
            payload["workers"] = self.extra_stats()
        return Response(200, payload)
