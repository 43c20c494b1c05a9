"""Disk-backed incremental store for the universe graph.

Layout of a store directory::

    <root>/
      manifest.json          # schema version + per-cell summary counts
      cells/
        n{n:03d}_m{m:03d}.json   # one UniverseCell per (n, m)

Shards hold only *per-cell* data (nodes and intra-family containment
covers); cross-family edges depend on which cells exist and are derived
at :meth:`UniverseStore.load` time, so incremental rebuilds are trivially
correct — after widening the rectangle, ``build`` computes exactly the
missing cells and everything already on disk is reused byte for byte.

Parallel builds ride the census LPT sharding
(:func:`repro.analysis.census.partition_cells`): missing cells are
balanced over a process pool by the same ``n**2 * m`` cost estimate, each
shard processed in ascending ``(n, m)`` order so the worker's
process-local classification caches (the closed forms that value
padding consults across families) are primed by the small cells.
Workers return plain JSON payloads; all file writes happen in the
parent.

Beyond the cells, a store carries the decision pipeline's persistent
state:

* ``decision/`` — a :class:`repro.decision.cache.CertificateCache` shard
  set holding verdict entries and certificate payloads, shared with the
  ``decide`` CLI;
* ``overrides.json`` — verdicts the close-open sweep (tiers 3-4 of
  :mod:`repro.decision`) established for nodes the structural cells
  leave OPEN.  :meth:`UniverseStore.load` re-applies them, so a rebuilt
  graph keeps its closed frontier without re-searching.

``load`` self-heals: a torn, garbage or stale-schema shard encountered
while assembling is recomputed in place (and re-noted in the manifest)
instead of failing the load, and manifest entries for vanished shards
are pruned on the next ``build``.

Serving rides a second, *read-optimized* representation: ``pack.sqlite``
(:mod:`repro.universe.backend`), compiled from the shards by
:meth:`UniverseStore.pack` and selected with
``UniverseStore(root, backend="binary")`` (or ``"auto"``, which uses the
pack when a valid one is present).  A pack that is missing, corrupt or
stale — its recorded fingerprint no longer matches the shards plus
overrides on disk — makes the store fall back to the JSON shards with a
loud :class:`RuntimeWarning`; the pack is a compilation, never the
source of truth.  Point lookups (:meth:`UniverseStore.node_at`) go
through a process-wide hot-node LRU registered with
:mod:`repro.core.cache_config` (``universe.hot_cells``), so a warm
lookup touches no file at all, and :meth:`UniverseStore.open_readonly`
memoizes store instances (and their assembled graphs, via
:meth:`UniverseStore.load_cached`) per resolved root so query-path call
sites stop re-reading the manifest per call.
"""

from __future__ import annotations

import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from ..analysis.census import partition_cells
from ..core.cache_config import BoundedDictCache
from .backend import (
    PACK_FILENAME,
    PackError,
    UniversePack,
    store_fingerprint,
    write_pack,
)
from .graph import (
    EDGE_CONTAINMENT,
    UniverseCell,
    UniverseEdge,
    UniverseGraph,
    UniverseNode,
    assemble,
    build_cell,
    rectangle_cells,
)

#: Bump when the cell payload layout changes; a mismatched store is
#: rebuilt from scratch on the next ``build``.  2: decision-pipeline
#: verdicts with certificate ids and per-cell certificate payloads.
SCHEMA_VERSION = 2


def node_to_payload(node: UniverseNode) -> dict:
    """JSON-serializable dump of one node (shared by shards and packs)."""
    return {
        "key": list(node.key),
        "solvability": node.solvability,
        "reason": node.reason,
        "kernel_count": node.kernel_count,
        "synonyms": [list(pair) for pair in node.synonyms],
        "labels": list(node.labels),
        "mask": hex(node.mask),
        "hardest": node.hardest,
        "certificate_id": node.certificate_id,
    }


def node_from_payload(raw: dict) -> UniverseNode:
    """Inverse of :func:`node_to_payload`."""
    return UniverseNode(
        key=tuple(raw["key"]),
        solvability=raw["solvability"],
        reason=raw["reason"],
        kernel_count=raw["kernel_count"],
        synonyms=tuple(tuple(pair) for pair in raw["synonyms"]),
        labels=tuple(raw["labels"]),
        mask=int(raw["mask"], 16),
        hardest=raw["hardest"],
        certificate_id=raw.get("certificate_id", ""),
    )


def cell_to_payload(cell: UniverseCell) -> dict:
    """JSON-serializable dump of one cell (the shard file content)."""
    return {
        "version": SCHEMA_VERSION,
        "n": cell.n,
        "m": cell.m,
        "nodes": [node_to_payload(node) for node in cell.nodes],
        "edges": [
            [list(edge.source[2:]), list(edge.target[2:])] for edge in cell.edges
        ],
        "certificates": cell.certificates,
    }


def cell_from_payload(payload: dict) -> UniverseCell:
    """Inverse of :func:`cell_to_payload`; raises on schema mismatch."""
    version = payload.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"cell shard has schema version {version}, expected "
            f"{SCHEMA_VERSION}; rebuild the store with force=True"
        )
    n, m = payload["n"], payload["m"]
    nodes = tuple(node_from_payload(raw) for raw in payload["nodes"])
    edges = tuple(
        UniverseEdge((n, m, *source), (n, m, *target), EDGE_CONTAINMENT)
        for source, target in payload["edges"]
    )
    return UniverseCell(
        n=n,
        m=m,
        nodes=nodes,
        edges=edges,
        certificates=payload.get("certificates", {}),
    )


def _build_cell_shard(cells: list[tuple[int, int]]) -> list[dict]:
    """Worker entry point: the payloads of one shard's cells, in order."""
    return [cell_to_payload(build_cell(n, m)) for n, m in cells]


@dataclass(frozen=True)
class BuildReport:
    """Outcome of one incremental build."""

    max_n: int
    max_m: int
    cells_total: int
    cells_built: int
    cells_reused: int
    jobs: int
    seconds: float


@dataclass(frozen=True)
class PackReport:
    """Outcome of one ``universe pack`` compilation."""

    path: str
    cells: int
    nodes: int
    edges: int
    certificates: int
    overrides: int
    seconds: float
    skipped: bool = False  # pack was already current (fingerprint match)


#: Backend names accepted by :class:`UniverseStore`.  ``auto`` uses the
#: pack when a valid, current one exists and the shards otherwise.
BACKENDS = ("json", "binary", "auto")

#: Process-wide hot-node LRU for point lookups: ``(root, fingerprint,
#: n, m, low, high) -> UniverseNode`` (or the absent marker) with
#: overrides applied.  Node-granular so the binary backend's cold path
#: stays a single indexed row; a JSON-backed cold lookup parses its
#: cell once and primes every node of the cell.  Keyed on the store
#: fingerprint so a rebuild or close-open sweep never serves stale
#: nodes; bounded and counted by :mod:`repro.core.cache_config` like
#: every other process-wide memo.
HOT_CELLS = BoundedDictCache("universe.hot_cells")

#: Cache marker for "this feasible key has no node in the store":
#: distinguishes a cached negative from a cache miss.
_ABSENT = object()


class UniverseStore:
    """A directory of per-cell shards plus a manifest.

    ``backend`` selects the *read* representation: ``"json"`` (default)
    parses the per-cell shards, ``"binary"`` reads the compiled
    ``pack.sqlite`` (falling back to the shards, with a loud warning,
    when the pack is missing/corrupt/stale), ``"auto"`` uses the pack
    when a valid one is present and stays quiet otherwise.  Builds and
    close-open sweeps always write the JSON shards; ``pack()``
    recompiles the binary form.
    """

    #: ``open_readonly`` memo: ``(resolved root, backend) -> store``.
    _READONLY: dict[tuple[str, str], "UniverseStore"] = {}

    def __init__(self, root: str | Path, backend: str = "json") -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}, expected one of {BACKENDS}"
            )
        self.root = Path(root)
        self.backend = backend
        self._decision_cache = None
        self._pack: UniversePack | None = None
        self._pack_unusable = False  # warned once; retry after invalidate
        self._fingerprint: str | None = None
        #: The cells the fingerprint was computed from (set before it).
        self._cells: frozenset[tuple[int, int]] | None = None
        self._overrides_doc: dict | None = None
        self._graph_cache: tuple[str, UniverseGraph] | None = None

    @property
    def cells_dir(self) -> Path:
        return self.root / "cells"

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def overrides_path(self) -> Path:
        return self.root / "overrides.json"

    @property
    def pack_path(self) -> Path:
        return self.root / PACK_FILENAME

    @property
    def decision_cache(self):
        """The co-located verdict/certificate cache (lazy singleton)."""
        if self._decision_cache is None:
            from ..decision.cache import CertificateCache

            self._decision_cache = CertificateCache(self.root / "decision")
        return self._decision_cache

    def cell_path(self, n: int, m: int) -> Path:
        return self.cells_dir / f"n{n:03d}_m{m:03d}.json"

    def has_cell(self, n: int, m: int) -> bool:
        return self.cell_path(n, m).is_file()

    def built_cells(self) -> list[tuple[int, int]]:
        """Every ``(n, m)`` with a shard on disk, ascending."""
        cells = []
        if self.cells_dir.is_dir():
            for path in self.cells_dir.glob("n*_m*.json"):
                try:
                    n_part, m_part = path.stem.split("_")
                    cells.append((int(n_part[1:]), int(m_part[1:])))
                except ValueError:
                    continue  # not one of ours
        return sorted(cells)

    def read_cell(self, n: int, m: int) -> UniverseCell:
        with open(self.cell_path(n, m), encoding="utf-8") as handle:
            return cell_from_payload(json.load(handle))

    def write_cell_payload(self, payload: dict) -> None:
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        path = self.cell_path(payload["n"], payload["m"])
        # Write-then-rename so an interrupted build never leaves a
        # truncated shard behind (has_cell must imply readable).
        staging = path.with_suffix(".json.tmp")
        # json.dumps takes the C encoder; json.dump always streams through
        # the pure-Python one.  Both write the same bytes.
        with open(staging, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))
            handle.write("\n")
        staging.replace(path)

    def manifest(self) -> dict:
        if not self.manifest_path.is_file():
            return {"version": SCHEMA_VERSION, "cells": {}}
        with open(self.manifest_path, encoding="utf-8") as handle:
            return json.load(handle)

    def _write_manifest(self, manifest: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # -- build ----------------------------------------------------------

    def build(
        self, max_n: int, max_m: int, jobs: int = 0, force: bool = False
    ) -> BuildReport:
        """Incrementally materialize a rectangle.

        Only cells without a shard are computed (all of them under
        ``force``, or when the on-disk schema version is stale); a warm
        rebuild of an already-built rectangle touches no cell at all.
        """
        started = time.perf_counter()
        cells = rectangle_cells(max_n, max_m)
        manifest = self.manifest()
        if manifest.get("version") != SCHEMA_VERSION:
            # Stale schema: every shard on disk is unreadable, including
            # cells outside the requested rectangle — wipe them all so
            # load() never sees a mixed-schema directory.
            for stale in self.built_cells():
                self.cell_path(*stale).unlink()
            manifest = {"version": SCHEMA_VERSION, "cells": {}}
        missing = [
            cell for cell in cells if force or not self.has_cell(*cell)
        ]
        # Heal manifest entries for reused shards (e.g. after a build that
        # wrote shards but was interrupted before the manifest write).
        # A shard that turns out unreadable is recomputed, not reused.
        noted = manifest.setdefault("cells", {})
        # Prune stale manifest entries whose shard vanished: stats() must
        # never report nodes that load() cannot produce.
        on_disk = {f"{n},{m}" for n, m in self.built_cells()}
        for stale_key in [key for key in noted if key not in on_disk]:
            del noted[stale_key]
        for n, m in sorted(set(cells) - set(missing)):
            if f"{n},{m}" not in noted:
                try:
                    with open(self.cell_path(n, m), encoding="utf-8") as handle:
                        payload = json.load(handle)
                    if payload.get("version") != SCHEMA_VERSION:
                        raise ValueError("stale shard schema")
                    self._note_cell(manifest, payload)
                except (OSError, ValueError, KeyError, TypeError):
                    # Torn, malformed, wrong-shape or stale-schema shard:
                    # recompute it instead of reusing it.
                    missing.append((n, m))
        if missing:
            if jobs and len(missing) > 1:
                shards = partition_cells(missing, jobs)
                with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                    for payloads in pool.map(_build_cell_shard, shards):
                        for payload in payloads:
                            self.write_cell_payload(payload)
                            self._note_cell(manifest, payload)
            else:
                for payload in _build_cell_shard(missing):
                    self.write_cell_payload(payload)
                    self._note_cell(manifest, payload)
        report = BuildReport(
            max_n=max_n,
            max_m=max_m,
            cells_total=len(cells),
            cells_built=len(missing),
            cells_reused=len(cells) - len(missing),
            jobs=jobs,
            seconds=time.perf_counter() - started,
        )
        manifest["last_build"] = {
            "max_n": max_n,
            "max_m": max_m,
            "jobs": jobs,
            "cells_built": report.cells_built,
            "cells_reused": report.cells_reused,
            "seconds": report.seconds,
        }
        self._write_manifest(manifest)
        self._invalidate_read_caches()
        return report

    @staticmethod
    def _note_cell(manifest: dict, payload: dict) -> None:
        manifest.setdefault("cells", {})[f"{payload['n']},{payload['m']}"] = {
            "nodes": len(payload["nodes"]),
            "edges": len(payload["edges"]),
        }

    # -- read caches and fingerprinting ---------------------------------

    def fingerprint(self) -> str:
        """Content fingerprint of the store's current read inputs.

        Computed from the sorted cell list, the shard schema version and
        the overrides document — no manifest or shard is parsed.  Cached
        per instance; mutating entry points (``build``, ``close_open``,
        ``pack``) invalidate it.
        """
        if self._fingerprint is None:
            cells = self.built_cells()
            self._cells = frozenset(cells)
            self._fingerprint = store_fingerprint(
                cells, self.read_overrides(), SCHEMA_VERSION
            )
        return self._fingerprint

    def _invalidate_read_caches(self) -> None:
        """Drop fingerprint/pack/graph/overrides memos after a mutation."""
        if self._pack is not None:
            self._pack.close()
        self._pack = None
        self._pack_unusable = False
        self._fingerprint = None
        self._cells = None
        self._overrides_doc = None
        self._graph_cache = None

    @classmethod
    def open_readonly(
        cls, root: str | Path, backend: str = "auto"
    ) -> "UniverseStore":
        """A process-memoized store for query-path call sites.

        Repeated opens of the same root return the same instance, so hot
        state — the opened pack, the assembled graph from
        :meth:`load_cached`, the overrides document — survives across
        call sites that used to construct a throwaway store (and re-read
        the manifest) per query.  Each open revalidates the cheap
        fingerprint; if the store changed on disk since the last open,
        the stale read caches are dropped.
        """
        key = (str(Path(root).resolve()), backend)
        store = cls._READONLY.get(key)
        if store is None:
            store = cls(root, backend=backend)
            cls._READONLY[key] = store
        else:
            cells = store.built_cells()
            fresh = store_fingerprint(
                cells, store.read_overrides(), SCHEMA_VERSION
            )
            if fresh != store._fingerprint:
                store._invalidate_read_caches()
                store._cells = frozenset(cells)
                store._fingerprint = fresh
        return store

    # -- pack (the binary read backend) ---------------------------------

    def pack(self, force: bool = False) -> PackReport:
        """Compile the JSON shards (+ overrides) into ``pack.sqlite``.

        A pack whose recorded fingerprint already matches the store is
        left untouched unless ``force``; a corrupt or stale pack is
        simply recompiled (the shards are the source of truth).  Raises
        ``FileNotFoundError`` when the store holds no cells.
        """
        started = time.perf_counter()
        cells = self.built_cells()
        if not cells:
            raise FileNotFoundError(
                f"universe store at {self.root} has no built cells; run "
                "`python -m repro universe build` first"
            )
        self._invalidate_read_caches()
        fingerprint = self.fingerprint()
        if not force and self.pack_path.is_file():
            try:
                current = UniversePack(self.pack_path)
            except PackError:
                pass  # unreadable pack: fall through and recompile it
            else:
                try:
                    if current.fingerprint == fingerprint:
                        stats = current.stats()
                        return PackReport(
                            path=str(self.pack_path),
                            cells=stats["cells"],
                            nodes=stats["nodes"],
                            edges=0,
                            certificates=stats["certificates"],
                            overrides=stats["overrides"],
                            seconds=time.perf_counter() - started,
                            skipped=True,
                        )
                except PackError:
                    pass
                finally:
                    current.close()
        counts = write_pack(
            self.pack_path,
            (self._read_payload_or_heal(n, m) for n, m in cells),
            self.read_overrides(),
            fingerprint,
        )
        return PackReport(
            path=str(self.pack_path),
            cells=counts["cells"],
            nodes=counts["nodes"],
            edges=counts["edges"],
            certificates=counts["certificates"],
            overrides=counts["overrides"],
            seconds=time.perf_counter() - started,
        )

    def _read_payload_or_heal(self, n: int, m: int) -> dict:
        """One shard's raw payload, recomputing it when unreadable."""
        try:
            with open(self.cell_path(n, m), encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("version") != SCHEMA_VERSION:
                raise ValueError("stale shard schema")
            if not isinstance(payload.get("nodes"), list):
                raise ValueError("wrong shard shape")
            return payload
        except (OSError, ValueError, KeyError, TypeError):
            payload = cell_to_payload(build_cell(n, m))
            self.write_cell_payload(payload)
            manifest = self.manifest()
            self._note_cell(manifest, payload)
            self._write_manifest(manifest)
            return payload

    def _open_pack(self) -> UniversePack | None:
        """The opened pack, or None (with one loud warning) when unusable.

        ``backend="json"`` never opens a pack.  ``"binary"`` warns even
        when the pack file is simply absent; ``"auto"`` stays quiet in
        that case and only warns when a pack exists but is corrupt or
        stale.  The negative result is memoized until the next
        mutation/revalidation so a point-lookup loop does not re-warn
        per call.
        """
        if self.backend == "json":
            return None
        if self._pack is not None:
            return self._pack
        if self._pack_unusable:
            return None
        # Each failure sets the flag before its warning, never up front:
        # read_scope() must not see "json" while the pack is being opened.
        if not self.pack_path.is_file():
            self._pack_unusable = True
            if self.backend == "binary":
                warnings.warn(
                    f"universe store {self.root} has no {PACK_FILENAME}; "
                    "run `python -m repro universe pack` — falling back to "
                    "JSON shards",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None
        try:
            pack = UniversePack(self.pack_path)
        except PackError as error:
            self._pack_unusable = True
            warnings.warn(
                f"universe pack is unusable ({error}); falling back to "
                "JSON shards — re-run `python -m repro universe pack`",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        if pack.fingerprint != self.fingerprint():
            pack.close()
            self._pack_unusable = True
            warnings.warn(
                f"universe pack at {self.pack_path} is stale (the store "
                "changed since it was compiled); falling back to JSON "
                "shards — re-run `python -m repro universe pack`",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        self._pack = pack
        return pack

    def _pack_failed(self, error: Exception) -> None:
        """Demote a mid-read pack failure to the JSON fallback, loudly."""
        warnings.warn(
            f"universe pack read failed ({error}); falling back to JSON "
            "shards — re-run `python -m repro universe pack`",
            RuntimeWarning,
            stacklevel=3,
        )
        if self._pack is not None:
            self._pack.close()
        self._pack = None
        self._pack_unusable = True

    @property
    def active_backend(self) -> str:
        """The representation reads actually use right now."""
        return "binary" if self._open_pack() is not None else "json"

    def read_scope(self, resolve: bool = False) -> tuple[str, str, str] | None:
        """``(root, fingerprint, active backend)``: what every read answer
        depends on besides its own parameters.

        Read without touching a file, so None until a read after opening
        (or after a mutation or revalidation) has computed the
        fingerprint and settled whether the pack is in use; ``resolve``
        settles both first, which may read files.  A mid-read pack
        failure turns the backend to ``"json"``, and a revalidation that
        finds the store changed resets the fingerprint, so a memo of
        answers scoped by this value is never staler than the hot-node
        LRU, which is keyed on the same root and fingerprint.
        """
        fingerprint = self._fingerprint
        if self._pack is not None:
            backend = "binary"
        elif self.backend == "json" or self._pack_unusable:
            backend = "json"
        else:
            backend = None
        if fingerprint is None or backend is None:
            if not resolve:
                return None
            self.fingerprint()
            self._open_pack()
            return self.read_scope()
        return str(self.root), fingerprint, backend

    def cell_listed(self, n: int, m: int) -> bool | None:
        """Whether ``(n, m)`` is one of the cells the fingerprint was
        computed from; None until it is.  Reads no file."""
        cells = self._cells
        return None if cells is None else (n, m) in cells

    def graph_loaded(self) -> bool:
        """Whether :meth:`load_cached` would return without assembling."""
        cached = self._graph_cache
        return cached is not None and cached[0] == self._fingerprint

    # -- point lookups ---------------------------------------------------

    def node_at(
        self, n: int, m: int, low: int, high: int
    ) -> UniverseNode | None:
        """O(1) point lookup of the node the parameters canonicalize to.

        Returns None when the synonym class is outside the built
        rectangle; raises ``ValueError`` for infeasible parameters.
        Close-open overrides are applied.  A task whose ``(n, m)`` is not
        one of the store's cells, and a warm lookup (out of the
        process-wide hot-node LRU), read no file at all; a cold lookup on
        the binary backend is one indexed SQLite row, while the JSON path
        parses the containing cell once and primes every node of it.
        """
        from .query import canonical_task_key

        key = canonical_task_key(n, m, low, high)
        prefix = (str(self.root), self.fingerprint())
        if self.cell_listed(n, m) is False:
            return None
        cache_key = prefix + key
        cached = HOT_CELLS.get(cache_key)
        if cached is not None:
            return None if cached is _ABSENT else cached
        pack = self._open_pack()
        if pack is not None:
            try:
                raw = pack.node_payload(*key)
            except PackError as error:
                self._pack_failed(error)
            else:
                node = (
                    self._override_node(node_from_payload(raw))
                    if raw is not None
                    else None
                )
                HOT_CELLS.put(cache_key, _ABSENT if node is None else node)
                return node
        nodes = self._cell_nodes(key[0], key[1])
        for (low_, high_), node in nodes.items():
            HOT_CELLS.put(prefix + (key[0], key[1], low_, high_), node)
        node = nodes.get((key[2], key[3]))
        if node is None:
            HOT_CELLS.put(cache_key, _ABSENT)
        return node

    def _cell_nodes(
        self, n: int, m: int
    ) -> dict[tuple[int, int], UniverseNode]:
        """One cell's nodes with overrides applied (empty when absent)."""
        payloads: list[dict] | None = None
        pack = self._open_pack()
        if pack is not None:
            try:
                payloads = pack.cell_node_payloads(n, m)
            except PackError as error:
                self._pack_failed(error)
                pack = None
        if pack is None:
            if not self.has_cell(n, m):
                return {}
            payloads = [
                node_to_payload(node) for node in self._read_or_heal(n, m).nodes
            ]
        if payloads is None:  # pack is current, so the cell truly is absent
            return {}
        nodes = {}
        for raw in payloads:
            node = self._override_node(node_from_payload(raw))
            nodes[(node.low, node.high)] = node
        return nodes

    def _override_node(self, node: UniverseNode) -> UniverseNode:
        """Apply the node's close-open override row, if any."""
        overrides = self._overrides().get("overrides", {})
        row = overrides.get(",".join(str(part) for part in node.key))
        if row is not None:
            try:
                node = replace(
                    node,
                    solvability=row["solvability"],
                    reason=row["reason"],
                    certificate_id=row.get("certificate_id", ""),
                )
            except (KeyError, TypeError):
                pass  # malformed override row: keep the structural node
        return node

    def certificate_payload(self, certificate_id: str) -> dict | None:
        """Point lookup of a certificate payload by content-hash id.

        Binary backend: one indexed row.  JSON backend (or fallback):
        scans shards via the loaded graph — correct but cold; serving
        setups should pack.
        """
        if not certificate_id:
            return None
        pack = self._open_pack()
        if pack is not None:
            try:
                payload = pack.certificate_payload(certificate_id)
            except PackError as error:
                self._pack_failed(error)
            else:
                if payload is not None:
                    return payload
                row = self._overrides().get("overrides", {})
                for entry in row.values():
                    if entry.get("certificate_id") == certificate_id:
                        return entry.get("certificate")
                return None
        return self.load_cached().certificate_payload(certificate_id)

    def _overrides(self) -> dict:
        """The overrides document, memoized per instance."""
        if self._overrides_doc is None:
            self._overrides_doc = self.read_overrides()
        return self._overrides_doc

    def load_cached(self) -> UniverseGraph:
        """The assembled graph, memoized against the store fingerprint."""
        fingerprint = self.fingerprint()
        if self._graph_cache is not None and self._graph_cache[0] == fingerprint:
            return self._graph_cache[1]
        graph = self.load()
        self._graph_cache = (fingerprint, graph)
        return graph

    # -- load -----------------------------------------------------------

    def load(
        self,
        max_n: int | None = None,
        max_m: int | None = None,
        cross_family: bool = True,
        apply_overrides: bool = True,
    ) -> UniverseGraph:
        """Assemble the graph from every built cell (optionally clipped).

        Cross-family edges are derived from the loaded cell set; raises
        ``FileNotFoundError`` when the store holds no cells.  Unreadable
        shards (torn writes, garbage, stale schema) self-heal: the cell
        is recomputed, rewritten and re-noted in the manifest.  Verdict
        overrides from a previous close-open sweep are re-applied unless
        ``apply_overrides`` is off.

        On the binary backend, cells are read from the pack (no JSON
        shard parse); any pack-level failure mid-read degrades to the
        shard path with a warning, so ``load`` succeeds whenever the
        shards themselves are recoverable.
        """
        pack = self._open_pack()
        if pack is not None:
            try:
                packed = [
                    (n, m)
                    for n, m in pack.cells()
                    if (max_n is None or n <= max_n)
                    and (max_m is None or m <= max_m)
                ]
                if packed:
                    graph = assemble(
                        (
                            cell_from_payload(pack.cell_payload(n, m))
                            for n, m in packed
                        ),
                        cross_family=cross_family,
                    )
                    if apply_overrides:
                        self._apply_overrides(graph)
                    return graph
            except (PackError, ValueError, KeyError, TypeError) as error:
                self._pack_failed(error)
        cells = [
            (n, m)
            for n, m in self.built_cells()
            if (max_n is None or n <= max_n) and (max_m is None or m <= max_m)
        ]
        if not cells:
            raise FileNotFoundError(
                f"universe store at {self.root} has no built cells; run "
                "`python -m repro universe build` first"
            )
        graph = assemble(
            (self._read_or_heal(n, m) for n, m in cells),
            cross_family=cross_family,
        )
        if apply_overrides:
            self._apply_overrides(graph)
        return graph

    def _read_or_heal(self, n: int, m: int) -> UniverseCell:
        """Read one shard, recomputing and rewriting it when unreadable."""
        try:
            return self.read_cell(n, m)
        except (OSError, ValueError, KeyError, TypeError):
            payload = cell_to_payload(build_cell(n, m))
            self.write_cell_payload(payload)
            manifest = self.manifest()
            self._note_cell(manifest, payload)
            self._write_manifest(manifest)
            return cell_from_payload(payload)

    # -- close-open overrides -------------------------------------------

    def read_overrides(self) -> dict:
        """The stored close-open overrides document (empty when absent).

        A corrupt overrides file reads as empty: overrides are a memo of
        the close-open sweep, never the source of truth, so the heal is
        simply to re-run ``build --close-open``.
        """
        if not self.overrides_path.is_file():
            return {}
        try:
            with open(self.overrides_path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return {}
        if (
            not isinstance(data, dict)
            or data.get("version") != SCHEMA_VERSION
            or not isinstance(data.get("overrides"), dict)
        ):
            return {}
        return data

    def _apply_overrides(self, graph: UniverseGraph) -> None:
        for raw_key, entry in self.read_overrides().get("overrides", {}).items():
            try:
                key = tuple(int(part) for part in raw_key.split(","))
                if key not in graph:
                    continue
                graph.override_node(
                    key,
                    solvability=entry["solvability"],
                    reason=entry["reason"],
                    certificate_id=entry.get("certificate_id", ""),
                    certificate_payload=entry.get("certificate"),
                )
            except (KeyError, TypeError, ValueError):
                continue  # malformed row: skip it, the rest still applies

    def apply_closures(
        self,
        closures: dict,
        budget_signature: dict,
        evidence: dict | None = None,
        open_entries: dict | None = None,
    ) -> int:
        """Merge verdict rows into ``overrides.json`` and the decide cache.

        ``closures`` maps cell keys to rows carrying ``solvability``,
        ``reason``, ``tier``, ``procedure``, ``certificate_id`` and
        ``certificate``; ``evidence`` optionally attaches tier-4 evidence
        lines to closed keys, and ``open_entries`` warms the decide cache
        for cells that stayed OPEN (evidence lines per key).  The merged
        document is written atomically (tmp + rename), so a crash
        mid-commit leaves the previous overrides intact — this is the
        single funnel every closure producer (the in-process close-open
        sweep and the job-queue campaign runner alike) commits through,
        which is what makes replaying a campaign idempotent.  Returns the
        number of override rows written.
        """
        evidence = evidence or {}
        if not closures and not open_entries:
            # Nothing to commit: leave the document (and its budget
            # stamp) untouched so replaying a finished campaign is a
            # true no-op — same overrides bytes, same fingerprint.
            return 0
        overrides: dict[str, dict] = dict(
            self.read_overrides().get("overrides", {})
        )
        cache_entries: dict[tuple, dict] = {}
        for key, row in sorted(closures.items()):
            overrides[",".join(str(part) for part in key)] = dict(row)
            cache_entries[key] = {
                **row,
                "evidence": list(evidence.get(key, ())),
                "budget": budget_signature,
            }
        for key, entry in sorted((open_entries or {}).items()):
            if key in closures:
                continue
            cache_entries[key] = {**entry, "budget": budget_signature}
        document = {
            "version": SCHEMA_VERSION,
            "budget": budget_signature,
            "overrides": overrides,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        staging = self.overrides_path.with_suffix(".json.tmp")
        with open(staging, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        staging.replace(self.overrides_path)
        self._invalidate_read_caches()
        if cache_entries:
            self.decision_cache.put_many(cache_entries)
        return len(closures)

    def close_open(self, budget=None, jobs: int = 0):
        """Run the close-open sweep (decision tiers 3-4) and persist it.

        Loads the graph *with* previous overrides applied — already
        persisted closures stay closed and seed further propagation —
        closes what the budgeted empirical tier and reduction closure
        can, then merges the new verdicts into ``overrides.json`` and
        mirrors them (and the OPEN evidence) into the decision cache so
        ``decide`` calls are warm.  A re-run with a smaller budget can
        therefore never lose a previously certified closure.  Returns
        the :class:`repro.decision.procedures.CloseOpenReport`.
        """
        from ..decision.procedures import DecisionBudget, close_open as sweep

        budget = budget or DecisionBudget()
        graph = self.load()
        report = sweep(graph, budget)
        closures: dict[tuple, dict] = {}
        for key, result in report.closed.items():
            closures[key] = {
                "solvability": result.solvability.value,
                "reason": result.reason,
                "tier": result.tier,
                "procedure": result.procedure,
                "certificate_id": (
                    result.certificate.id
                    if result.certificate is not None
                    else ""
                ),
                "certificate": (
                    result.certificate.payload()
                    if result.certificate is not None
                    else None
                ),
            }
        # OPEN survivors with fresh evidence also warm the decide cache.
        open_entries: dict[tuple, dict] = {}
        for key, evidence in report.evidence.items():
            if key in report.closed:
                continue
            node = graph.node(key)
            open_entries[key] = {
                "solvability": node.solvability,
                "reason": node.reason,
                "tier": 4,
                "procedure": "decision-map",
                "certificate_id": None,
                "certificate": None,
                "evidence": list(evidence),
            }
        self.apply_closures(
            closures,
            budget.signature(),
            evidence=report.evidence,
            open_entries=open_entries,
        )
        return report

    def stats(self) -> dict:
        """Store-level summary from the manifest and directory listing."""
        manifest = self.manifest()
        cells = self.built_cells()
        noted = manifest.get("cells", {})
        overrides = self.read_overrides()
        return {
            "root": str(self.root),
            "version": manifest.get("version"),
            "backend": self.backend,
            "packed": self.pack_path.is_file(),
            "cells": len(cells),
            "max_n": max((n for n, _ in cells), default=0),
            "max_m": max((m for _, m in cells), default=0),
            "nodes": sum(entry.get("nodes", 0) for entry in noted.values()),
            "containment_edges": sum(
                entry.get("edges", 0) for entry in noted.values()
            ),
            "overrides": len(overrides.get("overrides", {})),
            "last_build": manifest.get("last_build"),
        }
