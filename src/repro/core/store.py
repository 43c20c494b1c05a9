"""Memoized family store: compute each ``<n, m, -, ->`` family once.

The per-family reports — the atlas, Table 1, Figure 1, their JSON
exports, the ``repro.core.family`` API — show every row of a family of
symmetric GSB tasks, annotated.  Before this module each report
re-derived everything (``analysis/atlas.py`` rebuilt and linearly
scanned the family to find a single row); the store computes a family's
annotated entries exactly once per process and hands out O(1) views from
then on:

* :meth:`FamilyStore.entries` — the annotated rows, in Table 1 order;
* :meth:`FamilyStore.entry` — dict-indexed ``(l, u)`` lookup (``KeyError``
  for infeasible parameters, matching the old linear-scan contract);
* :meth:`FamilyStore.statistics` / :meth:`FamilyStore.kernel_columns` /
  :meth:`FamilyStore.canonical_entries` — the derived summaries.

Entries share the kernel lattice of :func:`repro.core.kernel.kernel_vectors`:
one master enumeration of the loosest ``<n, m, 0, n>`` set per family, with
every tighter kernel set a slice of one filter over it.  The module-level
store returned by :func:`get_store` is process-wide, and records are kept
until :func:`clear_family_store`.  A record holds a task object, a kernel
set and a classification per feasible pair, so the rectangle-wide sweeps
do not build records: the census counts from closed forms, and
:func:`repro.universe.graph.build_cell` works on feasible pairs,
canonical pairs and kernel bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Lock
from typing import Mapping

from .anchoring import anchoring_profile
from .canonical import canonical_parameters, is_canonical
from .family import FamilyEntry, table_order_key
from .feasibility import feasible_bound_pairs
from .gsb import SymmetricGSBTask
from .kernel import KernelVector, kernel_vectors
from .solvability import classify_parameters


@dataclass(frozen=True)
class FamilyRecord:
    """Everything the store knows about one ``<n, m, -, ->`` family."""

    n: int
    m: int
    entries: tuple[FamilyEntry, ...]
    index: Mapping[tuple[int, int], FamilyEntry]  # (low, high) -> entry
    kernel_columns: tuple[KernelVector, ...]

    @property
    def canonical_entries(self) -> tuple[FamilyEntry, ...]:
        return tuple(entry for entry in self.entries if entry.canonical)


def build_family_record(n: int, m: int) -> FamilyRecord:
    """Annotate every feasible ``<n, m, l, u>`` task (uncached builder)."""
    columns = kernel_vectors(n, m, 0, n)
    entries = []
    index: dict[tuple[int, int], FamilyEntry] = {}
    for low, high in feasible_bound_pairs(n, m):
        task = SymmetricGSBTask(n, m, low, high)
        solvability, reason = classify_parameters(n, m, low, high)
        entry = FamilyEntry(
            task=task,
            kernel_set=task.kernel_set,
            canonical=is_canonical(task),
            canonical_parameters=canonical_parameters(n, m, low, high),
            anchoring=anchoring_profile(task),
            solvability=solvability,
            solvability_reason=reason,
        )
        entries.append(entry)
        index[(low, high)] = entry
    entries.sort(key=table_order_key)
    return FamilyRecord(
        n=n, m=m, entries=tuple(entries), index=index, kernel_columns=columns
    )


class FamilyStore:
    """Process-wide memo of :class:`FamilyRecord` objects."""

    def __init__(self) -> None:
        self._records: dict[tuple[int, int], FamilyRecord] = {}
        self._lock = Lock()
        self._hits = 0
        self._misses = 0

    def family(self, n: int, m: int) -> FamilyRecord:
        """The family record, computed on first access."""
        key = (n, m)
        with self._lock:
            record = self._records.get(key)
            if record is not None:
                self._hits += 1
                return record
        # Build outside the lock: records are immutable and rebuilding the
        # same family twice under a race is harmless.
        record = build_family_record(n, m)
        with self._lock:
            self._misses += 1
            return self._records.setdefault(key, record)

    def entries(self, n: int, m: int) -> tuple[FamilyEntry, ...]:
        """Annotated family rows in Table 1 order."""
        return self.family(n, m).entries

    def entry(self, n: int, m: int, low: int, high: int) -> FamilyEntry:
        """O(1) lookup of one row; ``KeyError`` when infeasible."""
        try:
            return self.family(n, m).index[(low, high)]
        except KeyError:
            raise KeyError(
                f"<{n},{m},{low},{high}> is not a feasible task"
            ) from None

    def kernel_columns(self, n: int, m: int) -> tuple[KernelVector, ...]:
        """Kernel vectors of the loosest task (Table 1's columns)."""
        return self.family(n, m).kernel_columns

    def canonical_entries(self, n: int, m: int) -> tuple[FamilyEntry, ...]:
        """Only the canonical rows (Figure 1's nodes), in Table 1 order."""
        return self.family(n, m).canonical_entries

    def statistics(self, n: int, m: int) -> dict[str, int]:
        """Summary counts used by the atlas report (fresh dict per call)."""
        record = self.family(n, m)
        by_class: dict[str, int] = {}
        for entry in record.entries:
            name = entry.solvability.value
            by_class[name] = by_class.get(name, 0) + 1
        return {
            "feasible_parameterizations": len(record.entries),
            "synonym_classes": len(
                {entry.canonical_parameters for entry in record.entries}
            ),
            "kernel_columns": len(record.kernel_columns),
            **{
                f"solvability[{name}]": count
                for name, count in sorted(by_class.items())
            },
        }

    def prime(self, cells: list[tuple[int, int]]) -> None:
        """Eagerly compute a batch of families (cache priming for sweeps)."""
        for n, m in cells:
            self.family(n, m)

    def cache_info(self) -> dict[str, int]:
        """Hit/miss statistics, mirroring ``lru_cache``'s counters."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "families": len(self._records),
            }

    def clear(self) -> None:
        """Drop every cached family (mainly for benchmarks and tests)."""
        with self._lock:
            self._records.clear()
            self._hits = 0
            self._misses = 0


_GLOBAL_STORE = FamilyStore()


def get_store() -> FamilyStore:
    """The process-wide family store every sweep shares."""
    return _GLOBAL_STORE


def clear_family_store() -> None:
    """Reset the process-wide store (benchmarks and tests)."""
    _GLOBAL_STORE.clear()
