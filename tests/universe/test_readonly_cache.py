"""Regression suite for the cached read path (``open_readonly``).

The bug this pins: query-path call sites used to construct a throwaway
:class:`UniverseStore` per call, re-reading the manifest (and often
whole shards) every time.  ``open_readonly`` memoizes the store per
resolved root, the hot-node LRU makes warm point lookups file-free, and
``load_cached`` memoizes the assembled graph against the store
fingerprint — so a warm lookup performs *zero* manifest or shard
re-parses, asserted here both by poisoning the parse entry points and
by the ``universe.hot_cells`` cache counters.
"""

import json

import pytest

from repro.core.cache_config import cache_stats
from repro.universe import SCHEMA_VERSION, UniverseStore, canonical_task_key
from repro.universe.persist import HOT_CELLS


def hot_key(store, n, m, low, high):
    return (str(store.root), store.fingerprint()) + canonical_task_key(
        n, m, low, high
    )


def hot_cell_counters():
    return cache_stats()["universe.hot_cells"]


@pytest.fixture
def root(tmp_path):
    store = UniverseStore(tmp_path / "store")
    store.build(6, 3)
    store.pack()
    return tmp_path / "store"


class TestOpenReadonly:
    def test_same_instance_per_root(self, root):
        first = UniverseStore.open_readonly(root)
        second = UniverseStore.open_readonly(root)
        assert first is second

    def test_distinct_instances_per_backend(self, root):
        assert UniverseStore.open_readonly(
            root, backend="json"
        ) is not UniverseStore.open_readonly(root, backend="binary")

    def test_relative_and_absolute_roots_share_one_instance(
        self, root, monkeypatch
    ):
        monkeypatch.chdir(root.parent)
        assert UniverseStore.open_readonly(
            "store"
        ) is UniverseStore.open_readonly(root)

    def test_load_cached_returns_the_same_graph_object(self, root):
        store = UniverseStore.open_readonly(root)
        assert store.load_cached() is store.load_cached()


class TestWarmLookupIsParseFree:
    def test_zero_manifest_or_shard_reparses_when_warm(self, root):
        store = UniverseStore.open_readonly(root, backend="binary")
        cold = store.node_at(6, 3, 1, 4)
        assert cold is not None

        # Warm path: poison every parse entry point — the manifest, the
        # shard reader, and the pack's row reader.  A warm lookup must
        # touch none of them.
        def forbidden(*args, **kwargs):
            raise AssertionError("warm lookup re-parsed store state")

        store.manifest = forbidden
        store.read_cell = forbidden
        store._read_or_heal = forbidden
        assert store._pack is not None
        store._pack._rows = forbidden

        before = hot_cell_counters()
        warm = store.node_at(6, 3, 1, 4)
        after = hot_cell_counters()
        assert warm == cold
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_fresh_node_misses_once_then_hits(self, root):
        store = UniverseStore.open_readonly(root, backend="binary")
        HOT_CELLS.pop(hot_key(store, 5, 3, 1, 5))
        before = hot_cell_counters()
        store.node_at(5, 3, 1, 5)  # cold: one indexed pack row
        middle = hot_cell_counters()
        assert middle["misses"] == before["misses"] + 1
        store.node_at(5, 3, 1, 5)  # warm: served from the hot-node LRU
        after = hot_cell_counters()
        assert after["hits"] == middle["hits"] + 1
        assert after["misses"] == middle["misses"]

    def test_json_cold_lookup_primes_the_whole_cell(self, root):
        # The JSON path pays one shard parse per cell, so it primes
        # every node of the cell: a sibling lookup is already warm.
        store = UniverseStore.open_readonly(root, backend="json")
        for key in ((5, 3, 1, 5), (5, 3, 0, 5)):
            HOT_CELLS.pop(hot_key(store, *key))
        store.node_at(5, 3, 1, 5)  # cold: parses the (5, 3) shard
        before = hot_cell_counters()
        store.node_at(5, 3, 0, 5)  # same cell, different node: warm
        after = hot_cell_counters()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    @pytest.mark.parametrize("backend", ["binary", "json"])
    def test_task_outside_the_cells_reads_no_file(self, root, backend):
        """A task whose (n, m) is not a built cell is answered from the
        cell list read with the fingerprint: no pack row, no shard, and
        nothing cached as absent."""
        store = UniverseStore.open_readonly(root, backend=backend)
        assert store.node_at(6, 3, 1, 4) is not None  # pack opened, if any

        def forbidden(*args, **kwargs):
            raise AssertionError("lookup outside the cells read the store")

        store.has_cell = store.read_cell = store._read_or_heal = forbidden
        if store._pack is not None:
            store._pack._rows = forbidden
        before = hot_cell_counters()
        for key in ((25, 5, 1, 25), (6, 4, 0, 6), (7, 2, 0, 7)):
            assert store.node_at(*key) is None
        assert hot_cell_counters() == before

    def test_repeated_open_readonly_does_not_reload_graph(self, root):
        graph = UniverseStore.open_readonly(root).load_cached()
        again = UniverseStore.open_readonly(root)
        assert again.load_cached() is graph


class TestStalenessInvalidation:
    def test_rebuild_is_picked_up_on_next_open(self, root):
        store = UniverseStore.open_readonly(root)
        graph = store.load_cached()
        assert (8, 3) not in graph.cells
        UniverseStore(root).build(8, 3)  # widen out-of-band
        reopened = UniverseStore.open_readonly(root)
        assert reopened is store  # same memoized instance...
        fresh = reopened.load_cached()
        assert fresh is not graph  # ...but the stale graph was dropped
        assert (8, 3) in fresh.cells
        assert reopened.node_at(8, 3, 1, 8) is not None

    def test_override_written_out_of_band_is_picked_up(self, root):
        store = UniverseStore.open_readonly(root, backend="json")
        before = store.node_at(6, 3, 1, 4)
        assert before.solvability == "open"
        document = {
            "version": SCHEMA_VERSION,
            "budget": {},
            "overrides": {
                "6,3,1,4": {
                    "solvability": "not wait-free solvable",
                    "reason": "injected closure",
                    "certificate_id": "",
                    "certificate": None,
                }
            },
        }
        (root / "overrides.json").write_text(json.dumps(document))
        after = UniverseStore.open_readonly(root, backend="json").node_at(
            6, 3, 1, 4
        )
        assert after.solvability == "not wait-free solvable"

    def test_hot_cells_are_fingerprint_keyed(self, root):
        # Entries cached before a mutation can never serve the new
        # store: the fingerprint in the key changed.
        store = UniverseStore.open_readonly(root)
        old_key = hot_key(store, 6, 3, 1, 4)
        store.node_at(6, 3, 1, 4)
        assert HOT_CELLS.peek(old_key) is not None
        UniverseStore(root).build(7, 3)
        reopened = UniverseStore.open_readonly(root)
        assert hot_key(reopened, 6, 3, 1, 4) != old_key

    def test_unchanged_store_keeps_its_caches_across_opens(self, root):
        store = UniverseStore.open_readonly(root)
        store.node_at(6, 3, 1, 4)
        fingerprint = store.fingerprint()
        UniverseStore.open_readonly(root)  # revalidation: no change
        assert store._fingerprint == fingerprint
        assert HOT_CELLS.peek(hot_key(store, 6, 3, 1, 4)) is not None
