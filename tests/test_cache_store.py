"""Tests for the persistent disk tier under the AtomCache.

Three layers: the :class:`CacheStore` log itself (append/read/reopen/
corruption), the tiered :class:`AtomCache` (demote on eviction, batched
promote on miss, counters), and the end-to-end wiring
(``EngineConfig(cache_store=...)``, gateway restart-warm).
"""

import os
import pickle

import numpy as np
import pytest

import repro.core.composition as comp
from repro.data import load_dataset
from repro.engine import AtomCache, CacheStore, FilterEngine, as_cache_store
from repro.engine.cache_store import LOG_NAME, MAGIC, _HEADER
from repro.errors import CachePersistenceError, ReproError


def simple_filter():
    return comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))


def mask(*bits):
    return np.array(bits, dtype=bool)


# ---------------------------------------------------------------------------
# the log itself
# ---------------------------------------------------------------------------

class TestCacheStoreLog:
    def test_put_get_roundtrip(self, tmp_path):
        with CacheStore(tmp_path / "store") as store:
            fp = (100, b"fp-a")
            assert store.put(fp, "atom:x", mask(1, 0, 1)) is True
            assert store.get(fp, "atom:x").tolist() == [True, False, True]
            assert store.get(fp, "atom:missing") is None
            assert store.get((1, b"other"), "atom:x") is None
            assert len(store) == 1
            assert (fp, "atom:x") in store

    def test_duplicate_puts_are_skipped(self, tmp_path):
        """Content-addressed: re-demoting a stored key must not grow
        the log (promote/evict churn would otherwise inflate it)."""
        with CacheStore(tmp_path / "store") as store:
            fp = (4, b"fp")
            assert store.put(fp, "k", mask(1)) is True
            size_after_first = store.nbytes
            assert store.put(fp, "k", mask(1)) is False
            assert store.nbytes == size_after_first
            assert store.appends == 1

    def test_reopen_serves_previous_entries(self, tmp_path):
        directory = tmp_path / "store"
        fp = (7, b"fp-persist")
        with CacheStore(directory) as store:
            store.put(fp, "a", mask(1, 1))
            store.put(fp, "b", mask(0, 1))
            store.put((8, b"fp-other"), "a", mask(0))
        reopened = CacheStore(directory)
        assert len(reopened) == 3
        assert reopened.get(fp, "b").tolist() == [False, True]
        assert sorted(
            key for key, _ in reopened.fingerprint_batch(fp)
        ) == ["a", "b"]
        reopened.close()

    def test_fingerprint_batch_loads_in_offset_order(self, tmp_path):
        with CacheStore(tmp_path / "store") as store:
            fp = (9, b"fp-batch")
            for name in ("c", "a", "b"):
                store.put(fp, name, mask(1))
            batch = store.fingerprint_batch(fp)
            # append order == file offset order: one sequential sweep
            assert [key for key, _ in batch] == ["c", "a", "b"]
            assert store.fingerprint_batch((0, b"none")) == []

    def test_max_bytes_degrades_to_read_only(self, tmp_path):
        store = CacheStore(tmp_path / "store", max_bytes=256)
        fp = (3, b"fp")
        assert store.put(fp, "small", mask(1)) is True
        assert store.put(
            fp, "big", np.zeros(4096, dtype=bool)
        ) is False
        assert store.appends_skipped == 1
        assert store.get(fp, "small") is not None
        store.close()
        with pytest.raises(ReproError):
            CacheStore(tmp_path / "elsewhere", max_bytes=0)

    def test_stats_shape(self, tmp_path):
        with CacheStore(tmp_path / "store") as store:
            store.put((1, b"f"), "k", mask(1))
            store.get((1, b"f"), "k")
            stats = store.stats()
        assert stats["entries"] == 1
        assert stats["fingerprints"] == 1
        assert stats["appends"] == 1
        assert stats["reads"] == 1
        assert stats["bytes"] > len(MAGIC)
        assert stats["path"].endswith(LOG_NAME)

    def test_closed_store_raises(self, tmp_path):
        store = CacheStore(tmp_path / "store")
        store.close()
        store.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            store.put((1, b"f"), "k", mask(1))
        with pytest.raises(ReproError, match="closed"):
            store.get((1, b"f"), "k")

    def test_as_cache_store_normalisation(self, tmp_path):
        assert as_cache_store(None) is None
        assert as_cache_store(False) is None
        store = CacheStore(tmp_path / "store")
        assert as_cache_store(store) is store
        from_path = as_cache_store(str(tmp_path / "other"))
        assert isinstance(from_path, CacheStore)
        with pytest.raises(ReproError):
            as_cache_store(42)
        import io

        with pytest.raises(ReproError, match="not an open file"):
            as_cache_store(io.BytesIO())
        store.close()
        from_path.close()


class TestCacheStoreCorruption:
    """A damaged log opens as a typed CachePersistenceError, never a
    raw pickle/EOF/struct exception."""

    def _seed(self, tmp_path):
        directory = tmp_path / "store"
        with CacheStore(directory) as store:
            store.put((1, b"fp"), "a", mask(1, 0))
            store.put((1, b"fp"), "b", mask(0, 1))
        return directory, directory / LOG_NAME

    def test_bad_magic(self, tmp_path):
        directory, log = self._seed(tmp_path)
        data = log.read_bytes()
        log.write_bytes(b"NOT-A-CACHESTORE!!\n" + data[len(MAGIC):])
        with pytest.raises(CachePersistenceError, match="magic"):
            CacheStore(directory)

    def test_format_1_log_must_be_rebuilt(self, tmp_path):
        """A log from format 1 is keyed by a digest no current process
        computes: it is refused on open, never read."""
        directory, log = self._seed(tmp_path)
        data = log.read_bytes()
        log.write_bytes(b"REPRO-CACHESTORE-1\n" + data[len(MAGIC):])
        with pytest.raises(
            CachePersistenceError,
            match="older format.*delete it or rebuild it",
        ):
            CacheStore(directory)

    def test_truncated_header(self, tmp_path):
        directory, log = self._seed(tmp_path)
        data = log.read_bytes()
        log.write_bytes(data[:len(MAGIC) + _HEADER.size // 2])
        with pytest.raises(CachePersistenceError, match="truncated"):
            CacheStore(directory)

    def test_truncated_payload(self, tmp_path):
        directory, log = self._seed(tmp_path)
        data = log.read_bytes()
        log.write_bytes(data[:-3])  # cut mid-payload
        with pytest.raises(CachePersistenceError, match="truncated"):
            CacheStore(directory)

    def test_undecodable_metadata(self, tmp_path):
        directory = tmp_path / "store"
        log = directory / LOG_NAME
        os.makedirs(directory)
        meta = b"\xff" * 8  # not a pickle
        log.write_bytes(
            MAGIC + _HEADER.pack(len(meta), 0) + meta
        )
        with pytest.raises(CachePersistenceError, match="metadata"):
            CacheStore(directory)

    def test_undecodable_payload_on_read(self, tmp_path):
        directory = tmp_path / "store"
        log = directory / LOG_NAME
        os.makedirs(directory)
        meta = pickle.dumps(((1, b"fp"), "k"))
        payload = b"\xff" * 6
        log.write_bytes(
            MAGIC + _HEADER.pack(len(meta), len(payload))
            + meta + payload
        )
        store = CacheStore(directory)  # index scan never reads payloads
        with pytest.raises(CachePersistenceError, match="payload"):
            store.get((1, b"fp"), "k")
        store.close()

    def test_corruption_error_is_a_repro_error(self, tmp_path):
        directory, log = self._seed(tmp_path)
        log.write_bytes(b"junk")
        with pytest.raises(ReproError):
            CacheStore(directory)


# ---------------------------------------------------------------------------
# the tiered AtomCache
# ---------------------------------------------------------------------------

class TestTieredAtomCache:
    def test_eviction_demotes_to_the_store(self, tmp_path):
        store = CacheStore(tmp_path / "store")
        cache = AtomCache(max_entries=2, store=store)
        fp = (2, b"fp")
        cache.put(fp, "a", mask(1))
        cache.put(fp, "b", mask(0))
        cache.put(fp, "c", mask(1))  # evicts "a" -> disk
        assert cache.demoted == 1
        assert store.get(fp, "a").tolist() == [True]
        assert len(cache) == 2

    def test_miss_promotes_the_whole_fingerprint_batch(self, tmp_path):
        store = CacheStore(tmp_path / "store")
        fp = (5, b"fp")
        store.put(fp, "a", mask(1, 0))
        store.put(fp, "b", mask(0, 1))
        cache = AtomCache(store=store)
        assert cache.lookup(fp, "a").tolist() == [True, False]
        assert cache.tier_hits == 1
        assert cache.promoted == 2  # "b" came along for the ride
        # the batch-mate now hits memory without touching the store
        reads_before = store.reads
        assert cache.lookup(fp, "b").tolist() == [False, True]
        assert store.reads == reads_before
        assert cache.hits == 2
        assert cache.misses == 0

    def test_store_miss_counts_once(self, tmp_path):
        cache = AtomCache(store=CacheStore(tmp_path / "store"))
        assert cache.lookup((1, b"fp"), "nowhere") is None
        assert cache.tier_misses == 1
        assert cache.misses == 1
        assert cache.hits == 0

    def test_promotion_survives_eviction_pressure(self, tmp_path):
        """Promoting a batch larger than the LRU must still return the
        requested entry, even if the batch itself evicts it."""
        store = CacheStore(tmp_path / "store")
        fp = (6, b"fp")
        for name in ("a", "b", "c", "d"):
            store.put(fp, name, mask(name == "a"))
        cache = AtomCache(max_entries=2, store=store)
        got = cache.lookup(fp, "a")
        assert got is not None
        assert got.tolist() == [True]
        assert cache.tier_hits == 1

    def test_stats_report_tier_counters_and_store(self, tmp_path):
        store = CacheStore(tmp_path / "store")
        cache = AtomCache(max_entries=1, store=store)
        fp = (8, b"fp")
        cache.put(fp, "a", mask(1))
        cache.put(fp, "b", mask(0))  # demotes "a"
        cache.lookup(fp, "a")  # promotes it back
        stats = cache.stats()
        assert stats["demoted"] >= 1
        assert stats["promoted"] >= 1
        assert stats["tier_hits"] == 1
        assert stats["store"]["entries"] >= 1
        plain = AtomCache()
        assert plain.stats()["store"] is None

    def test_attach_store_accepts_a_path(self, tmp_path):
        cache = AtomCache(max_entries=1)
        cache.attach_store(str(tmp_path / "store"))
        fp = (9, b"fp")
        cache.put(fp, "a", mask(1))
        cache.put(fp, "b", mask(0))
        assert cache.demoted == 1
        assert cache.store.get(fp, "a") is not None

    def test_differential_masks_identical_with_tiny_tier(self, tmp_path):
        """A pathologically small tiered cache (constant demote/promote
        churn) must not change a single match bit, on the compiled
        backend or on the harness's vectorised evaluation (the
        design-space path)."""
        dataset = load_dataset("smartcity", 150, seed=3)
        reference = FilterEngine(backend="scalar").match_bits(
            simple_filter(), dataset
        )
        for path in ("vectorized", "compiled"):
            cache = AtomCache(
                max_bytes=256, store=CacheStore(tmp_path / path)
            )
            # the harness reads the cache over the batches a scalar
            # engine frames; the compiled backend reads it itself
            engine = FilterEngine(
                backend="scalar" if path == "vectorized" else path,
                cache=cache, chunk_bytes=1024,
            )
            for _ in range(3):  # repeated passes churn the tier
                matches = []
                for batch in engine.stream(
                    simple_filter(), dataset.stream.tobytes()
                ):
                    if path == "vectorized":
                        batch.matches = cache.match_bits(
                            simple_filter(), batch.batch
                        )
                    matches.extend(batch.matches.tolist())
                assert matches == reference.tolist(), path
            assert cache.demoted > 0, path


# ---------------------------------------------------------------------------
# end-to-end wiring
# ---------------------------------------------------------------------------

class TestEngineWiring:
    def test_engine_config_cache_store(self, tmp_path):
        engine = FilterEngine(
            cache=AtomCache(max_bytes=256),
            cache_store=str(tmp_path / "store"),
        )
        dataset = load_dataset("smartcity", 120, seed=3)
        engine.match_bits(simple_filter(), dataset)
        stats = engine.stats()["cache"]
        assert stats["store"] is not None
        assert stats["demoted"] > 0

    def test_cache_store_implies_a_cache(self, tmp_path):
        """cache_store without cache=True still gets a tiered cache —
        a disk tier under no cache would be dead configuration."""
        engine = FilterEngine(cache_store=str(tmp_path / "store"))
        assert engine.atom_cache is not None
        assert engine.atom_cache.store is not None

    def test_restart_serves_warm_from_disk(self, tmp_path):
        """The headline property: a new process (fresh cache, same
        store directory) serves the previous run's masks via promotion
        instead of re-evaluating."""
        dataset = load_dataset("smartcity", 140, seed=5)
        directory = str(tmp_path / "store")
        first = FilterEngine(
            cache=AtomCache(max_bytes=1), cache_store=directory
        )
        reference = first.match_bits(simple_filter(), dataset)
        assert first.atom_cache.demoted > 0
        first.atom_cache.store.close()

        second = FilterEngine(
            cache=AtomCache(max_bytes=None), cache_store=directory
        )
        bits = second.match_bits(simple_filter(), dataset)
        assert bits.tolist() == reference.tolist()
        cache = second.atom_cache
        assert cache.tier_hits > 0
        assert cache.promoted > 0
        # served from disk: the expensive sweeps were not recomputed
        assert cache.misses < cache.tier_hits + cache.promoted

    def test_gateway_restart_serves_warm(self, tmp_path):
        """Gateway wiring: EnginePool attaches the store to its shared
        cache; a second pool over the same directory starts warm."""
        from repro.serve.server import EnginePool

        dataset = load_dataset("smartcity", 120, seed=7)
        directory = str(tmp_path / "store")
        pool = EnginePool(size=1, cache_store=directory)
        engine = pool.engines[0]
        engine.match_bits(simple_filter(), dataset)
        assert pool.cache.store is not None
        # what `repro serve` does on shutdown
        assert pool.cache.persist() > 0
        pool.cache.store.close()
        pool.close()

        warm_pool = EnginePool(size=1, cache_store=directory)
        warm_engine = warm_pool.engines[0]
        warm_engine.match_bits(simple_filter(), dataset)
        assert warm_pool.cache.tier_hits > 0
        warm_pool.cache.store.close()
        warm_pool.close()


class TestPersist:
    """AtomCache.persist: live entries to the disk tier on exit."""

    def test_persist_writes_live_entries_once(self, tmp_path):
        cache = AtomCache(store=tmp_path / "store")
        cache.put((3, b"fp"), "a", mask(1, 0, 1))
        cache.put((3, b"fp"), "b", mask(0, 1, 1))
        assert cache.persist() == 2
        assert len(cache.store) == 2
        # already-stored keys are skipped: the log does not grow
        size = cache.store.nbytes
        assert cache.persist() == 0
        assert cache.store.nbytes == size
        cache.store.close()
        # without a store there is nothing to write to
        assert AtomCache().persist() == 0
