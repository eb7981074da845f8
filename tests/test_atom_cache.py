"""Differential + policy tests for the shared AtomCache.

The cache may only ever change *when* work happens, never *what* is
computed: every cached evaluation must be bit-identical to a cold,
cache-free run.  The differential suite locks that down over randomised
corpora and query sets; the policy tests pin the LRU/fingerprint
behaviour the bound relies on.
"""

import hashlib
import random

import numpy as np
import pytest

import repro.core.composition as comp
from repro.core.design_space import DesignSpace
from repro.data import Dataset, load_dataset
from repro.data.riotbench import Query, RangeCondition
from repro.engine import (
    AtomCache,
    CompiledBackend,
    FilterEngine,
    as_atom_cache,
)
from repro.engine.atom_cache import dataset_fingerprint
from repro.errors import ReproError
from repro.eval.harness import DatasetView, evaluate_expression

ATTRIBUTES = ("temperature", "humidity", "light", "dust",
              "airquality_raw")


def random_query(rng, name, num_conditions):
    """A random conjunction of range conditions over smartcity fields."""
    attrs = rng.sample(ATTRIBUTES, num_conditions)
    conditions = []
    for attr in attrs:
        if rng.random() < 0.5:
            lo = rng.randint(0, 40)
            conditions.append(
                RangeCondition(attr, lo, lo + rng.randint(1, 400))
            )
        else:
            lo = rng.uniform(0, 40)
            conditions.append(
                RangeCondition(
                    attr, f"{lo:.2f}", f"{lo + rng.uniform(1, 60):.2f}"
                )
            )
    return Query(name, "smartcity", "senml", conditions, 0.5)


def explored_tuples(points):
    return [
        (point.choice, point.fpr, point.luts, point.num_attributes)
        for point in points
    ]


def front_tuples(front):
    return [
        (point.meta["choice"], point.fpr, point.luts)
        for point in front
    ]


# ---------------------------------------------------------------------------
# differential: cached runs are bit-identical to cold cache-free runs
# ---------------------------------------------------------------------------

class TestDifferentialDesignSpace:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_explore_equals_cold_run(self, seed):
        """A shared cached engine serving several queries in sequence
        must reproduce every cold, cache-free result bit for bit."""
        rng = random.Random(seed)
        dataset = load_dataset("smartcity", 150 + 25 * seed,
                               seed=900 + seed)
        shared = FilterEngine(cache=True)
        for index in range(3):
            query = random_query(rng, f"rq{seed}-{index}",
                                 rng.randint(1, 3))
            cached_space = DesignSpace(query, dataset, engine=shared)
            cold_space = DesignSpace(query, dataset,
                                     engine=FilterEngine())
            cached_points = cached_space.explore()
            cold_points = cold_space.explore()
            assert explored_tuples(cached_points) == (
                explored_tuples(cold_points)
            )
            cached_front = cached_space.pareto(
                cached_points, exact_luts=False
            )
            cold_front = cold_space.pareto(cold_points, exact_luts=False)
            assert front_tuples(cached_front) == front_tuples(cold_front)
        stats = shared.stats()["cache"]
        assert stats["hits"] > 0  # queries actually shared atoms/masks

    def test_cached_evaluate_choice_equals_cold(self):
        dataset = load_dataset("smartcity", 220, seed=17)
        rng = random.Random(7)
        query = random_query(rng, "rq-choice", 3)
        shared = FilterEngine(cache=True)
        # warm the cache with a sibling query sharing conditions
        sibling = Query("rq-sibling", "smartcity", "senml",
                        query.conditions[:2], 0.5)
        DesignSpace(sibling, dataset, engine=shared).explore()
        cached_space = DesignSpace(query, dataset, engine=shared)
        cold_space = DesignSpace(query, dataset, engine=FilterEngine())
        choices = list(cached_space.iter_choices())
        for choice in rng.sample(choices, 40):
            assert cached_space.evaluate_choice(choice) == (
                cold_space.evaluate_choice(choice)
            )

    def test_repeated_explore_is_stable(self):
        """Exploring the same query twice through one cached engine
        serves phase 1 fully from the cache and changes nothing."""
        dataset = load_dataset("smartcity", 180, seed=3)
        query = random_query(random.Random(11), "rq-stable", 2)
        engine = FilterEngine(cache=True)
        first = DesignSpace(query, dataset, engine=engine).explore()
        misses_after_first = engine.atom_cache.misses
        second = DesignSpace(query, dataset, engine=engine).explore()
        assert explored_tuples(first) == explored_tuples(second)
        assert engine.atom_cache.misses == misses_after_first

    def test_match_bits_cached_equals_uncached(self):
        """Engine-level differential: cached bits equal both the
        uncached bits of the same path and the scalar oracle bits, for
        the compiled backend and the harness's vectorised evaluation."""
        dataset = load_dataset("taxi", 150, seed=5)
        exprs = [
            comp.s("taxi", 2),
            comp.And([comp.s("taxi", 2), comp.v_int(0, 80)]),
            comp.group(comp.s("fare_amount", 1), comp.v("6.0", "201.0")),
        ]
        oracle = FilterEngine(backend="scalar")
        paths = {
            "compiled": (
                FilterEngine(cache=True).match_bits,
                FilterEngine().match_bits,
            ),
            "vectorized": (
                AtomCache().match_bits,
                lambda expr, data: evaluate_expression(
                    DatasetView(data), expr, {}
                ),
            ),
        }
        for path, (cached, plain) in paths.items():
            for expr in exprs:
                for _ in range(2):  # second pass is served from the cache
                    fast = cached(expr, dataset)
                    assert fast.tolist() == (
                        plain(expr, dataset).tolist()
                    ), path
                    assert fast.tolist() == (
                        oracle.match_bits(expr, dataset).tolist()
                    ), path

    def test_cached_results_are_writable_copies(self):
        dataset = load_dataset("smartcity", 60)
        engine = FilterEngine(cache=True)
        expr = comp.s("temperature", 1)
        first = engine.match_bits(expr, dataset)
        first[:] = False  # caller may scribble on its copy
        second = engine.match_bits(expr, dataset)
        assert second.any()


# ---------------------------------------------------------------------------
# cache policy: LRU bound, fingerprint invalidation, counters
# ---------------------------------------------------------------------------

class TestCachePolicy:
    def test_lru_eviction_at_entry_bound(self):
        cache = AtomCache(max_entries=3)
        fp = (1, b"fp")
        for index in range(5):
            cache.put(fp, ("atom", index), np.ones(4, dtype=bool))
        assert len(cache) == 3
        assert cache.evictions == 2
        # oldest two are gone, newest three remain
        assert cache.lookup(fp, ("atom", 0)) is None
        assert cache.lookup(fp, ("atom", 1)) is None
        assert cache.lookup(fp, ("atom", 4)) is not None

    def test_lru_recency_updated_by_lookup(self):
        cache = AtomCache(max_entries=2)
        fp = (1, b"fp")
        cache.put(fp, "a", np.ones(2, dtype=bool))
        cache.put(fp, "b", np.ones(2, dtype=bool))
        assert cache.lookup(fp, "a") is not None  # refresh "a"
        cache.put(fp, "c", np.ones(2, dtype=bool))  # evicts "b"
        assert cache.lookup(fp, "a") is not None
        assert cache.lookup(fp, "b") is None

    def test_byte_bound_eviction(self):
        cache = AtomCache(max_entries=None, max_bytes=100)
        fp = (1, b"fp")
        cache.put(fp, "a", np.zeros(60, dtype=np.uint8))
        cache.put(fp, "b", np.zeros(60, dtype=np.uint8))
        assert cache.nbytes <= 100
        assert cache.evictions == 1
        assert cache.lookup(fp, "a") is None

    def test_fingerprint_invalidation_on_dataset_change(self):
        """Same atom over datasets differing in one byte must not share
        masks: the content fingerprint separates them."""
        records = [b'{"temperature":"1.0"}', b'{"humidity":"9"}']
        changed = [b'{"temperature":"9.9"}', b'{"humidity":"9"}']
        engine = FilterEngine(cache=True)
        expr = comp.v("0.5", "2.0")
        first = engine.match_bits(expr, Dataset("a", records))
        hits_before = engine.atom_cache.hits
        second = engine.match_bits(expr, Dataset("a", changed))
        assert engine.atom_cache.hits == hits_before  # no false hit
        assert first.tolist() == [True, False]
        assert second.tolist() == [False, False]

    def test_equal_content_shares_fingerprint(self):
        records = [b'{"temperature":"1.0"}']
        engine = FilterEngine(cache=True)
        expr = comp.s("temperature", 1)
        engine.match_bits(expr, Dataset("a", records))
        misses = engine.atom_cache.misses
        engine.match_bits(expr, Dataset("b", list(records)))
        assert engine.atom_cache.misses == misses  # pure hits
        assert engine.atom_cache.hits > 0

    def test_fingerprint_is_the_copying_digest(self):
        """Hashing the buffer in place gives the full SHA-256 digest of
        the copied bytes, the key every CacheStore log of this format
        holds: for a framed batch (a view into its chunk), a record
        slice, a kernel gather and a non-contiguous stream."""
        from repro.engine.compiled import _gather
        from repro.engine.framing import RecordFramer

        corpus = load_dataset("smartcity", 60, seed=4)
        payload = corpus.stream.tobytes()
        framed = RecordFramer().push(payload[:4000])
        strided = np.frombuffer(payload, np.uint8)[:400:2]
        batches = [
            corpus,
            framed,
            corpus.slice(7, 30),
            _gather(corpus, np.array([3, 11, 12, 40])),
            Dataset.from_buffer("strided", strided, np.zeros(1, np.int64)),
        ]
        assert not strided.flags.c_contiguous
        for batch in batches:
            stream = batch.stream
            want = (
                int(stream.shape[0]),
                hashlib.sha256(stream.tobytes()).digest(),
            )
            assert dataset_fingerprint(batch) == want

    def test_fingerprint_hashes_in_place(self):
        """No copy of the batch: fingerprinting one 16 MB framed batch
        peaks under 1 MB of traced allocations."""
        import tracemalloc

        from repro.engine.framing import RecordFramer

        payload = load_dataset("smartcity", 200, seed=4).stream.tobytes()
        payload *= (16 << 20) // len(payload) + 1
        batch = RecordFramer().push(payload[:16 << 20])
        assert batch.stream.nbytes > 15 << 20
        tracemalloc.start()
        try:
            dataset_fingerprint(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_hit_miss_counters_via_engine_stats(self):
        dataset = load_dataset("smartcity", 80)
        engine = FilterEngine(cache=True)
        expr = comp.s("temperature", 1)
        assert engine.stats()["cache"]["misses"] == 0
        engine.match_bits(expr, dataset)
        stats = engine.stats()["cache"]
        assert stats["misses"] >= 1 and stats["hits"] == 0
        engine.match_bits(expr, dataset)
        warm = engine.stats()["cache"]
        assert warm["hits"] >= 1
        assert warm["misses"] == stats["misses"]
        assert 0.0 < warm["hit_rate"] < 1.0

    def test_stats_disabled_without_cache(self):
        engine = FilterEngine()
        stats = engine.stats()
        assert stats["cache"] is None
        assert stats["backend"] == "compiled"

    def test_view_memo_is_bounded(self):
        cache = AtomCache(max_views=2)
        views = [
            cache.view_for(Dataset(f"d{i}", [b'{"x":%d}' % i]))
            for i in range(4)
        ]
        assert cache.stats()["views"] == 2
        # the memo serves the same instance for equal content
        dataset = Dataset("again", [b'{"x":3}'])
        assert cache.view_for(dataset) is views[-1]

    def test_clear_drops_entries_and_views(self):
        dataset = load_dataset("smartcity", 40)
        engine = FilterEngine(cache=True)
        engine.match_bits(comp.s("temperature", 1), dataset)
        cache = engine.atom_cache
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["views"] == 0

    def test_cached_arrays_are_frozen(self):
        cache = AtomCache()
        fp = (1, b"fp")
        stored = cache.put(fp, "a", np.ones(3, dtype=bool))
        with pytest.raises(ValueError):
            stored[0] = False
        looked_up = cache.lookup(fp, "a")
        with pytest.raises(ValueError):
            looked_up[0] = False

    def test_constructor_validation(self):
        with pytest.raises(ReproError):
            AtomCache(max_entries=0)
        with pytest.raises(ReproError):
            AtomCache(max_bytes=0)
        with pytest.raises(ReproError):
            AtomCache(max_views=0)

    def test_as_atom_cache_normalisation(self):
        assert as_atom_cache(None) is None
        assert as_atom_cache(False) is None
        assert isinstance(as_atom_cache(True), AtomCache)
        cache = AtomCache()
        assert as_atom_cache(cache) is cache
        with pytest.raises(ReproError):
            as_atom_cache("yes")

    def test_engine_cache_argument_forms(self):
        assert FilterEngine().atom_cache is None
        assert isinstance(FilterEngine(cache=True).atom_cache, AtomCache)
        cache = AtomCache()
        shared_a = FilterEngine(cache=cache)
        shared_b = FilterEngine(cache=cache)
        assert shared_a.atom_cache is shared_b.atom_cache

    def test_backend_instance_override_honours_cache(self):
        """cache=True must not be silently dropped when the backend is
        supplied as an instance rather than by name."""
        dataset = load_dataset("smartcity", 50)
        expr = comp.s("temperature", 1)
        instance = CompiledBackend()
        engine = FilterEngine(backend=instance, cache=True)
        engine.match_bits(expr, dataset)
        assert engine.atom_cache.misses > 0
        hits_before = engine.atom_cache.hits
        engine.match_bits(expr, dataset, backend=CompiledBackend())
        assert engine.atom_cache.hits > hits_before
        # a backend carrying its own cache keeps it
        own = AtomCache()
        preloaded = CompiledBackend(atom_cache=own)
        assert FilterEngine(cache=True).backend(preloaded) is preloaded
        assert preloaded.atom_cache is own

    def test_stats_report_view_bytes(self):
        dataset = load_dataset("smartcity", 80)
        engine = FilterEngine(cache=True)
        engine.match_bits(comp.s("temperature", 1), dataset)
        before = engine.stats()["cache"]["view_bytes"]
        assert before >= dataset.total_bytes
        engine.match_bits(comp.v_int(0, 9), dataset)
        stats = engine.stats()["cache"]
        columns, _, _, _ = engine.atom_cache.view_for(dataset).tokens
        token_bytes = sum(column.nbytes for column in columns)
        assert token_bytes > 0
        assert stats["view_bytes"] >= before + token_bytes
        engine.atom_cache.clear()
        assert engine.stats()["cache"]["view_bytes"] == 0
        # the gateway's STATS reads the same figure after a number step
        from repro.serve import GatewayClient, GatewayThread

        with GatewayThread(engines=1) as gateway:
            with GatewayClient(
                "127.0.0.1", gateway.port, tenant="numbers"
            ) as client:
                for _ in client.submit(
                    "v:int:0:9", dataset.stream.tobytes()
                ):
                    pass
                snapshot = client.stats()
        assert snapshot["engine"]["cache"]["view_bytes"] >= (
            dataset.total_bytes + token_bytes
        )

    def test_scalar_backend_bypasses_cache(self):
        """The scalar reference oracle must never be cache-served."""
        dataset = load_dataset("smartcity", 50)
        engine = FilterEngine(cache=True)
        engine.match_bits(comp.s("temperature", 1), dataset,
                          backend="scalar")
        assert engine.atom_cache.misses == 0
        assert len(engine.atom_cache) == 0


class TestSnapshots:
    """Snapshots: worker warm-up and merge-back."""

    def _warmed_cache(self, num_records=60):
        dataset = load_dataset("smartcity", num_records, seed=9)
        engine = FilterEngine(cache=True)
        engine.match_bits(comp.s("temperature", 1), dataset)
        engine.match_bits(comp.v_int(0, 40), dataset)
        return engine.atom_cache, dataset

    def test_snapshot_roundtrip_preserves_entries(self):
        cache, dataset = self._warmed_cache()
        entries = cache.snapshot()
        assert len(entries) == len(cache)
        clone = AtomCache()
        assert clone.merge_snapshot(entries) == (len(cache), 0)
        # the clone serves the same masks without re-evaluating
        engine = FilterEngine(cache=clone)
        misses_before = clone.misses
        bits = engine.match_bits(comp.s("temperature", 1), dataset)
        assert clone.misses == misses_before
        reference = FilterEngine().match_bits(
            comp.s("temperature", 1), dataset
        )
        assert bits.tolist() == reference.tolist()

    def test_snapshot_orders_most_recent_first(self):
        cache = AtomCache()
        cache.put((1, b"fp"), "old", np.zeros(4, dtype=bool))
        cache.put((1, b"fp"), "new", np.ones(4, dtype=bool))
        entries = cache.snapshot()
        assert [key for _, key, _ in entries] == ["new", "old"]


class TestMergeSnapshot:
    """Worker merge-back policy (AtomCache.merge_snapshot)."""

    def test_merges_new_entries_and_reports_counts(self):
        cache = AtomCache()
        entries = [
            ((1, b"fp"), "a", np.array([1, 0], dtype=bool)),
            ((1, b"fp"), "b", np.array([0, 1], dtype=bool)),
        ]
        merged, skipped = cache.merge_snapshot(entries)
        assert (merged, skipped) == (2, 0)
        assert len(cache) == 2
        assert cache.lookup((1, b"fp"), "a").tolist() == [True, False]

    def test_conflicting_keys_keep_the_existing_entry(self):
        """Keys embed a content fingerprint, so a conflict means
        byte-equivalent data: the resident entry (and its recency)
        wins, and nothing is recomputed or overwritten."""
        cache = AtomCache()
        resident = cache.put((1, b"fp"), "a", np.array([1, 0]))
        cache.put((1, b"fp"), "newer", np.array([0, 0]))
        merged, skipped = cache.merge_snapshot(
            [((1, b"fp"), "a", np.array([1, 0]))]
        )
        assert (merged, skipped) == (0, 1)
        assert cache.lookup((1, b"fp"), "a") is resident
        # recency order unchanged: "a" was not re-inserted as MRU
        assert [key for _, key in cache._entries] == ["newer", "a"]

    def test_merge_respects_entry_bound(self):
        cache = AtomCache(max_entries=2)
        entries = [
            ((1, b"fp"), f"atom-{i}", np.zeros(4, dtype=bool))
            for i in range(5)
        ]
        merged, skipped = cache.merge_snapshot(entries)
        assert merged == 5 and skipped == 0
        assert len(cache) == 2
        assert cache.evictions == 3

    def test_merge_respects_byte_bound(self):
        cache = AtomCache(max_bytes=2048)
        entries = [
            ((1, b"fp"), f"atom-{i}", np.zeros(1024, dtype=np.uint8))
            for i in range(4)
        ]
        cache.merge_snapshot(entries)
        assert cache.nbytes <= 2048
        assert cache.evictions == 2

    def test_delta_log_records_only_new_inserts(self):
        cache = AtomCache()
        cache.merge_snapshot(
            [((1, b"fp"), "warm", np.array([1], dtype=bool))]
        )
        cache.track_deltas()
        assert cache.pop_deltas() == []  # snapshot loads don't count
        cache.put((2, b"fp"), "fresh", np.array([0], dtype=bool))
        deltas = cache.pop_deltas()
        assert [(f, k) for f, k, _ in deltas] == [((2, b"fp"), "fresh")]
        assert cache.pop_deltas() == []  # consumed exactly once
        # deltas merged into another cache serve the same array
        other = AtomCache()
        other.merge_snapshot(deltas)
        assert other.lookup((2, b"fp"), "fresh").tolist() == [False]

    def test_pop_deltas_without_tracking_is_empty(self):
        cache = AtomCache()
        cache.put((1, b"fp"), "a", np.array([1]))
        assert cache.pop_deltas() == []
