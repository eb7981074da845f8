"""Tests for the worker data path (repro.engine.transport).

The acceptance bar: parallel streaming through the resident pool is
bit-identical to the serial path, every batch that fits a slot returns
through the shared-memory result ring while oversized ones fall back to
pickle, worker-computed cache entries merge back into the parent, the
multiprocessing start method is explicit, and the slot and result
frame helpers round-trip.  Pool lifetime, residency and fault
injection live in ``tests/test_resident_pool.py``.
"""

import io
import multiprocessing
import pickle
import random
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.core.composition as comp
from repro.data import load_dataset
from repro.engine import (
    AtomCache,
    EngineConfig,
    FilterEngine,
    ResidentWorkerPool,
    resolve_mp_context,
)
from repro.engine import transport as transport_module
from repro.engine.transport import (
    _RESULT_HEADER_BYTES,
    _read_batch,
    _read_result,
    _write_batch,
    _write_result,
    batch_slot_bytes,
)
from repro.errors import ReproError
from test_resident_pool import run_worker

#: one record far larger than any slot of a 128-byte-chunk pool
OVERSIZED_PAYLOAD = (
    b'{"n":"temperature","v":"1.0"}\n' * 10
    + b'{"blob":"' + b"y" * (1 << 17) + b'","n":"temp"}\n'
    + b'{"n":"temperature","v":"1.0"}\n' * 10
)


def simple_filter():
    return comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))


@pytest.fixture(scope="module")
def corpus():
    return load_dataset("smartcity", 160, seed=13)


@pytest.fixture(scope="module")
def payload(corpus):
    return corpus.stream.tobytes()


def stream_all(engine, expr, payload, backend=None):
    records, matches = [], []
    last = None
    for last in engine.stream(
        expr, io.BytesIO(payload), backend=backend
    ):
        records.extend(last.records)
        matches.extend(last.matches.tolist())
    return records, matches, last


#: the resident pool's two batch data paths.  "shared-memory" writes
#: each batch into a slot and reads its result back from the ring (the
#: default); "fork-pickle" ships every batch and its result as pickled
#: queue messages — the route a batch too big for its slot takes.
DATA_PATHS = ["fork-pickle", "shared-memory"]


def parallel_engine(path="shared-memory", **engine_kwargs):
    """A 2-worker engine whose batches all take data path ``path``."""
    engine = FilterEngine(num_workers=2, **engine_kwargs)
    if path == "fork-pickle":
        # no batch fits a zero-byte slot, so each rides the fallback
        engine._ensure_resident_pool().slot_bytes = 0
    return engine


def assert_took_path(workers, path):
    """Every batch went out and came back on data path ``path``."""
    assert workers["chunks"] >= 1
    if path == "shared-memory":
        assert workers["ring_results"] == workers["chunks"]
        assert workers["pickled_results"] == 0
        assert workers["fallback_batches"] == 0
    else:
        assert workers["fallback_batches"] == workers["chunks"]
        assert workers["pickled_results"] == workers["chunks"]
        assert workers["ring_results"] == 0


def parallel_run(payload, expr=None, path="shared-memory",
                 **engine_kwargs):
    """Stream through a 2-worker engine; (matches, last, worker stats)."""
    engine = parallel_engine(path, **engine_kwargs)
    try:
        _, matches, last = stream_all(
            engine, expr or simple_filter(), payload
        )
        return matches, last, engine.stats()["workers"]
    finally:
        engine.close()


def configure(expr=None):
    return ("configure", pickle.dumps(expr or simple_filter()),
            "compiled")


# ---------------------------------------------------------------------------
# resolution + configuration
# ---------------------------------------------------------------------------

class TestResolution:
    def test_mp_context_explicit_and_default(self):
        methods = multiprocessing.get_all_start_methods()
        default = resolve_mp_context(None)
        expected = "fork" if "fork" in methods else "spawn"
        assert default.get_start_method() == expected
        assert (
            resolve_mp_context("spawn").get_start_method() == "spawn"
        )
        context = multiprocessing.get_context("spawn")
        assert resolve_mp_context(context) is context

    def test_unknown_mp_context_rejected(self):
        with pytest.raises(ReproError):
            resolve_mp_context("teleport")
        with pytest.raises(ReproError):
            EngineConfig(mp_context="teleport")
        with pytest.raises(ReproError):
            resolve_mp_context(42)

    def test_config_carries_transport_and_context(self):
        """The start method is the one worker-transport setting left."""
        config = EngineConfig(num_workers=2, mp_context="spawn")
        assert "spawn" in repr(config)
        assert "transport" not in repr(config)


# ---------------------------------------------------------------------------
# differential: the resident pool vs the serial path
# ---------------------------------------------------------------------------

class TestTransportDifferential:
    @pytest.mark.parametrize("path", DATA_PATHS)
    @pytest.mark.parametrize("chunk_bytes", [256, 1024, 8192])
    def test_bit_identical_to_serial(self, payload, path, chunk_bytes):
        """Bit-identical at every chunk size on either data path, and
        every batch's result comes back on the path it went out on."""
        expr = simple_filter()
        want_records, want_matches, want_last = stream_all(
            FilterEngine(chunk_bytes=chunk_bytes), expr, payload
        )
        engine = parallel_engine(path, chunk_bytes=chunk_bytes)
        try:
            got_records, got_matches, got_last = stream_all(
                engine, expr, payload
            )
            workers = engine.stats()["workers"]
        finally:
            engine.close()
        assert got_records == want_records
        assert got_matches == want_matches
        assert got_last.records_seen == want_last.records_seen
        assert got_last.bytes_seen == want_last.bytes_seen
        assert got_last.accepted_seen == want_last.accepted_seen
        assert_took_path(workers, path)

    def test_random_expressions_shared_memory(self, payload):
        rng = random.Random(5)
        from test_engine import random_expression

        serial = FilterEngine(chunk_bytes=700)
        parallel = FilterEngine(chunk_bytes=700, num_workers=2)
        try:
            for _ in range(4):
                expr = random_expression(rng)
                _, want, _ = stream_all(serial, expr, payload)
                _, got, _ = stream_all(parallel, expr, payload)
                assert got == want, expr.notation()
        finally:
            parallel.close()

    def test_scalar_backend_through_transports(self, payload):
        expr = simple_filter()
        serial = FilterEngine(backend="scalar", chunk_bytes=512)
        _, want, _ = stream_all(serial, expr, payload)
        got, _, _ = parallel_run(
            payload, backend="scalar", chunk_bytes=512
        )
        assert got == want

    def test_oversized_record_falls_back_to_pickle(self):
        """A record bigger than the shared slot rides the pickled
        fallback path — results stay identical."""
        expr = comp.s("temperature", 1)
        _, want, _ = stream_all(
            FilterEngine(chunk_bytes=128), expr, OVERSIZED_PAYLOAD
        )
        got, _, workers = parallel_run(
            OVERSIZED_PAYLOAD, expr, chunk_bytes=128
        )
        assert got == want
        assert workers["fallback_batches"] >= 1

    def test_spawn_context_matches_fork(self, payload):
        expr = simple_filter()
        _, want, _ = stream_all(
            FilterEngine(chunk_bytes=2048), expr, payload
        )
        got, _, workers = parallel_run(
            payload, chunk_bytes=2048, mp_context="spawn"
        )
        assert got == want
        assert workers["mp_context"] == "spawn"
        assert workers["ring_results"] == workers["chunks"]
        assert workers["pickled_results"] == 0


# ---------------------------------------------------------------------------
# warm-cache workers + per-worker stats
# ---------------------------------------------------------------------------

class TestWarmWorkers:
    def test_workers_start_from_cache_snapshot(self, payload):
        """After a serial warm pass, every parallel chunk is served
        from the entries the session shipped — zero worker misses."""
        expr = simple_filter()
        cache = AtomCache()
        warm = FilterEngine(chunk_bytes=1024, cache=cache)
        _, want, _ = stream_all(warm, expr, payload)
        got, _, workers = parallel_run(
            payload, chunk_bytes=1024, cache=cache
        )
        assert got == want
        assert workers["cache_hits"] > 0
        assert workers["cache_misses"] == 0

    def test_cold_workers_report_misses(self, payload):
        _, _, workers = parallel_run(
            payload, chunk_bytes=1024, cache=True
        )
        assert workers["cache_misses"] > 0
        assert workers["cache_hits"] == 0

    def test_stats_expose_per_worker_counters(self, payload):
        engine = FilterEngine(chunk_bytes=512, num_workers=2)
        try:
            _, _, last = stream_all(engine, simple_filter(), payload)
            stats = engine.stats()
        finally:
            engine.close()
        assert "transport" not in stats
        workers = stats["workers"]
        assert workers["records"] == last.records_seen
        assert workers["chunks"] >= 1
        assert workers["slots"] == 4
        per_worker = workers["workers"]
        assert per_worker  # at least one worker reported
        assert sum(w["chunks"] for w in per_worker.values()) == (
            workers["chunks"]
        )
        for counters in per_worker.values():
            assert set(counters) == {
                "chunks", "records", "cache_hits", "cache_misses"
            }

    def test_serial_engine_reports_no_worker_stats(self, corpus):
        engine = FilterEngine()
        engine.match_bits(simple_filter(), corpus)
        assert engine.stats()["workers"] is None


# ---------------------------------------------------------------------------
# result ring: the pickle-free return path
# ---------------------------------------------------------------------------

class TestResultRing:
    @pytest.mark.parametrize("chunk_bytes", [256, 1024, 8192])
    def test_ring_differential_vs_fork_pickle(self, payload,
                                              chunk_bytes):
        """Shared-memory ring results are bit-identical to pickled
        returns at every chunk size, and each engine's batches all
        took their own path."""
        expr = simple_filter()
        pickled = parallel_engine("fork-pickle", chunk_bytes=chunk_bytes)
        ring = parallel_engine("shared-memory", chunk_bytes=chunk_bytes)
        try:
            want_records, want_matches, want_last = stream_all(
                pickled, expr, payload
            )
            got_records, got_matches, got_last = stream_all(
                ring, expr, payload
            )
            baseline = pickled.stats()["workers"]
            workers = ring.stats()["workers"]
        finally:
            pickled.close()
            ring.close()
        assert got_records == want_records
        assert got_matches == want_matches
        assert got_last.accepted_seen == want_last.accepted_seen
        assert_took_path(workers, "shared-memory")
        assert_took_path(baseline, "fork-pickle")

    @pytest.mark.parametrize("path", DATA_PATHS)
    def test_ring_differential_under_spawn(self, payload, path):
        expr = simple_filter()
        _, want, _ = stream_all(
            FilterEngine(chunk_bytes=2048), expr, payload
        )
        got, _, workers = parallel_run(
            payload, path=path, chunk_bytes=2048, mp_context="spawn"
        )
        assert got == want
        assert workers["mp_context"] == "spawn"
        assert_took_path(workers, path)

    def test_fallback_batches_return_pickled(self):
        """A batch that rode the pickled request fallback also returns
        its result through the pipe — and is counted as such."""
        _, _, workers = parallel_run(
            OVERSIZED_PAYLOAD, comp.s("temperature", 1), chunk_bytes=128
        )
        assert workers["fallback_batches"] >= 1
        assert workers["pickled_results"] >= workers["fallback_batches"]
        assert workers["ring_results"] + workers["pickled_results"] == (
            workers["chunks"]
        )


# ---------------------------------------------------------------------------
# AtomCache merge-back: a parallel pass warms later passes
# ---------------------------------------------------------------------------

class TestMergeBack:
    @pytest.mark.parametrize("path", DATA_PATHS)
    def test_parallel_pass_warms_serial_repass(self, payload, path):
        """A *cold parallel* first pass, on either data path, leaves
        the parent cache warm enough that a second serial pass over the
        same corpus is served entirely from merged worker entries."""
        expr = simple_filter()
        cache = AtomCache()
        want, _, workers = parallel_run(
            payload, path=path, chunk_bytes=1024, cache=cache
        )
        assert_took_path(workers, path)
        assert workers["merged_entries"] > 0
        assert workers["delta_entries"] >= workers["merged_entries"]
        assert len(cache) == workers["merged_entries"]

        serial = FilterEngine(chunk_bytes=1024, cache=cache)
        hits_before, misses_before = cache.hits, cache.misses
        _, got, _ = stream_all(serial, expr, payload)
        assert got == want
        assert cache.hits > hits_before
        assert cache.misses == misses_before

    def test_warm_workers_ship_no_deltas(self, payload):
        """Fully warm workers compute nothing new — so nothing rides
        back and the merge is a no-op."""
        cache = AtomCache()
        warm = FilterEngine(chunk_bytes=1024, cache=cache)
        stream_all(warm, simple_filter(), payload)
        _, _, workers = parallel_run(
            payload, chunk_bytes=1024, cache=cache
        )
        assert workers["cache_misses"] == 0
        assert workers["delta_entries"] == 0
        assert workers["merged_entries"] == 0

    def test_deltas_merge_incrementally_not_buffered(self, payload):
        """Deltas fold into the parent cache as results drain — the
        resident footprint is capped by the cache's own bounds, not by
        stream length (bounded-memory streaming holds for parallel
        cached runs)."""
        cache = AtomCache()
        engine = FilterEngine(
            chunk_bytes=256, num_workers=2, cache=cache
        )
        mid_stream_entries = 0
        try:
            for batch in engine.stream(
                simple_filter(), io.BytesIO(payload)
            ):
                if batch.index == 10:
                    mid_stream_entries = len(cache)
        finally:
            engine.close()
        assert mid_stream_entries > 0, (
            "no entries merged before stream end"
        )

    def test_merge_after_abandoned_stream(self, payload):
        """Closing a half-consumed parallel stream generator still
        merges the in-flight batches' deltas (session close drains)."""
        cache = AtomCache()
        engine = FilterEngine(
            chunk_bytes=512, num_workers=2, cache=cache
        )
        try:
            stream = engine.stream(
                simple_filter(), io.BytesIO(payload)
            )
            for _ in range(3):
                next(stream)
            stream.close()
            workers = engine.stats()["workers"]
        finally:
            engine.close()
        assert workers["merged_entries"] > 0
        assert len(cache) == workers["merged_entries"]

    def test_merge_skips_entries_the_parent_already_has(self):
        """Deltas whose key landed in the parent cache in the meantime
        are skipped, preserving the parent's entry and recency."""
        cache = AtomCache()
        fingerprint = (3, b"digest")
        kept = cache.put(fingerprint, "atom-a", np.array([1, 0, 1]))
        with ResidentWorkerPool(1, atom_cache=cache) as pool:
            # the per-result merge step every drained result runs
            pool._merge_delta([
                (fingerprint, "atom-a", np.array([1, 0, 1])),
                (fingerprint, "atom-b", np.array([0, 1, 0])),
            ])
        assert pool.merged_entries == 1
        assert pool.merge_skipped == 1
        assert cache.lookup(fingerprint, "atom-a") is kept
        assert pool.stats()["merged_entries"] == 1


# ---------------------------------------------------------------------------
# session protocol
# ---------------------------------------------------------------------------

class TestSessionProtocol:
    def test_drain_without_submit_rejected(self):
        with ResidentWorkerPool(1) as pool:
            session = pool.session(
                pickle.dumps(simple_filter()), "compiled"
            )
            with pytest.raises(ReproError, match="no batch in flight"):
                session.drain()
            session.close()

    def test_context_manager_closes_slots(self):
        with ResidentWorkerPool(1, chunk_bytes=1024) as pool:
            with pool.session(
                pickle.dumps(comp.s("temperature", 1)), "compiled"
            ) as session:
                session.submit([b'{"n":"temperature"}'])
                matches, count = session.drain()
            assert count == 1
            assert matches.tolist() == [True]
            names = pool.slot_names()
        # after close, the slots must be unlinked
        assert names
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ReproError):
            ResidentWorkerPool(num_workers=0)
        with pytest.raises(ReproError):
            EngineConfig(num_workers=0)


class TestWorkerFunctions:
    """The worker-side functions, driven in-process.

    The pool tests above execute these in child processes (invisible
    to coverage); here the same code paths run in the parent so the
    slot wire format and the worker state machine are directly
    verified.
    """

    def test_slot_roundtrip_preserves_records_and_stream(self, corpus):
        records = corpus.records[:40]
        shm = shared_memory.SharedMemory(
            create=True, size=batch_slot_bytes(records)
        )
        try:
            _write_batch(shm.buf, records)
            rebuilt = _read_batch(shm.buf)
            assert rebuilt.records == records
            assert rebuilt.stream.tobytes() == b"".join(
                record + b"\n" for record in records
            )
            assert rebuilt.starts.tolist() == [
                sum(len(r) + 1 for r in records[:i])
                for i in range(len(records))
            ]
        finally:
            shm.close()
            shm.unlink()

    def test_worker_init_resolves_expression_and_counts(self):
        """``configure`` is a worker's per-filter init: the predicate
        is lowered once, and each batch bumps the cumulative counters
        and ships its newly computed cache entries back."""
        replies = run_worker([
            configure(),
            ("batch-pickled", 0,
             [b'{"e":[{"v":"30.0","n":"temperature"}]}',
              b'{"e":[{"v":"99.0","n":"temperature"}]}']),
        ])
        _, seq, kind, (packed, count, stats, delta) = replies[0]
        assert (seq, kind, count) == (0, "pickled", 2)
        assert np.unpackbits(packed, count=2).tolist() == [1, 0]
        _pid, chunks, records, hits, misses = stats
        assert chunks == 1 and records == 2
        assert hits == 0 and misses > 0  # a fresh worker cache
        assert delta  # the new masks ride back for merge-back
        predicate = transport_module._WORKER["predicate"]
        assert predicate.notation() == simple_filter().notation()

    def test_worker_cache_snapshot_serves_hits(self, payload):
        """A worker preloaded with the parent's entries serves the same
        chunk content without re-evaluating."""
        expr = simple_filter()
        cache = AtomCache()
        warm = FilterEngine(chunk_bytes=1024, cache=cache)
        _, want, _ = stream_all(warm, expr, payload)
        batches = [
            batch.records
            for batch in FilterEngine(chunk_bytes=1024).stream(
                expr, io.BytesIO(payload)
            )
        ]
        replies = run_worker(
            [configure(expr), ("delta", cache.snapshot())]
            + [("batch-pickled", seq, records)
               for seq, records in enumerate(batches)]
        )
        got, deltas = [], []
        for _, _, kind, (packed, count, stats, delta) in replies:
            assert kind == "pickled"
            got.extend(np.unpackbits(packed, count=count).tolist())
            deltas.extend(delta)
        assert [bool(bit) for bit in got] == want
        _pid, _chunks, _records, hits, misses = stats
        assert hits > 0
        assert misses == 0
        assert deltas == []  # fully warm: nothing newly computed

    def test_shared_task_equals_pickled_task(self, corpus):
        """The same batch through a slot (ring reply) and pickled gives
        the same bits; the slot attachment is memoised per name."""
        records = corpus.records[:25]
        shm = shared_memory.SharedMemory(
            create=True, size=2 * batch_slot_bytes(records)
        )
        try:
            _write_batch(shm.buf, records)
            replies = run_worker([
                configure(),
                ("batch-pickled", 0, records),
                ("batch", 1, shm.name),
            ])
            want = replies[0][3][0].tolist()
            assert replies[1][1:3] == (1, "ring")
            got, count, stats, _delta = _read_result(shm.buf)
            assert count == len(records)
            assert got.tolist() == want
            _pid, chunks, seen_records, _hits, _misses = stats
            # counters are cumulative across both evaluations
            assert chunks == 2
            assert seen_records == 2 * len(records)
            assert shm.name.lstrip("/") in {
                name.lstrip("/")
                for name in transport_module._WORKER["shm"]
            }
        finally:
            transport_module._WORKER["shm"].clear()
            shm.close()
            shm.unlink()

    def test_result_frame_roundtrip_with_delta(self):
        packed = np.packbits(np.array([1, 0, 1, 1], dtype=bool))
        delta = [((4, b"fp"), ("atom", 1), np.array([1, 0, 1, 1]))]
        stats = (4242, 3, 12, 5, 7)
        buf = memoryview(bytearray(4096))
        assert _write_result(buf, packed, 4, stats, delta)
        got_packed, count, got_stats, got_delta = _read_result(buf)
        assert count == 4
        assert got_packed.tolist() == packed.tolist()
        assert got_stats == stats
        assert len(got_delta) == 1
        fingerprint, key, array = got_delta[0]
        assert fingerprint == (4, b"fp")
        assert key == ("atom", 1)
        assert array.tolist() == [1, 0, 1, 1]

    def test_result_frame_overflow_is_rejected(self):
        """A frame that cannot fit reports False so the caller falls
        back to the pickled pipe — the slot stays untouched."""
        packed = np.packbits(np.ones(1024, dtype=bool))
        buf = memoryview(bytearray(_RESULT_HEADER_BYTES + 8))
        before = bytes(buf)
        assert not _write_result(buf, packed, 1024, (1, 1, 1, 0, 0), [])
        assert bytes(buf) == before

    def test_oversized_delta_result_returns_pickled(self):
        """A result frame bigger than its slot (here: a slot exactly
        the size of the request) comes back pickled instead of as a
        ring reply."""
        records = [b'{"n":"temperature","v":"1.0"}'] * 3
        shm = shared_memory.SharedMemory(
            create=True, size=batch_slot_bytes(records)
        )
        try:
            _write_batch(shm.buf, records)
            replies = run_worker([configure(), ("batch", 0, shm.name)])
            _, seq, kind, result = replies[0]
            assert (seq, kind) == (0, "pickled")
            _packed, count, _stats, delta = result
            assert count == len(records)
            assert len(delta) > 0
        finally:
            transport_module._WORKER["shm"].clear()
            shm.close()
            shm.unlink()
