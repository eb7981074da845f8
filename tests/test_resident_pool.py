"""Resident worker pool: spawn once, stay warm, prove it.

The acceptance bar for the persistent
:class:`~repro.engine.transport.ResidentWorkerPool` (the one worker
transport for ``num_workers > 1``):

* **differential** — resident parallel streaming is bit-identical to
  the serial path across every backend, seam-fuzzed chunk sizes, fork
  and spawn start methods, and repeated streams over the same pool;
* **residency** — a second stream reuses the same worker processes,
  their warm AtomCaches serve hits, filter swaps reconfigure without
  respawning, and cache sync ships incremental deltas (not full
  re-snapshots);
* **fault injection** — a SIGKILLed worker is respawned with its lost
  batches replayed (still bit-identical), an exhausted respawn budget
  raises a typed :class:`~repro.errors.WorkerCrashError` after the
  already-drained prefix, and teardown — including a start-up that
  fails partway — leaks neither child processes nor shared-memory
  slots;
* **worker loop** — the worker-side command loop runs in-process
  (visible to coverage) against plain queues and a real slot.
"""

import contextlib
import io
import multiprocessing
import os
import pickle
import queue
import random
import signal
import time
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
from repro.engine.transport import (
    _read_result,
    _resident_worker_main,
    _write_batch,
    batch_slot_bytes,
)
from repro.errors import ReproError, WorkerCrashError

BACKENDS = ["compiled", "vectorized", "scalar"]


def simple_filter():
    return comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))


def humidity_filter():
    return comp.group(comp.s("humidity", 1), comp.v("20.3", "69.1"))


@pytest.fixture(scope="module")
def corpus():
    return load_dataset("smartcity", 200, seed=29)


@pytest.fixture(scope="module")
def payload(corpus):
    return corpus.stream.tobytes()


def stream_bits(engine, expr, payload, backend=None):
    matches = []
    for batch in engine.stream(
        expr, io.BytesIO(payload), backend=backend
    ):
        matches.extend(batch.matches.tolist())
    return matches


def serial_bits(expr, payload, backend="vectorized"):
    engine = FilterEngine(backend=backend, cache=True)
    return stream_bits(engine, expr, payload)


def resident_stragglers(timeout=5.0):
    """Resident child processes still alive after ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        stragglers = [
            child for child in multiprocessing.active_children()
            if child.name.startswith("repro-resident")
        ]
        if not stragglers or time.monotonic() > deadline:
            return stragglers
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# resolution + defaults
# ---------------------------------------------------------------------------

class TestResolutionAndDefaults:
    def test_resident_is_the_parallel_default(self):
        assert not hasattr(EngineConfig(), "transport")
        with FilterEngine(num_workers=2) as engine:
            engine.warm_up()
            assert isinstance(engine._resident_pool, ResidentWorkerPool)
        with FilterEngine() as serial:
            serial.warm_up()  # serial engines never start a pool
            assert serial._resident_pool is None

    def test_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ReproError):
            ResidentWorkerPool(0)


# ---------------------------------------------------------------------------
# differential: resident parallel vs serial, bit for bit
# ---------------------------------------------------------------------------

class TestDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_and_warm_across_streams(
        self, backend, payload
    ):
        want = serial_bits(simple_filter(), payload, backend)
        engine = FilterEngine(
            backend=backend, cache=True, num_workers=2,
            chunk_bytes=2048,
        )
        try:
            first = stream_bits(engine, simple_filter(), payload)
            second = stream_bits(engine, simple_filter(), payload)
            stats = engine.stats()["workers"]
        finally:
            engine.close()
        assert first == want
        assert second == want
        assert stats["sessions"] == 2
        assert stats["respawns"] == 0

    def test_seam_fuzzed_chunk_sizes(self, payload):
        """Random chunk sizes move the record seams around; the
        resident path must stay bit-identical through every framing."""
        want = serial_bits(simple_filter(), payload)
        rng = random.Random(0xB07)
        sizes = [rng.randrange(64, 4096) for _ in range(4)] + [1 << 16]
        for chunk_bytes in sizes:
            engine = FilterEngine(
                cache=True, num_workers=2, chunk_bytes=chunk_bytes
            )
            try:
                got = stream_bits(engine, simple_filter(), payload)
            finally:
                engine.close()
            assert got == want, f"diverged at chunk_bytes={chunk_bytes}"

    def test_spawn_context_differential(self, payload):
        want = serial_bits(simple_filter(), payload)
        engine = FilterEngine(
            cache=True, num_workers=2, chunk_bytes=2048,
            mp_context="spawn",
        )
        try:
            got = stream_bits(engine, simple_filter(), payload)
            stats = engine.stats()["workers"]
        finally:
            engine.close()
        assert got == want
        assert stats["mp_context"] == "spawn"
        assert stats["sessions"] == 1

    def test_filter_swap_reconfigures_without_respawn(self, payload):
        """SWAP semantics: new filter, same warm processes."""
        engine = FilterEngine(
            backend="compiled", cache=True, num_workers=2,
            chunk_bytes=2048,
        )
        first, second = simple_filter(), humidity_filter()
        try:
            assert stream_bits(engine, first, payload) == serial_bits(
                first, payload, "compiled"
            )
            pids = sorted(engine._resident_pool.worker_pids())
            assert stream_bits(engine, second, payload) == serial_bits(
                second, payload, "compiled"
            )
            assert stream_bits(engine, first, payload) == serial_bits(
                first, payload, "compiled"
            )
            stats = engine.stats()["workers"]
            assert sorted(engine._resident_pool.worker_pids()) == pids
        finally:
            engine.close()
        # one configure per distinct (filter, backend) transition —
        # never one per chunk, never a respawn
        assert stats["configures"] == 3
        assert stats["respawns"] == 0
        assert stats["sessions"] == 3

    def test_warm_reuse_serves_cache_hits_and_ships_deltas_once(
        self, payload
    ):
        """Stream 2 re-reads the same bytes: the workers' resident
        caches serve hits, and the parent ships each merged-back entry
        to the pool exactly once (incremental sync, not re-snapshot)."""
        engine = FilterEngine(
            cache=True, num_workers=2, chunk_bytes=2048
        )
        try:
            stream_bits(engine, simple_filter(), payload)
            after_first = engine.stats()["workers"]
            stream_bits(engine, simple_filter(), payload)
            after_second = engine.stats()["workers"]
            stream_bits(engine, simple_filter(), payload)
            after_third = engine.stats()["workers"]
        finally:
            engine.close()
        # the workers computed entries in stream 1, the parent merged
        # them back, and session 2's sync shipped them pool-wide
        assert after_first["merged_entries"] > 0
        assert after_second["shipped_entries"] > 0
        assert after_second["cache_hits"] > after_first["cache_hits"]
        # stream 3 discovers nothing new: the delta is empty, so the
        # shipped counter stays flat — this is the incremental contract
        assert (
            after_third["shipped_entries"]
            == after_second["shipped_entries"]
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pooled_match_bits_differential(self, backend, corpus):
        want = FilterEngine(backend=backend, cache=True).match_bits(
            simple_filter(), corpus
        )
        engine = FilterEngine(
            backend=backend, cache=True, num_workers=2
        )
        try:
            got = engine.match_bits(simple_filter(), corpus)
            stats = engine.stats()["workers"]
        finally:
            engine.close()
        assert got.tolist() == want.tolist()
        assert stats["sessions"] >= 1

    def test_match_bits_unpicklable_predicate_falls_back(self, corpus):
        class LocalPredicate:
            """Defined in a function scope: cannot be pickled."""

            def matches(self, record):
                return b"temperature" in record

        engine = FilterEngine(backend="scalar", num_workers=2)
        records = corpus.records[:8]
        try:
            bits = engine.match_bits(LocalPredicate(), records)
        finally:
            engine.close()
        assert bits.tolist() == [
            b"temperature" in record for record in records
        ]

    def test_match_bits_mid_stream_falls_back_serially(
        self, payload, corpus
    ):
        """The pool serves one stream at a time; a concurrent
        match_bits call silently takes the serial path instead."""
        want = FilterEngine(cache=True).match_bits(
            simple_filter(), corpus
        )
        engine = FilterEngine(
            cache=True, num_workers=2, chunk_bytes=2048
        )
        try:
            stream = engine.stream(
                simple_filter(), io.BytesIO(payload)
            )
            next(stream)
            assert engine._resident_pool.active
            got = engine.match_bits(simple_filter(), corpus)
            stream.close()
        finally:
            engine.close()
        assert got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_engine_warm_up_drain_and_context_manager(self, payload):
        want = serial_bits(simple_filter(), payload)
        with FilterEngine(
            cache=True, num_workers=2, chunk_bytes=2048
        ) as engine:
            engine.warm_up()
            pool = engine._resident_pool
            assert pool is not None and not pool.closed
            pids = sorted(pool.worker_pids())
            assert stream_bits(engine, simple_filter(), payload) == want
            assert sorted(pool.worker_pids()) == pids
            engine.drain()
            assert engine.stats()["workers"]["sessions"] == 1
        assert pool.closed
        assert engine._resident_pool is None

    def test_pool_warm_up_ships_the_current_cache(self, corpus):
        cache = AtomCache()
        FilterEngine(backend="vectorized", cache=cache).match_bits(
            simple_filter(), corpus
        )
        entries = len(cache.snapshot())
        assert entries > 0
        with ResidentWorkerPool(1, atom_cache=cache) as pool:
            pool.warm_up()
            assert pool.shipped_entries == entries
            # warm again: nothing new to ship
            pool.warm_up()
            assert pool.shipped_entries == entries
            assert "open" in repr(pool)
        assert pool.closed
        assert "closed" in repr(pool)

    def test_single_active_session_enforced(self, payload):
        engine = FilterEngine(
            cache=True, num_workers=2, chunk_bytes=2048
        )
        try:
            stream = engine.stream(
                simple_filter(), io.BytesIO(payload)
            )
            next(stream)
            pool = engine._resident_pool
            with pytest.raises(ReproError, match="already active"):
                pool.session(
                    pickle.dumps(simple_filter()), "vectorized"
                )
            stream.close()
            # the abandoned session released the pool
            assert stream_bits(
                engine, simple_filter(), payload
            ) == serial_bits(simple_filter(), payload)
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_sigkill_mid_stream_respawns_and_stays_bit_identical(
        self, payload
    ):
        want = serial_bits(simple_filter(), payload)
        engine = FilterEngine(
            cache=True, num_workers=2, chunk_bytes=512
        )
        matches, killed = [], False
        try:
            for batch in engine.stream(
                simple_filter(), io.BytesIO(payload)
            ):
                matches.extend(batch.matches.tolist())
                if not killed:
                    os.kill(
                        engine._resident_pool.worker_pids()[0],
                        signal.SIGKILL,
                    )
                    killed = True
            stats = engine.stats()["workers"]
            pool = engine._resident_pool
            assert len(pool.worker_pids()) == 2
        finally:
            engine.close()
        assert matches == want
        assert stats["respawns"] >= 1

    def test_respawn_budget_exhausted_raises_typed_error(self, payload):
        want = serial_bits(simple_filter(), payload)
        engine = FilterEngine(
            cache=True, num_workers=2, chunk_bytes=512
        )
        pool = engine._ensure_resident_pool()
        pool.max_respawns = 0
        matches = []
        try:
            with pytest.raises(WorkerCrashError):
                for batch in engine.stream(
                    simple_filter(), io.BytesIO(payload)
                ):
                    matches.extend(batch.matches.tolist())
                    pids = pool.worker_pids()
                    if pids:
                        os.kill(pids[0], signal.SIGKILL)
            assert pool.broken is not None
            # strictly in-order drain: everything yielded before the
            # crash is a clean prefix of the serial truth
            assert matches == want[: len(matches)]
            # a broken pool refuses new streams with the same typed
            # error ...
            with pytest.raises(WorkerCrashError):
                stream_bits(engine, simple_filter(), payload)
            # ... but match_bits degrades gracefully to serial
            oracle = FilterEngine(cache=True)
            records = [
                b'{"e":[{"v":"30.0","n":"temperature"}]}',
                b'{"e":[{"v":"99.0","n":"temperature"}]}',
            ]
            assert engine.match_bits(
                simple_filter(), records
            ).tolist() == oracle.match_bits(
                simple_filter(), records
            ).tolist()
        finally:
            engine.close()
        assert resident_stragglers() == []

    def test_abandoned_stream_then_close_leaks_nothing(self, payload):
        want = serial_bits(simple_filter(), payload)
        engine = FilterEngine(
            cache=True, num_workers=2, chunk_bytes=1024
        )
        stream = engine.stream(
            simple_filter(), io.BytesIO(payload)
        )
        next(stream)
        stream.close()  # abandon mid-stream
        pool = engine._resident_pool
        assert not pool.active
        # the pool shrugged it off and serves the next stream fully
        assert stream_bits(engine, simple_filter(), payload) == want
        slot_names = pool.slot_names()
        assert slot_names
        engine.close()
        engine.close()  # idempotent
        pool.close()    # idempotent at the pool layer too
        assert pool.closed
        assert pool.stats()["sessions"] == 2  # stats outlive close
        assert resident_stragglers() == []
        for name in slot_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_failed_start_up_leaks_nothing(self, monkeypatch):
        """A worker that fails to start tears down the slots already
        created and the workers already started."""
        created = []

        class RecordingSharedMemory(shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self.name)

        context = resolve_mp_context(None)
        starts = []

        class FailingProcess(context.Process):
            def start(self):
                starts.append(self.name)
                if len(starts) == 2:
                    raise OSError("injected start-up failure")
                super().start()

        monkeypatch.setattr(
            shared_memory, "SharedMemory", RecordingSharedMemory
        )
        monkeypatch.setattr(context, "Process", FailingProcess)
        with pytest.raises(OSError, match="injected"):
            ResidentWorkerPool(2, mp_context=context)
        assert len(starts) == 2 and len(created) == 4
        assert resident_stragglers() == []
        for name in created:
            assert not os.path.exists(
                os.path.join("/dev/shm", name.lstrip("/"))
            )


# ---------------------------------------------------------------------------
# the worker command loop, in-process (visible to coverage)
# ---------------------------------------------------------------------------

def run_worker(commands):
    """Drive one worker's command loop in-process; its replies."""
    task_queue, result_queue = queue.Queue(), queue.Queue()
    for command in commands:
        task_queue.put(command)
    task_queue.put(("stop",))
    _resident_worker_main(0, task_queue, result_queue)
    replies = []
    while True:
        try:
            replies.append(result_queue.get_nowait())
        except queue.Empty:
            return replies


class TestWorkerLoopInProcess:
    def test_configure_batch_and_sync_roundtrip(self, corpus):
        records = corpus.records[:40]
        oracle = FilterEngine(backend="scalar").match_bits(
            simple_filter(), records
        )
        replies = run_worker([
            ("configure", pickle.dumps(simple_filter()), "vectorized"),
            ("batch-pickled", 0, records),
            ("sync", 1),
        ])
        worker_id, seq, kind, value = replies[0]
        assert (worker_id, seq, kind) == (0, 0, "pickled")
        packed, count, stats5, delta = value
        assert count == len(records)
        bits = np.unpackbits(packed, count=count).astype(bool)
        assert bits.tolist() == oracle.tolist()
        assert isinstance(delta, list)
        _, sync_seq, sync_kind, sync_value = replies[1]
        assert (sync_seq, sync_kind) == (1, "sync")
        cumulative, _sync_delta = sync_value
        pid, chunks, seen, _hits, _misses = cumulative
        assert pid == os.getpid()
        assert chunks == 1 and seen == len(records)

    def test_delta_preload_serves_hits_without_echo(self, corpus):
        """Entries shipped by the parent serve worker-side hits and are
        *not* echoed back as worker deltas (record_deltas=False)."""
        records = corpus.records[:40]
        cache = AtomCache()
        FilterEngine(backend="vectorized", cache=cache).match_bits(
            simple_filter(), records
        )
        snapshot = cache.snapshot()
        shipped = {(entry[0], entry[1]) for entry in snapshot}
        replies = run_worker([
            ("configure", pickle.dumps(simple_filter()), "vectorized"),
            ("delta", snapshot),
            ("batch-pickled", 0, records),
            ("sync", 1),
        ])
        _, _, kind, value = replies[0]
        assert kind == "pickled"
        _packed, _count, stats5, batch_delta = value
        _pid, _chunks, _seen, hits, _misses = stats5
        assert hits > 0
        _, _, _, (cumulative, sync_delta) = replies[1]
        echoed = [
            (entry[0], entry[1])
            for entry in list(batch_delta) + list(sync_delta)
        ]
        assert all(key not in shipped for key in echoed)

    def test_evaluation_error_is_reported_not_fatal(self, corpus):
        """A failing batch answers an ``error`` result; the worker
        survives and serves the next command."""
        records = corpus.records[:4]
        replies = run_worker([
            ("batch-pickled", 0, records),  # no backend configured yet
            ("configure", pickle.dumps(simple_filter()), "vectorized"),
            ("batch-pickled", 1, records),
        ])
        assert replies[0][1:3] == (0, "error")
        assert replies[1][2] == "pickled"

    def test_unknown_command_reports_error(self):
        replies = run_worker([("carrier-pigeon", 7)])
        _, seq, kind, message = replies[0]
        assert (seq, kind) == (7, "error")
        assert "unknown resident-pool command" in message

    def test_slot_batch_roundtrip_through_real_shared_memory(
        self, corpus
    ):
        records = corpus.records[:30]
        oracle = FilterEngine(backend="scalar").match_bits(
            simple_filter(), records
        )
        shm = shared_memory.SharedMemory(
            create=True,
            size=batch_slot_bytes(records)
            + ResidentWorkerPool.SLOT_SLACK_BYTES,
        )
        try:
            _write_batch(shm.buf, records)
            replies = run_worker([
                (
                    "configure",
                    pickle.dumps(simple_filter()),
                    "vectorized",
                ),
                ("batch", 0, shm.name),
            ])
            assert replies[0][:3] == (0, 0, "ring")
            packed, count, _stats5, _delta = _read_result(shm.buf)
            assert count == len(records)
            bits = np.unpackbits(packed, count=count).astype(bool)
            assert bits.tolist() == oracle.tolist()
        finally:
            shm.close()
            with contextlib.suppress(FileNotFoundError):
                shm.unlink()
