"""The resident worker pool: how framed chunks reach worker processes.

With ``num_workers > 1`` the engine shards framed chunks across the
workers of one :class:`ResidentWorkerPool`, spawned once per engine and
kept alive across streams, passes and filter swaps:

* framed batches are written into a ring of
  ``multiprocessing.shared_memory`` slots: the batch's record starts
  and its newline-terminated stream, one copy each, with **no pickle
  and no per-record work on the payload path**; a worker copies the
  slot out once and evaluates a ``Dataset`` whose stream and starts
  are views of that copy;
* the same slots form the **result ring**: once a worker has copied
  the batch out, it overwrites the slot with a result frame — raw
  packed match bits, its cumulative counters and any newly computed
  AtomCache delta — and sends only a sentinel through its result
  queue.  A batch that does not fit a slot, or a result frame that
  outgrows it, travels pickled instead; ``stats()`` separates
  ``ring_results`` from ``pickled_results`` and counts
  ``fallback_batches``.

Each worker keeps its own :class:`~repro.engine.atom_cache.AtomCache`.
The parent ships the entries of its cache that no worker has seen yet
(:meth:`ResidentWorkerPool.sync_cache`), so chunks whose content the
parent has already evaluated are served from the worker's cache.
Workers track the entries they compute themselves
(:meth:`AtomCache.track_deltas`); each result carries that delta, and
the parent merges it into its own cache as the result drains
(:meth:`AtomCache.merge_snapshot`, bounded by the cache's LRU/byte
caps), so a parallel first pass warms later serial passes,
``DesignSpace`` sweeps and the ``--cache-store`` disk tier exactly
like a serial pass does.

The multiprocessing start method is an explicit engine parameter
(``EngineConfig(mp_context=...)``), resolved by
:func:`resolve_mp_context` — no platform guessing, so fork/spawn
behaviour is deterministic and testable.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import queue as _queue
import threading
import time
import weakref
from multiprocessing import connection

import numpy as np

from ..data.corpus import Dataset
from ..errors import ReproError, WorkerCrashError
from .backends import as_dataset

_HEADER_WORDS = 2  # (record count, payload bytes), int64 each
_HEADER_BYTES = _HEADER_WORDS * 8


def resolve_mp_context(mp_context=None):
    """An explicit multiprocessing context, deterministically chosen.

    ``None`` selects ``fork`` where the platform offers it (POSIX) and
    ``spawn`` otherwise; a string must name an available start method.
    Context objects pass through unchanged.
    """
    if mp_context is None:
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
    if isinstance(mp_context, str):
        try:
            return multiprocessing.get_context(mp_context)
        except ValueError:
            available = ", ".join(
                multiprocessing.get_all_start_methods()
            )
            raise ReproError(
                f"unknown mp_context {mp_context!r} "
                f"(available: {available})"
            ) from None
    if hasattr(mp_context, "Pool"):
        return mp_context
    raise ReproError(
        f"mp_context must be a start-method name or a "
        f"multiprocessing context, got {mp_context!r}"
    )


# -- worker-side state --------------------------------------------------------
#
# Module-level so the worker entry point stays picklable under both fork
# and spawn.  Each worker process holds the resolved predicate/backend,
# its AtomCache, its shared-memory attachments, and cumulative counters
# that ride back on every result.

_WORKER = {}


def _worker_stats():
    cache = _WORKER["cache"]
    return (
        os.getpid(),
        _WORKER["chunks"],
        _WORKER["records"],
        cache.hits,
        cache.misses,
    )


def _evaluate(records):
    bits = _WORKER["backend"].match_bits(_WORKER["predicate"], records)
    _WORKER["chunks"] += 1
    _WORKER["records"] += len(records)
    return (
        np.packbits(np.asarray(bits, dtype=bool)),
        len(records),
        _worker_stats(),
        _WORKER["cache"].pop_deltas(),
    )


def _attach_slot(slot_name):
    # workers (fork and spawn alike) inherit the parent's
    # resource tracker, so the attach-time register is deduplicated
    # there and the parent's close() remains the single unlink point
    shm = _WORKER["shm"].get(slot_name)
    if shm is None:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=slot_name)
        _WORKER["shm"][slot_name] = shm
    return shm


def _write_batch(buf, records):
    """Serialise one framed batch into a slot buffer.

    Layout: ``int64`` header (record count, payload bytes), the batch's
    ``int64`` record starts, then its newline-terminated stream: one
    copy of each, no per-record work.
    """
    batch = as_dataset(records)
    count, payload_bytes = len(batch), batch.total_bytes
    payload_start = _HEADER_BYTES + count * 8
    header = np.frombuffer(buf, dtype=np.int64, count=_HEADER_WORDS)
    header[:] = (count, payload_bytes)
    np.frombuffer(buf, np.int64, count, _HEADER_BYTES)[:] = batch.starts
    buf[payload_start:payload_start + payload_bytes] = batch.stream


def batch_slot_bytes(records):
    """Slot bytes one framed batch needs under :func:`_write_batch`."""
    batch = as_dataset(records)
    return _HEADER_BYTES + len(batch) * 8 + batch.total_bytes


def _read_batch(buf):
    """The engine batch in a slot buffer, as a :class:`Dataset`.

    One copy out of the shared slot (the slot is recycled by the parent
    as soon as our result lands); the batch's stream and starts are
    views of that copy.
    """
    header = np.frombuffer(buf, dtype=np.int64, count=_HEADER_WORDS)
    count, payload_bytes = int(header[0]), int(header[1])
    payload_start = _HEADER_BYTES + count * 8
    frame = np.array(buf[:payload_start + payload_bytes], dtype=np.uint8)
    starts = frame[_HEADER_BYTES:payload_start].view(np.int64)
    return Dataset.from_buffer("engine-batch", frame[payload_start:], starts)


# -- result frames (the return leg of the shared-memory ring) ----------------
#
# After evaluating a batch the worker no longer needs the request data
# (``_read_batch`` copies the payload out of the slot), so the same slot
# doubles as the result slot: the worker overwrites it with a fixed
# int64 header (record count, packed-bit bytes, delta bytes, plus the
# five per-worker counters), the raw packed match bits, and — when an
# AtomCache delta rides along — the delta entries as a pickled blob
# *inside the slot*.  The match-bit payload is raw bytes in both
# directions; only a ``"ring"`` completion message crosses the queue.

_RESULT_HEADER_WORDS = 8
# (count, packed bytes, delta bytes, pid, chunks, records, hits, misses)
_RESULT_HEADER_BYTES = _RESULT_HEADER_WORDS * 8


def _write_result(buf, packed, count, stats, delta):
    """Serialise one evaluation result into a slot buffer.

    Returns ``False`` (slot untouched beyond the copied-out request)
    when the frame does not fit — the caller then returns the result
    pickled through its queue instead, so slot capacity never affects
    correctness.
    """
    delta_blob = (
        pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL)
        if delta else b""
    )
    packed_bytes = int(packed.nbytes)
    needed = _RESULT_HEADER_BYTES + packed_bytes + len(delta_blob)
    if needed > len(buf):
        return False
    header = np.frombuffer(
        buf, dtype=np.int64, count=_RESULT_HEADER_WORDS
    )
    header[:3] = (count, packed_bytes, len(delta_blob))
    header[3:] = stats
    start = _RESULT_HEADER_BYTES
    buf[start:start + packed_bytes] = packed.tobytes()
    if delta_blob:
        buf[start + packed_bytes:start + packed_bytes
            + len(delta_blob)] = delta_blob
    return True


def _read_result(buf):
    """Rebuild an evaluation result from a slot's result frame."""
    header = np.frombuffer(
        buf, dtype=np.int64, count=_RESULT_HEADER_WORDS
    )
    count, packed_bytes, delta_bytes = (int(x) for x in header[:3])
    stats = tuple(int(x) for x in header[3:])
    start = _RESULT_HEADER_BYTES
    packed = np.frombuffer(
        bytes(buf[start:start + packed_bytes]), dtype=np.uint8
    )
    delta = []
    if delta_bytes:
        delta = pickle.loads(
            bytes(buf[start + packed_bytes:start + packed_bytes
                      + delta_bytes])
        )
    return packed, count, stats, delta


def _unpack_bits(packed, count):
    return np.unpackbits(packed, count=count).astype(bool)


class _Slot:
    """One shared-memory segment of the pool's slot ring."""

    __slots__ = ("shm", "index")

    def __init__(self, shm, index):
        self.shm = shm
        self.index = index


# -- the resident worker pool -------------------------------------------------
#
# Workers are spawned once per engine, survive across streams, passes
# and filter swaps, keep their AtomCache and the process-wide
# compiled-kernel registry warm in place, and receive only
# *incremental* cache deltas (the ``snapshot()``/``merge_snapshot()``
# wire format) the parent has not shipped before.  A filter SWAP is a
# single re-configure message — the compiled backend's fingerprint-
# keyed kernel registry inside each worker then reuses previously
# compiled kernels instead of recompiling per worker per chunk.

def _resident_worker_main(worker_id, task_queue, result_queue):
    """Command loop of one resident worker process.

    The worker owns a persistent :class:`AtomCache` (delta-tracked from
    birth) and a by-name backend registry, both surviving across
    ``configure`` commands — that persistence is the warm state a
    second stream over the same pool starts from.  Commands:

    ``("configure", payload, backend_name)``
        Unpickle the predicate, resolve (and memoise) the backend,
        lower the predicate to its expression form where the backend
        wants one.  The compiled backend recompiles only on genuinely
        new filter fingerprints — its process-wide kernel registry
        persists here.
    ``("delta", entries)``
        Merge a parent cache sync (``record_deltas=False`` so the
        entries are not echoed back as worker deltas).
    ``("batch", seq, slot_name)`` / ``("batch-pickled", seq, records)``
        Evaluate one framed batch (shared-memory slot or pickled
        fallback) and answer ``(worker_id, seq, "ring"|"pickled", ...)``.
    ``("sync", seq)``
        Barrier probe: answer with cumulative counters + outstanding
        cache deltas.
    ``("stop",)``
        Exit the loop (graceful half of :meth:`ResidentWorkerPool.close`).

    Evaluation errors are reported per-``seq`` (``"error"`` results) —
    the worker itself survives a failing batch.
    """
    from .atom_cache import AtomCache
    from .backends import resolve_backend, resolve_expression

    cache = AtomCache().track_deltas()
    backends = {}
    _WORKER.clear()
    _WORKER.update(
        predicate=None, backend=None, cache=cache, shm={},
        chunks=0, records=0,
    )
    while True:
        try:
            command = task_queue.get()
        except (EOFError, OSError):
            break
        kind = command[0]
        if kind == "stop":
            break
        seq = None
        try:
            if kind == "configure":
                payload, backend_name = command[1], command[2]
                predicate = pickle.loads(payload)
                backend = backends.get(backend_name)
                if backend is None:
                    backend = resolve_backend(backend_name)
                    if getattr(backend, "atom_cache", False) is None:
                        backend.atom_cache = cache
                    backends[backend_name] = backend
                if getattr(backend, "wants_expression", False):
                    expression = resolve_expression(predicate)
                    if expression is not None:
                        predicate = expression
                _WORKER["predicate"] = predicate
                _WORKER["backend"] = backend
                continue
            if kind == "delta":
                cache.merge_snapshot(command[1], record_deltas=False)
                continue
            if kind == "sync":
                seq = command[1]
                result_queue.put(
                    (worker_id, seq, "sync",
                     (_worker_stats(), cache.pop_deltas()))
                )
                continue
            seq = command[1]
            if kind == "batch":
                buf = _attach_slot(command[2]).buf
                result = _evaluate(_read_batch(buf))
                if _write_result(buf, *result):
                    result_queue.put((worker_id, seq, "ring", None))
                else:
                    result_queue.put(
                        (worker_id, seq, "pickled", result)
                    )
            elif kind == "batch-pickled":
                result = _evaluate(command[2])
                result_queue.put((worker_id, seq, "pickled", result))
            else:
                raise ReproError(
                    f"unknown resident-pool command {kind!r}"
                )
        except Exception as exc:
            with contextlib.suppress(Exception):
                result_queue.put(
                    (worker_id, seq, "error",
                     f"{type(exc).__name__}: {exc}")
                )
    for shm in _WORKER.get("shm", {}).values():
        with contextlib.suppress(Exception):
            shm.close()


class _WorkerHandle:
    """Parent-side record of one live resident worker."""

    __slots__ = ("index", "process", "task_queue", "result_queue",
                 "assigned", "pending_sync", "pid")

    def __init__(self, index, process, task_queue, result_queue):
        self.index = index
        self.process = process
        self.task_queue = task_queue
        self.result_queue = result_queue
        #: batch seqs dispatched to this worker, result not yet seen
        self.assigned = set()
        #: sync-barrier seqs awaiting this worker's reply
        self.pending_sync = set()
        self.pid = process.pid


def _cleanup_resident(workers, slots):
    """Finalizer shared by ``close()``, GC, interpreter exit and a
    failed start-up.

    Operates on the pool's *containers* (mutated in place across
    respawns) so it never keeps the pool object itself alive; running
    it twice is a no-op.
    """
    for handle in workers:
        if handle is None:
            continue
        with contextlib.suppress(Exception):
            handle.process.terminate()
    for index, handle in enumerate(workers):
        if handle is None:
            continue
        with contextlib.suppress(Exception):
            handle.process.join(timeout=1.0)
        if handle.process.is_alive():
            with contextlib.suppress(Exception):
                handle.process.kill()
                handle.process.join(timeout=1.0)
        for q in (handle.task_queue, handle.result_queue):
            with contextlib.suppress(Exception):
                q.cancel_join_thread()
                q.close()
        workers[index] = None
    for slot in slots:
        with contextlib.suppress(Exception):
            slot.shm.close()
        with contextlib.suppress(Exception):
            slot.shm.unlink()
    del slots[:]


class ResidentWorkerPool:
    """Persistent worker pool: spawn once, stay warm, survive swaps.

    A resident pool lives as long as its owning engine: the engine
    calls :meth:`session` at the start of each parallel stream and gets
    a ``submit``/``drain``/``close`` facade over the *same* long-lived
    workers.  Between sessions nothing is torn down — worker
    AtomCaches and compiled-kernel registries stay warm in place, and
    the parent ships only the cache entries it has not shipped before
    (:meth:`sync_cache`).

    Fault tolerance: each worker has private task/result queues (a
    killed worker can never wedge a sibling's pipe), the parent retains
    every in-flight batch's records, and :meth:`_check_workers`
    respawns a dead worker with a fresh queue pair, replays its
    configure + a full cache snapshot, and re-dispatches its lost
    batches — until ``max_respawns`` deaths, after which the pool is
    *broken* and raises :class:`~repro.errors.WorkerCrashError`
    (batches drained before the crash, and their merged cache deltas,
    survive).  Workers are daemons and a :func:`weakref.finalize`
    hook tears everything down on GC, interpreter exit or a failed
    start-up, so a pool that is never explicitly closed leaks neither
    processes nor shared-memory slots.
    """

    #: headroom beyond 2x chunk_bytes for boundary arrays of small
    #: records and for the seam record carried past a chunk boundary
    SLOT_SLACK_BYTES = 1 << 16

    def __init__(self, num_workers, mp_context=None,
                 chunk_bytes=1 << 20, atom_cache=None, max_respawns=3):
        from multiprocessing import shared_memory

        if num_workers <= 0:
            raise ReproError("num_workers must be positive")
        self.num_workers = num_workers
        self.chunk_bytes = chunk_bytes
        self.max_in_flight = 2 * num_workers
        self.context = resolve_mp_context(mp_context)
        self.atom_cache = atom_cache
        self.max_respawns = max_respawns
        self.slot_bytes = 2 * chunk_bytes + self.SLOT_SLACK_BYTES
        self.num_slots = 2 * num_workers
        #: residency counters
        self.sessions = 0
        self.configures = 0
        self.respawns = 0
        self.shipped_entries = 0
        #: result-path counters
        self.ring_results = 0
        self.pickled_results = 0
        self.fallback_batches = 0
        self.delta_entries = 0
        self.merged_entries = 0
        self.merge_skipped = 0
        self._payload = None
        self._backend_name = None
        #: (fingerprint, key) pairs every worker already holds
        self._shipped = set()
        self._next_seq = 0
        self._order = []          # undrained seqs, submission order
        self._inflight = {}       # seq -> {records, worker, slot}
        self._results = {}        # seq -> ("ok"|"error", value)
        self._sync_results = {}   # sync seq -> (stats, delta) | None
        self._worker_stats = {}
        self._active = False
        self._closed = False
        self._broken = None
        #: guards the shared-memory slot ring — gateway engines share
        #: one pool across executor threads, and a slot handed to two
        #: batches at once would interleave their payloads
        self._ring_lock = threading.Lock()
        self._slots = []  # guarded-by: _ring_lock
        self._free = []  # guarded-by: _ring_lock
        self._workers = [None] * num_workers
        # registered before the first slot or worker exists, so a
        # start-up that fails partway tears down what it already made
        self._finalizer = weakref.finalize(
            self, _cleanup_resident, self._workers, self._slots
        )
        try:
            for index in range(self.num_slots):
                shm = shared_memory.SharedMemory(
                    create=True, size=self.slot_bytes
                )
                slot = _Slot(shm, index)
                self._slots.append(slot)
                self._free.append(slot)
            for index in range(num_workers):
                self._spawn(index)
        except BaseException:
            self._finalizer()
            raise

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, index):
        task_queue = self.context.Queue()
        result_queue = self.context.Queue()
        process = self.context.Process(
            target=_resident_worker_main,
            args=(index, task_queue, result_queue),
            daemon=True,
            name=f"repro-resident-{index}",
        )
        process.start()
        handle = _WorkerHandle(index, process, task_queue, result_queue)
        self._workers[index] = handle
        if self._payload is not None:
            handle.task_queue.put(
                ("configure", self._payload, self._backend_name)
            )
        if self.atom_cache is not None:
            # a (re)spawned worker starts from the full current
            # snapshot; incremental sync_cache() deltas only cover
            # workers that were alive when earlier syncs shipped
            snapshot = self.atom_cache.snapshot()
            if snapshot:
                handle.task_queue.put(("delta", snapshot))
        return handle

    def _live(self):
        return [
            handle for handle in self._workers
            if handle is not None and handle.process.is_alive()
        ]

    def _retire(self, handle):
        with contextlib.suppress(Exception):
            handle.process.join(timeout=0.5)
        for q in (handle.task_queue, handle.result_queue):
            with contextlib.suppress(Exception):
                q.cancel_join_thread()
                q.close()

    def _check_workers(self):
        """Respawn dead workers; re-dispatch their lost batches."""
        if self._closed:
            return
        for index in range(self.num_workers):
            handle = self._workers[index]
            if handle is None or handle.process.is_alive():
                continue
            # capture anything the worker flushed before dying
            self._sweep_queue(handle)
            lost = sorted(
                seq for seq in handle.assigned
                if seq not in self._results
            )
            for seq in handle.pending_sync:
                # a sync barrier must not wait on the dead
                self._sync_results.setdefault(seq, None)
            self._retire(handle)
            self._workers[index] = None
            self.respawns += 1
            if self.respawns > self.max_respawns:
                self._broken = (
                    f"resident worker {index} (pid {handle.pid}) died "
                    f"and the pool exhausted its respawn budget "
                    f"(max_respawns={self.max_respawns})"
                )
                raise WorkerCrashError(self._broken)
            replacement = self._spawn(index)
            for seq in lost:
                entry = self._inflight.get(seq)
                if entry is None:
                    continue
                # the records were retained exactly for this replay;
                # the slot (if any) is reclaimed — the re-dispatch
                # rides the pickled path, correctness over ceremony
                self._release_slot(entry)
                entry["worker"] = replacement
                replacement.task_queue.put(
                    ("batch-pickled", seq, entry["records"])
                )
                replacement.assigned.add(seq)

    # -- result plumbing ----------------------------------------------------

    def _release_slot(self, entry):
        slot = entry.get("slot")
        if slot is not None:
            with self._ring_lock:
                self._free.append(slot)
            entry["slot"] = None

    def _handle_message(self, handle, message):
        try:
            _worker_id, seq, kind, value = message
        except (TypeError, ValueError):
            return
        if kind == "sync":
            self._sync_results[seq] = value
            handle.pending_sync.discard(seq)
            return
        if seq not in self._inflight or seq in self._results:
            # duplicate after a crash re-dispatch race — the content
            # fingerprint guarantees both copies are identical
            return
        entry = self._inflight[seq]
        handle.assigned.discard(seq)
        if kind == "ring":
            slot = entry.get("slot")
            if slot is None:
                return
            self._results[seq] = ("ok", _read_result(slot.shm.buf))
            self.ring_results += 1
        elif kind == "pickled":
            self._results[seq] = ("ok", value)
            self.pickled_results += 1
        elif kind == "error":
            self._results[seq] = ("error", value)
        self._release_slot(entry)

    def _sweep_queue(self, handle):
        while True:
            try:
                message = handle.result_queue.get_nowait()
            except Exception:
                return
            self._handle_message(handle, message)

    def _pump(self, timeout=0.0):
        """Collect every ready result; optionally block for one."""
        got = False

        def sweep():
            nonlocal got
            for handle in list(self._workers):
                if handle is None:
                    continue
                while True:
                    try:
                        message = handle.result_queue.get_nowait()
                    except _queue.Empty:
                        break
                    except Exception:
                        break
                    got = True
                    self._handle_message(handle, message)

        sweep()
        if got or timeout <= 0:
            return got
        readers = [
            handle.result_queue._reader
            for handle in self._workers if handle is not None
        ]
        if readers:
            with contextlib.suppress(OSError):
                connection.wait(readers, timeout)
        sweep()
        return got

    def _wait_for(self, seq):
        while seq not in self._results:
            self._require_open()
            self._pump(timeout=0.2)
            self._check_workers()

    # -- session protocol (what the engine's stream loop drives) ------------

    def _require_open(self):
        if self._closed:
            raise ReproError("the resident pool is closed")
        if self._broken is not None:
            raise WorkerCrashError(self._broken)

    def configure(self, payload, backend_name):
        """Ship predicate + backend to every worker (no-op if same)."""
        if (payload == self._payload
                and backend_name == self._backend_name):
            return False
        self._payload = payload
        self._backend_name = backend_name
        self.configures += 1
        for handle in self._live():
            handle.task_queue.put(("configure", payload, backend_name))
        return True

    def sync_cache(self):
        """Ship parent-cache entries no worker has seen yet (delta)."""
        if self.atom_cache is None:
            return 0
        entries = [
            entry for entry in self.atom_cache.snapshot()
            if (entry[0], entry[1]) not in self._shipped
        ]
        if not entries:
            return 0
        for handle in self._live():
            handle.task_queue.put(("delta", entries))
        self._shipped.update(
            (fingerprint, key) for fingerprint, key, _ in entries
        )
        self.shipped_entries += len(entries)
        return len(entries)

    def sync(self, timeout=30.0):
        """Barrier: cumulative stats + outstanding deltas from workers."""
        self._require_open()
        pending = {}
        for handle in self._live():
            seq = self._next_seq
            self._next_seq += 1
            handle.task_queue.put(("sync", seq))
            handle.pending_sync.add(seq)
            pending[seq] = handle
        deadline = time.monotonic() + timeout
        while any(seq not in self._sync_results for seq in pending):
            if time.monotonic() > deadline:
                raise ReproError(
                    "resident pool sync barrier timed out"
                )
            self._pump(timeout=0.2)
            self._check_workers()
        for seq, handle in pending.items():
            value = self._sync_results.pop(seq)
            handle.pending_sync.discard(seq)
            if value is None:  # worker died mid-barrier; respawned
                continue
            stats5, delta = value
            self._record_stats(stats5)
            self._merge_delta(delta)
        return self

    def warm_up(self, timeout=30.0):
        """Ship the current cache and barrier until all workers ack."""
        self._require_open()
        self.sync_cache()
        return self.sync(timeout)

    def session(self, payload, backend_name):
        """A ``submit``/``drain`` facade for one stream over this pool."""
        self._require_open()
        if self._active:
            raise ReproError(
                "a stream is already active on this resident pool; "
                "drain or close it before starting another"
            )
        self.configure(payload, backend_name)
        self.sync_cache()
        self._active = True
        self.sessions += 1
        return _ResidentSession(self)

    def _submit(self, records):
        self._require_open()
        batch = as_dataset(records)
        seq = self._next_seq
        self._next_seq += 1
        live = self._live()
        if not live:
            self._check_workers()
            live = self._live()
            if not live:
                raise WorkerCrashError(
                    "no live resident workers to dispatch to"
                )
        handle = min(live, key=lambda h: len(h.assigned))
        entry = {"records": batch, "worker": handle, "slot": None}
        slot = None
        if batch_slot_bytes(batch) <= self.slot_bytes:
            with self._ring_lock:
                if self._free:
                    slot = self._free.pop()
        if slot is not None:
            _write_batch(slot.shm.buf, batch)
            entry["slot"] = slot
            handle.task_queue.put(("batch", seq, slot.shm.name))
        else:
            self.fallback_batches += 1
            handle.task_queue.put(("batch-pickled", seq, batch))
        handle.assigned.add(seq)
        self._inflight[seq] = entry
        self._order.append(seq)

    def _drain_next(self):
        if not self._order:
            raise ReproError("no batch in flight to drain")
        seq = self._order.pop(0)
        self._wait_for(seq)
        status, value = self._results.pop(seq)
        entry = self._inflight.pop(seq, None)
        if entry is not None and entry["worker"] is not None:
            entry["worker"].assigned.discard(seq)
        if status == "error":
            raise ReproError(
                f"resident worker evaluation failed: {value}"
            )
        packed, count, stats5, delta = value
        self._record_stats(stats5)
        self._merge_delta(delta)
        return _unpack_bits(packed, count), count

    def _record_stats(self, stats5):
        pid, chunks, records, hits, misses = stats5
        self._worker_stats[pid] = {
            "chunks": chunks,
            "records": records,
            "cache_hits": hits,
            "cache_misses": misses,
        }

    def _merge_delta(self, delta):
        if not delta:
            return
        self.delta_entries += len(delta)
        if self.atom_cache is not None:
            merged, skipped = self.atom_cache.merge_snapshot(delta)
            self.merged_entries += merged
            self.merge_skipped += skipped

    def _discard_inflight(self):
        """Abandon every undrained batch (stream abandoned or broken)."""
        for seq in list(self._order):
            entry = self._inflight.pop(seq, None)
            if entry is None:
                continue
            if entry["worker"] is not None:
                entry["worker"].assigned.discard(seq)
            self._release_slot(entry)
            self._results.pop(seq, None)
        self._order.clear()

    # -- reporting + teardown -----------------------------------------------

    def stats(self):
        workers = {
            pid: dict(counters)
            for pid, counters in sorted(self._worker_stats.items())
        }
        return {
            "mp_context": self.context.get_start_method(),
            "num_workers": self.num_workers,
            "chunks": sum(w["chunks"] for w in workers.values()),
            "records": sum(w["records"] for w in workers.values()),
            "cache_hits": sum(
                w["cache_hits"] for w in workers.values()
            ),
            "cache_misses": sum(
                w["cache_misses"] for w in workers.values()
            ),
            "ring_results": self.ring_results,
            "pickled_results": self.pickled_results,
            "fallback_batches": self.fallback_batches,
            "delta_entries": self.delta_entries,
            "merged_entries": self.merged_entries,
            "merge_skipped": self.merge_skipped,
            "slots": self.num_slots,
            "slot_bytes": self.slot_bytes,
            "sessions": self.sessions,
            "configures": self.configures,
            "respawns": self.respawns,
            "shipped_entries": self.shipped_entries,
            "workers": workers,
        }

    @property
    def closed(self):
        return self._closed

    @property
    def broken(self):
        return self._broken

    @property
    def active(self):
        return self._active

    def slot_names(self):
        """Names of the live shared-memory slots (empty once closed)."""
        with self._ring_lock:
            return [slot.shm.name for slot in self._slots]

    def worker_pids(self):
        """PIDs of the currently live workers (fault-injection hook)."""
        return [handle.pid for handle in self._live()]

    def close(self):
        """Tear the pool down (idempotent; graceful stop, then force)."""
        if self._closed:
            return
        self._closed = True
        self._discard_inflight()
        self._results.clear()
        self._sync_results.clear()
        for handle in self._workers:
            if handle is None:
                continue
            with contextlib.suppress(Exception):
                handle.task_queue.put(("stop",))
        for handle in self._workers:
            if handle is None:
                continue
            with contextlib.suppress(Exception):
                handle.process.join(timeout=2.0)
        # the finalizer terminates stragglers, reaps, closes queues
        # and unlinks the slot ring; calling it marks it dead so GC
        # and interpreter exit do not run it again
        self._finalizer()
        with self._ring_lock:
            self._free = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        state = "closed" if self._closed else (
            "broken" if self._broken else "open"
        )
        return (
            f"ResidentWorkerPool(workers={self.num_workers}, "
            f"context={self.context.get_start_method()!r}, "
            f"sessions={self.sessions}, {state})"
        )


class _ResidentSession:
    """One stream's ``submit``/``drain`` view of a resident pool.

    The engine's parallel stream loop submits framed batches and
    drains results strictly in submission order; ``close()`` only
    ends the *session* (draining abandoned batches so their cache
    deltas still merge) — the pool and its warm workers survive.
    """

    __slots__ = ("_pool", "_closed")

    def __init__(self, pool):
        self._pool = pool
        self._closed = False

    @property
    def max_in_flight(self):
        return self._pool.max_in_flight

    @property
    def in_flight(self):
        return len(self._pool._order)

    def submit(self, records):
        self._pool._submit(records)

    def drain(self):
        return self._pool._drain_next()

    def stats(self):
        return self._pool.stats()

    def close(self):
        if self._closed:
            return
        self._closed = True
        pool = self._pool
        try:
            # abandoned streams still drain so worker-computed cache
            # deltas merge back, but a broken or closed pool cannot
            # deliver, so discard
            while (pool._order and pool._broken is None
                   and not pool._closed):
                with contextlib.suppress(ReproError):
                    pool._drain_next()
        finally:
            pool._discard_inflight()
            pool._active = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

