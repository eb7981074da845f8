"""The unified filter-execution layer.

:class:`FilterEngine` is the single evaluation entry point for the whole
repo: the SoC simulation, the CLI, the baselines and the eval harness
all obtain per-record match bits from it.  One engine instance is
expression-agnostic — the predicate is an argument of each call — so a
single engine can be shared across streams, lanes and queries.

Two execution shapes:

* :meth:`match_bits` — evaluate a whole in-memory corpus at once
  (delegating to the configured backend);
* :meth:`stream` — consume a :class:`~repro.engine.sources.ChunkSource`
  (or anything :func:`~repro.engine.sources.as_chunk_source` accepts) in
  bounded memory, reframe records across chunk seams, evaluate chunk by
  chunk and yield :class:`StreamBatch` results; with ``num_workers > 1``
  the framed chunks are shipped to the workers of the engine's
  :class:`~repro.engine.transport.ResidentWorkerPool` while preserving
  record order.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np

from ..errors import ReproError
from ..eval import harness
from .atom_cache import as_atom_cache
from .backends import (
    ScalarBackend,
    as_dataset,
    resolve_backend,
    resolve_expression,
)
from .compiled import CompiledBackend, SelectivityTracker
from .framing import RecordFramer
from .sources import ChunkSource, as_chunk_source, ingest_dataset
from .transport import ResidentWorkerPool, resolve_mp_context

DEFAULT_CHUNK_BYTES = 1 << 20


class EngineConfig:
    """Execution parameters of a :class:`FilterEngine`."""

    #: every compiled plan is verified before it runs (see
    #: :func:`~repro.engine.compiled.kernel_for`); not a setting
    verify_kernels = True

    def __init__(self, backend="compiled",
                 chunk_bytes=DEFAULT_CHUNK_BYTES, num_workers=1,
                 mp_context=None, cache_store=None):
        if chunk_bytes <= 0:
            raise ReproError("chunk_bytes must be positive")
        if num_workers <= 0:
            raise ReproError("num_workers must be positive")
        self.backend = backend
        self.chunk_bytes = chunk_bytes
        self.num_workers = num_workers
        #: explicit multiprocessing start method (``None`` = fork where
        #: available, spawn otherwise — resolved deterministically, see
        #: :func:`repro.engine.transport.resolve_mp_context`)
        self.mp_context = mp_context
        resolve_mp_context(mp_context)  # fail fast on unknown methods
        #: persistent disk tier under the engine's AtomCache: a
        #: :class:`~repro.engine.cache_store.CacheStore` instance or a
        #: directory path (implies an AtomCache when none is passed) —
        #: LRU-evicted entries demote to disk, misses promote them back
        self.cache_store = cache_store

    def __repr__(self):
        return (
            f"EngineConfig(backend={self.backend!r}, "
            f"chunk_bytes={self.chunk_bytes}, "
            f"num_workers={self.num_workers}, "
            f"mp_context={self.mp_context!r}, "
            f"cache_store={self.cache_store!r})"
        )


class StreamBatch:
    """Match results for one framed chunk (a columnar ``Dataset``)."""

    __slots__ = ("index", "batch", "matches",
                 "records_seen", "bytes_seen", "accepted_seen")

    def __init__(self, index, batch, matches,
                 records_seen, bytes_seen, accepted_seen):
        self.index = index
        self.batch = batch
        self.matches = matches
        #: cumulative totals up to and including this batch
        self.records_seen = records_seen
        self.bytes_seen = bytes_seen
        self.accepted_seen = accepted_seen

    @property
    def records(self):
        """Every record of this batch as ``bytes`` (built lazily)."""
        return self.batch.records

    @property
    def accepted(self):
        """The accepted records of this batch, in input order."""
        return self.batch.select(self.matches)

    def __len__(self):
        return len(self.batch)

    def __repr__(self):
        return (
            f"StreamBatch(#{self.index}, records={len(self.batch)}, "
            f"accepted={int(np.count_nonzero(self.matches))})"
        )


class FilterEngine:
    """One execution layer, pluggable backends, streaming or batch."""

    def __init__(self, backend="compiled",
                 chunk_bytes=DEFAULT_CHUNK_BYTES, num_workers=1,
                 config=None, cache=None, mp_context=None,
                 cache_store=None):
        if isinstance(backend, EngineConfig):
            # FilterEngine(EngineConfig(...)) — the config is the
            # natural first positional argument, not a backend name
            if config is not None:
                raise ReproError(
                    "pass the EngineConfig positionally or as "
                    "config=, not both"
                )
            config = backend
            backend = "compiled"
        if config is None:
            config = EngineConfig(backend, chunk_bytes, num_workers,
                                  mp_context, cache_store)
        elif not isinstance(config, EngineConfig):
            raise ReproError(
                f"config must be an EngineConfig, got {config!r}"
            )
        else:
            overridden = [
                name for name, value, default in (
                    ("backend", backend, "compiled"),
                    ("chunk_bytes", chunk_bytes, DEFAULT_CHUNK_BYTES),
                    ("num_workers", num_workers, 1),
                    ("mp_context", mp_context, None),
                    ("cache_store", cache_store, None),
                )
                if value != default
            ]
            if overridden:
                # silently preferring one over the other would hide a
                # misconfiguration; make the conflict loud instead
                raise ReproError(
                    "pass execution parameters through the "
                    "EngineConfig, not alongside it: "
                    + ", ".join(overridden)
                )
        self.config = config
        #: shared AtomCache memoising per-(dataset, atom) masks across
        #: queries, streams and chunk batches; ``cache=True`` builds a
        #: default-sized one, ``None``/``False`` disables caching
        self.atom_cache = as_atom_cache(cache)
        if self.config.cache_store is not None:
            # a disk tier needs an in-memory tier above it: an engine
            # configured with a store but no cache gets the default one
            if self.atom_cache is None:
                self.atom_cache = as_atom_cache(True)
            self.atom_cache.attach_store(self.config.cache_store)
        #: observed per-atom pass rates: fed by the compiled kernels'
        #: steps and head samples, consumed by their selectivity
        #: ordering and surfaced through ``stats()["selectivity"]``
        self.selectivity = SelectivityTracker()
        self._backends = {}
        #: per-worker counters of the most recent parallel stream
        self._worker_stats = None
        #: why the most recent num_workers > 1 stream ran serially
        self._parallel_fallback = None
        self._fallback_warned = False
        #: lazily created persistent worker pool (num_workers > 1)
        self._resident_pool = None

    # -- backend handling ---------------------------------------------------

    def backend(self, override=None):
        """The configured backend instance (or a per-call override)."""
        name = override if override is not None else self.config.backend
        if not isinstance(name, str):
            # instances pass through, but still honour this engine's cache
            return self._attach_cache(resolve_backend(name))
        if name not in self._backends:
            self._backends[name] = self._attach_cache(
                resolve_backend(name)
            )
        return self._backends[name]

    def _attach_cache(self, instance):
        """Share this engine's cache + selectivity with a backend.

        Duck-typed on attribute presence so any backend exposing an
        ``atom_cache`` / ``selectivity`` slot (compiled, third-party)
        participates; explicit per-backend wiring wins.
        """
        if (self.atom_cache is not None
                and getattr(instance, "atom_cache", False) is None):
            instance.atom_cache = self.atom_cache
        if getattr(instance, "selectivity", False) is None:
            instance.selectivity = self.selectivity
        return instance

    # -- whole-corpus evaluation --------------------------------------------

    def match_bits(self, predicate, records, backend=None):
        """Per-record accept bits for an in-memory record batch.

        With ``num_workers > 1`` the batch is sharded contiguously
        across the resident pool's warm workers and the per-shard bits
        concatenated — this is how a pooled gateway engine drives
        multi-process evaluation from one call.  The
        serial backend path handles everything the pool cannot take
        (backend instances, unpicklable predicates, trivial batches,
        a pool mid-stream or broken) with identical results.
        """
        if isinstance(records, ChunkSource):
            records = self.ingest(records)
        chosen = backend if backend is not None else self.config.backend
        if self.config.num_workers > 1 and isinstance(chosen, str):
            bits = self._match_bits_pooled(predicate, records, chosen)
            if bits is not None:
                return bits
        return self.backend(backend).match_bits(predicate, records)

    def _match_bits_pooled(self, predicate, records, backend_name):
        """Shard one batch across the resident pool (or ``None``)."""
        batch = as_dataset(records)
        if len(batch) < 2:
            return None
        payload = self._picklable_payload(predicate)
        if payload is None:
            return None
        pool = self._ensure_resident_pool()
        if pool.active or pool.broken or pool.closed:
            return None
        try:
            session = pool.session(payload, backend_name)
        except ReproError:
            return None
        parts = []
        total = len(batch)
        shards = min(pool.num_workers, total)
        try:
            submitted = 0
            for index in range(shards):
                lo = total * index // shards
                hi = total * (index + 1) // shards
                if lo == hi:
                    continue
                session.submit(batch.slice(lo, hi))
                submitted += 1
            for _ in range(submitted):
                bits, _count = session.drain()
                parts.append(bits)
        finally:
            session.close()
            self._worker_stats = pool.stats()
        return np.concatenate(parts)

    def matches_record(self, predicate, record):
        """Single-record accept (always the scalar reference path)."""
        backend = self.backend("scalar")
        return bool(backend.match_bits(predicate, [record])[0])

    def count_accepted(self, predicate, records, backend=None):
        return int(
            np.count_nonzero(self.match_bits(predicate, records, backend))
        )

    def ingest(self, source, name="ingest"):
        """Materialise any chunk source into a :class:`Dataset`.

        ``Dataset`` instances and plain record lists pass through; chunk
        sources (files, sockets, iterables of chunks, async producers)
        are framed on newline boundaries by the same
        :class:`RecordFramer` the streaming path uses.  This is the SoC
        simulations' ingest door: raw bytes in, a record corpus out.
        """
        return ingest_dataset(
            source, name=name, chunk_bytes=self.config.chunk_bytes
        )

    def evaluate_atoms(self, dataset, atoms):
        """``{atom.cache_key(): per-record mask}`` for many atoms.

        The phase-1 entry point used by design-space exploration: with a
        cache attached, atoms shared with previously evaluated queries
        over the same corpus are served from memory, and the expensive
        :class:`~repro.eval.harness.DatasetView` (token columns,
        structural index) is built once per corpus instead of per query.
        """
        if isinstance(dataset, ChunkSource):
            dataset = self.ingest(dataset)
        dataset = as_dataset(dataset)
        if self.atom_cache is not None:
            return self.atom_cache.evaluate_atoms(dataset, atoms)
        return harness.evaluate_atoms(
            harness.DatasetView(dataset), atoms
        )

    def stats(self):
        """Engine observability: configuration, cache + worker counters.

        ``workers`` carries the per-worker counters (chunks/records
        evaluated, cache hits/misses, result-ring vs pickled returns,
        merged-back cache entries) of the most recent parallel
        stream — with ``num_workers > 1`` the serial-path cache
        counters alone would misrepresent where evaluation happened.
        ``parallel_fallback`` is ``None`` unless the most recent
        ``num_workers > 1`` stream had to run serially, in which case
        it records why (e.g. an unpicklable predicate).
        ``selectivity`` is the observed per-atom pass-rate table (most
        selective first); ``compiled`` carries the fused-kernel
        counters once the compiled backend has been used, and
        ``compiled_fallback`` mirrors ``parallel_fallback`` for
        predicates the compiled backend could not specialise.
        """
        cache = self.atom_cache
        compiled = self._backends.get("compiled")
        if not isinstance(compiled, CompiledBackend):
            compiled = None
        return {
            "backend": self.config.backend,
            "chunk_bytes": self.config.chunk_bytes,
            "num_workers": self.config.num_workers,
            "mp_context": self.config.mp_context,
            "cache": cache.stats() if cache is not None else None,
            "workers": self._worker_stats,
            "parallel_fallback": self._parallel_fallback,
            "selectivity": self.selectivity.snapshot(),
            "compiled": compiled.stats() if compiled else None,
            "compiled_fallback": (
                compiled.fallback_reason if compiled else None
            ),
        }

    # -- chunked streaming --------------------------------------------------

    def stream(self, predicate, chunks, backend=None):
        """Yield :class:`StreamBatch` per framed chunk, bounded memory.

        ``chunks`` is anything :func:`as_chunk_source` accepts: a
        :class:`ChunkSource`, raw bytes, a filesystem path
        (``str``/``os.PathLike`` — opened by the source and closed at
        stream end or abandonment), a binary handle, a connected
        socket, an async iterable, or any iterable of bytes-like
        chunks.  Records straddling chunk seams are reassembled by
        :class:`RecordFramer`; a missing trailing newline still yields
        the final record.  With ``num_workers > 1`` framed chunks are
        shipped to the engine's resident worker pool (at most
        ``2 * num_workers`` chunks in flight), and batches are yielded
        strictly in input order either way.
        """
        source = as_chunk_source(chunks, self.config.chunk_bytes)
        if self.config.num_workers > 1:
            self._parallel_fallback = None
            worker_payload = self._picklable_payload(predicate)
            if worker_payload is not None:
                yield from self._stream_parallel(
                    predicate, source, backend, worker_payload
                )
                return
            self._note_parallel_fallback(
                "the predicate is not picklable, so it cannot be "
                "shipped to worker processes; streaming serially"
            )
        yield from self._stream_serial(predicate, source, backend)

    def _framed(self, source):
        framer = RecordFramer()
        for chunk in source:
            batch = framer.push(chunk)
            if batch:
                yield batch, framer
        batch = framer.flush()
        if batch:
            yield batch, framer

    def _stream_target(self, predicate, chosen):
        """Resolve the predicate once per stream, not once per chunk.

        Expression-oriented backends (compiled — anything declaring
        ``wants_expression``) evaluate the same predicate for
        every framed batch; lowering it to its raw-filter expression up
        front carries the compiled atom state (number-range DFAs,
        needle gram sets, fused-kernel lookups) across chunk batches
        instead of re-deriving it per chunk.  Predicates without an
        expression form pass through unchanged.
        """
        if getattr(chosen, "wants_expression", False):
            expression = resolve_expression(predicate)
            if expression is not None:
                return expression
        return predicate

    def _stream_serial(self, predicate, source, backend):
        chosen = self.backend(backend)
        predicate = self._stream_target(predicate, chosen)
        index = 0
        records_seen = bytes_seen = accepted_seen = 0
        for batch, framer in self._framed(source):
            matches = chosen.match_bits(predicate, batch)
            records_seen += len(batch)
            accepted_seen += int(np.count_nonzero(matches))
            bytes_seen = framer.bytes_consumed - framer.pending_bytes
            yield StreamBatch(index, batch, matches,
                              records_seen, bytes_seen, accepted_seen)
            index += 1

    def _picklable_payload(self, predicate):
        try:
            return pickle.dumps(predicate)
        except Exception:
            return None

    def _note_parallel_fallback(self, reason):
        """Record (and warn once per engine) a silent-serial downgrade."""
        self._parallel_fallback = reason
        # a previous parallel stream's counters would otherwise sit
        # next to the fallback reason, implying this stream ran workers
        self._worker_stats = None
        if not self._fallback_warned:
            self._fallback_warned = True
            warnings.warn(
                f"num_workers={self.config.num_workers} requested "
                f"but {reason} (see engine.stats()"
                f"['parallel_fallback'])",
                RuntimeWarning,
                stacklevel=3,
            )

    def _ensure_resident_pool(self):
        """The engine's persistent worker pool, created on first use.

        The pool outlives individual streams — that persistence (warm
        worker AtomCaches, compiled-kernel registries, no per-run
        spawn) is the entire point of the pool.  It is torn down by
        :meth:`close` (or GC/exit finalizers).
        """
        if self._resident_pool is None:
            self._resident_pool = ResidentWorkerPool(
                num_workers=self.config.num_workers,
                mp_context=self.config.mp_context,
                chunk_bytes=self.config.chunk_bytes,
                atom_cache=self.atom_cache,
            )
        return self._resident_pool

    def warm_up(self):
        """Pre-spawn resident workers and ship the current cache.

        Useful before latency-sensitive serving: the first parallel
        stream then finds workers already alive and warm.  Serial
        engines no-op.
        """
        if self.config.num_workers > 1:
            self._ensure_resident_pool().warm_up()
        return self

    def drain(self):
        """Barrier with the resident workers; refresh worker stats."""
        pool = self._resident_pool
        if pool is not None and not pool.closed and not pool.broken:
            pool.sync()
            self._worker_stats = pool.stats()
        return self

    def close(self):
        """Release parallel resources (idempotent; serial no-op).

        The final worker counters stay readable through
        ``stats()["workers"]`` after closing.
        """
        pool = self._resident_pool
        if pool is not None:
            self._worker_stats = pool.stats()
            pool.close()
            self._resident_pool = None
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _stream_parallel(self, predicate, source, backend, payload):
        backend_name = backend if backend is not None else (
            self.config.backend
        )
        if not isinstance(backend_name, str):
            # backend instances cannot be shipped to workers reliably
            self._note_parallel_fallback(
                "a backend instance cannot be shipped to worker "
                "processes (pass a backend name instead); "
                "streaming serially"
            )
            yield from self._stream_serial(predicate, source, backend)
            return
        # a session over the engine's persistent pool: close() only
        # ends the stream — the warm workers survive for the next one
        session = self._ensure_resident_pool().session(
            payload, backend_name
        )
        try:
            pending = []  # consumed-bytes/records ride next to the
            index = 0     # session's in-order result queue
            records_seen = bytes_seen = accepted_seen = 0

            def drain_one():
                nonlocal index, records_seen, bytes_seen, accepted_seen
                batch, consumed_bytes = pending.pop(0)
                matches, count = session.drain()
                records_seen += count
                accepted_seen += int(np.count_nonzero(matches))
                bytes_seen = consumed_bytes
                result = StreamBatch(index, batch, matches,
                                     records_seen, bytes_seen,
                                     accepted_seen)
                index += 1
                return result

            for batch, framer in self._framed(source):
                consumed = framer.bytes_consumed - framer.pending_bytes
                pending.append((batch, consumed))
                session.submit(batch)
                while session.in_flight >= session.max_in_flight:
                    yield drain_one()
            while session.in_flight:
                yield drain_one()
        finally:
            # worker-computed AtomCache deltas merged as each result
            # drained (natural end and abandoned streams alike); the
            # counters are captured once the session is closed
            session.close()
            self._worker_stats = session.stats()

    # -- convenience --------------------------------------------------------

    def filter_stream(self, predicate, chunks, backend=None):
        """Yield only the accepted records of a chunked stream."""
        for batch in self.stream(predicate, chunks, backend=backend):
            yield from batch.accepted

    def __repr__(self):
        return f"FilterEngine({self.config!r})"


#: process-wide default engine (compiled, serial) for light callers
_DEFAULT_ENGINE = None


def default_engine():
    """The lazily created shared engine used by module-level helpers.

    Carries a bounded :class:`~repro.engine.atom_cache.AtomCache`, so
    independent light callers (design-space exploration in particular)
    share previously computed atom masks process-wide.  Its backend
    only matters to Sparser's probe ``match_array`` (design-space
    exploration calls :meth:`FilterEngine.evaluate_atoms`).
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = FilterEngine(backend="compiled", cache=True)
    return _DEFAULT_ENGINE


def scalar_match_bits(predicate, records):
    """Shared scalar-path helper (used by baselines' match arrays)."""
    return ScalarBackend().match_bits(predicate, records)
