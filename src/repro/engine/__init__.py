"""Unified streaming filter-execution layer.

Every consumer in the repo — the Fig. 4 SoC simulation, the CLI's
``filter``/``bench`` commands, the Sparser/exact baselines and the eval
harness — obtains per-record match bits from one
:class:`FilterEngine`, with pluggable backends:

* ``compiled`` — the default: fused-kernel evaluation
  (:mod:`repro.engine.compiled`), one generated and verified function
  per filter, a single selectivity-ordered pass with short-circuiting;
* ``vectorized`` — dataset-scale numpy evaluation
  (:mod:`repro.eval.harness`), one sweep per atom: the compiled
  backend's fallback, the differential reference, and the backend of
  :func:`default_engine` (Sparser probe sweeps run faster on it);
* ``scalar`` — per-record behavioural evaluation
  (:func:`repro.core.composition.evaluate_record`), the reference
  oracle the other paths are cross-checked against.

The engine also executes **chunked streams** behind two pluggable
layers that model the paper's ingest/evaluation boundary explicitly:

* :class:`~repro.engine.sources.ChunkSource` — where bytes come from
  (:class:`FileSource` for paths, handles and pipes at any size,
  :class:`IterableSource`, :class:`SocketSource` and an
  :class:`AsyncSource` adapter), with per-source chunk/byte
  accounting; records are reframed across chunk seams by
  :class:`repro.engine.framing.RecordFramer` and evaluated in bounded
  memory;
* :class:`~repro.engine.transport.ResidentWorkerPool` — how framed
  chunks reach ``num_workers`` worker processes: payloads and results
  travel through shared-memory slot rings with pickle-free record
  views; workers spawn once per engine and stay warm across streams,
  passes and filter swaps, receiving incremental cache deltas, with
  respawn-on-death fault tolerance, per-worker counters reported via
  ``engine.stats()`` and lifecycle hooks (``engine.warm_up()`` /
  ``drain()`` / ``close()``).

``FilterEngine(cache=True)`` attaches a shared
:class:`~repro.engine.atom_cache.AtomCache`: per-atom match masks and
per-corpus dataset views are memoised by content fingerprint, so
design-space queries sharing atoms, re-streamed chunks and reconfigured
filters reuse previously computed state instead of re-running the
vectorised sweeps.  ``EngineConfig(cache_store=DIR)`` adds a persistent
disk tier (:class:`~repro.engine.cache_store.CacheStore`) under that
cache: LRU-evicted entries demote to an append-mostly on-disk log
instead of vanishing, and misses promote them back in fingerprint
batches — so corpora far larger than the cache's byte cap stream warm,
and a restarted process serves the previous run's entries without
loading the whole cache into RAM.  :meth:`AtomCache.persist` writes the
live entries to that log as well, so a run that evicted nothing still
leaves the next process warm.
"""

from .atom_cache import AtomCache, as_atom_cache, dataset_fingerprint
from .cache_store import CacheStore, as_cache_store
from .backends import (
    BACKENDS,
    Backend,
    ScalarBackend,
    VectorizedBackend,
    as_dataset,
    record_matcher,
    resolve_backend,
    resolve_expression,
)
from .compiled import (
    CompiledBackend,
    CompiledKernel,
    SelectivityTracker,
    clear_kernels,
)
from .engine import (
    DEFAULT_CHUNK_BYTES,
    EngineConfig,
    FilterEngine,
    StreamBatch,
    default_engine,
    scalar_match_bits,
)
from .framing import RecordFramer
from .sources import (
    AsyncSource,
    ChunkSource,
    FileSource,
    IterableSource,
    SocketSource,
    as_chunk_source,
    ingest_dataset,
    ingest_records,
)
from .transport import ResidentWorkerPool, resolve_mp_context

__all__ = [
    "AtomCache",
    "as_atom_cache",
    "dataset_fingerprint",
    "CacheStore",
    "as_cache_store",
    "BACKENDS",
    "Backend",
    "ScalarBackend",
    "VectorizedBackend",
    "as_dataset",
    "record_matcher",
    "resolve_backend",
    "resolve_expression",
    "CompiledBackend",
    "CompiledKernel",
    "SelectivityTracker",
    "clear_kernels",
    "DEFAULT_CHUNK_BYTES",
    "EngineConfig",
    "FilterEngine",
    "StreamBatch",
    "default_engine",
    "scalar_match_bits",
    "RecordFramer",
    "AsyncSource",
    "ChunkSource",
    "FileSource",
    "IterableSource",
    "SocketSource",
    "as_chunk_source",
    "ingest_dataset",
    "ingest_records",
    "ResidentWorkerPool",
    "resolve_mp_context",
]
