"""Shared memoisation of per-atom match masks (the AtomCache).

Phase-1 evaluation is the expensive half of everything this repo does:
each *atom* (string matcher, number-range DFA, structural group) costs a
vectorised sweep over the whole byte stream, and the same atoms recur
constantly — design-space queries share string/value primitives, a
reconfigurable SoC swaps between filters built from overlapping parts,
and a re-run benchmark streams the same chunks again.  The
:class:`AtomCache` amortises that work the way batched PBWT/BWT systems
amortise prefix-array access: compute each (dataset, atom) result once,
then serve every later query from the cached mask.

Keys pair a **dataset fingerprint** (the SHA-256 digest of the
concatenated record stream, with its length) with the atom's
:meth:`~repro.core.composition.RawFilter.cache_key`, so caching is safe
across distinct ``Dataset`` objects with equal content and can never
alias datasets whose bytes differ.  The digest is a full cryptographic
one because the cache is shared: gateway tenants read masks other
tenants wrote, so a collision would hand one tenant another corpus's
bits — false negatives a raw filter must never produce.  Entries
are held in a size-bounded LRU (entry- and byte-capped; the view memo is
count-capped and reported separately in ``stats()``); cached arrays
are frozen (non-writeable) so a hit can be handed out without copying.

The cache also memoises :class:`~repro.eval.harness.DatasetView`
instances per fingerprint — the numeric token columns and structural
index are by far the most expensive per-dataset state, and every atom
evaluated against the same corpus shares them.

One :class:`AtomCache` hangs off a :class:`~repro.engine.FilterEngine`
(``FilterEngine(cache=True)``); the engine routes its compiled
backend, its streaming path and :class:`repro.core.design_space.
DesignSpace` phase-1 evaluation through it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..errors import ReproError
from ..eval.harness import DatasetView, evaluate_atom
from ..eval.harness import evaluate_atoms as harness_evaluate_atoms

#: attribute used to memoise a dataset's fingerprint on the instance
_FINGERPRINT_ATTR = "_atom_cache_fingerprint"


def dataset_fingerprint(dataset):
    """``(length, SHA-256 digest)`` of a dataset's record stream.

    Equal record content gives equal fingerprints regardless of object
    identity; any byte difference changes the fingerprint, so stale
    masks can never be served for a changed corpus.  The full 32-byte
    SHA-256 digest is kept, not a truncated or non-cryptographic hash:
    the key is shared across gateway tenants and persisted by the
    :class:`~repro.engine.cache_store.CacheStore`, so a collision
    would serve one corpus's masks for another.  On x86 hosts with
    SHA instructions SHA-256 is also 1.6-2x faster per byte than
    BLAKE2b, and on cache replay hashing is most of the work.  The
    digest is memoised on the dataset instance (the stream itself is
    immutable once built).  The buffer is hashed in place, not copied
    first.
    """
    cached = getattr(dataset, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    stream = np.ascontiguousarray(dataset.stream)
    digest = hashlib.sha256(stream).digest()
    fingerprint = (int(stream.shape[0]), digest)
    try:
        setattr(dataset, _FINGERPRINT_ATTR, fingerprint)
    except AttributeError:  # slotted/frozen dataset stand-ins
        pass
    return fingerprint


def _freeze(array):
    array = np.asarray(array)
    array.setflags(write=False)
    return array


class _ThreadCounts(threading.local):
    """Per-thread lookup counts; each thread starts from zero."""

    def __init__(self):
        self.hits = 0
        self.misses = 0


class AtomCache:
    """Keyed, size-bounded LRU cache of per-atom evaluation arrays.

    Stores every array the evaluation harness memoises per dataset:
    record-level atom masks, string-matcher fire positions and
    token-accept vectors (the needle/DFA-level state the streaming path
    would otherwise rebuild from scratch for every batch).
    """

    def __init__(self, max_entries=1024, max_bytes=128 << 20,
                 max_views=4, store=None):
        if max_entries is not None and max_entries <= 0:
            raise ReproError("max_entries must be positive (or None)")
        if max_bytes is not None and max_bytes <= 0:
            raise ReproError("max_bytes must be positive (or None)")
        if max_views <= 0:
            raise ReproError("max_views must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.max_views = max_views
        #: optional persistent disk tier (:class:`~repro.engine.
        #: cache_store.CacheStore`): LRU-evicted entries demote to it
        #: instead of vanishing, misses probe it and promote whole
        #: fingerprint batches back — see :meth:`attach_store`
        self.store = None  # guarded-by: _lock
        self.tier_hits = 0  # guarded-by: _lock
        self.tier_misses = 0  # guarded-by: _lock
        self.demoted = 0  # guarded-by: _lock
        self.promoted = 0  # guarded-by: _lock
        # (fingerprint, key) -> array
        self._entries = OrderedDict()  # guarded-by: _lock
        # fingerprint -> DatasetView
        self._views = OrderedDict()  # guarded-by: _lock
        #: guards every mutable slot of this cache — the serve-layer
        #: engine pool evaluates batches on several executor threads
        #: against one shared cache, and LRU reordering is not atomic
        #: on its own
        self._lock = threading.RLock()
        self._bytes = 0  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        #: the same counts per calling thread (see :meth:`thread_counts`)
        self._thread = _ThreadCounts()  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self.inserts = 0  # guarded-by: _lock
        #: when a list, :meth:`put` records every insert here (see
        #: :meth:`track_deltas` — the worker merge-back mechanism)
        self.delta_log = None  # guarded-by: _lock
        if store is not None:
            self.attach_store(store)

    # -- the persistent disk tier -------------------------------------------

    def attach_store(self, store):
        """Attach a persistent disk tier (a :class:`CacheStore` or a
        directory path one is opened at).

        From then on this cache is **tiered**: entries evicted by the
        LRU bounds are demoted to the store (append-mostly, skipped if
        already stored) instead of discarded, and a :meth:`lookup`
        miss probes the store — a store hit promotes *every* stored
        entry of that dataset fingerprint back into memory in one
        sequential batch (the requested key last, so it is the most
        recently used).  ``tier_hits``/``tier_misses``/``demoted``/
        ``promoted`` count the tier traffic in :meth:`stats`.

        Store-served lookups count as cache hits — like a memory hit,
        they avoid recomputing the vectorised sweep; ``tier_hits``
        separates the two in the stats.
        """
        from .cache_store import as_cache_store

        with self._lock:
            self.store = as_cache_store(store)
        return self

    def _demote(self, fingerprint, key, array):  # holds-lock: _lock
        """Spill one LRU-evicted entry to the disk tier (lock held)."""
        if self.store is not None and self.store.put(
            fingerprint, key, array
        ):
            self.demoted += 1

    def _promote(self, fingerprint, key):  # holds-lock: _lock
        """Probe the disk tier for a missed key (lock held).

        Promotes the whole fingerprint batch (one sequential log
        sweep) and returns the requested entry, or ``None`` when the
        store does not hold it either.
        """
        batch = self.store.fingerprint_batch(fingerprint)
        found = any(stored_key == key for stored_key, _ in batch)
        if not found:
            self.tier_misses += 1
            return None
        self.tier_hits += 1
        # requested key inserted last: if the batch alone overflows the
        # LRU bounds, the entry actually being asked for survives
        batch.sort(key=lambda entry: entry[0] == key)
        requested = None
        for stored_key, array in batch:
            if (fingerprint, stored_key) not in self._entries:
                array = self.put(fingerprint, stored_key, array)
                self.promoted += 1
            else:
                array = self._entries[(fingerprint, stored_key)]
            if stored_key == key:
                requested = array
        return requested

    def persist(self):
        """Write every live entry to the attached disk tier.

        The store otherwise only receives LRU-evicted entries; calling
        this before a process exits lets the next process over the same
        store directory start warm even when nothing was evicted.
        Already-stored keys are skipped.  Returns the number of entries
        written (0 without a store).
        """
        with self._lock:
            if self.store is None:
                return 0
            return sum(
                self.store.put(fingerprint, key, array)
                for (fingerprint, key), array in self._entries.items()
            )

    # -- raw entry access ---------------------------------------------------

    def lookup(self, fingerprint, key):
        """The cached array for (fingerprint, key), or ``None``; counts.

        With a disk tier attached, a memory miss probes the store and
        (on a store hit) promotes the whole fingerprint batch; the
        lookup then still counts as a hit — the sweep was not
        recomputed — with ``tier_hits`` recording that the disk tier
        served it.
        """
        with self._lock:
            entry = self._entries.get((fingerprint, key))
            if entry is None and self.store is not None:
                entry = self._promote(fingerprint, key)
                if entry is not None:
                    self._count(hit=True)
                    return entry
            if entry is None:
                self._count(hit=False)
                return None
            self._entries.move_to_end((fingerprint, key))
            self._count(hit=True)
            return entry

    def _count(self, hit):  # holds-lock: _lock
        """Book one lookup to the totals and to the calling thread."""
        if hit:
            self.hits += 1
            self._thread.hits += 1
        else:
            self.misses += 1
            self._thread.misses += 1

    def thread_counts(self):
        """``(hits, misses)`` of the lookups the calling thread made.

        ``hits``/``misses`` mix every thread sharing this cache; a
        caller that wants only its own lookups (the gateway books them
        per tenant) diffs these around its evaluation instead.
        """
        with self._lock:
            return self._thread.hits, self._thread.misses

    def put(self, fingerprint, key, array):
        """Insert one evaluation array, evicting LRU entries past bounds."""
        array = _freeze(array)
        full_key = (fingerprint, key)
        with self._lock:
            previous = self._entries.pop(full_key, None)
            if previous is not None:
                self._bytes -= previous.nbytes
            self._entries[full_key] = array
            self._bytes += array.nbytes
            self.inserts += 1
            while self._entries and (
                (self.max_entries is not None
                 and len(self._entries) > self.max_entries)
                or (self.max_bytes is not None
                    and self._bytes > self.max_bytes)
            ):
                evicted_key, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1
                # tiered cache: cold entries demote to disk instead of
                # vanishing (no-op when already stored — fingerprints
                # are content hashes, so the log never grows on churn)
                self._demote(evicted_key[0], evicted_key[1], evicted)
            if self.delta_log is not None:
                self.delta_log.append((fingerprint, key, array))
        return array

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, full_key):
        with self._lock:
            return full_key in self._entries

    def clear(self):
        """Drop all entries and memoised views (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._views.clear()
            self._bytes = 0

    # -- dataset views ------------------------------------------------------

    def view_for(self, dataset):
        """The memoised :class:`DatasetView` for a dataset's content.

        Token columns and structural indexes are the heaviest
        per-dataset state; sharing one view across every query touching
        the same corpus is what makes repeated design-space sweeps cheap.

        Views are **count-bounded** (``max_views``), not byte-bounded:
        each memoised view pins its corpus (records, stream, lazily
        built token and structural indexes).  ``stats()['view_bytes']``
        reports the retained footprint; :meth:`clear` releases it.  For
        very large corpora, prefer a dedicated engine (or clear between
        runs) over the process-wide default engine.
        """
        fingerprint = dataset_fingerprint(dataset)
        with self._lock:
            view = self._views.get(fingerprint)
            if view is None:
                view = DatasetView(dataset)
                self._views[fingerprint] = view
                while len(self._views) > self.max_views:
                    self._views.popitem(last=False)
            else:
                self._views.move_to_end(fingerprint)
            return view

    # -- harness-facing evaluation ------------------------------------------

    def evaluation_cache(self, dataset):
        """A harness-compatible mapping backed by this shared cache."""
        return _EvaluationCache(self, dataset_fingerprint(dataset))

    def evaluate_atoms(self, dataset, atoms):
        """``{atom.cache_key(): mask}`` for many atoms, cache-served."""
        return harness_evaluate_atoms(
            self.view_for(dataset), atoms,
            cache=self.evaluation_cache(dataset),
        )

    def match_bits(self, expr, dataset):
        """Per-record accept bits for one expression, cache-served.

        Returns a fresh writable array (the cached master stays frozen).
        """
        view = self.view_for(dataset)
        bits = evaluate_atom(view, expr, self.evaluation_cache(dataset))
        return np.array(bits, dtype=bool)

    # -- snapshots (worker warm-up and merge-back) ---------------------------

    def snapshot(self):
        """Portable entry list ``[(fingerprint, key, array), ...]``.

        Most-recently-used entries first (dataset views are
        deliberately excluded — they pin whole corpora and are cheap to
        rebuild lazily).  Snapshots are plain picklable data: ship one
        to streaming workers so they start warm.
        """
        with self._lock:
            return [
                (fingerprint, key, array)
                for (fingerprint, key), array in reversed(
                    self._entries.items()
                )
            ]

    def track_deltas(self):
        """Start recording every subsequent insert as a delta entry.

        Streaming workers call this right after loading the parent's
        warm snapshot: everything :meth:`put` from then on is *newly
        computed* state the parent does not have yet.
        :meth:`pop_deltas` hands the recorded entries over (and resets
        the log), so each entry ships back exactly once.
        """
        with self._lock:
            self.delta_log = []
        return self

    def pop_deltas(self):
        """Return-and-reset the recorded delta entries (may be empty)."""
        with self._lock:
            if self.delta_log is None:
                return []
            deltas, self.delta_log = self.delta_log, []
            return deltas

    def merge_snapshot(self, entries, record_deltas=True):
        """Merge snapshot entries computed elsewhere into this cache.

        The worker merge-back half of parallel streaming: entries are
        ``(fingerprint, key, array)`` triples (the :meth:`snapshot` /
        :meth:`pop_deltas` wire format).  Keys already present are
        skipped — the fingerprint is a content hash, so an existing
        entry under the same key is byte-equivalent and keeping it
        preserves this cache's recency order (conflict-free by
        construction).  New entries go through :meth:`put`, so the
        LRU entry/byte bounds hold exactly as for local inserts.

        ``record_deltas=False`` keeps the merged entries out of the
        :meth:`track_deltas` log: a resident worker merging the
        *parent's* incremental cache sync must not echo those same
        entries back to the parent on its next result.

        Returns ``(merged, skipped)`` entry counts.
        """
        merged = skipped = 0
        with self._lock:
            saved_log = self.delta_log
            if not record_deltas:
                self.delta_log = None
            try:
                for fingerprint, key, array in entries:
                    if (fingerprint, key) in self._entries:
                        skipped += 1
                        continue
                    self.put(fingerprint, key, array)
                    merged += 1
            finally:
                if not record_deltas:
                    self.delta_log = saved_log
        return merged, skipped

    # -- reporting ----------------------------------------------------------

    @property
    def nbytes(self):
        with self._lock:
            return self._bytes

    def view_bytes(self):
        """Approximate bytes retained by the memoised dataset views
        (corpus stream + token and structural indexes already built)."""
        total = 0
        with self._lock:
            for view in self._views.values():
                total += view.dataset.total_bytes + view.index_bytes()
        return total

    def stats(self):
        """Counters snapshot: hits/misses/evictions/entries/bytes.

        With a disk tier attached, ``tier_hits``/``tier_misses`` count
        store probes on memory misses, ``demoted``/``promoted`` count
        entries spilled to / reloaded from the tier, and ``store``
        carries the store's own counters (entries, log bytes, reads).
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "evictions": self.evictions,
                "inserts": self.inserts,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "views": len(self._views),
                "view_bytes": self.view_bytes(),
                "tier_hits": self.tier_hits,
                "tier_misses": self.tier_misses,
                "demoted": self.demoted,
                "promoted": self.promoted,
                "store": (
                    self.store.stats() if self.store is not None
                    else None
                ),
            }

    def __repr__(self):
        stats = self.stats()
        return (
            f"AtomCache(entries={stats['entries']}, "
            f"bytes={stats['bytes']}, hits={stats['hits']}, "
            f"misses={stats['misses']})"
        )


class _EvaluationCache:
    """Dict protocol bridging the harness to one shared :class:`AtomCache`.

    The harness treats its cache as a plain mapping.  This adapter
    checks a per-evaluation local overlay first (intra-expression reuse,
    and a strong reference so an entry evicted from the shared LRU
    mid-evaluation cannot disappear under the harness), then the shared
    store.  Everything written lands in both.
    """

    __slots__ = ("_shared", "_fingerprint", "_local")

    def __init__(self, shared, fingerprint):
        self._shared = shared
        self._fingerprint = fingerprint
        self._local = {}

    def __contains__(self, key):
        if key in self._local:
            return True
        entry = self._shared.lookup(self._fingerprint, key)
        if entry is None:
            return False
        self._local[key] = entry
        return True

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        return self._local[key]

    def __setitem__(self, key, value):
        self._local[key] = self._shared.put(
            self._fingerprint, key, value
        )


def as_atom_cache(cache):
    """Normalise a ``cache`` argument: instance, True (defaults), or off."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return AtomCache()
    if isinstance(cache, AtomCache):
        return cache
    raise ReproError(
        f"cache must be an AtomCache, True or None, got {cache!r}"
    )
