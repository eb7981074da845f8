"""Persistent on-disk tier under the :class:`AtomCache` (CacheStore).

The in-memory :class:`~repro.engine.atom_cache.AtomCache` is
byte-bounded: streaming a corpus larger than the cap evicts the working
set before it can ever be reused, and a process restart loses
everything.  A :class:`CacheStore` gives evicted entries somewhere to
go — an **append-mostly log** on disk where cold ``(fingerprint, key)``
entries are *demoted* on LRU eviction instead of vanishing, and from
which later misses *promote* them back.

Two design decisions come straight from the batched-access literature
(PAPERS.md — Gagie's batched PBWT prefix-array access, Li's terabase
BWT construction):

* **Promotion happens in fingerprint batches.**  A miss on one atom of
  a corpus chunk almost always precedes misses on that chunk's other
  atoms (a filter evaluates every atom of the expression against the
  same framed batch), so one miss promotes *every* stored entry of
  that fingerprint in a single pass — sorted by file offset, turning
  what would be per-atom random reads into one sequential sweep.
* **The log is append-mostly and index-light.**  Each entry is a small
  pickled ``(fingerprint, key)`` header followed by the pickled array
  payload; opening a store scans headers only (seeking past payloads),
  so a multi-GB store opens without loading a single array into RAM.
  Demoting a key that is already stored is a no-op — fingerprints are
  content hashes, so an existing entry is byte-equivalent by
  construction and the log does not grow on re-demotion churn.

Entries reuse the AtomCache's existing serialization unit — the
``(fingerprint, key, array)`` triple of :meth:`AtomCache.snapshot` —
so anything a snapshot can carry, the store can hold.
:meth:`AtomCache.persist` writes the live entries too, so a process
that evicted nothing still leaves the next one warm.  The log is
pickle-based: point a store only at directories the local user
controls.

The log is **format 2**: its entries are keyed by the SHA-256
fingerprint of :func:`~repro.engine.atom_cache.dataset_fingerprint`.
Format 1 keyed them by a BLAKE2b digest no current process computes,
so a format-1 log is refused on open rather than read; delete it or
rebuild it.

A truncated or corrupt log raises a typed
:class:`~repro.errors.CachePersistenceError` on open, never a raw
pickle/EOF exception.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading

from ..errors import CachePersistenceError, ReproError

#: log file name inside the store directory
LOG_NAME = "atoms.log"

#: leading magic: file format identity + version in one token
MAGIC = b"REPRO-CACHESTORE-2\n"
#: the magic of format-1 logs, keyed by a digest no longer computed
_FORMAT_1_MAGIC = b"REPRO-CACHESTORE-1\n"

#: per-entry header: little-endian (meta_len, payload_len)
_HEADER = struct.Struct("<QQ")


class CacheStore:
    """Append-mostly on-disk entry log with an in-memory offset index.

    ``directory`` is created if missing; the log lives at
    ``<directory>/atoms.log`` and is reopened (index rebuilt from the
    entry headers, payloads untouched) on every construction, so a
    restarted process serves the previous run's demoted entries
    without ever holding more than one promotion batch in memory.

    ``max_bytes`` (optional) caps the log size: once reached, further
    :meth:`put` calls are skipped (counted in ``appends_skipped``) —
    an append-mostly tier degrades to read-only rather than growing
    without bound.
    """

    def __init__(self, directory, max_bytes=None):
        if max_bytes is not None and max_bytes <= 0:
            raise ReproError("max_bytes must be positive (or None)")
        self.directory = os.fspath(directory)
        self.max_bytes = max_bytes
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, LOG_NAME)
        self._lock = threading.RLock()
        #: (fingerprint, key) -> (payload_offset, payload_len)
        self._index = {}
        #: fingerprint -> [key, ...] in append (== offset) order
        self._by_fingerprint = {}
        self.appends = 0
        self.appends_skipped = 0
        self.reads = 0
        self._closed = False
        self._open_log()

    # -- log plumbing -------------------------------------------------------

    def _corrupt(self, detail):
        raise CachePersistenceError(
            f"{self.path!r} is not a readable CacheStore log: {detail}"
        )

    def _open_log(self):
        fresh = not os.path.exists(self.path)
        if fresh:
            with open(self.path, "wb") as handle:
                handle.write(MAGIC)
        else:
            self._scan_index()
        self._append_handle = open(self.path, "ab")
        self._read_handle = open(self.path, "rb")

    def _scan_index(self):
        """Rebuild the offset index from entry headers (payloads are
        seeked over, never loaded)."""
        size = os.path.getsize(self.path)
        with open(self.path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic == _FORMAT_1_MAGIC:
                self._corrupt(
                    "the log is from an older format (format 1, keyed "
                    "by another digest); delete it or rebuild it"
                )
            if magic != MAGIC:
                self._corrupt("bad or missing magic header")
            position = len(MAGIC)
            while position < size:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    self._corrupt(
                        f"truncated entry header at byte {position}"
                    )
                meta_len, payload_len = _HEADER.unpack(header)
                meta_end = position + _HEADER.size + meta_len
                payload_end = meta_end + payload_len
                if payload_end > size:
                    self._corrupt(
                        f"truncated entry payload at byte {position} "
                        f"(needs {payload_end - size} more bytes)"
                    )
                meta = handle.read(meta_len)
                try:
                    fingerprint, key = pickle.loads(meta)
                except Exception as err:
                    self._corrupt(
                        f"undecodable entry metadata at byte "
                        f"{position}: {err}"
                    )
                self._remember(fingerprint, key, meta_end, payload_len)
                handle.seek(payload_end)
                position = payload_end

    def _remember(self, fingerprint, key, offset, length):
        full_key = (fingerprint, key)
        if full_key not in self._index:
            self._by_fingerprint.setdefault(fingerprint, []).append(key)
        self._index[full_key] = (offset, length)

    # -- writing (demotion) -------------------------------------------------

    def put(self, fingerprint, key, array):
        """Append one entry; returns True when actually written.

        Already-stored keys are skipped (content-addressed: an existing
        entry under the same fingerprint is byte-equivalent), as are
        appends past ``max_bytes``.
        """
        with self._lock:
            self._require_open()
            if (fingerprint, key) in self._index:
                return False
            meta = pickle.dumps(
                (fingerprint, key), protocol=pickle.HIGHEST_PROTOCOL
            )
            payload = pickle.dumps(
                array, protocol=pickle.HIGHEST_PROTOCOL
            )
            if (self.max_bytes is not None
                    and self.nbytes + _HEADER.size + len(meta)
                    + len(payload) > self.max_bytes):
                self.appends_skipped += 1
                return False
            offset = self._append_handle.tell()
            self._append_handle.write(
                _HEADER.pack(len(meta), len(payload))
            )
            self._append_handle.write(meta)
            self._append_handle.write(payload)
            self._append_handle.flush()
            self._remember(
                fingerprint, key,
                offset + _HEADER.size + len(meta), len(payload),
            )
            self.appends += 1
            return True

    # -- reading (promotion) ------------------------------------------------

    def _load(self, offset, length):
        self._read_handle.seek(offset)
        blob = self._read_handle.read(length)
        if len(blob) < length:
            self._corrupt(f"short payload read at byte {offset}")
        try:
            return pickle.loads(blob)
        except Exception as err:
            self._corrupt(
                f"undecodable entry payload at byte {offset}: {err}"
            )

    def get(self, fingerprint, key):
        """One entry's array, or ``None`` when not stored."""
        with self._lock:
            self._require_open()
            location = self._index.get((fingerprint, key))
            if location is None:
                return None
            self.reads += 1
            return self._load(*location)

    def fingerprint_batch(self, fingerprint):
        """Every stored ``(key, array)`` of one fingerprint, loaded in
        file-offset order — the Gagie-style batched access: one
        sequential sweep instead of per-key random reads."""
        with self._lock:
            self._require_open()
            keys = self._by_fingerprint.get(fingerprint)
            if not keys:
                return []
            located = sorted(
                (self._index[(fingerprint, key)], key) for key in keys
            )
            batch = []
            for (offset, length), key in located:
                self.reads += 1
                batch.append((key, self._load(offset, length)))
            return batch

    # -- bookkeeping --------------------------------------------------------

    def __len__(self):
        return len(self._index)

    def __contains__(self, full_key):
        return full_key in self._index

    def fingerprints(self):
        """The distinct dataset fingerprints with stored entries."""
        with self._lock:
            return list(self._by_fingerprint)

    @property
    def nbytes(self):
        """Current log size in bytes (headers + metadata + payloads)."""
        if self._closed:
            return os.path.getsize(self.path)
        return self._append_handle.tell()

    def stats(self):
        with self._lock:
            return {
                "path": self.path,
                "entries": len(self._index),
                "fingerprints": len(self._by_fingerprint),
                "bytes": self.nbytes,
                "appends": self.appends,
                "appends_skipped": self.appends_skipped,
                "reads": self.reads,
            }

    def _require_open(self):
        if self._closed:
            raise ReproError(f"CacheStore at {self.path!r} is closed")

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._append_handle.close()
            self._read_handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return (
            f"CacheStore({self.directory!r}, entries={len(self)}, "
            f"bytes={self.nbytes})"
        )


def as_cache_store(store):
    """Normalise a ``cache_store`` argument: instance, path, or off."""
    if store is None or store is False:
        return None
    if isinstance(store, CacheStore):
        return store
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        return CacheStore(store)
    if isinstance(store, io.IOBase):
        raise ReproError(
            "cache_store must be a directory path or a CacheStore, "
            "not an open file"
        )
    raise ReproError(
        f"cache_store must be a CacheStore, a directory path or "
        f"None, got {store!r}"
    )
