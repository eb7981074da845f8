"""Pluggable chunk ingest for the :class:`FilterEngine` (ChunkSource).

The paper's SoC ingests a raw byte stream from I/O at line rate; the
software engine models that boundary explicitly: a :class:`ChunkSource`
produces bytes-like chunks from *somewhere* (a file, an in-memory
iterable, a connected socket, an async producer) and keeps per-source
accounting (chunks/bytes delivered), while the engine is only concerned
with framing and evaluation.  Every ingest path in the repo — the CLI
``filter``/``bench`` commands, ``FilterEngine.stream``/``stream_file``
and the SoC simulations' dataset ingest — goes through this layer.

Sources are iterables of bytes chunks and context managers; iterating
updates :attr:`bytes_read`/:attr:`chunks_read` so ``stats()`` reflects
exactly what was delivered.  :func:`as_chunk_source` normalises the
engine's accepted inputs (source instances, raw byte strings,
filesystem paths, file-like handles, sockets, async iterables, plain
iterables) into a source.
"""

from __future__ import annotations

import mmap as mmap_module
import os
import queue as queue_module
import socket as socket_module
import threading

from ..data.corpus import Dataset
from ..errors import ReproError
from .framing import RecordFramer

DEFAULT_SOURCE_CHUNK_BYTES = 1 << 20

#: regular files at least this large are ingested through
#: :class:`MmapSource` by :func:`as_chunk_source` — below it the page
#: table + madvise setup costs more than buffered reads save
MMAP_THRESHOLD_BYTES = 8 << 20

#: default bounded prefetch depth of :class:`ReadaheadSource`
DEFAULT_READAHEAD_DEPTH = 4


def _require_chunk(chunk):
    if not isinstance(chunk, (bytes, bytearray, memoryview)):
        raise ReproError(
            f"chunk sources must yield bytes-like chunks, "
            f"got {type(chunk)!r}"
        )
    return chunk


class ChunkSource:
    """Base class: an accounted, closable producer of byte chunks."""

    name = "?"

    def __init__(self):
        #: bytes delivered to the consumer so far
        self.bytes_read = 0
        #: chunks delivered to the consumer so far (empty chunks count)
        self.chunks_read = 0

    def chunks(self):
        """Yield raw chunks (subclass hook, unaccounted)."""
        raise NotImplementedError

    def __iter__(self):
        for chunk in self.chunks():
            chunk = _require_chunk(chunk)
            self.chunks_read += 1
            self.bytes_read += len(chunk)
            yield chunk

    def stats(self):
        """Per-source delivery counters."""
        return {
            "source": self.name,
            "chunks_read": self.chunks_read,
            "bytes_read": self.bytes_read,
        }

    def close(self):
        """Release whatever the source owns (default: nothing)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return (
            f"{type(self).__name__}(chunks={self.chunks_read}, "
            f"bytes={self.bytes_read})"
        )


class IterableSource(ChunkSource):
    """Chunks from any iterable of bytes-like objects.

    Empty chunks pass through as no-ops (they do **not** terminate the
    stream — only iterator exhaustion does), so bursty producers that
    occasionally deliver nothing are handled.
    """

    name = "iterable"

    def __init__(self, iterable):
        super().__init__()
        self._iterable = iterable

    def chunks(self):
        yield from self._iterable


class FileSource(ChunkSource):
    """Chunks from a binary file handle or a filesystem path.

    Paths are opened (and owned) by the source; handles stay owned by
    the caller.  Seekable handles read full ``chunk_bytes`` chunks for
    maximum vectorisation width; non-seekable handles (pipes, FIFOs)
    use ``read1`` so available bytes flow immediately instead of
    blocking until a full chunk accumulates.
    """

    name = "file"

    def __init__(self, file, chunk_bytes=DEFAULT_SOURCE_CHUNK_BYTES):
        super().__init__()
        if chunk_bytes <= 0:
            raise ReproError("chunk_bytes must be positive")
        self.chunk_bytes = chunk_bytes
        if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
            self._handle = open(file, "rb")
            self._owns_handle = True
        else:
            if not hasattr(file, "read"):
                raise ReproError(
                    f"FileSource needs a path or a binary handle, "
                    f"got {file!r}"
                )
            self._handle = file
            self._owns_handle = False

    def chunks(self):
        handle = self._handle
        read = handle.read
        try:
            seekable = handle.seekable()
        except (AttributeError, OSError):
            seekable = False
        if not seekable and hasattr(handle, "read1"):
            read = handle.read1
        try:
            while True:
                chunk = read(self.chunk_bytes)
                if not chunk:
                    return
                yield chunk
        finally:
            # a handle this source opened itself is closed as soon as
            # the stream ends or is abandoned — path ingest never
            # leaks a descriptor; caller-owned handles are untouched
            self.close()

    def close(self):
        if self._owns_handle:
            self._handle.close()


class MmapSource(ChunkSource):
    """Zero-copy windows over a memory-mapped regular file.

    The larger-than-memory ingest path: instead of ``read()`` copying
    every chunk from the page cache into a fresh ``bytes`` object, the
    file is mapped once and iterated as ``memoryview`` windows of
    ``chunk_bytes`` — the kernel pages data in on demand and the
    windows alias the map directly.  ``madvise(MADV_SEQUENTIAL)`` is
    applied where the platform exposes it, so the kernel reads ahead
    aggressively and drops pages behind the streaming cursor, keeping
    resident memory flat no matter how large the corpus is.

    Windows are only valid until :meth:`close` (stream end, abandonment
    or context-manager exit) — the engine's framer copies each window
    into its batch once, so a batch (even one the AtomCache keeps) never
    pins the map or observes an invalidated window.  Record
    framing across window seams is byte-identical to any other source:
    the :class:`~repro.engine.framing.RecordFramer` carries partial
    records across window boundaries exactly as it does across read
    chunks.

    Accepts a filesystem path (the source owns handle and map) or a
    binary handle backed by a real file descriptor (the caller keeps
    ownership of the handle; the source still owns the map).
    """

    name = "mmap"

    def __init__(self, file, chunk_bytes=DEFAULT_SOURCE_CHUNK_BYTES):
        super().__init__()
        if chunk_bytes <= 0:
            raise ReproError("chunk_bytes must be positive")
        self.chunk_bytes = chunk_bytes
        if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
            self._handle = open(file, "rb")
            self._owns_handle = True
        else:
            self._handle = file
            self._owns_handle = False
        try:
            fileno = self._handle.fileno()
            stat = os.fstat(fileno)
        except Exception as err:
            if self._owns_handle:
                self._handle.close()
            raise ReproError(
                f"MmapSource needs a path or a handle backed by a "
                f"real file descriptor, got {file!r} ({err})"
            ) from None
        self.size = int(stat.st_size)
        self._mmap = None
        self._views = []
        self._dropped = 0  # consumed-prefix bytes already MADV_DONTNEEDed
        if self.size:
            try:
                self._mmap = mmap_module.mmap(
                    fileno, 0, access=mmap_module.ACCESS_READ
                )
            except (OSError, ValueError) as err:
                if self._owns_handle:
                    self._handle.close()
                raise ReproError(
                    f"cannot mmap {file!r}: {err}"
                ) from None
            self._advise_sequential()

    def _advise_sequential(self):
        """Hint streaming access where madvise is available (no-op
        elsewhere — the map works identically without the hint)."""
        madvise = getattr(self._mmap, "madvise", None)
        advice = getattr(mmap_module, "MADV_SEQUENTIAL", None)
        if madvise is None or advice is None:
            return
        try:
            madvise(advice)
        except OSError:  # pragma: no cover - exotic platforms
            pass

    def _drop_behind(self, end):
        """Release consumed pages behind the streaming cursor.

        ``MADV_SEQUENTIAL`` only tunes kernel readahead; already-read
        pages of a mapped file stay resident until memory pressure, so
        a multi-GB streaming pass would grow RSS by the whole corpus.
        Dropping the consumed prefix (page-aligned, clean file-backed
        pages — they stay in the page cache) keeps resident memory at
        roughly one window regardless of corpus size.
        """
        madvise = getattr(self._mmap, "madvise", None)
        advice = getattr(mmap_module, "MADV_DONTNEED", None)
        if madvise is None or advice is None:
            return
        boundary = (end // mmap_module.PAGESIZE) * mmap_module.PAGESIZE
        if boundary <= self._dropped:
            return
        try:
            madvise(advice, self._dropped, boundary - self._dropped)
            self._dropped = boundary
        except OSError:  # pragma: no cover - exotic platforms
            pass

    def chunks(self):
        if self._mmap is None:
            # empty files have nothing to map (mmap rejects length 0);
            # an empty stream is simply no windows, not an error
            return
        buffer = memoryview(self._mmap)
        self._views.append(buffer)
        try:
            for offset in range(0, self.size, self.chunk_bytes):
                window = buffer[offset:offset + self.chunk_bytes]
                # windows are tracked so close() can release them all:
                # an exported memoryview would otherwise keep the map
                # pinned (mmap.close() raises BufferError)
                self._views.append(window)
                yield window
                # the consumer is back for the next window, so the
                # previous one has been framed out — its pages can go
                self._drop_behind(offset)
        finally:
            self.close()

    def close(self):
        views, self._views = self._views, []
        for view in views:
            view.release()
        mapped, self._mmap = self._mmap, None
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:
                raise ReproError(
                    "cannot close MmapSource: a yielded window is "
                    "still referenced outside the source (copy the "
                    "bytes out before closing)"
                ) from None
        if self._owns_handle:
            self._handle.close()


class ReadaheadSource(ChunkSource):
    """Bounded background prefetch over any inner chunk source.

    A dedicated producer thread iterates the wrapped source and parks
    up to ``depth`` chunks in a bounded queue; the consumer (the
    engine's framing + evaluation loop) pops from the queue.  Ingest
    I/O — file reads, socket recvs, mmap page faults — thus overlaps
    filter evaluation instead of running in lockstep with it, without
    the resident footprint ever exceeding ``depth`` extra chunks.

    The wrapper composes with *any* source (file, socket, mmap, async
    adapter, plain iterables); chunk order and content are preserved
    exactly, so framing across chunk seams is unchanged.  Producer
    exceptions are re-raised in the consumer at the point of the failed
    chunk; :meth:`close` stops the producer thread, drains the queue
    and closes the wrapped source (the wrapper takes ownership).
    """

    name = "readahead"

    def __init__(self, source, depth=DEFAULT_READAHEAD_DEPTH,
                 chunk_bytes=DEFAULT_SOURCE_CHUNK_BYTES):
        super().__init__()
        if depth <= 0:
            raise ReproError("readahead depth must be positive")
        self.depth = depth
        self.source = as_chunk_source(source, chunk_bytes)
        #: high-water mark of parked chunks (prefetch actually ahead)
        self.peak_depth = 0
        self._queue = queue_module.Queue(maxsize=depth)
        self._stop = threading.Event()
        self._thread = None
        self._closed = False

    _CHUNK, _DONE, _ERROR = range(3)

    def _pump(self):
        """Producer thread: inner chunks into the bounded queue."""
        try:
            for chunk in self.source:
                if isinstance(chunk, memoryview):
                    # parked chunks outlive the producer's iteration
                    # step, but a view (e.g. an MmapSource window) is
                    # only valid until its source advances/closes —
                    # materialise it here, in the prefetch thread,
                    # where the copy overlaps evaluation
                    chunk = bytes(chunk)
                while not self._stop.is_set():
                    try:
                        self._queue.put((self._CHUNK, chunk),
                                        timeout=0.05)
                        break
                    except queue_module.Full:
                        continue
                else:
                    return
            self._put_control((self._DONE, None))
        except BaseException as err:  # noqa: BLE001 - relayed, not hidden
            self._put_control((self._ERROR, err))

    def _put_control(self, item):
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return
            except queue_module.Full:
                continue

    def chunks(self):
        if self._closed:
            raise ReproError("ReadaheadSource is closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._pump, name="repro-readahead", daemon=True
            )
            self._thread.start()
        try:
            while True:
                self.peak_depth = max(
                    self.peak_depth, self._queue.qsize()
                )
                kind, payload = self._queue.get()
                if kind is self._DONE:
                    return
                if kind is self._ERROR:
                    raise payload
                yield payload
        finally:
            self.close()

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        # unblock a producer parked on a full queue, then wait for it
        # to finish before the inner source (which it iterates) closes
        while True:
            try:
                self._queue.get_nowait()
            except queue_module.Empty:
                break
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.source.close()

    def stats(self):
        stats = super().stats()
        stats["depth"] = self.depth
        stats["peak_depth"] = self.peak_depth
        stats["inner"] = self.source.stats()
        return stats


class SocketSource(ChunkSource):
    """Chunks received from a connected stream socket until EOF.

    Accepts an already connected socket object (ownership stays with
    the caller) or a ``(host, port)`` address to connect to (the source
    owns and closes the connection).  The peer signals end-of-stream by
    shutting down its write side; a peer that closes mid-record simply
    ends the stream there — the engine's framer still yields the
    partial trailing record on flush.

    ``timeout`` (seconds) bounds how long one ``recv`` may block; a
    stalled peer then surfaces as a :class:`ReproError` instead of
    hanging a service ingest loop forever.  The timeout is applied to
    the socket itself, including caller-owned sockets.
    """

    name = "socket"

    def __init__(self, sock, chunk_bytes=DEFAULT_SOURCE_CHUNK_BYTES,
                 timeout=None):
        super().__init__()
        if chunk_bytes <= 0:
            raise ReproError("chunk_bytes must be positive")
        if timeout is not None and timeout <= 0:
            raise ReproError("timeout must be positive (or None)")
        self.chunk_bytes = chunk_bytes
        self.timeout = timeout
        if isinstance(sock, tuple):
            self._sock = socket_module.create_connection(sock)
            self._owns_socket = True
        elif isinstance(sock, socket_module.socket):
            self._sock = sock
            self._owns_socket = False
        else:
            raise ReproError(
                f"SocketSource needs a socket or (host, port), "
                f"got {sock!r}"
            )
        if timeout is not None:
            self._sock.settimeout(timeout)

    def chunks(self):
        recv = self._sock.recv
        while True:
            try:
                chunk = recv(self.chunk_bytes)
            except socket_module.timeout:
                raise ReproError(
                    f"socket recv timed out after {self.timeout}s "
                    f"({self.bytes_read} bytes received so far)"
                ) from None
            if not chunk:
                return
            yield chunk

    def close(self):
        if self._owns_socket:
            self._sock.close()


class AsyncSource(ChunkSource):
    """Adapter draining an async iterable of chunks synchronously.

    The engine's execution loop is synchronous; this adapter pumps an
    ``async def`` producer (``__aiter__``/``__anext__``) one chunk at a
    time on a private event loop, so asyncio-based ingest (asyncio
    streams, aiofiles-style readers) plugs into the same layer without
    an async engine variant.
    """

    name = "async"

    def __init__(self, async_iterable):
        super().__init__()
        if not hasattr(async_iterable, "__aiter__"):
            raise ReproError(
                f"AsyncSource needs an async iterable, "
                f"got {async_iterable!r}"
            )
        self._async_iterable = async_iterable
        self._loop = None
        self._task = None

    def chunks(self):
        import asyncio

        self._loop = asyncio.new_event_loop()
        iterator = self._async_iterable.__aiter__()
        try:
            while True:
                # the pending __anext__ is held as a task so an
                # abandoning consumer can cancel it from close()
                self._task = self._loop.create_task(
                    _anext_coroutine(iterator)
                )
                try:
                    chunk = self._loop.run_until_complete(self._task)
                except StopAsyncIteration:
                    return
                finally:
                    self._task = None
                yield chunk
        finally:
            self.close()

    def close(self):
        """Tear the private loop down without leaking pending work.

        Abandoning a stream mid-iteration (a gateway client vanishing,
        an engine ``stream(...).close()``) must not leave the
        producer's ``__anext__`` task pending or its ``async def``
        generator suspended: the in-flight task is cancelled and
        awaited, then ``loop.shutdown_asyncgens()`` runs the
        producer's finalisers (``finally:`` blocks around its yields)
        before the loop closes — no "task was destroyed but it is
        pending" noise, no skipped producer cleanup.
        """
        import asyncio

        loop, self._loop = self._loop, None
        if loop is None or loop.is_closed():
            return
        task, self._task = self._task, None
        try:
            if task is not None and not task.done():
                task.cancel()
                try:
                    loop.run_until_complete(task)
                except (asyncio.CancelledError, StopAsyncIteration):
                    pass
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


async def _anext_coroutine(iterator):
    """``await iterator.__anext__()`` as a cancellable coroutine."""
    return await iterator.__anext__()


def as_chunk_source(obj, chunk_bytes=DEFAULT_SOURCE_CHUNK_BYTES):
    """Normalise any accepted ingest object into a :class:`ChunkSource`.

    * ``ChunkSource`` — passed through unchanged;
    * ``bytes``/``bytearray``/``memoryview`` — a one-chunk source
      (``bytes`` is always stream *data*, never a path);
    * ``str``/``os.PathLike`` — a source over that path (opened by the
      source, closed at stream end or abandonment): large regular
      files (>= :data:`MMAP_THRESHOLD_BYTES`) become a zero-copy
      :class:`MmapSource`, everything else a :class:`FileSource`;
    * binary file-like (has ``read``) — :class:`FileSource`;
    * ``socket.socket`` — :class:`SocketSource`;
    * async iterable — :class:`AsyncSource`;
    * any other iterable — :class:`IterableSource` over its chunks.

    The path case matters: a ``str`` is iterable, so without it a path
    would be consumed as 1-character text "chunks" and rejected (or
    worse, corrupted) deep in framing instead of being opened.
    """
    if isinstance(obj, ChunkSource):
        return obj
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return IterableSource([obj])
    if isinstance(obj, str) or hasattr(obj, "__fspath__"):
        return _path_source(obj, chunk_bytes)
    if isinstance(obj, socket_module.socket):
        return SocketSource(obj, chunk_bytes)
    if hasattr(obj, "read"):
        return FileSource(obj, chunk_bytes)
    if hasattr(obj, "__aiter__"):
        return AsyncSource(obj)
    if hasattr(obj, "__iter__"):
        return IterableSource(obj)
    raise ReproError(
        f"cannot ingest {obj!r}: expected a ChunkSource, bytes, "
        "a binary handle, a socket, or an (async) iterable of chunks"
    )


def _path_source(path, chunk_bytes):
    """The right source for a filesystem path: mmap for large regular
    files (zero-copy windows, kernel readahead), buffered reads
    otherwise (small files, FIFOs, device nodes)."""
    try:
        stat = os.stat(path)
        is_large_regular = (
            os.path.isfile(path)
            and stat.st_size >= MMAP_THRESHOLD_BYTES
        )
    except OSError:
        is_large_regular = False
    if is_large_regular:
        try:
            return MmapSource(path, chunk_bytes)
        except ReproError:
            # mapping can fail on exotic filesystems; buffered reads
            # always work
            pass
    return FileSource(path, chunk_bytes)


def ingest_records(source, chunk_bytes=DEFAULT_SOURCE_CHUNK_BYTES):
    """Frame every record of a chunk source into a list (in order)."""
    framer = RecordFramer()
    records = []
    for chunk in as_chunk_source(source, chunk_bytes):
        records += framer.push(chunk)
    records += framer.flush()
    return records


def ingest_dataset(source, name="ingest",
                   chunk_bytes=DEFAULT_SOURCE_CHUNK_BYTES):
    """Materialise a chunk source into a :class:`Dataset`.

    The ingest path of the SoC simulations: raw chunks from any source
    are framed on newline boundaries (exactly what the hardware splitter
    keys on) and land as a record corpus the lanes can consume.
    ``Dataset`` instances pass through unchanged; plain record lists are
    wrapped as-is (they are records, not chunks).
    """
    if isinstance(source, Dataset):
        return source
    if isinstance(source, (list, tuple)):
        return Dataset(name, source)
    return Dataset(name, ingest_records(source, chunk_bytes))
