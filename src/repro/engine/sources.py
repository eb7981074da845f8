"""Pluggable chunk ingest for the :class:`FilterEngine` (ChunkSource).

The paper's SoC ingests a raw byte stream from I/O at line rate; the
software engine models that boundary explicitly: a :class:`ChunkSource`
produces bytes-like chunks from *somewhere* (a file, an in-memory
iterable, a connected socket, an async producer) and keeps per-source
accounting (chunks/bytes delivered), while the engine is only concerned
with framing and evaluation.  Every ingest path in the repo — the CLI
``filter``/``bench`` commands, ``FilterEngine.stream`` and the SoC
simulations' dataset ingest — goes through this layer.

There are four sources: :class:`FileSource`, :class:`IterableSource`,
:class:`SocketSource` and :class:`AsyncSource`.  Bytes from a file
reach the framer through :class:`FileSource` only, at every file size:
the framer copies each chunk into its batch once anyway, so buffered
reads cost what a memory map would.

Sources are iterables of bytes chunks and context managers; iterating
updates :attr:`bytes_read`/:attr:`chunks_read` so ``stats()`` reflects
exactly what was delivered.  :func:`as_chunk_source` normalises the
engine's accepted inputs (source instances, raw byte strings,
filesystem paths, file-like handles, sockets, async iterables, plain
iterables) into a source.
"""

from __future__ import annotations

import socket as socket_module

from ..data.corpus import Dataset
from ..errors import ReproError
from .framing import RecordFramer

DEFAULT_SOURCE_CHUNK_BYTES = 1 << 20


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
    * ``str``/``os.PathLike`` — a :class:`FileSource` over that path
      (opened by the source, closed at stream end or abandonment),
      whatever the file's size or kind;
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
        return FileSource(obj, chunk_bytes)
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
