"""Gateway clients: stream a ChunkSource up, get filtered results back.

Two flavours over the same wire protocol:

* :class:`GatewayClient` — synchronous, over a blocking socket.  A
  background feeder thread streams the chunks (so server backpressure
  cannot deadlock against result reading) while the calling thread
  iterates :class:`ResultBatch` objects.
* :class:`AsyncGatewayClient` — asyncio streams, with the same
  high-level :meth:`~AsyncGatewayClient.submit` plus low-level
  ``query/send_chunk/swap/end/results`` methods for callers that need
  to place a SWAP at an exact point in the stream.

Both accept anything :func:`~repro.engine.sources.as_chunk_source`
does — a path, raw bytes, a binary handle, a socket, another
``ChunkSource`` — and both surface server-side failures as the typed
errors of :mod:`repro.serve.protocol`.
"""

from __future__ import annotations

import contextlib
import socket as socket_module
import threading

import numpy as np

from ..engine import as_chunk_source
from . import protocol
from .protocol import GatewayError, ProtocolError

DEFAULT_CHUNK_BYTES = 64 * 1024


def _client_source(obj, chunk_bytes):
    """Like :func:`as_chunk_source`, but raw bytes are split.

    The engine treats a ``bytes`` input as one chunk; a client is the
    ingest edge, so a whole in-memory corpus is cut into
    ``chunk_bytes`` CHUNK frames — otherwise "streaming" a byte string
    would ship one giant frame and defeat the gateway's bounded
    per-session queues.
    """
    if isinstance(obj, (bytes, bytearray, memoryview)):
        view = memoryview(obj)

        def slices():
            # lazy, via memoryview: no second whole-corpus copy
            for start in range(0, len(view), chunk_bytes):
                yield bytes(view[start:start + chunk_bytes])

        return as_chunk_source(slices(), chunk_bytes)
    return as_chunk_source(obj, chunk_bytes)


class ResultBatch:
    """One RESULT frame: match bits + accepted records, in order."""

    __slots__ = ("index", "matches", "accepted")

    def __init__(self, index, matches, accepted):
        self.index = index
        self.matches = matches
        self.accepted = accepted

    def __len__(self):
        return int(self.matches.shape[0])

    def __repr__(self):
        return (
            f"ResultBatch(#{self.index}, records={len(self)}, "
            f"accepted={int(np.count_nonzero(self.matches))})"
        )


class GatewayClient:
    """Synchronous gateway client (one session per connection)."""

    def __init__(self, host, port, tenant="client",
                 chunk_bytes=DEFAULT_CHUNK_BYTES, timeout=30.0,
                 observer=False):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.chunk_bytes = chunk_bytes
        self.timeout = timeout
        #: observer sessions (monitoring/STATS probes) bypass the
        #: gateway's session admission control and stay out of the
        #: per-tenant traffic metrics
        self.observer = observer
        self.session_id = None
        #: END_OK summary of the most recent completed submission
        self.last_summary = None
        #: most recent STATS_OK snapshot observed mid-stream
        self.last_stats = None
        #: SWAP_OK acknowledgements observed during the current stream
        self.swaps = []
        self._sock = None
        self._stream = None
        self._write_lock = threading.Lock()

    # -- connection ----------------------------------------------------------

    def connect(self):
        self._sock = socket_module.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._stream = protocol.SocketFrameStream(self._sock)
        try:
            self._send(protocol.encode_json_frame(
                protocol.HELLO,
                {
                    "tenant": self.tenant,
                    "protocol": protocol.VERSION,
                    "observer": self.observer,
                },
            ))
            frame_type, payload = self._expect_frame()
            if frame_type == protocol.ERROR:
                protocol.raise_error_frame(payload)
            if frame_type != protocol.HELLO_OK:
                raise ProtocolError(
                    f"expected HELLO_OK, got "
                    f"{protocol.FRAME_NAMES[frame_type]}"
                )
            self.session_id = protocol.decode_json(
                protocol.HELLO_OK, payload
            )["session"]
        except BaseException:
            # a refused or broken handshake leaves no socket open
            self.close()
            raise
        return self

    def close(self):
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None
            self._stream = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- frame plumbing ------------------------------------------------------

    def _send(self, frame):
        # one lock for every writer (caller thread + feeder thread),
        # so frames can never interleave mid-header
        with self._write_lock:
            if self._stream is None:
                raise GatewayError("connection closed")
            self._stream.send(frame)

    def _expect_frame(self):
        frame = self._stream.read_frame()
        if frame is None:
            raise GatewayError(
                "gateway closed the connection unexpectedly"
            )
        return frame

    def _require_connected(self):
        if self._stream is None:
            raise GatewayError(
                "client is not connected (call connect() first)"
            )

    # -- the streaming API ---------------------------------------------------

    def submit(self, expression, source, chunk_bytes=None):
        """Stream ``source`` through the gateway; yield result batches.

        ``expression`` is a CLI-syntax filter string.  Chunks are fed
        from a background thread while this generator yields each
        :class:`ResultBatch` as the server evaluates it; the END_OK
        summary lands in :attr:`last_summary`.

        Abandoning the generator before the END_OK arrives (or a
        server-reported error) **closes the connection**: the session's
        remaining frames cannot be resynchronised, so the socket is
        the right thing to give up — reconnect to submit again.
        """
        self._require_connected()
        source = _client_source(
            source, chunk_bytes or self.chunk_bytes
        )
        self._send(protocol.encode_json_frame(
            protocol.QUERY, {"expression": expression}
        ))
        self.swaps = []
        self.last_summary = None

        def feed():
            try:
                for chunk in source:
                    self._send(protocol.encode_frame(
                        protocol.CHUNK, chunk
                    ))
                self._send(protocol.encode_frame(protocol.END))
            except (OSError, GatewayError, ValueError):
                # the connection (or the source, on abandonment) went
                # away mid-feed; the read loop surfaces the typed
                # reason where there is one
                pass

        feeder = threading.Thread(
            target=feed, name="gateway-feeder", daemon=True
        )
        started = False
        index = 0
        try:
            while True:
                frame_type, payload = self._expect_frame()
                if frame_type == protocol.ERROR:
                    protocol.raise_error_frame(payload)
                if frame_type == protocol.QUERY_OK:
                    if not started:
                        feeder.start()
                        started = True
                    continue
                if frame_type == protocol.RESULT:
                    matches, accepted = protocol.decode_result(payload)
                    yield ResultBatch(index, matches, accepted)
                    index += 1
                    continue
                if frame_type == protocol.SWAP_OK:
                    self.swaps.append(protocol.decode_json(
                        protocol.SWAP_OK, payload
                    ))
                    continue
                if frame_type == protocol.STATS_OK:
                    self.last_stats = protocol.decode_json(
                        protocol.STATS_OK, payload
                    )
                    continue
                if frame_type == protocol.END_OK:
                    self.last_summary = protocol.decode_json(
                        protocol.END_OK, payload
                    )
                    return
                raise ProtocolError(
                    f"unexpected {protocol.FRAME_NAMES[frame_type]} "
                    "frame during a submission"
                )
        finally:
            if self.last_summary is None:
                # abandoned or failed mid-stream: unread RESULT frames
                # make the connection unusable, and closing it is also
                # what unblocks a feeder stuck in sendall; the source
                # is closed only after the feeder stopped reading it
                self.close()
                if started:
                    feeder.join(timeout=self.timeout)
                source.close()
            elif started:
                feeder.join(timeout=self.timeout)

    def filter(self, expression, source, chunk_bytes=None):
        """Yield only the accepted records of a submission."""
        for batch in self.submit(expression, source, chunk_bytes):
            yield from batch.accepted

    def swap(self, expression):
        """Request a live filter swap for the current stream.

        The acknowledgement (with its reconfiguration downtime) arrives
        in stream order and is collected into :attr:`swaps` by the
        active :meth:`submit` generator.
        """
        self._require_connected()
        self._send(protocol.encode_json_frame(
            protocol.SWAP, {"expression": expression}
        ))

    def stats(self):
        """Fetch the gateway's metrics snapshot (between submissions)."""
        self._require_connected()
        self._send(protocol.encode_frame(protocol.STATS))
        frame_type, payload = self._expect_frame()
        if frame_type == protocol.ERROR:
            protocol.raise_error_frame(payload)
        if frame_type != protocol.STATS_OK:
            raise ProtocolError(
                f"expected STATS_OK, got "
                f"{protocol.FRAME_NAMES[frame_type]}"
            )
        return protocol.decode_json(protocol.STATS_OK, payload)


class AsyncGatewayClient:
    """Asyncio gateway client with deterministic frame placement."""

    def __init__(self, host, port, tenant="client",
                 chunk_bytes=DEFAULT_CHUNK_BYTES, observer=False):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.chunk_bytes = chunk_bytes
        self.observer = observer
        self.session_id = None
        self.last_summary = None
        self.last_stats = None
        self.swaps = []
        self._reader = None
        self._writer = None

    # -- connection ----------------------------------------------------------

    async def connect(self):
        import asyncio

        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        try:
            await self._send(protocol.encode_json_frame(
                protocol.HELLO,
                {
                    "tenant": self.tenant,
                    "protocol": protocol.VERSION,
                    "observer": self.observer,
                },
            ))
            frame_type, payload = await self._expect_frame()
            if frame_type == protocol.ERROR:
                protocol.raise_error_frame(payload)
            if frame_type != protocol.HELLO_OK:
                raise ProtocolError(
                    f"expected HELLO_OK, got "
                    f"{protocol.FRAME_NAMES[frame_type]}"
                )
            self.session_id = protocol.decode_json(
                protocol.HELLO_OK, payload
            )["session"]
        except BaseException:
            # a refused or broken handshake leaves no writer open
            await self.close()
            raise
        return self

    async def close(self):
        if self._writer is not None:
            with contextlib.suppress(ConnectionError, OSError):
                self._writer.close()
                await self._writer.wait_closed()
            self._reader = self._writer = None

    async def __aenter__(self):
        return await self.connect()

    async def __aexit__(self, *exc_info):
        await self.close()
        return False

    # -- low-level frame API -------------------------------------------------

    async def _send(self, frame):
        self._writer.write(frame)
        await self._writer.drain()

    async def _expect_frame(self):
        frame = await protocol.read_frame_async(self._reader)
        if frame is None:
            raise GatewayError(
                "gateway closed the connection unexpectedly"
            )
        return frame

    async def query(self, expression):
        await self._send(protocol.encode_json_frame(
            protocol.QUERY, {"expression": expression}
        ))

    async def send_chunk(self, chunk):
        await self._send(protocol.encode_frame(protocol.CHUNK, chunk))

    async def swap(self, expression):
        await self._send(protocol.encode_json_frame(
            protocol.SWAP, {"expression": expression}
        ))

    async def end(self):
        await self._send(protocol.encode_frame(protocol.END))

    async def request_stats(self):
        """Fire a STATS frame mid-stream; the STATS_OK reply arrives
        in stream order and is collected into :attr:`last_stats` by
        the :meth:`results` loop."""
        await self._send(protocol.encode_frame(protocol.STATS))

    async def stats(self):
        await self._send(protocol.encode_frame(protocol.STATS))
        frame_type, payload = await self._expect_frame()
        if frame_type == protocol.ERROR:
            protocol.raise_error_frame(payload)
        if frame_type != protocol.STATS_OK:
            raise ProtocolError(
                f"expected STATS_OK, got "
                f"{protocol.FRAME_NAMES[frame_type]}"
            )
        return protocol.decode_json(protocol.STATS_OK, payload)

    async def results(self):
        """Async-iterate result frames until END_OK (stream order)."""
        index = 0
        while True:
            frame_type, payload = await self._expect_frame()
            if frame_type == protocol.ERROR:
                protocol.raise_error_frame(payload)
            if frame_type == protocol.QUERY_OK:
                continue
            if frame_type == protocol.RESULT:
                matches, accepted = protocol.decode_result(payload)
                yield ResultBatch(index, matches, accepted)
                index += 1
                continue
            if frame_type == protocol.SWAP_OK:
                self.swaps.append(protocol.decode_json(
                    protocol.SWAP_OK, payload
                ))
                continue
            if frame_type == protocol.STATS_OK:
                self.last_stats = protocol.decode_json(
                    protocol.STATS_OK, payload
                )
                continue
            if frame_type == protocol.END_OK:
                self.last_summary = protocol.decode_json(
                    protocol.END_OK, payload
                )
                return
            raise ProtocolError(
                f"unexpected {protocol.FRAME_NAMES[frame_type]} "
                "frame during a submission"
            )

    # -- high-level submit ---------------------------------------------------

    async def submit(self, expression, source, chunk_bytes=None):
        """Stream a source and yield result batches, fully async."""
        import asyncio

        source = _client_source(
            source, chunk_bytes or self.chunk_bytes
        )
        await self.query(expression)
        self.swaps = []
        self.last_summary = None

        async def feed():
            try:
                for chunk in source:
                    await self.send_chunk(chunk)
                await self.end()
            except (ConnectionError, OSError):
                pass  # the results loop surfaces the typed reason

        feeder = asyncio.ensure_future(feed())
        try:
            async for batch in self.results():
                yield batch
        finally:
            if not feeder.done():
                feeder.cancel()
            with contextlib.suppress(
                asyncio.CancelledError, Exception
            ):
                await feeder
            if self.last_summary is None:
                # abandoned or failed mid-stream: the session's
                # remaining frames cannot be resynchronised
                await self.close()
                source.close()
