"""The long-running filter gateway (asyncio server).

:class:`FilterGateway` is the paper's §IV-B IoT-gateway deployment as a
real service: a resident process that accepts many concurrent client
sessions, frames each session's byte stream into records, evaluates the
session's raw filter through a shared pool of
:class:`~repro.engine.FilterEngine` instances (all backed by **one**
shared :class:`~repro.engine.atom_cache.AtomCache`, so tenants
streaming overlapping corpora serve each other warm), and streams match
bits + accepted records back in input order.

Service properties:

* **admission control** — at most ``max_sessions`` concurrent sessions
  (excess HELLOs are answered with a typed admission ERROR) and at most
  ``max_inflight_bytes`` of queued-but-unevaluated chunk bytes across
  the whole gateway (excess senders are simply not read, which
  propagates as TCP backpressure);
* **per-session backpressure** — each session buffers at most
  ``queue_chunks`` chunks between its socket reader and its evaluator,
  so one slow evaluation cannot make the gateway's resident memory grow
  with the stream;
* **live filter swap** — a SWAP frame replaces the session's filter at
  an exact point in its stream, charged with the partial-
  reconfiguration downtime model
  (:func:`repro.system.multi.reconfiguration_seconds`);
* **graceful drain** — :meth:`shutdown` stops accepting, lets in-flight
  sessions finish within ``drain_timeout`` seconds, then cancels.

The evaluator task is a session's only frame writer, so RESULT /
SWAP_OK / STATS_OK frames arrive strictly in stream order.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor

from ..engine import FilterEngine, RecordFramer, as_atom_cache
from ..system.multi import reconfiguration_seconds
from . import protocol
from .metrics import GatewayMetrics
from .protocol import (
    AdmissionError,
    GatewayError,
    ProtocolError,
    SessionError,
)

DEFAULT_PORT = 7707


def _parse_expression(text):
    """Parse a wire-format filter expression (CLI compact syntax)."""
    from ..cli import parse_filter_expression

    return parse_filter_expression(text)


class EnginePool:
    """A fixed set of engines multiplexed across sessions.

    All engines share one :class:`AtomCache` (that is the point of the
    gateway: the second tenant streaming a corpus is served from the
    masks the first tenant's session computed).  Sessions check an
    engine out per batch, so ``N`` sessions make progress over
    ``size`` engines without tying a session to an engine.

    ``workers > 1`` makes every engine a *pooled* engine: each keeps a
    persistent :class:`~repro.engine.transport.ResidentWorkerPool`
    whose worker processes are spawned once here (``warm_up()``,
    before the gateway's executor threads exist) and evaluate each
    batch sharded across warm workers — one listen socket driving
    multi-process evaluation.
    """

    def __init__(self, size=2, cache=True, backend="compiled",
                 workers=1, cache_store=None):
        if size <= 0:
            raise GatewayError("engine pool size must be positive")
        if workers <= 0:
            raise GatewayError("engine workers must be positive")
        if cache is True or (cache in (None, False)
                             and cache_store is not None):
            # a service sees many (batch x atom) entries per stream;
            # the default 1024-entry LRU would evict a long stream's
            # working set before a second tenant can reuse it, so the
            # gateway cache is byte-bounded only
            from ..engine import AtomCache

            cache = AtomCache(max_entries=None)
        self.cache = as_atom_cache(cache)
        if cache_store is not None:
            # disk tier under the shared cache: a restarted gateway
            # serves the previous process's masks warm, promoted on
            # demand — the log index is scanned, not loaded into RAM
            self.cache.attach_store(cache_store)
        self.workers = workers
        self.engines = [
            FilterEngine(backend=backend, cache=self.cache,
                         num_workers=workers)
            for _ in range(size)
        ]
        if workers > 1:
            # pre-fork the resident workers from the constructing
            # thread, before the gateway starts executor threads —
            # forking later from a threaded process is fragile
            for engine in self.engines:
                engine.warm_up()
        self._free = None  # asyncio.Queue, created on the serving loop

    def bind(self):
        self._free = asyncio.Queue()
        for engine in self.engines:
            self._free.put_nowait(engine)

    async def acquire(self):
        return await self._free.get()

    def release(self, engine):
        self._free.put_nowait(engine)

    def close(self):
        """Tear down the engines' resident worker pools (idempotent)."""
        for engine in self.engines:
            engine.close()

    def stats(self):
        stats = self.engines[0].stats()
        stats["engines"] = len(self.engines)
        stats["engine_workers"] = self.workers
        return stats


def _evaluate_batch(engine, predicate, batch):
    """Executor-side batch evaluation with cache-delta attribution."""
    cache = engine.atom_cache
    # this thread's own lookups: the cache is shared by every executor
    # thread, so its totals would book another tenant's lookups here
    before = cache.thread_counts() if cache is not None else None
    matches = engine.match_bits(predicate, batch)
    delta = None
    if before is not None:
        hits, misses = cache.thread_counts()
        delta = (hits - before[0], misses - before[1])
    return matches, delta


#: command-queue sentinel: the reader saw EOF (or stopped on error)
_EOF = object()


class Session:
    """One client connection: reader -> bounded queue -> evaluator."""

    def __init__(self, gateway, reader, writer, tenant, session_id,
                 observer=False):
        self.gateway = gateway
        self.reader = reader
        self.writer = writer
        self.tenant = tenant
        self.session_id = session_id
        #: observer sessions are read-only: STATS is the only verb —
        #: they bypassed admission, so letting them stream would be an
        #: unmetered hole in the session ceiling
        self.observer = observer
        self.queue = asyncio.Queue(maxsize=gateway.queue_chunks)
        self.framer = None
        self.predicate = None
        self.records_seen = 0
        self.accepted_seen = 0
        self.batches_sent = 0
        self.disconnected = False
        #: set once the evaluator is gone — the reader must stop
        #: instead of queueing frames nobody will drain
        self.dead = False
        #: bytes of the chunk the reader has reserved but not yet
        #: queued; released by the handler if the reader is cancelled
        #: mid-put, so the gateway-wide inflight budget cannot leak
        self._in_hand = 0

    # -- socket reader -------------------------------------------------------

    async def run_reader(self):
        """Frames from the socket into the bounded command queue."""
        try:
            while not self.dead:
                frame = await protocol.read_frame_async(self.reader)
                if frame is None:
                    # EOF with an unfinished query (no END frame) is a
                    # mid-stream disconnect, orderly close or not
                    self.disconnected = self.framer is not None
                    return
                frame_type, payload = frame
                if frame_type == protocol.CHUNK:
                    await self.gateway._reserve(len(payload))
                    self._in_hand = len(payload)
                    self.tenant.bytes_in += len(payload)
                    self.tenant.chunks += 1
                    self.tenant.enqueued(len(payload))
                elif frame_type not in (
                    protocol.QUERY, protocol.SWAP,
                    protocol.STATS, protocol.END,
                ):
                    raise ProtocolError(
                        "unexpected "
                        f"{protocol.FRAME_NAMES[frame_type]} frame "
                        "from a client mid-session"
                    )
                await self.queue.put((frame_type, payload))
                self._in_hand = 0
        except ProtocolError as err:
            self.gateway.metrics.note_protocol_error()
            self.tenant.errors += 1
            await self.queue.put((protocol.ERROR, err))
        except (ConnectionError, OSError):
            self.disconnected = True
        finally:
            await self.queue.put((_EOF, None))

    # -- evaluator (the session's only frame writer) ------------------------

    async def _send(self, frame):
        self.writer.write(frame)
        await self.writer.drain()

    async def run_evaluator(self):
        try:
            while True:
                frame_type, payload = await self.queue.get()
                if frame_type is _EOF:
                    return
                if frame_type == protocol.ERROR:
                    # reader-detected protocol error, surfaced in order
                    await self._send_error(payload)
                    return
                try:
                    done = await self._dispatch(frame_type, payload)
                except GatewayError as err:
                    self.tenant.errors += 1
                    await self._send_error(err)
                    return
                if done:
                    return
        except (ConnectionError, OSError):
            self.disconnected = True
        finally:
            self.dead = True
            self._drain_queue()

    async def _dispatch(self, frame_type, payload):
        if self.observer and frame_type != protocol.STATS:
            raise SessionError(
                "observer sessions are read-only: only STATS is "
                "allowed (reconnect without observer to stream)"
            )
        if frame_type == protocol.CHUNK:
            await self._on_chunk(payload)
        elif frame_type == protocol.QUERY:
            await self._on_query(payload)
        elif frame_type == protocol.SWAP:
            await self._on_swap(payload)
        elif frame_type == protocol.STATS:
            await self._send(protocol.encode_json_frame(
                protocol.STATS_OK, self.gateway.snapshot()
            ))
        elif frame_type == protocol.END:
            await self._on_end()
        return False

    async def _on_query(self, payload):
        info = protocol.decode_json(protocol.QUERY, payload)
        expression = info.get("expression")
        if not isinstance(expression, str):
            raise SessionError("QUERY needs an 'expression' string")
        try:
            self.predicate = _parse_expression(expression)
        except GatewayError:
            raise
        except Exception as err:
            raise SessionError(f"bad query expression: {err}") from None
        self.framer = RecordFramer()
        self.records_seen = 0
        self.accepted_seen = 0
        self.batches_sent = 0
        self.tenant.queries += 1
        await self._send(protocol.encode_json_frame(
            protocol.QUERY_OK,
            {"expression": self.predicate.notation()},
        ))

    async def _on_chunk(self, payload):
        nbytes = len(payload)
        self.tenant.dequeued(nbytes)
        try:
            if self.framer is None:
                raise SessionError(
                    "CHUNK before QUERY: submit a filter expression "
                    "before streaming data"
                )
            batch = self.framer.push(payload)
            if batch:
                await self._evaluate_and_reply(batch)
        finally:
            await self.gateway._release(nbytes)

    async def _on_swap(self, payload):
        info = protocol.decode_json(protocol.SWAP, payload)
        expression = info.get("expression")
        if not isinstance(expression, str):
            raise SessionError("SWAP needs an 'expression' string")
        if self.predicate is None:
            raise SessionError("SWAP before QUERY")
        try:
            predicate = _parse_expression(expression)
        except GatewayError:
            raise
        except Exception as err:
            raise SessionError(f"bad swap expression: {err}") from None
        downtime = reconfiguration_seconds(predicate)
        # charge the partial-reconfiguration latency before the new
        # filter takes effect — the stream order around the SWAP frame
        # is exactly the record boundary where the filter changes
        await asyncio.sleep(downtime)
        self.predicate = predicate
        self.tenant.swapped(downtime)
        await self._send(protocol.encode_json_frame(
            protocol.SWAP_OK,
            {
                "expression": predicate.notation(),
                "downtime_seconds": downtime,
            },
        ))

    async def _on_end(self):
        if self.framer is None:
            raise SessionError("END before QUERY")
        tail = self.framer.flush()
        if tail:
            await self._evaluate_and_reply(tail)
        await self._send(protocol.encode_json_frame(
            protocol.END_OK,
            {
                "records": self.records_seen,
                "accepted": self.accepted_seen,
                "bytes": self.framer.bytes_consumed,
                "batches": self.batches_sent,
            },
        ))
        # the connection may submit a fresh QUERY next
        self.framer = None
        self.predicate = None

    async def _evaluate_and_reply(self, batch):
        gateway = self.gateway
        engine = await gateway.pool.acquire()
        try:
            matches, delta = await asyncio.get_running_loop() \
                .run_in_executor(
                    gateway._executor, _evaluate_batch,
                    engine, self.predicate, batch,
                )
        finally:
            gateway.pool.release(engine)
        accepted = batch.select(matches)
        self.records_seen += len(batch)
        self.accepted_seen += len(accepted)
        self.batches_sent += 1
        self.tenant.evaluated(len(batch), len(accepted), delta)
        await self._send(protocol.encode_frame(
            protocol.RESULT, protocol.encode_result(matches, accepted)
        ))

    async def _send_error(self, err):
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(protocol.encode_json_frame(
                protocol.ERROR,
                {
                    "error": str(err),
                    "kind": protocol.error_to_kind(err),
                },
            ))

    def _drain_queue(self):
        """Release inflight accounting for frames nobody will process."""
        while True:
            try:
                frame_type, payload = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if frame_type == protocol.CHUNK:
                self.tenant.dequeued(len(payload))
                self.gateway._release_nowait(len(payload))

    def _release_in_hand(self):
        """Final cleanup for a chunk the reader never managed to queue
        (cancelled between reserve and put); handler-only, after both
        session tasks have finished."""
        in_hand, self._in_hand = self._in_hand, 0
        if in_hand:
            self.tenant.dequeued(in_hand)
            self.gateway._release_nowait(in_hand)


class FilterGateway:
    """A multi-tenant streaming filter service on one listen socket."""

    def __init__(self, host="127.0.0.1", port=0, *, engines=2,
                 cache=True, backend="compiled", workers=1,
                 cache_store=None, max_sessions=32,
                 max_inflight_bytes=64 << 20, queue_chunks=8,
                 drain_timeout=5.0):
        if max_sessions <= 0:
            raise GatewayError("max_sessions must be positive")
        if max_inflight_bytes <= 0:
            raise GatewayError("max_inflight_bytes must be positive")
        if queue_chunks <= 0:
            raise GatewayError("queue_chunks must be positive")
        self.host = host
        self.port = port
        self.pool = EnginePool(engines, cache=cache, backend=backend,
                               workers=workers, cache_store=cache_store)
        self.max_sessions = max_sessions
        self.max_inflight_bytes = max_inflight_bytes
        self.queue_chunks = queue_chunks
        self.drain_timeout = drain_timeout
        self.metrics = GatewayMetrics()
        self._server = None
        self._executor = None
        self._sessions = set()
        self._session_ids = itertools.count(1)
        self._inflight = 0
        self._inflight_cond = None
        self._shutdown_event = None
        self._closing = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind and start accepting; returns once listening."""
        self.pool.bind()
        self._inflight_cond = asyncio.Condition()
        self._shutdown_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=len(self.pool.engines),
            thread_name_prefix="gateway-eval",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self):
        """Block until :meth:`shutdown` is called."""
        await self._shutdown_event.wait()

    async def shutdown(self):
        """Graceful drain: stop accepting, finish sessions, then cut."""
        if self._closing:
            self._shutdown_event.set()
            return
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        if self._sessions:
            _, pending = await asyncio.wait(
                set(self._sessions), timeout=self.drain_timeout
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True, cancel_futures=True)
        # resident worker pools go down after the executor: no thread
        # can be mid-evaluation on a pooled engine past this point
        self.pool.close()
        self._shutdown_event.set()

    # -- admission + inflight policy ----------------------------------------

    async def _reserve(self, nbytes):
        async with self._inflight_cond:
            # a chunk larger than the whole budget is still admitted
            # when it is alone — otherwise it could never proceed
            while (self._inflight > 0
                   and self._inflight + nbytes
                   > self.max_inflight_bytes):
                await self._inflight_cond.wait()
            self._inflight += nbytes
            self.metrics.inflight_changed(nbytes)

    async def _release(self, nbytes):
        async with self._inflight_cond:
            self._release_nowait(nbytes)
            self._inflight_cond.notify_all()

    def _release_nowait(self, nbytes):
        self._inflight -= nbytes
        self.metrics.inflight_changed(-nbytes)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._sessions.add(task)
        session = None
        try:
            session = await self._handshake(reader, writer)
            if session is None:
                return
            reader_task = asyncio.ensure_future(session.run_reader())
            eval_task = asyncio.ensure_future(session.run_evaluator())
            done, pending = await asyncio.wait(
                {reader_task, eval_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if reader_task in pending:
                # the evaluator ended first (error/close); reading on
                # would fill a queue nobody drains
                reader_task.cancel()
            await asyncio.gather(
                reader_task, eval_task, return_exceptions=True
            )
        finally:
            self._sessions.discard(task)
            if session is not None:
                session._drain_queue()
                session._release_in_hand()
                session.tenant.session_closed(session.disconnected)
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _handshake(self, reader, writer):
        """HELLO/HELLO_OK exchange; admission control happens here."""
        try:
            frame = await protocol.read_frame_async(reader)
        except ProtocolError as err:
            self.metrics.note_protocol_error()
            await self._refuse(writer, err)
            return None
        if frame is None:
            return None
        frame_type, payload = frame
        if frame_type != protocol.HELLO:
            self.metrics.note_protocol_error()
            await self._refuse(writer, ProtocolError(
                f"expected HELLO, got "
                f"{protocol.FRAME_NAMES[frame_type]}"
            ))
            return None
        try:
            info = protocol.decode_json(protocol.HELLO, payload)
        except ProtocolError as err:
            self.metrics.note_protocol_error()
            await self._refuse(writer, err)
            return None
        observer = bool(info.get("observer"))
        if self._closing or (
            not observer
            and self.metrics.active_sessions >= self.max_sessions
        ):
            self.metrics.note_admission_rejection()
            await self._refuse(writer, AdmissionError(
                f"gateway at capacity "
                f"({self.max_sessions} sessions); retry later"
            ))
            return None
        if observer:
            # monitoring probes (repro serve --status) bypass session
            # admission — observability must work exactly when the
            # gateway is saturated — and stay out of the per-tenant
            # traffic metrics (an unregistered TenantMetrics)
            from .metrics import TenantMetrics

            tenant = TenantMetrics(
                str(info.get("tenant", "observer"))
            )
        else:
            tenant = self.metrics.tenant(
                str(info.get("tenant", "anonymous"))
            )
        tenant.session_opened()
        session = Session(
            self, reader, writer, tenant, next(self._session_ids),
            observer=observer,
        )
        writer.write(protocol.encode_json_frame(
            protocol.HELLO_OK,
            {"session": session.session_id, "version": protocol.VERSION},
        ))
        await writer.drain()
        return session

    async def _refuse(self, writer, err):
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(protocol.encode_json_frame(
                protocol.ERROR,
                {"error": str(err), "kind": protocol.error_to_kind(err)},
            ))
            await writer.drain()
            writer.close()
            await writer.wait_closed()

    # -- observability -------------------------------------------------------

    def snapshot(self):
        """The STATS_OK document: tenants + gateway + engine stats."""
        return self.metrics.snapshot(self.pool.stats())


# -- running a gateway from synchronous code --------------------------------

class GatewayThread:
    """A :class:`FilterGateway` on a background event-loop thread.

    The sync doorway used by the CLI tests, the benchmarks and the
    examples: ``with GatewayThread(engines=2) as gw:`` yields a running
    gateway whose ``port`` a :class:`~repro.serve.client.GatewayClient`
    can connect to from the calling thread.
    """

    def __init__(self, **gateway_kwargs):
        import threading

        self._kwargs = gateway_kwargs
        self.gateway = None
        self.port = None
        self._loop = None
        self._thread = None
        self._ready = threading.Event()
        self._startup_error = None

    def start(self):
        import threading

        self._thread = threading.Thread(
            target=self._run, name="filter-gateway", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise GatewayError("gateway thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self):
        try:
            asyncio.run(self._main())
        except Exception as err:  # pragma: no cover - startup races
            self._startup_error = GatewayError(
                f"gateway thread died: {err}"
            )
            self._ready.set()

    async def _main(self):
        try:
            self.gateway = FilterGateway(**self._kwargs)
            await self.gateway.start()
            self._loop = asyncio.get_running_loop()
            self.port = self.gateway.port
        except Exception as err:
            self._startup_error = GatewayError(
                f"gateway failed to start: {err}"
            )
            self._ready.set()
            return
        self._ready.set()
        await self.gateway.serve_forever()

    def snapshot(self):
        """Metrics snapshot, safe to call from the client thread."""
        return self.gateway.snapshot()

    def stop(self, timeout=10):
        if self._loop is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.gateway.shutdown(), self._loop
            )
            future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False
