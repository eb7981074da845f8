"""Tests for the multi-tenant filter gateway (repro.serve).

Covers the wire protocol units, the gateway's service properties
(admission, backpressure, disconnect isolation, live swap, drain), the
differential guarantee (gateway results are bit-identical to an offline
``FilterEngine.stream`` run) and the multi-tenant cache-sharing smoke
that CI runs standalone.
"""

import asyncio
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.cli import parse_filter_expression
from repro.data import load_dataset
from repro.engine import FilterEngine, ingest_dataset
from repro.errors import ReproError
from repro.eval.harness import DatasetView, evaluate_expression
from repro.serve import (
    AdmissionError,
    AsyncGatewayClient,
    EnginePool,
    FrameDecoder,
    GatewayClient,
    GatewayError,
    GatewayThread,
    ProtocolError,
    SessionError,
    render_status,
)
from repro.serve import protocol
from repro.serve import server as serve_server

EXPR = "group(s:1:temperature,v:float:0.7:35.1)"
HUMIDITY_EXPR = "group(s:1:humidity,v:float:20.3:69.1)"


def offline_bits(expression, payload):
    """Reference match bits from the harness's full-batch evaluation of
    the framed payload, so the compiled gateway is checked against a
    different evaluator."""
    view = DatasetView(ingest_dataset(payload))
    return evaluate_expression(
        view, parse_filter_expression(expression), {}
    ).tolist()


def collect(client, expression, payload, chunk_bytes=None):
    """Stream through the gateway; return (bits, accepted records)."""
    bits, accepted = [], []
    for batch in client.submit(expression, payload, chunk_bytes):
        bits.extend(batch.matches.tolist())
        accepted.extend(batch.accepted)
    return bits, accepted


@pytest.fixture(scope="module")
def payload():
    return load_dataset("smartcity", 300, seed=11).stream.tobytes()


@pytest.fixture()
def gateway():
    with GatewayThread(engines=2) as gw:
        yield gw


# ---------------------------------------------------------------------------
# protocol units
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_frame_roundtrip_through_decoder(self):
        frames = [
            protocol.encode_json_frame(protocol.HELLO, {"tenant": "t"}),
            protocol.encode_frame(protocol.CHUNK, b"raw \x00 bytes"),
            protocol.encode_frame(protocol.END),
        ]
        wire = b"".join(frames)
        decoder = FrameDecoder()
        seen = []
        # feed byte by byte: partial headers/payloads must carry over
        for i in range(len(wire)):
            decoder.feed(wire[i:i + 1])
            seen.extend(decoder.frames())
        assert [t for t, _ in seen] == [
            protocol.HELLO, protocol.CHUNK, protocol.END
        ]
        assert seen[1][1] == b"raw \x00 bytes"
        assert decoder.pending_bytes == 0

    def test_malformed_frames_raise_typed_errors(self):
        with pytest.raises(ProtocolError, match="magic"):
            decode = FrameDecoder()
            decode.feed(b"XX" + b"\x00" * 14)
            list(decode.frames())
        with pytest.raises(ProtocolError, match="version"):
            decode = FrameDecoder()
            decode.feed(b"RF\x63\x01\x00\x00\x00\x00")
            list(decode.frames())
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode = FrameDecoder()
            decode.feed(b"RF\x01\x7f\x00\x00\x00\x00")
            list(decode.frames())
        with pytest.raises(ProtocolError, match="frame limit"):
            decode = FrameDecoder()
            decode.feed(b"RF\x01\x05\xff\xff\xff\xff")
            list(decode.frames())
        with pytest.raises(ProtocolError):
            protocol.encode_frame(99, b"")
        assert isinstance(ProtocolError("x"), ReproError)

    def test_json_payload_validation(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_json(protocol.HELLO, b"\xff\xfe")
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_json(protocol.HELLO, b"[1,2]")

    def test_result_roundtrip(self):
        records = [b'{"a":1}', b'{"b":2}', b'{"c":3}']
        matches = np.array([True, False, True])
        accepted = [records[0], records[2]]
        payload = protocol.encode_result(matches, accepted)
        got_matches, got_accepted = protocol.decode_result(payload)
        assert got_matches.tolist() == matches.tolist()
        assert got_accepted == accepted

    def test_result_roundtrip_empty_batch(self):
        payload = protocol.encode_result(np.array([], dtype=bool), [])
        matches, accepted = protocol.decode_result(payload)
        assert matches.tolist() == []
        assert accepted == []

    def test_result_rejects_corrupt_payloads(self):
        with pytest.raises(ProtocolError):
            protocol.decode_result(b"\x00")
        with pytest.raises(ProtocolError):
            protocol.decode_result(b"\x00\x00\x00\x09\x00\x00\x00\x00")
        good = protocol.encode_result(
            np.array([True]), [b'{"a":1}']
        )
        with pytest.raises(ProtocolError):
            # accepted-record count no longer matches the bit vector
            protocol.decode_result(good + b"\nextra")

    def test_error_frames_map_to_typed_exceptions(self):
        for kind, exc in [
            ("protocol", ProtocolError),
            ("admission", AdmissionError),
            ("query", SessionError),
            ("unheard-of", SessionError),
        ]:
            frame = protocol.encode_json_frame(
                protocol.ERROR, {"error": "boom", "kind": kind}
            )
            _, payload = next(iter(_decode_all(frame)))
            with pytest.raises(exc, match="boom"):
                protocol.raise_error_frame(payload)


def _decode_all(wire):
    decoder = FrameDecoder()
    decoder.feed(wire)
    return decoder.frames()


# ---------------------------------------------------------------------------
# differential: gateway == offline engine
# ---------------------------------------------------------------------------

class TestGatewayDifferential:
    @pytest.mark.parametrize("chunk_bytes", [999, 4096, 1 << 20])
    def test_bits_identical_to_offline_stream(self, gateway, payload,
                                              chunk_bytes):
        expected = offline_bits(EXPR, payload)
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="diff"
        ) as client:
            bits, accepted = collect(
                client, EXPR, payload, chunk_bytes
            )
        assert bits == expected
        assert len(accepted) == sum(expected)
        assert client.last_summary["records"] == len(expected)
        assert client.last_summary["bytes"] == len(payload)

    def test_accepted_records_are_the_matching_records(
            self, gateway, payload):
        expected = offline_bits(EXPR, payload)
        records = [r for r in payload.split(b"\n") if r.strip()]
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="diff"
        ) as client:
            _, accepted = collect(client, EXPR, payload, 2048)
        assert accepted == [
            record
            for record, match in zip(records, expected)
            if match
        ]

    def test_sequential_queries_on_one_connection(self, gateway,
                                                  payload):
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="seq"
        ) as client:
            first, _ = collect(client, EXPR, payload, 4096)
            second, _ = collect(
                client, HUMIDITY_EXPR, payload, 4096
            )
        assert first == offline_bits(EXPR, payload)
        assert second == offline_bits(HUMIDITY_EXPR, payload)

    def test_stream_without_trailing_newline(self, gateway):
        ndjson = (
            b'{"n":"temperature","v":"30.0"}\n'
            b'{"n":"temperature","v":"99.0"}\n'
            b'{"n":"temperature","v":"1.0"}'  # no trailing newline
        )
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="tail"
        ) as client:
            bits, _ = collect(client, EXPR, ndjson, 16)
        assert bits == [True, False, True]


# ---------------------------------------------------------------------------
# service failure modes
# ---------------------------------------------------------------------------

class TestAdmissionControl:
    def test_session_ceiling_rejects_with_typed_error(self, payload):
        with GatewayThread(engines=1, max_sessions=1) as gw:
            first = GatewayClient(
                "127.0.0.1", gw.port, tenant="a"
            ).connect()
            try:
                with pytest.raises(AdmissionError, match="capacity"):
                    GatewayClient(
                        "127.0.0.1", gw.port, tenant="b"
                    ).connect()
                assert gw.snapshot()["gateway"][
                    "admission_rejections"
                ] == 1
            finally:
                first.close()
            # the slot frees up once the first session ends
            deadline = time.time() + 5
            while time.time() < deadline:
                if gw.snapshot()["gateway"]["active_sessions"] == 0:
                    break
                time.sleep(0.01)
            with GatewayClient(
                "127.0.0.1", gw.port, tenant="c"
            ) as client:
                bits, _ = collect(client, EXPR, payload, 8192)
            assert bits == offline_bits(EXPR, payload)

    def test_refused_admission_closes_the_socket(self, monkeypatch):
        """A client refused at HELLO must not leak its connection."""
        sockets, writers = [], []
        open_socket = socket.create_connection
        open_stream = asyncio.open_connection

        def recording_socket(*args, **kwargs):
            sockets.append(open_socket(*args, **kwargs))
            return sockets[-1]

        async def recording_stream(*args, **kwargs):
            reader, writer = await open_stream(*args, **kwargs)
            writers.append(writer)
            return reader, writer

        monkeypatch.setattr(socket, "create_connection", recording_socket)
        monkeypatch.setattr(asyncio, "open_connection", recording_stream)

        async def refused(port):
            client = AsyncGatewayClient("127.0.0.1", port, tenant="c")
            with pytest.raises(AdmissionError):
                await client.connect()

        with GatewayThread(engines=1, max_sessions=1) as gw:
            with GatewayClient("127.0.0.1", gw.port, tenant="a"):
                with pytest.raises(AdmissionError):
                    GatewayClient(
                        "127.0.0.1", gw.port, tenant="b"
                    ).connect()
                asyncio.run(refused(gw.port))
        assert len(sockets) == 2
        assert sockets[1].fileno() == -1  # closed
        assert len(writers) == 1 and writers[0].is_closing()

    def test_observer_bypasses_admission_and_stays_unmetered(self,
                                                             payload):
        """Observability must work exactly when the gateway is
        saturated: STATS probes skip admission and the tenant table."""
        with GatewayThread(engines=1, max_sessions=1) as gw:
            occupant = GatewayClient(
                "127.0.0.1", gw.port, tenant="occupant"
            ).connect()
            try:
                # a normal session is refused...
                with pytest.raises(AdmissionError):
                    GatewayClient(
                        "127.0.0.1", gw.port, tenant="extra"
                    ).connect()
                # ...but an observer probe still reads the metrics
                with GatewayClient(
                    "127.0.0.1", gw.port, tenant="probe",
                    observer=True,
                ) as probe:
                    snapshot = probe.stats()
                assert snapshot["gateway"]["active_sessions"] == 1
                assert "probe" not in snapshot["tenants"]
            finally:
                occupant.close()

    def test_observer_sessions_are_read_only(self, payload):
        """Observers bypassed admission, so letting them stream would
        be an unmetered hole in the session ceiling: only STATS."""
        with GatewayThread(engines=1) as gw:
            with GatewayClient(
                "127.0.0.1", gw.port, tenant="sneaky", observer=True
            ) as client:
                with pytest.raises(SessionError, match="read-only"):
                    list(client.submit(EXPR, payload))

    def test_constructor_validation(self):
        from repro.serve import EnginePool, FilterGateway

        with pytest.raises(GatewayError):
            EnginePool(0)
        with pytest.raises(GatewayError):
            FilterGateway(max_sessions=0)
        with pytest.raises(GatewayError):
            FilterGateway(max_inflight_bytes=0)
        with pytest.raises(GatewayError):
            FilterGateway(queue_chunks=0)


class TestBackpressure:
    def test_bounded_queue_bounds_resident_bytes(self, payload,
                                                 monkeypatch):
        """With evaluation slower than ingest, the per-session queue —
        not the stream length — bounds the bytes the gateway holds."""
        real_evaluate = serve_server._evaluate_batch

        def slow_evaluate(engine, predicate, records):
            time.sleep(0.005)
            return real_evaluate(engine, predicate, records)

        monkeypatch.setattr(
            serve_server, "_evaluate_batch", slow_evaluate
        )
        chunk = 2048
        queue_chunks = 2
        with GatewayThread(
            engines=1, queue_chunks=queue_chunks
        ) as gw:
            with GatewayClient(
                "127.0.0.1", gw.port, tenant="slow"
            ) as client:
                bits, _ = collect(client, EXPR, payload, chunk)
            snapshot = gw.snapshot()
        assert bits == offline_bits(EXPR, payload)
        tenant = snapshot["tenants"]["slow"]
        assert tenant["bytes_in"] == len(payload)
        # queue_chunks queued + one the reader is waiting to enqueue
        bound = (queue_chunks + 1) * chunk
        assert 0 < tenant["peak_queued_bytes"] <= bound
        assert tenant["peak_queued_bytes"] < len(payload) / 4
        gateway_stats = snapshot["gateway"]
        assert gateway_stats["inflight_bytes"] == 0
        # in-evaluation bytes ride on top of the queue bound
        assert gateway_stats["peak_inflight_bytes"] <= bound + chunk

    def test_oversized_chunk_still_admitted_when_alone(self, payload):
        """A single chunk larger than max_inflight_bytes must pass
        (otherwise it could never be admitted at all)."""
        with GatewayThread(
            engines=1, max_inflight_bytes=1024
        ) as gw:
            with GatewayClient(
                "127.0.0.1", gw.port, tenant="big"
            ) as client:
                bits, _ = collect(
                    client, EXPR, payload, len(payload)
                )
        assert bits == offline_bits(EXPR, payload)


class TestDisconnects:
    def test_mid_stream_disconnect_cleans_up_session(self, gateway,
                                                     payload):
        sock = socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=5
        )
        stream = protocol.SocketFrameStream(sock)
        stream.send(protocol.encode_json_frame(
            protocol.HELLO, {"tenant": "flaky"}
        ))
        assert stream.read_frame()[0] == protocol.HELLO_OK
        stream.send(protocol.encode_json_frame(
            protocol.QUERY, {"expression": EXPR}
        ))
        assert stream.read_frame()[0] == protocol.QUERY_OK
        stream.send(protocol.encode_frame(
            protocol.CHUNK, payload[:4096]
        ))
        sock.close()  # vanish mid-stream, END never sent

        deadline = time.time() + 5
        while time.time() < deadline:
            snapshot = gateway.snapshot()
            if snapshot["tenants"]["flaky"]["active_sessions"] == 0:
                break
            time.sleep(0.01)
        tenant = gateway.snapshot()["tenants"]["flaky"]
        assert tenant["active_sessions"] == 0
        assert tenant["disconnects"] == 1
        # no byte of the dead session stays accounted as in flight
        assert gateway.snapshot()["gateway"]["inflight_bytes"] == 0

    def test_other_tenants_unaffected_by_a_disconnect(self, gateway,
                                                      payload):
        # a tenant connects and dies mid-stream...
        sock = socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=5
        )
        stream = protocol.SocketFrameStream(sock)
        stream.send(protocol.encode_json_frame(
            protocol.HELLO, {"tenant": "dying"}
        ))
        stream.read_frame()
        stream.send(protocol.encode_json_frame(
            protocol.QUERY, {"expression": EXPR}
        ))
        stream.send(protocol.encode_frame(
            protocol.CHUNK, payload[:1000]
        ))
        sock.close()
        # ...while another tenant's stream completes, bit-exact
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="steady"
        ) as client:
            bits, _ = collect(client, EXPR, payload, 4096)
        assert bits == offline_bits(EXPR, payload)


class TestProtocolFailures:
    def test_garbage_handshake_gets_protocol_error(self, gateway):
        sock = socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=5
        )
        try:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n\x00\x00\x00\x00")
            stream = protocol.SocketFrameStream(sock)
            with pytest.raises(ProtocolError):
                frame = stream.read_frame()
                if frame is not None and frame[0] == protocol.ERROR:
                    protocol.raise_error_frame(frame[1])
        finally:
            sock.close()
        assert gateway.snapshot()["gateway"]["protocol_errors"] >= 1

    def test_unexpected_frame_mid_session(self, gateway):
        sock = socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=5
        )
        try:
            stream = protocol.SocketFrameStream(sock)
            stream.send(protocol.encode_json_frame(
                protocol.HELLO, {"tenant": "odd"}
            ))
            assert stream.read_frame()[0] == protocol.HELLO_OK
            # HELLO again is not a client frame the session accepts
            stream.send(protocol.encode_json_frame(
                protocol.HELLO, {"tenant": "odd"}
            ))
            frame = stream.read_frame()
            assert frame[0] == protocol.ERROR
            with pytest.raises(ProtocolError):
                protocol.raise_error_frame(frame[1])
        finally:
            sock.close()

    def test_bad_query_expression_is_a_session_error(self, gateway,
                                                     payload):
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="bad"
        ) as client:
            with pytest.raises(SessionError, match="expression"):
                list(client.submit("nonsense(((", payload))

    def test_chunk_before_query_is_a_session_error(self, gateway):
        sock = socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=5
        )
        try:
            stream = protocol.SocketFrameStream(sock)
            stream.send(protocol.encode_json_frame(
                protocol.HELLO, {"tenant": "eager"}
            ))
            assert stream.read_frame()[0] == protocol.HELLO_OK
            stream.send(protocol.encode_frame(
                protocol.CHUNK, b'{"n":"temperature"}\n'
            ))
            frame = stream.read_frame()
            assert frame[0] == protocol.ERROR
            with pytest.raises(SessionError, match="before QUERY"):
                protocol.raise_error_frame(frame[1])
        finally:
            sock.close()


# ---------------------------------------------------------------------------
# live filter swap
# ---------------------------------------------------------------------------

class TestLiveSwap:
    def test_swap_applies_at_the_exact_stream_point(self, gateway):
        part1 = (
            b'{"n":"temperature","v":"30.0"}\n'
            b'{"n":"humidity","v":"50.0"}\n'
        )
        part2 = (
            b'{"n":"temperature","v":"30.0"}\n'
            b'{"n":"humidity","v":"50.0"}\n'
        )

        async def run():
            client = AsyncGatewayClient(
                "127.0.0.1", gateway.port, tenant="swapper"
            )
            async with client:
                await client.query(EXPR)
                await client.send_chunk(part1)
                await client.swap(HUMIDITY_EXPR)
                await client.send_chunk(part2)
                await client.end()
                batches = []
                async for batch in client.results():
                    batches.append(batch)
                return batches, client.swaps, client.last_summary

        batches, swaps, summary = asyncio.run(run())
        assert len(batches) == 2
        # part 1 judged by the temperature filter...
        assert batches[0].matches.tolist() == [True, False]
        # ...part 2, after the swap, by the humidity filter
        assert batches[1].matches.tolist() == [False, True]
        assert len(swaps) == 1
        assert swaps[0]["downtime_seconds"] > 0
        assert summary["records"] == 4
        tenant = gateway.snapshot()["tenants"]["swapper"]
        assert tenant["swaps"] == 1
        assert tenant["reconfiguration_seconds"] > 0

    def test_swap_downtime_matches_reconfiguration_model(self,
                                                         gateway):
        from repro.system.multi import reconfiguration_seconds

        expected = reconfiguration_seconds(
            parse_filter_expression(HUMIDITY_EXPR)
        )

        async def run():
            client = AsyncGatewayClient(
                "127.0.0.1", gateway.port, tenant="model"
            )
            async with client:
                await client.query(EXPR)
                await client.swap(HUMIDITY_EXPR)
                await client.end()
                async for _ in client.results():
                    pass
                return client.swaps

        swaps = asyncio.run(run())
        assert swaps[0]["downtime_seconds"] == pytest.approx(expected)


# ---------------------------------------------------------------------------
# async client + stats + drain
# ---------------------------------------------------------------------------

class TestClientAbandonment:
    def test_abandoned_submit_closes_connection_and_source(
            self, gateway, payload, tmp_path):
        """Walking away from submit() mid-stream gives the socket up
        (the remaining frames cannot be resynchronised) and closes a
        client-owned source instead of leaking its handle."""
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(payload)
        client = GatewayClient(
            "127.0.0.1", gateway.port, tenant="quitter"
        ).connect()
        from repro.engine import FileSource

        source = FileSource(str(path), chunk_bytes=1024)
        stream = client.submit(EXPR, source)
        next(stream)  # first batch only, then walk away
        stream.close()
        assert client._stream is None
        assert source._handle.closed
        with pytest.raises(GatewayError, match="not connected"):
            next(client.submit(EXPR, payload))
        # the gateway carries on serving fresh connections
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="quitter"
        ) as again:
            bits, _ = collect(again, EXPR, payload, 4096)
        assert bits == offline_bits(EXPR, payload)

    def test_completed_submit_keeps_the_connection(self, gateway,
                                                   payload):
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="keeper"
        ) as client:
            first, _ = collect(client, EXPR, payload, 8192)
            assert client._stream is not None  # reusable
            second, _ = collect(client, EXPR, payload, 8192)
        assert first == second


class TestAsyncClient:
    def test_async_submit_matches_offline(self, gateway, payload):
        expected = offline_bits(EXPR, payload)

        async def run():
            client = AsyncGatewayClient(
                "127.0.0.1", gateway.port, tenant="async"
            )
            async with client:
                bits = []
                async for batch in client.submit(
                    EXPR, payload, 4096
                ):
                    bits.extend(batch.matches.tolist())
                stats = await client.stats()
                return bits, stats

        bits, stats = asyncio.run(run())
        assert bits == expected
        assert stats["tenants"]["async"]["records"] == len(expected)


class TestStatsAndMetrics:
    def test_stats_snapshot_shape(self, gateway, payload):
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="obs"
        ) as client:
            collect(client, EXPR, payload, 8192)
            snapshot = client.stats()
        gw = snapshot["gateway"]
        tenant = snapshot["tenants"]["obs"]
        engine = snapshot["engine"]
        assert gw["records"] >= tenant["records"] > 0
        assert 0.0 <= tenant["accept_rate"] <= 1.0
        assert tenant["result_batches"] > 0
        assert engine["engines"] == 2
        assert engine["cache"]["hits"] + engine["cache"]["misses"] > 0
        # the whole snapshot is JSON-serialisable (the STATS_OK wire)
        import json

        json.dumps(snapshot)

    def test_render_status_is_readable(self, gateway, payload):
        with GatewayClient(
            "127.0.0.1", gateway.port, tenant="render"
        ) as client:
            collect(client, EXPR, payload, 8192)
            snapshot = client.stats()
        text = render_status(snapshot)
        assert "gateway:" in text
        assert "shared cache:" in text
        assert "render" in text

    def test_concurrent_tenants_get_their_own_cache_counts(self):
        """Two executor threads share one AtomCache: the replay thread
        must be booked only hits, the fresh thread only misses."""
        pool = EnginePool(size=2)
        predicate = parse_filter_expression(HUMIDITY_EXPR)
        replayed = load_dataset("smartcity", 300, seed=1)
        fresh = [load_dataset("smartcity", 600, seed=s) for s in range(2, 8)]
        serve_server._evaluate_batch(pool.engines[0], predicate, replayed)
        cache = pool.cache
        before = (cache.hits, cache.misses)
        done = threading.Event()
        started = threading.Barrier(2)
        replay_deltas, fresh_deltas = [], []

        def replay():
            started.wait()
            while not done.is_set() or not replay_deltas:
                _, delta = serve_server._evaluate_batch(
                    pool.engines[0], predicate, replayed
                )
                replay_deltas.append(delta)

        def evaluate_fresh():
            started.wait()
            try:
                for batch in fresh:
                    _, delta = serve_server._evaluate_batch(
                        pool.engines[1], predicate, batch
                    )
                    fresh_deltas.append(delta)
            finally:
                done.set()

        threads = [
            threading.Thread(target=replay),
            threading.Thread(target=evaluate_fresh),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert not any(thread.is_alive() for thread in threads)
        assert len(fresh_deltas) == len(fresh)
        # one whole-expression hit per replayed batch, nothing else
        assert set(replay_deltas) == {(1, 0)}
        assert all(hits == 0 and misses > 0
                   for hits, misses in fresh_deltas)
        # the per-thread counts add up to the shared totals
        assert cache.hits - before[0] == len(replay_deltas)
        assert cache.misses - before[1] == sum(
            misses for _, misses in fresh_deltas
        )

    def test_mid_stream_stats_arrive_in_order(self, gateway, payload):
        async def run():
            client = AsyncGatewayClient(
                "127.0.0.1", gateway.port, tenant="inline"
            )
            async with client:
                await client.query(EXPR)
                await client.send_chunk(payload[:4096])
                await client.request_stats()  # reply in stream order
                await client.end()
                async for _ in client.results():
                    pass
                return client.last_summary, client.last_stats

        summary, stats = asyncio.run(run())
        assert summary["records"] > 0
        # the snapshot was cut mid-stream: the session was still live
        assert stats["tenants"]["inline"]["active_sessions"] == 1


class TestDrain:
    def test_shutdown_with_idle_session_times_out_cleanly(self):
        gw = GatewayThread(engines=1, drain_timeout=0.2).start()
        client = GatewayClient("127.0.0.1", gw.port, tenant="idle")
        client.connect()
        try:
            gw.stop(timeout=10)  # idle session is cancelled by drain
        finally:
            client.close()
        with pytest.raises(OSError):
            socket.create_connection(
                ("127.0.0.1", gw.port), timeout=0.5
            )

    def test_gateway_thread_reports_startup_failure(self):
        with pytest.raises(GatewayError):
            GatewayThread(engines=-1).start()


# ---------------------------------------------------------------------------
# the CI smoke: >= 4 concurrent tenants + warm second tenant
# ---------------------------------------------------------------------------

class TestGatewaySmoke:
    def test_concurrent_tenants_and_warm_cache(self):
        """Four concurrent clients with distinct corpora get offline-
        identical bits; a second tenant re-streaming the first corpus
        is served warm from the shared AtomCache (strictly higher hit
        rate than the tenant that paid the cold evaluation)."""
        corpora = {
            f"tenant-{seed}": load_dataset(
                "smartcity", 150, seed=seed
            ).stream.tobytes()
            for seed in range(4)
        }
        expected = {
            name: offline_bits(EXPR, data)
            for name, data in corpora.items()
        }
        results = {}
        errors = []

        def run_client(name, data, port):
            try:
                with GatewayClient(
                    "127.0.0.1", port, tenant=name
                ) as client:
                    bits, _ = collect(client, EXPR, data, 2048)
                    results[name] = bits
            except Exception as err:  # pragma: no cover - diagnostics
                errors.append((name, err))

        with GatewayThread(engines=2) as gw:
            threads = [
                threading.Thread(
                    target=run_client, args=(name, data, gw.port)
                )
                for name, data in corpora.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, errors
            assert results == expected

            # warm second tenant over tenant-0's corpus
            with GatewayClient(
                "127.0.0.1", gw.port, tenant="warm"
            ) as client:
                bits, _ = collect(
                    client, EXPR, corpora["tenant-0"], 2048
                )
            assert bits == expected["tenant-0"]
            snapshot = gw.snapshot()
            cold = snapshot["tenants"]["tenant-0"]
            warm = snapshot["tenants"]["warm"]
            assert warm["cache_hit_rate"] > cold["cache_hit_rate"]
            assert warm["cache_hit_rate"] > 0.9
            # session teardown is asynchronous on the server side
            deadline = time.time() + 5
            while time.time() < deadline:
                active = gw.snapshot()["gateway"]["active_sessions"]
                if active == 0:
                    break
                time.sleep(0.01)
            assert active == 0


# ---------------------------------------------------------------------------
# pooled engines: resident workers behind the gateway
# ---------------------------------------------------------------------------

class TestResidentGateway:
    """``repro serve --workers N``: every engine keeps a resident
    worker pool, pre-forked before the executor threads exist, and the
    pool's residency counters surface through STATS."""

    @staticmethod
    def _resident_stragglers(timeout=5.0):
        import multiprocessing

        deadline = time.time() + timeout
        while True:
            stragglers = [
                child for child in multiprocessing.active_children()
                if child.name.startswith("repro-resident")
            ]
            if not stragglers or time.time() > deadline:
                return stragglers
            time.sleep(0.05)

    def test_pooled_engine_matches_offline_and_reports_workers(
        self, payload
    ):
        expected = offline_bits(EXPR, payload)
        with GatewayThread(engines=1, workers=2) as gw:
            with GatewayClient(
                "127.0.0.1", gw.port, tenant="pooled"
            ) as client:
                bits, _ = collect(client, EXPR, payload, 4096)
            assert bits == expected
            snapshot = gw.snapshot()
            engine = snapshot["engine"]
            workers = engine["workers"]
            assert engine["engine_workers"] == 2
            assert workers["num_workers"] == 2
            assert workers["sessions"] >= 1
            assert workers["respawns"] == 0
            # per-worker counters rode the STATS wire (pid-keyed,
            # JSON-stringified by the snapshot)
            per_worker = workers["workers"]
            assert per_worker
            assert all(
                counters["records"] >= 0
                for counters in per_worker.values()
            )
            assert sum(
                counters["records"] for counters in per_worker.values()
            ) > 0
            text = render_status(snapshot)
            assert "resident workers: 2 per engine" in text
        # gateway shutdown closes the pooled engines: nothing left
        assert self._resident_stragglers() == []

    def test_swap_mid_stream_reconfigures_pooled_engine(self):
        part1 = (
            b'{"n":"temperature","v":"30.0"}\n'
            b'{"n":"humidity","v":"50.0"}\n'
        )
        part2 = part1

        async def run(port):
            client = AsyncGatewayClient(
                "127.0.0.1", port, tenant="pooled-swap"
            )
            async with client:
                await client.query(EXPR)
                await client.send_chunk(part1)
                await client.swap(HUMIDITY_EXPR)
                await client.send_chunk(part2)
                await client.end()
                return [batch async for batch in client.results()]

        with GatewayThread(engines=1, workers=2) as gw:
            batches = asyncio.run(run(gw.port))
            assert len(batches) == 2
            assert batches[0].matches.tolist() == [True, False]
            assert batches[1].matches.tolist() == [False, True]
            snapshot = gw.snapshot()
            assert snapshot["tenants"]["pooled-swap"]["swaps"] == 1
            workers = snapshot["engine"]["workers"]
            # the swap reconfigured the resident workers in place —
            # a second filter means a second configure, not a respawn
            assert workers["configures"] >= 2
            assert workers["respawns"] == 0
        assert self._resident_stragglers() == []

    def test_concurrent_tenants_on_pooled_engines(self, payload):
        """Two sessions race over pooled engines; per-batch engine
        checkout plus the pool's serial-fallback guard keep every
        result bit-identical to the offline run."""
        expected = offline_bits(EXPR, payload)
        results, errors = {}, []

        def run_client(name, port):
            try:
                with GatewayClient(
                    "127.0.0.1", port, tenant=name
                ) as client:
                    results[name] = collect(
                        client, EXPR, payload, 4096
                    )[0]
            except Exception as err:  # pragma: no cover - diagnostics
                errors.append((name, err))

        with GatewayThread(engines=2, workers=2) as gw:
            threads = [
                threading.Thread(target=run_client, args=(name, gw.port))
                for name in ("race-a", "race-b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            assert results == {
                "race-a": expected, "race-b": expected,
            }
        assert self._resident_stragglers() == []
