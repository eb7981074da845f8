"""Tests for the ChunkSource ingest layer (repro.engine.sources)."""

import io
import socket
import threading

import pytest

import repro.core.composition as comp
from repro.data import Dataset, load_dataset
from repro.engine import (
    AsyncSource,
    ChunkSource,
    FileSource,
    FilterEngine,
    IterableSource,
    RecordFramer,
    SocketSource,
    as_chunk_source,
    ingest_dataset,
    ingest_records,
)
from repro.errors import ReproError
from repro.eval.harness import DatasetView, evaluate_expression


def simple_filter():
    return comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))


@pytest.fixture(scope="module")
def corpus():
    return load_dataset("smartcity", 120, seed=3)


@pytest.fixture(scope="module")
def payload(corpus):
    return corpus.stream.tobytes()


# ---------------------------------------------------------------------------
# individual sources
# ---------------------------------------------------------------------------

class TestIterableSource:
    def test_yields_chunks_with_accounting(self):
        source = IterableSource([b"abc", b"", bytearray(b"def")])
        assert list(source) == [b"abc", b"", b"def"]
        stats = source.stats()
        assert stats["source"] == "iterable"
        assert stats["chunks_read"] == 3
        assert stats["bytes_read"] == 6

    def test_empty_chunks_do_not_terminate_the_stream(self):
        """Bursty producers may deliver nothing; only exhaustion ends
        the stream (unlike a file read, where b"" means EOF)."""
        chunks = [b'{"a":1}\n', b"", b"", b'{"b":2}\n', b"", b'{"c":3}']
        assert ingest_records(IterableSource(chunks)) == [
            b'{"a":1}', b'{"b":2}', b'{"c":3}'
        ]

    def test_rejects_text_chunks(self):
        with pytest.raises(ReproError):
            list(IterableSource(["text"]))


class TestFileSource:
    def test_reads_path_and_owns_handle(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_bytes(b'{"a":1}\n{"b":2}\n')
        with FileSource(path, chunk_bytes=4) as source:
            chunks = list(source)
        assert b"".join(chunks) == b'{"a":1}\n{"b":2}\n'
        assert source.bytes_read == 16
        assert source.chunks_read == 4
        assert source.stats()["source"] == "file"

    def test_wraps_handle_without_owning_it(self):
        handle = io.BytesIO(b"abcdef")
        source = FileSource(handle, chunk_bytes=4)
        assert list(source) == [b"abcd", b"ef"]
        source.close()
        assert not handle.closed  # caller still owns the handle

    def test_non_seekable_uses_read1(self):
        class FakePipe:
            def __init__(self, pieces):
                self.pieces = list(pieces)
                self.read_called = False

            def seekable(self):
                return False

            def read1(self, size):
                return self.pieces.pop(0) if self.pieces else b""

            def read(self, size):  # would block in a real pipe
                self.read_called = True
                return self.read1(size)

        pipe = FakePipe([b'{"a":1}\n', b'{"b":2}\n'])
        source = FileSource(pipe, chunk_bytes=1 << 20)
        assert list(source) == [b'{"a":1}\n', b'{"b":2}\n']
        assert not pipe.read_called

    def test_rejects_bad_arguments(self):
        with pytest.raises(ReproError):
            FileSource(object())
        with pytest.raises(ReproError):
            FileSource(io.BytesIO(b""), chunk_bytes=0)

    def test_empty_file_yields_no_chunks(self, tmp_path):
        """An empty file is an empty stream, not an error."""
        path = tmp_path / "empty.ndjson"
        path.write_bytes(b"")
        with FileSource(path) as source:
            assert list(source) == []
        assert source.bytes_read == 0
        assert source.chunks_read == 0

    def test_size_exact_multiple_of_chunk(self, tmp_path):
        """No phantom empty tail chunk when the file size divides the
        chunk size exactly."""
        payload = b'{"k":1}\n' * 16  # 128 bytes
        path = tmp_path / "data.ndjson"
        path.write_bytes(payload)
        with FileSource(path, chunk_bytes=32) as source:
            chunks = list(source)
        assert len(chunks) == 4
        assert all(chunks)
        assert b"".join(chunks) == payload

    def test_record_spanning_two_chunks(self, tmp_path):
        """A record cut by a chunk seam reassembles exactly."""
        first = b'{"n":"temperature","v":"1.0"}'
        second = b'{"n":"humidity","v":"2.0"}'
        path = tmp_path / "data.ndjson"
        path.write_bytes(first + b"\n" + second + b"\n")
        # a 17-byte chunk cuts both records mid-body
        engine = FilterEngine(chunk_bytes=17)
        records = []
        for batch in engine.stream(comp.s("temperature", 1), str(path)):
            records.extend(batch.records)
        assert records == [first, second]

    def test_path_roundtrip_and_accounting_at_odd_chunk_size(
        self, tmp_path, payload
    ):
        path = tmp_path / "data.ndjson"
        path.write_bytes(payload)
        with FileSource(path, chunk_bytes=777) as source:
            chunks = list(source)
        assert b"".join(chunks) == payload
        assert source.bytes_read == len(payload)
        assert source.chunks_read == -(-len(payload) // 777)

    def test_record_larger_than_chunk_from_path(self, tmp_path):
        big = b'{"blob":"' + b"y" * 4000 + b'","temperature":"1.0"}'
        small = b'{"temperature":"2.0"}'
        path = tmp_path / "data.ndjson"
        path.write_bytes(big + b"\n" + small + b"\n")
        engine = FilterEngine(chunk_bytes=64)
        records = []
        for batch in engine.stream(
            comp.s("temperature", 1), FileSource(path, chunk_bytes=64)
        ):
            records.extend(batch.records)
        assert records == [big, small]

    def test_stream_end_closes_the_owned_handle(self, tmp_path, payload):
        path = tmp_path / "data.ndjson"
        path.write_bytes(payload)
        source = FileSource(path, chunk_bytes=512)
        for _ in source:
            pass
        assert source._handle.closed
        source.close()  # closing again after stream end is harmless


class TestSourceBackendDifferential:
    """Every backend (and the harness's vectorised evaluation) over
    file ingest, at odd chunk sizes that cut records mid-body, must be
    bit-identical to the scalar oracle over the in-memory corpus."""

    @pytest.mark.parametrize("backend", ["scalar", "vectorized",
                                         "compiled"])
    @pytest.mark.parametrize("chunk_bytes", [17, 333])
    def test_backends_match_scalar_oracle(self, tmp_path, corpus,
                                          payload, backend, chunk_bytes):
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(payload)
        oracle = FilterEngine(backend="scalar").match_bits(
            simple_filter(), corpus
        )
        matches = []
        if backend == "vectorized":
            framer = RecordFramer()
            source = FileSource(str(path), chunk_bytes=chunk_bytes)
            batches = [framer.push(chunk) for chunk in source]
            for batch in batches + [framer.flush()]:
                if batch:
                    matches.extend(evaluate_expression(
                        DatasetView(batch), simple_filter(), {}
                    ).tolist())
        else:
            engine = FilterEngine(
                backend=backend, chunk_bytes=chunk_bytes
            )
            for batch in engine.stream(simple_filter(), str(path)):
                matches.extend(batch.matches.tolist())
        assert matches == oracle.tolist()


class TestSocketSource:
    def test_receives_until_peer_eof(self, payload):
        feeder, receiver = socket.socketpair()

        def feed():
            for start in range(0, len(payload), 700):
                feeder.sendall(payload[start:start + 700])
            feeder.close()

        thread = threading.Thread(target=feed)
        thread.start()
        source = SocketSource(receiver, chunk_bytes=1024)
        data = b"".join(source)
        thread.join()
        receiver.close()
        assert data == payload
        assert source.bytes_read == len(payload)
        assert source.stats()["source"] == "socket"

    def test_connects_to_address_and_owns_connection(self, payload):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            conn.sendall(payload[:1000])
            conn.close()

        thread = threading.Thread(target=serve)
        thread.start()
        with SocketSource(("127.0.0.1", port)) as source:
            data = b"".join(source)
        thread.join()
        server.close()
        assert data == payload[:1000]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ReproError):
            SocketSource("not-a-socket")
        feeder, receiver = socket.socketpair()
        try:
            with pytest.raises(ReproError):
                SocketSource(receiver, chunk_bytes=0)
            with pytest.raises(ReproError):
                SocketSource(receiver, timeout=0)
        finally:
            feeder.close()
            receiver.close()

    def test_recv_timeout_raises_repro_error(self):
        """A stalled peer surfaces as a clear ReproError, not a hang."""
        feeder, receiver = socket.socketpair()
        try:
            feeder.sendall(b'{"n":"temperature"}\n')
            source = SocketSource(
                receiver, chunk_bytes=64, timeout=0.05
            )
            chunks = iter(source)
            assert next(chunks)  # delivered bytes flow normally
            with pytest.raises(ReproError, match="timed out"):
                next(chunks)  # then the peer goes silent
        finally:
            feeder.close()
            receiver.close()

    def test_mid_stream_peer_close_yields_partial_tail(self):
        """A peer dying mid-record ends the stream at EOF; the framer
        still flushes the partial trailing record (service ingest must
        not lose or duplicate what arrived before the close)."""
        full = b'{"n":"temperature","v":"1.0"}\n'
        partial = b'{"n":"temperature","v":"2.0"'
        feeder, receiver = socket.socketpair()

        def feed():
            feeder.sendall(full + partial)
            feeder.close()  # mid-record disconnect

        thread = threading.Thread(target=feed)
        thread.start()
        engine = FilterEngine(chunk_bytes=64)
        records = []
        for batch in engine.stream(
            comp.s("temperature", 1),
            SocketSource(receiver, chunk_bytes=64, timeout=5),
        ):
            records.extend(batch.records)
        thread.join()
        receiver.close()
        assert records == [full.rstrip(b"\n"), partial]

    def test_partial_recv_reassembly(self, corpus, payload):
        """Records split across many tiny recv() returns reassemble to
        exactly the offline match bits (regression for service use:
        TCP hands the gateway arbitrary segment boundaries)."""
        feeder, receiver = socket.socketpair()

        def feed():
            for start in range(0, len(payload), 13):
                feeder.sendall(payload[start:start + 13])
            feeder.close()

        thread = threading.Thread(target=feed)
        thread.start()
        engine = FilterEngine()
        expected = engine.match_bits(simple_filter(), corpus)
        matches = []
        for batch in engine.stream(
            simple_filter(),
            SocketSource(receiver, chunk_bytes=31, timeout=10),
        ):
            matches.extend(batch.matches.tolist())
        thread.join()
        receiver.close()
        assert matches == expected.tolist()


class TestAsyncSource:
    def test_drains_async_generator(self, payload):
        async def produce():
            for start in range(0, len(payload), 900):
                yield payload[start:start + 900]

        source = AsyncSource(produce())
        assert b"".join(source) == payload
        assert source.chunks_read == -(-len(payload) // 900)

    def test_async_records_reach_the_engine(self, corpus, payload):
        async def produce():
            yield payload

        engine = FilterEngine()
        expected = engine.match_bits(simple_filter(), corpus)
        matches = []
        for batch in engine.stream(simple_filter(),
                                   AsyncSource(produce())):
            matches.extend(batch.matches.tolist())
        assert matches == expected.tolist()

    def test_rejects_non_async_iterables(self):
        with pytest.raises(ReproError):
            AsyncSource([b"chunk"])

    def test_abandoned_stream_runs_producer_finalisers(self):
        """Abandoning a gateway-style stream must aclose the async
        producer (its ``finally`` runs via ``shutdown_asyncgens``)
        instead of leaving a suspended generator behind."""
        cleanup = []

        async def produce():
            try:
                while True:
                    yield b'{"n":"temperature","v":"1.0"}\n' * 8
            finally:
                cleanup.append("closed")

        engine = FilterEngine(chunk_bytes=64)
        stream = engine.stream(
            comp.s("temperature", 1), AsyncSource(produce())
        )
        next(stream)  # partially consume, then abandon
        stream.close()
        assert cleanup == ["closed"]

    def test_abandonment_emits_no_pending_task_noise(self, capsys):
        """No "Task was destroyed but it is pending!" / "Event loop is
        closed" stderr noise when a consumer walks away mid-stream."""
        async def produce():
            while True:
                yield b'{"n":"temperature","v":"1.0"}\n' * 8

        source = AsyncSource(produce())
        chunks = iter(source)
        next(chunks)
        chunks.close()  # abandon the source's own generator
        import gc

        gc.collect()
        err = capsys.readouterr().err
        assert "Task was destroyed" not in err
        assert "Event loop is closed" not in err

    def test_close_cancels_in_flight_anext(self):
        """An in-flight __anext__ task is cancelled and awaited on
        close — the parked producer sees CancelledError instead of
        being destroyed while pending."""
        import asyncio

        from repro.engine.sources import _anext_coroutine

        states = []

        async def parked():
            try:
                await asyncio.sleep(3600)  # never delivers a chunk
                yield b""  # pragma: no cover - unreachable
            except asyncio.CancelledError:
                states.append("cancelled")
                raise

        source = AsyncSource(parked())
        # arm the in-flight state chunks() would be in while awaiting
        # a chunk that never arrives, then tear down
        source._loop = asyncio.new_event_loop()
        iterator = source._async_iterable.__aiter__()
        source._task = source._loop.create_task(
            _anext_coroutine(iterator)
        )
        source._loop.run_until_complete(asyncio.sleep(0.01))
        assert not source._task.done()
        source.close()
        assert states == ["cancelled"]
        assert source._loop is None
        source.close()  # idempotent


# ---------------------------------------------------------------------------
# normalisation + ingest
# ---------------------------------------------------------------------------

class TestAsChunkSource:
    def test_passthrough_and_dispatch(self):
        source = IterableSource([b"x"])
        assert as_chunk_source(source) is source
        assert isinstance(as_chunk_source(b"bytes"), IterableSource)
        assert isinstance(
            as_chunk_source(io.BytesIO(b"x")), FileSource
        )
        assert isinstance(as_chunk_source([b"a", b"b"]), IterableSource)

        async def produce():
            yield b"x"

        assert isinstance(as_chunk_source(produce()), AsyncSource)

    def test_socket_dispatch(self):
        feeder, receiver = socket.socketpair()
        try:
            assert isinstance(
                as_chunk_source(receiver), SocketSource
            )
        finally:
            feeder.close()
            receiver.close()

    def test_rejects_unknown_objects(self):
        with pytest.raises(ReproError):
            as_chunk_source(42)

    def test_base_chunks_hook_is_abstract(self):
        with pytest.raises(NotImplementedError):
            list(ChunkSource())


class TestPathIngest:
    """str / os.PathLike inputs open as FileSources (regression: a
    path string used to be consumed as an iterable of 1-character
    text "chunks" and rejected deep in framing)."""

    @pytest.fixture()
    def ndjson_path(self, tmp_path, payload):
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(payload)
        return path

    def test_str_path_dispatches_to_file_source(self, ndjson_path,
                                                payload):
        source = as_chunk_source(str(ndjson_path), chunk_bytes=256)
        assert isinstance(source, FileSource)
        assert b"".join(source) == payload
        assert source.stats()["bytes_read"] == len(payload)

    def test_pathlike_dispatches_to_file_source(self, ndjson_path,
                                                payload):
        source = as_chunk_source(ndjson_path)
        assert isinstance(source, FileSource)
        assert b"".join(source) == payload

    @pytest.mark.parametrize("size", [1000, 8 << 20])
    def test_path_is_a_file_source_at_every_size(self, tmp_path, size):
        """One file reader, whatever the file's size."""
        path = tmp_path / "sized.ndjson"
        path.write_bytes(b'{"k":1}\n' * (size // 8))
        with as_chunk_source(str(path)) as source:
            assert isinstance(source, FileSource)
            assert sum(len(chunk) for chunk in source) == size

    def test_bytes_stay_stream_data_not_paths(self):
        """b"..." is always chunk data; only str/PathLike are paths."""
        source = as_chunk_source(b"not/a/path")
        assert isinstance(source, IterableSource)
        assert list(source) == [b"not/a/path"]

    def test_stream_accepts_a_path_and_closes_it(self, corpus,
                                                 ndjson_path):
        engine = FilterEngine(chunk_bytes=512)
        reference = engine.match_bits(simple_filter(), corpus)
        matches = []
        for batch in engine.stream(simple_filter(), str(ndjson_path)):
            matches.extend(batch.matches.tolist())
        assert matches == reference.tolist()

    def test_path_source_closes_handle_at_stream_end(self,
                                                     ndjson_path):
        source = as_chunk_source(str(ndjson_path))
        for _ in source:
            pass
        assert source._handle.closed

    def test_abandoned_path_stream_closes_handle(self, ndjson_path):
        engine = FilterEngine(chunk_bytes=64)
        source = as_chunk_source(str(ndjson_path), chunk_bytes=64)
        stream = engine.stream(simple_filter(), source)
        next(stream)
        stream.close()
        assert source._handle.closed

    def test_ingest_dataset_from_path(self, corpus, ndjson_path):
        dataset = ingest_dataset(str(ndjson_path), name="from-path")
        assert dataset.records == corpus.records

    def test_engine_and_soc_ingest_paths(self, corpus, ndjson_path):
        engine = FilterEngine(chunk_bytes=128)
        assert engine.ingest(ndjson_path).records == corpus.records
        from repro.system import RawFilterSoC

        soc = RawFilterSoC(simple_filter())
        report = soc.run(str(ndjson_path))
        reference = soc.run(corpus)
        assert report.total_bytes == reference.total_bytes
        assert report.matches.tolist() == reference.matches.tolist()


class TestIngest:
    def test_ingest_dataset_from_chunks(self, corpus, payload):
        dataset = ingest_dataset(
            IterableSource([payload]), name="ingested"
        )
        assert dataset.records == corpus.records
        assert dataset.name == "ingested"

    def test_dataset_and_record_lists_pass_through(self, corpus):
        assert ingest_dataset(corpus) is corpus
        wrapped = ingest_dataset([b'{"a":1}', b'{"b":2}'])
        assert isinstance(wrapped, Dataset)
        assert len(wrapped) == 2

    def test_engine_ingest_uses_config_chunking(self, corpus, payload):
        engine = FilterEngine(chunk_bytes=128)
        dataset = engine.ingest(io.BytesIO(payload))
        assert dataset.records == corpus.records

    def test_match_bits_accepts_a_source(self, corpus, payload):
        engine = FilterEngine()
        direct = engine.match_bits(simple_filter(), corpus)
        from_source = engine.match_bits(
            simple_filter(), IterableSource([payload])
        )
        assert from_source.tolist() == direct.tolist()


# ---------------------------------------------------------------------------
# framing edge cases through the sources
# ---------------------------------------------------------------------------

class TestFramingEdgeCases:
    def test_record_larger_than_chunk_bytes(self):
        """A single record spanning many chunks reassembles exactly."""
        big = b'{"blob":"' + b"x" * 5000 + b'","temperature":"1.0"}'
        small = b'{"temperature":"2.0"}'
        payload = big + b"\n" + small + b"\n"
        engine = FilterEngine(chunk_bytes=64)
        records = []
        for batch in engine.stream(
            comp.s("temperature", 1), io.BytesIO(payload)
        ):
            records.extend(batch.records)
        assert records == [big, small]

    def test_seam_split_inside_unicode_escape(self):
        r"""A chunk seam landing inside a \uXXXX escape must not split
        the record or corrupt the escape bytes."""
        record = b'{"n":"temp\\u00e9rature","v":"3.0"}'
        other = b'{"n":"humidity","v":"9.9"}'
        payload = record + b"\n" + other + b"\n"
        escape_at = record.index(b"\\u00e9")
        engine = FilterEngine()
        expected = engine.match_bits(
            comp.s("humidity", 1), [record, other]
        ).tolist()
        # cut at every position inside the escape sequence
        for offset in range(len(b"\\u00e9") + 1):
            cut = escape_at + offset
            chunks = [payload[:cut], payload[cut:]]
            records, matches = [], []
            for batch in engine.stream(comp.s("humidity", 1), chunks):
                records.extend(batch.records)
                matches.extend(batch.matches.tolist())
            assert records == [record, other], f"cut at {cut}"
            assert matches == expected, f"cut at {cut}"

    def test_empty_chunks_between_records(self, corpus, payload):
        """Interleaved empty chunks change nothing — byte accounting
        and match bits are identical to the dense stream."""
        pieces = [payload[i:i + 301] for i in range(0, len(payload), 301)]
        sparse = []
        for piece in pieces:
            sparse += [b"", piece, b""]
        engine = FilterEngine()
        expected = engine.match_bits(simple_filter(), corpus)
        matches = []
        last = None
        for last in engine.stream(simple_filter(),
                                  IterableSource(sparse)):
            matches.extend(last.matches.tolist())
        assert matches == expected.tolist()
        assert last.bytes_seen == len(payload)


class TestStreamFileOwnership:
    """``engine.stream(expr, path)`` owns the file it opens; a handle
    passed in stays the caller's."""

    def _write_corpus(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(b'{"n":"temperature","v":"1.0"}\n' * 40)
        return path

    def _resource_warnings(self, caught):
        return [
            w for w in caught
            if issubclass(w.category, ResourceWarning)
        ]

    def test_path_stream_closes_at_end(self, tmp_path):
        import gc
        import warnings

        path = self._write_corpus(tmp_path)
        engine = FilterEngine(chunk_bytes=128)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batches = list(
                engine.stream(comp.s("temperature", 1), str(path))
            )
            gc.collect()
        assert sum(len(batch) for batch in batches) == 40
        assert not self._resource_warnings(caught)

    def test_abandoned_path_stream_still_closes(self, tmp_path):
        import gc
        import warnings

        path = self._write_corpus(tmp_path)
        engine = FilterEngine(chunk_bytes=64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stream = engine.stream(comp.s("temperature", 1), str(path))
            next(stream)  # partially consume, then abandon
            stream.close()
            gc.collect()
        assert not self._resource_warnings(caught)

    def test_unstarted_path_stream_opens_nothing(self, tmp_path):
        """The file is opened when the stream starts, so a stream that
        is never iterated holds no handle."""
        import gc
        import warnings

        path = self._write_corpus(tmp_path)
        engine = FilterEngine(chunk_bytes=64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stream = engine.stream(comp.s("temperature", 1), str(path))
            del stream
            gc.collect()
        assert not self._resource_warnings(caught)

    def test_caller_handle_stays_open(self, tmp_path):
        path = self._write_corpus(tmp_path)
        engine = FilterEngine(chunk_bytes=64)
        with open(path, "rb") as handle:
            records = sum(
                len(batch)
                for batch in engine.stream(comp.s("temperature", 1),
                                           handle)
            )
            assert not handle.closed
        assert records == 40
