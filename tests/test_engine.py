"""Tests for the unified streaming FilterEngine execution layer."""

import io
import random

import pytest

import repro.core.composition as comp
from repro.baselines import (
    Cascade,
    ExactFilter,
    KeyValueProbe,
    SubstringProbe,
    optimize_cascade,
)
from repro.data import load_dataset
from repro.engine import (
    CompiledBackend,
    EngineConfig,
    FilterEngine,
    RecordFramer,
    ScalarBackend,
    resolve_backend,
)
from repro.errors import ReproError
from repro.eval.harness import DatasetView, evaluate_expression


def simple_filter():
    return comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))


def ndjson_bytes(dataset):
    return dataset.stream.tobytes()


# ---------------------------------------------------------------------------
# record framing across chunk seams
# ---------------------------------------------------------------------------

class TestRecordFramer:
    RECORDS = [b'{"a":1}', b'{"bb":22}', b'{"c":"x,y"}']

    def test_every_split_position_reframes_identically(self):
        """Records straddling a chunk seam are reassembled exactly."""
        data = b"".join(r + b"\n" for r in self.RECORDS)
        for cut in range(len(data) + 1):
            framer = RecordFramer()
            records = list(framer.push(data[:cut]))
            records += framer.push(data[cut:])
            records += framer.flush()
            assert records == self.RECORDS, f"cut at {cut}"

    def test_single_byte_chunks(self):
        data = b"".join(r + b"\n" for r in self.RECORDS)
        framer = RecordFramer()
        records = []
        for i in range(len(data)):
            records += framer.push(data[i:i + 1])
        records += framer.flush()
        assert records == self.RECORDS

    def test_empty_chunks_are_noops(self):
        framer = RecordFramer()
        assert framer.push(b"").records == []
        assert framer.push(b'{"a":1}\n').records == [b'{"a":1}']
        assert framer.push(b"").records == []
        assert framer.flush().records == []

    def test_missing_trailing_newline_flushes_last_record(self):
        framer = RecordFramer()
        assert framer.push(b'{"a":1}\n{"b":2}').records == [b'{"a":1}']
        assert framer.flush().records == [b'{"b":2}']
        assert framer.records_emitted == 2

    def test_blank_lines_and_crlf(self):
        framer = RecordFramer()
        records = framer.push(b'{"a":1}\r\n\n  \n{"b":2}\r\n')
        assert records.records == [b'{"a":1}', b'{"b":2}']
        assert framer.flush().records == []

    def test_oversized_unterminated_record_rejected(self):
        framer = RecordFramer(max_record_bytes=8)
        with pytest.raises(ReproError):
            framer.push(b"x" * 16)

    def test_oversized_terminated_record_rejected(self):
        """The cap holds for a record that arrives with its newline."""
        framer = RecordFramer(max_record_bytes=8)
        with pytest.raises(ReproError, match="max_record_bytes"):
            framer.push(b"x" * 16 + b"\n")

    def test_oversized_record_across_seam_rejected(self):
        """...and for one assembled from two chunks under the cap."""
        framer = RecordFramer(max_record_bytes=8)
        assert len(framer.push(b"x" * 6)) == 0
        with pytest.raises(ReproError, match="max_record_bytes"):
            framer.push(b"x" * 6 + b"\n")

    def test_record_at_the_cap_is_accepted(self):
        framer = RecordFramer(max_record_bytes=8)
        assert framer.push(b"x" * 4).records == []
        assert framer.push(b"x" * 4 + b"\n").records == [b"x" * 8]

    def test_non_bytes_chunk_rejected(self):
        with pytest.raises(ReproError):
            RecordFramer().push("text")


# ---------------------------------------------------------------------------
# backend agreement (property-style cross-check)
# ---------------------------------------------------------------------------

NEEDLE_POOL = ["temperature", "humidity", "taxi", '"n"', "29", "e", "al"]


def random_primitive(rng, for_group=False):
    if rng.random() < 0.5:
        needle = rng.choice(NEEDLE_POOL)
        blocks = [1, min(2, len(needle)), len(needle)]
        if not for_group:
            blocks.append("N")
        return comp.s(needle, rng.choice(blocks))
    kind = rng.choice(["int", "float"])
    lo = rng.randint(0, 40)
    hi = lo + rng.randint(0, 60)
    if kind == "float":
        return comp.v(f"{lo}.{rng.randint(0, 9)}", f"{hi}.9")
    return comp.v_int(lo, hi)


def random_expression(rng, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        return random_primitive(rng)
    if roll < 0.55:
        children = [
            random_primitive(rng, for_group=True)
            for _ in range(rng.randint(1, 3))
        ]
        return comp.Group(children, comma_scoped=rng.random() < 0.3)
    combinator = comp.And if roll < 0.8 else comp.Or
    children = [
        random_expression(rng, depth + 1)
        for _ in range(rng.randint(2, 3))
    ]
    return combinator(children)


class TestBackendAgreement:
    @pytest.mark.parametrize("dataset_name", ["smartcity", "taxi"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_vectorized_equals_scalar_on_random_expressions(
        self, dataset_name, seed
    ):
        """The harness's vectorised full-batch evaluation must agree
        bit-for-bit with the scalar reference oracle on randomised
        corpora/expressions."""
        rng = random.Random(seed)
        dataset = load_dataset(
            dataset_name, 150, seed=1000 + seed
        )
        engine = FilterEngine(backend="scalar")
        for _ in range(8):
            expr = random_expression(rng)
            fast = evaluate_expression(DatasetView(dataset), expr, {})
            slow = engine.match_bits(expr, dataset, backend="scalar")
            assert fast.dtype == bool and len(fast) == len(dataset)
            assert (fast == slow).all(), expr.notation()

    def test_matches_record_single(self):
        engine = FilterEngine()
        expr = simple_filter()
        record = b'{"e":[{"v":"30.0","n":"temperature"}]}'
        assert engine.matches_record(expr, record) is True
        assert engine.matches_record(expr, b'{"n":"humidity"}') is False

    def test_plain_record_lists_accepted(self):
        engine = FilterEngine()
        records = [b'{"temperature":"1.0"}', b'{"humidity":"9"}']
        bits = engine.match_bits(comp.s("temperature", 1), records)
        assert bits.tolist() == [True, False]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            resolve_backend("quantum")
        with pytest.raises(ReproError):
            FilterEngine().match_bits(
                simple_filter(), [b"{}"], backend="quantum"
            )

    def test_vectorized_backend_is_gone(self):
        with pytest.raises(ReproError, match=r"known: compiled, scalar"):
            resolve_backend("vectorized")

    def test_backend_instances_usable_directly(self):
        dataset = load_dataset("smartcity", 50)
        expr = simple_filter()
        fast = CompiledBackend().match_bits(expr, dataset)
        slow = ScalarBackend().match_bits(expr, dataset)
        assert (fast == slow).all()

    def test_config_validation(self):
        with pytest.raises(ReproError):
            EngineConfig(chunk_bytes=0)
        with pytest.raises(ReproError):
            EngineConfig(num_workers=0)


# ---------------------------------------------------------------------------
# chunked streaming
# ---------------------------------------------------------------------------

class TestStreaming:
    @pytest.fixture(scope="class")
    def corpus(self):
        return load_dataset("smartcity", 200, seed=7)

    @pytest.fixture(scope="class")
    def expected(self, corpus):
        return FilterEngine().match_bits(simple_filter(), corpus)

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64, 4096, 1 << 22])
    def test_chunk_size_invariance(self, corpus, expected, chunk_bytes):
        """Any chunking of the stream yields the same records/bits —
        including chunks far smaller than one record."""
        engine = FilterEngine(chunk_bytes=chunk_bytes)
        payload = ndjson_bytes(corpus)
        records = []
        matches = []
        for batch in engine.stream(
            simple_filter(), io.BytesIO(payload)
        ):
            records.extend(batch.records)
            matches.extend(batch.matches.tolist())
        assert records == corpus.records
        assert matches == expected.tolist()

    def test_stream_bounded_batches(self, corpus):
        """No framed batch materialises more than chunk + one record."""
        chunk_bytes = 256
        engine = FilterEngine(chunk_bytes=chunk_bytes)
        payload = ndjson_bytes(corpus)
        max_record = max(len(r) + 1 for r in corpus.records)
        for batch in engine.stream(
            simple_filter(), io.BytesIO(payload)
        ):
            batch_bytes = sum(len(r) + 1 for r in batch.records)
            assert batch_bytes <= chunk_bytes + max_record

    def test_stream_without_trailing_newline(self):
        engine = FilterEngine(chunk_bytes=16)
        records = [b'{"temperature":"1.0"}', b'{"temperature":"2.0"}']
        payload = b"\n".join(records)  # no final newline
        seen = []
        for batch in engine.stream(comp.s("temperature", 1), [payload]):
            seen.extend(batch.records)
        assert seen == records

    def test_stream_empty_and_blank_input(self):
        engine = FilterEngine()
        assert list(engine.stream(simple_filter(), [])) == []
        assert list(engine.stream(simple_filter(), [b"\n \n\n"])) == []

    def test_cumulative_counters(self, corpus, expected):
        engine = FilterEngine(chunk_bytes=512)
        payload = ndjson_bytes(corpus)
        last = None
        for last in engine.stream(
            simple_filter(), io.BytesIO(payload)
        ):
            pass
        assert last.records_seen == len(corpus)
        assert last.bytes_seen == len(payload)
        assert last.accepted_seen == int(expected.sum())

    def test_filter_stream_yields_accepted_in_order(self, corpus,
                                                    expected):
        engine = FilterEngine(chunk_bytes=128)
        got = list(engine.filter_stream(
            simple_filter(), [ndjson_bytes(corpus)]
        ))
        want = [
            record
            for record, match in zip(corpus.records, expected)
            if match
        ]
        assert got == want

    def test_scalar_backend_streaming(self, corpus, expected):
        engine = FilterEngine(backend="scalar", chunk_bytes=333)
        matches = []
        for batch in engine.stream(
            simple_filter(), io.BytesIO(ndjson_bytes(corpus))
        ):
            matches.extend(batch.matches.tolist())
        assert matches == expected.tolist()


class TestCachedStreamSeams:
    """Chunk-seam framing with the AtomCache enabled: any random split
    of the corpus must yield exactly the whole-buffer match bits."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return load_dataset("smartcity", 120, seed=31)

    def _random_chunks(self, rng, payload):
        cuts = sorted(
            rng.sample(range(1, len(payload)),
                       rng.randint(1, min(24, len(payload) - 1)))
        )
        bounds = [0] + cuts + [len(payload)]
        return [
            payload[start:end]
            for start, end in zip(bounds, bounds[1:])
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_splits_match_whole_buffer(self, corpus, seed):
        rng = random.Random(seed)
        payload = ndjson_bytes(corpus)
        engine = FilterEngine(cache=True)
        for _ in range(6):
            expr = random_expression(rng)
            whole = engine.match_bits(expr, corpus)
            chunks = self._random_chunks(rng, payload)
            records = []
            matches = []
            for batch in engine.stream(expr, chunks):
                records.extend(batch.records)
                matches.extend(batch.matches.tolist())
            assert records == corpus.records, expr.notation()
            assert matches == whole.tolist(), expr.notation()

    def test_rerun_of_identical_chunks_hits_cache(self, corpus):
        """Streaming the same chunking twice serves the second pass from
        the cache — and still yields identical bits."""
        payload = ndjson_bytes(corpus)
        chunks = self._random_chunks(random.Random(99), payload)
        engine = FilterEngine(cache=True)
        expr = simple_filter()
        first = [
            batch.matches.tolist()
            for batch in engine.stream(expr, chunks)
        ]
        misses_cold = engine.atom_cache.misses
        hits_cold = engine.atom_cache.hits
        second = [
            batch.matches.tolist()
            for batch in engine.stream(expr, chunks)
        ]
        assert first == second
        assert engine.atom_cache.misses == misses_cold
        assert engine.atom_cache.hits > hits_cold

    def test_cached_and_uncached_streams_agree(self, corpus):
        payload = ndjson_bytes(corpus)
        expr = simple_filter()
        for backend in ("compiled", "scalar"):
            cached = FilterEngine(backend=backend, chunk_bytes=190,
                                  cache=True)
            plain = FilterEngine(backend=backend, chunk_bytes=190)
            cached_batches = list(
                cached.stream(expr, io.BytesIO(payload))
            )
            plain_batches = list(
                plain.stream(expr, io.BytesIO(payload))
            )
            assert len(cached_batches) == len(plain_batches), backend
            for left, right in zip(cached_batches, plain_batches):
                assert left.records == right.records
                assert left.matches.tolist() == right.matches.tolist()


class TestParallelStreaming:
    def test_workers_match_serial(self):
        corpus = load_dataset("taxi", 150, seed=11)
        expr = comp.And([comp.s("taxi", 2), comp.v_int(0, 80)])
        payload = ndjson_bytes(corpus)
        serial = FilterEngine(chunk_bytes=512)
        parallel = FilterEngine(chunk_bytes=512, num_workers=2)
        serial_batches = list(
            serial.stream(expr, io.BytesIO(payload))
        )
        parallel_batches = list(
            parallel.stream(expr, io.BytesIO(payload))
        )
        assert len(serial_batches) == len(parallel_batches)
        for left, right in zip(serial_batches, parallel_batches):
            assert left.records == right.records
            assert left.matches.tolist() == right.matches.tolist()
        assert (
            serial_batches[-1].accepted_seen
            == parallel_batches[-1].accepted_seen
        )

    def test_unpicklable_predicate_falls_back_to_serial(self):
        class LocalPredicate:
            """Defined in a function scope: cannot be pickled."""

            def matches(self, record):
                return b"x" in record

        engine = FilterEngine(
            backend="scalar", chunk_bytes=8, num_workers=2
        )
        payload = b'{"x":1}\n{"y":2}\n{"x":3}\n'
        with pytest.warns(RuntimeWarning, match="not picklable"):
            accepted = list(
                engine.filter_stream(LocalPredicate(), [payload])
            )
        assert accepted == [b'{"x":1}', b'{"x":3}']

    def test_fallback_reason_recorded_and_warned_once(self):
        class LocalPredicate:
            def matches(self, record):
                return True

        engine = FilterEngine(chunk_bytes=8, num_workers=2)
        payload = b'{"x":1}\n'
        with pytest.warns(RuntimeWarning, match="parallel_fallback"):
            list(engine.filter_stream(LocalPredicate(), [payload]))
        reason = engine.stats()["parallel_fallback"]
        assert reason is not None and "picklable" in reason
        assert engine.stats()["workers"] is None
        # the warning fires once per engine, the reason stays current
        import warnings as warnings_module

        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            list(engine.filter_stream(LocalPredicate(), [payload]))
        assert caught == []
        assert engine.stats()["parallel_fallback"] == reason

    def test_backend_instance_fallback_is_reported(self):
        engine = FilterEngine(chunk_bytes=64, num_workers=2)
        payload = b'{"n":"temperature","v":"1.0"}\n'
        with pytest.warns(RuntimeWarning, match="backend instance"):
            batches = list(
                engine.stream(simple_filter(), [payload],
                              backend=ScalarBackend())
            )
        assert batches[0].matches.tolist() == [True]
        assert "backend instance" in (
            engine.stats()["parallel_fallback"]
        )

    def test_successful_parallel_stream_clears_fallback_reason(self):
        class LocalPredicate:
            def matches(self, record):
                return True

        engine = FilterEngine(chunk_bytes=64, num_workers=2)
        payload = b'{"n":"temperature","v":"1.0"}\n'
        with pytest.warns(RuntimeWarning):
            list(engine.filter_stream(LocalPredicate(), [payload]))
        assert engine.stats()["parallel_fallback"] is not None
        list(engine.stream(simple_filter(), [payload]))
        assert engine.stats()["parallel_fallback"] is None
        assert engine.stats()["workers"] is not None

    def test_serial_engine_never_reports_fallback(self):
        engine = FilterEngine(chunk_bytes=64)
        payload = b'{"n":"temperature","v":"1.0"}\n'
        list(engine.stream(simple_filter(), [payload]))
        assert engine.stats()["parallel_fallback"] is None

    def test_fallback_clears_stale_worker_stats(self):
        """A fallback stream must not leave the previous parallel
        stream's worker counters next to its fallback reason."""

        class LocalPredicate:
            def matches(self, record):
                return True

        engine = FilterEngine(chunk_bytes=64, num_workers=2)
        payload = b'{"n":"temperature","v":"1.0"}\n'
        list(engine.stream(simple_filter(), [payload]))
        assert engine.stats()["workers"] is not None
        with pytest.warns(RuntimeWarning):
            list(engine.filter_stream(LocalPredicate(), [payload]))
        stats = engine.stats()
        assert stats["parallel_fallback"] is not None
        assert stats["workers"] is None


class TestEngineConfigArgument:
    def test_config_as_first_positional(self):
        config = EngineConfig(backend="scalar", chunk_bytes=4096,
                              num_workers=2)
        engine = FilterEngine(config)
        assert engine.config is config
        assert engine.config.backend == "scalar"
        assert engine.config.chunk_bytes == 4096

    def test_config_keyword_still_works(self):
        config = EngineConfig(chunk_bytes=2048)
        engine = FilterEngine(config=config)
        assert engine.config is config

    def test_positional_and_keyword_config_rejected(self):
        with pytest.raises(ReproError, match="not both"):
            FilterEngine(EngineConfig(), config=EngineConfig())

    def test_non_config_keyword_rejected_clearly(self):
        with pytest.raises(ReproError, match="EngineConfig"):
            FilterEngine(config=42)

    def test_tuning_kwargs_alongside_config_rejected(self):
        """Mixing a config object with loose execution kwargs would
        silently drop one of them — refuse loudly instead."""
        with pytest.raises(ReproError, match="num_workers"):
            FilterEngine(EngineConfig(backend="scalar"), num_workers=4)
        with pytest.raises(ReproError, match="mp_context"):
            FilterEngine(config=EngineConfig(), mp_context="spawn")
        # cache is engine state, not an EngineConfig parameter
        engine = FilterEngine(EngineConfig(chunk_bytes=2048),
                              cache=True)
        assert engine.atom_cache is not None

    def test_config_engine_streams(self):
        engine = FilterEngine(EngineConfig(chunk_bytes=64))
        payload = b'{"n":"temperature","v":"1.0"}\n{"n":"x"}\n'
        matches = [
            m
            for batch in engine.stream(simple_filter(), [payload])
            for m in batch.matches.tolist()
        ]
        assert matches == [True, False]


# ---------------------------------------------------------------------------
# baselines through the engine
# ---------------------------------------------------------------------------

class TestBaselinePredicates:
    @pytest.fixture(scope="class")
    def corpus(self):
        return load_dataset("smartcity", 200, seed=21)

    def test_substring_probe_vectorizes_exactly(self, corpus):
        engine = FilterEngine(backend="compiled")
        probe = SubstringProbe(b"temp")
        bits = engine.match_bits(probe, corpus)
        assert bits.tolist() == [
            b"temp" in record for record in corpus.records
        ]

    def test_cascade_backends_agree(self, corpus):
        engine = FilterEngine(backend="compiled")
        cascade = optimize_cascade(
            ["temperature", "relativeHumidity"], corpus, max_probes=2
        )
        fast = engine.match_bits(cascade, corpus)
        slow = engine.match_bits(cascade, corpus, backend="scalar")
        assert (fast == slow).all()
        assert fast.tolist() == [
            cascade.matches(record) for record in corpus.records
        ]

    def test_keyvalue_probe_runs_scalar(self, corpus):
        engine = FilterEngine()
        probe = KeyValueProbe(b'"n"', b"temperature", window=24)
        bits = engine.match_bits(probe, corpus)
        assert bits.tolist() == [
            probe.matches(record) for record in corpus.records
        ]

    def test_cascade_streams_like_raw_filters(self, corpus):
        engine = FilterEngine(chunk_bytes=300)
        cascade = Cascade([SubstringProbe(b"temperature")])
        accepted = list(engine.filter_stream(
            cascade, [ndjson_bytes(corpus)]
        ))
        assert accepted == [
            record
            for record in corpus.records
            if cascade.matches(record)
        ]

    def test_exact_oracle_is_an_engine_predicate(self):
        from repro.data import ALL_QUERIES

        query = ALL_QUERIES["QS0"]
        dataset = load_dataset(query.dataset_name, 120, seed=5)
        engine = FilterEngine(backend="compiled")
        oracle = ExactFilter(query)
        truth = engine.match_bits(oracle, dataset)
        assert truth.tolist() == query.truth_array(dataset).tolist()
        scalar = engine.match_bits(
            ExactFilter(query), dataset, backend="scalar"
        )
        assert (truth == scalar).all()

    def test_unsupported_predicate_rejected(self):
        with pytest.raises(ReproError):
            FilterEngine().match_bits(
                object(), [b"{}"], backend="scalar"
            )

    def test_probe_with_separator_falls_back_to_scalar(self, corpus):
        """A needle containing a record separator has no raw-filter
        form; the engine must run it scalar (all-False), not crash."""
        probe = SubstringProbe(b"a\nb")
        bits = probe.match_array(corpus)
        assert not bits.any()
        cascade = Cascade([probe, SubstringProbe(b"temp")])
        fast = FilterEngine().match_bits(cascade, corpus)
        assert not fast.any()


# ---------------------------------------------------------------------------
# engine behind the system simulation
# ---------------------------------------------------------------------------

class TestSystemIntegration:
    def test_soc_uses_shared_engine_bits(self):
        from repro.system import RawFilterSoC

        dataset = load_dataset("smartcity", 120)
        engine = FilterEngine()
        soc = RawFilterSoC(simple_filter(), engine=engine)
        report = soc.run(dataset)
        expected = engine.match_bits(simple_filter(), dataset)
        assert report.matches.tolist() == expected.tolist()

    def test_lane_rejects_short_accept_mask(self):
        from repro.system import FilterLane

        lane = FilterLane(simple_filter())
        with pytest.raises(ReproError):
            lane.process_records([b"a", b"b", b"c"],
                                 accept_mask=[True])

    def test_lane_without_mask_uses_engine(self):
        from repro.system import FilterLane

        lane = FilterLane(simple_filter())
        records = [
            b'{"e":[{"v":"30.0","n":"temperature"}]}',
            b'{"e":[{"v":"99.0","n":"temperature"}]}',
        ]
        cycles, matches = lane.process_records(records)
        payload = sum(len(r) + 1 for r in records)
        assert cycles == payload + lane.pipeline_fill_cycles
        assert matches.tolist() == [True, False]

    def test_multistream_shares_engine(self):
        from repro.system import MultiStreamSoC, StreamAssignment

        engine = FilterEngine()
        soc = MultiStreamSoC(
            [
                StreamAssignment("a", comp.s("temperature", 1), 3),
                StreamAssignment("b", comp.s("taxi", 2), 4),
            ],
            engine=engine,
        )
        datasets = {
            "a": load_dataset("smartcity", 60),
            "b": load_dataset("taxi", 60),
        }
        reports = soc.run(datasets)
        assert set(reports) == {"a", "b"}
        for name, assignment in (("a", soc.assignments[0]),
                                 ("b", soc.assignments[1])):
            expected = engine.match_bits(
                assignment.expr, datasets[name]
            )
            assert reports[name].matches.tolist() == expected.tolist()
