"""Structural state is record-local on every execution path.

The scalar oracle starts every record outside a string, as the
hardware's ``record_reset`` does, so a record with an unbalanced quote
or a dangling backslash must not change the bits of the records after
it in the same batch.
"""

import json
import random

import pytest

from repro.cli import parse_filter_expression
from repro.core import composition as comp
from repro.data import Dataset, Query, RangeCondition, load_dataset
from repro.engine import AtomCache, FilterEngine, RecordFramer, as_dataset
from repro.eval.harness import DatasetView, evaluate_expression
from repro.serve import GatewayClient, GatewayThread

EXPR = "group(s:1:temperature,v:float:-12.5:43.1)"
RECORDS = [
    b'{"temperature": 1, "x": "oops}',
    b'{"temperature": 20.5}',
    b'{"temperature": 20.5}',
]
WANT = [False, True, True]
PAYLOAD = b"\n".join(RECORDS) + b"\n"


def stream_bits(engine, expression, payload):
    bits = []
    for batch in engine.stream(expression, [payload]):
        bits.extend(batch.matches.tolist())
    return bits


def match_bits(backend, expression, records):
    """Bits from an engine backend, or from the harness's vectorised
    full-batch evaluation (``"vectorized"``), the design-space path."""
    if backend == "vectorized":
        view = DatasetView(as_dataset(records))
        return evaluate_expression(view, expression, {})
    return FilterEngine(backend=backend).match_bits(expression, records)


class TestMalformedRecordDoesNotLeak:
    @pytest.mark.parametrize(
        "backend", ["scalar", "vectorized", "compiled"]
    )
    def test_every_backend(self, backend):
        bits = match_bits(backend, parse_filter_expression(EXPR), RECORDS)
        assert bits.tolist() == WANT

    @pytest.mark.parametrize(
        "backend", ["scalar", "vectorized", "compiled"]
    )
    def test_fires_after_the_last_close_stay_in_their_record(
        self, backend
    ):
        """A group segment opens at its record's first byte, so fires
        behind a record's last scope close do not reach the next
        record's first close."""
        records = [b'{"a": 1} "temperature": 20.5', b'{"b": [0]}']
        bits = match_bits(backend, parse_filter_expression(EXPR), records)
        assert bits.tolist() == [False, False]

    @pytest.mark.parametrize("backend", ["vectorized", "compiled"])
    def test_stream_with_cache(self, backend):
        expr = parse_filter_expression(EXPR)
        if backend == "vectorized":
            # framed batches through the harness and an AtomCache
            framer = RecordFramer()
            batches = [framer.push(PAYLOAD), framer.flush()]
            cache = AtomCache()

            def replay():
                return [
                    bit
                    for batch in batches if batch
                    for bit in cache.match_bits(expr, batch).tolist()
                ]
        else:
            engine = FilterEngine(backend=backend, cache=True)

            def replay():
                return stream_bits(engine, expr, PAYLOAD)
        assert replay() == WANT
        # the cached replay serves the same bits
        assert replay() == WANT

    def test_resident_pool(self):
        with FilterEngine(cache=True, num_workers=2) as engine:
            bits = stream_bits(
                engine, parse_filter_expression(EXPR), PAYLOAD
            )
            records = sum(
                counters["records"]
                for counters in engine.stats()["workers"][
                    "workers"
                ].values()
            )
        assert bits == WANT
        assert records == len(RECORDS)

    def test_gateway_session(self):
        with GatewayThread(engines=1) as gateway:
            with GatewayClient(
                "127.0.0.1", gateway.port, tenant="malformed"
            ) as client:
                bits = []
                for batch in client.submit(EXPR, PAYLOAD):
                    bits.extend(batch.matches.tolist())
        assert bits == WANT


def malformed(rng, record):
    """``record`` with an unbalanced quote or an odd backslash run
    spliced in at a random point."""
    cut = rng.randrange(len(record) + 1)
    junk = rng.choice([b'"', b'\\', b'\\\\\\', b'"\\', b'\\"}"'])
    return record[:cut] + junk + record[cut:]


@pytest.mark.parametrize("seed", range(3))
def test_fuzz_against_scalar_oracle(seed):
    """Malformed records followed by well-formed ones: every backend
    returns the oracle's bits, and no well-formed record the exact
    query accepts is rejected."""
    rng = random.Random(seed)
    pool = load_dataset("smartcity", 120, seed=seed).records
    records, wellformed = [], []
    for record in pool:
        if rng.random() < 0.5:
            records.append(malformed(rng, record))
            wellformed.append(False)
        records.append(record)
        wellformed.append(True)
    dataset = Dataset("fuzz", records)
    expr = comp.And([
        parse_filter_expression(EXPR),
        parse_filter_expression("group(s:1:humidity,v:float:10.7:95.2)"),
    ])
    want = FilterEngine(backend="scalar").match_bits(expr, dataset)
    for backend in ("vectorized", "compiled"):
        got = match_bits(backend, expr, dataset)
        assert got.tolist() == want.tolist(), backend
    exact = Query("t-h", "smartcity", "senml", [
        RangeCondition("temperature", "-12.5", "43.1"),
        RangeCondition("humidity", "10.7", "95.2"),
    ], paper_selectivity=None)
    accepted = 0
    for record, ok, bit in zip(records, wellformed, want.tolist()):
        if ok and exact.matches(json.loads(record)):
            accepted += 1
            assert bit, record
    assert accepted > 0
