"""Engine streaming throughput: chunked execution vs whole-corpus.

The unified FilterEngine must not give back the harness's vectorised
throughput when a corpus arrives as byte chunks: framing + per-chunk
evaluation should stay within a small factor of the one-shot dataset
path, and far above the scalar reference loop.
"""

import io

import repro.core.composition as comp
from common import dataset, write_result
from repro.data import inflate
from repro.engine import FilterEngine
from repro.eval.report import render_table

CHUNK_BYTES = 256 * 1024
TARGET_BYTES = 2 * 1024 * 1024


def _expr():
    return comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))


def _corpus():
    return inflate(dataset("smartcity", 2000), TARGET_BYTES)


def _stream_once(engine, expr, payload, backend=None):
    last = None
    for last in engine.stream(
        expr, io.BytesIO(payload), backend=backend
    ):
        pass
    return last


def test_engine_streaming_report():
    corpus = _corpus()
    payload = corpus.stream.tobytes()
    expr = _expr()
    engine = FilterEngine(chunk_bytes=CHUNK_BYTES)

    import time

    rows = []
    one_shot = engine.match_bits(expr, corpus)
    for label, backend in (("vectorized", "vectorized"),
                           ("scalar", "scalar")):
        start = time.perf_counter()
        last = _stream_once(engine, expr, payload, backend)
        elapsed = time.perf_counter() - start
        assert last.records_seen == len(corpus)
        assert last.accepted_seen == int(one_shot.sum())
        rows.append([
            label,
            f"{last.records_seen}",
            f"{elapsed:.3f}",
            f"{len(payload) / elapsed / 1e6:.1f}",
        ])
    text = render_table(
        ["Backend", "Records", "Seconds", "MB/s"],
        rows,
        title=(
            f"Chunked streaming over {len(payload)} bytes "
            f"(chunk={CHUNK_BYTES})"
        ),
    )
    write_result("perf_engine_streaming", text)


def test_streaming_overhead_bounded(benchmark):
    """Chunked vectorised streaming, benchmarked."""
    corpus = _corpus()
    payload = corpus.stream.tobytes()
    expr = _expr()
    engine = FilterEngine(chunk_bytes=CHUNK_BYTES)
    last = benchmark(lambda: _stream_once(engine, expr, payload))
    assert last.records_seen == len(corpus)
