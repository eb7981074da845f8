"""Larger-than-memory streaming: flat RSS over a capped, tiered cache.

The claim of the file-ingest + disk-tier stack, measured end to end: a
corpus **many times larger than the AtomCache byte cap** streams
through :class:`~repro.engine.sources.FileSource` reads with the LRU
demoting cold masks to the :class:`~repro.engine.cache_store.CacheStore`
— peak resident memory stays flat (within 15%) relative to a
small-corpus run, while the second pass is served from **promoted**
disk entries instead of re-evaluating.

Machine-readable results land in ``results/BENCH_tiered.json``.
"""

import os
import resource
import sys
import time

import repro.core.composition as comp
from common import write_json_result, write_result
from repro.data import write_ndjson_corpus
from repro.engine import (
    AtomCache,
    FileSource,
    FilterEngine,
)
from repro.eval.report import render_table

CHUNK_BYTES = 1 << 20
SMALL_CORPUS_BYTES = 4 << 20
LARGE_CORPUS_BYTES = 16 << 20
#: far below the large corpus's mask volume (masks ~= bytes/200), so
#: the LRU must churn through the disk tier; the corpus is ~1000x the
#: cap, comfortably past the >= 4x acceptance floor
CACHE_CAP_BYTES = 16 * 1024


def _effective_cores():
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


EFFECTIVE_CORES = _effective_cores()


def _peak_rss_bytes():
    """Process high-water resident set (ru_maxrss is KB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return peak


def _expr():
    return comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))


def _stream_pass(engine, source):
    start = time.perf_counter()
    records = 0
    nbytes = 0
    for batch in engine.stream(_expr(), source):
        records += len(batch.records)
        nbytes = batch.bytes_seen
    return {
        "seconds": time.perf_counter() - start,
        "records": records,
        "bytes": nbytes,
        "bytes_per_second": nbytes / (time.perf_counter() - start),
    }


def test_flat_rss_over_tiered_cache(tmp_path):
    results = {"effective_cores": EFFECTIVE_CORES,
               "cache_cap_bytes": CACHE_CAP_BYTES}

    # -- baseline: the same total bytes as the large run, but split
    # into independent small corpora streamed one after another, same
    # capped+tiered configuration.  This equalises the *work* (cold
    # chunk evaluations, allocator high-water ratchet) between the two
    # runs, so the only variable left is what this test is about: the
    # size of a single contiguous corpus.
    small_engine = FilterEngine(
        chunk_bytes=CHUNK_BYTES,
        cache=AtomCache(max_bytes=CACHE_CAP_BYTES),
        cache_store=str(tmp_path / "small-store"),
    )
    small_rounds = LARGE_CORPUS_BYTES // SMALL_CORPUS_BYTES
    small_info = small_pass = None
    for round_index in range(small_rounds):
        small_path = tmp_path / f"small-{round_index}.ndjson"
        small_info = write_ndjson_corpus(
            small_path, target_bytes=SMALL_CORPUS_BYTES,
            seed=11 + round_index,
        )
        # cold + warm, mirroring the large run's two passes
        _stream_pass(
            small_engine, FileSource(small_path, CHUNK_BYTES)
        )
        small_pass = _stream_pass(
            small_engine, FileSource(small_path, CHUNK_BYTES)
        )
    small_peak = _peak_rss_bytes()
    results["small"] = {**small_info, **small_pass,
                        "peak_rss_bytes": small_peak}

    # -- the large corpus: ~1000x the cache cap, two passes
    large_path = tmp_path / "large.ndjson"
    large_info = write_ndjson_corpus(
        large_path, target_bytes=LARGE_CORPUS_BYTES, seed=23
    )
    engine = FilterEngine(
        chunk_bytes=CHUNK_BYTES,
        cache=AtomCache(max_bytes=CACHE_CAP_BYTES),
        cache_store=str(tmp_path / "large-store"),
    )
    cold = _stream_pass(engine, FileSource(large_path, CHUNK_BYTES))
    warm = _stream_pass(engine, FileSource(large_path, CHUNK_BYTES))
    large_peak = _peak_rss_bytes()
    cache = engine.atom_cache
    cache_stats = cache.stats()
    results["large"] = {
        **large_info,
        "cold": cold,
        "warm": warm,
        "peak_rss_bytes": large_peak,
        "cache": cache_stats,
    }

    write_result(
        "perf_tiered_ingest",
        render_table(
            ["Corpus", "Bytes", "MB/s", "Peak RSS (MB)"],
            [
                ["small (baseline)", str(small_info["bytes"]),
                 f"{small_pass['bytes_per_second'] / 1e6:.1f}",
                 f"{small_peak / 1e6:.1f}"],
                [f"large cold ({large_info['bytes'] // CACHE_CAP_BYTES}"
                 "x cache cap)",
                 str(large_info["bytes"]),
                 f"{cold['bytes_per_second'] / 1e6:.1f}",
                 f"{large_peak / 1e6:.1f}"],
                ["large warm (promoted from disk)",
                 str(large_info["bytes"]),
                 f"{warm['bytes_per_second'] / 1e6:.1f}",
                 f"{large_peak / 1e6:.1f}"],
            ],
            title=(
                f"Tiered ingest, cache capped at {CACHE_CAP_BYTES} "
                f"bytes ({EFFECTIVE_CORES} effective cores)"
            ),
        ),
    )
    write_json_result("tiered", results)

    # record-count sanity: every generated record was framed
    assert cold["records"] == large_info["records"]
    assert warm["records"] == large_info["records"]

    # the tier actually cycled: evictions demoted, the warm pass was
    # served by batched promotion from disk
    assert cache_stats["demoted"] > 0, "LRU never demoted to disk"
    assert cache_stats["promoted"] > 0, "no entries promoted back"
    assert cache_stats["tier_hits"] > 0, "warm pass never hit the tier"
    assert cache_stats["store"]["entries"] > 0

    # flat RSS: 4x more corpus through the same capped cache must not
    # grow the resident footprint (ru_maxrss is monotonic, so running
    # the small pass first makes this a true upper-bound check)
    assert large_peak <= small_peak * 1.15, (
        f"peak RSS grew with corpus size: {small_peak / 1e6:.1f} MB "
        f"(small) -> {large_peak / 1e6:.1f} MB (large)"
    )

    # a warm pass served from the disk tier beats the cold pass: the
    # promoted masks replace the vectorised sweeps
    assert warm["seconds"] < cold["seconds"], (
        f"warm pass ({warm['seconds']:.3f}s) not faster than cold "
        f"({cold['seconds']:.3f}s)"
    )
