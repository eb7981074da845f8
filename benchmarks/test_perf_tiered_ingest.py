"""Larger-than-memory streaming: flat RSS over a capped, tiered cache.

The claim of the file-ingest + disk-tier stack, measured end to end: a
corpus **many times larger than the AtomCache byte cap** streams
through :class:`~repro.engine.sources.FileSource` reads with the LRU
demoting cold masks to the :class:`~repro.engine.cache_store.CacheStore`
— peak resident memory stays flat (within 15%) relative to a
small-corpus run, while the second pass is served from **promoted**
disk entries instead of re-evaluating.  The small-corpus rounds and the
large corpus each run in a fresh interpreter (this file run as a
script), so each side's peak RSS is its own, not whatever the process
reached before.

Machine-readable results land in ``results/BENCH_tiered.json``.
"""

import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import repro
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


def _small_side(directory):
    """The baseline: the same total bytes as the large run, split into
    independent small corpora streamed one after another through the
    same capped+tiered configuration.  This equalises the *work* (cold
    chunk evaluations, allocator high-water ratchet) between the two
    runs, so the only variable left is what this test is about: the
    size of a single contiguous corpus."""
    engine = FilterEngine(
        chunk_bytes=CHUNK_BYTES,
        cache=AtomCache(max_bytes=CACHE_CAP_BYTES),
        cache_store=str(directory / "small-store"),
    )
    info = last = None
    for round_index in range(LARGE_CORPUS_BYTES // SMALL_CORPUS_BYTES):
        path = directory / f"small-{round_index}.ndjson"
        info = write_ndjson_corpus(
            path, target_bytes=SMALL_CORPUS_BYTES,
            seed=11 + round_index,
        )
        # cold + warm, mirroring the large run's two passes
        _stream_pass(engine, FileSource(path, CHUNK_BYTES))
        last = _stream_pass(engine, FileSource(path, CHUNK_BYTES))
    return {**info, **last, "peak_rss_bytes": _peak_rss_bytes()}


def _large_side(directory):
    """The large corpus: ~1000x the cache cap, two passes."""
    path = directory / "large.ndjson"
    info = write_ndjson_corpus(
        path, target_bytes=LARGE_CORPUS_BYTES, seed=23
    )
    engine = FilterEngine(
        chunk_bytes=CHUNK_BYTES,
        cache=AtomCache(max_bytes=CACHE_CAP_BYTES),
        cache_store=str(directory / "large-store"),
    )
    cold = _stream_pass(engine, FileSource(path, CHUNK_BYTES))
    warm = _stream_pass(engine, FileSource(path, CHUNK_BYTES))
    return {
        **info,
        "cold": cold,
        "warm": warm,
        "peak_rss_bytes": _peak_rss_bytes(),
        "cache": engine.atom_cache.stats(),
    }


SIDES = {"small": _small_side, "large": _large_side}


def _in_fresh_process(side, directory):
    """Run one side in a new interpreter; its result document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(repro.__file__)),
        env.get("PYTHONPATH"),
    ]))
    directory.mkdir()
    child = subprocess.run(
        [sys.executable, __file__, side, str(directory)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_flat_rss_over_tiered_cache(tmp_path):
    results = {"effective_cores": EFFECTIVE_CORES,
               "cache_cap_bytes": CACHE_CAP_BYTES}
    small = results["small"] = _in_fresh_process("small", tmp_path / "s")
    large = results["large"] = _in_fresh_process("large", tmp_path / "l")
    small_peak = small["peak_rss_bytes"]
    large_peak = large["peak_rss_bytes"]
    cold, warm, cache_stats = large["cold"], large["warm"], large["cache"]

    write_result(
        "perf_tiered_ingest",
        render_table(
            ["Corpus", "Bytes", "MB/s", "Peak RSS (MB)"],
            [
                ["small (baseline)", str(small["bytes"]),
                 f"{small['bytes_per_second'] / 1e6:.1f}",
                 f"{small_peak / 1e6:.1f}"],
                [f"large cold ({large['bytes'] // CACHE_CAP_BYTES}"
                 "x cache cap)",
                 str(large["bytes"]),
                 f"{cold['bytes_per_second'] / 1e6:.1f}",
                 f"{large_peak / 1e6:.1f}"],
                ["large warm (promoted from disk)",
                 str(large["bytes"]),
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
    assert cold["records"] == large["records"]
    assert warm["records"] == large["records"]

    # the tier actually cycled: evictions demoted, the warm pass was
    # served by batched promotion from disk
    assert cache_stats["demoted"] > 0, "LRU never demoted to disk"
    assert cache_stats["promoted"] > 0, "no entries promoted back"
    assert cache_stats["tier_hits"] > 0, "warm pass never hit the tier"
    assert cache_stats["store"]["entries"] > 0

    # flat RSS: 4x more corpus through the same capped cache must not
    # grow the resident footprint (each side measured from a fresh
    # interpreter's high-water mark)
    assert large_peak <= small_peak * 1.15, (
        f"peak RSS grew with corpus size: {small_peak / 1e6:.1f} MB "
        f"(small) -> {large_peak / 1e6:.1f} MB (large)"
    )

    # a warm pass served from the disk tier beats the cold pass: the
    # promoted masks replace the kernel sweeps
    assert warm["seconds"] < cold["seconds"], (
        f"warm pass ({warm['seconds']:.3f}s) not faster than cold "
        f"({cold['seconds']:.3f}s)"
    )


if __name__ == "__main__":
    print(json.dumps(
        SIDES[sys.argv[1]](pathlib.Path(sys.argv[2])), default=str
    ))
