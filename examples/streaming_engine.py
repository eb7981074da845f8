"""Streaming a larger-than-chunk corpus through the FilterEngine.

Demonstrates the unified execution layer:

* one engine, pluggable backends (``vectorized`` vs the ``scalar``
  reference oracle);
* chunked streaming in bounded memory — the corpus is consumed as
  64 KiB chunks, records are reframed across chunk seams;
* pluggable ingest: the same stream arriving over a local socket
  through a ``SocketSource`` (with per-source byte accounting);
* parallel streaming through the resident worker pool, with workers
  warmed from the parent's AtomCache and per-worker counters in
  ``engine.stats()``;
* the same engine evaluating a Sparser-style baseline cascade, so the
  accuracy comparison runs through one audited code path.

Run with::

    PYTHONPATH=src python examples/streaming_engine.py
"""

import io
import socket
import threading

import repro.core.composition as comp
from repro.baselines import optimize_cascade
from repro.data import inflate, load_dataset
from repro.engine import FilterEngine, SocketSource

CHUNK_BYTES = 64 * 1024


def main():
    expr = comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))
    base = load_dataset("smartcity", 500, seed=42)
    corpus = inflate(base, 4 * CHUNK_BYTES)  # larger than one chunk
    payload = b"".join(record + b"\n" for record in corpus.records)
    print(f"corpus: {len(corpus)} records, {len(payload)} bytes "
          f"(chunk size {CHUNK_BYTES})")

    engine = FilterEngine(chunk_bytes=CHUNK_BYTES)

    batches = 0
    accepted = total = 0
    for batch in engine.stream(expr, io.BytesIO(payload)):
        batches += 1
        accepted = batch.accepted_seen
        total = batch.records_seen
    print(f"vectorized streaming: {accepted}/{total} accepted "
          f"across {batches} batches")

    scalar_bits = engine.match_bits(expr, corpus, backend="scalar")
    print(f"scalar oracle agrees: "
          f"{accepted == int(scalar_bits.sum())}")

    # the same stream arriving over a socket, filtered identically
    feeder, receiver = socket.socketpair()

    def feed():
        feeder.sendall(payload)
        feeder.close()

    thread = threading.Thread(target=feed)
    thread.start()
    source = SocketSource(receiver, chunk_bytes=CHUNK_BYTES)
    socket_accepted = 0
    for batch in engine.stream(expr, source):
        socket_accepted = batch.accepted_seen
    thread.join()
    receiver.close()
    print(f"socket ingest: {socket_accepted}/{total} accepted, "
          f"source saw {source.stats()['bytes_read']} bytes "
          f"in {source.stats()['chunks_read']} chunks")

    # parallel streaming: resident worker pool, warm-cache workers
    warm = FilterEngine(chunk_bytes=CHUNK_BYTES, cache=True)
    for batch in warm.stream(expr, io.BytesIO(payload)):
        pass  # serial warm pass fills the AtomCache
    parallel_accepted = 0
    with FilterEngine(
        chunk_bytes=CHUNK_BYTES, num_workers=2, cache=warm.atom_cache,
    ) as parallel:
        for batch in parallel.stream(expr, io.BytesIO(payload)):
            parallel_accepted = batch.accepted_seen
    workers = parallel.stats()["workers"]
    print(f"parallel ({workers['num_workers']} warm workers): "
          f"{parallel_accepted}/{total} accepted, "
          f"{workers['cache_hits']} worker cache hits / "
          f"{workers['cache_misses']} misses")

    cascade = optimize_cascade(["temperature"], base, max_probes=2)
    sparser_accepted = engine.count_accepted(cascade, corpus)
    print(f"sparser cascade {cascade!r}: "
          f"{sparser_accepted}/{total} accepted via the same engine")


if __name__ == "__main__":
    main()
