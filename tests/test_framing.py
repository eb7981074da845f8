"""Differential seam tests for the columnar RecordFramer.

The oracle is the split-based framer the engine used before batches
became one buffer + offsets: ``bytes`` per record, found with
``bytes.split``.  Random corpora with CRLF endings, blank and
whitespace-only lines, records with leading whitespace and records
larger than a chunk are cut at random seams; every push and flush of
:class:`~repro.engine.framing.RecordFramer` must give the oracle's
records, as a buffer whose layout matches them byte for byte.
"""

import numpy as np
import pytest

import repro.core.composition as comp
from repro.data import load_dataset
from repro.engine import FilterEngine, MmapSource, RecordFramer


class SplitFramer:
    """The oracle: frames a stream with ``bytes.split``."""

    def __init__(self):
        self._tail = b""

    def push(self, chunk):
        data = self._tail + bytes(chunk)
        if b"\n" not in data:
            self._tail = data
            return []
        lines = data.split(b"\n")
        self._tail = lines.pop()
        return [
            line[:-1] if line.endswith(b"\r") else line
            for line in lines
            if line.strip()
        ]

    def flush(self):
        tail, self._tail = self._tail, b""
        if tail.endswith(b"\r"):
            tail = tail[:-1]
        return [tail] if tail.strip() else []


def assert_batch_is(batch, records):
    """The batch's buffer, offsets and records all match ``records``."""
    assert batch.stream.dtype == np.uint8
    assert batch.starts.dtype == np.int64
    assert batch.stream.tobytes() == b"".join(r + b"\n" for r in records)
    assert batch.starts.tolist() == [
        sum(len(r) + 1 for r in records[:i]) for i in range(len(records))
    ]
    assert len(batch) == len(records)
    assert list(batch.records) == records


def random_line(rng):
    kind = rng.integers(0, 8)
    body = b'{"k":%d,"s":"%s"}' % (
        rng.integers(0, 10 ** 6), b"x" * int(rng.integers(0, 40))
    )
    if kind == 0:
        return b""  # blank line
    if kind == 1:
        spaces = np.frombuffer(b" \t\r\x0b\x0c", dtype=np.uint8)
        return rng.choice(spaces, size=int(rng.integers(1, 5))).tobytes()
    if kind == 2:
        return b" \t"[:int(rng.integers(1, 3))] + body  # leading space
    if kind == 3:
        return body + b"\r"  # CRLF
    if kind == 4:
        return body + b"\r\r"  # only one CR is stripped
    if kind == 5:
        return body + b"  "  # trailing whitespace is kept
    if kind == 6:
        return b"y" * int(rng.integers(100, 400))  # larger than a chunk
    return body


def random_stream(rng, lines):
    data = b"\n".join(random_line(rng) for _ in range(lines))
    if rng.random() < 0.5:
        data += b"\n"
    return data


def random_seams(rng, data):
    size = len(data)
    cuts = sorted(set(rng.integers(0, size + 1, int(rng.integers(0, 30)))))
    # a CR/LF pair split across a seam
    crlf = data.find(b"\r\n")
    if crlf >= 0:
        cuts = sorted(set(cuts) | {crlf + 1})
    bounds = [0, *cuts, size]
    return [data[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("seed", range(40))
def test_random_seams_match_the_split_oracle(seed):
    rng = np.random.default_rng(seed)
    data = random_stream(rng, int(rng.integers(1, 60)))
    framer, oracle = RecordFramer(), SplitFramer()
    for chunk in random_seams(rng, data):
        assert_batch_is(framer.push(chunk), oracle.push(chunk))
    assert_batch_is(framer.flush(), oracle.flush())
    assert framer.bytes_consumed == len(data)


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_chunk_types_frame_alike(kind):
    rng = np.random.default_rng(99)
    data = random_stream(rng, 50)
    framer, oracle = RecordFramer(), SplitFramer()
    for chunk in random_seams(rng, data):
        assert_batch_is(framer.push(kind(chunk)), oracle.push(chunk))
    assert_batch_is(framer.flush(), oracle.flush())


def test_every_cut_of_a_crlf_blank_corpus():
    data = b'{"a":1}\r\n\r\n \t\n  {"b":2}\r\n\n{"c":3}\r'
    for cut in range(len(data) + 1):
        framer, oracle = RecordFramer(), SplitFramer()
        for chunk in (data[:cut], data[cut:]):
            assert_batch_is(framer.push(chunk), oracle.push(chunk))
        assert_batch_is(framer.flush(), oracle.flush())


def test_bytes_chunk_without_a_tail_is_not_copied():
    chunk = b'{"a":1}\n{"b":2}\n{"c"'
    batch = RecordFramer().push(chunk)
    assert batch.records == [b'{"a":1}', b'{"b":2}']
    assert np.shares_memory(batch.stream, np.frombuffer(chunk, np.uint8))


def test_memoryview_chunks_are_copied():
    chunk = bytearray(b'{"a":1}\n')
    batch = RecordFramer().push(memoryview(chunk))
    chunk[:] = b"X" * len(chunk)
    assert batch.records == [b'{"a":1}']


def test_mmap_source_closes_after_a_cached_stream(tmp_path):
    """Batches retained by the AtomCache (its view memo) hold copies,
    never the map's windows, so closing the source cannot fail."""
    corpus = load_dataset("smartcity", 200, seed=5)
    path = tmp_path / "corpus.ndjson"
    path.write_bytes(corpus.stream.tobytes())
    expr = comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))
    engine = FilterEngine(cache=True, chunk_bytes=4096)
    source = MmapSource(path, chunk_bytes=4096)
    batches = list(engine.stream(expr, source))
    source.close()  # raises BufferError if a window were still pinned
    assert engine.atom_cache.stats()["views"] > 0
    got = np.concatenate([batch.matches for batch in batches])
    want = FilterEngine(backend="scalar").match_bits(expr, corpus)
    assert got.tolist() == want.tolist()
