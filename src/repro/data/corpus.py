"""Dataset containers and corpus utilities.

A :class:`Dataset` is an ordered batch of newline-delimited JSON
records, held as one newline-terminated byte stream plus record offsets
(what the FPGA sees); per-record ``bytes`` and parsed values (what the
oracle sees) are built on first use.  :func:`inflate` grows a dataset to
a byte budget for the throughput experiment (§IV-B preloads "44 MB of
inflated JSON data" into RAM).  :func:`write_ndjson_corpus` is the
on-disk counterpart for the larger-than-memory experiments: it streams
a RiotBench-style synthetic corpus to a file in bounded memory, so the
corpus size is limited by disk, not RAM.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from ..jsonpath.parser import loads


def record_starts(newlines):
    """Record start offsets, from the offsets of the records' newlines."""
    starts = np.zeros(newlines.shape[0], dtype=np.int64)
    starts[1:] = newlines[:-1] + 1
    return starts


class Dataset:
    """A record batch in columnar form: one buffer + offsets.

    :attr:`stream` is a ``uint8`` array in which the records lie back to
    back, each ending with ``\\n`` (records hold no other newline);
    :attr:`starts` is the ``int64`` offset of each record in it.  The
    same class carries generated corpora, framed stream chunks, resident
    worker slot copies and compiled-kernel sub-batches.
    """

    def __init__(self, name, records, parsed=None):
        records = [bytes(record) for record in records]
        stream = np.frombuffer(b"\n".join(records + [b""]), dtype=np.uint8)
        newlines = np.flatnonzero(stream == 0x0A)
        if newlines.shape[0] != len(records):
            raise ReproError("records must not contain newlines")
        self._adopt(name, stream, record_starts(newlines), parsed)
        self._records = records

    @classmethod
    def from_buffer(cls, name, stream, starts, parsed=None):
        """A batch over ``stream`` and its record ``starts``, no copy."""
        dataset = cls.__new__(cls)
        dataset._adopt(name, stream, starts, parsed)
        return dataset

    def _adopt(self, name, stream, starts, parsed):
        self.name = name
        self.stream = stream
        self.starts = starts
        self._records = None
        self._parsed = list(parsed) if parsed is not None else None

    def __len__(self):
        return int(self.starts.shape[0])

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def lengths(self):
        """Bytes of each record in :attr:`stream`, newline included."""
        return np.diff(self.starts, append=self.stream.shape[0])

    @property
    def records(self):
        """The records as ``bytes`` without their newline, built lazily."""
        if self._records is None:
            self._records = self._slices(self.starts, self.lengths)
        return self._records

    def select(self, mask):
        """The records where ``mask`` is set, sliced out of the buffer."""
        indices = np.flatnonzero(mask)
        return self._slices(self.starts[indices], self.lengths[indices])

    def _slices(self, starts, lengths):
        if not starts.shape[0]:
            return []
        blob = self.stream.tobytes()
        ends = (starts + lengths - 1).tolist()
        return [blob[start:end] for start, end in zip(starts.tolist(), ends)]

    def slice(self, lo, hi):
        """Records ``lo`` to ``hi`` as a batch over the same buffer."""
        begin = int(self.starts[lo])
        end = int(self.starts[hi]) if hi < len(self) else None
        return Dataset.from_buffer(
            self.name, self.stream[begin:end], self.starts[lo:hi] - begin
        )

    @property
    def parsed(self):
        """Parsed record values (via the strict JSON parser), cached."""
        if self._parsed is None:
            self._parsed = [loads(record) for record in self.records]
        return self._parsed

    @property
    def total_bytes(self):
        return int(self.stream.shape[0])

    def subset(self, indices):
        parsed = None
        if self._parsed is not None:
            parsed = [self._parsed[i] for i in indices]
        return Dataset(
            self.name, [self.records[i] for i in indices], parsed
        )

    def __repr__(self):
        return (
            f"Dataset({self.name!r}, records={len(self)}, "
            f"bytes={self.total_bytes})"
        )


def inflate(dataset, target_bytes):
    """Repeat a dataset's records until the stream reaches a byte budget.

    Mirrors the paper's throughput experiment setup (44 MB of inflated
    RiotBench JSON preloaded to RAM).
    """
    if target_bytes <= 0:
        raise ReproError("target size must be positive")
    if not len(dataset):
        raise ReproError("cannot inflate an empty dataset")
    # whole copies, then the shortest head that reaches the budget
    copies, rest = divmod(target_bytes - 1, dataset.total_bytes)
    head = int(np.searchsorted(np.cumsum(dataset.lengths), rest + 1)) + 1
    stream = np.concatenate(
        [dataset.stream] * copies + [dataset.slice(0, head).stream]
    )
    parsed = dataset.parsed * (copies + 1)
    return Dataset.from_buffer(
        f"{dataset.name}-inflated", stream,
        record_starts(np.flatnonzero(stream == 0x0A)),
        parsed[:copies * len(dataset) + head],
    )


def write_ndjson_corpus(path, dataset="smartcity", target_bytes=0,
                        seed=0, batch_records=2000):
    """Stream a synthetic RiotBench-style corpus to disk in bounded memory.

    Unlike :func:`inflate` (which materialises the whole corpus in RAM,
    matching the paper's preloaded-44-MB setup), this writes batches of
    ``batch_records`` freshly generated records at a time until the file
    reaches ``target_bytes`` — peak memory is one batch, so multi-GB
    corpora for the larger-than-memory experiments cost disk, not RAM.
    Each batch uses a distinct generator seed (derived from ``seed``),
    so batch contents — and therefore their dataset fingerprints — are
    unique rather than one batch repeated.

    Returns a summary dict: ``path``, ``bytes``, ``records``,
    ``batches``.
    """
    # local import: the generators build Dataset instances from this
    # module, so a top-level import would be circular
    from .riotbench import load_dataset

    if target_bytes <= 0:
        raise ReproError("target size must be positive")
    if batch_records <= 0:
        raise ReproError("batch_records must be positive")
    total = 0
    records_written = 0
    batches = 0
    with open(path, "wb") as handle:
        while total < target_bytes:
            batch = load_dataset(
                dataset, batch_records, seed=seed + batches
            )
            handle.write(batch.stream)
            total += batch.total_bytes
            records_written += len(batch)
            batches += 1
    return {
        "path": str(path),
        "bytes": total,
        "records": records_written,
        "batches": batches,
    }
