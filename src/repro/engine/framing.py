"""Record framing for chunked byte streams.

The FPGA splitter keys on newline boundaries to distribute records to
lanes; the software engine needs the same property when a corpus arrives
as arbitrary byte chunks (file reads, socket buffers, generators).  A
:class:`RecordFramer` carries the partial record at each chunk seam so
that records straddling chunk boundaries are reassembled exactly once,
in order, in O(chunk) memory, as one columnar
:class:`~repro.data.corpus.Dataset` batch per chunk.
"""

from __future__ import annotations

import numpy as np

from ..data.corpus import Dataset, record_starts
from ..errors import ReproError

#: what ``bytes.strip()`` removes: a blank line starts with one of these
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\r\x0b\x0c")] = True
_NO_BYTES = np.zeros(0, dtype=np.uint8)
_NO_LINES = np.zeros(0, dtype=np.int64)


def _batch(stream, newlines):
    return Dataset.from_buffer(
        "engine-batch", stream, record_starts(newlines)
    )


class RecordFramer:
    """Incrementally split a byte stream into newline-delimited records.

    ``push`` accepts one chunk and returns the batch of records it
    completed; ``flush`` returns the final unterminated record (a stream
    without a trailing newline still yields its last record).  Blank and
    whitespace-only lines are skipped, and a ``\\r`` before the newline
    is stripped, matching :meth:`repro.data.Dataset.from_ndjson`.

    Like the splitter, it makes no per-record objects: one newline
    search over a ``uint8`` view finds the records.  A ``bytes`` chunk's
    batch is a slice of it, save the seam (carried tail + completed
    lines), concatenated once; other chunk types (mmap windows) are
    copied once, so a retained batch never pins the caller's buffer.
    Only a chunk with blank lines or CRs pays a compaction copy.  A line
    over ``max_record_bytes`` (newline not counted) raises ReproError.
    """

    def __init__(self, max_record_bytes=64 * 1024 * 1024):
        self._tail = b""
        self.max_record_bytes = max_record_bytes
        #: total payload bytes consumed (including newlines)
        self.bytes_consumed = 0
        #: records emitted so far
        self.records_emitted = 0

    def push(self, chunk):
        """Consume one chunk; return the batch of completed records."""
        if not isinstance(chunk, (bytes, bytearray, memoryview)):
            raise ReproError(
                f"framer expects bytes-like chunks, got {type(chunk)!r}"
            )
        chunk = chunk if isinstance(chunk, bytes) else bytes(chunk)
        self.bytes_consumed += len(chunk)
        view = np.frombuffer(chunk, dtype=np.uint8)
        newlines = np.flatnonzero(view == 0x0A)
        if not newlines.shape[0]:
            self._tail += chunk
            self._check(len(self._tail))
            return _batch(_NO_BYTES, _NO_LINES)
        end = int(newlines[-1]) + 1
        buffer = view[:end]
        if self._tail:
            carried = np.frombuffer(self._tail, dtype=np.uint8)
            buffer = np.concatenate((carried, buffer))
            newlines += carried.shape[0]
        self._tail = chunk[end:]
        self._check(len(self._tail))
        return self._frame(buffer, newlines)

    def _frame(self, buffer, newlines):
        """The batch of the lines of ``buffer``, which ends at
        ``newlines[-1]``: blank lines dropped, CRs stripped."""
        starts = record_starts(newlines)
        sizes = newlines - starts
        self._check(int(sizes.max()))
        blank = np.zeros(starts.shape[0], dtype=bool)
        for line in np.flatnonzero(_SPACE[buffer[starts]]).tolist():
            text = buffer[starts[line]:newlines[line]].tobytes()
            blank[line] = not text.strip()
        # before an empty line's newline sits another newline (for the
        # first line, the buffer's last byte), never a CR
        cr = buffer[newlines - 1] == 0x0D
        if blank.any() or cr.any():
            keep = np.repeat(~blank, sizes + 1)
            keep[newlines[cr] - 1] = False
            buffer = buffer[keep]
            newlines = np.flatnonzero(buffer == 0x0A)
        self.records_emitted += newlines.shape[0]
        return _batch(buffer, newlines)

    def _check(self, size):
        if size > self.max_record_bytes:
            raise ReproError(
                f"record exceeds max_record_bytes "
                f"({self.max_record_bytes}): {size} bytes"
            )

    def flush(self):
        """Return the trailing unterminated record, if any, and reset."""
        tail, self._tail = self._tail, b""
        if not tail:
            return _batch(_NO_BYTES, _NO_LINES)
        return self._frame(
            np.frombuffer(tail + b"\n", dtype=np.uint8),
            np.array([len(tail)]),
        )

    @property
    def pending_bytes(self):
        """Bytes buffered awaiting their newline (seam carry-over)."""
        return len(self._tail)


def iter_file_chunks(handle, chunk_bytes):
    """Yield chunks of at most ``chunk_bytes`` from a binary handle.

    Seekable handles (regular files) are read in full chunks for
    maximum vectorisation width.  Non-seekable handles (pipes,
    sockets, ``tail -f``-style producers) use ``read1`` when available
    so that whatever bytes have arrived are processed immediately
    instead of blocking until a full chunk accumulates.
    """
    if chunk_bytes <= 0:
        raise ReproError("chunk_bytes must be positive")
    read = handle.read
    try:
        seekable = handle.seekable()
    except (AttributeError, OSError):
        seekable = False
    if not seekable and hasattr(handle, "read1"):
        read = handle.read1
    while True:
        chunk = read(chunk_bytes)
        if not chunk:
            return
        yield chunk
