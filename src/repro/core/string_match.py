"""Behavioural models of the three string-matching techniques (§III-A).

These models are *bit-exact* with the circuits in
:mod:`repro.hw.circuits.string_circuits` (the test suite asserts this on
random streams) but operate on whole byte arrays with numpy, so they can
evaluate datasets at Python speed.

All functions operate on a numpy ``uint8`` array which may contain many
newline-separated records; because no needle ever contains a newline, the
separator naturally breaks windows and runs, so a fire belongs to the
record whose span holds its position.

Only bool arrays are built per byte.  An approximate matcher (``B <
len``) fires where the last ``len - B + 1`` window hits are all True
(:func:`windowed_and`, O(log len) shifted ANDs); an exact one (``B = N``
and the DFA's first occurrence) verifies the candidates of the needle's
first byte (:func:`exact_ends`).  :func:`record_match_array` maps fire or
match-end positions to records with one ``searchsorted`` over the record
starts.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import ReproError

#: sentinel block value for the paper's technique (ii), "B = N"
FULL = "N"
#: sentinel block value for the paper's technique (i), the char-per-cycle DFA
DFA_TECHNIQUE = "dfa"


def as_needle_bytes(needle):
    if isinstance(needle, bytes):
        data = needle
    else:
        data = str(needle).encode("utf-8")
    if not data:
        raise ReproError("empty search string")
    if b"\n" in data:
        raise ReproError("needles may not contain record separators")
    return data


def substrings(needle, block):
    """The B-grams of a needle in order (paper Table IV), duplicates kept."""
    data = as_needle_bytes(needle)
    if not 1 <= block <= len(data):
        raise ReproError(f"block {block} out of range for {data!r}")
    return [data[i : i + block] for i in range(len(data) - block + 1)]


@functools.lru_cache(maxsize=4096)
def _unique_substrings_cached(needle_bytes, block):
    seen = []
    for gram in substrings(needle_bytes, block):
        if gram not in seen:
            seen.append(gram)
    return tuple(seen)


def unique_substrings(needle, block):
    """Distinct B-grams (what the hardware actually compares against).

    Memoised per (needle, block): streaming evaluation re-derives the
    gram set for every chunk batch otherwise.
    """
    return list(_unique_substrings_cached(as_needle_bytes(needle), block))


def resolve_block(needle, block):
    """Normalise a block spec: int, FULL ("N"), or DFA_TECHNIQUE."""
    data = as_needle_bytes(needle)
    if block == FULL:
        return len(data)
    if block == DFA_TECHNIQUE:
        return DFA_TECHNIQUE
    block = int(block)
    if not 1 <= block <= len(data):
        raise ReproError(f"block {block} out of range for {data!r}")
    return block


def window_hit_array(arr, needle, block):
    """Per-position "window equals some B-gram" booleans.

    Position ``i`` refers to the window consisting of bytes
    ``arr[i-block+1 .. i]``; positions with ``i < block-1`` compare against
    an implicit zero prefix, matching the hardware's zero-initialised
    buffer registers (NUL never appears in a needle, so those windows
    simply miss).
    """
    data = as_needle_bytes(needle)
    block = int(block)
    n = arr.shape[0]
    if block == 1:
        return _byte_hits(arr, data)
    hit = np.zeros(n, dtype=bool)
    if n < block:
        return hit
    # gram windows as views of ``arr``: window ``j`` ends at ``j+block-1``
    width = n - block + 1
    gram_hit = np.empty(width, dtype=bool)
    scratch = np.empty(width, dtype=bool)
    for gram in _unique_substrings_cached(data, block):
        np.equal(arr[:width], gram[0], out=gram_hit)
        for offset in range(1, block):
            np.equal(arr[offset : offset + width], gram[offset], out=scratch)
            gram_hit &= scratch
        hit[block - 1 :] |= gram_hit
    return hit


def _byte_hits(arr, data):
    """Block-1 hits: one comparison per distinct needle byte, OR'ed."""
    distinct = sorted(set(data))
    hit = np.equal(arr, distinct[0])
    scratch = np.empty_like(hit)
    for byte in distinct[1:]:
        np.equal(arr, byte, out=scratch)
        hit |= scratch
    return hit


def windowed_and(hits, width):
    """``fire[p] = all(hits[p-width+1 .. p])``, in place on ``hits``.

    The run-counter semantics of an approximate matcher: the counter
    reaches ``width`` exactly when the last ``width`` windows all hit.
    Positions ``p < width-1`` are False, as the zero-initialised counter
    has not had ``width`` cycles yet.  Doubling the covered span costs
    O(log width) shifted ANDs over bools.
    """
    covered = 1
    while covered < width:
        shift = min(covered, width - covered)
        hits[shift:] &= hits[:-shift]
        hits[:shift] = False
        covered += shift
    return hits


def exact_ends(arr, needle):
    """Sorted end positions of every occurrence of ``needle`` in ``arr``.

    Candidates are the positions of the needle's first byte; each later
    byte is checked by gathering it at the surviving candidates only.
    """
    data = as_needle_bytes(needle)
    width = arr.shape[0] - len(data) + 1
    if width <= 0:
        return np.zeros(0, dtype=np.int64)
    candidates = np.flatnonzero(arr[:width] == data[0])
    for offset in range(1, len(data)):
        candidates = candidates[arr[candidates + offset] == data[offset]]
    return candidates + (len(data) - 1)


def fire_array(arr, needle, block):
    """Cycle-accurate ``fire`` output of a matcher over a byte array.

    ``block`` may be an int, :data:`FULL`, or :data:`DFA_TECHNIQUE`.  For
    the DFA technique the accept state is absorbing, so ``fire`` stays
    high from the first occurrence onwards — but note record boundaries
    are *not* handled here for the DFA case; use the per-record APIs for
    it (the evaluation harness never places DFA matchers inside
    structural groups, mirroring the paper's design space).
    """
    data = as_needle_bytes(needle)
    resolved = resolve_block(data, block)
    if resolved == DFA_TECHNIQUE or resolved == len(data):
        ends = exact_ends(arr, data)
        fires = np.zeros(arr.shape[0], dtype=bool)
        if resolved == DFA_TECHNIQUE and ends.size:
            # the running maximum of the exact fires
            fires[ends[0] :] = True
        else:
            fires[ends] = True
        return fires
    hits = window_hit_array(arr, data, resolved)
    return windowed_and(hits, len(data) - resolved + 1)


def record_match_array(arr, starts, needle, block):
    """Per-record match booleans for a concatenated record stream.

    Args:
        arr: uint8 array of newline-terminated records.
        starts: int array of record start offsets.
    """
    data = as_needle_bytes(needle)
    resolved = resolve_block(data, block)
    if resolved == DFA_TECHNIQUE or resolved == len(data):
        # both techniques are exact: per-record result == substring find
        positions = exact_ends(arr, data)
    else:
        positions = np.flatnonzero(fire_array(arr, data, resolved))
    records = np.searchsorted(starts, positions, side="right") - 1
    matched = np.zeros(len(starts), dtype=bool)
    matched[records[records >= 0]] = True
    return matched


def record_matches(data, needle, block):
    """Scalar reference: does one record match?

    For exact techniques this is plain substring containment; for the
    approximate matcher it is the run-counter semantics.
    """
    needle_bytes = as_needle_bytes(needle)
    resolved = resolve_block(needle_bytes, block)
    if resolved == DFA_TECHNIQUE or resolved == len(needle_bytes):
        return needle_bytes in bytes(data)
    return bool(
        fire_array(
            np.frombuffer(bytes(data), dtype=np.uint8),
            needle_bytes,
            resolved,
        ).any()
    )


def reference_fire_trace(data, needle, block):
    """Pure-Python per-cycle fire trace (the test oracle for gate-level).

    Implements the counter semantics byte by byte, with the window
    initialised to zeros, exactly like the circuit.
    """
    needle_bytes = as_needle_bytes(needle)
    resolved = resolve_block(needle_bytes, block)
    stream = bytes(data)
    if resolved == DFA_TECHNIQUE:
        seen = False
        trace = []
        for position in range(len(stream)):
            if not seen and stream[: position + 1].endswith(needle_bytes):
                seen = True
            trace.append(seen)
        return trace
    grams = set(substrings(needle_bytes, resolved))
    threshold = len(needle_bytes) - resolved + 1
    window = [0] * resolved
    run = 0
    trace = []
    for byte in stream:
        window = [byte] + window[:-1]
        window_bytes = bytes(reversed(window))
        if window_bytes in grams:
            run = min(run + 1, threshold)
        else:
            run = 0
        trace.append(run >= threshold)
    return trace
