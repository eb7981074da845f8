"""Behavioural structural awareness (paper §III-C).

Three implementations of the same semantics:

* :class:`ScopeMachine` — a byte-per-cycle reference that mirrors the
  hardware tracker register for register (test oracle);
* the vectorised per-record functions (:func:`string_mask`,
  :func:`depth_array`, :func:`scope_close_positions`) — closed-form
  numpy computations used by the scalar group evaluation;
* :func:`structural_index` — a sparse, simdjson-style stage-1 index
  over a whole batch of records (the dataset-scale evaluator's view),
  which resets the tracker at every record start like the hardware's
  ``record_reset``.

Semantics recap: a quote toggles "inside string" unless escaped; a
backslash inside a string escapes the next character; unmasked brackets
adjust the nesting level and every unmasked closing bracket ends a
*scope*.  A structural group matches when all of its children fired since
the previous scope close (fires on the closing byte itself count — a
number token is often delimited by exactly that bracket).
"""

from __future__ import annotations

import numpy as np

_QUOTE = ord('"')
_BACKSLASH = ord("\\")
_OPENERS = (ord("{"), ord("["))
_CLOSERS = (ord("}"), ord("]"))
_COMMA = ord(",")

#: byte classes of the structural index (0: not structural)
_QUOTE_CLASS, _BACKSLASH_CLASS, _CLOSE_CLASS, _COMMA_CLASS = 1, 2, 3, 4
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[_QUOTE] = _QUOTE_CLASS
_CLASS[_BACKSLASH] = _BACKSLASH_CLASS
_CLASS[list(_CLOSERS)] = _CLOSE_CLASS
_CLASS[_COMMA] = _COMMA_CLASS


class ScopeMachine:
    """Byte-per-cycle reference implementation of the structural tracker."""

    def __init__(self):
        self.in_string = False
        self.escaped = False
        self.depth = 0

    def step(self, byte):
        """Process one byte; returns (masked, open_event, close_event, comma).

        ``masked`` reflects the tracker state *at* this byte (a closing
        quote is still masked, matching the hardware register timing).
        """
        masked = self.in_string
        open_event = close_event = comma = False
        if not masked:
            if byte in _OPENERS:
                self.depth += 1
                open_event = True
            elif byte in _CLOSERS:
                if self.depth > 0:
                    self.depth -= 1
                close_event = True
            elif byte == _COMMA:
                comma = True
        if byte == _QUOTE and not self.escaped:
            self.in_string = not self.in_string
        # escape tracking is independent of string state (simdjson-style):
        # equivalent on well-formed JSON, and it keeps the scalar,
        # vectorised and gate-level implementations bit-identical on
        # arbitrary byte streams
        if byte == _BACKSLASH and not self.escaped:
            self.escaped = True
        else:
            self.escaped = False
        return masked, open_event, close_event, comma


def string_mask(arr):
    """Vectorised ``masked`` array: is byte ``i`` inside a JSON string?

    A byte is masked when the tracker's ``in_string`` register is set when
    the byte arrives; the opening quote itself is unmasked, the closing
    quote masked, everything between masked.
    """
    n = arr.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    is_backslash = arr == _BACKSLASH
    index = np.arange(n, dtype=np.int64)
    # length of the backslash run ending at each position
    last_not_backslash = np.maximum.accumulate(
        np.where(~is_backslash, index, -1)
    )
    run_ending_here = np.where(is_backslash, index - last_not_backslash, 0)
    # a character is escape-protected when preceded by an odd backslash run
    preceding_run = np.concatenate(([0], run_ending_here[:-1]))
    escaped = (preceding_run % 2) == 1
    effective_quote = (arr == _QUOTE) & ~escaped
    toggles = np.cumsum(effective_quote)
    in_string_after = (toggles % 2) == 1
    return np.concatenate(([False], in_string_after[:-1]))


def depth_array(arr, masked=None):
    """Nesting depth at each byte (before processing that byte)."""
    if masked is None:
        masked = string_mask(arr)
    opens = np.isin(arr, _OPENERS) & ~masked
    closes = np.isin(arr, _CLOSERS) & ~masked
    delta = opens.astype(np.int64) - closes.astype(np.int64)
    after = np.cumsum(delta)
    return np.concatenate(([0], after[:-1]))


def scope_close_positions(arr, masked=None):
    """Positions of unmasked closing brackets (scope-close events)."""
    if masked is None:
        masked = string_mask(arr)
    return np.flatnonzero(np.isin(arr, _CLOSERS) & ~masked)


def comma_positions(arr, masked=None):
    if masked is None:
        masked = string_mask(arr)
    return np.flatnonzero((arr == _COMMA) & ~masked)


def structural_index(stream, starts):
    """Scope closes and commas outside strings, record by record.

    ``stream`` holds newline-terminated records beginning at ``starts``.
    Returns ``(closes, commas, close_records)``: the sorted positions of
    the closing brackets and of the commas that lie outside strings,
    and the record index of each close.  Each record starts outside a
    string, so an unbalanced quote never masks a later record: the
    result equals :func:`scope_close_positions` / :func:`comma_positions`
    applied to each record on its own.

    Work is one class lookup per byte, then proportional to the
    structural bytes: a quote is escaped when the backslash run ending
    just before it is odd (runs never cross the newline between
    records), and a closer or comma is outside a string when an even
    number of unescaped quotes precede it within its record.
    """
    classes = _CLASS[stream]
    positions = np.flatnonzero(classes)
    kinds = classes[positions]
    quotes = positions[kinds == _QUOTE_CLASS]
    backslashes = positions[kinds == _BACKSLASH_CLASS]
    if backslashes.size and quotes.size:
        # index of the first backslash of the run holding each backslash
        breaks = np.ones(backslashes.shape[0], dtype=bool)
        breaks[1:] = backslashes[1:] != backslashes[:-1] + 1
        run_first = np.maximum.accumulate(
            np.where(breaks, np.arange(breaks.shape[0]), 0)
        )
        before = np.searchsorted(backslashes, quotes)
        last = np.maximum(before - 1, 0)
        adjacent = (before > 0) & (backslashes[last] == quotes - 1)
        run_length = before - run_first[last]
        quotes = quotes[~(adjacent & (run_length % 2 == 1))]
    closes = positions[kinds == _CLOSE_CLASS]
    commas = positions[kinds == _COMMA_CLASS]
    close_records = np.searchsorted(starts, closes, side="right") - 1
    comma_records = np.searchsorted(starts, commas, side="right") - 1
    record_quotes = np.searchsorted(quotes, starts)
    closes_out = _outside_strings(
        quotes, closes, record_quotes[close_records]
    )
    commas_out = _outside_strings(
        quotes, commas, record_quotes[comma_records]
    )
    return closes[closes_out], commas[commas_out], close_records[closes_out]


def _outside_strings(quotes, positions, quotes_before_record):
    """Which ``positions`` see an even number of record-local quotes."""
    preceding = np.searchsorted(quotes, positions) - quotes_before_record
    return (preceding & 1) == 0


def group_fire_closes(close_positions, child_fire_cumsums):
    """Which scope closes see *all* children fired in their segment.

    Args:
        close_positions: sorted positions of scope-close events.
        child_fire_cumsums: per child, the inclusive cumulative count of
            fire events (``np.cumsum(fire_bool)``).
    Returns:
        boolean array over ``close_positions``.
    """
    if close_positions.size == 0:
        return np.zeros(0, dtype=bool)
    result = np.ones(close_positions.shape[0], dtype=bool)
    for cumsum in child_fire_cumsums:
        at_close = cumsum[close_positions]
        before_segment = np.concatenate(([0], at_close[:-1]))
        result &= (at_close - before_segment) > 0
    return result


def group_matches_record(arr, child_fire_arrays, comma_scoped=False):
    """Scalar per-record structural-group evaluation.

    ``arr`` is one record (uint8, newline-terminated); each child fire
    array is the child's per-cycle fire booleans over the same bytes.
    """
    masked = string_mask(arr)
    closes = scope_close_positions(arr, masked)
    if comma_scoped:
        closes = np.union1d(closes, comma_positions(arr, masked))
    if closes.size == 0:
        return False
    cumsums = [np.cumsum(f.astype(np.int64)) for f in child_fire_arrays]
    return bool(group_fire_closes(closes, cumsums).any())
