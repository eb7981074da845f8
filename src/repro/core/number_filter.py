"""Behavioural model of the number-range raw filter (paper §III-B).

A :class:`NumberRangeFilter` owns the minimised DFA derived from the value
range (via :mod:`repro.regex.range_regex`) and evaluates it with the
paper's token framing: the automaton consumes characters of each maximal
numeric token (digits and ``+ - . e E``) and is checked/reset at the first
non-numeric character.

Evaluation is offered at three speeds:

* :meth:`token_accepts` — one token (reference semantics);
* :meth:`fire_positions` / :meth:`record_matches` — one record;
* :func:`batch_token_accepts` — lock-step vectorised DFA stepping over a
  whole dataset's token columns (built once per dataset by
  :func:`token_columns` and shared by all number filters; see
  :class:`repro.eval.harness.DatasetView`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..regex.charclass import DIGITS, NUMBER_TOKEN_CHARS
from ..regex.dfa import DFA
from ..regex.range_regex import number_range_regex

#: the numeric-token bytes that are not digits (``+ - . e E``)
_NON_DIGIT_TOKEN_CHARS = sorted(NUMBER_TOKEN_CHARS - DIGITS)
#: lookup table: byte value -> is it a decimal digit
DIGIT_TABLE = np.zeros(256, dtype=bool)
DIGIT_TABLE[ord("0"):ord("9") + 1] = True


def _bound_key(bound):
    if bound is None:
        return None
    return str(bound)


@lru_cache(maxsize=256)
def _build_dfa(lo_key, hi_key, kind, allow_exponent):
    regex = number_range_regex(
        lo_key, hi_key, kind=kind, allow_exponent=allow_exponent
    )
    return DFA.from_regex(regex)


class NumberRangeFilter:
    """Raw filter accepting records containing a number in ``[lo, hi]``.

    Args:
        lo, hi: bounds as ints, floats or decimal strings (``None`` for an
            open side; at least one bound required).
        kind: ``"int"`` or ``"float"`` — the paper distinguishes
            ``v(l <= i <= u)`` from ``v(l <= f <= u)``.
        allow_exponent: include the exponent escape hatch (paper default).
    """

    def __init__(self, lo, hi, kind="float", allow_exponent=True):
        self.lo = lo
        self.hi = hi
        self.kind = kind
        self.allow_exponent = allow_exponent
        self.dfa = _build_dfa(
            _bound_key(lo), _bound_key(hi), kind, allow_exponent
        )

    # -- single token ----------------------------------------------------

    def token_accepts(self, token):
        """Reference: does one numeric token match the range filter?"""
        if isinstance(token, str):
            token = token.encode("ascii", errors="replace")
        return self.dfa.accepts(token)

    # -- one record --------------------------------------------------------

    def tokens(self, data):
        """Maximal numeric-token (start, end) spans of a record."""
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        return token_spans(arr)

    def fire_positions(self, arr):
        """Positions of the delimiter ending each *accepted* token.

        ``arr`` must end with a non-numeric byte (records are framed with
        a trailing newline) so the final token is closed.
        """
        positions = []
        for start, end in token_spans(arr):
            if self.dfa.accepts(arr[start:end].tobytes()):
                positions.append(end)  # the delimiter cycle
        return positions

    def record_matches(self, data):
        data = bytes(data) + b"\n"
        arr = np.frombuffer(data, dtype=np.uint8)
        return bool(self.fire_positions(arr))

    def __repr__(self):
        return f"NumberRangeFilter({self.lo!r}, {self.hi!r}, {self.kind})"


def token_spans(arr):
    """(start, end) spans of maximal numeric-token runs in a byte array."""
    starts, ends = token_edges(arr)
    return list(zip(starts.tolist(), ends.tolist()))


def token_edges(arr):
    """``(starts, ends)`` of the maximal numeric-token runs in ``arr``."""
    padded = np.zeros(arr.shape[0] + 2, dtype=bool)
    is_token = padded[1:-1]
    # uint8 wrap-around: bytes below "0" land above 208
    np.less(arr - ord("0"), 10, out=is_token)
    scratch = np.empty_like(is_token)
    for code in _NON_DIGIT_TOKEN_CHARS:
        np.equal(arr, code, out=scratch)
        is_token |= scratch
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2]


def token_columns(arr, starts, lengths):
    """Gather tokens column by column, longest first.

    Returns ``(columns, order)``: ``order`` sorts the tokens longest
    first, and ``columns[c]`` holds byte ``c`` of every token longer
    than ``c``, in that order — so each column is a prefix of the one
    before it and the columns together hold exactly the token bytes.
    """
    max_len = int(lengths.max()) if lengths.size else 0
    # ascending (max_len - length) is longest first; numpy's stable
    # sort of 8- and 16-bit keys is a radix sort
    key = max_len - lengths
    if max_len < 1 << 8:
        key = key.astype(np.uint8)
    elif max_len < 1 << 16:
        key = key.astype(np.uint16)
    order = np.argsort(key, kind="stable")
    sorted_starts = starts[order]
    descending = lengths[order]
    # counts[c]: tokens longer than c (a prefix of the sorted order)
    counts = np.searchsorted(
        -descending, -np.arange(max_len), side="left"
    )
    columns = [
        arr[sorted_starts[:count] + column]
        for column, count in enumerate(counts.tolist())
    ]
    return columns, order


def batch_token_accepts(dfa, columns, order):
    """Run a DFA over many tokens in lock step.

    Args:
        dfa: a :class:`~repro.regex.dfa.DFA`.
        columns, order: the tokens as :func:`token_columns` lays them
            out; column ``c`` steps only the tokens longer than ``c``,
            so the work is the number of token bytes.
    Returns:
        boolean array over the tokens in their original order: token
        accepted by the DFA.
    """
    states = np.full(order.shape[0], dfa.start, dtype=np.int32)
    table = dfa.table
    for column in columns:
        live = column.shape[0]
        states[:live] = table[states[:live], column]
    accepted = np.empty(order.shape[0], dtype=bool)
    accepted[order] = dfa.accepting[states]
    return accepted
