"""Unit tests for the behavioural number-range filter."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.number_filter import (
    NumberRangeFilter,
    batch_token_accepts,
    token_columns,
    token_spans,
)


def arr(data):
    return np.frombuffer(data, dtype=np.uint8)


class TestTokenSpans:
    def test_simple_record(self):
        spans = token_spans(arr(b'{"v":35.2,"n":7}'))
        texts = [b'{"v":35.2,"n":7}'[s:e] for s, e in spans]
        assert texts == [b"35.2", b"7"]

    def test_letters_in_number_charset(self):
        # 'e' is a token char: words shed 'e' tokens that simply fail
        spans = token_spans(arr(b"temp"))
        texts = [b"temp"[s:e] for s, e in spans]
        assert texts == [b"e"]

    def test_signs_and_dots_merge(self):
        spans = token_spans(arr(b"x-12.5e+3y"))
        assert len(spans) == 1
        start, end = spans[0]
        assert b"x-12.5e+3y"[start:end] == b"-12.5e+3"

    def test_no_tokens(self):
        assert token_spans(arr(b"ghost wxyz!")) == []

    def test_empty_input(self):
        assert token_spans(arr(b"")) == []

    def test_adjacent_tokens_split_by_delimiters(self):
        spans = token_spans(arr(b"1,2,3"))
        assert len(spans) == 3


class TestTokenAccepts:
    def test_integer_range(self):
        f = NumberRangeFilter(12, 49, kind="int")
        assert f.token_accepts("13")
        assert not f.token_accepts("50")
        assert not f.token_accepts("13.0")

    def test_float_range(self):
        f = NumberRangeFilter("0.7", "35.1")
        assert f.token_accepts("35.1")
        assert not f.token_accepts("35.2")
        assert f.token_accepts("1")

    def test_exponent_escape(self):
        f = NumberRangeFilter(12, 49, kind="int")
        assert f.token_accepts("1e1")
        assert f.token_accepts(b"999e9")

    def test_junk_tokens_rejected(self):
        f = NumberRangeFilter(12, 49, kind="int")
        for junk in ["e", "-", ".", "-.e", "--12", "1-2"]:
            assert not f.token_accepts(junk), junk


class TestRecordLevel:
    def test_record_matches(self):
        f = NumberRangeFilter(12, 49, kind="int")
        assert f.record_matches(b'{"a":"13"}')
        assert not f.record_matches(b'{"a":"50"}')

    def test_trailing_number_is_evaluated(self):
        f = NumberRangeFilter(12, 49, kind="int")
        assert f.record_matches(b"13")  # framing newline appended

    def test_fire_positions_point_at_delimiters(self):
        f = NumberRangeFilter(12, 49, kind="int")
        data = b'{"a":13,"b":49}\n'
        positions = f.fire_positions(arr(data))
        assert positions == [7, 14]
        assert data[7:8] == b"," and data[14:15] == b"}"

    def test_quoted_values_visible(self):
        f = NumberRangeFilter("0.7", "35.1")
        assert f.record_matches(b'{"v":"30.2"}')


def columns_of(tokens):
    """``token_columns`` of ``tokens`` laid out space-separated."""
    stream = arr(b" ".join(tokens) + b" ")
    lengths = np.array([len(t) for t in tokens], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths + 1)[:-1]))
    return token_columns(stream, starts, lengths)


class TestBatchStepping:
    def step(self, dfa, tokens):
        return batch_token_accepts(dfa, *columns_of(tokens))

    def test_batch_equals_scalar(self):
        f = NumberRangeFilter("0.7", "35.1")
        tokens = [b"0.7", b"0.69", b"35.2", b"35.1", b"12", b"1e3",
                  b"e", b"-5", b"35.10"]
        got = self.step(f.dfa, tokens)
        want = [f.token_accepts(t) for t in tokens]
        assert got.tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(
        tokens=st.lists(
            st.text(alphabet="0123456789.-e+", min_size=1, max_size=8),
            min_size=1,
            max_size=12,
        )
    )
    def test_batch_equals_scalar_property(self, tokens):
        f = NumberRangeFilter(12, 49, kind="int")
        encoded = [t.encode() for t in tokens]
        got = self.step(f.dfa, encoded)
        want = [f.token_accepts(t) for t in encoded]
        assert got.tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(
        tokens=st.lists(
            st.text(alphabet="0123456789.-eE+", min_size=1, max_size=64),
            min_size=1,
            max_size=24,
        )
    )
    def test_prefix_stepping_over_mixed_lengths(self, tokens):
        """Token lengths 1..64: each column steps a shorter prefix."""
        f = NumberRangeFilter("-12.5", "43.1")
        encoded = [t.encode() for t in tokens]
        got = self.step(f.dfa, encoded)
        want = [f.token_accepts(t) for t in encoded]
        assert got.tolist() == want

    def test_columns_hold_exactly_the_token_bytes(self):
        tokens = [b"7", b"123456", b"1.5", b"-2e10"]
        columns, order = columns_of(tokens)
        assert [c.shape[0] for c in columns] == [4, 3, 3, 2, 2, 1]
        assert sum(c.nbytes for c in columns) == 15
        assert [tokens[i] for i in order] == [
            b"123456", b"-2e10", b"1.5", b"7"
        ]


class TestDFACaching:
    def test_same_bounds_share_dfa(self):
        a = NumberRangeFilter(12, 49, kind="int")
        b = NumberRangeFilter(12, 49, kind="int")
        assert a.dfa is b.dfa

    def test_different_kind_different_dfa(self):
        a = NumberRangeFilter(12, 49, kind="int")
        b = NumberRangeFilter(12, 49, kind="float")
        assert a.dfa is not b.dfa


class TestNoFalseNegatives:
    @settings(max_examples=80, deadline=None)
    @given(value=st.integers(12, 49))
    def test_every_in_range_int_matches(self, value):
        f = NumberRangeFilter(12, 49, kind="int")
        assert f.record_matches(f'{{"x":{value}}}'.encode())

    @settings(max_examples=80, deadline=None)
    @given(cents=st.integers(70, 3510))
    def test_every_in_range_decimal_matches(self, cents):
        f = NumberRangeFilter("0.7", "35.1")
        text = f"{cents // 100}.{cents % 100:02d}"
        assert f.record_matches(f'{{"x":"{text}"}}'.encode())
