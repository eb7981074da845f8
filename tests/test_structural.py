"""Unit tests for behavioural structural awareness (scalar + vectorised)."""

import random

import numpy as np
import pytest

from repro.core.structural import (
    ScopeMachine,
    comma_positions,
    depth_array,
    group_fire_closes,
    group_matches_record,
    scope_close_positions,
    string_mask,
    structural_index,
)
from repro.data import Dataset


def arr(data):
    return np.frombuffer(data, dtype=np.uint8)


class TestStringMask:
    def test_simple_string(self):
        data = b'a"bc"d'
        masked = string_mask(arr(data))
        # opening quote unmasked, contents + closing quote masked
        assert masked.tolist() == [False, False, True, True, True, False]

    def test_escaped_quote_does_not_close(self):
        data = br'"a\"b"c'
        masked = string_mask(arr(data))
        assert not masked[6]  # 'c' is outside
        assert masked[4]      # 'b' still inside

    def test_double_backslash_closes(self):
        data = br'"a\\"b'
        masked = string_mask(arr(data))
        assert not masked[5]  # 'b' outside: \\ escaped itself

    def test_empty(self):
        assert string_mask(arr(b"")).shape == (0,)

    def test_scalar_machine_agrees(self):
        data = br'{"a":"x\"y{","b":[1,"}"]}'
        machine = ScopeMachine()
        scalar = []
        for byte in data:
            masked, _, _, _ = machine.step(byte)
            scalar.append(masked)
        assert string_mask(arr(data)).tolist() == scalar


def per_record_index(records):
    """The structural index the per-record oracle gives: each record
    through :func:`string_mask` on its own, offset into the stream."""
    closes, commas, close_records = [], [], []
    offset = 0
    for index, record in enumerate(records):
        data = arr(record + b"\n")
        masked = string_mask(data)
        found = (scope_close_positions(data, masked) + offset).tolist()
        closes += found
        close_records += [index] * len(found)
        commas += (comma_positions(data, masked) + offset).tolist()
        offset += data.shape[0]
    return closes, commas, close_records


def stream_index(records):
    dataset = Dataset("index", records)
    closes, commas, close_records = structural_index(
        dataset.stream, dataset.starts
    )
    return closes.tolist(), commas.tolist(), close_records.tolist()


class TestStructuralIndex:
    def test_unbalanced_quote_stays_in_its_record(self):
        records = [b'{"x": "oops}', b'{"t": 1}', b'{"t": [2, 3]}']
        closes, commas, close_records = stream_index(records)
        assert close_records == [1, 2, 2]
        assert (closes, commas, close_records) == per_record_index(
            records
        )

    @pytest.mark.parametrize("record", [
        br'{"a":"x\"}"}',  # escaped quote: the } inside is masked
        br'{"a":"x\\"}',  # even run: the quote closes the string
        br'{"a":"\\\"]"}',  # odd run of three
        br'\"}',  # escape outside any string
        b'"',  # lone quote, then the next record
    ])
    def test_escape_runs_match_the_oracle(self, record):
        records = [record, b'{"t": [1, 2]}']
        assert stream_index(records) == per_record_index(records)

    def test_no_structural_bytes(self):
        assert stream_index([b"abc", b""]) == ([], [], [])
        assert stream_index([]) == ([], [], [])

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_against_per_record_oracle(self, seed):
        rng = random.Random(seed)
        records = [
            bytes(rng.choice(b'"\\},]a{[')
                  for _ in range(rng.randrange(0, 40)))
            for _ in range(800)
        ]
        assert stream_index(records) == per_record_index(records)


class TestDepth:
    def test_senml_depths(self):
        data = b'{"e":[{"v":1}]}'
        depths = depth_array(arr(data))
        assert depths[0] == 0      # before '{'
        assert depths[6] == 2      # at inner '{'
        assert depths[-1] == 1     # before final '}'

    def test_brackets_in_strings_ignored(self):
        data = b'{"k":"}}}"}'
        depths = depth_array(arr(data))
        assert depths[-1] == 1

    def test_scope_close_positions(self):
        data = b'{"a":[1],"b":{}}'
        closes = scope_close_positions(arr(data))
        assert closes.tolist() == [7, 14, 15]

    def test_comma_positions(self):
        data = b'{"a":1,"b":"x,y"},'
        commas = comma_positions(arr(data))
        assert commas.tolist() == [6, 17]


class TestGroupSemantics:
    def make_fires(self, length, positions):
        fires = np.zeros(length, dtype=bool)
        fires[list(positions)] = True
        return fires

    def test_same_segment_combines(self):
        data = b'{ab}'
        closes = scope_close_positions(arr(data))
        fire_a = self.make_fires(len(data), [1])
        fire_b = self.make_fires(len(data), [2])
        cums = [np.cumsum(f.astype(np.int64)) for f in (fire_a, fire_b)]
        assert group_fire_closes(closes, cums).any()

    def test_fire_at_close_position_counts(self):
        data = b'{a}'
        closes = scope_close_positions(arr(data))
        fire_a = self.make_fires(len(data), [1])
        fire_b = self.make_fires(len(data), [2])  # the '}' itself
        cums = [np.cumsum(f.astype(np.int64)) for f in (fire_a, fire_b)]
        assert group_fire_closes(closes, cums).any()

    def test_separate_segments_do_not_combine(self):
        data = b'{a}{b}'
        closes = scope_close_positions(arr(data))
        fire_a = self.make_fires(len(data), [1])
        fire_b = self.make_fires(len(data), [4])
        cums = [np.cumsum(f.astype(np.int64)) for f in (fire_a, fire_b)]
        assert not group_fire_closes(closes, cums).any()

    def test_no_closes_no_match(self):
        assert group_fire_closes(
            np.array([], dtype=np.int64), []
        ).shape == (0,)

    def test_group_matches_record_structural(self):
        record = (
            b'{"e":[{"v":"30.2","n":"temperature"},'
            b'{"v":"12","n":"humidity"}]}\n'
        )
        data = arr(record)
        temp_fire = np.zeros(len(record), dtype=bool)
        # simulate a string fire inside the first object
        temp_fire[30] = True
        value_fire = np.zeros(len(record), dtype=bool)
        value_fire[20] = True
        assert group_matches_record(data, [temp_fire, value_fire])

    def test_group_matches_record_cross_object(self):
        record = b'{"a":[{"x":1},{"y":2}]}\n'
        data = arr(record)
        fire_a = np.zeros(len(record), dtype=bool)
        fire_a[8] = True   # inside first object
        fire_b = np.zeros(len(record), dtype=bool)
        fire_b[17] = True  # inside second object
        assert not group_matches_record(data, [fire_a, fire_b])

    def test_comma_scoped_group(self):
        record = b'{"k":"a","v":"b"}\n'
        data = arr(record)
        fire_a = np.zeros(len(record), dtype=bool)
        fire_a[6] = True   # before the comma
        fire_b = np.zeros(len(record), dtype=bool)
        fire_b[14] = True  # after the comma
        assert group_matches_record(data, [fire_a, fire_b])
        assert not group_matches_record(
            data, [fire_a, fire_b], comma_scoped=True
        )


class TestScopeMachine:
    def test_depth_clamps_at_zero(self):
        machine = ScopeMachine()
        machine.step(ord("}"))
        assert machine.depth == 0

    def test_events_not_emitted_inside_strings(self):
        machine = ScopeMachine()
        machine.step(ord('"'))
        masked, open_event, close_event, comma = machine.step(ord("{"))
        assert masked and not open_event

    def test_full_record_round_trip(self):
        record = b'{"e":[{"v":1},{"v":2}],"bt":3}'
        machine = ScopeMachine()
        for byte in record:
            machine.step(byte)
        assert machine.depth == 0
        assert not machine.in_string
