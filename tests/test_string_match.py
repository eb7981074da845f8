"""Unit tests for the behavioural string matchers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import string_match as sm
from repro.errors import ReproError


def arr(data):
    return np.frombuffer(data, dtype=np.uint8)


class TestHelpers:
    def test_as_needle_bytes_from_str(self):
        assert sm.as_needle_bytes("dust") == b"dust"

    def test_rejects_empty_needle(self):
        with pytest.raises(ReproError):
            sm.as_needle_bytes("")

    def test_rejects_newline(self):
        with pytest.raises(ReproError):
            sm.as_needle_bytes("a\nb")

    def test_resolve_block_full(self):
        assert sm.resolve_block("dust", sm.FULL) == 4

    def test_resolve_block_dfa(self):
        assert sm.resolve_block("dust", sm.DFA_TECHNIQUE) == (
            sm.DFA_TECHNIQUE
        )

    def test_resolve_block_out_of_range(self):
        with pytest.raises(ReproError):
            sm.resolve_block("dust", 5)

    def test_windowed_and(self):
        hits = np.array([True, True, False, True, True, True])
        # the run counter reads [1, 2, 0, 1, 2, 3]: fire once it
        # reaches the width
        runs = [1, 2, 0, 1, 2, 3]
        for width in range(1, 5):
            fires = sm.windowed_and(hits.copy(), width)
            assert fires.tolist() == [run >= width for run in runs]

    def test_windowed_and_empty(self):
        assert sm.windowed_and(np.zeros(0, dtype=bool), 3).shape == (0,)


class TestWindowHits:
    def test_b1_membership(self):
        hits = sm.window_hit_array(arr(b"dxu"), "dust", 1)
        assert hits.tolist() == [True, False, True]

    def test_b2_pairs(self):
        hits = sm.window_hit_array(arr(b"dust"), "dust", 2)
        # position 0 window is (0x00, 'd') — no hit
        assert hits.tolist() == [False, True, True, True]

    def test_zero_prefix_never_matches(self):
        hits = sm.window_hit_array(arr(b"d"), "dd", 2)
        assert not hits.any()


class TestFireSemantics:
    def test_exact_occurrence_fires(self):
        fires = sm.fire_array(arr(b"xx dust yy"), "dust", 1)
        assert fires.any()
        # first fire exactly at the end of the run of 4
        assert int(np.flatnonzero(fires)[0]) == 6

    def test_full_block_is_exact(self):
        fires = sm.fire_array(arr(b"xx dust yy"), "dust", sm.FULL)
        assert np.flatnonzero(fires).tolist() == [6]
        assert not sm.fire_array(arr(b"xx dsut yy"), "dust", sm.FULL).any()

    def test_dfa_fires_are_sticky(self):
        fires = sm.fire_array(arr(b"a dust b"), "dust", sm.DFA_TECHNIQUE)
        first = int(np.flatnonzero(fires)[0])
        assert fires[first:].all()

    def test_anagram_fools_b1_not_b2(self):
        data = arr(b"xx stud yy")
        assert sm.fire_array(data, "dust", 1).any()
        assert not sm.fire_array(data, "dust", 2).any()

    def test_threshold_needs_full_run(self):
        # run of 3 letters from the set is not enough
        assert not sm.fire_array(arr(b"xx dus yy"), "dust", 1).any()


class TestRecordLevel:
    def test_record_matches_scalar(self):
        assert sm.record_matches(b'"n":"dust"', "dust", 1)
        assert sm.record_matches(b'"n":"stud"', "dust", 1)
        assert not sm.record_matches(b'"n":"stud"', "dust", 2)
        assert sm.record_matches(b'"n":"dust"', "dust", sm.FULL)
        assert sm.record_matches(b'"n":"dust"', "dust", sm.DFA_TECHNIQUE)

    def test_exact_techniques_equal_substring_find(self):
        for record in [b"total_amount", b"tolls_amount", b"xtollsx"]:
            want = b"tolls_amount" in record
            assert sm.record_matches(
                record, "tolls_amount", sm.FULL
            ) == want
            assert sm.record_matches(
                record, "tolls_amount", sm.DFA_TECHNIQUE
            ) == want

    def test_record_match_array_multi_record(self):
        records = [b'{"n":"dust"}', b'{"n":"light"}', b'{"n":"stud"}']
        stream = b"".join(r + b"\n" for r in records)
        data = arr(stream)
        starts = np.array(
            [0, len(records[0]) + 1, len(records[0]) + len(records[1]) + 2]
        )
        got = sm.record_match_array(data, starts, "dust", 1)
        assert got.tolist() == [True, False, True]
        got_exact = sm.record_match_array(data, starts, "dust", sm.FULL)
        assert got_exact.tolist() == [True, False, False]

    def test_needle_never_spans_records(self):
        records = [b"du", b"st"]
        stream = b"".join(r + b"\n" for r in records)
        starts = np.array([0, 3])
        got = sm.record_match_array(arr(stream), starts, "dust", sm.FULL)
        assert got.tolist() == [False, False]


class TestReferenceTrace:
    def test_matches_vectorised(self):
        data = b'xx dust dutsud "light" tsud'
        for block in (1, 2, 3, 4):
            want = sm.fire_array(arr(data), "dust", block).tolist()
            got = sm.reference_fire_trace(data, "dust", block)
            assert got == want, block

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.text(alphabet="dustlight \"{}:x", max_size=40),
        block=st.integers(1, 4),
        needle=st.sampled_from(["dust", "light"]),
    )
    def test_reference_equals_vectorised_property(self, data, block, needle):
        raw = data.encode()
        want = sm.fire_array(arr(raw), needle, block).tolist()
        assert sm.reference_fire_trace(raw, needle, block) == want


class TestNoFalseNegatives:
    """The raw-filtering invariant: exact presence implies a match."""

    @settings(max_examples=60, deadline=None)
    @given(
        prefix=st.text(alphabet="abcxyz {}\":,", max_size=20),
        suffix=st.text(alphabet="abcxyz {}\":,", max_size=20),
        needle=st.sampled_from(
            ["dust", "temperature", "tolls_amount", "user"]
        ),
        block=st.sampled_from([1, 2, 3, sm.FULL, sm.DFA_TECHNIQUE]),
    )
    def test_containing_record_always_matches(self, prefix, suffix, needle,
                                               block):
        record = (prefix + needle + suffix).encode()
        if block not in (sm.FULL, sm.DFA_TECHNIQUE) and block > len(needle):
            block = 1
        assert sm.record_matches(record, needle, block)


def random_records(rng, alphabet, count, max_len):
    """Newline-terminated records over ``alphabet``, lengths 0..max_len
    (so many are shorter than a matcher's threshold)."""
    symbols = np.frombuffer(alphabet, dtype=np.uint8)
    return [
        symbols[rng.integers(0, len(symbols), length)].tobytes()
        for length in rng.integers(0, max_len + 1, count)
    ]


def all_blocks(needle):
    return list(range(1, len(needle) + 1)) + [sm.FULL, sm.DFA_TECHNIQUE]


class TestDifferential:
    """The numpy matchers against the per-cycle and per-record oracles
    on seeded random bytes from small alphabets."""

    #: repeated bytes; over every block, tolls_amount's thresholds
    #: (len - B + 1) run from 12 down to 1
    NEEDLES = [b"aaaa", b"abab", b"tolls_amount"]

    @pytest.mark.parametrize("needle", NEEDLES)
    def test_fire_array_equals_reference_trace(self, needle):
        rng = np.random.default_rng(len(needle))
        for extra in (b"x", b"_ x"):
            records = random_records(rng, needle + extra, 60, 30)
            stream = b"".join(record + b"\n" for record in records)
            for block in all_blocks(needle):
                got = sm.fire_array(arr(stream), needle, block).tolist()
                want = sm.reference_fire_trace(stream, needle, block)
                assert got == want, (needle, block, extra)

    @pytest.mark.parametrize("needle", NEEDLES)
    def test_record_match_array_equals_record_matches(self, needle):
        rng = np.random.default_rng(7 + len(needle))
        records = random_records(rng, needle + b"x", 300, 40)
        records += [needle, needle[:-1], needle[1:]]
        stream = b"".join(record + b"\n" for record in records)
        starts = np.cumsum([0] + [len(r) + 1 for r in records[:-1]])
        for block in all_blocks(needle):
            got = sm.record_match_array(arr(stream), starts, needle, block)
            want = [sm.record_matches(r, needle, block) for r in records]
            assert got.tolist() == want, (needle, block)

    def test_no_records(self):
        empty = np.zeros(0, dtype=np.int64)
        got = sm.record_match_array(arr(b""), empty, "dust", 1)
        assert got.shape == (0,)


class TestMemoryBound:
    """Per-byte scratch stays a small multiple of the batch bytes."""

    @pytest.fixture(scope="class")
    def big_record(self):
        rng = np.random.default_rng(0)
        values = ",".join(
            f"{value:.6f}" for value in rng.normal(20, 50, 560_000)
        )
        record = (
            '{"temperature":1,"humidity":2,"tolls_amount":[' + values
            + "]}\n"
        ).encode()
        return arr(record)

    @pytest.mark.parametrize(
        "needle,block",
        [("temperature", 1), ("humidity", 2), ("tolls_amount", sm.FULL)],
    )
    def test_peak_at_most_6x_batch_bytes(self, big_record, needle, block):
        import tracemalloc

        starts = np.array([0])
        calls = [
            lambda: sm.fire_array(big_record, needle, block),
            lambda: sm.record_match_array(
                big_record, starts, needle, block
            ),
        ]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * big_record.nbytes, peak / big_record.nbytes
