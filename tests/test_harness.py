"""The vectorised evaluation harness vs the scalar reference path.

These are the tests that justify phase-1/phase-2 evaluation: for every
kind of atom, the batched result over a dataset must equal per-record
scalar evaluation.
"""

import random

import numpy as np
import pytest

import repro.core.composition as comp
from repro.core.number_filter import token_spans
from repro.eval.harness import (
    DatasetView,
    _child_fire_positions,
    evaluate_atom,
    evaluate_atoms,
    evaluate_expression,
)


def scalar_eval(expr, dataset):
    return np.fromiter(
        (comp.evaluate_record(expr, record) for record in dataset),
        dtype=bool,
        count=len(dataset),
    )


ATOMS = [
    comp.s("temperature", 1),
    comp.s("temperature", 2),
    comp.full("temperature"),
    comp.dfa("dust"),
    comp.s("light", 1),
    comp.v_int(12, 49),
    comp.v("0.7", "35.1"),
    comp.v("20.3", "69.1"),
    comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1")),
    comp.group(comp.s("humidity", 1), comp.v("20.3", "69.1")),
    comp.group(comp.s("light", 2), comp.v_int(0, 5153)),
    comp.Group(
        [comp.s("humidity", 1), comp.v("20.3", "69.1")], comma_scoped=True
    ),
]


class TestAtomEquivalence:
    @pytest.mark.parametrize("atom", ATOMS, ids=lambda a: a.notation())
    def test_vectorised_equals_scalar_smartcity(self, atom,
                                                smartcity_small):
        view = DatasetView(smartcity_small)
        got = evaluate_atom(view, atom, {})
        want = scalar_eval(atom, smartcity_small)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "atom",
        [
            comp.s("tolls_amount", 1),
            comp.s("tolls_amount", 2),
            comp.v("2.5", "18.0"),
            comp.group(comp.s("tolls_amount", 2), comp.v("2.5", "18.0")),
            comp.v_int(140, 3155),
        ],
        ids=lambda a: a.notation(),
    )
    def test_vectorised_equals_scalar_taxi(self, atom, taxi_small):
        view = DatasetView(taxi_small)
        got = evaluate_atom(view, atom, {})
        want = scalar_eval(atom, taxi_small)
        assert got.tolist() == want.tolist()

    def test_combinators(self, smartcity_small):
        expr = comp.And(
            [
                comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1")),
                comp.Or([comp.v_int(12, 49), comp.s("dust", 2)]),
            ]
        )
        view = DatasetView(smartcity_small)
        got = evaluate_expression(view, expr)
        want = scalar_eval(expr, smartcity_small)
        assert got.tolist() == want.tolist()

    def test_regex_atom(self, smartcity_small):
        expr = comp.RegexPredicate(r'"bt":[0-9]+')
        view = DatasetView(smartcity_small)
        got = evaluate_atom(view, expr, {})
        assert got.all()


class TestCaching:
    def test_shared_cache_reuses_results(self, smartcity_small):
        view = DatasetView(smartcity_small)
        cache = {}
        first = evaluate_atom(view, comp.v_int(12, 49), cache)
        second = evaluate_atom(view, comp.v_int(12, 49), cache)
        assert first is second

    def test_group_children_share_primitive_caches(self, smartcity_small):
        view = DatasetView(smartcity_small)
        cache = {}
        evaluate_atoms(
            view,
            [
                comp.group(comp.s("dust", 1), comp.v("83.36", "3322.67")),
                comp.s("dust", 1),
            ],
        )
        # no assertion failure = both paths coexist; verify token matrix
        # was built once
        assert view.tokens is view.tokens

    def test_token_matrix_shape(self, smartcity_small):
        """The token columns hold every token with a digit, byte for
        byte, longest first; lone ``e``-style tokens are dropped."""
        view = DatasetView(smartcity_small)
        columns, order, record_index, ends = view.tokens
        counts = [column.shape[0] for column in columns]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == order.shape[0] == record_index.shape[0]
        assert ends.shape == record_index.shape
        assert sorted(order.tolist()) == list(range(order.shape[0]))
        assert (record_index >= 0).all()
        assert (record_index < len(smartcity_small)).all()
        stream = view.stream.tobytes()
        want = [
            stream[start:end] for start, end in token_spans(view.stream)
            if end - start > 1 or stream[start:end].isdigit()
        ]
        rebuilt = [b""] * order.shape[0]
        for column in columns:
            for rank, byte in enumerate(column.tolist()):
                rebuilt[order[rank]] += bytes((byte,))
        assert rebuilt == want
        assert [stream.rfind(b"\n", 0, e) + 1 for e in ends] == [
            int(view.starts[r]) for r in record_index
        ]


class TestGroupBoundaries:
    def test_group_never_leaks_across_records(self):
        """A string fire in record i and value in i+1 must not combine."""
        from repro.data import Dataset

        records = [
            b'{"n":"temperature"}',   # string fires, no number
            b'{"v":"30.0"}',          # number fires, no string
        ]
        dataset = Dataset("t", records)
        atom = comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))
        view = DatasetView(dataset)
        got = evaluate_atom(view, atom, {})
        assert got.tolist() == [False, False]

    def test_group_matches_inside_one_record(self):
        from repro.data import Dataset

        records = [b'{"n":"temperature","v":"30.0"}']
        dataset = Dataset("t", records)
        atom = comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1"))
        view = DatasetView(dataset)
        assert evaluate_atom(view, atom, {}).tolist() == [True]


#: record pieces: scope closes, commas, needle bytes and digits, so
#: fires land on boundaries, on segment starts and behind a record's
#: last close
PIECES = [
    b"{", b"}", b"[", b"]", b",", b":", b'"', b" ",
    b"x", b"y", b"xy", b"3", b"7", b"42", b"0.5",
]
GROUPS = [
    comp.group(comp.s("x", 1), comp.v_int(1, 5)),
    comp.group(comp.s("xy", 1), comp.v("3", "45")),
    comp.group(comp.s("x", 1), comp.s("y", 1)),
    comp.group(comp.s("xy", 2), comp.v_int(7, 42)),
    comp.Group([comp.s("x", 1), comp.v_int(1, 5)], comma_scoped=True),
    comp.Group([comp.s("x", 1), comp.s("y", 1)], comma_scoped=True),
]


def random_records(rng, count):
    return [
        b"".join(rng.choice(PIECES) for _ in range(rng.randint(1, 12)))
        for _ in range(count)
    ]


def fire_placement(view, group, cache):
    """Which of the interesting places the group's fires hit:
    ``{"boundary", "segment_start", "behind_last_close"}`` subsets."""
    closes, commas, _ = view.structure
    boundaries = np.union1d(closes, commas) if group.comma_scoped else (
        closes
    )
    records = np.searchsorted(view.starts, boundaries, side="right") - 1
    starts = np.empty_like(boundaries)
    starts[1:] = boundaries[:-1] + 1
    opens = np.ones(boundaries.shape[0], dtype=bool)
    opens[1:] = records[1:] != records[:-1]
    starts[opens] = view.starts[records[opens]]
    seen = set()
    for child in group.children:
        positions = _child_fire_positions(view, child, cache)
        if np.isin(positions, boundaries).any():
            seen.add("boundary")
        if np.isin(positions, starts).any():
            seen.add("segment_start")
        segment = np.searchsorted(boundaries, positions)
        fire_records = (
            np.searchsorted(view.starts, positions, side="right") - 1
        )
        padded = np.append(records, -1)
        if (padded[segment] != fire_records).any():
            seen.add("behind_last_close")
    return seen


class TestGroupDifferential:
    """Seeded differential test of the batched group evaluation
    against the per-record ``Group.matches_record``."""

    def test_batched_group_equals_matches_record(self):
        from repro.data import Dataset

        rng = random.Random(11)
        seen = set()
        for _ in range(6):
            dataset = Dataset("groups", random_records(rng, 60))
            view = DatasetView(dataset)
            cache = {}
            for group in GROUPS:
                got = evaluate_atom(view, group, cache)
                want = [group.matches_record(r) for r in dataset]
                assert got.tolist() == want, group.cache_key()
                seen |= fire_placement(view, group, cache)
        assert seen == {"boundary", "segment_start", "behind_last_close"}

    def test_named_placements(self):
        from repro.data import Dataset

        records = [
            b'{"v":3}',        # number fire exactly on the close
            b"x{3}",           # string fire on the record's first byte
            b"{3},x",          # string fire after the last close
            b"{x}",            # neither child in the scope
            b"[3,x]",          # comma-scoped: different segments
            b"{3:x}",
        ]
        dataset = Dataset("placements", records)
        view = DatasetView(dataset)
        for group in (GROUPS[0], GROUPS[4]):
            got = evaluate_atom(view, group, {})
            want = [group.matches_record(r) for r in records]
            assert got.tolist() == want
        assert evaluate_atom(view, GROUPS[0], {}).tolist() == [
            False, True, False, False, True, True,
        ]
        assert evaluate_atom(view, GROUPS[4], {}).tolist() == [
            False, True, False, False, False, True,
        ]
