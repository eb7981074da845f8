"""The vectorised evaluation harness vs the scalar reference path.

These are the tests that justify phase-1/phase-2 evaluation: for every
kind of atom, the batched result over a dataset must equal per-record
scalar evaluation.
"""

import numpy as np
import pytest

import repro.core.composition as comp
from repro.core.number_filter import token_spans
from repro.eval.harness import (
    DatasetView,
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
