"""Corpus preparation and the correctness gate (its own process).

Usage: ``python3 bench/gate.py CONFIG.json`` (written by ``run.py``).

For every base corpus the workload needs, generated from the seed:

1. write it as NDJSON into the run's work directory;
2. compute the reference bits with one serial compiled pass;
3. cross-check them bit for bit against the scalar oracle on a random
   sample of 2k records;
4. require zero false negatives against the exact ``ALL_QUERIES``
   oracle on the first 10k records.

Every measured pass or chunk is later compared to these reference bits
under its record permutation, so this is the one place the reference
itself is checked.  Exit status 3 means the program computed wrong
bits; anything else non-zero means the gate could not run.
"""

from __future__ import annotations

import io
import json
import os
import sys

import numpy as np

from spec import CHUNK_BYTES, CORPORA, corpora_for, scaled_records

SCALAR_SAMPLE = 2000
EXACT_SLICE = 10_000
WRONG_BITS = 3


def stream_bits(engine, expr, payload):
    parts = [
        batch.matches for batch in engine.stream(expr, io.BytesIO(payload))
    ]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


def prepare(corpus, seed, scale, work):
    """Write one base corpus and its reference bits; returns what is
    wrong with them (nothing when the gate passes)."""
    from repro.cli import parse_filter_expression
    from repro.data import ALL_QUERIES, Dataset, load_dataset
    from repro.engine import FilterEngine

    dataset_name, _, offset, expression, query = CORPORA[corpus]
    count = scaled_records(corpus, scale)
    records = load_dataset(
        dataset_name, count, seed=seed * 16 + offset
    ).records
    payload = b"".join(record + b"\n" for record in records)
    with open(os.path.join(work, f"{corpus}.ndjson"), "wb") as handle:
        handle.write(payload)

    expr = parse_filter_expression(expression)
    compiled = FilterEngine(backend="compiled", chunk_bytes=CHUNK_BYTES)
    ref = stream_bits(compiled, expr, payload)
    problems = []
    if ref.shape[0] != count:
        problems.append(
            f"{corpus}: reference pass returned {ref.shape[0]} bits "
            f"for {count} records"
        )
        ref = np.zeros(count, dtype=bool)
    np.save(os.path.join(work, f"{corpus}.ref.npy"), ref)

    rng = np.random.default_rng([seed, offset])
    sample = np.sort(rng.choice(
        count, size=min(SCALAR_SAMPLE, count), replace=False
    ))
    scalar = FilterEngine(backend="scalar", chunk_bytes=CHUNK_BYTES)
    sample_payload = b"".join(records[i] + b"\n" for i in sample)
    oracle = stream_bits(scalar, expr, sample_payload)
    mismatches = int(np.count_nonzero(oracle != ref[sample]))
    if mismatches:
        problems.append(
            f"{corpus}: compiled bits differ from the scalar oracle on "
            f"{mismatches} of {sample.shape[0]} sampled records"
        )

    head = min(EXACT_SLICE, count)
    truth = ALL_QUERIES[query].truth_array(Dataset(corpus, records[:head]))
    false_negatives = int(np.count_nonzero(truth & ~ref[:head]))
    if false_negatives:
        problems.append(
            f"{corpus}: {false_negatives} false negatives against the "
            f"exact {query} oracle on {head} records"
        )
    return problems


def main(config_path):
    with open(config_path) as handle:
        config = json.load(handle)
    problems = [
        problem
        for corpus in corpora_for(config["workload"])
        for problem in prepare(
            corpus, config["seed"], config["scale"], config["work"]
        )
    ]
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    return WRONG_BITS if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
