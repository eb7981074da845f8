"""The exact parse-and-evaluate oracle (the baseline CPU path).

This is what a stream processor without raw filtering does: parse every
record, evaluate the query on the typed values.  It defines ground truth
for every FPR in the reproduction and models the per-record parse cost
that raw filtering avoids.

An :class:`ExactFilter` is a valid engine predicate
(:mod:`repro.engine`): its ``matches`` method serves the engine's
scalar path and its ``match_array`` the dataset-level path, so oracle
accuracy comparisons run through the same execution layer as the raw
filters and the Sparser baseline.
"""

from __future__ import annotations

import numpy as np

from ..jsonpath.parser import loads


class ExactFilter:
    """Parse each record and apply the query oracle."""

    def __init__(self, query):
        self.query = query
        self.records_parsed = 0
        self.bytes_parsed = 0

    def matches(self, record_bytes):
        self.records_parsed += 1
        self.bytes_parsed += len(record_bytes)
        return self.query.matches(loads(record_bytes))

    def match_array(self, dataset):
        """Oracle booleans (uses pre-parsed values when available)."""
        self.records_parsed += len(dataset)
        self.bytes_parsed += dataset.total_bytes
        return np.asarray(self.query.truth_array(dataset), dtype=bool)

    def reset_counters(self):
        self.records_parsed = 0
        self.bytes_parsed = 0


def filtered_pipeline_stats(accept_mask, dataset, query):
    """Simulate raw-filter + parser pipeline bookkeeping.

    Returns parse workload with and without the raw filter, plus result
    correctness (the surviving set must contain every true match).
    """
    accept_mask = np.asarray(accept_mask, dtype=bool)
    truth = query.truth_array(dataset)
    lengths = dataset.lengths - 1  # the newline is not parsed
    return {
        "records_total": len(dataset),
        "records_parsed_unfiltered": len(dataset),
        "records_parsed_filtered": int(accept_mask.sum()),
        "bytes_parsed_unfiltered": int(lengths.sum()),
        "bytes_parsed_filtered": int(lengths[accept_mask].sum()),
        "missing_matches": int(np.count_nonzero(truth & ~accept_mask)),
    }
