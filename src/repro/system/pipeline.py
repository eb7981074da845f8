"""Raw-filter lane model: one byte per cycle, plus functional results.

A :class:`FilterLane` pairs the paper's timing contract (a pipelined RF
consumes exactly one byte per clock, never stalling the stream) with the
behavioural evaluation of its raw filter, so the system simulation
produces both a cycle count *and* the actual per-record match bits that
the DMA writes back.

Match bits come from the shared :class:`repro.engine.FilterEngine`
execution layer rather than a private evaluation loop — a lane's
functional behaviour is, by construction, the same audited code path the
CLI, baselines and eval harness use.
"""

from __future__ import annotations

import numpy as np

from ..engine import FilterEngine
from ..errors import ReproError


class FilterLane:
    """One pipelined raw-filter instance in the programmable logic."""

    def __init__(self, expr, lane_id=0, pipeline_fill_cycles=4,
                 engine=None):
        self.expr = expr
        self.lane_id = lane_id
        #: cycles to drain the lane's register stages at end of stream
        self.pipeline_fill_cycles = pipeline_fill_cycles
        #: the execution layer producing this lane's match bits; the
        #: scalar backend mirrors the hardware's record-at-a-time flow
        self.engine = engine or FilterEngine(backend="scalar")
        self.bytes_processed = 0
        self.records_processed = 0

    def process_records(self, records, accept_mask=None):
        """Consume records; returns (cycles, match_bits).

        ``accept_mask`` can supply precomputed match bits (typically the
        engine's compiled backend run once for all lanes) to avoid
        re-evaluating per record; otherwise this lane's engine runs.
        """
        records = list(records)
        payload = sum(len(record) + 1 for record in records)  # +1: \n
        cycles = payload + self.pipeline_fill_cycles
        if accept_mask is not None:
            matches = np.asarray(accept_mask, dtype=bool)
            if matches.shape[0] < len(records):
                raise ReproError(
                    f"accept_mask covers {matches.shape[0]} records, "
                    f"lane received {len(records)}"
                )
            matches = matches[:len(records)].copy()
        else:
            matches = self.engine.match_bits(self.expr, records)
        self.bytes_processed += payload
        self.records_processed += len(records)
        return cycles, matches

    def __repr__(self):
        return f"FilterLane({self.lane_id}, {self.expr.notation()})"
