"""Sparser-style CPU raw filtering baseline (Palkar et al. [10]).

Sparser pre-filters raw bytes with SIMD-friendly substring probes before
parsing.  Its two primitives, reimplemented here behaviourally:

* **substring search** — a 2-, 4- or 8-byte slice of a query term,
  searched anywhere in the record (we model the SIMD sweep with
  ``bytes.find``, which is the correct record-level semantics);
* **key-value search** — two substrings that must co-occur, the second
  within a byte window after the first (Sparser's co-occurrence probe).

Sparser also has an *optimizer* that draws a calibration sample, measures
each candidate probe's passthrough rate and estimated cost, and picks the
cheapest sufficient cascade.  :func:`optimize_cascade` reproduces that
loop (greedy joint-passthrough minimisation, like the original's
cascade-of-ANDs over the top probes).

The crucial limitation the paper contrasts against: Sparser cannot
express number ranges, so for queries whose selectivity lives in numeric
predicates (the IoT case) its achievable FPR is bounded by string
selectivity alone.  The comparison benchmark shows exactly that gap.

Probes and cascades plug into the unified execution layer
(:mod:`repro.engine`): substring probes lower to raw-filter expressions
via ``as_raw_filter`` so the engine's compiled backend evaluates them
through the same verified kernels as the paper's filters, and every
``match_array`` here delegates to the engine rather than running a
private loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError

PROBE_LENGTHS = (2, 4, 8)


def _engine_match_array(predicate, dataset):
    """Evaluate a probe through the shared engine.

    Lowering to a raw-filter expression first (when the probe supports
    it) hands the engine a plain expression, which its compiled backend
    runs as a one-step kernel plan; probes without an expression form
    run on the engine's scalar reference path.
    """
    from ..engine import (
        default_engine,
        resolve_expression,
        scalar_match_bits,
    )

    expr = resolve_expression(predicate)
    if expr is not None:
        return default_engine().match_bits(expr, dataset)
    return scalar_match_bits(predicate, dataset)


class SubstringProbe:
    """A raw substring probe (Sparser's main primitive)."""

    __slots__ = ("needle",)

    def __init__(self, needle):
        if isinstance(needle, str):
            needle = needle.encode("utf-8")
        if not needle:
            raise QueryError("empty probe")
        self.needle = bytes(needle)

    def matches(self, record):
        return self.needle in record

    def as_raw_filter(self):
        """Engine hook: a probe is a full-length string comparison."""
        from ..core import composition as comp
        from ..errors import ReproError

        try:
            return comp.full(self.needle)
        except ReproError as err:
            # e.g. needles containing record separators have no
            # expression form; the engine falls back to matches()
            raise NotImplementedError(str(err)) from err

    def match_array(self, dataset):
        return _engine_match_array(self, dataset)

    def cost(self):
        """Relative evaluation cost (longer probes cost a little more)."""
        return 1.0 + 0.1 * (len(self.needle) / 8.0)

    def __repr__(self):
        return f"SubstringProbe({self.needle!r})"


class KeyValueProbe:
    """Co-occurrence probe: ``value`` within ``window`` bytes after ``key``."""

    __slots__ = ("key", "value", "window")

    def __init__(self, key, value, window=32):
        self.key = key if isinstance(key, bytes) else key.encode("utf-8")
        self.value = (
            value if isinstance(value, bytes) else value.encode("utf-8")
        )
        self.window = window

    def matches(self, record):
        start = 0
        while True:
            key_at = record.find(self.key, start)
            if key_at < 0:
                return False
            window_end = key_at + len(self.key) + self.window
            if record.find(
                self.value, key_at + len(self.key), window_end
            ) >= 0:
                return True
            start = key_at + 1

    def match_array(self, dataset):
        # no raw-filter lowering (the byte-window constraint has no
        # expression-tree equivalent), so the engine runs this scalar
        return _engine_match_array(self, dataset)

    def cost(self):
        return 2.0

    def __repr__(self):
        return f"KeyValueProbe({self.key!r}, {self.value!r})"


def candidate_probes(query_terms, lengths=PROBE_LENGTHS):
    """All substring probes Sparser would consider for the query terms."""
    probes = []
    seen = set()
    for term in query_terms:
        data = term.encode("utf-8") if isinstance(term, str) else term
        for length in lengths:
            if len(data) < length:
                continue
            for offset in range(len(data) - length + 1):
                slice_ = data[offset : offset + length]
                if slice_ not in seen:
                    seen.add(slice_)
                    probes.append(SubstringProbe(slice_))
    return probes


class Cascade:
    """An AND-cascade of probes (Sparser's chosen raw filter)."""

    def __init__(self, probes):
        self.probes = list(probes)

    def matches(self, record):
        return all(probe.matches(record) for probe in self.probes)

    def as_raw_filter(self):
        """Engine hook: an AND over the probes' expression forms."""
        from ..core import composition as comp

        if not self.probes:
            raise NotImplementedError("empty cascade accepts everything")
        children = []
        for probe in self.probes:
            converter = getattr(probe, "as_raw_filter", None)
            if converter is None:
                raise NotImplementedError(
                    f"{probe!r} has no raw-filter form"
                )
            children.append(converter())
        if len(children) == 1:
            return children[0]
        return comp.And(children)

    def match_array(self, dataset):
        return _engine_match_array(self, dataset)

    def cost(self):
        return sum(probe.cost() for probe in self.probes)

    def __repr__(self):
        inner = " & ".join(repr(p) for p in self.probes)
        return f"Cascade({inner})"


def optimize_cascade(query_terms, calibration_dataset, max_probes=2,
                     lengths=PROBE_LENGTHS, must_cover=None):
    """Sparser's optimizer: pick the lowest-passthrough probe cascade.

    Args:
        query_terms: strings the query ANDs over (Sparser may probe any).
        calibration_dataset: sample of records for rate estimation.
        max_probes: cascade depth (the original uses small cascades).
        must_cover: terms that may NOT be dropped (OR-semantics guard);
            unused for the conjunctive RiotBench queries.
    Returns:
        the chosen :class:`Cascade`.
    """
    probes = candidate_probes(query_terms, lengths)
    if not probes:
        raise QueryError("no candidate probes")
    rates = [
        (probe.match_array(calibration_dataset), probe) for probe in probes
    ]
    # greedy: repeatedly add the probe that minimises joint passthrough
    chosen = []
    current = np.ones(len(calibration_dataset), dtype=bool)
    for _ in range(max_probes):
        best = None
        best_rate = None
        for mask, probe in rates:
            if any(probe.needle == c.needle for c in chosen):
                continue
            joint = float((current & mask).mean())
            if best_rate is None or joint < best_rate - 1e-12:
                best_rate = joint
                best = (mask, probe)
        if best is None:
            break
        mask, probe = best
        previous_rate = float(current.mean())
        if best_rate > previous_rate - 1e-9 and chosen:
            break  # no improvement; stop growing the cascade
        chosen.append(probe)
        current &= mask
    return Cascade(chosen)
