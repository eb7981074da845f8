"""Dataset-scale raw-filter evaluation (the paper's measurement loop).

Evaluation is two-phase:

* **Phase 1** (:class:`DatasetView` + :func:`evaluate_atoms`): every
  *atom* — a primitive, or a structural group — is evaluated once over
  the whole dataset into a per-record boolean array.  All heavy lifting
  is vectorised over the concatenated record stream: windowed ANDs of
  window hits (approximate) and candidate-verified occurrences (exact)
  for string matchers, lock-step DFA stepping over the dataset's numeric
  token columns for number filters (each byte of each token stepped
  once), and a sparse record-local structural index (scope closes and
  commas outside strings) for the structural combiner.
* **Phase 2** (design-space exploration, :mod:`repro.core.design_space`):
  each of the ~10⁵ candidate configurations is a pure boolean
  conjunction of atom arrays, so evaluating its FPR costs a handful of
  numpy ops.

Records are framed with a trailing newline, which closes any trailing
numeric token and never matches any needle, and the structural index
and group segments restart at every record's first byte, so no matcher
state leaks across records — the precise property the per-lane hardware
obtains from its ``record_reset``.
"""

from __future__ import annotations

import numpy as np

from ..core import composition as comp
from ..core import string_match
from ..core.number_filter import (
    DIGIT_TABLE,
    batch_token_accepts,
    token_columns,
    token_edges,
)
from ..core.structural import structural_index


class DatasetView:
    """Precomputed vectorised views over one dataset.

    Built once per dataset and shared by every primitive evaluation: the
    numeric token columns in particular are what let ten different
    number filters each step every token byte once.
    """

    def __init__(self, dataset):
        self.dataset = dataset
        self.stream = dataset.stream
        self.starts = dataset.starts
        self.num_records = len(dataset)
        self._token_view = None
        self._structural_view = None

    # -- numeric tokens -----------------------------------------------------

    @property
    def tokens(self):
        """(columns, order, record_index, end_positions) of the tokens.

        ``columns``/``order`` are :func:`token_columns`' layout;
        ``record_index`` and ``end_positions`` are in stream order.
        Lone non-digit bytes (the ``e`` of ``temperature``) are not
        tokens here: no range DFA accepts a digit-free token, which
        :func:`repro.analysis.kernel_verify.verify_token_drop` proves
        per DFA before :meth:`number_fire_info` runs it.
        """
        if self._token_view is None:
            self._token_view = self._build_tokens()
        return self._token_view

    def _build_tokens(self):
        arr = self.stream
        starts, ends = token_edges(arr)
        lengths = ends - starts
        keep = (lengths > 1) | DIGIT_TABLE[arr[starts]]
        starts, ends, lengths = starts[keep], ends[keep], lengths[keep]
        columns, order = token_columns(arr, starts, lengths)
        record_index = (
            np.searchsorted(self.starts, starts, side="right") - 1
        )
        return columns, order, record_index, ends

    # -- structure ------------------------------------------------------------

    @property
    def structure(self):
        """(close_positions, comma_positions, close_record_index)."""
        if self._structural_view is None:
            self._structural_view = structural_index(
                self.stream, self.starts
            )
        return self._structural_view

    def index_bytes(self):
        """Bytes held by the token and structural indexes built so far."""
        arrays = []
        if self._token_view is not None:
            columns, *rest = self._token_view
            arrays += columns + rest
        if self._structural_view is not None:
            arrays += self._structural_view
        return sum(int(array.nbytes) for array in arrays)

    # -- per-atom caches ------------------------------------------------------

    def string_fire_positions(self, needle, block):
        """Sorted global positions where an sB matcher fires."""
        fires = string_match.fire_array(self.stream, needle, block)
        return np.flatnonzero(fires)

    def number_fire_info(self, predicate):
        """(accepted_token_mask) for a NumberPredicate over all tokens."""
        from ..analysis.kernel_verify import verify_token_drop

        verify_token_drop(predicate.dfa)
        columns, order, _, _ = self.tokens
        return batch_token_accepts(predicate.dfa, columns, order)


def evaluate_atom(view, atom, cache):
    """Per-record boolean array for one atom, with sub-result caching."""
    key = atom.cache_key()
    if key in cache:
        return cache[key]
    if isinstance(atom, comp.StringPredicate):
        result = string_match.record_match_array(
            view.stream, view.starts, atom.needle, atom.block
        )
    elif isinstance(atom, comp.NumberPredicate):
        accepted = _number_accepts(view, atom, cache)
        _, _, record_index, _ = view.tokens
        result = np.zeros(view.num_records, dtype=bool)
        if accepted.any():
            result[record_index[accepted]] = True
    elif isinstance(atom, comp.Group):
        result = _evaluate_group(view, atom, cache)
    elif isinstance(atom, (comp.And, comp.Or)):
        children = [
            evaluate_atom(view, child, cache) for child in atom.children
        ]
        combine = np.logical_and if isinstance(atom, comp.And) else (
            np.logical_or
        )
        result = children[0].copy()
        for child in children[1:]:
            combine(result, child, out=result)
    elif isinstance(atom, comp.RegexPredicate):
        result = np.fromiter(
            (atom.matches_record(record) for record in view.dataset),
            dtype=bool,
            count=view.num_records,
        )
    else:
        raise TypeError(f"cannot evaluate atom {atom!r}")
    cache[key] = result
    return result


def _number_accepts(view, atom, cache):
    key = ("tokens-accepted",) + atom.cache_key()
    if key not in cache:
        cache[key] = view.number_fire_info(atom)
    return cache[key]


def _string_fires(view, needle, block, cache):
    key = ("fires", "string", bytes(needle), block)
    if key not in cache:
        cache[key] = view.string_fire_positions(needle, block)
    return cache[key]


def _child_fire_positions(view, child, cache):
    """Sorted global fire positions for a group child primitive."""
    if isinstance(child, comp.StringPredicate):
        if child.block == string_match.DFA_TECHNIQUE:
            # absorbing accept: fires from the first occurrence to record
            # end; approximate per paper usage (never grouped), fall back
            # to the exact per-record path
            raise NotImplementedError(
                "DFA matchers are not used inside structural groups"
            )
        resolved = string_match.resolve_block(child.needle, child.block)
        return _string_fires(view, child.needle, resolved, cache)
    if isinstance(child, comp.NumberPredicate):
        key = ("fires", "number") + child.cache_key()
        if key not in cache:
            accepted = _number_accepts(view, child, cache)
            _, _, _, ends = view.tokens
            cache[key] = ends[accepted]
        return cache[key]
    raise TypeError(f"unsupported group child {child!r}")


def _evaluate_group(view, group, cache):
    closes, commas, close_records = view.structure
    if group.comma_scoped:
        boundaries = np.union1d(closes, commas)
        boundary_records = (
            np.searchsorted(view.starts, boundaries, side="right") - 1
        )
    else:
        boundaries = closes
        boundary_records = close_records
    if boundaries.size == 0:
        return np.zeros(view.num_records, dtype=bool)
    # a segment opens after the previous boundary of the same record,
    # or at the record's first byte: fires never carry across records
    segment_starts = np.empty_like(boundaries)
    segment_starts[1:] = boundaries[:-1] + 1
    opens_record = np.ones(boundaries.shape[0], dtype=bool)
    opens_record[1:] = boundary_records[1:] != boundary_records[:-1]
    segment_starts[opens_record] = view.starts[
        boundary_records[opens_record]
    ]
    # segments are disjoint and sorted, so a fire lies in the segment
    # of the first boundary at or after it iff it is at or after that
    # segment's start: one searchsorted per child, O(fires)
    satisfied = np.ones(boundaries.shape[0], dtype=bool)
    for child in group.children:
        try:
            positions = _child_fire_positions(view, child, cache)
        except NotImplementedError:
            return np.fromiter(
                (group.matches_record(record) for record in view.dataset),
                dtype=bool,
                count=view.num_records,
            )
        segments = np.searchsorted(boundaries, positions)
        inside = segments < boundaries.shape[0]
        segments = segments[inside]
        segments = segments[positions[inside] >= segment_starts[segments]]
        hit = np.zeros(boundaries.shape[0], dtype=bool)
        hit[segments] = True
        satisfied &= hit
    result = np.zeros(view.num_records, dtype=bool)
    if satisfied.any():
        result[boundary_records[satisfied]] = True
    return result


def evaluate_atoms(view, atoms, cache=None):
    """Evaluate many atoms, sharing one cache; returns {cache_key: array}.

    ``cache`` may be any mapping speaking ``in``/``[]``/``[]=`` — pass a
    :meth:`repro.engine.atom_cache.AtomCache.evaluation_cache` adapter
    to serve repeated atoms across calls from the shared store.
    """
    if cache is None:
        cache = {}
    results = {}
    for atom in atoms:
        results[atom.cache_key()] = evaluate_atom(view, atom, cache)
    return results


def evaluate_expression(view, expr, cache=None):
    """Per-record accept array for a full raw-filter expression."""
    if cache is None:
        cache = {}
    return evaluate_atom(view, expr, cache)
