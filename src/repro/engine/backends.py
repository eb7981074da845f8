"""Pluggable evaluation backends for the :class:`FilterEngine`.

A backend turns (*predicate*, *records*) into per-record match bits.
The default, ``compiled``, lives in :mod:`repro.engine.compiled`; this
module holds the two it is checked against:

* :class:`VectorizedBackend` — the dataset-scale harness
  (:class:`repro.eval.harness.DatasetView` + ``evaluate_expression``),
  which batches all heavy lifting into numpy sweeps over the
  concatenated record stream; the compiled backend's fallback for
  predicates without an expression form, and the shape design-space
  sweeps use;
* :class:`ScalarBackend` — the per-record behavioural evaluator
  (:func:`repro.core.composition.evaluate_record`), the reference
  oracle the vectorised path is audited against.

Backends accept more than raw-filter expression trees.  Any *predicate*
object is usable if it speaks one of three protocols, probed in order:

1. ``as_raw_filter()`` — convert to a :class:`repro.core.RawFilter`
   expression (used by the Sparser baseline probes, so CPU-baseline
   accuracy comparisons run through the same audited vectorised path);
2. ``match_array(dataset)`` — a dataset-level evaluator of its own
   (the exact parse-everything oracle);
3. ``matches(record)`` / raw-filter ``matches_record`` — a per-record
   accept, evaluated in a scalar loop.
"""

from __future__ import annotations

import numpy as np

from ..core import composition as comp
from ..data.corpus import Dataset
from ..errors import ReproError
from ..eval.harness import DatasetView, evaluate_expression


def as_dataset(records):
    """Wrap a record sequence in a :class:`Dataset` (pass-through if one)."""
    if isinstance(records, Dataset):
        return records
    return Dataset("engine-batch", records)


def resolve_expression(predicate):
    """Return a RawFilter expression for the predicate, or ``None``."""
    if isinstance(predicate, comp.RawFilter):
        return predicate
    converter = getattr(predicate, "as_raw_filter", None)
    if callable(converter):
        try:
            return converter()
        except NotImplementedError:
            return None
    return None


def record_matcher(predicate):
    """A per-record ``bytes -> bool`` callable for any known predicate."""
    if isinstance(predicate, comp.RawFilter):
        return lambda record: comp.evaluate_record(predicate, record)
    matches = getattr(predicate, "matches", None)
    if callable(matches):
        return lambda record: bool(matches(record))
    expr = resolve_expression(predicate)
    if expr is not None:
        return lambda record: comp.evaluate_record(expr, record)
    raise ReproError(
        f"cannot evaluate {predicate!r}: expected a RawFilter expression "
        "or an object with matches()/as_raw_filter()"
    )


class Backend:
    """Base class: evaluate a predicate over a batch of records."""

    name = "?"

    def match_bits(self, predicate, records):
        """Per-record boolean accept array (numpy, len == #records)."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class ScalarBackend(Backend):
    """Reference oracle: one behavioural evaluation per record."""

    name = "scalar"

    def match_bits(self, predicate, records):
        matcher = record_matcher(predicate)
        records = list(records) if not hasattr(records, "__len__") else (
            records
        )
        return np.fromiter(
            (matcher(record) for record in records),
            dtype=bool,
            count=len(records),
        )


class VectorizedBackend(Backend):
    """Dataset-scale numpy evaluation via the harness.

    With an :class:`~repro.engine.atom_cache.AtomCache` attached
    (``atom_cache``, normally wired up by the owning ``FilterEngine``),
    per-atom masks and the per-corpus ``DatasetView`` are memoised by
    dataset content, so repeated evaluation over the same records —
    different queries sharing atoms, re-streamed chunks, reconfigured
    filters — skips the vectorised sweeps entirely.  Without a cache,
    the most recent batch's ``DatasetView`` is still memoised by batch
    identity, so repeated queries over the same in-memory records do
    not pay the token-column/structural-index rebuilds.
    """

    name = "vectorized"
    #: streaming resolves the predicate to its expression once per
    #: stream for this backend (see FilterEngine._stream_target)
    wants_expression = True

    def __init__(self, atom_cache=None, selectivity=None):
        self.atom_cache = atom_cache
        #: optional SelectivityTracker fed with per-atom pass rates
        #: (attached by the owning engine; shared with the compiled
        #: backend's ordering decision)
        self.selectivity = selectivity
        self._scalar = ScalarBackend()
        self._view_memo = None

    def match_bits(self, predicate, records):
        expr = resolve_expression(predicate)
        if expr is not None:
            dataset = as_dataset(records)
            if self.atom_cache is not None:
                view = self.atom_cache.view_for(dataset)
                cache = self.atom_cache.evaluation_cache(dataset)
            else:
                view = self._memoised_view(records, dataset)
                cache = {}
            bits = evaluate_expression(view, expr, cache)
            self._observe(expr, cache)
            return np.array(bits, dtype=bool)
        match_array = getattr(predicate, "match_array", None)
        if callable(match_array):
            return np.asarray(match_array(as_dataset(records)), dtype=bool)
        return self._scalar.match_bits(predicate, records)

    def _memoised_view(self, records, dataset):
        """One-slot DatasetView memo keyed by batch object identity.

        Identity (not content) keeps the cache-disabled path free of
        hashing; re-evaluating the same records list/Dataset — the
        repeated-query and per-chunk streaming patterns — reuses the
        token columns and structural index instead of rebuilding them.
        """
        memo = self._view_memo
        if memo is not None and memo[0] is records:
            return memo[1]
        view = DatasetView(dataset)
        self._view_memo = (records, view)
        return view

    def _observe(self, expr, cache):
        """Harvest observed per-atom pass rates from the evaluation."""
        tracker = self.selectivity
        if tracker is None:
            return
        local = getattr(cache, "_local", cache)
        for atom in expr.atoms():
            bits = local.get(atom.cache_key())
            if bits is not None:
                tracker.observe(
                    atom, int(bits.shape[0]),
                    int(np.count_nonzero(bits)),
                )


def _compiled_factory():
    # imported lazily: compiled.py builds on this module
    from .compiled import CompiledBackend

    return CompiledBackend()


BACKENDS = {
    "vectorized": VectorizedBackend,
    "scalar": ScalarBackend,
    "compiled": _compiled_factory,
}


def resolve_backend(backend):
    """Accept a backend name or instance; return a Backend instance."""
    if isinstance(backend, Backend):
        return backend
    try:
        factory = BACKENDS[backend]
    except (KeyError, TypeError):
        known = ", ".join(sorted(BACKENDS))
        raise ReproError(
            f"unknown backend {backend!r} (known: {known})"
        ) from None
    return factory()
