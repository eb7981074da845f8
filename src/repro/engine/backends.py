"""Evaluation backends for the :class:`FilterEngine`.

A backend turns (*predicate*, *records*) into per-record match bits.
There are two:

* ``compiled`` — the production backend, in
  :mod:`repro.engine.compiled`: each filter's verified kernel plan run
  as one selectivity-ordered pass over the batch;
* ``scalar`` — :class:`ScalarBackend`, the per-record behavioural
  evaluator (:func:`repro.core.composition.evaluate_record`), the
  reference oracle the compiled backend is audited against.

Backends accept more than raw-filter expression trees.  Any *predicate*
object is usable if it speaks one of three protocols, probed in order:

1. ``as_raw_filter()`` — convert to a :class:`repro.core.RawFilter`
   expression (used by the Sparser baseline probes, so CPU-baseline
   accuracy comparisons run through the same audited kernels);
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


def _compiled_factory():
    # imported lazily: compiled.py builds on this module
    from .compiled import CompiledBackend

    return CompiledBackend()


BACKENDS = {
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
