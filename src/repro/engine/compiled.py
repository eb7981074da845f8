"""Compiled fused-kernel backend: specialise the whole filter into one pass.

The harness (:func:`repro.eval.harness.evaluate_expression`) evaluates
a filter atom by atom: every atom sweeps the *entire* concatenated byte
stream, and the expression tree combines the resulting per-record
masks.  That is the right shape for design-space exploration (each
atom evaluated once, ~10^5 candidate conjunctions composed from the
cached masks) but the wrong shape for the serial filtering hot path,
where one fixed filter runs over a stream once: most records are
rejected by one dominant atom, yet every later atom still scans their
bytes.

This module applies the paper's core move — *specialise the datapath to
the filter* — in software.  A resolved
:class:`~repro.core.composition.RawFilter` expression is compiled into
a **kernel plan** (:class:`KernelPlan`): the verified primitives the
filter is composed of and the roles they play.  The backend runs that
plan as a single selectivity-ordered pass over the record batch:

* the expression is decomposed into the plan's steps: the top-level
  conjuncts, plus cheap **prefilter** steps derived from structural
  groups (a group can only match a record in which each child fires
  *somewhere*, so the record-level child atoms are necessary
  conditions evaluated long before the structural machinery runs);
* steps run in selectivity order — seeded from an analytic mirror of
  the :mod:`repro.core.cost` LUT model, refined online from observed
  per-atom pass rates (a batch that meets step atoms with no observed
  rate first samples a byte-bounded head slice of records, so even the
  first ordering decision is informed);
* each step only touches the bytes of records still alive: rejected
  records are **masked out of every later atom's scan** by gathering
  the survivors into a compact sub-stream, so the expensive primitives
  (token-column builds, structural indexes, regex loops) run over a
  shrinking fraction of the input;
* plans are cached process-wide by filter fingerprint
  (``expr.cache_key()``), so gateway ``SWAP`` traffic and design-space
  sweeps reuse compilations, and the pass composes with the
  :class:`~repro.engine.atom_cache.AtomCache`: cached per-atom masks
  feed the fused pass as precomputed inputs instead of forcing a
  re-scan, and masks the pass computes over the full batch are
  inserted back.

Correctness contract: the kernel is bit-identical to the **scalar
oracle** (:func:`repro.core.composition.evaluate_record`).  Evaluating
survivors as their own sub-stream relies on record-local matcher state
— needles never span the newline separator, numeric tokens are closed
by it, and the structural index
(:func:`repro.core.structural.structural_index`) starts every record
outside a string, whatever bytes the records before it hold — the
same property the hardware gets from its ``record_reset``.  Predicates
with no raw-filter expression form run their own ``match_array`` or the
scalar loop; the scalar loop warns once per backend (see
:meth:`CompiledBackend.stats`).

Every plan is proven before its first batch runs: :func:`kernel_for`
hands it to :func:`repro.analysis.kernel_verify.verify_plan`, which
checks it is boolean-equivalent to the expression.  A miscompile
raises :class:`~repro.errors.KernelVerificationError`.  Plans are
registered by filter fingerprint, so each filter is verified once per
process and a reused plan costs one dict probe.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from typing import Any, Iterable, Iterator

import numpy as np

from ..core import composition as comp
from ..data.corpus import Dataset, record_starts
from ..eval import harness
from .atom_cache import dataset_fingerprint
from .backends import (
    Backend,
    ScalarBackend,
    as_dataset,
    resolve_expression,
)

#: pass-rate prior for atoms never observed (and not sampled yet)
DEFAULT_SELECTIVITY = 0.5
#: byte budget of the head-of-batch sample that seeds the pass rates of
#: step atoms never observed before
SAMPLE_BYTES = 64 << 10
#: optional prefilter steps observed to reject fewer than this fraction
#: of records are dropped from the order — their scan costs more than
#: the records they would mask out of later atoms
PREFILTER_DROP_SELECTIVITY = 0.9
#: process-wide compiled-plan LRU bound (design-space sweeps compile
#: many distinct candidate filters; the registry must not grow with them)
KERNEL_CACHE_SIZE = 512
#: a step's survivors are gathered into a compact sub-stream only when
#: fewer than this fraction of the scanned records survive — weaker
#: rejections are folded into a pending mask over the shared view
SHRINK_THRESHOLD = 0.7


# ---------------------------------------------------------------------------
# observed selectivity
# ---------------------------------------------------------------------------

class SelectivityTracker:
    """Cumulative observed per-atom pass rates.

    Fed by the compiled kernel (per step, and by its head samples),
    read by the kernel's ordering decision and exposed through
    ``engine.stats()["selectivity"]`` — the observability hook the
    ROADMAP's online-adaptive-filtering item needs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: cache_key -> [notation, evaluated, passed]
        self._stats: dict[str, list[Any]] = {}  # guarded-by: _lock

    def observe(
        self, atom: comp.RawFilter, evaluated: int, passed: int
    ) -> None:
        """Record that ``atom`` passed ``passed`` of ``evaluated`` records."""
        if evaluated <= 0:
            return
        key = atom.cache_key()
        with self._lock:
            entry = self._stats.get(key)
            if entry is None:
                self._stats[key] = [atom.notation(), evaluated, passed]
            else:
                entry[1] += evaluated
                entry[2] += passed

    def rate(
        self, atom: comp.RawFilter, default: float | None = None
    ) -> float | None:
        """Observed pass rate of ``atom`` (``default`` if never seen)."""
        with self._lock:
            entry = self._stats.get(atom.cache_key())
            if entry is None or entry[1] == 0:
                return default
            return entry[2] / entry[1]

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{notation: {evaluated, passed, selectivity}}``, most
        selective (lowest pass rate) first."""
        with self._lock:
            rows = [
                (notation, evaluated, passed)
                for notation, evaluated, passed in self._stats.values()
            ]
        rows.sort(key=lambda row: (row[2] / row[1], row[0]))
        return {
            notation: {
                "evaluated": evaluated,
                "passed": passed,
                "selectivity": passed / evaluated,
            }
            for notation, evaluated, passed in rows
        }

    def clear(self) -> None:
        with self._lock:
            self._stats.clear()

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._stats)
        return f"SelectivityTracker(atoms={count})"


# ---------------------------------------------------------------------------
# cost seeds (the static half of the ordering decision)
# ---------------------------------------------------------------------------

#: analytic mirror of the LUT model's per-kind shape (see cost_seed);
#: the structural-tracker share every group carries
_GROUP_TRACKER_COST = 36.0
#: every number filter is priced as a 16-state DFA (8 + 4 * 16),
#: whatever its real state count
_NUMBER_COST = 72.0
_REGEX_COST = 640.0


def _analytic_cost(atom: comp.RawFilter) -> float:
    """Closed-form stand-in for ``atom_luts`` with the same ranking.

    Calibrated against synthesised atoms (a short string matcher ~9
    LUTs, a float range DFA ~70, a two-child group ~115): string
    matchers scale with needle length, number filters cost a flat
    :data:`_NUMBER_COST`, groups pay one structural tracker plus their
    children.
    """
    if isinstance(atom, comp.StringPredicate):
        return 4.0 + float(len(atom.needle))
    if isinstance(atom, comp.NumberPredicate):
        return _NUMBER_COST
    if isinstance(atom, comp.Group):
        return _GROUP_TRACKER_COST + sum(
            _analytic_cost(child) for child in atom.children
        )
    if isinstance(atom, comp.RegexPredicate):
        return _REGEX_COST
    if isinstance(atom, (comp.And, comp.Or)):
        return 2.0 + sum(
            _analytic_cost(child) for child in atom.children
        )
    return 256.0


def cost_seed(atom: comp.RawFilter) -> float:
    """Relative evaluation cost of one atom, per the LUT cost model.

    Mirrors :mod:`repro.core.cost` analytically and never reads its
    synthesised counts, so the step order does not depend on which
    atoms a design-space sweep happened to cost earlier in the
    process; triggering circuit synthesis (~0.1s per atom) from the
    serial hot path would dwarf the sweeps the ordering exists to
    save.
    """
    return max(_analytic_cost(atom), 1.0)


# ---------------------------------------------------------------------------
# evaluation plans
# ---------------------------------------------------------------------------

class KernelStep:
    """One step of a fused kernel's evaluation plan.

    ``kind`` is one of:

    * ``"exact"`` — a mandatory top-level conjunct (AND plans);
    * ``"prefilter"`` — an optional necessary condition derived from a
      structural group's children, run early to shrink the active set;
    * ``"disjunct"`` — a mandatory child of a top-level OR plan,
      evaluated over the records no earlier disjunct accepted.
    """

    __slots__ = ("index", "atom", "kind", "conjunct")

    def __init__(
        self, index: int, atom: comp.RawFilter, kind: str, conjunct: int
    ) -> None:
        self.index = index
        self.atom = atom
        self.kind = kind
        self.conjunct = conjunct

    def __repr__(self) -> str:
        return (
            f"KernelStep(#{self.index} {self.kind} "
            f"{self.atom.notation()})"
        )


class KernelPlan:
    """The decomposition of one expression into orderable steps."""

    __slots__ = ("expr", "mode", "steps")

    def __init__(
        self,
        expr: comp.RawFilter,
        mode: str,
        steps: Iterable[KernelStep],
    ) -> None:
        self.expr = expr
        self.mode = mode  # "and" | "or"
        self.steps = tuple(steps)

    def __repr__(self) -> str:
        return (
            f"KernelPlan({self.mode}, steps={len(self.steps)}: "
            f"{self.expr.notation()})"
        )


def _flatten_and(expr: comp.And) -> Iterator[comp.RawFilter]:
    for child in expr.children:
        if isinstance(child, comp.And):
            yield from _flatten_and(child)
        else:
            yield child


def build_plan(expr: comp.RawFilter) -> KernelPlan:
    """Decompose an expression into prefilter + exact kernel steps."""
    steps: list[KernelStep] = []
    if isinstance(expr, comp.Or):
        for position, child in enumerate(expr.children):
            steps.append(
                KernelStep(len(steps), child, "disjunct", position)
            )
        return KernelPlan(expr, "or", steps)
    if isinstance(expr, comp.And):
        conjuncts = list(_flatten_and(expr))
    else:
        conjuncts = [expr]
    seen = {conjunct.cache_key() for conjunct in conjuncts}
    for position, conjunct in enumerate(conjuncts):
        if not isinstance(conjunct, comp.Group):
            continue
        # a group fires only if every child fires somewhere in the
        # record: each child is a necessary record-level condition,
        # far cheaper than the structural machinery it guards
        for child in conjunct.children:
            key = child.cache_key()
            if key in seen:
                continue
            seen.add(key)
            steps.append(
                KernelStep(len(steps), child, "prefilter", position)
            )
    for position, conjunct in enumerate(conjuncts):
        steps.append(
            KernelStep(len(steps), conjunct, "exact", position)
        )
    return KernelPlan(expr, "and", steps)


#: process-wide registry of verified plans: gateway SWAPs and
#: design-space sweeps over recurring filters reuse them across engines
#: and workers
_KERNELS: OrderedDict[str, KernelPlan] = (  # guarded-by: _KERNELS_LOCK
    OrderedDict()
)
_KERNELS_LOCK = threading.Lock()


def kernel_for(expr: comp.RawFilter) -> tuple[KernelPlan, bool]:
    """``(plan, reused)`` for an expression, LRU-cached by fingerprint.

    A new plan is proven equivalent to ``expr`` before it is returned;
    a failure raises :class:`~repro.errors.KernelVerificationError`.
    """
    key = expr.cache_key()
    with _KERNELS_LOCK:
        plan = _KERNELS.get(key)
        if plan is not None:
            _KERNELS.move_to_end(key)
            return plan, True
    # imported on first compile: processes that never compile a plan
    # do not load the analysis package
    from ..analysis.kernel_verify import verify_plan

    plan = build_plan(expr)
    verify_plan(plan)
    with _KERNELS_LOCK:
        if key in _KERNELS:  # raced another thread; keep the winner
            return _KERNELS[key], True
        _KERNELS[key] = plan
        while len(_KERNELS) > KERNEL_CACHE_SIZE:
            _KERNELS.popitem(last=False)
    return plan, False


def compiled_kernel_count() -> int:
    with _KERNELS_LOCK:
        return len(_KERNELS)


def clear_kernels() -> None:
    """Drop all cached plans (tests / cold benchmarks)."""
    with _KERNELS_LOCK:
        _KERNELS.clear()


# ---------------------------------------------------------------------------
# per-batch execution state
# ---------------------------------------------------------------------------

def _gather(dataset: Dataset, indices: np.ndarray) -> Dataset:
    """Compact sub-batch of the selected (ascending) records."""
    selected = np.zeros(len(dataset), dtype=bool)
    selected[indices] = True
    stream = dataset.stream[np.repeat(selected, dataset.lengths)]
    newlines = np.cumsum(dataset.lengths[indices]) - 1
    return Dataset.from_buffer(
        "kernel-subbatch", stream, record_starts(newlines)
    )


class KernelState:
    """Mutable per-batch state threaded through one plan's pass."""

    __slots__ = ("dataset", "plan", "num_records", "active", "pending",
                 "result", "full", "view", "cache", "fingerprint",
                 "precomputed", "short_circuited")

    def __init__(self, dataset: Any, plan: KernelPlan) -> None:
        self.dataset = dataset
        self.plan = plan
        self.num_records = len(dataset)
        self.active = np.arange(self.num_records, dtype=np.int64)
        #: lazily applied rejections over ``active``: when a step
        #: rejects too few records to pay for a gather, the survivors
        #: are tracked here and the shared view is kept (see
        #: CompiledBackend.refine)
        self.pending: np.ndarray | None = None
        self.result = np.zeros(self.num_records, dtype=bool)
        self.full = True
        self.view: Any = None
        self.cache: dict[Any, Any] | None = None
        self.fingerprint: str | None = None
        self.precomputed: dict[int, np.ndarray] = {}
        #: record-scans later atoms were spared by earlier rejections
        self.short_circuited = 0

    @property
    def n_active(self) -> int:
        if self.pending is not None:
            return int(np.count_nonzero(self.pending))
        return int(self.active.shape[0])

    def invalidate(self) -> None:
        """The active set changed: sub-views are stale."""
        self.view = None
        self.cache = None
        self.full = self.active.shape[0] == self.num_records


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------

class CompiledBackend(Backend):
    """Fused-kernel evaluation of raw-filter expressions.

    :meth:`match_bits` runs the filter's verified :class:`KernelPlan`
    step by step in the order :meth:`order_for` picks, through
    :meth:`string_bits` / :meth:`atom_bits` and :meth:`refine` /
    :meth:`accumulate`; every plan was proven equivalent to its
    expression when it was compiled (see :func:`kernel_for`).
    """

    name = "compiled"
    #: streaming resolves the predicate to its expression once per
    #: stream for this backend (see FilterEngine._stream_target)
    wants_expression = True

    def __init__(
        self,
        atom_cache: Any = None,
        selectivity: SelectivityTracker | None = None,
    ) -> None:
        self.atom_cache = atom_cache
        #: shared tracker (attached by the owning engine); lazily
        #: created when the backend runs standalone
        self.selectivity = selectivity
        self.kernels_compiled = 0
        self.kernels_reused = 0
        self.atoms_short_circuited = 0
        self.fallbacks = 0
        self.fallback_reason: str | None = None
        self._fallback_warned = False

    # -- tracker ------------------------------------------------------------

    def tracker(self) -> SelectivityTracker:
        if self.selectivity is None:
            self.selectivity = SelectivityTracker()
        return self.selectivity

    # -- entry point --------------------------------------------------------

    def match_bits(self, predicate: Any, records: Any) -> np.ndarray:
        expr = resolve_expression(predicate)
        if expr is None:
            return self._fallback(predicate, records)
        dataset = as_dataset(records)
        if len(dataset) == 0:
            return np.zeros(0, dtype=bool)
        plan, reused = kernel_for(expr)
        if reused:
            self.kernels_reused += 1
        else:
            self.kernels_compiled += 1
        state = KernelState(dataset, plan)
        if self.atom_cache is not None:
            state.fingerprint = dataset_fingerprint(dataset)
            # whole-expression mask first — repeated corpora (warm
            # gateway tenants, re-streamed chunks) skip the kernel
            # entirely
            cached = self.atom_cache.lookup(
                state.fingerprint, expr.cache_key()
            )
            if cached is not None:
                return np.array(cached, dtype=bool)
            self._probe_cache(state)
        self._seed_selectivity(state)
        order = self.order_for(plan)
        apply = self.accumulate if plan.mode == "or" else self.refine
        for position, index in enumerate(order):
            if state.n_active == 0:
                # the rest of the order never scans
                state.short_circuited += (
                    (len(order) - position) * state.num_records
                )
                break
            step = plan.steps[index]
            step_bits = state.precomputed.get(index)
            if step_bits is not None:
                if not state.full:
                    step_bits = step_bits[state.active]
            elif isinstance(step.atom, comp.StringPredicate):
                # direct matcher sweep; a full-batch mask is cached
                step_bits = self.string_bits(
                    state, step.atom.needle, step.atom.block
                )
                if state.full and state.fingerprint is not None:
                    self.atom_cache.put(
                        state.fingerprint, step.atom.cache_key(),
                        step_bits,
                    )
            else:
                step_bits = self.atom_bits(state, step.atom)
            apply(state, step_bits, index)
        bits = self.finish(state)
        self.atoms_short_circuited += state.short_circuited
        if self.atom_cache is not None and state.fingerprint is not None:
            # the finished result is always a full-batch mask; caching
            # it under the root key makes the next evaluation of this
            # (filter, corpus) pair a single lookup
            self.atom_cache.put(
                state.fingerprint, expr.cache_key(), bits
            )
            return np.array(bits, dtype=bool)
        return bits

    def _fallback(self, predicate: Any, records: Any) -> np.ndarray:
        """Run the predicate's own ``match_array``, or the scalar loop.

        Only the scalar loop warns: a ``match_array`` is the
        predicate's own exact dataset-level evaluation, no degradation.
        """
        match_array = getattr(predicate, "match_array", None)
        how = "its match_array" if callable(match_array) else (
            "the scalar loop"
        )
        reason = (
            f"predicate {predicate!r} has no raw-filter expression "
            f"form (as_raw_filter); evaluated via {how}"
        )
        self.fallbacks += 1
        self.fallback_reason = reason
        if callable(match_array):
            return np.asarray(match_array(as_dataset(records)), dtype=bool)
        if not self._fallback_warned:
            self._fallback_warned = True
            warnings.warn(
                "compiled backend: " + reason +
                " (see engine.stats()['compiled_fallback'])",
                RuntimeWarning,
                stacklevel=3,
            )
        return ScalarBackend().match_bits(predicate, records)

    # -- ordering -----------------------------------------------------------

    def _seed_selectivity(self, state: KernelState) -> None:
        """Sample the head of the batch for atoms never observed.

        A plan with one step has nothing to order.  Otherwise the step
        atoms with no observed pass rate are evaluated over the longest
        head run of whole records within :data:`SAMPLE_BYTES`, which
        replaces the uniform prior with measured rates at a cost bounded
        by the budget, however large the batch or its records.  When the
        first record alone exceeds the budget, the prior stands.
        """
        if len(state.plan.steps) < 2:
            return
        tracker = self.tracker()
        atoms = [
            step.atom for step in state.plan.steps
            if tracker.rate(step.atom) is None
        ]
        if not atoms:
            return
        dataset = state.dataset
        ends = np.append(dataset.starts[1:], dataset.total_bytes)
        count = int(np.searchsorted(ends, SAMPLE_BYTES, side="right"))
        if count == 0:
            return
        view = harness.DatasetView(dataset.slice(0, count))
        cache: dict[Any, Any] = {}
        for atom in atoms:
            bits = harness.evaluate_atom(view, atom, cache)
            tracker.observe(atom, count, int(np.count_nonzero(bits)))

    def order_for(self, plan: KernelPlan) -> list[int]:
        """Step order for one batch: rejection (or acceptance) per cost.

        AND plans greedily run the step with the highest expected
        ``(1 - pass_rate) / cost`` first — the classic selectivity
        ordering; OR plans run the highest ``pass_rate / cost`` first
        so accepted records skip the remaining disjuncts.  Optional
        prefilters observed to reject almost nothing are dropped, as is
        any prefilter ordered after its own conjunct's exact step.
        """
        tracker = self.tracker()
        scored = []
        for step in plan.steps:
            rate = tracker.rate(step.atom, DEFAULT_SELECTIVITY)
            assert rate is not None
            if (step.kind == "prefilter"
                    and rate >= PREFILTER_DROP_SELECTIVITY):
                continue
            gain = rate if plan.mode == "or" else 1.0 - rate
            scored.append((-gain / cost_seed(step.atom), step.index))
        scored.sort()
        order = []
        exact_done = set()
        for _, index in scored:
            step = plan.steps[index]
            if (step.kind == "prefilter"
                    and step.conjunct in exact_done):
                continue  # its group already ran; nothing left to save
            if step.kind == "exact":
                exact_done.add(step.conjunct)
            order.append(index)
        return order

    # -- plan steps ---------------------------------------------------------

    def _probe_cache(self, state: KernelState) -> None:
        """Feed cached atom masks into the pass as precomputed inputs."""
        for step in state.plan.steps:
            bits = self.atom_cache.lookup(
                state.fingerprint, step.atom.cache_key()
            )
            if bits is not None:
                state.precomputed[step.index] = bits

    def _ensure_view(self, state: KernelState) -> None:
        if state.view is not None:
            return
        if state.full:
            if self.atom_cache is not None:
                state.view = self.atom_cache.view_for(state.dataset)
                state.cache = self.atom_cache.evaluation_cache(
                    state.dataset
                )
            else:
                state.view = harness.DatasetView(state.dataset)
                state.cache = {}
        else:
            state.view = harness.DatasetView(
                _gather(state.dataset, state.active)
            )
            state.cache = {}

    def string_bits(
        self, state: KernelState, needle: Any, block: int
    ) -> np.ndarray:
        """Direct string-matcher sweep over the surviving sub-stream."""
        from ..core.string_match import record_match_array

        self._ensure_view(state)
        return record_match_array(
            state.view.stream, state.view.starts, needle, block
        )

    def atom_bits(
        self, state: KernelState, atom: comp.RawFilter
    ) -> np.ndarray:
        """Harness evaluation of one atom over the surviving records.

        Full-batch evaluations with an :class:`AtomCache` attached run
        through the shared evaluation cache, so masks and sub-results
        (fire positions, token accepts) are stored for later passes and
        design-space queries; sub-batch evaluations share a
        state-local cache (token columns, structure) between the steps
        of the same active set.
        """
        self._ensure_view(state)
        return harness.evaluate_atom(state.view, atom, state.cache)

    def refine(self, state: KernelState, bits: Any, index: int) -> None:
        """AND-plan step result: shrink the active set (maybe lazily).

        Gathering survivors into a compact sub-stream and rebuilding
        the token/structural views only pays when a step rejected a
        meaningful fraction of the records it scanned.  Below that
        threshold the rejections are folded into a pending mask and
        the shared view is kept — on weakly selective filters the
        kernel thereby degrades gracefully to the harness's shape
        (every atom over one shared view) instead of paying gather
        overhead for nothing.
        """
        bits = np.asarray(bits, dtype=bool)
        step = state.plan.steps[index]
        evaluated = int(bits.shape[0])
        passed = int(np.count_nonzero(bits))
        self.tracker().observe(step.atom, evaluated, passed)
        state.short_circuited += state.num_records - evaluated
        survivors = bits if state.pending is None else (
            bits & state.pending
        )
        surviving = int(np.count_nonzero(survivors))
        if surviving < SHRINK_THRESHOLD * evaluated:
            if surviving != evaluated:
                state.active = state.active[survivors]
                state.invalidate()
            state.pending = None
        else:
            state.pending = survivors

    def accumulate(
        self, state: KernelState, bits: Any, index: int
    ) -> None:
        """OR-plan step result: accept, and mask accepted records out.

        Mirrors :meth:`refine`'s lazy shrink: already-accepted records
        are only gathered out of later disjuncts' scans once enough of
        them have accumulated to pay for the gather.
        """
        bits = np.asarray(bits, dtype=bool)
        step = state.plan.steps[index]
        evaluated = int(bits.shape[0])
        passed = int(np.count_nonzero(bits))
        self.tracker().observe(step.atom, evaluated, passed)
        state.short_circuited += state.num_records - evaluated
        fresh = bits if state.pending is None else (
            bits & state.pending
        )
        if fresh.any():
            state.result[state.active[fresh]] = True
        remaining = ~bits if state.pending is None else (
            state.pending & ~bits
        )
        surviving = int(np.count_nonzero(remaining))
        if surviving < SHRINK_THRESHOLD * evaluated:
            if surviving != evaluated:
                state.active = state.active[remaining]
                state.invalidate()
            state.pending = None
        else:
            state.pending = remaining

    def finish(self, state: KernelState) -> np.ndarray:
        if state.plan.mode == "and":
            accepted = state.active if state.pending is None else (
                state.active[state.pending]
            )
            result = np.zeros(state.num_records, dtype=bool)
            result[accepted] = True
            state.result = result
        return state.result

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "kernels_compiled": self.kernels_compiled,
            "kernels_reused": self.kernels_reused,
            "kernel_cache_size": compiled_kernel_count(),
            "atoms_short_circuited": self.atoms_short_circuited,
            "fallbacks": self.fallbacks,
            "fallback_reason": self.fallback_reason,
        }

    def __repr__(self) -> str:
        return (
            f"CompiledBackend(compiled={self.kernels_compiled}, "
            f"reused={self.kernels_reused})"
        )
