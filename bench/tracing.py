"""Outside-in stage tracing: spans around the program's public callables.

The benchmark measures the program without changing it, so per-layer
numbers come from wrapping the callables each layer exposes, from the
benchmark's own files.  :data:`HOOKS` is the one table of those
callables, by dotted name.  :class:`Hooks` patches each one with a
timing wrapper; a target that no longer exists (a later refactor
renamed or removed it) is reported in ``unhooked`` and skipped, so the
end-to-end run never depends on the table being current.

Spans are aggregated in memory per name rather than kept one by one:
total (inclusive) seconds, self seconds (the span minus the spans
nested in it on the same thread), calls, and an optional work count.
Each thread keeps its own stack and table, so the gateway's executor
threads never contend on a lock while they evaluate; :meth:`Tracer.rows`
merges them.  Coroutine spans (``"async"``) measure wall time across
``await`` points, while other tasks run on the same thread, so they
stay out of the stack and count as waiting, not as attributed work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time

_clock = time.perf_counter


def _result_len(args, value):
    return len(value)


def _bits_len(args, value):
    # CompiledBackend.refine/accumulate(self, state, bits, index): the
    # records one kernel step scanned
    return len(args[2])


def _kernel_scans(args, value):
    # CompiledBackend.finish(self, state): the records x steps one
    # kernel run would scan without short-circuiting
    state = args[1]
    return len(state.plan.steps) * state.num_records


def _force_layout(args, dataset):
    """Build a batch's byte stream and offsets inside the batch span.

    ``Dataset.stream``/``starts`` are lazy properties, first read a few
    calls later by the kernel; timing the property getters themselves
    costs more than the work on the replay workload, so the batch span
    builds them once up front instead.  The total work is unchanged.
    Counts one batch.
    """
    dataset.stream  # noqa: B018 - built for its side effect
    dataset.starts  # noqa: B018
    return 1


#: (span name, target "module:attribute.path", kind, count).  ``count``
#: runs inside the span on the call's arguments and its result (or, for
#: "gen", each yielded item) and returns the work done: bytes read,
#: records framed, batches built, records scanned.  Kinds: "call",
#: "gen" (each next() of the returned generator is one span), "async"
#: (a coroutine: waiting time), "property" (a property's getter).
HOOKS = (
    ("sources.read", "repro.engine.sources:ChunkSource.__iter__",
     "gen", _result_len),
    ("framing.push", "repro.engine.framing:RecordFramer.push",
     "call", _result_len),
    ("framing.push", "repro.engine.framing:RecordFramer.flush",
     "call", _result_len),
    ("batch.build", "repro.engine.compiled:as_dataset",
     "call", _force_layout),
    ("atom_cache.fingerprint",
     "repro.engine.compiled:dataset_fingerprint", "call", None),
    ("atom_cache.lookup", "repro.engine.atom_cache:AtomCache.lookup",
     "call", None),
    ("atom_cache.put", "repro.engine.atom_cache:AtomCache.put",
     "call", None),
    ("atom_cache.merge",
     "repro.engine.atom_cache:AtomCache.merge_snapshot", "call", None),
    ("compiled.match_bits",
     "repro.engine.compiled:CompiledBackend.match_bits",
     "call", _result_len),
    ("compiled.kernel_compile", "repro.engine.compiled:kernel_for",
     "call", None),
    ("compiled.atom_bits",
     "repro.engine.compiled:CompiledBackend.atom_bits", "call", None),
    ("compiled.string_bits",
     "repro.engine.compiled:CompiledBackend.string_bits", "call", None),
    ("compiled.refine", "repro.engine.compiled:CompiledBackend.refine",
     "call", _bits_len),
    ("compiled.refine",
     "repro.engine.compiled:CompiledBackend.accumulate",
     "call", _bits_len),
    ("compiled.finish", "repro.engine.compiled:CompiledBackend.finish",
     "call", _kernel_scans),
    ("harness.tokens", "repro.eval.harness:DatasetView._build_tokens",
     "call", None),
    ("harness.structure", "repro.eval.harness:DatasetView.structure",
     "property", None),
    ("number_filter.token_accepts",
     "repro.eval.harness:batch_token_accepts", "call", None),
    ("string_match.record_match",
     "repro.core.string_match:record_match_array", "call", None),
    ("string_match.fire", "repro.core.string_match:fire_array",
     "call", None),
    ("transport.sync",
     "repro.engine.transport:ResidentWorkerPool.sync_cache",
     "call", None),
    ("transport.submit",
     "repro.engine.transport:_ResidentSession.submit", "call", None),
    ("transport.wait", "repro.engine.transport:_ResidentSession.drain",
     "call", None),
    ("engine", "repro.engine.engine:FilterEngine.stream", "gen", None),
    ("engine", "repro.engine.engine:FilterEngine.match_bits",
     "call", None),
    ("serve.evaluate", "repro.serve.server:_evaluate_batch",
     "call", None),
    ("serve.engine_wait", "repro.serve.server:EnginePool.acquire",
     "async", None),
    ("serve.encode_result", "repro.serve.protocol:encode_result",
     "call", None),
)


class Tracer:
    """Thread-safe span aggregation (see the module docstring)."""

    def __init__(self):
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []  # guarded-by: _lock
        self._waits = set()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    @staticmethod
    def _record(table, name, elapsed, child, count, calls=1):
        row = table.get(name)
        if row is None:
            row = table[name] = [0.0, 0.0, 0, 0]
        row[0] += elapsed
        row[1] += elapsed - child
        row[2] += calls
        row[3] += count

    def _enter(self):
        stack, table = self._state()
        stack.append(0.0)
        return stack, table, _clock()

    @staticmethod
    def _leave(stack, start):
        """Pop a span; returns (elapsed, time covered by its children)."""
        elapsed = _clock() - start
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        return elapsed, child

    @contextlib.contextmanager
    def span(self, name):
        """Time a block of the benchmark's own code as a span."""
        if not self.enabled:
            yield
            return
        stack, table, start = self._enter()
        try:
            yield
        finally:
            elapsed, child = self._leave(stack, start)
            self._record(table, name, elapsed, child, 0)

    def wrap_call(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, table, start = tracer._enter()
            work = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    work = count(args, result)
                return result
            finally:
                elapsed, child = tracer._leave(stack, start)
                tracer._record(table, name, elapsed, child, work)

        return traced

    def wrap_gen(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    if not tracer.enabled:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        yield item
                        continue
                    stack, table, start = tracer._enter()
                    work, calls = 0, 1
                    try:
                        item = next(inner)
                        if count is not None:
                            work = count(args, item)
                    except StopIteration:
                        calls = 0  # the exhausting call yields no item
                    finally:
                        elapsed, child = tracer._leave(stack, start)
                        tracer._record(
                            table, name, elapsed, child, work, calls
                        )
                    if not calls:
                        return
                    yield item
            finally:
                inner.close()

        return traced

    def wrap_async(self, name, fn):
        tracer = self
        self._waits.add(name)

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                _, table = tracer._state()
                tracer._record(table, name, elapsed, 0.0, 0)

        return traced

    def rows(self):
        """``{name: {"total_s", "self_s", "calls", "count"}}`` merged
        over threads."""
        merged = {}
        with self._lock:
            tables = [dict(table) for table in self._tables]
        for table in tables:
            for name, (total, own, calls, count) in table.items():
                row = merged.setdefault(
                    name,
                    {"total_s": 0.0, "self_s": 0.0, "calls": 0,
                     "count": 0},
                )
                row["total_s"] += total
                row["self_s"] += own
                row["calls"] += calls
                row["count"] += count
        return merged

    def attributed_seconds(self):
        """Self time summed over every span that is not waiting."""
        return sum(
            row["self_s"] for name, row in self.rows().items()
            if name not in self._waits
        )


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


class Hooks:
    """Install the span wrappers; :meth:`remove` restores the originals."""

    def __init__(self, tracer, table=HOOKS):
        self.unhooked = []
        self._patched = []
        for name, target, kind, count in table:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.unhooked.append(target)
                continue
            if kind == "gen":
                wrapped = tracer.wrap_gen(name, original, count)
            elif kind == "async":
                wrapped = tracer.wrap_async(name, original)
            elif kind == "property":
                wrapped = property(
                    tracer.wrap_call(name, original.fget, count)
                )
            else:
                wrapped = tracer.wrap_call(name, original, count)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
