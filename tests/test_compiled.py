"""Tests for the compiled fused-kernel backend.

The contract under test: ``backend="compiled"`` is bit-identical to the
scalar reference oracle (and to the harness's full-batch evaluation) on
every expression shape it specialises — including the short-circuit
path, precomputed AtomCache inputs, worker transports and seam-fuzzed
chunk streaming — and degrades loudly but correctly on predicates it
cannot specialise.
"""

import random
import time
import tracemalloc
import warnings

import pytest

import repro.core.composition as comp
from repro.cli import parse_filter_expression
from repro.data import Dataset, load_dataset
from repro.engine import (
    AtomCache,
    CompiledBackend,
    EngineConfig,
    FilterEngine,
    SelectivityTracker,
    clear_kernels,
    resolve_backend,
)
from repro.engine.compiled import (
    SAMPLE_BYTES,
    KernelState,
    build_plan,
    cost_seed,
    kernel_for,
)
from repro.eval.harness import (
    DatasetView,
    evaluate_atom,
    evaluate_expression,
)


def qs1_style_filter():
    return comp.And([
        comp.group(comp.s("temperature", 1), comp.v("-12.5", "43.1")),
        comp.group(comp.s("light", 1), comp.v("1345", "26282")),
    ])


@pytest.fixture(scope="module")
def corpus():
    return load_dataset("smartcity", 300, seed=11)


# ---------------------------------------------------------------------------
# selectivity tracking
# ---------------------------------------------------------------------------

class TestSelectivityTracker:
    def test_rates_accumulate_across_observations(self):
        tracker = SelectivityTracker()
        atom = comp.s("temperature", 1)
        assert tracker.rate(atom) is None
        assert tracker.rate(atom, 0.5) == 0.5
        tracker.observe(atom, 100, 25)
        tracker.observe(atom, 100, 35)
        assert tracker.rate(atom) == pytest.approx(0.3)

    def test_snapshot_sorted_most_selective_first(self):
        tracker = SelectivityTracker()
        tracker.observe(comp.s("aa", 1), 100, 90)
        tracker.observe(comp.s("bb", 1), 100, 10)
        rows = list(tracker.snapshot().items())
        assert rows[0][0] == 's1("bb")'
        assert rows[0][1]["selectivity"] == pytest.approx(0.1)
        assert rows[1][1]["passed"] == 90

    def test_zero_evaluated_ignored(self):
        tracker = SelectivityTracker()
        tracker.observe(comp.s("aa", 1), 0, 0)
        assert tracker.snapshot() == {}


# ---------------------------------------------------------------------------
# plans and the plan registry
# ---------------------------------------------------------------------------

class TestKernelPlan:
    def test_group_children_become_prefilters(self):
        plan = build_plan(qs1_style_filter())
        kinds = [(step.kind, step.atom.notation()) for step in plan.steps]
        assert plan.mode == "and"
        # 4 record-level prefilters (2 groups x 2 children) + 2 exact
        assert [kind for kind, _ in kinds].count("prefilter") == 4
        assert [kind for kind, _ in kinds].count("exact") == 2
        prefilter_notations = {n for k, n in kinds if k == "prefilter"}
        assert 's1("temperature")' in prefilter_notations
        assert "v(1345 <= f <= 26282)" in prefilter_notations

    def test_duplicate_children_deduplicated(self):
        shared = comp.s("light", 1)
        expr = comp.And([
            comp.group(shared, comp.v("1", "2")),
            comp.group(shared, comp.v("3", "4")),
        ])
        plan = build_plan(expr)
        notations = [
            step.atom.notation()
            for step in plan.steps if step.kind == "prefilter"
        ]
        assert notations.count('s1("light")') == 1

    def test_nested_and_flattened(self):
        expr = comp.And([
            comp.s("a", 1),
            comp.And([comp.s("b", 1), comp.s("c", 1)]),
        ])
        plan = build_plan(expr)
        assert [s.atom.notation() for s in plan.steps] == [
            's1("a")', 's1("b")', 's1("c")',
        ]
        assert all(step.kind == "exact" for step in plan.steps)

    def test_or_plan_has_disjunct_steps_only(self):
        expr = comp.Or([comp.s("a", 1), comp.s("b", 1)])
        plan = build_plan(expr)
        assert plan.mode == "or"
        assert [step.kind for step in plan.steps] == [
            "disjunct", "disjunct",
        ]

    def test_single_primitive_plan(self):
        plan = build_plan(comp.v("1", "2"))
        assert len(plan.steps) == 1
        assert plan.steps[0].kind == "exact"


class TestCodegen:
    def test_registry_reuses_by_fingerprint(self):
        clear_kernels()
        first, reused_first = kernel_for(qs1_style_filter())
        second, reused_second = kernel_for(qs1_style_filter())
        assert not reused_first
        assert reused_second
        assert second is first

    def test_cost_seed_ranks_strings_below_groups(self):
        string_cost = cost_seed(comp.s("light", 1))
        group_cost = cost_seed(
            comp.group(comp.s("light", 1), comp.v("1345", "26282"))
        )
        assert 0 < string_cost < group_cost

    def test_cost_seed_ignores_synthesised_luts(self):
        """A design-space sweep costing an atom first must not change
        its seed: the order depends on the filter, not on history."""
        from repro.core.cost import atom_luts

        number = comp.v("2.5", "17.25")
        group = comp.group(comp.s("humidity", 1), comp.v("3.5", "61.5"))
        for atom in (number, group):
            atom_luts(atom)
        assert cost_seed(number) == 72.0
        assert cost_seed(group) == 36.0 + (4.0 + 8.0) + 72.0


class TestOrdering:
    def test_selective_atom_ordered_first(self):
        backend = CompiledBackend()
        expr = comp.And([comp.s("rare", 1), comp.s("common", 1)])
        plan = build_plan(expr)
        backend.tracker().observe(comp.s("rare", 1), 100, 2)
        backend.tracker().observe(comp.s("common", 1), 100, 98)
        order = backend.order_for(plan)
        first = plan.steps[order[0]]
        assert first.atom.notation() == 's1("rare")'

    def test_useless_prefilters_dropped(self):
        backend = CompiledBackend()
        plan = build_plan(qs1_style_filter())
        for step in plan.steps:
            # every prefilter observed to pass ~everything
            passed = 99 if step.kind == "prefilter" else 50
            backend.tracker().observe(step.atom, 100, passed)
        order = backend.order_for(plan)
        kinds = [plan.steps[i].kind for i in order]
        assert "prefilter" not in kinds
        assert kinds.count("exact") == 2


# ---------------------------------------------------------------------------
# differential: compiled vs the harness vs the scalar oracle
# ---------------------------------------------------------------------------

NEEDLE_POOL = ["temperature", "humidity", "taxi", '"n"', "29", "e", "al"]


def random_primitive(rng, for_group=False):
    if rng.random() < 0.5:
        needle = rng.choice(NEEDLE_POOL)
        blocks = [1, min(2, len(needle)), len(needle)]
        if not for_group:
            blocks.append("N")
        return comp.s(needle, rng.choice(blocks))
    kind = rng.choice(["int", "float"])
    lo = rng.randint(0, 40)
    hi = lo + rng.randint(0, 60)
    if kind == "float":
        return comp.v(f"{lo}.{rng.randint(0, 9)}", f"{hi}.9")
    return comp.v_int(lo, hi)


def random_expression(rng, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.3:
        return random_primitive(rng)
    if roll < 0.5:
        children = [
            random_primitive(rng, for_group=True)
            for _ in range(rng.randint(1, 3))
        ]
        return comp.Group(children, comma_scoped=rng.random() < 0.3)
    combinator = comp.And if roll < 0.8 else comp.Or
    children = [
        random_expression(rng, depth + 1)
        for _ in range(rng.randint(2, 3))
    ]
    return combinator(children)


class TestDifferential:
    @pytest.mark.parametrize("dataset_name", ["smartcity", "taxi"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_compiled_equals_oracle_on_random_expressions(
        self, dataset_name, seed
    ):
        """Randomised FilterExpr trees: compiled == the harness's
        full-batch evaluation == scalar, bit for bit."""
        rng = random.Random(seed)
        dataset = load_dataset(dataset_name, 150, seed=2000 + seed)
        engine = FilterEngine(backend="compiled")
        for _ in range(8):
            expr = random_expression(rng)
            fused = engine.match_bits(expr, dataset)
            vec = evaluate_expression(DatasetView(dataset), expr, {})
            oracle = engine.match_bits(expr, dataset, backend="scalar")
            assert fused.dtype == bool and len(fused) == len(dataset)
            assert (fused == oracle).all(), expr.notation()
            assert (vec == oracle).all(), expr.notation()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seam_fuzzed_streaming_matches_batch(self, seed, corpus):
        """Random chunk boundaries must not change compiled results:
        streamed matches == whole-corpus oracle for fuzzed chunk
        sizes (records straddle every kind of seam)."""
        rng = random.Random(100 + seed)
        expr = random_expression(rng)
        oracle = FilterEngine().match_bits(
            expr, corpus, backend="scalar"
        ).tolist()
        data = corpus.stream.tobytes()
        for _ in range(3):
            chunk_bytes = rng.choice([17, 129, 1024, 8192])
            engine = FilterEngine(
                backend="compiled", chunk_bytes=chunk_bytes
            )
            streamed = []
            for batch in engine.stream(expr, data):
                streamed.extend(bool(m) for m in batch.matches)
            assert streamed == oracle, (
                f"chunk_bytes={chunk_bytes}: {expr.notation()}"
            )

    def test_short_circuit_path_exercised_and_identical(self, corpus):
        """A never-matching first conjunct empties the active set: the
        remaining steps are skipped yet the result stays exact."""
        expr = comp.And([
            comp.s("no-such-needle-anywhere", 1),
            comp.group(comp.s("temperature", 1), comp.v("-99", "99")),
        ])
        engine = FilterEngine(backend="compiled")
        bits = engine.match_bits(expr, corpus)
        oracle = engine.match_bits(expr, corpus, backend="scalar")
        assert (bits == oracle).all()
        assert not bits.any()
        compiled = engine.stats()["compiled"]
        assert compiled["atoms_short_circuited"] > 0

    def test_or_short_circuit_identical(self, corpus):
        """Accepted records skip later disjuncts without changing the
        union."""
        expr = comp.Or([
            comp.s("temperature", 1),
            comp.s("humidity", 1),
            comp.v_int(0, 10 ** 9),
        ])
        engine = FilterEngine(backend="compiled")
        bits = engine.match_bits(expr, corpus)
        oracle = engine.match_bits(expr, corpus, backend="scalar")
        assert (bits == oracle).all()
        assert engine.stats()["compiled"]["atoms_short_circuited"] > 0

    def test_regex_predicate_specialised(self, corpus):
        """Regex atoms run through the harness' per-record path inside
        the kernel; results still match the oracle."""
        expr = comp.And([
            comp.s("temperature", 1),
            comp.RegexPredicate(r'"u":"[A-Za-z]+"'),
        ])
        engine = FilterEngine(backend="compiled")
        bits = engine.match_bits(expr, corpus)
        oracle = engine.match_bits(expr, corpus, backend="scalar")
        assert (bits == oracle).all()

    def test_empty_batch_and_single_record(self):
        engine = FilterEngine(backend="compiled")
        expr = qs1_style_filter()
        assert engine.match_bits(expr, []).shape == (0,)
        record = (
            b'{"e":[{"v":"30.0","n":"temperature"},'
            b'{"v":"2000","n":"light"}]}'
        )
        bits = engine.match_bits(expr, [record])
        assert bits.tolist() == [
            engine.matches_record(expr, record)
        ]


# ---------------------------------------------------------------------------
# kernel reuse + engine integration
# ---------------------------------------------------------------------------

class TestEngineIntegration:
    def test_kernel_compiled_once_then_reused(self, corpus):
        clear_kernels()
        engine = FilterEngine(backend="compiled")
        expr = qs1_style_filter()
        engine.match_bits(expr, corpus)
        engine.match_bits(expr, corpus)
        compiled = engine.stats()["compiled"]
        assert compiled["kernels_compiled"] == 1
        assert compiled["kernels_reused"] == 1

    def test_kernels_shared_across_engines(self, corpus):
        """Gateway SWAP shape: a second engine reuses the first's
        compilation via the process-wide registry."""
        clear_kernels()
        expr = qs1_style_filter()
        FilterEngine(backend="compiled").match_bits(expr, corpus)
        second = FilterEngine(backend="compiled")
        second.match_bits(expr, corpus)
        compiled = second.stats()["compiled"]
        assert compiled["kernels_compiled"] == 0
        assert compiled["kernels_reused"] == 1

    def test_engine_stats_expose_selectivity(self, corpus):
        engine = FilterEngine(backend="compiled")
        engine.match_bits(qs1_style_filter(), corpus)
        table = engine.stats()["selectivity"]
        assert table, "expected observed selectivity rows"
        rates = [row["selectivity"] for row in table.values()]
        assert all(0.0 <= rate <= 1.0 for rate in rates)
        # sorted most selective first
        assert rates == sorted(rates)

    def test_engine_config_accepts_compiled(self):
        """``compiled`` is the default backend."""
        engine = FilterEngine(config=EngineConfig())
        assert engine.config.backend == "compiled"
        assert isinstance(engine.backend(), CompiledBackend)
        assert isinstance(
            resolve_backend("compiled"), CompiledBackend
        )

    def test_worker_transport_differential(self, corpus):
        """Workers recompile the kernel from the shipped expression;
        parallel streaming stays bit-identical to the oracle."""
        expr = qs1_style_filter()
        oracle = FilterEngine().match_bits(
            expr, corpus, backend="scalar"
        ).tolist()
        engine = FilterEngine(
            config=EngineConfig(
                backend="compiled",
                chunk_bytes=8 * 1024,
                num_workers=2,
            ),
            cache=True,
        )
        streamed = []
        for batch in engine.stream(expr, corpus.stream.tobytes()):
            streamed.extend(bool(m) for m in batch.matches)
        assert streamed == oracle
        assert engine.stats()["parallel_fallback"] is None


# ---------------------------------------------------------------------------
# AtomCache composition
# ---------------------------------------------------------------------------

class TestAtomCacheComposition:
    def test_cached_masks_feed_the_fused_pass(self, corpus):
        """Masks computed by a harness pass through the cache are
        consumed by the compiled kernel as precomputed inputs (cache
        hits, identical bits)."""
        engine = FilterEngine(cache=True)
        expr = qs1_style_filter()
        vec = engine.atom_cache.match_bits(expr, corpus)
        hits_before = engine.atom_cache.stats()["hits"]
        fused = engine.match_bits(expr, corpus, backend="compiled")
        hits_after = engine.atom_cache.stats()["hits"]
        assert (fused == vec).all()
        assert hits_after > hits_before

    def test_compiled_masks_warm_the_shared_cache(self, corpus):
        """Full-batch masks the kernel computes are inserted back, so a
        later harness pass over the same corpus starts warm."""
        engine = FilterEngine(backend="compiled", cache=True)
        expr = qs1_style_filter()
        engine.match_bits(expr, corpus)
        inserts = engine.atom_cache.stats()["inserts"]
        assert inserts > 0
        misses_before = engine.atom_cache.stats()["misses"]
        vec = engine.atom_cache.match_bits(expr, corpus)
        oracle = engine.match_bits(expr, corpus, backend="scalar")
        assert (vec == oracle).all()
        # the top-level expression itself is evaluated fresh, but the
        # kernel-computed full-batch atom masks must be served from
        # the cache rather than re-missed
        assert engine.atom_cache.stats()["hits"] > 0
        assert engine.atom_cache.stats()["misses"] >= misses_before

    def test_shared_cache_instance_across_backends(self, corpus):
        cache = AtomCache()
        engine = FilterEngine(backend="compiled", cache=cache)
        assert engine.backend().atom_cache is cache
        assert engine.backend(CompiledBackend()).atom_cache is cache


# ---------------------------------------------------------------------------
# fallback behaviour
# ---------------------------------------------------------------------------

class _MatchesOnly:
    """A predicate with no raw-filter form (scalar protocol only)."""

    def __init__(self, needle):
        self.needle = needle

    def matches(self, record):
        return self.needle in record


class TestFallback:
    def test_fallback_warns_once_and_stays_correct(self, corpus):
        engine = FilterEngine(backend="compiled")
        predicate = _MatchesOnly(b"temperature")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = engine.match_bits(predicate, corpus)
            second = engine.match_bits(predicate, corpus)
        ours = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "compiled backend" in str(w.message)
        ]
        assert len(ours) == 1, "fallback must warn exactly once"
        oracle = engine.match_bits(predicate, corpus, backend="scalar")
        assert (first == oracle).all()
        assert (second == oracle).all()

    def test_match_array_predicate_does_not_warn(self, corpus):
        """A predicate's own ``match_array`` is exact: only the scalar
        loop is a degradation worth a warning."""
        from repro.baselines import ExactFilter
        from repro.data import ALL_QUERIES

        query = ALL_QUERIES["QS1"]
        engine = FilterEngine(backend="compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits = engine.match_bits(ExactFilter(query), corpus)
        assert bits.tolist() == query.truth_array(corpus).tolist()
        assert "match_array" in engine.stats()["compiled_fallback"]
        # the same engine still warns, once, for the scalar loop
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.match_bits(_MatchesOnly(b"taxi"), corpus)
            engine.match_bits(_MatchesOnly(b"taxi"), corpus)
        assert len([
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]) == 1
        assert "scalar loop" in engine.stats()["compiled_fallback"]

    def test_fallback_reason_reported_in_stats(self, corpus):
        engine = FilterEngine(backend="compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            engine.match_bits(_MatchesOnly(b"taxi"), corpus)
        stats = engine.stats()
        assert stats["compiled_fallback"] is not None
        assert "as_raw_filter" in stats["compiled_fallback"]
        assert stats["compiled"]["fallbacks"] == 1

    def test_no_fallback_on_expressions(self, corpus):
        engine = FilterEngine(backend="compiled")
        engine.match_bits(qs1_style_filter(), corpus)
        assert engine.stats()["compiled_fallback"] is None


# ---------------------------------------------------------------------------
# cost bounded by the token bytes, not the longest token
# ---------------------------------------------------------------------------

QS1_EXPRESSION = (
    "and("
    "group(s:1:temperature,v:float:-12.5:43.1),"
    "group(s:1:humidity,v:float:10.7:95.2),"
    "group(s:1:light,v:float:1345:26282),"
    "group(s:1:dust,v:float:186.61:5188.21),"
    "group(s:1:airquality_raw,v:int:17:363)"
    ")"
)
#: time and traced-memory bounds for one pass over a long-token batch
LONG_TOKEN_SECONDS = 2.0
LONG_TOKEN_BYTES = 64 << 20


def timed_and_traced(run):
    """``(result, seconds, peak traced bytes)`` of ``run``, timed on a
    first call and traced on a second (tracing slows numpy down)."""
    start = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, seconds, peak


class TestLongTokens:
    def test_20000_digit_value_in_a_qs1_batch(self):
        """One huge number used to cost tokens x longest-token time and
        memory (42 s and 1.3 GB on a 2-vCPU host); now it costs its
        own bytes."""
        expr = parse_filter_expression(QS1_EXPRESSION)
        corpus = load_dataset("smartcity", 5000, seed=5)
        records = list(corpus.records)
        records[100] = records[100].replace(
            b'"v":"', b'"v":"' + b"1" * 20000, 1
        )
        backend = CompiledBackend()
        want = backend.match_bits(expr, corpus).tolist()  # warm plan
        want[100] = bool(FilterEngine(backend="scalar").match_bits(
            expr, [records[100]]
        )[0])
        batch = Dataset("long-token", records)
        bits, seconds, peak = timed_and_traced(
            lambda: backend.match_bits(expr, batch)
        )
        assert bits.tolist() == want
        assert seconds < LONG_TOKEN_SECONDS
        assert peak < LONG_TOKEN_BYTES

    def test_numeric_array_record(self):
        """A ~10 MB record holding 560k numbers: the token index and
        the number and group steps over it stay within the bounds."""
        rng = random.Random(1)
        numbers = [rng.uniform(-1e4, 1e4) for _ in range(560_000)]
        record = (
            b'{"e":[{"v":"20.5","n":"temperature"}],"a":['
            + b",".join(repr(x).encode() for x in numbers) + b"]}"
        )
        dataset = Dataset("numeric-array", [record])
        light = any(1345 <= x <= 26282 for x in numbers)
        both = light and any(-12.5 <= x <= 43.1 for x in numbers)
        for atom, want in (
            (comp.v("1345", "26282"), light),
            (comp.group(comp.v("-12.5", "43.1"),
                        comp.v("1345", "26282")), both),
        ):
            bits, seconds, peak = timed_and_traced(
                lambda: evaluate_atom(DatasetView(dataset), atom, {})
            )
            assert bits.tolist() == [want]
            assert seconds < LONG_TOKEN_SECONDS
            assert peak < LONG_TOKEN_BYTES


# ---------------------------------------------------------------------------
# the first batch's head sample is bounded by bytes
# ---------------------------------------------------------------------------

def seeded_counts(backend, expr, dataset):
    """``{notation: records evaluated}`` after seeding one batch."""
    plan, _ = kernel_for(expr)
    backend._seed_selectivity(KernelState(dataset, plan))
    return {
        notation: row["evaluated"]
        for notation, row in backend.tracker().snapshot().items()
    }


def one_huge_record(kind, size):
    """A QS1-rejected SmartCity record padded to ``size`` bytes with
    numbers or with short sensor-like objects."""
    rng = random.Random(7)
    parts, total = [], 0
    while total < size:
        if kind == "numeric":
            part = repr(rng.uniform(-1e4, 1e4)).encode()
        else:
            name = rng.choice([b"temperature", b"humidity", b"light",
                               b"dust", b"airquality_raw", b"tempo"])
            part = b'{"n":"' + name + b'","u":"' + name[:3] + b'"}'
        parts.append(part)
        total += len(part) + 1
    return (
        b'{"e":[{"v":"20.5","n":"temperature"}],"a":['
        + b",".join(parts) + b"]}"
    )


class TestHeadSample:
    def test_sample_is_the_head_run_within_the_byte_budget(self):
        dataset = load_dataset("smartcity", 1000, seed=3)
        ends = 0
        want = 0
        for record in dataset.records:
            ends += len(record) + 1
            if ends > SAMPLE_BYTES:
                break
            want += 1
        assert 0 < want < len(dataset)
        counts = seeded_counts(
            CompiledBackend(), qs1_style_filter(), dataset
        )
        steps = kernel_for(qs1_style_filter())[0].steps
        assert len(counts) == len(steps)
        assert set(counts.values()) == {want}

    def test_small_batch_is_sampled_whole(self, corpus):
        small = corpus.slice(0, 40)
        assert small.total_bytes <= SAMPLE_BYTES
        counts = seeded_counts(
            CompiledBackend(), qs1_style_filter(), small
        )
        assert set(counts.values()) == {40}

    def test_one_step_plan_is_not_sampled(self, corpus):
        backend = CompiledBackend()
        atom = comp.s("temperature", 1)
        assert seeded_counts(backend, atom, corpus) == {}
        backend.match_bits(atom, corpus)
        assert backend.tracker().snapshot()[atom.notation()][
            "evaluated"
        ] == len(corpus)

    def test_only_unobserved_atoms_are_sampled(self, corpus):
        backend = CompiledBackend()
        expr = qs1_style_filter()
        known = comp.s("temperature", 1)
        backend.tracker().observe(known, 7, 3)
        counts = seeded_counts(backend, expr, corpus)
        assert counts.pop(known.notation()) == 7
        assert counts and set(counts.values()) == {len(corpus)}
        # every step atom is observed now: the next batch samples none
        assert seeded_counts(backend, expr, corpus) == {
            known.notation(): 7, **counts
        }

    def test_record_over_the_budget_keeps_the_prior(self, corpus):
        big = b'{"n":"temperature","v":"' + b"7" * SAMPLE_BYTES + b'"}'
        dataset = Dataset("big-head", [big] + list(corpus.records))
        backend = CompiledBackend()
        assert seeded_counts(backend, qs1_style_filter(), dataset) == {}
        bits = backend.match_bits(qs1_style_filter(), dataset)
        oracle = resolve_backend("scalar").match_bits(
            qs1_style_filter(), dataset
        )
        assert (bits == oracle).all()

    @pytest.mark.parametrize("kind", ["numeric", "string"])
    def test_first_batch_memory_on_one_huge_record(self, kind):
        """A new plan's first batch over one 8 MB record used to run
        every step over the whole record to seed its order, at up to
        several times the traced peak of the warm batch."""
        expr = parse_filter_expression(QS1_EXPRESSION)
        batch = Dataset("huge", [one_huge_record(kind, 8 << 20)])
        oracle = resolve_backend("scalar").match_bits(expr, batch)
        engine = FilterEngine(backend="compiled")
        peaks = []
        for _ in range(2):  # the first batch, then a warm one
            tracemalloc.start()
            try:
                bits = engine.match_bits(expr, batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert bits.tolist() == oracle.tolist()
        first, warm = peaks
        assert first <= 1.25 * warm, (first, warm)
