"""Static analysis & verification (``repro.analysis``).

Covers the three passes end to end: the kernel verifier's truth-table
plan-equivalence proof (accepting every plan the real plan builder
emits, rejecting injected miscompiles), the annotation-driven
lock-discipline checker, the resource-lifecycle linter, the baseline
machinery, the ``repro lint`` CLI, and the verification ``kernel_for``
runs before a plan's first batch — including that the whole shipped
tree is finding-free with an empty baseline.
"""

import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.analysis.kernel_verify as kernel_verify
import repro.core.composition as comp
import repro.engine.compiled as compiled_module
from repro.analysis import (
    Finding,
    KernelVerificationError,
    filter_baselined,
    kernel_selfcheck,
    load_baseline,
    plan_violations,
    run_lint,
    save_baseline,
    verify_plan,
    verify_token_drop,
)
from repro.analysis import lifecycle, lockcheck
from repro.cli import main as cli_main
from repro.data import ALL_QUERIES, load_dataset
from repro.engine import FilterEngine, clear_kernels
from repro.engine.compiled import (
    CompiledBackend,
    KernelPlan,
    KernelStep,
    build_plan,
    kernel_for,
)
from repro.errors import ReproError
from repro.regex.dfa import DFA


def qs1_style_filter():
    return comp.And([
        comp.group(comp.s("temperature", 1), comp.v("-12.5", "43.1")),
        comp.group(comp.s("light", 1), comp.v("1345", "26282")),
    ])


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


# ---------------------------------------------------------------------------
# plan equivalence
# ---------------------------------------------------------------------------

class TestPlanEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_accepts_every_real_plan(self, seed):
        """Whatever the fuzzer builds, the builder's own plan verifies."""
        rng = random.Random(seed)
        for _ in range(12):
            plan = build_plan(random_expression(rng))
            assert plan_violations(plan) == [], plan.expr.notation()

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_rejects_swapped_exact_atom(self, seed):
        """AND plans with one conjunct silently replaced are refused."""
        rng = random.Random(100 + seed)
        corrupted = 0
        for _ in range(12):
            expr = random_expression(rng)
            plan = build_plan(expr)
            if plan.mode != "and":
                continue
            fresh = comp.s("zzz-corrupt", 1)
            steps = [
                KernelStep(s.index, fresh, s.kind, s.conjunct)
                if s.kind == "exact" and s.index == plan.steps[-1].index
                else s
                for s in plan.steps
            ]
            assert plan_violations(KernelPlan(expr, "and", steps)), (
                expr.notation()
            )
            corrupted += 1
        assert corrupted > 0

    def test_rejects_dropped_disjunct(self):
        expr = comp.Or([comp.s("xx", 1), comp.s("yy", 1)])
        plan = build_plan(expr)
        truncated = KernelPlan(expr, "or", plan.steps[:1])
        assert plan_violations(truncated)

    def test_rejects_inverted_short_circuit_kind(self):
        """AND steps relabelled as disjuncts (accumulate instead of
        refine — the inverted short-circuit) are refused."""
        expr = qs1_style_filter()
        flipped = [
            KernelStep(s.index, s.atom, "disjunct", s.conjunct)
            for s in build_plan(expr).steps
        ]
        assert plan_violations(KernelPlan(expr, "and", flipped))

    def test_rejects_non_necessary_prefilter(self):
        """A prefilter that can reject an accepted record is refused,
        even though the exact steps alone are still equivalent."""
        expr = qs1_style_filter()
        plan = build_plan(expr)
        steps = [
            KernelStep(s.index, comp.s("zzz-corrupt", 1), s.kind,
                       s.conjunct)
            if s.kind == "prefilter" and s.index == 0 else s
            for s in plan.steps
        ]
        violations = plan_violations(KernelPlan(expr, "and", steps))
        assert any("prefilter" in v for v in violations)

    def test_rejects_shuffled_step_indices(self):
        expr = qs1_style_filter()
        plan = build_plan(expr)
        steps = list(plan.steps)
        steps[0], steps[1] = steps[1], steps[0]
        assert plan_violations(KernelPlan(expr, "and", steps))

    def test_verify_plan_raises_typed_error(self):
        expr = comp.Or([comp.s("xx", 1), comp.s("yy", 1)])
        plan = build_plan(expr)
        with pytest.raises(KernelVerificationError):
            verify_plan(KernelPlan(expr, "or", plan.steps[:1]))


# ---------------------------------------------------------------------------
# the number-token index's digit-free-token drop
# ---------------------------------------------------------------------------

def predicate_accepting_e():
    """A number atom whose DFA also accepts the lone token ``e``."""
    atom = comp.v("1.25", "7.75")
    atom._filter.dfa = DFA.from_pattern("e|[0-9]+")
    return atom


class TestTokenDrop:
    @pytest.mark.parametrize("allow_exponent", [True, False])
    def test_every_query_range_passes(self, allow_exponent):
        ranges = {
            (str(c.lo), str(c.hi), c.kind)
            for query in ALL_QUERIES.values()
            for c in query.conditions
        }
        assert len(ranges) == 15
        for lo, hi, kind in ranges:
            atom = comp.NumberPredicate(
                lo, hi, kind, allow_exponent=allow_exponent
            )
            verify_token_drop(atom.dfa)

    def test_dfa_accepting_e_is_refused(self):
        dfa = DFA.from_pattern("e|[0-9]+")
        with pytest.raises(KernelVerificationError, match="b'e'"):
            verify_token_drop(dfa)
        # refused again: a failed proof is never cached
        with pytest.raises(KernelVerificationError):
            verify_token_drop(dfa)
        # a digit-free string longer than one byte is found too
        with pytest.raises(KernelVerificationError, match="b'-e'"):
            verify_token_drop(DFA.from_pattern("-e|[0-9]+"))

    def test_compiled_backend_refuses_such_a_dfa(self):
        expr = comp.group(comp.s("temperature", 1),
                          predicate_accepting_e())
        try:
            clear_kernels()
            with pytest.raises(KernelVerificationError):
                CompiledBackend().match_bits(expr, [b'{"t":"e"}'])
        finally:
            clear_kernels()

    def test_harness_refuses_such_a_dfa(self):
        """Paths that skip plans (design-space sweeps through
        ``evaluate_atoms``) get the typed error too, never silently
        wrong bits."""
        engine = FilterEngine()
        with pytest.raises(KernelVerificationError):
            engine.evaluate_atoms(
                [b'{"t":"e"}'], [predicate_accepting_e()]
            )


# ---------------------------------------------------------------------------
# memoisation + backend wiring
# ---------------------------------------------------------------------------

class TestVerifyWiring:
    def test_verification_memoised_by_fingerprint(self, monkeypatch):
        """A kernel_for hit reuses the verified plan: no re-verify."""
        calls = []

        def counting_verify(plan):
            calls.append(plan.expr.notation())
            verify_plan(plan)

        monkeypatch.setattr(kernel_verify, "verify_plan",
                            counting_verify)
        try:
            clear_kernels()
            first, reused = kernel_for(qs1_style_filter())
            assert not reused and len(calls) == 1
            again, reused = kernel_for(qs1_style_filter())
            assert reused and again is first
            assert len(calls) == 1
        finally:
            clear_kernels()

    def test_verification_runs_without_pytest(self):
        """Verification does not depend on the test runner: a plain
        interpreter hitting a miscompile gets the typed error too."""
        script = textwrap.dedent('''
            import sys
            import repro.engine.compiled as compiled
            from repro.core import s
            from repro.engine import FilterEngine
            from repro.errors import KernelVerificationError

            # miscompile: an AND plan run with OR short-circuiting
            build_plan = compiled.build_plan
            compiled.build_plan = lambda expr: compiled.KernelPlan(
                expr, "or", build_plan(expr).steps
            )
            assert "pytest" not in sys.modules
            try:
                FilterEngine().match_bits(s("temp", 1), [b'{"temp":1}'])
            except KernelVerificationError:
                print("refused")
        ''')
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "refused"

    def test_engine_config_verify_kernels_is_a_constant(self):
        from repro.engine import EngineConfig

        config = EngineConfig()
        assert config.verify_kernels is True
        assert "verify_kernels" not in repr(config)
        with pytest.raises(TypeError):
            EngineConfig(verify_kernels=False)

    def test_engine_rejects_conflicting_config(self):
        from repro.engine import EngineConfig

        with pytest.raises(ReproError, match="chunk_bytes"):
            FilterEngine(config=EngineConfig(), chunk_bytes=4096)

    def test_miscompiled_plan_raises_through_backend(self, monkeypatch):
        """A codegen bug (wrong plan) surfaces as a typed error at
        evaluation time instead of wrong bits."""
        real_build_plan = compiled_module.build_plan

        def corrupt_build_plan(expr):
            plan = real_build_plan(expr)
            steps = [
                KernelStep(s.index, comp.s("zzz-corrupt", 1), s.kind,
                           s.conjunct)
                if s.kind == "exact" else s
                for s in plan.steps
            ]
            return KernelPlan(plan.expr, plan.mode, steps)

        dataset = load_dataset("smartcity", 100, seed=5)
        try:
            monkeypatch.setattr(
                compiled_module, "build_plan", corrupt_build_plan
            )
            clear_kernels()
            with pytest.raises(KernelVerificationError):
                CompiledBackend().match_bits(qs1_style_filter(), dataset)
        finally:
            clear_kernels()


# ---------------------------------------------------------------------------
# lock-discipline checker
# ---------------------------------------------------------------------------

LOCK_FIXTURE = textwrap.dedent('''
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self._entries = {}  # guarded-by: _lock
            self.hits = 0  # guarded-by: _lock

        def good(self):
            with self._lock:
                self.hits += 1
                return len(self._entries)

        def bad(self):
            return len(self._entries)

        def justified(self):
            return len(self._entries)  # unlocked-ok: test fixture

        def _helper(self):  # holds-lock: _lock
            return len(self._entries)

        def escaping_closure(self):
            with self._lock:
                def inner():
                    return self._entries
                return inner
''')

GLOBAL_FIXTURE = textwrap.dedent('''
    import threading
    from collections import OrderedDict

    _LOCK = threading.Lock()
    _REGISTRY: OrderedDict = OrderedDict()  # guarded-by: _LOCK

    def good():
        with _LOCK:
            return len(_REGISTRY)

    def bad():
        return len(_REGISTRY)
''')


class TestLockcheck:
    def test_annotated_class_attrs(self):
        findings = lockcheck.check_source(LOCK_FIXTURE, "fixture.py")
        symbols = sorted(f.symbol for f in findings)
        assert symbols == ["Cache.bad", "Cache.escaping_closure"]
        assert all(f.rule == "lock-discipline" for f in findings)
        assert "self._entries" in findings[0].message

    def test_init_is_exempt(self):
        findings = lockcheck.check_source(LOCK_FIXTURE, "fixture.py")
        assert not any("__init__" in f.symbol for f in findings)

    def test_annotated_module_globals(self):
        findings = lockcheck.check_source(GLOBAL_FIXTURE, "globals.py")
        assert [f.symbol for f in findings] == ["bad"]
        assert "_REGISTRY" in findings[0].message

    def test_unannotated_source_is_silent(self):
        source = "class C:\n    def f(self):\n        return self.x\n"
        assert lockcheck.check_source(source, "plain.py") == []

    def test_syntax_error_is_one_finding(self):
        findings = lockcheck.check_source("def broken(:\n", "bad.py")
        assert len(findings) == 1
        assert "does not parse" in findings[0].message


# ---------------------------------------------------------------------------
# lifecycle linter
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_unclosed_source_flagged(self):
        source = textwrap.dedent('''
            def leak(path):
                src = FileSource(path)
                data = src.read_chunk()
                print(data)
        ''')
        findings = lifecycle.check_source(source, "leak.py")
        assert [f.rule for f in findings] == ["source-close"]
        assert "FileSource" in findings[0].message

    @pytest.mark.parametrize("body", [
        "with FileSource(path) as src:\n        pass",
        "src = FileSource(path)\n    src.close()",
        "src = FileSource(path)\n    return src",
        "src = FileSource(path)\n    consume(src)",
        "src = FileSource(path)\n    self.src = src",
        "src = FileSource(path)  # lifecycle-ok: test fixture",
    ])
    def test_ownership_sinks_are_clean(self, body):
        source = f"def ok(self, path):\n    {body}\n"
        assert lifecycle.check_source(source, "ok.py") == []

    def test_shm_without_finalize_flagged(self):
        source = textwrap.dedent('''
            class Ring:
                def setup(self):
                    self.shm = SharedMemory(create=True, size=4096)
        ''')
        findings = lifecycle.check_source(source, "ring.py")
        assert [f.rule for f in findings] == ["shm-finalize"]

    def test_shm_with_finalize_clean(self):
        source = textwrap.dedent('''
            class Ring:
                def setup(self):
                    self.shm = SharedMemory(create=True, size=4096)
                    weakref.finalize(self, _cleanup, self.shm)
        ''')
        assert lifecycle.check_source(source, "ring.py") == []


# ---------------------------------------------------------------------------
# findings + baseline
# ---------------------------------------------------------------------------

class TestBaseline:
    def test_fingerprint_is_line_stable(self):
        a = Finding("r", "p.py", 10, "S.f", "msg")
        b = Finding("r", "p.py", 99, "S.f", "msg")
        assert a.fingerprint() == b.fingerprint()
        assert a == b

    def test_save_load_filter_roundtrip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        old = Finding("r", "p.py", 1, "S.f", "known")
        new = Finding("r", "p.py", 2, "S.g", "fresh")
        assert save_baseline(path, [old]) == 1
        baseline = load_baseline(path)
        assert filter_baselined([old, new], baseline) == [new]
        doc = json.loads(open(path).read())
        assert doc["format"] == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == set()

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99}')
        with pytest.raises(ReproError):
            load_baseline(str(path))


# ---------------------------------------------------------------------------
# runner + the shipped tree
# ---------------------------------------------------------------------------

class TestRunner:
    def test_shipped_tree_is_finding_free(self):
        """Satellite acceptance: the annotated core modules (and the
        whole package) lint clean with an EMPTY baseline."""
        assert run_lint() == []

    def test_kernel_selfcheck_clean_on_real_codegen(self):
        assert kernel_selfcheck() == []

    def test_kernel_selfcheck_catches_corrupted_plan(self, monkeypatch):
        """A plan builder that runs AND plans with OR short-circuiting
        surfaces as kernel-verify findings."""
        real_build_plan = compiled_module.build_plan
        monkeypatch.setattr(
            compiled_module, "build_plan",
            lambda expr: KernelPlan(
                expr, "or", real_build_plan(expr).steps
            ),
        )
        findings = kernel_selfcheck()
        assert findings
        assert all(f.rule == "kernel-verify" for f in findings)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ReproError, match="unknown lint rule"):
            run_lint(rules=("locks", "nonsense"))

    def test_explicit_paths(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(GLOBAL_FIXTURE)
        findings = run_lint(
            [str(tmp_path)], rules=("locks",), root=str(tmp_path)
        )
        assert [f.symbol for f in findings] == ["bad"]
        assert findings[0].path == "bad.py"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert cli_main(["lint"]) == 0
        out = capsys.readouterr()
        assert "0 finding(s)" in out.err

    def test_lint_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(GLOBAL_FIXTURE)
        code = cli_main(["lint", str(bad), "--rules", "locks"])
        assert code == 1
        out = capsys.readouterr()
        assert "lock-discipline" in out.out

    def test_lint_baseline_workflow(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(GLOBAL_FIXTURE)
        baseline = str(tmp_path / "baseline.json")
        assert cli_main([
            "lint", str(bad), "--rules", "locks",
            "--baseline", baseline, "--update-baseline",
        ]) == 0
        assert cli_main([
            "lint", str(bad), "--rules", "locks",
            "--baseline", baseline,
        ]) == 0
        out = capsys.readouterr()
        assert "1 baselined" in out.err

    def test_lint_unknown_rule_is_cli_error(self, capsys):
        assert cli_main(["lint", "--rules", "bogus"]) == 1
        out = capsys.readouterr()
        assert "unknown lint rule" in out.err
