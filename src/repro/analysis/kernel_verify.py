"""Static verification of generated fused kernels.

The compiled backend (:mod:`repro.engine.compiled`) *generates and
executes code*: per-filter kernel source built by string emission,
``compile()``d and ``exec``'d into the process.  Two things can go
wrong with that, and both would corrupt results silently at scale:

* the generated source could escape the kernel ABI (call something it
  must not, reach an attribute it must not) — a codegen bug or a
  corrupted emission template becomes arbitrary code execution inside
  the hot path;
* the evaluation *plan* the kernel implements (selectivity-ordered,
  short-circuiting, prefilter-augmented) could fail to be
  boolean-equivalent to the filter expression it claims to implement —
  a miscompile that returns plausible-but-wrong bits.

This module proves both properties for every kernel, between codegen
and ``compile()``/``exec``, so generated source is checked before any
of it runs:

1. :func:`verify_kernel_source` parses the generated source into an
   AST and checks it against a strict **whitelist**: allowed node
   types only, allowed names only (the step/constant naming scheme and
   the driver's locals), no imports, and no attribute access except
   the kernel ABI (``ctx.<method>`` for the audited context methods,
   ``state.n_active``).

2. :func:`verify_plan` proves the plan boolean-equivalent to the
   original expression by **exhaustive truth assignment** over the
   expression's variables (primitives and structural groups — small
   sets in practice).  Assignments that are semantically impossible at
   record level are excluded: a group can only match a record in which
   every child fired somewhere, so ``group ⇒ child`` record-level
   implications constrain the space.  AND plans additionally require
   every prefilter step to be a *necessary condition* on its own —
   the ordering logic is free to drop or reorder prefilters, so their
   soundness must not depend on the exact steps running first.

Failures raise the typed
:class:`~repro.errors.KernelVerificationError` from the
:class:`~repro.engine.compiled.CompiledKernel` constructor, in every
process and with no switch to turn it off.  The compiled-kernel
registry is keyed by filter fingerprint, so each filter is verified
once per process.
"""

from __future__ import annotations

import ast
import itertools
import random
import re
from collections import OrderedDict
from typing import Any, Iterator, Protocol

from ..core import composition as comp
from ..errors import KernelVerificationError

#: past this many variables the truth table is sampled, not exhausted
MAX_EXHAUSTIVE_VARIABLES = 14
#: deterministic assignment sample size for very wide expressions
SAMPLED_ASSIGNMENTS = 2048


class _PlanLike(Protocol):
    """Duck type of :class:`repro.engine.compiled.KernelPlan`."""

    expr: Any
    mode: str
    steps: tuple[Any, ...]


class _KernelLike(Protocol):
    """Duck type of :class:`repro.engine.compiled.CompiledKernel`."""

    expr: Any
    plan: Any
    source: str


# ---------------------------------------------------------------------------
# source whitelist
# ---------------------------------------------------------------------------

#: the only AST statement/expression node types generated kernels use
_ALLOWED_NODES: tuple[type[ast.AST], ...] = (
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg,
    ast.Expr, ast.Assign, ast.AugAssign, ast.Return,
    ast.If, ast.For, ast.Break,
    ast.Name, ast.Attribute, ast.Call, ast.Constant,
    ast.Subscript, ast.Tuple, ast.Compare,
    ast.Is, ast.Eq, ast.Sub,
    ast.Load, ast.Store,
)

#: names the generated source may reference, beyond per-step constants
_ALLOWED_NAME = re.compile(
    r"\A(?:ctx|state|order|bits|index|remaining|kernel|len|_STEPS"
    r"|_step_\d+|ATOM_\d+|NEEDLE_\d+|BLOCK_\d+)\Z"
)

#: the kernel ABI: the audited context methods generated steps call
ALLOWED_CTX_METHODS = frozenset({
    "precomputed_bits", "string_bits", "atom_bits", "store",
    "refine", "accumulate", "note_skipped", "finish",
})
#: the only state attribute the generated driver reads
ALLOWED_STATE_ATTRS = frozenset({"n_active"})

#: functions callable by bare name inside a kernel
_ALLOWED_NAME_CALLS = re.compile(r"\A(?:len|_step_\d+)\Z")


def _violation(node: ast.AST, reason: str) -> str:
    line = getattr(node, "lineno", 0)
    return f"line {line}: {reason}"


def _check_attribute(node: ast.Attribute) -> str | None:
    base = node.value
    if not isinstance(base, ast.Name):
        return _violation(
            node, f"attribute access on a non-name base ({node.attr!r})"
        )
    if base.id == "ctx":
        if node.attr not in ALLOWED_CTX_METHODS:
            return _violation(
                node,
                f"ctx.{node.attr} is outside the kernel ABI "
                f"(allowed: {', '.join(sorted(ALLOWED_CTX_METHODS))})",
            )
        return None
    if base.id == "state":
        if node.attr not in ALLOWED_STATE_ATTRS:
            return _violation(
                node, f"state.{node.attr} is not a readable state slot"
            )
        return None
    return _violation(
        node, f"attribute escape: {base.id}.{node.attr}"
    )


def _check_call(node: ast.Call) -> str | None:
    if node.keywords:
        return _violation(node, "keyword arguments in a kernel call")
    func = node.func
    if isinstance(func, ast.Attribute):
        return None  # the attribute check already constrains it
    if isinstance(func, ast.Name):
        if not _ALLOWED_NAME_CALLS.match(func.id):
            return _violation(
                node, f"call to disallowed name {func.id!r}"
            )
        return None
    if isinstance(func, ast.Subscript):
        base = func.value
        if isinstance(base, ast.Name) and base.id == "_STEPS":
            return None
        return _violation(node, "call through a non-_STEPS subscript")
    return _violation(node, "call through a disallowed expression")


def source_violations(source: str) -> list[str]:
    """Whitelist violations of one generated kernel source (may be
    empty).  ``verify_kernel_source`` raises on any."""
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        return [f"generated source does not parse: {err}"]
    violations: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            violations.append(_violation(
                node,
                f"disallowed construct {type(node).__name__}",
            ))
            continue
        if isinstance(node, ast.Name):
            if not _ALLOWED_NAME.match(node.id):
                violations.append(_violation(
                    node, f"disallowed name {node.id!r}"
                ))
        elif isinstance(node, ast.Attribute):
            problem = _check_attribute(node)
            if problem is not None:
                violations.append(problem)
        elif isinstance(node, ast.Call):
            problem = _check_call(node)
            if problem is not None:
                violations.append(problem)
        elif isinstance(node, ast.FunctionDef):
            if node.name != "kernel" and not re.match(
                r"\A_step_\d+\Z", node.name
            ):
                violations.append(_violation(
                    node, f"disallowed function name {node.name!r}"
                ))
            if node.decorator_list:
                violations.append(_violation(
                    node, "decorators are not part of the kernel ABI"
                ))
    return violations


def verify_kernel_source(source: str, label: str = "kernel") -> None:
    """Raise :class:`KernelVerificationError` on any whitelist escape."""
    violations = source_violations(source)
    if violations:
        raise KernelVerificationError(
            f"generated kernel for {label} escapes the ABI whitelist: "
            + "; ".join(violations[:8])
        )


# ---------------------------------------------------------------------------
# plan equivalence
# ---------------------------------------------------------------------------

def _collect_variables(
    expr: Any, variables: OrderedDict[str, Any],
    groups: dict[str, Any],
) -> None:
    """Walk an expression, registering primitive/group variables."""
    if isinstance(expr, (comp.And, comp.Or)):
        for child in expr.children:
            _collect_variables(child, variables, groups)
        return
    key = expr.cache_key()
    variables.setdefault(key, expr)
    if isinstance(expr, comp.Group):
        groups.setdefault(key, expr)
        for child in expr.children:
            _collect_variables(child, variables, groups)


def _expr_value(expr: Any, assignment: dict[str, bool]) -> bool:
    """Truth value of an expression under one variable assignment."""
    if isinstance(expr, comp.And):
        return all(
            _expr_value(child, assignment) for child in expr.children
        )
    if isinstance(expr, comp.Or):
        return any(
            _expr_value(child, assignment) for child in expr.children
        )
    return assignment[expr.cache_key()]


def _consistent(
    groups: dict[str, Any], assignment: dict[str, bool]
) -> bool:
    """Record-level possibility: a matching group implies every child
    fired somewhere in the record."""
    for key, group in groups.items():
        if not assignment[key]:
            continue
        for child in group.children:
            if not assignment[child.cache_key()]:
                return False
    return True


def _assignments(
    keys: list[str], seed: int = 0
) -> Iterator[dict[str, bool]]:
    """All (or a deterministic sample of) truth assignments."""
    count = len(keys)
    if count <= MAX_EXHAUSTIVE_VARIABLES:
        for values in itertools.product((False, True), repeat=count):
            yield dict(zip(keys, values))
        return
    # very wide expressions: corner assignments plus a seeded sample
    yield dict.fromkeys(keys, False)
    yield dict.fromkeys(keys, True)
    for flipped in keys:
        yield {key: key != flipped for key in keys}
        yield {key: key == flipped for key in keys}
    rng = random.Random(seed)
    for _ in range(SAMPLED_ASSIGNMENTS):
        yield {key: rng.random() < 0.5 for key in keys}


def _fail(plan: _PlanLike, reason: str) -> KernelVerificationError:
    return KernelVerificationError(
        f"plan for {plan.expr.notation()} is not equivalent to its "
        f"expression: {reason}"
    )


def plan_violations(plan: _PlanLike) -> list[str]:
    """Equivalence violations of one evaluation plan (may be empty).

    Checks both structure (modes, kinds, step indexing — an inverted
    short-circuit shows up as a ``disjunct`` step inside an AND plan
    or vice versa) and semantics (truth-table equivalence over every
    record-level-consistent assignment).
    """
    violations: list[str] = []
    if plan.mode not in ("and", "or"):
        return [f"unknown plan mode {plan.mode!r}"]
    expected_kinds = (
        {"disjunct"} if plan.mode == "or" else {"exact", "prefilter"}
    )
    for position, step in enumerate(plan.steps):
        if step.index != position:
            violations.append(
                f"step #{position} carries index {step.index} — the "
                "dispatch table would run the wrong step"
            )
        if step.kind not in expected_kinds:
            violations.append(
                f"step #{position} kind {step.kind!r} inverts the "
                f"{plan.mode!r} plan's short-circuit semantics"
            )
    if violations:
        return violations
    variables: OrderedDict[str, Any] = OrderedDict()
    groups: dict[str, Any] = {}
    try:
        _collect_variables(plan.expr, variables, groups)
        for step in plan.steps:
            _collect_variables(step.atom, variables, groups)
    except AttributeError as err:
        return [f"plan holds a non-expression atom: {err}"]
    keys = list(variables)
    exact = [s for s in plan.steps if s.kind == "exact"]
    prefilters = [s for s in plan.steps if s.kind == "prefilter"]
    disjuncts = [s for s in plan.steps if s.kind == "disjunct"]
    for assignment in _assignments(keys):
        if not _consistent(groups, assignment):
            continue
        reference = _expr_value(plan.expr, assignment)
        if plan.mode == "or":
            planned = any(
                _expr_value(s.atom, assignment) for s in disjuncts
            )
            if planned != reference:
                violations.append(
                    "disjunct steps compute "
                    f"{planned} where the expression is {reference} "
                    f"under {_describe(variables, assignment)}"
                )
                break
            continue
        planned = all(_expr_value(s.atom, assignment) for s in exact)
        if planned != reference:
            violations.append(
                "exact steps compute "
                f"{planned} where the expression is {reference} "
                f"under {_describe(variables, assignment)}"
            )
            break
        if not reference:
            continue
        for step in prefilters:
            # prefilters may run in any order, or not at all — each
            # must be a necessary condition of the whole expression
            if not _expr_value(step.atom, assignment):
                violations.append(
                    f"prefilter {step.atom.notation()} rejects a "
                    "record the expression accepts under "
                    f"{_describe(variables, assignment)}"
                )
                break
        if violations:
            break
    return violations


def _describe(
    variables: OrderedDict[str, Any], assignment: dict[str, bool]
) -> str:
    true_atoms = [
        atom.notation() for key, atom in variables.items()
        if assignment[key]
    ]
    return "{" + ", ".join(sorted(true_atoms)) + "}"


def verify_plan(plan: _PlanLike) -> None:
    """Raise :class:`KernelVerificationError` unless the plan is
    boolean-equivalent to its expression."""
    violations = plan_violations(plan)
    if violations:
        raise _fail(plan, "; ".join(violations[:4]))


# ---------------------------------------------------------------------------
# kernel verification (the codegen-time hook)
# ---------------------------------------------------------------------------

def verify_kernel(kernel: _KernelLike) -> None:
    """Verify one generated kernel (source whitelist + plan
    equivalence); called by the ``CompiledKernel`` constructor before
    its source is compiled."""
    verify_kernel_source(kernel.source, kernel.expr.notation())
    verify_plan(kernel.plan)
