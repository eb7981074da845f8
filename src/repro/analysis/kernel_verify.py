"""Static verification of compiled kernel plans.

The compiled backend (:mod:`repro.engine.compiled`) runs each filter
as a :class:`~repro.engine.compiled.KernelPlan`: a selectivity-ordered,
short-circuiting, prefilter-augmented sequence of verified primitives.
If that plan were not boolean-equivalent to the filter expression it
claims to implement, the backend would return plausible-but-wrong bits
— silently, at scale.

:func:`verify_plan` proves the plan boolean-equivalent to the original
expression by **exhaustive truth assignment** over the expression's
variables (primitives and structural groups — small sets in practice).
Assignments that are semantically impossible at record level are
excluded: a group can only match a record in which every child fired
somewhere, so ``group ⇒ child`` record-level implications constrain
the space.  AND plans additionally require every prefilter step to be
a *necessary condition* on its own — the ordering logic is free to
drop or reorder prefilters, so their soundness must not depend on the
exact steps running first.

The number-token index (:meth:`repro.eval.harness.DatasetView.tokens`)
drops lone non-digit tokens before any DFA runs — on JSON records most
of them are the ``e`` of a key such as ``temperature``.  That is sound
only for a DFA that accepts no digit-free string, so
:func:`verify_token_drop` proves it per DFA by reachability from the
start state over the non-digit token bytes ``+ - . e E``; the harness
checks each DFA before it steps one, on every backend.

Failures raise the typed
:class:`~repro.errors.KernelVerificationError` from
:func:`~repro.engine.compiled.kernel_for`, in every process and with
no switch to turn it off.  The plan registry is keyed by filter
fingerprint, so each filter is verified once per process.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict
from functools import lru_cache
from typing import Any, Iterator, Protocol

from ..core import composition as comp
from ..regex.charclass import DIGITS, NUMBER_TOKEN_CHARS
from ..errors import KernelVerificationError

#: the token characters a digit-free token is made of (``+ - . e E``)
_NON_DIGIT_TOKEN_BYTES = sorted(NUMBER_TOKEN_CHARS - DIGITS)
#: past this many variables the truth table is sampled, not exhausted
MAX_EXHAUSTIVE_VARIABLES = 14
#: deterministic assignment sample size for very wide expressions
SAMPLED_ASSIGNMENTS = 2048


class _PlanLike(Protocol):
    """Duck type of :class:`repro.engine.compiled.KernelPlan`."""

    expr: Any
    mode: str
    steps: tuple[Any, ...]


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


@lru_cache(maxsize=256)
def verify_token_drop(dfa: Any) -> None:
    """Raise :class:`KernelVerificationError` if ``dfa`` accepts a
    digit-free token, naming the shortest one.

    Breadth-first reachability from ``start`` over the non-digit token
    bytes; a DFA that passes is cached, so the check costs one lookup
    per step.
    """
    witness = {dfa.start: b""}
    frontier = [dfa.start]
    while frontier:
        following = []
        for state in frontier:
            if dfa.accepting[state]:
                raise KernelVerificationError(
                    "number DFA accepts the digit-free token "
                    f"{witness[state]!r}, which the number-token index "
                    "drops"
                )
            for byte in _NON_DIGIT_TOKEN_BYTES:
                target = int(dfa.table[state, byte])
                if target not in witness:
                    witness[target] = witness[state] + bytes((byte,))
                    following.append(target)
        frontier = following
