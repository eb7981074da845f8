"""Drive every static-analysis pass over a source tree.

``repro lint`` calls :func:`run_lint`: the lock-discipline and
lifecycle passes walk the Python files under the given paths, and the
``kernels`` pass builds the kernel plan of a representative corpus of
filter expressions and proves each equivalent to its expression — a
self-check that the plan builder currently in the tree emits only
verifiable plans.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from ..errors import KernelVerificationError, ReproError
from . import lifecycle, lockcheck
from .findings import Finding

ALL_RULES = ("locks", "lifecycle", "kernels")


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    seen = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        if not os.path.isdir(path):
            raise ReproError(f"lint path {path!r} does not exist")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            dirnames[:] = [
                name for name in dirnames
                if name != "__pycache__"
            ]
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                if full not in seen:
                    seen.add(full)
                    yield full


def default_lint_root() -> str:
    """The installed ``repro`` package source tree."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _relpath(path: str, root: str | None) -> str:
    if root is not None:
        try:
            rel = os.path.relpath(path, root)
        except ValueError:  # different drive (windows)
            return path.replace(os.sep, "/")
        if not rel.startswith(".."):
            return rel.replace(os.sep, "/")
    return path.replace(os.sep, "/")


def _kernel_corpus() -> list:
    """Representative expressions spanning every plan shape."""
    from ..core import composition as comp

    qs1 = comp.And([
        comp.group(comp.s("temperature", 1),
                   comp.v("-12.5", "43.1")),
        comp.group(comp.s("light", 1), comp.v("1345", "26282")),
    ])
    return [
        comp.s("temperature", 1),
        comp.v("0.7", "35.1"),
        comp.group(comp.s("temperature", 1), comp.v("0.7", "35.1")),
        qs1,
        comp.And([comp.s("a", 1),
                  comp.And([comp.s("b", 1), comp.s("c", 1)])]),
        comp.Or([comp.s("taxi", 1),
                 comp.group(comp.s("fare", 1), comp.v_int(1, 50))]),
        comp.Or([qs1, comp.s("rain", 1)]),
    ]


def kernel_selfcheck() -> list[Finding]:
    """Build and verify the plan of every corpus expression."""
    from ..engine.compiled import build_plan
    from .kernel_verify import verify_plan

    findings: list[Finding] = []
    for expr in _kernel_corpus():
        label = expr.notation()
        try:
            verify_plan(build_plan(expr))
        except KernelVerificationError as err:
            findings.append(Finding(
                "kernel-verify", "repro/engine/compiled.py", 0,
                label, str(err),
            ))
        except Exception as err:  # the plan builder itself broke
            findings.append(Finding(
                "kernel-verify", "repro/engine/compiled.py", 0,
                label, f"plan build failed: {err!r}",
            ))
    return findings


def run_lint(
    paths: Iterable[str] | None = None,
    rules: Iterable[str] = ALL_RULES,
    root: str | None = None,
) -> list[Finding]:
    """Every finding of the selected rules over the selected paths.

    ``paths`` defaults to the installed ``repro`` package source;
    ``root`` (defaulting to the parent of that tree) makes reported
    paths relative, so baselines are location-independent.
    """
    rules = tuple(rules)
    for rule in rules:
        if rule not in ALL_RULES:
            raise ReproError(
                f"unknown lint rule {rule!r} "
                f"(known: {', '.join(ALL_RULES)})"
            )
    if paths is None:
        package_root = default_lint_root()
        paths = [package_root]
        if root is None:
            root = os.path.dirname(package_root)
    findings: list[Finding] = []
    if "locks" in rules or "lifecycle" in rules:
        for path in iter_python_files(paths):
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            rel = _relpath(os.path.abspath(path), root)
            if "locks" in rules:
                findings.extend(lockcheck.check_source(source, rel))
            if "lifecycle" in rules:
                findings.extend(lifecycle.check_source(source, rel))
    if "kernels" in rules:
        findings.extend(kernel_selfcheck())
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
