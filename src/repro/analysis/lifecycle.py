"""Resource-lifecycle linting for the hazards this repo lives with.

Two rules, each encoding a failure mode the engine has real
machinery to prevent:

* ``source-close`` — a :class:`~repro.engine.sources.ChunkSource`
  constructed and bound to a local must reach an ownership sink inside
  the same function: a ``with`` statement, a ``.close()`` call,
  a ``return``/``yield`` (ownership transfer to the caller), storage
  on an object/container, or being passed onward as a call argument
  (transfer to the callee).  Otherwise the file handle, socket or
  event loop it owns leaks.

* ``shm-finalize`` — a class creating ``SharedMemory(create=True)``
  segments must have a finalize path: either a
  ``weakref.finalize(...)`` registration or an ``.unlink()`` call
  somewhere in the class.  Segments without one outlive the process in
  ``/dev/shm``.

Any finding can be suppressed inline with ``# lifecycle-ok: <reason>``
on the offending line, or through the checked-in baseline file.
"""

from __future__ import annotations

import ast
import re

from .findings import Finding

#: constructors whose result owns an OS resource until closed
SOURCE_CONSTRUCTORS = frozenset({
    "FileSource", "SocketSource", "AsyncSource",
})

SUPPRESS_RE = re.compile(r"#\s*lifecycle-ok\b")


def _suppressed(lines: list[str], lineno: int) -> bool:
    return (
        1 <= lineno <= len(lines)
        and SUPPRESS_RE.search(lines[lineno - 1]) is not None
    )


def _call_name(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# ---------------------------------------------------------------------------
# source-close
# ---------------------------------------------------------------------------

class _SourceUse(ast.NodeVisitor):
    """How one bound source name is used inside its function."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sunk = False

    def _is_name(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == self.name

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and self._is_name(func.value)
            and func.attr == "close"
        ):
            self.sunk = True  # explicitly closed
        if any(self._is_name(arg) for arg in node.args) or any(
            self._is_name(kw.value) for kw in node.keywords
        ):
            self.sunk = True  # ownership handed to the callee
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._mentions(node.value):
            self.sunk = True
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        if node.value is not None and self._mentions(node.value):
            self.sunk = True
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if self._mentions(item.context_expr):
                self.sunk = True
        self.generic_visit(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        for item in node.items:
            if self._mentions(item.context_expr):
                self.sunk = True
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_name(node.value):
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    self.sunk = True  # stored on an object/container
        self.generic_visit(node)

    def _mentions(self, node: ast.AST) -> bool:
        return any(
            self._is_name(inner) for inner in ast.walk(node)
        )


def _check_sources(
    func: ast.FunctionDef | ast.AsyncFunctionDef, path: str,
    lines: list[str], symbol: str, findings: list[Finding],
) -> None:
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        ctor = _call_name(node.value)
        if ctor not in SOURCE_CONSTRUCTORS:
            continue
        if len(node.targets) != 1 or not isinstance(
            node.targets[0], ast.Name
        ):
            continue
        name = node.targets[0].id
        if _suppressed(lines, node.lineno):
            continue
        use = _SourceUse(name)
        use.visit(func)
        if not use.sunk:
            findings.append(Finding(
                "source-close", path, node.lineno, symbol,
                f"{ctor} bound to {name!r} is never closed, "
                "entered as a context manager, or handed off",
            ))


# ---------------------------------------------------------------------------
# shm-finalize
# ---------------------------------------------------------------------------

def _creates_shm(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if _call_name(node) != "SharedMemory":
        return False
    return any(
        kw.arg == "create"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in node.keywords
    )


def _has_finalize_path(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        name = _call_name(node)
        if name in ("finalize", "unlink"):
            return True
    return False


def _check_shm(
    cls: ast.ClassDef, path: str, lines: list[str],
    findings: list[Finding],
) -> None:
    for node in ast.walk(cls):
        if not _creates_shm(node):
            continue
        lineno = getattr(node, "lineno", 0)
        if _suppressed(lines, lineno):
            continue
        if not _has_finalize_path(cls):
            findings.append(Finding(
                "shm-finalize", path, lineno, cls.name,
                "SharedMemory(create=True) in a class with no "
                "weakref.finalize or unlink() path — segments "
                "outlive the process",
            ))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def check_source(source: str, path: str) -> list[Finding]:
    """Lifecycle findings for one module's source text."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        return [Finding(
            "source-close", path, err.lineno or 0, "<module>",
            f"does not parse: {err.msg}",
        )]
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            _check_shm(node, path, lines, findings)
    scopes: list[tuple[str, ast.AST]] = [("<module>", tree)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for func in node.body:
                if isinstance(
                    func, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    scopes.append(
                        (f"{node.name}.{func.name}", func)
                    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.name, node))
    for symbol, scope in scopes:
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_sources(scope, path, lines, symbol, findings)
    return findings


def check_file(path: str) -> list[Finding]:
    with open(path, encoding="utf-8") as handle:
        return check_source(handle.read(), path)
