#!/usr/bin/env python3
"""List the statements of src/prunescope that a pytest run never executes.

Statement coverage from the standard library alone: ``sys.settrace`` and
``threading.settrace`` record each line run in ``src/prunescope`` while
``pytest.main`` runs the tests in this process. Every statement of the
package's syntax trees (docstrings, ``global`` and ``nonlocal`` excepted)
whose lines never ran is then printed as ``path:line: source``; a compound
statement counts as run when its header did. Code that runs only in a
subprocess or a forked child is not seen.

The run exits 1 when the tests fail, when a statement that never ran is
missing from ``ALLOWED`` below, or when an ``ALLOWED`` entry names no
statement that never ran; it exits 0 otherwise.

    python3 scripts/uncovered.py                    # tier 1 without criterion 8
    python3 scripts/uncovered.py -x tests/test_pruner.py
"""

from __future__ import annotations

import ast
import functools
import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "prunescope")

DEFAULT_ARGS = ["-q", "--continue-on-collection-errors", "--deselect",
                "tests/test_acceptance.py::test_criterion_8_desk_scale_dynamics"]

# (path under src/prunescope, enclosing function, first source line) -> why
# no in-process test can run the statement.
ALLOWED = {
    ("harness/cli.py", "", "sys.exit(main())"):
        "the __main__ guard runs only as a script; the CLI tests call main()",
    ("netcore.py", "_openblas_file",
     'raise FileNotFoundError("numpy bundles no scipy-openblas library")'):
        "platform fallback: this numpy bundles scipy-openblas",
    ("netcore.py", "_usable_cores", "return os.cpu_count() or 1"):
        "platform fallback: os.sched_getaffinity exists on Linux",
    ("netcore.py", "_fresh_lane", "_LANE.clear()  # a forked child has no worker; "
     "its first stage that queues makes one"):
        "runs in a forked child, whose trace this process never sees",
    ("netcore.py", "Network._raise_non_finite",
     'raise NumericsError(f"non-finite parameters {context}")'):
        "the NoReturn tail: callers find a non-finite element first, so a "
        "tensor always holds it",
    ("pruner.py", "apply_prune", "raise ConfigurationError("):
        "invariant: the recount of the cut arrays always equals the removal "
        "ledger that cut them",
}


@functools.cache
def _package_file(filename: str) -> str | None:
    """The real path of a code object's file inside the package, else None."""
    path = os.path.realpath(filename)
    return path if path.startswith(PACKAGE + os.sep) else None


def trace_lines(run):
    """Call ``run()`` with line tracing on for the package's frames; returns
    its result and the lines run, as {real path: {line numbers}}."""
    hits: dict[str, set[int]] = defaultdict(set)

    def on_call(frame, event, arg):
        path = _package_file(frame.f_code.co_filename)
        if path is None:
            return None
        lines = hits[path]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(tree: ast.Module):
    """Yield (enclosing function, first line, last line) for each statement
    that compiles to code of its own; a compound statement spans its header
    only, from its first decorator to the line before its body."""
    def walk(parent: ast.AST, scope: list[str], in_function: bool):
        for field in ("body", "handlers", "orelse", "finalbody"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.ExceptHandler):
                    yield from walk(node, scope, in_function)
                    continue
                if (_is_docstring(node, parent) or isinstance(node, (ast.Global, ast.Nonlocal))
                        or (in_function and isinstance(node, ast.AnnAssign)
                            and node.value is None)):
                    continue
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", ())])
                body = getattr(node, "body", None)
                last = max(first, body[0].lineno - 1) if body else node.end_lineno
                yield ".".join(scope), first, last
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    yield from walk(node, scope + [node.name],
                                    not isinstance(node, ast.ClassDef) or in_function)
                else:
                    yield from walk(node, scope, in_function)
    yield from walk(tree, [], False)


def never_run(hits: dict[str, set[int]]):
    """(path under the package, line, source, enclosing function) of every
    statement none of whose lines ran, in file and line order."""
    missed = []
    for folder, _, files in sorted(os.walk(PACKAGE)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            lines, ran = source.splitlines(), hits.get(path, set())
            rel = os.path.relpath(path, PACKAGE)
            for scope, first, last in statements(ast.parse(source, path)):
                if ran.isdisjoint(range(first, last + 1)):
                    missed.append((rel, first, lines[first - 1].strip(), scope))
    return missed


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    code, hits = trace_lines(lambda: pytest.main(argv or DEFAULT_ARGS))
    if not hits:
        print("uncovered.py: no line of src/prunescope ran", file=sys.stderr)
        return 1
    missed = never_run(hits)
    seen, status = set(), 0
    print(f"\n{len(missed)} statements in src/prunescope never ran:")
    for rel, line, text, scope in missed:
        key = (rel, scope, text)
        seen.add(key)
        reason = ALLOWED.get(key)
        print(f"src/prunescope/{rel}:{line}: {text}"
              + (f"  [allowed: {reason}]" if reason else ""))
        status |= reason is None
    for rel, scope, text in sorted(set(ALLOWED) - seen):
        print(f"stale allowlist entry: src/prunescope/{rel} ({scope or 'module'}): {text}")
        status = 1
    if code != 0:
        print(f"uncovered.py: pytest exited {int(code)}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
