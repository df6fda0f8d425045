#!/usr/bin/env python3
"""List the statements of the library that no Tier-1 test executes.

    python3 scripts/untested.py

Runs the Tier-1 suite in this process under sys.settrace, recording the
lines executed in src/latticegames/, then prints `file:line  source` for
each statement that never ran.  Docstrings, `def`, `class`, imports and
`global`/`nonlocal` declarations are not listed, nor is an
`if __name__ == "__main__":` block, which no test run in this process can
enter; a compound statement counts as run when its header ran.  Other code
that tests reach only in a subprocess (`python -m latticegames`) is not
traced, so it is listed.  Exits with status 1 if pytest fails or any
statement is listed.  Needs only the standard library and pytest; the
trace makes the suite about three times slower.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "latticegames"
# definitions, imports and declarations, which no line event marks as run
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)


def main_guarded(tree) -> set[int]:
    """The lines of the file's `if __name__ == "__main__":` blocks."""
    return {line for node in ast.walk(tree)
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
            for line in range(node.lineno, node.end_lineno + 1)}


def statements(tree):
    """(first line, last line) of each listed statement's own text: its
    header for a compound statement, all of it otherwise."""
    guarded = main_guarded(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or node.lineno in guarded:
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        body = getattr(node, "body", None)
        yield node.lineno, (max(node.lineno, body[0].lineno - 1) if body else node.end_lineno)


def main() -> int:
    executed: dict[str, set[int]] = {}
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(prefix):
            executed.setdefault(name, set())
            return local
        return None

    os.chdir(ROOT)  # the tests read specs/ relative to the root
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    listed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        ran = executed.get(str(path), set())
        for first, last in sorted(set(statements(ast.parse(text)))):
            if ran.isdisjoint(range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first}  {lines[first - 1].strip()}")
                listed += 1
    return 1 if code != 0 or listed else 0


if __name__ == "__main__":
    sys.exit(main())
