"""Statements of ``src/torlen`` that a pytest run never ran, and
``if``/``while`` tests that went only one way, outside top-level
``if __name__ == "__main__":`` blocks, which run only as scripts:

    python3 tools/branch_report.py [pytest arguments]

Runs pytest in-process under a ``sys.settrace`` hook that records line
arcs in files under ``src/torlen/`` only, and prints one ``file:line``
per finding.  Tests with wall-time budgets may fail under the tracer."""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest


def trace_arcs(root: Path, pytest_args: list[str]) -> tuple[int, set[tuple[str, int, int]]]:
    """Run pytest; return its exit code and the (file, from, to) line arcs
    in files under ``root``.  A frame enters from line 0 and leaves to 0."""
    arcs: set[tuple[str, int, int]] = set()
    inside: dict[str, str | None] = {}  # code file -> resolved path under root, else None

    def tracer(frame, event, arg):
        if (code_file := frame.f_code.co_filename) not in inside:
            path = Path(code_file).resolve()
            inside[code_file] = str(path) if path.is_relative_to(root.resolve()) else None
        if (name := inside[code_file]) is None:
            return None
        prev = 0

        def local(frame, event, arg):
            nonlocal prev
            if event in ("line", "return"):
                line = frame.f_lineno if event == "line" else 0
                arcs.add((name, prev, line))
                prev = line
            return local

        return local

    previous = sys.gettrace()  # an enclosing report's tracer, when run under one
    sys.settrace(tracer)
    try:
        return int(pytest.main(list(pytest_args))), arcs
    finally:
        sys.settrace(previous)


def code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    return lines.union(*(code_lines(c) for c in code.co_consts if hasattr(c, "co_lines")))


def report(root: Path, arcs: set[tuple[str, int, int]]) -> list[str]:
    """``file:line: never ran`` for each statement with code that no arc
    reached; ``always true`` or ``always false`` for each ``if``/``while``
    test whose arcs left it only for its body, or only elsewhere."""
    found = []
    for path in sorted(root.resolve().rglob("*.py")):
        source = path.read_text()
        executable = code_lines(compile(source, str(path), "exec"))
        out = {(a, b) for f, a, b in arcs if f == str(path)}
        ran = {b for _, b in out}
        tree = ast.parse(source)
        tree.body = [
            n
            for n in tree.body
            if not (isinstance(n, ast.If) and ast.unparse(n.test) == "__name__ == '__main__'")
        ]
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            line = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            if line in executable and line not in ran:
                found.append((path, line, "never ran"))
            elif isinstance(node, (ast.If, ast.While)) and not isinstance(node.test, ast.Constant):
                test, body = range(node.test.lineno, node.test.end_lineno + 1), node.body[0].lineno
                exits = {b for a, b in out if a in test and b not in test}
                if body not in test and exits and (exits == {body} or body not in exits):
                    found.append((path, line, f"always {'true' if body in exits else 'false'}"))
    return [f"{os.path.relpath(path)}:{line}: {what}" for path, line, what in sorted(found)]


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent / "src" / "torlen"
    code, arcs = trace_arcs(root, sys.argv[1:])
    print("\n".join(report(root, arcs)))
    sys.exit(code)
