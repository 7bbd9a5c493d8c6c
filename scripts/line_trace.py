#!/usr/bin/env python3
"""List the statements of ``src/penroselab`` that no test runs.

Runs pytest in this process under ``sys.settrace``, with line events only in
frames whose code lives in ``src/penroselab``, and prints each statement
that never ran as ``file:line`` and its first source line, in file order.
A statement's lines are those its code objects give it (``co_lines``), less
the lines of the statements nested in it; one that ran on any of them counts
as run, and a statement with no such line (a docstring) is never listed.
Code that tests run in a subprocess (``python -m penroselab``) is not traced.

Arguments go to pytest; the default is the tier-1 suite, ``tests``.  The
list is a gate: ``KNOWN`` names, by file and source text, the one
statement no test can run (``cli.py``'s ``__main__`` guard), and the exit
code is 1 when any other statement is listed, as a run of part of the
suite will.  The exit code is pytest's when that is not 0, so a list made
from failing tests is not mistaken for a clean one.

    python scripts/line_trace.py
    python scripts/line_trace.py tests/test_quadrature.py
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "penroselab"
# (file, first source line) of each statement no test can run, with how many there are
KNOWN = Counter({("cli.py", "raise SystemExit(main())"): 1})


def statement_lines(path: Path) -> dict[int, int]:
    """Each traceable line of the file, mapped to the first line of the innermost statement that holds it."""
    source = path.read_text()
    owner: dict[int, int] = {}
    for node in ast.walk(ast.parse(source)):  # breadth first: a nested statement overwrites its parent
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            owner.update(dict.fromkeys(range(first, node.end_lineno + 1), first))
    traceable, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        traceable.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {line: owner[line] for line in traceable if line in owner}


def trace(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest in process; return its exit code and the (file, line) pairs run in the package."""
    ran: set[tuple[str, int]] = set()
    root = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(enter)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    code, ran = trace(argv or [str(REPO / "tests")])
    listed: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statement_lines(path)
        run = {lines[line] for name, line in ran if name == str(path) and line in lines}
        source = path.read_text().splitlines()
        for first in sorted(set(lines.values()) - run):
            text = source[first - 1].strip()
            listed[path.name, text] += 1
            print(f"{path.relative_to(REPO)}:{first}  {text}")
    unknown, known = sum((listed - KNOWN).values()), sum(KNOWN.values())
    if unknown:
        print(f"line_trace: {unknown} statement(s) run by no test beyond the {known} known one{'s' * (known != 1)}")
    return code or int(unknown > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
