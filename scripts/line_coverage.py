#!/usr/bin/env python3
"""List the statements of src/stochorder that a pytest run never executes.

Runs pytest in this process under a line tracer of the standard library
(sys.settrace and threading.settrace; no coverage package), then prints one
line per module of the package: how many of its statements never ran, and
where.  A statement counts as run if the tracer saw any line of it: any line
of a simple statement, any line of the header of a compound one (if, for,
def, ...).  Statements that compile to no code, such as docstrings, are not
counted.  A line holds one verdict, so a lambda that never ran, or the body
of `if x: y` on one line, counts as run with the line.  Code in a child
process (the subprocesses that some tests start, such as the CLI's) is not
traced.  Each range printed spans a run of consecutive statements that
never ran, from the first line of the first to the last line of the last.

    python3 scripts/line_coverage.py
    python3 scripts/line_coverage.py tests/test_orders.py -k Normal

The arguments go to pytest; with none, it runs the whole suite in tests/.
The exit status is pytest's.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stochorder"
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_ARGS = ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]


def traced_pytest(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest on args under the tracer: its exit status, and the lines run
    in each module of the package."""
    import pytest  # loaded untraced

    ran: dict[Path, set[int]] = {}
    ours: dict[str, Path | None] = {}  # co_filename -> module of the package, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = Path(os.path.abspath(name))
            ours[name] = path if path.parent == PACKAGE else None
        path = ours[name]
        if path is None:
            return None
        lines = ran.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def statements(path: Path) -> list[range]:
    """The line span of each statement of a module that compiles to code, in
    order: all its lines for a simple statement, its header's for a compound one."""
    source = path.read_text()
    code_lines = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            span = range(node.lineno, end + 1)
            if code_lines.intersection(span):
                spans.setdefault(node.lineno, span)
    return [spans[first] for first in sorted(spans)]


def never_ran(spans: list[range], lines: set[int]) -> list[tuple[int, int]]:
    """Runs of consecutive statements none of whose lines ran, as (first, last) lines."""
    runs: list[tuple[int, int]] = []
    prev_missed = False
    for span in spans:
        missed = lines.isdisjoint(span)
        if missed and prev_missed:
            runs[-1] = (runs[-1][0], span[-1])
        elif missed:
            runs.append((span[0], span[-1]))
        prev_missed = missed
    return runs


def report(ran: dict[Path, set[int]]) -> None:
    total = total_missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        spans = statements(path)
        lines = ran.get(path, set())
        missed = sum(lines.isdisjoint(span) for span in spans)
        runs = ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in never_ran(spans, lines))
        print(f"{path.relative_to(ROOT)}: {missed} of {len(spans)} statements never ran"
              + (f": {runs}" if runs else ""))
        total, total_missed = total + len(spans), total_missed + missed
    print(f"total: {total_missed} of {total} statements never ran")


def main(argv: list[str]) -> int:
    status, ran = traced_pytest(argv or DEFAULT_ARGS)
    report(ran)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
