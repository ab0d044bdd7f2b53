"""List the lines of src/crystal_ca that the test suite never runs.

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

Runs the suite in this process under a stdlib sys.settrace line tracer and
prints every never-run line as path:line, then the count per module.  It
starts no process of its own, so code the suite runs in subprocesses
(the console script, ``python -m crystal_ca``) shows up as never run.  The
file name does not match ``test_*.py``, so pytest does not collect it.
Expect the suite to run about five times slower under the tracer.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "crystal_ca"


def executable_lines(path: Path) -> set[int]:
    """The lines that carry bytecode, less each function's and class's own
    header line, which runs in the enclosing frame, and the module's line 0."""
    top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [top]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code is not top:
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if isinstance(c, type(top)))
    return lines


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args under the tracer; returns its exit code and the
    lines run per file of the package."""
    prefix = str(PKG) + os.sep
    hits: dict[str, set[int]] = {}
    mine: dict[str, str | None] = {}  # co_filename -> real path, or None if outside

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        path = mine.get(name, "")
        if path == "":
            real = os.path.realpath(name)
            path = mine[name] = real if real.startswith(prefix) else None
        if path is None:
            return None
        seen = hits.setdefault(path, set())

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return code, hits


def main(argv: list[str]) -> int:
    code, hits = trace_suite(argv or [str(ROOT / "tests")])
    total = 0
    counts = []
    for path in sorted(PKG.glob("*.py")):
        missed = sorted(executable_lines(path) - hits.get(str(path.resolve()), set()))
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}")
        counts.append((path.stem, len(missed)))
        total += len(missed)
    print(f"never run: {total} lines; "
          + ", ".join(f"{name} {n}" for name, n in counts if n))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
