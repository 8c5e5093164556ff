"""List the statements of ``src/rombit`` that the test suite never runs.

    python tests/line_coverage.py [pytest arguments]

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` over
``tests/``, or over the arguments given) in this process under
``sys.settrace``, and ``threading.settrace`` for threads it starts, and
prints ``file:line: text`` for each statement of ``src/rombit/*.py`` that
holds bytecode and never ran, in file and line order.  pytest's own output
goes to stderr.  Code that runs in another process, a ``multiprocessing``
worker or a test's ``python -m rombit.cli`` subprocess, is not seen, so its
lines are listed unless an in-process test runs them too.  Exits 0 whatever
the tests do; the traced suite took 90-110 s on a 2-core host.  pytest
does not collect this file, as its name does not start with ``test_``.
"""

import ast
import contextlib
import os
import sys
import threading
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "rombit")


def statement_lines(path):
    """The lines of ``path`` that start a statement and hold bytecode, so a
    docstring or a ``global`` line, which compile to nothing, is left out."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    lines, codes = set(), [compile(text, path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return sorted(starts & lines)


def main(args):
    files = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                   if name.endswith(".py"))
    wanted = set(files)
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    os.chdir(ROOT)
    src = os.path.dirname(PACKAGE)
    sys.path.insert(0, src)  # and for the tests' subprocesses:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                         *(args or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line in statement_lines(path):
            if (path, line) not in ran:
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
