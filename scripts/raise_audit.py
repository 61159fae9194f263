"""Print every `raise` line of src/ltc_accel that the tier-1 suite never executes.

Usage: python scripts/raise_audit.py [PYTEST_ARGS ...]

Runs pytest in this process on this checkout's tests/ (or on PYTEST_ARGS)
under a line tracer that records only lines of src/ltc_accel/*.py, in the
main thread and in every thread started after it. Then, for each `raise`
statement of those files whose first line never ran, it prints

    src/ltc_accel/<module>.py:<line>: <exception> -> <exit>

where <exit> is what `cli.main` makes of that exception: the exit code of
its first handler whose class the exception derives from, "traceback" when
no handler takes it, or "as raised" for a bare `raise` or one of a stored
exception. The handlers are read from `cli.main`'s source, so the mapping
cannot drift from the CLI.

Exits 0 when it prints no line, 1 when it prints any, and 2 when the suite
itself fails, since then the lines that ran say nothing. The tracer slows
the suite a few times over, which is why this is a script and not a test.
"""

from __future__ import annotations

import ast
import builtins
import glob
import importlib
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ltc_accel")


def raise_lines(path: str) -> list:
    """(line, exception name or None) of every raise statement in path."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.append((node.lineno, exc.id if isinstance(exc, ast.Name) else None))
    return sorted(out)


def cli_handlers() -> list:
    """(exception classes, exit code) of each except clause of cli.main, in order."""
    cli = importlib.import_module("ltc_accel.cli")
    with open(cli.__file__, encoding="utf-8") as f:
        main = next(node for node in ast.parse(f.read()).body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = []
    for handler in (h for node in ast.walk(main) if isinstance(node, ast.Try)
                    for h in node.handlers):
        names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        code = next(node.value.value for node in handler.body
                    if isinstance(node, ast.Return))
        handlers.append((tuple(vars(cli).get(n.id) or getattr(builtins, n.id)
                               for n in names), code))
    return handlers


def exit_of(module, name, handlers) -> str:
    if name is None or not isinstance(cls := vars(module).get(name, getattr(
            builtins, name, None)), type):
        return "as raised"
    return next((str(code) for classes, code in handlers if issubclass(cls, classes)),
                "traceback")


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv[1:] or ["-q", "-p", "no:cacheprovider",
                                          os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"raise_audit: the suite failed (pytest exit {int(status)})", file=sys.stderr)
        return 2
    handlers, missed = cli_handlers(), 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = importlib.import_module("ltc_accel." + os.path.basename(path)[:-3])
        for line, name in raise_lines(path):
            if (module.__file__, line) not in ran:
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: {name or 'raise'} -> "
                      f"{exit_of(module, name, handlers)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
