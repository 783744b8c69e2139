"""Print the lines inside functions under src/ that a pytest selection
never runs, with no coverage package: standard library and pytest only.

Usage: python tools/unrun_lines.py [--root DIR] [pytest args ...]
(DIR defaults to src; the pytest args are passed on as given, so with
none pytest runs its configured suite from the working directory)

pytest runs in this process with ``sys.settrace`` and
``threading.settrace`` set, so the calling thread and every thread
started after it are traced, and only frames of files under DIR are
followed line by line.  DIR goes first on ``sys.path`` and on
``PYTHONPATH``, so that the subprocesses tests start (``python -m``, a
console script) import from it too; they are not traced.  Then each line
that starts a statement in a function, lambda or comprehension of a file
under DIR, other than its ``def`` line, and never ran is printed as
``path:line: qualified name``, and last their count; those lines are
read before pytest starts, so a file edited during the run is reported
against the lines that ran.  Module and class bodies are left out: they
run on import.  Process-pool children (a claim sweep with ``jobs`` above
1) are not traced, so a line that only they run is listed as never run.
The trace makes pytest several times slower.
"""

import argparse
import dis
import inspect
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def function_lines(path: Path) -> dict[int, str]:
    """Line -> qualified name for each statement-starting line of a
    function body in the file at ``path``, ``def`` lines left out."""
    lines: dict[int, str] = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            name = getattr(code, "co_qualname", code.co_name)
            for _, line in dis.findlinestarts(code):
                if line is not None and line != code.co_firstlineno:
                    lines.setdefault(line, name)
    return lines


def traced(files: set[str], run):
    """``run()`` under the line tracer, and the set of (real path, line)
    that ran in ``files`` (real paths)."""
    ran: set[tuple[str, int]] = set()
    follow: dict[str, str | None] = {}

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in follow:
            real = os.path.realpath(name)
            follow[name] = real if real in files else None
        return line if follow[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, {(follow[name], n) for name, n in ran}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--root", type=Path, default=ROOT / "src")
    args, pytest_args = parser.parse_known_args(argv)
    root = args.root.resolve()
    files = {os.path.realpath(p): p for p in sorted(root.rglob("*.py"))}
    sys.path.insert(0, str(root))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root), os.environ.get("PYTHONPATH")]))
    statements = {real: function_lines(path) for real, path in files.items()}
    import pytest

    code, ran = traced(set(files), lambda: pytest.main(pytest_args))
    unrun = [f"{os.path.relpath(path)}:{n}: {name}"
             for real, path in files.items()
             for n, name in sorted(statements[real].items())
             if (real, n) not in ran]
    print("\n".join(unrun))
    print(f"{len(unrun)} function lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
