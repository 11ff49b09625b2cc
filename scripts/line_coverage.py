#!/usr/bin/env python3
"""Run the test suite in process under the standard library's ``trace`` and list unrun lines.

Prints every executable line of ``src/upbkit/*.py`` that no test ran, the
lines of modules that were never imported included, and exits 1 if it lists
any line or any test fails.  Only this process is traced: a test that runs
upbkit in a child process covers nothing here.

    python scripts/line_coverage.py

``trace`` is given no ``ignoredirs``: it caches its ignore verdict by module
basename, so ignoring numpy's or pytest's ``__init__.py`` would also drop
upbkit's ``__init__.py`` and ``__main__.py`` unseen.

A module's executable lines are read from its compiled code objects
(``co_lines``, nested ones through ``co_consts``); a module with none stops
the script, so a line table that comes back empty cannot pass.
"""

import pathlib
import sys
import trace
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "upbkit"  # pytest imports it from here: pyproject puts src/ on its path


def executable_lines(code: types.CodeType) -> set[int]:
    """Line numbers of ``code`` and of every code object nested in it."""
    # a module's code object starts at line 0 on Python 3.11, a line no trace event names
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def unrun_lines(counts: dict) -> dict[pathlib.Path, list[int]]:
    """Executable lines of each package module that ``counts`` never records, by file."""
    ran: dict[pathlib.Path, set[int]] = {}
    for filename, lineno in counts:
        ran.setdefault(pathlib.Path(filename).resolve(), set()).add(lineno)
    missing = {}
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
        if not executable:
            raise SystemExit(f"{path.relative_to(ROOT)}: no executable lines found")
        lines = sorted(executable - ran.get(path, set()))
        if lines:
            missing[path] = lines
    return missing


def run() -> int:
    import pytest  # imported before tracing starts; upbkit is first imported by the tests

    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missing = unrun_lines(tracer.results().counts)
    for path, lines in missing.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for lineno in lines:
            print(f"{path.relative_to(ROOT)}:{lineno}: {source[lineno - 1].strip()}")
    total = sum(len(lines) for lines in missing.values())
    print(f"{total} executable line(s) of {PACKAGE.relative_to(ROOT)} never ran; pytest exit status {int(status)}")
    return 1 if total or status != 0 else 0


if __name__ == "__main__":
    sys.exit(run())
