"""A pytest plugin that prints every line of ``src/czfkit`` that a test run
never executes.

Pytest does not collect this file; load it by name, on request only::

    PYTHONPATH=src:tests python -m pytest -p linetrace

A module's executable lines are the line numbers of its code objects,
nested ones included (``co_lines``).  The plugin traces with
``sys.settrace`` and ``threading.settrace`` from the moment it is loaded,
so module bodies run at collection count, and installs the trace again
before each test.  A ``RecursionError`` raised inside the trace callback
turns tracing off for the rest of that test, so the lines that run after
one in the same test read as unrun.  Code run in a subprocess, such as the
CLI's ``main``, is not traced.  Hypothesis deadlines are switched off, as
tracing slows every test down.
"""

from __future__ import annotations

import os
import pathlib
import sys
import threading
import types

import hypothesis

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "czfkit"

_executed: set[tuple[str, int]] = set()
_ours: dict[str, str | None] = {}  # co_filename -> resolved path, or None


def _path(filename: str) -> str | None:
    if filename not in _ours:
        path = os.path.realpath(filename)
        _ours[filename] = path if path.startswith(str(PACKAGE)) else None
    return _ours[filename]


def _local(frame, event, arg):
    if event == "line":
        _executed.add((_ours[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    path = _path(code.co_filename)
    if path is None:
        return None
    # The first line of a code object runs on entry, before any line event.
    _executed.add((path, code.co_firstlineno))
    return _local


def _install():
    sys.settrace(_global)
    threading.settrace(_global)


def _lines(code: types.CodeType) -> set[int]:
    out = {line for _, _, line in code.co_lines() if line}
    for c in code.co_consts:
        if isinstance(c, types.CodeType):
            out |= _lines(c)
    return out


def unrun() -> list[tuple[str, int, str]]:
    """(module file name, line number, source text) of every executable
    line of the package that has not run, in file and line order."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in _executed:
                out.append((path.name, line, text[line - 1].strip()))
    return out


def pytest_configure(config):
    hypothesis.settings.register_profile("linetrace", deadline=None)
    hypothesis.settings.load_profile("linetrace")


def pytest_runtest_setup(item):
    _install()


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    lines = unrun()
    terminalreporter.section(f"{len(lines)} lines of src/czfkit never run")
    for name, line, text in lines:
        terminalreporter.write_line(f"{name}:{line}: {text}")


_install()
