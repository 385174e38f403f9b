"""A stdlib line tracer for the ``src/sqlmend`` package, as a pytest plugin.

Run tier-1 under it with the ``tests`` directory on the path::

    PYTHONPATH=src:tests python -m pytest -q -p support.linetrace

It notes every line of the package that runs in the test process, worker
threads included, and at the end of the session lists each function-body
line that never ran and is not in ``linetrace_allowlist.txt``; any such
line fails the session. A line counts as a function-body line when a
function's code object (a lambda, comprehension or generator too, but not a
module or class body, which run at import) holds an instruction on it; the
``def`` line itself does not count. Tests run in a subprocess are not
traced, so a line only they run counts as not run.

The allowlist holds one line per entry, ``<file>: <the line's code, stripped>
# <reason>``, where ``<file>`` is relative to ``src/sqlmend``. Entries key on
the code, not the line number, so an edit elsewhere does not move them; an
entry whose line ran, or that names no line, is listed and fails the session
too, so the list only holds what is still needed.

The tracer is ``sys.settrace``, with ``threading.settrace`` for threads
started later. It is set again before each test's setup, call and teardown,
because a test or a library (hypothesis, say) may replace it.
"""

from __future__ import annotations

import inspect
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "sqlmend"
ALLOWLIST = Path(__file__).resolve().with_name("linetrace_allowlist.txt")


def function_body_lines(code) -> set[int]:
    """The lines of every function nested in *code*, the code of a module
    or class body, each without its ``def`` line."""
    lines: set[int] = set()
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a body
                lines.update(line for _, _, line in const.co_lines()
                             if line is not None and line != const.co_firstlineno)
            lines |= function_body_lines(const)
    return lines


def read_allowlist(path: Path) -> list[tuple[str, str, str]]:
    """The ``(file, code, reason)`` entries of the allowlist at *path*;
    blank lines and lines starting with ``#`` are skipped. An entry with
    no reason is a ``ValueError``."""
    entries = []
    with path.open(encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip() or line.startswith("#"):
                continue
            name, _, rest = line.partition(": ")
            code, _, reason = rest.rpartition("  # ")
            if not (name and code.strip() and reason.strip()):
                raise ValueError(f"{path}: line {number}: expected '<file>: <code>  # <reason>'")
            entries.append((name, code.strip(), reason.strip()))
    return entries


class LineTracer:
    """Notes the lines run in the package under *root*, and checks them
    against *allowlist* when the session ends."""

    def __init__(self, root: Path, allowlist: Path):
        self.root = root
        self.allowlist = allowlist
        self.ran: dict[str, set[int]] = {}  # package file: the lines run
        self._files: dict[str, set[int] | None] = {}  # co_filename: its set
        self.problems: list[str] = []

    def _lines_of(self, filename: str) -> set[int] | None:
        try:
            return self._files[filename]
        except KeyError:
            path = Path(filename).resolve()
            lines = None
            if path.suffix == ".py" and path.is_relative_to(self.root):
                lines = self.ran.setdefault(str(path.relative_to(self.root)), set())
            self._files[filename] = lines
            return lines

    def trace(self, frame, event, arg):
        lines = self._lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def install(self) -> None:
        sys.settrace(self.trace)
        threading.settrace(self.trace)

    def unrun(self) -> dict[str, dict[int, str]]:
        """Each package file's function-body lines that never ran, as
        ``{file: {line number: code}}``."""
        missing = {}
        for path in sorted(self.root.rglob("*.py")):
            name = str(path.relative_to(self.root))
            source = path.read_text(encoding="utf-8")
            text = source.splitlines()
            lines = function_body_lines(compile(source, str(path), "exec"))
            lines -= self.ran.get(name, set())
            if lines:
                missing[name] = {line: text[line - 1].strip() for line in sorted(lines)}
        return missing

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        self.install()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        self.install()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(self, item):
        self.install()
        yield

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        allowed = read_allowlist(self.allowlist)
        unrun = self.unrun()
        for name, lines in unrun.items():
            codes = {code for file, code, _ in allowed if file == name}
            self.problems += [f"{name}:{line}: not run: {code}"
                              for line, code in lines.items() if code not in codes]
        for name, code, _ in allowed:
            if code not in unrun.get(name, {}).values():
                self.problems.append(f"{name}: allowlisted, but no unrun line reads: {code}")
        if self.problems and session.exitstatus == 0:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("line trace")
        total = sum(len(lines) for lines in self.ran.values())
        terminalreporter.write_line(f"{total} lines of {self.root.name} ran")
        for problem in self.problems:
            terminalreporter.write_line(problem)
        if not self.problems:
            terminalreporter.write_line("every function-body line ran or is allowlisted")


def pytest_configure(config):
    tracer = LineTracer(PACKAGE, ALLOWLIST)
    config.pluginmanager.register(tracer, "sqlmend-linetrace")
    tracer.install()
