"""The line tracer's own rules (``support.linetrace``): which lines count,
and what the allowlist accepts."""

from __future__ import annotations

import pytest

from support.linetrace import function_body_lines, read_allowlist

SOURCE = '''\
LIMIT = 1


class Box:
    size = 2

    def items(self):
        return [
            item for item in range(self.size)
        ]


def sign(value):
    """The sign of *value*."""
    if value < 0:
        return -1
    return 1
'''


def test_only_function_bodies_count():
    # Not the module or class body (lines 1-5), a ``def`` line (7, 13) or a
    # docstring (14); the comprehension's line (9) counts.
    assert function_body_lines(compile(SOURCE, "box.py", "exec")) == {8, 9, 15, 16, 17}


def test_allowlist_entries_need_a_reason(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# a comment\n\ncli.py: raise SystemExit(1)  # only a subprocess runs it\n",
                    encoding="utf-8")
    assert read_allowlist(path) == [("cli.py", "raise SystemExit(1)", "only a subprocess runs it")]
    path.write_text("cli.py: raise SystemExit(1)\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: expected"):
        read_allowlist(path)
