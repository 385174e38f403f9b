"""The alignment-list scan as it stood before its one-pass decoder: the
differential tests hold ``alignment._first_list_literal`` to this copy."""

from __future__ import annotations

import ast
import json


def _first_list_literal(raw: str) -> list | None:
    """Scan for the first balanced ``[...]`` span that decodes as a list."""
    i = 0
    n = len(raw)
    while i < n:
        start = raw.find("[", i)
        if start < 0:
            return None
        end = _match_bracket(raw, start)
        if end is None:
            i = start + 1
            continue
        candidate = raw[start : end + 1]
        for decoder in (ast.literal_eval, json.loads):
            try:
                value = decoder(candidate)
            except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
                continue
            if isinstance(value, list):
                return value
        i = start + 1
    return None


def _match_bracket(raw: str, start: int) -> int | None:
    depth = 0
    quote: str | None = None
    i = start
    n = len(raw)
    while i < n:
        ch = raw[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None
