"""Reference execution-accuracy comparison: ``evaluation.results_match``
before it settled identical row lists without a sort. Every pair of results
takes the sort-and-tolerance path; the comparison under test must return the
same verdict on every input."""

from __future__ import annotations

from sqlmend.evaluation import ExecutionResult

from support.order_by_reference import has_top_level_order_by


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return abs(float(a) - float(b)) <= 1e-6
    if type(a) is not type(b) and not (a_num and b_num):
        return False
    return a == b


def _rows_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(_cells_equal(x, y) for x, y in zip(a, b))


def _sort_key(row: tuple) -> tuple:
    key = []
    for cell in row:
        if cell is None:
            key.append((0, "", 0.0))
        elif isinstance(cell, bool):
            key.append((1, "", float(cell)))
        elif isinstance(cell, (int, float)):
            key.append((1, "", float(cell)))
        elif isinstance(cell, bytes):
            key.append((2, cell.hex(), 0.0))
        else:
            key.append((3, str(cell), 0.0))
    return tuple(key)


def results_match(predicted: ExecutionResult, gold: ExecutionResult, gold_sql: str) -> bool:
    if not predicted.ok or not gold.ok:
        return False
    left = predicted.rows or []
    right = gold.rows or []
    if len(left) != len(right):
        return False
    if not has_top_level_order_by(gold_sql):
        left = sorted(left, key=_sort_key)
        right = sorted(right, key=_sort_key)
    return all(_rows_equal(a, b) for a, b in zip(left, right))
