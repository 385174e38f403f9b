"""Execution-based evaluation: read-only SQLite execution with a timeout,
execution-accuracy comparison, skeleton accuracy, and the four-way error
breakdown (table / column / skeleton / execution).

Result comparison follows the usual Spider conventions: column order is
significant, rows compare as ordered sequences only when the gold query has
a top-level ORDER BY (multisets otherwise), numbers match within an absolute
tolerance of 1e-6, strings exactly, and NULL only equals NULL.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass, field

from .alignment import Alignment, score_alignment
from .datasets import Example
from .errors import EvaluationError
from .schema import SchemaCatalog
from .sql_analysis import (
    Skeleton,
    extract_entities,
    extract_skeleton,
    is_ordered,
    skeletons_equal,
    tokenize_sql,
)

DEFAULT_TIMEOUT = 30.0
# A result with more rows fails with ``too_many_rows``, so a runaway join
# cannot exhaust memory before the timeout fires.
MAX_RESULT_ROWS = 100_000
NUMERIC_TOLERANCE = 1e-6

TABLE_ERROR = "table_error"
COLUMN_ERROR = "column_error"
SKELETON_ERROR = "skeleton_error"
EXECUTION_ERROR = "execution_error"
ERROR_CATEGORIES = (TABLE_ERROR, COLUMN_ERROR, SKELETON_ERROR, EXECUTION_ERROR)

# Everything else, ATTACH, PRAGMA and temporary tables included, is refused
# while a statement is prepared, so model-written SQL cannot write anywhere.
_ALLOWED_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE}
)


def _authorize(action: int, *_) -> int:
    return sqlite3.SQLITE_OK if action in _ALLOWED_ACTIONS else sqlite3.SQLITE_DENY


@dataclass
class ExecutionResult:
    status: str  # ok | engine_error | timeout | too_many_rows
    rows: list[tuple] | None = None
    error_message: str | None = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def execute_sql(
    sql: str, catalog: SchemaCatalog, timeout: float = DEFAULT_TIMEOUT
) -> ExecutionResult:
    """Run a query against the catalog's SQLite file on a fresh read-only
    connection that authorizes only reads (a refused statement fails with
    ``not authorized``); long queries are interrupted once *timeout*
    passes, and at most ``MAX_RESULT_ROWS`` rows are fetched."""
    if catalog.source_path is None:
        raise EvaluationError(f"catalog {catalog.db_id} has no SQLite source path")
    started = time.monotonic()
    if not sql or not sql.strip():
        return ExecutionResult(status="engine_error", error_message="empty SQL statement")
    try:
        conn = sqlite3.connect(f"file:{catalog.source_path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        return ExecutionResult(status="engine_error", error_message=str(exc))
    conn.set_authorizer(_authorize)
    if hasattr(conn, "setlimit"):  # Python >= 3.11
        conn.setlimit(sqlite3.SQLITE_LIMIT_ATTACHED, 0)
    deadline = started + timeout
    timed_out = False

    def _watchdog():
        nonlocal timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return 1
        return 0

    conn.set_progress_handler(_watchdog, 10_000)
    try:
        rows = conn.execute(sql).fetchmany(MAX_RESULT_ROWS + 1)
        if len(rows) > MAX_RESULT_ROWS:
            return ExecutionResult(
                status="too_many_rows",
                error_message=f"result has more than {MAX_RESULT_ROWS} rows",
                elapsed=time.monotonic() - started,
            )
        return ExecutionResult(status="ok", rows=rows, elapsed=time.monotonic() - started)
    except sqlite3.Error as exc:
        elapsed = time.monotonic() - started
        if timed_out:
            return ExecutionResult(status="timeout", error_message=str(exc), elapsed=elapsed)
        return ExecutionResult(status="engine_error", error_message=str(exc), elapsed=elapsed)
    except Exception as exc:  # e.g. overflow converting huge integers
        return ExecutionResult(
            status="engine_error", error_message=str(exc), elapsed=time.monotonic() - started
        )
    finally:
        conn.close()


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return abs(float(a) - float(b)) <= NUMERIC_TOLERANCE
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


def results_match(
    predicted: ExecutionResult, gold: ExecutionResult, gold_sql: str
) -> bool:
    """Execution-accuracy verdict for one example."""
    if not predicted.ok or not gold.ok:
        return False
    left = predicted.rows or []
    right = gold.rows or []
    if len(left) != len(right):
        return False
    if not is_ordered(gold_sql):
        left = sorted(left, key=_sort_key)
        right = sorted(right, key=_sort_key)
    return all(_rows_equal(a, b) for a, b in zip(left, right))


def skeleton_accuracy(records: list[tuple[str, str]]) -> float:
    """Fraction of (source_sql, gold_sql) pairs whose skeletons agree; an
    untokenizable source counts as a non-match."""
    if not records:
        return 0.0
    matches = 0
    for source, gold_sql in records:
        gold_skeleton = extract_skeleton(gold_sql)
        try:
            source_skeleton = extract_skeleton(source)
        except Exception:
            continue
        if skeletons_equal(source_skeleton, gold_skeleton):
            matches += 1
    return matches / len(records)


def classify_errors(
    predicted_sql: str,
    gold_sql: str,
    catalog: SchemaCatalog,
    gold_skeleton: Skeleton,
    predicted_execution: ExecutionResult | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> set[str]:
    """Error categories for a non-matching prediction; an untokenizable
    prediction lands in all four."""
    tokenize_sql(gold_sql)  # gold must be analyzable; let errors propagate
    try:
        predicted_entities = extract_entities(predicted_sql, catalog)
        predicted_skeleton = extract_skeleton(predicted_sql)
    except Exception:
        return set(ERROR_CATEGORIES)
    categories: set[str] = set()
    gold_entities = extract_entities(gold_sql, catalog)
    if not gold_entities.tables <= predicted_entities.tables:
        categories.add(TABLE_ERROR)
    if not gold_entities.columns <= predicted_entities.columns:
        categories.add(COLUMN_ERROR)
    if not skeletons_equal(predicted_skeleton, gold_skeleton):
        categories.add(SKELETON_ERROR)
    if predicted_execution is None:
        predicted_execution = execute_sql(predicted_sql, catalog, timeout=timeout)
    if not predicted_execution.ok:
        categories.add(EXECUTION_ERROR)
    return categories


@dataclass
class EvalRecord:
    example_id: str
    predicted_sql: str
    gold_sql: str
    ex_match: bool
    ex_match_initial: bool
    error_categories: set[str] = field(default_factory=set)
    error_categories_initial: set[str] = field(default_factory=set)


@dataclass
class Report:
    record_count: int
    ex_accuracy: float | None
    ex_accuracy_initial: float | None
    ex_delta: float | None
    skeleton_accuracy: float | None
    parsed_skeleton_accuracy: float | None
    error_histogram: dict[str, dict[str, int]]
    linking_scores: dict | None = None
    per_hardness: dict[str, dict] = field(default_factory=dict)
    invalid_gold: list[str] = field(default_factory=list)
    records: list[EvalRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "record_count": self.record_count,
            "ex_accuracy": self.ex_accuracy,
            "ex_accuracy_initial": self.ex_accuracy_initial,
            "ex_delta": self.ex_delta,
            "skeleton_accuracy": self.skeleton_accuracy,
            "parsed_skeleton_accuracy": self.parsed_skeleton_accuracy,
            "error_histogram": self.error_histogram,
            "linking_scores": self.linking_scores,
            "per_hardness": self.per_hardness,
            "invalid_gold": self.invalid_gold,
        }


def evaluate_run(
    traces: list[dict],
    dataset: list[Example],
    catalogs: dict[str, SchemaCatalog],
    timeout: float = DEFAULT_TIMEOUT,
) -> Report:
    """Score a trace file against its dataset: EX over the final SQL, EX over
    the initial SQL (the no-correction baseline), skeleton accuracy, and the
    error histogram before and after correction."""
    by_id = {example.example_id: example for example in dataset}
    unknown = [t.get("example_id") for t in traces if t.get("example_id") not in by_id]
    if unknown:
        raise EvaluationError(f"traces reference unknown example ids: {unknown}")

    records: list[EvalRecord] = []
    invalid_gold: list[str] = []
    skeleton_hits = 0
    parsed_total = 0
    parsed_hits = 0
    histogram = {
        "initial": {category: 0 for category in ERROR_CATEGORIES},
        "final": {category: 0 for category in ERROR_CATEGORIES},
    }
    macro_scores: list = []
    hardness: dict[str, dict] = {}

    for trace in traces:
        example = by_id[trace["example_id"]]
        if not example.gold_sql:
            invalid_gold.append(example.example_id)
            continue
        catalog = catalogs.get(example.db_id)
        if catalog is None:
            raise EvaluationError(f"no catalog loaded for db_id {example.db_id!r}")
        gold_result = execute_sql(example.gold_sql, catalog, timeout=timeout)
        if not gold_result.ok:
            invalid_gold.append(example.example_id)
            continue
        gold_skeleton = extract_skeleton(example.gold_sql)

        initial_sql = trace.get("initial_sql") or ""
        final_sql = trace.get("final_sql") or ""
        # A trace with no rounds has final == initial; the same text is run
        # once per trace. Results are not kept across traces: they hold rows.
        results = {example.gold_sql: gold_result}
        for sql in (initial_sql, final_sql):
            if sql not in results:
                results[sql] = execute_sql(sql, catalog, timeout=timeout)
        initial_result = results[initial_sql]
        final_result = results[final_sql]
        ex_initial = results_match(initial_result, gold_result, example.gold_sql)
        ex_final = results_match(final_result, gold_result, example.gold_sql)

        record = EvalRecord(
            example_id=example.example_id,
            predicted_sql=final_sql,
            gold_sql=example.gold_sql,
            ex_match=ex_final,
            ex_match_initial=ex_initial,
        )
        if not ex_initial:
            record.error_categories_initial = classify_errors(
                initial_sql, example.gold_sql, catalog, gold_skeleton,
                predicted_execution=initial_result, timeout=timeout,
            )
            for category in record.error_categories_initial:
                histogram["initial"][category] += 1
        if not ex_final:
            record.error_categories = classify_errors(
                final_sql, example.gold_sql, catalog, gold_skeleton,
                predicted_execution=final_result, timeout=timeout,
            )
            for category in record.error_categories:
                histogram["final"][category] += 1
        records.append(record)

        try:
            if skeletons_equal(extract_skeleton(initial_sql), gold_skeleton):
                skeleton_hits += 1
        except Exception:
            pass
        parsed = trace.get("parsed_skeleton")
        if parsed is not None:
            parsed_total += 1
            if skeletons_equal(Skeleton(parsed), gold_skeleton):
                parsed_hits += 1

        if example.gold_alignment is not None and trace.get("alignment") is not None:
            predicted_alignment = Alignment.from_records(
                trace["alignment"], question=example.gold_alignment.question
            )
            macro_scores.append(score_alignment(predicted_alignment, example.gold_alignment))

        if example.hardness_label:
            bucket = hardness.setdefault(
                example.hardness_label, {"count": 0, "ex_initial": 0, "ex_final": 0}
            )
            bucket["count"] += 1
            bucket["ex_initial"] += int(ex_initial)
            bucket["ex_final"] += int(ex_final)

    count = len(records)
    linking = None
    if macro_scores:
        linking = {
            "precision": sum(s.macro.precision for s in macro_scores) / len(macro_scores),
            "recall": sum(s.macro.recall for s in macro_scores) / len(macro_scores),
            "f1": sum(s.macro.f1 for s in macro_scores) / len(macro_scores),
            "scored_examples": len(macro_scores),
        }
    return Report(
        record_count=count,
        ex_accuracy=(sum(r.ex_match for r in records) / count) if count else None,
        ex_accuracy_initial=(sum(r.ex_match_initial for r in records) / count) if count else None,
        ex_delta=(
            (sum(r.ex_match for r in records) - sum(r.ex_match_initial for r in records)) / count
        )
        if count
        else None,
        skeleton_accuracy=(skeleton_hits / count) if count else None,
        parsed_skeleton_accuracy=(parsed_hits / parsed_total) if parsed_total else None,
        error_histogram=histogram,
        linking_scores=linking,
        per_hardness=hardness,
        invalid_gold=invalid_gold,
        records=records,
    )
