"""Execution-based evaluation: read-only SQLite execution with a timeout,
execution-accuracy comparison, skeleton accuracy, and the four-way error
breakdown (table / column / skeleton / execution).

Result comparison follows the usual Spider conventions: column order is
significant, rows compare as ordered sequences only when the gold query has
a top-level ORDER BY (multisets otherwise), numbers match within an absolute
tolerance of 1e-6, strings exactly, and NULL only equals NULL.
"""

from __future__ import annotations

import dataclasses
import math
import sqlite3
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path

from .alignment import Alignment, score_alignment
from .datasets import Example
from .errors import EvaluationError, SqlMendError
from .schema import SchemaCatalog
from .sql_analysis import extract_entities, extract_skeleton, is_ordered

DEFAULT_TIMEOUT = 30.0
# A result with more rows fails with ``too_many_rows``, so a runaway join
# cannot exhaust memory before the timeout fires.
MAX_RESULT_ROWS = 100_000
NUMERIC_TOLERANCE = 1e-6
# Page cache, in KiB, of each connection that evaluate_run keeps open for
# the whole call, one per database file: SQLite's default of 2,000 KiB would
# grow peak memory with the number of files, and the OS page cache serves
# the re-reads. A connection opened for a single query keeps the default,
# since it is closed at once and a smaller cache makes that query slower.
_KEPT_PAGE_CACHE_KIB = 1

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


class _Connections:
    """Read-only connections to SQLite files, one per path, kept until
    ``close``. Each gets its page cache size (SQLite's default when
    ``page_cache_kib`` is None), the allowlist authorizer, no attached
    databases and a watchdog once, when it opens; ``execute`` restarts the
    watchdog's deadline on every query. A connection that timed out or
    raised something other than ``sqlite3.Error`` is dropped."""

    def __init__(self, page_cache_kib: int | None = None) -> None:
        self._page_cache_kib = page_cache_kib
        self._open: dict[Path, sqlite3.Connection] = {}
        self._deadline = 0.0
        self._timed_out = False

    def _watchdog(self) -> int:
        if time.monotonic() > self._deadline:
            self._timed_out = True
            return 1
        return 0

    def _connect(self, path: Path) -> sqlite3.Connection:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        if self._page_cache_kib is not None:
            try:
                # Before the authorizer, which refuses every PRAGMA.
                conn.execute(f"PRAGMA cache_size = -{self._page_cache_kib}")
            except sqlite3.Error:
                conn.close()
                raise
        conn.set_authorizer(_authorize)
        if hasattr(conn, "setlimit"):  # Python >= 3.11
            conn.setlimit(sqlite3.SQLITE_LIMIT_ATTACHED, 0)
        conn.set_progress_handler(self._watchdog, 10_000)
        return conn

    def _drop(self, path: Path) -> None:
        self._open.pop(path).close()

    def execute(self, sql: str, path: Path, timeout: float) -> ExecutionResult:
        started = time.monotonic()
        if not sql or not sql.strip():
            return ExecutionResult(status="engine_error", error_message="empty SQL statement")
        conn = self._open.get(path)
        if conn is None:
            try:
                conn = self._open[path] = self._connect(path)
            except sqlite3.Error as exc:
                return ExecutionResult(status="engine_error", error_message=str(exc))
        self._deadline = started + timeout
        self._timed_out = False
        try:
            cursor = conn.cursor()
            try:
                rows = cursor.execute(sql).fetchmany(MAX_RESULT_ROWS + 1)
            finally:
                cursor.close()  # an unfinished read must not stay open on the connection
        except sqlite3.Error as exc:
            elapsed = time.monotonic() - started
            if self._timed_out:
                self._drop(path)
                return ExecutionResult(status="timeout", error_message=str(exc), elapsed=elapsed)
            return ExecutionResult(status="engine_error", error_message=str(exc), elapsed=elapsed)
        except Exception as exc:  # e.g. overflow converting huge integers
            self._drop(path)
            return ExecutionResult(
                status="engine_error", error_message=str(exc), elapsed=time.monotonic() - started
            )
        if len(rows) > MAX_RESULT_ROWS:
            return ExecutionResult(
                status="too_many_rows",
                error_message=f"result has more than {MAX_RESULT_ROWS} rows",
                elapsed=time.monotonic() - started,
            )
        return ExecutionResult(status="ok", rows=rows, elapsed=time.monotonic() - started)

    def close(self) -> None:
        for conn in self._open.values():
            conn.close()
        self._open.clear()


# The connections of the evaluate_run in progress in this context (each
# thread has its own), so that every query still goes through execute_sql.
_kept: ContextVar[_Connections | None] = ContextVar("sqlmend_connections", default=None)


@contextmanager
def _keeping_connections():
    connections = _Connections(_KEPT_PAGE_CACHE_KIB)
    token = _kept.set(connections)
    try:
        yield
    finally:
        _kept.reset(token)
        connections.close()


def execute_sql(
    sql: str, catalog: SchemaCatalog, timeout: float = DEFAULT_TIMEOUT
) -> ExecutionResult:
    """Run a query against the catalog's SQLite file on a read-only
    connection that authorizes only reads (a refused statement fails with
    ``not authorized``); long queries are interrupted once *timeout*
    passes, and at most ``MAX_RESULT_ROWS`` rows are fetched. Inside
    ``evaluate_run`` the connection is the one that call keeps open for the
    file; anywhere else it is opened for this query and closed after it."""
    if catalog.source_path is None:
        raise EvaluationError(f"catalog {catalog.db_id} has no SQLite source path")
    connections = _kept.get()
    if connections is not None:
        return connections.execute(sql, catalog.source_path, timeout)
    connections = _Connections()
    try:
        return connections.execute(sql, catalog.source_path, timeout)
    finally:
        connections.close()


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return abs(float(a) - float(b)) <= NUMERIC_TOLERANCE
    if type(a) is not type(b):
        return False
    return a == b


def _rows_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(_cells_equal(x, y) for x, y in zip(a, b))


def _sort_key(row: tuple) -> tuple:
    key = []
    for cell in row:
        if cell is None:
            key.append((0, "", 0.0))
        elif isinstance(cell, (int, float)):  # a bool is an int
            key.append((1, "", float(cell)))
        elif isinstance(cell, bytes):
            key.append((2, cell.hex(), 0.0))
        else:
            key.append((3, str(cell), 0.0))
    return tuple(key)


_EXACT_CELL_TYPES = frozenset({int, str, bytes, type(None)})


def _exact_cells(rows: list[tuple]) -> bool:
    """Whether every cell is an int, str, bytes, None or finite float: the
    cells on which Python's ``==`` agrees with ``_cells_equal``. It does not
    for bools (``True == 1``), infinities (``abs(inf - inf)`` is NaN) or a
    NaN compared with itself by identity."""
    for row in rows:
        for cell in row:
            if type(cell) is float:
                if not math.isfinite(cell):
                    return False
            elif type(cell) not in _EXACT_CELL_TYPES:
                return False
    return True


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
    if left == right and _exact_cells(left) and _exact_cells(right):
        return True
    if not is_ordered(gold_sql):
        left = sorted(left, key=_sort_key)
        right = sorted(right, key=_sort_key)
    return all(_rows_equal(a, b) for a, b in zip(left, right))


def _same_skeleton(sql: str, gold_skeleton: str) -> bool:
    """Whether ``sql`` masks to ``gold_skeleton``; False for text that does
    not tokenize."""
    try:
        return extract_skeleton(sql) == gold_skeleton
    except Exception:
        return False


def classify_errors(
    predicted_sql: str,
    gold_sql: str,
    catalog: SchemaCatalog,
    gold_skeleton: str,
    predicted_execution: ExecutionResult,
) -> set[str]:
    """Error categories for a non-matching prediction; an untokenizable
    prediction lands in all four."""
    gold_entities = extract_entities(gold_sql, catalog)  # errors propagate
    try:
        predicted_entities = extract_entities(predicted_sql, catalog)
    except Exception:
        return set(ERROR_CATEGORIES)
    categories: set[str] = set()
    if not gold_entities.tables <= predicted_entities.tables:
        categories.add(TABLE_ERROR)
    if not gold_entities.columns <= predicted_entities.columns:
        categories.add(COLUMN_ERROR)
    if not _same_skeleton(predicted_sql, gold_skeleton):
        categories.add(SKELETON_ERROR)
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
        """Every field except the per-example ``records``."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "records"
        }


def evaluate_run(
    traces: list[dict],
    dataset: list[Example],
    catalogs: dict[str, SchemaCatalog],
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
        stage: dict.fromkeys(ERROR_CATEGORIES, 0) for stage in ("initial", "final")
    }
    macro_scores: list = []
    hardness: dict[str, dict] = {}

    with _keeping_connections():
        for trace in traces:
            example = by_id[trace["example_id"]]
            if not example.gold_sql:
                invalid_gold.append(example.example_id)
                continue
            catalog = catalogs.get(example.db_id)
            if catalog is None:
                raise EvaluationError(f"no catalog loaded for db_id {example.db_id!r}")
            gold_result = execute_sql(example.gold_sql, catalog)
            try:
                gold_skeleton = extract_skeleton(example.gold_sql) if gold_result.ok else None
            except SqlMendError:
                gold_skeleton = None  # SQLite runs it, but the tokenizer rejects it
            if gold_skeleton is None:
                invalid_gold.append(example.example_id)
                continue

            initial_sql = trace.get("initial_sql") or ""
            final_sql = trace.get("final_sql") or ""
            # (ex_match, error_categories) of each distinct text: a trace with no
            # rounds has final == initial, and the text is scored once. Verdicts
            # are not kept across traces; a text equal to the gold reuses its rows.
            verdicts: dict[str, tuple[bool, set[str]]] = {}
            for stage, text in (("initial", initial_sql), ("final", final_sql)):
                if text not in verdicts:
                    result = (gold_result if text == example.gold_sql
                              else execute_sql(text, catalog))
                    if results_match(result, gold_result, example.gold_sql):
                        verdicts[text] = (True, set())
                    else:
                        verdicts[text] = (False, classify_errors(
                            text, example.gold_sql, catalog, gold_skeleton,
                            predicted_execution=result,
                        ))
                for category in verdicts[text][1]:
                    histogram[stage][category] += 1
            ex_initial, categories_initial = verdicts[initial_sql]
            ex_final, categories_final = verdicts[final_sql]
            records.append(EvalRecord(
                example_id=example.example_id,
                predicted_sql=final_sql,
                gold_sql=example.gold_sql,
                ex_match=ex_final,
                ex_match_initial=ex_initial,
                error_categories=categories_final,
                error_categories_initial=categories_initial,
            ))

            skeleton_hits += _same_skeleton(initial_sql, gold_skeleton)
            parsed = trace.get("parsed_skeleton")
            if parsed is not None:
                parsed_total += 1
                parsed_hits += parsed == gold_skeleton

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
