"""Execution-based evaluation: execution-accuracy comparison, skeleton
accuracy, and the four-way error breakdown (table / column / skeleton /
execution). Queries run through ``execution.execute_sql``; one
``evaluate_run`` call keeps one connection per database file.

Result comparison follows the usual Spider conventions: column order is
significant, rows compare as ordered sequences only when the gold query has
a top-level ORDER BY (multisets otherwise), numbers match within an absolute
tolerance of 1e-6, strings exactly, and NULL only equals NULL.

Each scored trace becomes one ``EvalRecord`` holding every fact the report
summarises, and each report field is a fold over those records. The gold
query and each distinct predicted text of a trace are analysed at most once.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field

from .alignment import LinkingScore, score_alignment
from .datasets import Example
from .errors import EvaluationError
from .execution import Connections, ExecutionResult, execute_sql
from .pipeline import CorrectionTrace
from .schema import SchemaCatalog
from .sql_analysis import SqlAnalysis, analyze_sql, entities_of

NUMERIC_TOLERANCE = 1e-6

TABLE_ERROR = "table_error"
COLUMN_ERROR = "column_error"
SKELETON_ERROR = "skeleton_error"
EXECUTION_ERROR = "execution_error"
ERROR_CATEGORIES = (TABLE_ERROR, COLUMN_ERROR, SKELETON_ERROR, EXECUTION_ERROR)


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


def results_match(predicted: ExecutionResult, gold: ExecutionResult, ordered: bool) -> bool:
    """Execution-accuracy verdict for one example; *ordered* is the gold
    query's top-level ORDER BY flag (``SqlAnalysis.ordered``), under which
    rows compare as sequences rather than multisets."""
    if not predicted.ok or not gold.ok:
        return False
    left = predicted.rows or []
    right = gold.rows or []
    if len(left) != len(right):
        return False
    if left == right and _exact_cells(left) and _exact_cells(right):
        return True
    if not ordered:
        left = sorted(left, key=_sort_key)
        right = sorted(right, key=_sort_key)
    return all(_rows_equal(a, b) for a, b in zip(left, right))


def classify_errors(
    predicted: SqlAnalysis,
    gold: SqlAnalysis,
    catalog: SchemaCatalog,
    predicted_execution: ExecutionResult,
) -> set[str]:
    """Error categories for a non-matching prediction, from the analyses of
    the predicted and the gold query. A prediction that does not tokenize
    lands in all four."""
    if not predicted.tokenizes:
        return set(ERROR_CATEGORIES)
    gold_entities = entities_of(gold, catalog)
    predicted_entities = entities_of(predicted, catalog)
    categories: set[str] = set()
    if not gold_entities.tables <= predicted_entities.tables:
        categories.add(TABLE_ERROR)
    if not gold_entities.columns <= predicted_entities.columns:
        categories.add(COLUMN_ERROR)
    if predicted.skeleton != gold.skeleton:
        categories.add(SKELETON_ERROR)
    if not predicted_execution.ok:
        categories.add(EXECUTION_ERROR)
    return categories


@dataclass(slots=True)
class EvalRecord:
    """One example's verdicts and the facts the report summarises."""

    example_id: str
    predicted_sql: str
    gold_sql: str
    ex_match: bool
    ex_match_initial: bool
    error_categories: set[str] = field(default_factory=set)
    error_categories_initial: set[str] = field(default_factory=set)
    hardness: str | None = None
    skeleton_hit: bool = False  # the initial SQL's skeleton is the gold's
    parsed_skeleton_hit: bool | None = None  # None: the trace parsed no skeleton
    linking: LinkingScore | None = None  # None: no predicted or no gold alignment


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
        return {name: value for name, value in vars(self).items() if name != "records"}


def evaluate_run(
    traces: list[dict],
    dataset: list[Example],
    catalogs: dict[str, SchemaCatalog],
) -> Report:
    """Score a trace file against its dataset: one ``EvalRecord`` per trace
    whose gold query runs and tokenizes, the rest listed in ``invalid_gold``
    (a gold query whose ``db_id`` has no catalog does not run); ``_report``
    folds them into every report field. Each trace is a dict
    ``CorrectionTrace.to_dict`` writes, decoded by ``from_dict`` as the walk
    reaches it: one it refuses is a ``MalformedDatasetError``. Traces whose
    ``example_id`` is not in *dataset* are an ``EvaluationError`` listing
    them all."""
    by_id = {example.example_id: example for example in dataset}
    records: list[EvalRecord] = []
    invalid_gold: list[str] = []
    unknown: list[str] = []
    with closing(Connections()) as connections:
        for record in traces:
            trace = CorrectionTrace.from_dict(record)
            example = by_id.get(trace.example_id)
            if example is None:
                unknown.append(trace.example_id)
                continue
            gold_sql = example.gold_sql
            catalog = catalogs.get(example.db_id)
            if not gold_sql or catalog is None:  # no gold query, or none that can run
                invalid_gold.append(example.example_id)
                continue
            gold_result = execute_sql(gold_sql, catalog, connections=connections)
            # Analysed only once SQLite has run it; the tokenizer may still reject it.
            gold = analyze_sql(gold_sql) if gold_result.ok else None
            if gold is None or not gold.tokenizes:
                invalid_gold.append(example.example_id)
                continue
            initial_sql, final_sql = trace.initial_sql, trace.final_sql
            initial = gold if initial_sql == gold_sql else analyze_sql(initial_sql)
            # (ex_match, error_categories) of each distinct text: a trace with no
            # rounds has final == initial, and the text is scored once. Verdicts
            # are not kept across traces; a text equal to the gold reuses its rows
            # and its analysis. The final text is analysed only to classify a miss.
            verdicts: dict[str, tuple[bool, set[str]]] = {}
            for text in (initial_sql, final_sql):
                if text not in verdicts:
                    result = (gold_result if text == gold_sql
                              else execute_sql(text, catalog, connections=connections))
                    if results_match(result, gold_result, gold.ordered):
                        verdicts[text] = (True, set())
                    else:
                        analysis = (initial if text == initial_sql
                                    else gold if text == gold_sql else analyze_sql(text))
                        verdicts[text] = (False, classify_errors(
                            analysis, gold, catalog, predicted_execution=result,
                        ))
            parsed = trace.parsed_skeleton
            linking = None
            if example.gold_alignment is not None and trace.alignment is not None:
                linking = score_alignment(trace.alignment, example.gold_alignment)
            records.append(EvalRecord(
                example_id=example.example_id,
                predicted_sql=final_sql,
                gold_sql=gold_sql,
                ex_match=verdicts[final_sql][0],
                ex_match_initial=verdicts[initial_sql][0],
                error_categories=verdicts[final_sql][1],
                error_categories_initial=verdicts[initial_sql][1],
                hardness=example.hardness_label,
                skeleton_hit=initial.tokenizes and initial.skeleton == gold.skeleton,
                parsed_skeleton_hit=None if parsed is None else parsed == gold.skeleton,
                linking=linking,
            ))
    if unknown:
        raise EvaluationError(f"traces reference unknown example ids: {unknown}")
    return _report(records, invalid_gold)


def _mean(values: list) -> float | None:
    total = 0.0  # added left to right: from Python 3.12, sum() compensates rounding
    for value in values:
        total += value
    return total / len(values) if values else None


def _report(records: list[EvalRecord], invalid_gold: list[str]) -> Report:
    """Every report field, folded from the records."""
    per_hardness: dict[str, dict] = {}
    for r in records:
        if r.hardness:
            bucket = per_hardness.setdefault(
                r.hardness, {"count": 0, "ex_initial": 0, "ex_final": 0}
            )
            bucket["count"] += 1
            bucket["ex_initial"] += r.ex_match_initial
            bucket["ex_final"] += r.ex_match
    scores = [r.linking.macro for r in records if r.linking is not None]
    return Report(
        record_count=len(records),
        ex_accuracy=_mean([r.ex_match for r in records]),
        ex_accuracy_initial=_mean([r.ex_match_initial for r in records]),
        ex_delta=_mean([r.ex_match - r.ex_match_initial for r in records]),
        skeleton_accuracy=_mean([r.skeleton_hit for r in records]),
        parsed_skeleton_accuracy=_mean(
            [r.parsed_skeleton_hit for r in records if r.parsed_skeleton_hit is not None]
        ),
        error_histogram={
            stage: {c: sum(c in categories for categories in column) for c in ERROR_CATEGORIES}
            for stage, column in (("initial", [r.error_categories_initial for r in records]),
                                  ("final", [r.error_categories for r in records]))
        },
        linking_scores={
            "precision": _mean([s.precision for s in scores]),
            "recall": _mean([s.recall for s in scores]),
            "f1": _mean([s.f1 for s in scores]),
            "scored_examples": len(scores),
        } if scores else None,
        per_hardness=per_hardness,
        invalid_gold=invalid_gold,
        records=records,
    )
