"""Reference evaluation: ``evaluation.evaluate_run``, ``classify_errors``
and ``_same_skeleton`` before the report became one fold over its records.
The loop keeps six accumulators beside the records, and re-analyses the gold
query and each predicted text wherever a fact needs it. Kept verbatim so that
the report, and each record field it had, can be compared with it on any
traces."""

from __future__ import annotations

from contextlib import closing

from sqlmend.alignment import Alignment, score_alignment
from sqlmend.datasets import Example
from sqlmend.errors import EvaluationError, SqlMendError
from sqlmend.evaluation import (
    COLUMN_ERROR,
    ERROR_CATEGORIES,
    EXECUTION_ERROR,
    SKELETON_ERROR,
    TABLE_ERROR,
    EvalRecord,
    ExecutionResult,
    Report,
    execute_sql,
    results_match,
)
from sqlmend.execution import Connections, using
from sqlmend.schema import SchemaCatalog
from sqlmend.sql_analysis import analyze_sql, extract_entities, extract_skeleton


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

    with closing(Connections()) as connections, using(connections):
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
                    if results_match(result, gold_result,
                                     analyze_sql(example.gold_sql).ordered):
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
