"""The evaluate report as a fold over its records.

``evaluate_run`` builds one ``EvalRecord`` per scored trace, carrying every
fact the report summarises, and one function folds the records into the
report. The differential test holds the report, and each record field the
earlier loop of side accumulators produced, to that loop
(``support/evaluate_reference.py``) on drawn traces over the mini benchmark;
the invariant test checks each report field against its fold.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqlmend.evaluation import ERROR_CATEGORIES, evaluate_run
from sqlmend.sql_analysis import extract_skeleton, tokenize_sql

from support import evaluate_reference

REJECTED = "SELECT `x` FROM t"  # SQLite runs backquotes; the tokenizer refuses them
ATTACH = "ATTACH DATABASE ':memory:' AS x"  # refused by the read-only authorizer
RECORD_FIELDS = (
    "example_id", "predicted_sql", "gold_sql", "ex_match", "ex_match_initial",
    "error_categories", "error_categories_initial",
)


def _renamed(draw, gold: str, catalog) -> str:
    """*gold* with one name renamed to a column of its database, or to one
    that no table has: a column reference where it has one, else a table's
    name."""
    columns = sorted({c.name for table in catalog.tables for c in table.columns})
    names = [t for t in tokenize_sql(gold) if t.kind == "identifier"]
    refs = [t for t in names if t.text in columns] or names
    ref = draw(st.sampled_from(refs))
    name = draw(st.sampled_from([*columns, "ghost"]))
    return gold[:ref.position] + name + gold[ref.position + len(ref.text):]


def _sql(draw, example, examples, catalog) -> str:
    kind = draw(st.sampled_from(["gold", "other", "renamed", "rejected", "empty", "attach"]))
    if kind == "gold":
        return example.gold_sql
    if kind == "other":
        return draw(st.sampled_from(examples)).gold_sql
    if kind == "renamed":
        return _renamed(draw, example.gold_sql, catalog)
    return {"rejected": REJECTED, "empty": "", "attach": ATTACH}[kind]


def _alignment(draw, example):
    kind = draw(st.sampled_from(["absent", "gold", "perturbed"]))
    if kind == "absent":
        return None
    records = example.gold_alignment.to_records()
    if kind == "perturbed":
        i = draw(st.integers(min_value=0, max_value=len(records) - 1))
        schema = draw(st.sampled_from([None, "singer", "name", "ghost"]))
        records[i] = {**records[i], "schema": schema, "type": schema and "col"}
    return records


@st.composite
def _run(draw, examples, catalogs):
    """A dataset drawn from the mini benchmark's examples, some with a
    ``db_id`` that has no catalog, and one trace for each of a subset of
    them."""
    dataset, traces = [], []
    for example in examples:
        gold = draw(st.sampled_from(
            [example.gold_sql] * 6 + [None, REJECTED, "SELECT 1 FROM nowhere"]
        ))
        dataset.append(dataclasses.replace(
            example, gold_sql=gold, db_id=draw(st.sampled_from([example.db_id] * 8 + ["zzz"])),
            hardness_label=draw(st.sampled_from([None, "easy", "hard"])),
        ))
        if not draw(st.booleans()):
            continue
        catalog = catalogs[example.db_id]
        skeleton = extract_skeleton(example.gold_sql)
        traces.append({
            "example_id": example.example_id,
            "initial_sql": _sql(draw, example, examples, catalog),
            "final_sql": _sql(draw, example, examples, catalog),
            "parsed_skeleton": draw(st.sampled_from([None, skeleton, skeleton + " LIMIT _"])),
            "alignment": _alignment(draw, example),
        })
    return dataset, draw(st.permutations(traces))


def _report_bytes(report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_report_and_records_equal_the_reference(mini_env, data):
    dataset, traces = data.draw(_run(mini_env.examples, mini_env.catalogs))
    report = evaluate_run(traces, dataset, mini_env.catalogs)
    expected = evaluate_reference.evaluate_run(traces, dataset, mini_env.catalogs)
    assert _report_bytes(report) == _report_bytes(expected)
    assert [[getattr(r, name) for name in RECORD_FIELDS] for r in report.records] == [
        [getattr(r, name) for name in RECORD_FIELDS] for r in expected.records
    ]


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def test_each_report_field_is_the_fold_of_its_records(mini_env):
    by_id = {e.example_id: e for e in mini_env.examples}
    gold = {i: e.gold_sql for i, e in by_id.items()}
    dataset = [
        dataclasses.replace(e, hardness_label=["easy", "hard", None][int(e.example_id) % 3])
        for e in mini_env.examples
    ]
    dataset[9] = dataclasses.replace(dataset[9], gold_sql=REJECTED)

    def trace(i, initial, final, parsed=None, aligned=False):
        return {
            "example_id": str(i), "initial_sql": initial, "final_sql": final,
            "parsed_skeleton": parsed,
            "alignment": by_id[str(i)].gold_alignment.to_records() if aligned else None,
        }

    traces = [
        trace(0, REJECTED, gold["0"], parsed=extract_skeleton(gold["0"]), aligned=True),
        trace(1, gold["1"], gold["1"], parsed="SELECT _", aligned=True),
        trace(2, "SELECT name FROM singer", gold["2"], parsed=extract_skeleton(gold["2"])),
        trace(3, gold["3"], "SELECT venue FROM concert WHERE year = 2019"),
        trace(4, "", ATTACH, aligned=True),
        trace(5, gold["5"], gold["8"]),
        trace(9, gold["9"], gold["9"]),
    ]
    report = evaluate_run(traces, dataset, mini_env.catalogs)
    records = report.records

    assert report.invalid_gold == ["9"]
    assert report.record_count == len(records) == 6
    assert report.ex_accuracy == _mean(r.ex_match for r in records)
    assert report.ex_accuracy_initial == _mean(r.ex_match_initial for r in records)
    assert report.ex_delta == _mean(r.ex_match - r.ex_match_initial for r in records)

    for stage, attribute in (("initial", "error_categories_initial"),
                             ("final", "error_categories")):
        counts = Counter(c for r in records for c in getattr(r, attribute))
        assert report.error_histogram[stage] == {c: counts[c] for c in ERROR_CATEGORIES}
    assert all(report.error_histogram["initial"].values())
    assert any(report.error_histogram["final"].values())

    assert [r.skeleton_hit for r in records] == [False, True, False, True, False, True]
    assert report.skeleton_accuracy == _mean(r.skeleton_hit for r in records) == 0.5
    parsed = [r.parsed_skeleton_hit for r in records]
    assert parsed == [True, False, True, None, None, None]
    assert report.parsed_skeleton_accuracy == _mean(p for p in parsed if p is not None)

    assert [r.hardness for r in records] == ["easy", "hard", None, "easy", "hard", None]
    buckets = {}
    for r in records:
        if r.hardness:
            bucket = buckets.setdefault(r.hardness, Counter())
            bucket.update(count=1, ex_initial=r.ex_match_initial, ex_final=r.ex_match)
    assert report.per_hardness == {label: dict(b) for label, b in buckets.items()}
    assert set(report.per_hardness) == {"easy", "hard"}

    scores = [r.linking.macro for r in records if r.linking is not None]
    assert len(scores) == 3
    assert report.linking_scores == {
        "precision": _mean(s.precision for s in scores),
        "recall": _mean(s.recall for s in scores),
        "f1": _mean(s.f1 for s in scores),
        "scored_examples": 3,
    }
