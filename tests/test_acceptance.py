"""Acceptance suite: every exit criterion, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by; a plain ``pytest`` run checks the same assertions.
"""

from __future__ import annotations

import functools
import json
import random
import socket
import time

import pytest

from sqlmend.alignment import Alignment, AlignmentEntry, score_alignment
from sqlmend.backends import ReplayBackend, ReplayStore
from sqlmend.cli import main
from sqlmend.comparison import Feedback, compare_entities, compare_skeletons
from sqlmend.datasets import Example
from sqlmend.evaluation import evaluate_run
from sqlmend.pipeline import write_traces
from sqlmend.prompts import PromptDemo, PromptKind, build_prompt, correction_prompt
from sqlmend.retrieval import Demonstration, build_index, top_k
from sqlmend.sql_analysis import SqlEntities, extract_entities, extract_skeleton

from conftest import CountingBackend
from support.ast_oracle import oracle_entities
from support.corpus import GOLDEN_CORPUS, corpus_catalog
from support.mini import ScriptedBackend


def criterion(number: int, title: str):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL  {title}")
                raise
            print(f"[criterion {number}] PASS  {title}")
            return result

        return wrapper

    return decorate


@criterion(1, "skeleton extraction matches the hand-written masking oracle, 50/50, <1s")
def test_criterion_1_skeleton_oracle_suite(catalog):
    started = time.perf_counter()
    agreements = 0
    for entry in GOLDEN_CORPUS:
        if extract_skeleton(entry["sql"]) == entry["skeleton"]:
            agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == len(GOLDEN_CORPUS) == 50
    assert elapsed < 1.0, f"skeleton suite took {elapsed:.3f}s"


@criterion(2, "entity extraction matches the independent AST-walk oracle, 50/50")
def test_criterion_2_entity_oracle_suite(catalog):
    agreements = 0
    for entry in GOLDEN_CORPUS:
        tables, columns, _ = oracle_entities(entry["sql"], catalog)
        entities = extract_entities(entry["sql"], catalog)
        if entities.tables == tables and entities.columns == columns:
            agreements += 1
    assert agreements == len(GOLDEN_CORPUS) == 50


EX_PAIRS = [
    # (gold, predicted, expected verdict)
    ("SELECT name FROM singer WHERE age > 26",
     "SELECT name FROM singer WHERE age > 26", True),
    ("SELECT name FROM singer ORDER BY age",
     "SELECT name FROM singer ORDER BY name", False),  # ORDER-BY-sensitive
    ("SELECT name FROM singer WHERE age > 28",
     "SELECT name FROM singer WHERE age > 28 ORDER BY name DESC", True),
    ("SELECT 0.3", "SELECT 0.1 + 0.2", True),  # float-tolerance pair
    ("SELECT name FROM singer", "SELECT x FROM nonexistent", False),
    ("SELECT name FROM singer", "SELECT name, age FROM singer", False),
    ("SELECT T2.venue FROM performance AS T1 JOIN concert AS T2"
     " ON T1.concert_id = T2.concert_id WHERE T1.rank = 1",
     "SELECT venue FROM concert WHERE concert_id IN"
     " (SELECT concert_id FROM performance WHERE rank = 1)", True),
    ("SELECT avg(age) FROM singer",
     "SELECT sum(age) * 1.0 / count(*) FROM singer", True),
]


@criterion(3, "EX harness reports exactly 5/8 on the known-verdict pairs, bit-stable")
def test_criterion_3_ex_harness(corpus_db):
    catalog = corpus_catalog()
    catalog.source_path = corpus_db
    catalogs = {catalog.db_id: catalog}
    dataset = [
        Example(str(i), f"q{i}", catalog.db_id, gold_sql=gold)
        for i, (gold, _, _) in enumerate(EX_PAIRS)
    ]
    traces = [
        {"example_id": str(i), "initial_sql": predicted, "final_sql": predicted,
         "parsed_skeleton": None, "alignment": None}
        for i, (_, predicted, _) in enumerate(EX_PAIRS)
    ]
    expected_matches = sum(1 for _, _, verdict in EX_PAIRS if verdict)
    assert expected_matches == 5

    serialized = []
    for _ in range(2):
        report = evaluate_run(traces, dataset, catalogs)
        assert report.record_count == 8
        for record, (_, _, verdict) in zip(report.records, EX_PAIRS):
            assert record.ex_match == verdict, record.example_id
        assert report.ex_accuracy == expected_matches / 8
        serialized.append(json.dumps(report.to_dict(), sort_keys=True).encode())
    assert serialized[0] == serialized[1]


@criterion(4, "comparison semantics hold on 1,000 randomized corpus cases")
def test_criterion_4_comparison_properties(catalog):
    rng = random.Random(42)
    sqls = [entry["sql"] for entry in GOLDEN_CORPUS]
    table_names = [t.name for t in catalog.tables]
    column_names = sorted(
        {c.name for t in catalog.tables for c in t.columns}
    )
    cases = 0

    for _ in range(500):
        sql = rng.choice(sqls)
        used = extract_entities(sql, catalog)
        linked = SqlEntities(
            tables={t for t in rng.sample(table_names, rng.randint(0, len(table_names)))},
            columns={c for c in rng.sample(column_names, rng.randint(0, 4))},
        )
        feedback = compare_entities(linked, sql, catalog)
        used_tables = {t.lower() for t in used.tables}
        used_columns = {c.lower() for c in used.columns}
        subset = {t.lower() for t in linked.tables} <= used_tables and {
            c.lower() for c in linked.columns
        } <= used_columns
        # (a) feedback is None exactly when linked is a subset of used
        assert (feedback is None) == subset
        if feedback is not None:
            # (b) only question-side entities are ever reported; nothing that
            # the SQL already uses, and nothing outside the linked sets
            assert {t.lower() for t in feedback.missing_tables}.isdisjoint(used_tables)
            assert {c.lower() for c in feedback.missing_columns}.isdisjoint(used_columns)
            assert feedback.missing_tables <= linked.tables
            assert feedback.missing_columns <= linked.columns
        cases += 1

    for _ in range(500):
        left = rng.choice(sqls)
        right = left if rng.random() < 0.5 else rng.choice(sqls)
        parsed = extract_skeleton(right)
        feedback = compare_skeletons(left, parsed)
        equal = extract_skeleton(left) == parsed
        # (c) feedback is None exactly on canonical equality
        assert (feedback is None) == equal
        if feedback is not None:
            assert feedback.expected_skeleton == parsed
        cases += 1

    assert cases == 1000


class _NoNetwork:
    """Fails the test if anything opens a socket while active."""

    def __enter__(self):
        self._real = socket.socket

        def _blocked(*args, **kwargs):
            raise AssertionError("network activity during replay run")

        socket.socket = _blocked
        return self

    def __exit__(self, *exc):
        socket.socket = self._real
        return False


@criterion(5, "replay end-to-end: no network, byte-identical traces, EX flip + positive delta")
def test_criterion_5_replay_end_to_end(mini_env, mini_paths, replay_store_path, tmp_path):
    outputs = []
    for run in range(2):
        backend = ReplayBackend(ReplayStore(replay_store_path))
        with _NoNetwork():
            traces = mini_env.pipeline(backend).run(mini_env.examples)
        path = tmp_path / f"replay{run}.jsonl"
        write_traces(traces, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1], "replay runs must be byte-identical"

    report = evaluate_run(
        [t.to_dict() for t in traces], mini_env.examples, mini_env.catalogs
    )
    flagship = [
        t for t in traces
        if [r.feedback.kind for r in t.rounds] == ["missing_entities", "skeleton_mismatch"]
    ]
    assert flagship, "need an example with rounds exactly [missing_entities, skeleton_mismatch]"
    flipped = False
    for trace in flagship:
        record = next(r for r in report.records if r.example_id == trace.example_id)
        if record.ex_match and not record.ex_match_initial:
            flipped = True
    assert flipped, "the two-round example must flip from wrong to right"
    assert report.ex_delta > 0

    # The CLI path writes the same bytes.
    output = tmp_path / "cli_out"
    code = main(
        [
            "run",
            "--dataset", str(mini_paths["dataset"]),
            "--databases", str(mini_paths["databases"]),
            "--tables", str(mini_paths["tables"]),
            "--pool", str(mini_paths["pool"]),
            "--alignments", str(mini_paths["dataset_alignments"]),
            "--pool-alignments", str(mini_paths["pool_alignments"]),
            "--backend", "replay",
            "--replay-store", str(replay_store_path),
            "--output", str(output),
        ]
    )
    assert code == 0
    assert (output / "traces.jsonl").read_bytes() == outputs[0]


@criterion(6, "oracle-both: calls <= 1 + corrections; skeleton rounds track gold skeletons")
def test_criterion_6_oracle_mode_bound(mini_env):
    fired = 0
    traces = []
    for example in mini_env.examples:
        backend = CountingBackend(ScriptedBackend())
        pipeline = mini_env.pipeline(backend, oracle="both")
        trace = pipeline.run_example(example)
        assert backend.calls <= 1 + len(trace.rounds)
        skeleton_fired = any(
            r.feedback.kind == "skeleton_mismatch" for r in trace.rounds
        )
        differs = extract_skeleton(trace.initial_sql) != extract_skeleton(example.gold_sql)
        assert skeleton_fired == differs, example.example_id
        fired += skeleton_fired
        traces.append(trace.to_dict())

    report = evaluate_run(traces, mini_env.examples, mini_env.catalogs)
    assert report.record_count == len(traces)
    assert fired == round((1 - report.skeleton_accuracy) * len(traces))


@criterion(7, "each built prompt carries its template's verbatim instruction line")
def test_criterion_7_prompt_fidelity(catalog):
    demo = PromptDemo(question="Q", sql="SELECT 1", schema_text="CREATE TABLE t (a TEXT);",
                      alignment_text="[]")
    generation = build_prompt(PromptKind.SQL_GENERATION, catalog, "How?", [demo])
    assert "Generate a SQL to answer the question with the given schema" in generation

    linking = build_prompt(PromptKind.ENTITY_LINKING, catalog, "How ?", [demo], sql="SELECT 1")
    assert "Align the tokens in the given question" in linking

    hallucination = build_prompt(PromptKind.SKELETON_PARSING, None, "How?", [demo])
    assert "Hallucinate a SQL to answer the question" in hallucination

    entity_fix = correction_prompt(
        catalog, "How?", "SELECT 1", Feedback(kind="missing_entities", missing_columns={"name"})
    )
    assert "are mentioned by the question" in entity_fix

    skeleton_fix = correction_prompt(
        catalog, "How?", "SELECT 1",
        Feedback(kind="skeleton_mismatch", expected_skeleton="SELECT _ FROM _"),
    )
    assert "each '_' can only be replaced with one single table, column or value" in skeleton_fix


@criterion(8, "BM25 matches hand-computed Okapi scores to 1e-9 across 100 rebuilds")
def test_criterion_8_bm25_determinism():
    pool = [
        Demonstration(question="show singer names", sql="S1", db_id="d"),
        Demonstration(question="count concerts", sql="S2", db_id="d"),
        Demonstration(question="singer age order", sql="S3", db_id="d"),
    ]
    expected = {0: 1.3802518231206125, 2: 0.44713858782297017}
    baseline = None
    for _ in range(100):
        ranked = top_k(build_index(pool), "singer names", k=2)
        assert [doc for doc, _ in ranked] == [0, 2]
        for doc, score in ranked:
            assert abs(score - expected[doc]) <= 1e-9
        if baseline is None:
            baseline = ranked
        assert ranked == baseline


@criterion(9, "alignment scoring: identity macro F = 1.0 and the hand-computed 2/3 fixture")
def test_criterion_9_metric_sanity():
    full = Alignment(
        entries=[
            AlignmentEntry("stock", "stock_idx", "tbl"),
            AlignmentEntry("the"),
            AlignmentEntry("earnings", "earnings", "col"),
            AlignmentEntry("5,000", "5000", "val"),
        ],
        question="q",
    )
    assert score_alignment(full, full).macro.f1 == 1.0

    gold = Alignment(
        entries=[
            AlignmentEntry("a"), AlignmentEntry("b"),
            AlignmentEntry("stock", "stock_idx", "tbl"),
            AlignmentEntry("d"), AlignmentEntry("e"),
            AlignmentEntry("earnings", "earnings", "col"),
        ],
        question="q",
    )
    predicted = Alignment(
        entries=[
            AlignmentEntry("a"), AlignmentEntry("b"),
            AlignmentEntry("stock", "stock_idx", "tbl"),
            AlignmentEntry("d"), AlignmentEntry("e"), AlignmentEntry("f"),
        ],
        question="q",
    )
    score = score_alignment(predicted, gold)
    assert score.by_type["tbl"].f1 == 1.0
    assert score.by_type["col"].f1 == 0.0
    assert score.by_type["val"].f1 == 1.0
    assert score.macro.f1 == pytest.approx(2 / 3)
